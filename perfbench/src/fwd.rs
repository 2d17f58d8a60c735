//! The forwarding workloads: a quiescent table served at saturation
//! through the dataplane and at a fixed offered rate by one poll-mode
//! reader, then restarted from a checkpoint.

use std::collections::BTreeMap;
use std::time::Instant;

use chisel_core::{journal, JournalWriter, SharedChisel};
use chisel_dataplane::{Dataplane, DataplaneConfig, RunOptions};
use chisel_prefix::oracle::OracleLpm;
use chisel_prefix::AddressFamily;
use chisel_workloads::{flow_pool, uniform_stream, zipf_stream};

use crate::inputs::{self, answers_match, RECOVER_REPS, SETUP_REPS};
use crate::openloop::{self, Reader};
use crate::report::{median, Outcome};
use crate::trace::Tracer;
use crate::{layers, Report, Run};

/// Saturation runs per measurement; `ops_per_s` is their median. Many
/// short runs, because on a shared host one run's rate can differ from
/// the next by half.
const SATURATION_REPS: usize = 20;
/// Keys of the recorded dataplane pass whose every answer is checked.
const CHECKED_PASS_KEYS: usize = 1 << 16;

#[derive(Debug, Clone, Copy)]
pub struct FwdSpec {
    pub name: &'static str,
    pub table_size: usize,
    pub flows: usize,
    /// Zipf exponent of the key stream; `None` draws keys uniformly.
    pub zipf: Option<f64>,
    pub stream_len: usize,
    /// Open-loop offered rate in keys per second, below saturation.
    pub rate: f64,
    /// Open-loop p99 latency limit per 64-key batch, microseconds.
    pub limit_us: f64,
}

/// Hot cache: Zipf(1.0) over 65,536 flows, so the default 8,192-slot
/// flow cache answers about 69% of keys. Offered 1.0 Mkeys/s against a
/// saturation of 3-6 Mkeys/s on a shared 2-core host, so the loop keeps
/// up even when neighbours halve the host's speed.
pub const FWD_ZIPF: FwdSpec = FwdSpec {
    name: "fwd_zipf",
    table_size: 50_000,
    flows: 65_536,
    zipf: Some(1.0),
    stream_len: 1 << 20,
    rate: 1.0e6,
    limit_us: 500.0,
};

/// Cold path on the same table: uniform keys over about 1M flows, so the
/// flow cache hits about 1% and the engine answers nearly every key.
/// Offered 0.5 Mkeys/s against a cold saturation of 1.2-2.6 Mkeys/s.
pub const FWD_UNIFORM: FwdSpec = FwdSpec {
    name: "fwd_uniform",
    table_size: 50_000,
    flows: 1 << 20,
    zipf: None,
    stream_len: 1 << 21,
    rate: 0.5e6,
    limit_us: 1_000.0,
};

/// The paper's 512K-prefix design point with the production config and
/// the cold keystream of `FWD_UNIFORM`, whose rate it shares for want of
/// a saturation of its own.
pub const FWD_UNIFORM_512K: FwdSpec = FwdSpec {
    name: "fwd_uniform_512k",
    table_size: 1 << 19,
    ..FWD_UNIFORM
};

impl FwdSpec {
    fn sized(&self, quick: bool) -> FwdSpec {
        if !quick {
            return *self;
        }
        FwdSpec {
            table_size: self.table_size.min(5_000),
            flows: self.flows.min(4_096),
            stream_len: self.stream_len.min(1 << 16),
            ..*self
        }
    }
}

pub fn run(run: &Run, spec: &FwdSpec, tracer: &mut Tracer) -> Result<Report, String> {
    let spec = spec.sized(run.quick);
    let table = inputs::table(spec.table_size, run.seed_for(1));
    let pool = flow_pool(&table, spec.flows, run.seed_for(2));
    let stream = match spec.zipf {
        Some(s) => zipf_stream(&pool, s, spec.stream_len, run.seed_for(3)),
        None => uniform_stream(&pool, spec.stream_len, run.seed_for(3)),
    };
    let mut notes = vec![format!(
        "workload {}: {} prefixes, {} flows, {} keys, offered {:.2} Mkeys/s",
        spec.name,
        table.len(),
        pool.len(),
        stream.len(),
        spec.rate / 1e6
    )];

    let setup = inputs::timed_build(&table, SETUP_REPS, tracer)?;
    let setup_s = setup.setup_s;
    let engine = match setup.engine {
        Ok(engine) => engine,
        Err(e) => return Ok(Report::setup_failed(notes, e, setup_s, stream.len() as u64)),
    };
    let oracle = OracleLpm::from_table(&table);
    let expected = inputs::expected(&oracle, &pool);
    if expected.values().any(Option::is_none) {
        return Err("a flow of the pool has no route".to_string());
    }
    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", setup_s);
    e2e.insert("rss_mb", setup.rss_mb);
    e2e.insert("table_bytes_per_prefix", inputs::bytes_per_prefix(&engine));
    let shared = SharedChisel::from_engine(engine);
    let checkpoint = run.work.join("fwd.ckpt");
    let journal_path = run.work.join("fwd.journal");
    journal::write_checkpoint(&checkpoint, &shared.snapshot())
        .map_err(|e| format!("checkpoint: {e}"))?;
    JournalWriter::create(&journal_path, AddressFamily::V4, true)
        .map_err(|e| format!("journal: {e}"))?;

    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let dataplane = Dataplane::new(shared.clone(), DataplaneConfig::default());

    // Every answer of one recorded pass through the dataplane.
    let pass = &stream[..stream.len().min(CHECKED_PASS_KEYS)];
    let recorded = dataplane.run(
        pass,
        &RunOptions {
            record: true,
            ..RunOptions::default()
        },
    );
    let pass_ok = recorded.healthy()
        && recorded.aggregate.is_balanced()
        && recorded.aggregate.lookups == pass.len() as u64
        && recorded
            .records
            .iter()
            .flatten()
            .all(|b| answers_match(&expected, &b.keys, &b.answers));
    outcome.correct &= pass_ok;
    outcome.attempted += recorded.aggregate.lookups;

    // Saturation: one dispatcher thread plus one shard thread.
    let mut rates = Vec::with_capacity(SATURATION_REPS);
    let mut hit_rate = 0.0;
    for rep in 0..SATURATION_REPS {
        let opts = RunOptions {
            duration: Some(run.phase(0.5 / SATURATION_REPS as f64)),
            ..RunOptions::default()
        };
        let report = tracer.span("dataplane.run", rep as u64, |_| {
            dataplane.run(&stream, &opts)
        });
        let agg = &report.aggregate;
        // Every flow has a route, so every lookup must match.
        outcome.correct &= report.healthy() && agg.is_balanced() && agg.matched == agg.lookups;
        outcome.attempted += agg.lookups;
        rates.push(agg.lookups as f64 / report.elapsed.as_secs_f64());
        hit_rate = agg.cache_hit_rate();
    }
    e2e.insert("ops_per_s", median(&mut rates));

    // Open loop at the fixed offered rate; every answer is checked.
    let mut reader = Reader::new(&shared);
    let deadline = Instant::now() + run.phase(0.5);
    let open = openloop::run(
        tracer,
        &stream,
        spec.rate,
        || Instant::now() < deadline,
        |keys, out| reader.serve(keys, out),
        |_, _, keys, out| answers_match(&expected, keys, out),
    );
    outcome.correct &= open.wrong_batches == 0;
    outcome.attempted += open.keys;
    e2e.insert("op_p50_us", open.p50_us());
    e2e.insert("op_p90_us", open.p90_us());

    // Restart from the checkpoint (an empty journal tail).
    let (recovered, recover_s) =
        inputs::timed_recover(&checkpoint, &journal_path, RECOVER_REPS, tracer)?;
    let answers: Vec<_> = pool.iter().map(|&k| recovered.shared.lookup(k)).collect();
    outcome.correct &= recovered.report.final_generation == shared.generation()
        && answers_match(&expected, &pool, &answers);
    e2e.insert("recover_s", recover_s);

    notes.push(format!(
        "saturation: median {:.3} Mkeys/s over {SATURATION_REPS} runs, dataplane cache hit rate {hit_rate:.3}",
        e2e["ops_per_s"] / 1e6
    ));
    notes.push(format!(
        "open loop: {} batches, windowed p50 {:.2} us, p90 {:.2} us, p99 {:.2} us, whole-run p99 {:.2} us, final lag {:.1} us, latency limit {} us {}",
        open.latencies_us.len(),
        e2e["op_p50_us"],
        e2e["op_p90_us"],
        open.p99_us(),
        open.whole_p99_us(),
        open.final_lag_us,
        spec.limit_us,
        if open.met_limit(spec.limit_us) { "met" } else { "MISSED" }
    ));

    let mut layer = BTreeMap::new();
    if tracer.on() {
        layer.insert("flowcache.hit_rate", reader.hit_rate());
        layer.insert("flowcache.invalidations", open.invalidations as f64);
        layer.insert("concurrent.lookup_p99_us", open.p99_us());
        layer.insert("traced.op_p99_us", open.p99_us());
        let engine = shared.with_engine(|e| e.clone());
        layers::probe(run, &engine, &table, &pool, &stream, tracer, &mut layer)?;
    }
    outcome.metrics = layers::finish(tracer.on(), e2e, layer)?;
    Ok(Report { outcome, notes })
}
