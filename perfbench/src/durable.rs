//! `update_durable`: route updates replayed through the durable control
//! plane in a closed loop, one event per call with fsync on, while one
//! reader thread serves open-loop lookups; then a timed recovery.
//!
//! The run is a series of rounds until `--seconds` is up. Each round
//! starts from the freshly built engine and replays the same trace, so
//! every round measures the same sequence of engine states (the flap
//! tracker, for one, grows with every withdraw), and the reported values
//! are medians over rounds.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use chisel_core::{journal, ChiselLpm, DurableControl, DurableError, DurableOptions, SharedChisel};
use chisel_prefix::oracle::OracleLpm;
use chisel_prefix::{Key, NextHop, RoutingTable};
use chisel_workloads::{flow_pool, generate_trace, zipf_stream, UpdateEvent};

use crate::inputs::{self, RECOVER_REPS, SETUP_REPS};
use crate::layers::{self, rrc00};
use crate::openloop::{self, OpenLoop, Reader, BATCH};
use crate::report::{median, quantile, Outcome};
use crate::trace::Tracer;
use crate::{Report, Run};

const TABLE_SIZE: usize = 50_000;
const FLOWS: usize = 65_536;
const STREAM_LEN: usize = 1 << 20;
/// Events per round: about 1.3 s at 10k updates/s, so a 20 s run has
/// enough rounds for a steady median.
const ROUND_EVENTS: usize = 12_500;
/// Accepted events between periodic checkpoints. `ROUND_EVENTS` ends
/// half an interval past a checkpoint, so recovery replays a 2,500
/// record journal tail.
const CHECKPOINT_EVERY: u64 = 5_000;
/// Reader offered rate, keys per second: the reader shares the host's
/// two cores with the writer, and nearly every batch finds its flow
/// cache invalidated by an update.
const READER_RATE: f64 = 0.5e6;
/// Reader p99 latency limit per 64-key batch, microseconds.
const READER_LIMIT_US: f64 = 5_000.0;
/// Every this many reader batches, the answers are kept and checked
/// afterwards against the reference at the batch's generation.
const SAMPLE_EVERY: u64 = 16;

/// A kept reader batch: generation, stream offset, answers.
type Sample = (u64, usize, Vec<Option<NextHop>>);

/// The workload's fixed inputs.
struct Inputs {
    table: RoutingTable,
    pool: Vec<Key>,
    stream: Vec<Key>,
    events: Vec<UpdateEvent>,
    checkpoint_every: u64,
}

/// What one round measured and checked.
struct Round {
    updates_per_s: f64,
    commit_p50_us: f64,
    commit_p90_us: f64,
    commit_p99_us: f64,
    /// The round's checkpoint and journal, kept for the timed recovery.
    checkpoint: PathBuf,
    journal: PathBuf,
    processed: u64,
    rejected: u64,
    reader: OpenLoop,
    hit_rate: f64,
    /// Sampled reader batches and recovered answers that disagreed with
    /// the reference.
    wrong: u64,
    /// Recovery landed on the durable generation.
    generation_ok: bool,
}

pub fn run(run: &Run, tracer: &mut Tracer) -> Result<Report, String> {
    let (table_size, flows, stream_len, round_events, checkpoint_every) = if run.quick {
        (5_000, 4_096, 1 << 16, 2_500, 1_000)
    } else {
        (
            TABLE_SIZE,
            FLOWS,
            STREAM_LEN,
            ROUND_EVENTS,
            CHECKPOINT_EVERY,
        )
    };
    let table = inputs::table(table_size, run.seed_for(1));
    let pool = flow_pool(&table, flows, run.seed_for(2));
    let stream = zipf_stream(&pool, 1.0, stream_len, run.seed_for(3));
    let events = generate_trace(&table, round_events, &rrc00(run.seed_for(4)));
    let inputs = Inputs {
        table,
        pool,
        stream,
        events,
        checkpoint_every,
    };
    let mut notes = vec![format!(
        "workload update_durable: {} prefixes, rounds of {} rrc00 events, checkpoint every {checkpoint_every}, reader offered {:.2} Mkeys/s",
        inputs.table.len(),
        inputs.events.len(),
        READER_RATE / 1e6
    )];

    let setup = inputs::timed_build(&inputs.table, SETUP_REPS, tracer)?;
    let engine = match setup.engine {
        Ok(engine) => engine,
        Err(e) => {
            let planned = inputs.events.len() as u64;
            return Ok(Report::setup_failed(notes, e, setup.setup_s, planned));
        }
    };
    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", setup.setup_s);
    e2e.insert("rss_mb", setup.rss_mb);
    e2e.insert("table_bytes_per_prefix", inputs::bytes_per_prefix(&engine));

    let deadline = Instant::now() + run.phase(1.0);
    let mut rounds = Vec::new();
    let mut last_engine = None;
    while rounds.is_empty() || Instant::now() < deadline {
        let (measured, live) = round(run, rounds.len(), &inputs, &engine, tracer)?;
        rounds.push(measured);
        last_engine = Some(live);
    }

    let mut outcome = Outcome {
        correct: rounds
            .iter()
            .all(|r| r.wrong == 0 && r.generation_ok && r.reader.wrong_batches == 0),
        attempted: rounds.iter().map(|r| r.processed + r.reader.keys).sum(),
        failed: rounds.iter().map(|r| r.rejected).sum(),
        ..Outcome::default()
    };
    let med = |f: fn(&Round) -> f64| median(&mut rounds.iter().map(f).collect::<Vec<_>>());
    e2e.insert("ops_per_s", med(|r| r.updates_per_s));
    e2e.insert("op_p50_us", med(|r| r.commit_p50_us));
    e2e.insert("op_p90_us", med(|r| r.commit_p90_us));
    let last = &rounds[rounds.len() - 1];
    let (_, recover_s) =
        inputs::timed_recover(&last.checkpoint, &last.journal, RECOVER_REPS, tracer)?;
    e2e.insert("recover_s", recover_s);
    let mut reader = OpenLoop::default();
    for r in &rounds {
        reader.absorb(&r.reader);
    }
    let per_round: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.0}/s p90 {:.0} us", r.updates_per_s, r.commit_p90_us))
        .collect();
    notes.push(format!("rounds: {}", per_round.join(", ")));
    notes.push(format!(
        "updates: {} rounds, median {:.0}/s, commit p50 {:.1} us p90 {:.1} us p99 {:.1} us, {} rejected",
        rounds.len(),
        e2e["ops_per_s"],
        e2e["op_p50_us"],
        e2e["op_p90_us"],
        med(|r| r.commit_p99_us),
        outcome.failed
    ));
    notes.push(format!(
        "reader beside writes: {} batches, windowed p50 {:.2} us, p90 {:.2} us, p99 {:.2} us, whole-run p99 {:.2} us, max final lag {:.1} us, {} invalidations, latency limit {READER_LIMIT_US} us {}",
        reader.latencies_us.len(),
        reader.p50_us(),
        reader.p90_us(),
        reader.p99_us(),
        reader.whole_p99_us(),
        reader.final_lag_us,
        reader.invalidations,
        if reader.met_limit(READER_LIMIT_US) { "met" } else { "MISSED" }
    ));
    notes.push(format!(
        "checks: recovery on the durable generation in {} of {} rounds; {} wrong sampled reader batches or recovered answers",
        rounds.iter().filter(|r| r.generation_ok).count(),
        rounds.len(),
        rounds.iter().map(|r| r.wrong).sum::<u64>()
    ));

    let mut layer = BTreeMap::new();
    if tracer.on() {
        layer.insert("flowcache.hit_rate", med(|r| r.hit_rate));
        layer.insert("flowcache.invalidations", reader.invalidations as f64);
        layer.insert("concurrent.lookup_p99_us", reader.p99_us());
        layer.insert("traced.op_p99_us", med(|r| r.commit_p99_us));
        let last = last_engine.as_ref().expect("at least one round ran");
        layers::probe(
            run,
            last,
            &inputs.table,
            &inputs.pool,
            &inputs.stream,
            tracer,
            &mut layer,
        )?;
    }
    outcome.metrics = layers::finish(tracer.on(), e2e, layer)?;
    Ok(Report { outcome, notes })
}

/// One round: a durable control plane over a copy of `engine`, the
/// trace replayed one event per call beside the open-loop reader, then
/// recovery from the round's checkpoint and journal, and the checks.
/// Returns the round's figures and its live engine at the end.
fn round(
    run: &Run,
    index: usize,
    inputs: &Inputs,
    engine: &ChiselLpm,
    tracer: &mut Tracer,
) -> Result<(Round, ChiselLpm), String> {
    let shared = SharedChisel::from_engine(engine.clone());
    let opts = DurableOptions::at(
        run.work.join(format!("round{index}.journal")),
        inputs.checkpoint_every,
    );
    let (checkpoint, journal_path) = (opts.checkpoint.clone(), opts.journal.clone());
    let mut control = DurableControl::create(shared.clone(), opts)
        .map_err(|e| format!("durable control: {e}"))?;
    let first_generation = shared.generation();

    let stop = AtomicBool::new(false);
    let mut reader_tracer = tracer.fork();
    let mut accepted: Vec<UpdateEvent> = Vec::with_capacity(inputs.events.len());
    let mut rejected = 0u64;
    let mut commit_us = Vec::with_capacity(inputs.events.len());
    let (elapsed, reader_result) = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(|| {
            let mut reader = Reader::new(&shared);
            let mut samples: Vec<Sample> = Vec::new();
            let mut batches = 0u64;
            let open = openloop::run(
                &mut reader_tracer,
                &inputs.stream,
                READER_RATE,
                // ORDERING: Acquire pairs with the writer's Release store.
                || !stop.load(Ordering::Acquire),
                |keys, out| reader.serve(keys, out),
                |generation, offset, _, out| {
                    if batches.is_multiple_of(SAMPLE_EVERY) {
                        samples.push((generation, offset, out.to_vec()));
                    }
                    batches += 1;
                    true
                },
            );
            (open, samples, reader.hit_rate())
        });
        let start = Instant::now();
        let mut fatal = None;
        for (i, ev) in inputs.events.iter().enumerate() {
            let t0 = Instant::now();
            let result = tracer.span("control.commit", i as u64, |_| match *ev {
                UpdateEvent::Announce(p, nh) => control.announce(p, nh),
                UpdateEvent::Withdraw(p) => control.withdraw(p),
            });
            commit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            match result {
                Ok(_) => accepted.push(*ev),
                Err(DurableError::Engine(_)) => rejected += 1,
                Err(DurableError::Journal(e)) => {
                    fatal = Some(format!("journal failure: {e}"));
                    break;
                }
            }
        }
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Release);
        let joined = reader_thread
            .join()
            .map_err(|_| "reader thread panicked".to_string());
        (elapsed, joined.and_then(|r| fatal.map_or(Ok(r), Err)))
    });
    let (reader, mut samples, hit_rate) = reader_result?;
    tracer.absorb(reader_tracer);

    // Reader answers, each against the reference at its generation.
    let mut oracle = OracleLpm::from_table(&inputs.table);
    samples.sort_by_key(|s| s.0);
    let mut applied = 0usize;
    let mut apply_upto = |oracle: &mut OracleLpm, n: usize| {
        while applied < n.min(accepted.len()) {
            match accepted[applied] {
                UpdateEvent::Announce(p, nh) => oracle.insert(p, nh),
                UpdateEvent::Withdraw(p) => {
                    oracle.remove(&p);
                }
            }
            applied += 1;
        }
    };
    let mut wrong = 0u64;
    for (generation, offset, answers) in &samples {
        apply_upto(&mut oracle, (generation - first_generation) as usize);
        let keys = &inputs.stream[*offset..*offset + BATCH];
        if keys
            .iter()
            .zip(answers)
            .any(|(&k, a)| oracle.lookup(k) != *a)
        {
            wrong += 1;
        }
    }
    apply_upto(&mut oracle, accepted.len());

    // Recovery must land on the durable generation and answer like the
    // live engine and the reference, on the flow pool and on the first
    // key of every updated prefix.
    let recovered = journal::recover(&checkpoint, &journal_path)
        .map_err(|e| format!("recovery failed: {e}"))?;
    let updated = accepted.iter().map(|ev| match *ev {
        UpdateEvent::Announce(p, _) | UpdateEvent::Withdraw(p) => p.first_key(),
    });
    wrong += inputs
        .pool
        .iter()
        .copied()
        .chain(updated)
        .filter(|&k| {
            let live = shared.lookup(k);
            recovered.shared.lookup(k) != live || oracle.lookup(k) != live
        })
        .count() as u64;
    let generation_ok = recovered.report.final_generation == control.durable_generation();
    drop(control);

    let round = Round {
        updates_per_s: commit_us.len() as f64 / elapsed.as_secs_f64(),
        commit_p50_us: median(&mut commit_us),
        commit_p90_us: quantile(&mut commit_us, 0.9),
        commit_p99_us: quantile(&mut commit_us, 0.99),
        checkpoint,
        journal: journal_path,
        processed: commit_us.len() as u64,
        rejected,
        reader,
        hit_rate,
        wrong,
        generation_ok,
    };
    Ok((round, shared.with_engine(|e| e.clone())))
}
