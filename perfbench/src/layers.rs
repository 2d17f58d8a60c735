//! The traced run's per-layer probes. Each probe times calls into one
//! layer's public functions from outside, as spans, on the workload's
//! own table and keys, and the layer metrics are read off the spans.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use chisel_core::journal::{self, JournalWriter};
use chisel_core::{
    ChiselConfig, ChiselLpm, FlowCache, LookupTrace, RouteUpdate, SharedChisel, UpdateKind,
};
use chisel_dataplane::{Dataplane, DataplaneConfig, FlowDispatcher, RunOptions};
use chisel_prefix::{AddressFamily, Key, RoutingTable};
use chisel_workloads::{generate_trace, rrc_profiles, UpdateEvent};

use crate::host::nproc;
use crate::openloop::BATCH;
use crate::report::{ordered, Metric};
use crate::trace::{SpanTotals, Tracer};
use crate::{Run, END_TO_END, PER_LAYER};

/// Keys each lookup probe serves.
const PROBE_KEYS: usize = 1 << 18;
/// Keys walked by the counting (`lookup_traced`) probe.
const COUNTED_KEYS: usize = 1 << 14;
/// Updates each update probe applies.
const PROBE_EVENTS: usize = 2_000;
/// Checkpoints written by the checkpoint probe.
const CHECKPOINT_REPS: usize = 3;
/// How long the dataplane probe saturates the dataplane.
const DATAPLANE_PROBE: Duration = Duration::from_millis(500);

/// The rrc00 collector profile, reseeded for this run.
pub fn rrc00(seed: u64) -> chisel_workloads::TraceProfile {
    let profile = rrc_profiles()
        .into_iter()
        .find(|p| p.name.starts_with("rrc00"))
        .expect("the rrc00 profile exists");
    chisel_workloads::TraceProfile { seed, ..profile }
}

fn to_route(ev: &UpdateEvent) -> RouteUpdate {
    match *ev {
        UpdateEvent::Announce(p, nh) => RouteUpdate::Announce(p, nh),
        UpdateEvent::Withdraw(p) => RouteUpdate::Withdraw(p),
    }
}

/// The run's metrics: the end-to-end set untraced; traced, the layer
/// metrics plus the end-to-end timings under tracing as `traced.*`
/// (the workload adds `traced.op_p99_us`, the tail the end-to-end set
/// leaves out as too noisy to bound).
pub fn finish(
    traced: bool,
    e2e: BTreeMap<&'static str, f64>,
    mut layer: BTreeMap<&'static str, f64>,
) -> Result<Vec<Metric>, String> {
    if !traced {
        return ordered(&e2e, END_TO_END);
    }
    for (plain, traced_name) in [
        ("setup_s", "traced.setup_s"),
        ("ops_per_s", "traced.ops_per_s"),
        ("op_p50_us", "traced.op_p50_us"),
        ("op_p90_us", "traced.op_p90_us"),
        ("recover_s", "traced.recover_s"),
    ] {
        let value = e2e
            .get(plain)
            .ok_or(format!("metric {plain} was not measured"))?;
        layer.insert(traced_name, *value);
    }
    ordered(&layer, PER_LAYER)
}

/// Nanoseconds per key over spans that each cover one [`BATCH`]-key
/// batch.
fn per_key(t: SpanTotals) -> f64 {
    t.total_ns as f64 / (t.count.max(1) * BATCH as u64) as f64
}

/// Runs every layer probe on copies of `engine`, the workload's engine
/// as the run left it, with updates drawn from `table`, and adds the
/// layer metrics to `layer`.
pub fn probe(
    run: &Run,
    engine: &ChiselLpm,
    table: &RoutingTable,
    pool: &[Key],
    stream: &[Key],
    tracer: &mut Tracer,
    layer: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let keys = &stream[..stream.len().min(PROBE_KEYS)];
    let mut out = vec![None; BATCH];
    let shared = SharedChisel::from_engine(engine.clone());
    let dispatcher = FlowDispatcher::new(nproc().max(2));
    let config = DataplaneConfig::default();
    let lanes = config.lane_depth;
    let mut reader = shared.reader_with_capacity(config.cache_slots);
    // The reader's two steps as separate public calls: pin a snapshot,
    // then look the batch up through a flow cache of the same size.
    let mut cache = FlowCache::new(config.cache_slots);
    for (i, batch) in keys.chunks_exact(BATCH).enumerate() {
        let id = i as u64;
        let shard_sum = tracer.span("dataplane.shard_of", id, |_| {
            batch.iter().map(|&k| dispatcher.shard_of(k)).sum::<usize>()
        });
        std::hint::black_box(shard_sum);
        tracer.span("engine.lookup_batch_lanes", id, |_| {
            engine.lookup_batch_lanes(batch, &mut out, lanes)
        });
        std::hint::black_box(&out);
        let scalar = tracer.span("engine.lookup", id, |_| {
            batch
                .iter()
                .filter(|&&k| engine.lookup(k).is_some())
                .count()
        });
        std::hint::black_box(scalar);
        tracer.span("concurrent.lookup_batch_pinned_lanes", id, |_| {
            reader.lookup_batch_pinned_lanes(batch, &mut out, lanes)
        });
        let snap = tracer.span("concurrent.snapshot", id, |_| shared.snapshot());
        tracer.span("flowcache.lookup_batch_lanes", id, |_| {
            cache.lookup_batch_lanes(snap.engine(), batch, &mut out, lanes)
        });
    }
    let mut counts = LookupTrace::default();
    for &k in pool.iter().take(COUNTED_KEYS) {
        engine.lookup_traced(k, &mut counts);
    }
    let counted = pool.len().clamp(1, COUNTED_KEYS) as f64;

    let dataplane = Dataplane::new(shared.clone(), config);
    let opts = RunOptions {
        duration: Some(DATAPLANE_PROBE),
        ..RunOptions::default()
    };
    let report = tracer.span("dataplane.run", 0, |_| dataplane.run(stream, &opts));
    if !(report.healthy() && report.aggregate.is_balanced()) {
        return Err("dataplane probe run was unhealthy or unbalanced".to_string());
    }
    let dataplane_lookups = report.aggregate.lookups;

    let updates = probe_updates(run, table, engine, pool, tracer)?;

    let s = tracer.summary();
    let get = |name: &str| s.get(name).copied().unwrap_or_default();
    let reader_ns = per_key(get("concurrent.lookup_batch_pinned_lanes"));
    let run_total: u64 = tracer
        .spans()
        .iter()
        .rfind(|sp| sp.name == "dataplane.run")
        .map_or(0, |sp| sp.duration());
    layer.insert(
        "dataplane.dispatch_ns_per_key",
        per_key(get("dataplane.shard_of")),
    );
    layer.insert(
        "dataplane.hop_ns_per_key",
        run_total as f64 / dataplane_lookups.max(1) as f64 - reader_ns,
    );
    layer.insert(
        "dataplane.cache_hit_rate",
        report.aggregate.cache_hit_rate(),
    );
    let pins = get("concurrent.snapshot");
    layer.insert(
        "concurrent.pin_ns",
        pins.total_ns as f64 / pins.count.max(1) as f64,
    );
    layer.insert("concurrent.reader_batch_ns_per_key", reader_ns);
    layer.insert(
        "flowcache.batch_ns_per_key",
        per_key(get("flowcache.lookup_batch_lanes")),
    );
    layer.insert(
        "engine.cold_batch_ns_per_key",
        per_key(get("engine.lookup_batch_lanes")),
    );
    layer.insert(
        "engine.cold_scalar_ns_per_key",
        per_key(get("engine.lookup")),
    );
    layer.insert(
        "engine.index_reads_per_lookup",
        counts.index_reads as f64 / counted,
    );
    layer.insert(
        "engine.lines_per_lookup",
        counts.cache_lines_touched as f64 / counted,
    );
    layer.insert("engine.spill_len", engine.spill_len() as f64);

    let events = updates.events.max(1);
    let us = |t: SpanTotals| t.total_ns as f64 / events as f64 / 1e3;
    let (clone, apply) = (get("engine.clone"), get("engine.apply"));
    let nosync = get("journal.append_nosync");
    layer.insert("engine.clone_us", us(clone));
    layer.insert("engine.apply_us", us(apply));
    layer.insert(
        "engine.incremental_share",
        updates.incremental as f64 / events as f64,
    );
    layer.insert(
        "concurrent.publish_us",
        us(get("concurrent.update")) - us(clone) - us(apply),
    );
    layer.insert("journal.encode_us", us(nosync));
    layer.insert(
        "journal.fsync_us",
        us(get("journal.append_fsync")) - us(nosync),
    );
    let ms = |t: SpanTotals| t.total_ns as f64 / t.count.max(1) as f64 / 1e6;
    layer.insert("journal.checkpoint_ms", ms(get("journal.write_checkpoint")));
    layer.insert(
        "journal.recover_load_ms",
        ms(get("journal.read_checkpoint")),
    );
    layer.insert("journal.recover_rebuild_ms", ms(get("recover.build")));
    layer.insert("journal.recover_scan_ms", ms(get("journal.read_journal")));
    layer.insert("journal.recover_replay_ms", ms(get("recover.replay")));
    Ok(())
}

struct UpdateProbe {
    events: u64,
    incremental: u64,
}

/// Applies an rrc00 trace to private copies, one event at a time, timing
/// each step of the per-event update path as its own call: engine clone,
/// engine apply, the whole published update, the journal append without
/// and with fsync. Then writes checkpoints and recovers from the last one
/// plus the fsynced journal in four timed steps, checking the recovered
/// generation and answers against the copy that was updated.
fn probe_updates(
    run: &Run,
    table: &RoutingTable,
    engine: &ChiselLpm,
    pool: &[Key],
    tracer: &mut Tracer,
) -> Result<UpdateProbe, String> {
    let events = generate_trace(table, PROBE_EVENTS, &rrc00(run.seed_for(7)));
    let dir = &run.work;
    let checkpoint = dir.join("probe.ckpt");
    let synced = dir.join("probe-fsync.journal");
    let io = |what: &str| {
        let what = what.to_string();
        move |e: journal::JournalError| format!("{what}: {e}")
    };
    let shared = SharedChisel::from_engine(engine.clone());
    let timed_checkpoint = |tracer: &mut Tracer, shared: &SharedChisel, path: &Path| {
        tracer
            .span("journal.write_checkpoint", 0, |_| {
                journal::write_checkpoint(path, &shared.snapshot())
            })
            .map_err(io("checkpoint"))
    };
    timed_checkpoint(tracer, &shared, &checkpoint)?;
    let mut nosync =
        JournalWriter::create(&dir.join("probe-nosync.journal"), AddressFamily::V4, false)
            .map_err(io("journal"))?;
    let mut fsync =
        JournalWriter::create(&synced, AddressFamily::V4, true).map_err(io("journal"))?;

    // The engine path and the published path alternate which goes first,
    // so neither is always the one that finds the touched data in cache.
    let mut private = engine.clone();
    let mut incremental = 0u64;
    let mut engine_path = |t: &mut Tracer, id: u64, ev: &UpdateEvent| -> Result<(), String> {
        let mut next = t.span("engine.clone", id, |_| private.clone());
        let kind = t
            .span("engine.apply", id, |_| apply(&mut next, ev))
            .map_err(|e| format!("update probe: engine rejected {ev:?}: {e:?}"))?;
        private = next;
        incremental += u64::from(!matches!(
            kind,
            UpdateKind::Resetup | UpdateKind::DegradedSpill
        ));
        Ok(())
    };
    let published_path = |t: &mut Tracer, id: u64, ev: &UpdateEvent| -> Result<(), String> {
        t.span("concurrent.update", id, |_| match *ev {
            UpdateEvent::Announce(p, nh) => shared.announce(p, nh),
            UpdateEvent::Withdraw(p) => shared.withdraw(p),
        })
        .map(|_| ())
        .map_err(|e| format!("update probe: shared rejected {ev:?}: {e:?}"))
    };
    for (i, ev) in events.iter().enumerate() {
        let id = i as u64;
        let route = to_route(ev);
        tracer.span("probe.update", id, |t| -> Result<(), String> {
            if id.is_multiple_of(2) {
                engine_path(t, id, ev)?;
                published_path(t, id, ev)?;
            } else {
                published_path(t, id, ev)?;
                engine_path(t, id, ev)?;
            }
            let generation = shared.generation();
            t.span("journal.append_nosync", id, |_| {
                nosync.append(generation, &[route])
            })
            .map_err(io("append"))?;
            t.span("journal.append_fsync", id, |_| {
                fsync.append(generation, &[route])
            })
            .map_err(io("append"))
        })?;
    }
    drop(fsync);
    for rep in 1..CHECKPOINT_REPS {
        timed_checkpoint(tracer, &shared, &dir.join(format!("probe-{rep}.ckpt")))?;
    }

    let recovered = tracer.span("probe.recover", 0, |t| -> Result<SharedChisel, String> {
        let ckpt = t
            .span("journal.read_checkpoint", 0, |_| {
                journal::read_checkpoint(&checkpoint)
            })
            .map_err(io("read checkpoint"))?;
        let rebuilt = t.span("recover.build", 0, |_| {
            let mut routes = RoutingTable::new_v4();
            for &(p, nh) in &ckpt.routes {
                routes.insert(p, nh);
            }
            ChiselLpm::build(&routes, ChiselConfig::ipv4())
        });
        let rebuilt = rebuilt.map_err(|e| format!("recovery rebuild: {e:?}"))?;
        let scan = t
            .span("journal.read_journal", 0, |_| {
                journal::read_journal(&synced, AddressFamily::V4)
            })
            .map_err(io("read journal"))?;
        t.span("recover.replay", 0, |_| {
            let live = SharedChisel::from_engine_at(rebuilt, ckpt.generation);
            for record in &scan.records {
                let report = live
                    .apply_batch(&record.events)
                    .map_err(|e| format!("replay: {e:?}"))?;
                if !report.rejected_events.is_empty() || live.generation() != record.generation {
                    return Err(format!(
                        "replay diverged at generation {}",
                        record.generation
                    ));
                }
            }
            Ok(live)
        })
    })?;
    let same = recovered.generation() == shared.generation()
        && pool.iter().all(|&k| {
            recovered.lookup(k) == shared.lookup(k) && private.lookup(k) == shared.lookup(k)
        });
    if !same {
        return Err(
            "update probe: recovered or private copy disagrees with the updated engine".to_string(),
        );
    }
    Ok(UpdateProbe {
        events: events.len() as u64,
        incremental,
    })
}

fn apply(engine: &mut ChiselLpm, ev: &UpdateEvent) -> Result<UpdateKind, chisel_core::ChiselError> {
    match *ev {
        UpdateEvent::Announce(p, nh) => engine.announce(p, nh),
        UpdateEvent::Withdraw(p) => engine.withdraw(p),
    }
}
