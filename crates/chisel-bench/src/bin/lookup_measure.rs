//! Records the lookup-throughput numbers behind `BENCH_lookup.json`.
//!
//! Drives the scalar and batched lookup paths — with and without a
//! [`FlowCache`] in front — using uniform and Zipf-distributed key
//! streams over a BGP-shaped table. The stream is drawn from a fixed
//! pool of distinct flows (exact keys), so the Zipf run exercises the
//! traffic locality the flow cache exploits while the uniform run
//! measures the cold data path.
//!
//! On top of the headline rows this sweeps the batch lane depth (the
//! software prefetch distance: how many keys have their next table read
//! in flight at once) and reports the modeled 64-byte cache lines a cold
//! lookup touches — the software analogue of the DESIGN.md §11
//! per-packet access budget.
//!
//! Pass `--json` to print the machine-readable object (the payload
//! spliced into `BENCH_lookup.json`); without it a short human summary
//! is printed instead. `CHISEL_BENCH_QUICK=1` shrinks the workload to
//! the CI smoke configuration.

#![forbid(unsafe_code)]

use std::time::Instant;

use chisel_core::{ChiselConfig, ChiselLpm, FlowCache, LookupTrace};
use chisel_prefix::{Key, NextHop};
use chisel_workloads::{flow_pool, synthesize, uniform_stream, zipf_stream, PrefixLenDistribution};

/// Batch lane depths swept (keys in flight per software-pipeline wave).
const LANE_SWEEP: [usize; 5] = [4, 8, 16, 32, 64];

fn quick() -> bool {
    std::env::var_os("CHISEL_BENCH_QUICK").is_some()
}

struct Workload {
    table_size: usize,
    flows: usize,
    stream: usize,
    reps: usize,
    cache_slots: usize,
}

impl Workload {
    fn pick() -> Self {
        if quick() {
            Workload {
                table_size: 10_000,
                flows: 16_384,
                stream: 1 << 16,
                reps: 2,
                cache_slots: 16 * 1024,
            }
        } else {
            Workload {
                table_size: 50_000,
                flows: 65_536,
                stream: 1 << 20,
                reps: 5,
                cache_slots: 64 * 1024,
            }
        }
    }
}

/// Best-of-`reps` nanoseconds per key for a closure consuming the stream.
fn measure(label: &str, reps: usize, keys: &[Key], mut f: impl FnMut(&[Key]) -> u64) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..reps {
        let t = Instant::now();
        sink = sink.wrapping_add(f(keys));
        let ns = t.elapsed().as_nanos() as f64 / keys.len() as f64;
        best = best.min(ns);
    }
    eprintln!("  {label}: {best:.1} ns/key (sink {sink})");
    best
}

fn scalar(engine: &ChiselLpm, keys: &[Key]) -> u64 {
    let mut hits = 0u64;
    for &k in keys {
        hits += engine.lookup(k).is_some() as u64;
    }
    hits
}

/// Headline batch rows run the default path (`lookup_batch`, full-depth
/// lanes); the sweep below pins explicit depths via `lookup_batch_lanes`.
fn batch(engine: &ChiselLpm, keys: &[Key], out: &mut [Option<NextHop>]) -> u64 {
    engine.lookup_batch(keys, out);
    out.iter().filter(|o| o.is_some()).count() as u64
}

fn batch_lanes(engine: &ChiselLpm, keys: &[Key], out: &mut [Option<NextHop>], lanes: usize) -> u64 {
    engine.lookup_batch_lanes(keys, out, lanes);
    out.iter().filter(|o| o.is_some()).count() as u64
}

fn cached_scalar(cache: &mut FlowCache, engine: &ChiselLpm, keys: &[Key]) -> u64 {
    let mut hits = 0u64;
    for &k in keys {
        hits += cache.lookup(engine, k).is_some() as u64;
    }
    hits
}

fn cached_batch(
    cache: &mut FlowCache,
    engine: &ChiselLpm,
    keys: &[Key],
    out: &mut [Option<NextHop>],
) -> u64 {
    cache.lookup_batch(engine, keys, out);
    out.iter().filter(|o| o.is_some()).count() as u64
}

fn hit_rate(cache: &FlowCache) -> f64 {
    cache.hits() as f64 / (cache.hits() + cache.misses()).max(1) as f64
}

/// Modeled 64-byte cache lines a cold pass over the data path touches,
/// averaged over `keys` (traced scalar walk; no flow cache in front).
fn lines_per_lookup(engine: &ChiselLpm, keys: &[Key]) -> f64 {
    let mut trace = LookupTrace::default();
    for &k in keys {
        engine.lookup_traced(k, &mut trace);
    }
    trace.cache_lines_touched as f64 / keys.len() as f64
}

fn sweep_json(pairs: &[(usize, f64)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|&(lanes, ns)| format!("\"{lanes}\": {ns:.1}"))
        .collect();
    format!("{{ {} }}", body.join(", "))
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let w = Workload::pick();
    let reps = w.reps;
    let host_cores = std::thread::available_parallelism().map_or(0, usize::from);
    let simd = chisel_bloomier::simd::simd_active();

    let table = synthesize(w.table_size, &PrefixLenDistribution::bgp_ipv4(), 0xB14C);
    let engine = ChiselLpm::build(&table, ChiselConfig::ipv4()).expect("engine builds");
    let pool = flow_pool(&table, w.flows, 0xF10A);
    let uniform = uniform_stream(&pool, w.stream, 0x5EED);
    let zipf = zipf_stream(&pool, 1.0, w.stream, 0x21FF);

    eprintln!(
        "table={} flows={} stream={} reps={} cache_slots={} host_cores={host_cores} simd={simd}",
        w.table_size, w.flows, w.stream, reps, w.cache_slots
    );
    let mut out = vec![None; w.stream];

    let scalar_uniform = measure("scalar/uniform", reps, &uniform, |k| scalar(&engine, k));
    let scalar_zipf = measure("scalar/zipf", reps, &zipf, |k| scalar(&engine, k));
    let batch_uniform = measure("batch/uniform", reps, &uniform, |k| {
        batch(&engine, k, &mut out)
    });
    let batch_zipf = measure("batch/zipf", reps, &zipf, |k| batch(&engine, k, &mut out));

    // Lane-depth sweep: the depth is the software prefetch distance, and
    // with SIMD on it is also how many lanes each gather wave can fill.
    let mut lane_uniform = Vec::new();
    let mut lane_zipf = Vec::new();
    for lanes in LANE_SWEEP {
        lane_uniform.push((
            lanes,
            measure(
                &format!("batch/uniform lanes={lanes}"),
                reps,
                &uniform,
                |k| batch_lanes(&engine, k, &mut out, lanes),
            ),
        ));
        lane_zipf.push((
            lanes,
            measure(&format!("batch/zipf lanes={lanes}"), reps, &zipf, |k| {
                batch_lanes(&engine, k, &mut out, lanes)
            }),
        ));
    }

    // Access accounting (DESIGN.md §11): modeled cold cache lines per
    // lookup.
    let sample = &uniform[..w.stream.min(1 << 16)];
    let lines = lines_per_lookup(&engine, sample);
    eprintln!("  lines/lookup: {lines:.2}");

    // Cached runs: the cache persists across reps (steady-state hit rate),
    // one fresh cache per configuration.
    let mut cache = FlowCache::new(w.cache_slots);
    let cached_scalar_uniform = measure("cached-scalar/uniform", reps, &uniform, |k| {
        cached_scalar(&mut cache, &engine, k)
    });
    let scalar_uniform_hit_rate = hit_rate(&cache);
    cache = FlowCache::new(w.cache_slots);
    let cached_scalar_zipf = measure("cached-scalar/zipf", reps, &zipf, |k| {
        cached_scalar(&mut cache, &engine, k)
    });
    let scalar_zipf_hit_rate = hit_rate(&cache);
    cache = FlowCache::new(w.cache_slots);
    let cached_batch_uniform = measure("cached-batch/uniform", reps, &uniform, |k| {
        cached_batch(&mut cache, &engine, k, &mut out)
    });
    cache = FlowCache::new(w.cache_slots);
    let cached_batch_zipf = measure("cached-batch/zipf", reps, &zipf, |k| {
        cached_batch(&mut cache, &engine, k, &mut out)
    });

    if !json {
        println!("cold batch (uniform): {batch_uniform:.1} ns/key");
        println!("modeled cold cache lines per lookup: {lines:.2}");
        println!("cached batch (zipf): {cached_batch_zipf:.1} ns/key");
        println!("rerun with --json for the BENCH_lookup.json payload");
        return;
    }

    println!(
        "{{\n  \"table_size\": {},\n  \"flows\": {},\n  \"stream\": {},\n  \
         \"cache_slots\": {},\n  \"host_cores\": {host_cores},\n  \"simd_active\": {simd},\n  \
         \"scalar_uniform_ns\": {scalar_uniform:.1},\n  \"scalar_zipf_ns\": {scalar_zipf:.1},\n  \
         \"batch_uniform_ns\": {batch_uniform:.1},\n  \"batch_zipf_ns\": {batch_zipf:.1},\n  \
         \"lane_sweep_uniform_ns\": {},\n  \
         \"lane_sweep_zipf_ns\": {},\n  \
         \"cache_lines_per_lookup\": {lines:.2},\n  \
         \"cached_scalar_uniform_ns\": {cached_scalar_uniform:.1},\n  \
         \"cached_scalar_zipf_ns\": {cached_scalar_zipf:.1},\n  \
         \"cached_batch_uniform_ns\": {cached_batch_uniform:.1},\n  \
         \"cached_batch_zipf_ns\": {cached_batch_zipf:.1},\n  \
         \"cache_hit_rate_uniform\": {scalar_uniform_hit_rate:.3},\n  \
         \"cache_hit_rate_zipf\": {scalar_zipf_hit_rate:.3}\n}}",
        w.table_size,
        w.flows,
        w.stream,
        w.cache_slots,
        sweep_json(&lane_uniform),
        sweep_json(&lane_zipf),
    );
}
