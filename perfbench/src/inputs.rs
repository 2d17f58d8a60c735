//! Inputs and steps the workloads share: seeded tables and key streams,
//! reference answers, timed setup and recovery, memory readings.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use chisel_core::{journal, ChiselConfig, ChiselError, ChiselLpm, Recovered};
use chisel_prefix::oracle::OracleLpm;
use chisel_prefix::{Key, NextHop, RoutingTable};
use chisel_workloads::{synthesize, PrefixLenDistribution};

use crate::report::median;
use crate::trace::Tracer;

/// Engine builds timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Recoveries timed per run; `recover_s` is their median.
pub const RECOVER_REPS: usize = 15;

/// A BGP-shaped IPv4 table of `size` prefixes.
pub fn table(size: usize, seed: u64) -> RoutingTable {
    synthesize(size, &PrefixLenDistribution::bgp_ipv4(), seed)
}

/// The reference answer of every key in `keys`.
pub fn expected(oracle: &OracleLpm, keys: &[Key]) -> HashMap<Key, Option<NextHop>> {
    keys.iter().map(|&k| (k, oracle.lookup(k))).collect()
}

/// Whether every answer equals the reference for its key.
pub fn answers_match(
    expected: &HashMap<Key, Option<NextHop>>,
    keys: &[Key],
    answers: &[Option<NextHop>],
) -> bool {
    keys.len() == answers.len()
        && keys
            .iter()
            .zip(answers)
            .all(|(k, a)| expected.get(k) == Some(a))
}

/// The workload's engine and what setting it up cost.
pub struct Setup {
    pub engine: Result<ChiselLpm, ChiselError>,
    /// Median time of the timed builds, in seconds.
    pub setup_s: f64,
    /// Resident memory right after the first build, with the workload's
    /// inputs loaded; later builds only add freed-memory noise.
    pub rss_mb: f64,
}

/// Builds the production-config engine `reps` times, stopping at the
/// first failure, and keeps the first engine. A failed build returns its
/// error and the time it took.
pub fn timed_build(
    table: &RoutingTable,
    reps: usize,
    tracer: &mut Tracer,
) -> Result<Setup, String> {
    let mut times = Vec::with_capacity(reps);
    let mut first: Option<(Result<ChiselLpm, ChiselError>, f64)> = None;
    for rep in 0..reps {
        let start = Instant::now();
        let built = tracer.span("setup.build", rep as u64, |_| {
            ChiselLpm::build(table, ChiselConfig::ipv4())
        });
        times.push(start.elapsed().as_secs_f64());
        let failed = built.is_err();
        if first.is_none() {
            first = Some((built, rss_mb()?));
        } else if let Err(e) = built {
            return Err(format!("a repeated build failed: {e:?}"));
        }
        if failed {
            break;
        }
    }
    let (engine, rss_mb) = first.expect("at least one build rep");
    Ok(Setup {
        engine,
        setup_s: median(&mut times),
        rss_mb,
    })
}

/// Runs `journal::recover` `reps` times on the same files and returns
/// the last recovery with the median time in seconds.
pub fn timed_recover(
    checkpoint: &Path,
    journal_path: &Path,
    reps: usize,
    tracer: &mut Tracer,
) -> Result<(Recovered, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        let start = Instant::now();
        let recovered = tracer
            .span("journal.recover", rep as u64, |_| {
                journal::recover(checkpoint, journal_path)
            })
            .map_err(|e| format!("recovery failed: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(recovered);
    }
    Ok((last.expect("at least one recovery rep"), median(&mut times)))
}

/// Resident set size of this process in MB (`VmRSS`).
pub fn rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmRSS in /proc/self/status".to_string())
}

/// On-chip table bytes per routed prefix, from the engine's storage
/// model.
pub fn bytes_per_prefix(engine: &ChiselLpm) -> f64 {
    engine.storage().bytes_per_prefix(engine.len())
}
