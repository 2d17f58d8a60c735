//! The repository benchmark: end-to-end and per-layer measurements of
//! the Chisel forwarding engine on named workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fwd_zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics
//! ([`END_TO_END`]); with `--trace 1` it records spans around its calls
//! into each layer and reports the per-layer metrics ([`PER_LAYER`]),
//! including its own end-to-end numbers under tracing (`traced.*`), so
//! the tracing overhead can be read off against an untraced run. Every
//! answer is checked against a reference; a wrong answer ends the run
//! with exit code 1. The last stdout line is the JSON result. `--quick`
//! shrinks every input for a smoke run. See `README.md` beside this
//! crate for the workloads, metrics and how they interact.

#![forbid(unsafe_code)]

mod durable;
mod fwd;
mod host;
mod inputs;
mod layers;
mod openloop;
mod report;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{valid_name, valid_unit, Metric, Outcome};
use trace::Tracer;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("recover_s", "s"),
    ("table_bytes_per_prefix", "bytes"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with tracing on.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dataplane.dispatch_ns_per_key", "ns"),
    ("dataplane.hop_ns_per_key", "ns"),
    ("dataplane.cache_hit_rate", "ratio"),
    ("concurrent.pin_ns", "ns"),
    ("concurrent.reader_batch_ns_per_key", "ns"),
    ("concurrent.publish_us", "us"),
    ("concurrent.lookup_p99_us", "us"),
    ("flowcache.batch_ns_per_key", "ns"),
    ("flowcache.hit_rate", "ratio"),
    ("flowcache.invalidations", "count"),
    ("engine.cold_batch_ns_per_key", "ns"),
    ("engine.cold_scalar_ns_per_key", "ns"),
    ("engine.index_reads_per_lookup", "count"),
    ("engine.lines_per_lookup", "count"),
    ("engine.spill_len", "count"),
    ("engine.apply_us", "us"),
    ("engine.clone_us", "us"),
    ("engine.incremental_share", "ratio"),
    ("journal.encode_us", "us"),
    ("journal.fsync_us", "us"),
    ("journal.checkpoint_ms", "ms"),
    ("journal.recover_load_ms", "ms"),
    ("journal.recover_rebuild_ms", "ms"),
    ("journal.recover_scan_ms", "ms"),
    ("journal.recover_replay_ms", "ms"),
    ("traced.setup_s", "s"),
    ("traced.ops_per_s", "1/s"),
    ("traced.op_p50_us", "us"),
    ("traced.op_p90_us", "us"),
    ("traced.op_p99_us", "us"),
    ("traced.recover_s", "s"),
];

/// Workloads the command accepts. `fwd_uniform_512k` is run by hand:
/// its production-config setup fails today, and it reports that failure
/// rather than measuring.
pub const WORKLOADS: &[&str] = &[
    "fwd_zipf",
    "fwd_uniform",
    "update_durable",
    "fwd_uniform_512k",
];

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Scratch space for journals and checkpoints, removed at exit.
    pub work: PathBuf,
}

impl Run {
    /// A seed for one input of this run, so that each input depends on
    /// `--seed` but not on the others.
    pub fn seed_for(&self, input: u64) -> u64 {
        let mut z = self.seed ^ input.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A share of the run's measuring time.
    pub fn phase(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// Everything a workload hands back: its outcome plus human-readable
/// lines printed before the result.
pub struct Report {
    pub outcome: Outcome,
    pub notes: Vec<String>,
}

impl Report {
    /// The report of a workload whose setup failed after `setup_s`
    /// seconds: its `planned` operations all count as failed.
    pub fn setup_failed(
        mut notes: Vec<String>,
        error: impl std::fmt::Debug,
        setup_s: f64,
        planned: u64,
    ) -> Self {
        notes.push(format!(
            "setup failed after {setup_s:.3} s: {error:?}; all {planned} operations of the workload count as failed"
        ));
        let metric = Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        };
        Report {
            outcome: Outcome::failed_setup(planned, vec![metric]),
            notes,
        }
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(Run, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut quick = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let run = Run {
        work: PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id())),
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        quick,
    };
    Ok((run, traced.ok_or("--trace is required")?))
}

/// Runs one workload and returns its report; tracing adds the per-layer
/// metrics and leaves the spans in `tracer`.
pub fn run_workload(run: &Run, tracer: &mut Tracer) -> Result<Report, String> {
    match run.workload.as_str() {
        "fwd_zipf" => fwd::run(run, &fwd::FWD_ZIPF, tracer),
        "fwd_uniform" => fwd::run(run, &fwd::FWD_UNIFORM, tracer),
        "fwd_uniform_512k" => fwd::run(run, &fwd::FWD_UNIFORM_512K, tracer),
        "update_durable" => durable::run(run, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Checks that `metrics` are exactly the names and units of `expected`,
/// in order, with finite values.
pub fn check_metrics(metrics: &[Metric], expected: &[(&str, &str)]) -> Result<(), String> {
    let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    if got != expected {
        return Err(format!(
            "metrics {got:?} differ from the declared {expected:?}"
        ));
    }
    match metrics
        .iter()
        .find(|m| !m.value.is_finite() || !valid_name(m.name) || !valid_unit(m.unit))
    {
        Some(m) => Err(format!(
            "metric {} {} {} is malformed",
            m.name, m.value, m.unit
        )),
        None => Ok(()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (run, traced) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.work) {
        eprintln!("error: cannot create {}: {e}", run.work.display());
        return ExitCode::from(2);
    }
    let host = host::Host::probe(&run.work);
    println!("host {}", host.to_json());
    let mut tracer = Tracer::new(traced, Instant::now());
    let ticks_before = host::cpu_ticks();
    let result = run_workload(&run, &mut tracer);
    let ticks_after = host::cpu_ticks();
    let _ = std::fs::remove_dir_all(&run.work);
    let _ = std::fs::remove_dir(Path::new(".bench_work"));
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks_before, ticks_after) {
        println!(
            "host steal: {:.2}% of CPU time during the run",
            100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
        );
    }
    let outcome = report.outcome;
    if !outcome.setup_failed {
        let declared = if traced { PER_LAYER } else { END_TO_END };
        if let Err(e) = check_metrics(&outcome.metrics, declared) {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    }
    for m in &outcome.metrics {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<36} {:>16.4} (failed {} of {} attempted)",
        "failed_share",
        outcome.failed_share(),
        outcome.failed,
        outcome.attempted
    );
    if traced {
        let dir = Path::new(".bench_trace");
        // One file per workload, replaced by each traced run (the header
        // names the seed), so repeated runs do not pile up spans on disk.
        let path = dir.join(format!("{}.spans.jsonl", run.workload));
        let header = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {}}}",
            run.workload,
            run.seed,
            host.to_json()
        );
        match std::fs::create_dir_all(dir).and_then(|()| tracer.write_jsonl(&path, &header)) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("error: cannot write spans to {}: {e}", path.display());
                return ExitCode::from(3);
            }
        }
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: a checked answer was wrong");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests;
