//! Self-tests of the benchmark: span nesting and self time, the metric
//! and workload name rules, the failed-setup accounting, and a quick
//! smoke run of every measured workload with and without tracing.
//!
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`

use std::time::{Duration, Instant};

use super::*;
use report::Outcome;
use trace::Tracer;

fn spin(d: Duration) {
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

#[test]
fn self_time_is_span_minus_children() {
    let mut t = Tracer::new(true, Instant::now());
    t.span("root", 7, |t| {
        spin(Duration::from_micros(200));
        t.span("child", 7, |t| {
            spin(Duration::from_micros(300));
            t.span("grandchild", 7, |_| spin(Duration::from_micros(400)));
        });
        t.span("child", 7, |_| spin(Duration::from_micros(100)));
    });
    let spans = t.spans();
    assert_eq!(spans.len(), 4);
    assert!(
        spans.iter().all(|s| s.trace == 7),
        "one batch, one trace id"
    );
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[3].parent, Some(0));
    let self_times = t.self_times();
    let d = |i: usize| spans[i].duration();
    assert_eq!(self_times[0], d(0) - d(1) - d(3));
    assert_eq!(self_times[1], d(1) - d(2));
    assert_eq!(self_times[2], d(2));
    assert_eq!(self_times[3], d(3));
    let summary = t.summary();
    assert_eq!(summary["child"].count, 2);
    assert_eq!(summary["child"].total_ns, d(1) + d(3));
    assert_eq!(summary["child"].self_ns, self_times[1] + self_times[3]);
}

#[test]
fn a_disabled_tracer_records_nothing() {
    let mut t = Tracer::new(false, Instant::now());
    let v = t.span("x", 0, |t| t.span("y", 0, |_| 5));
    assert_eq!(v, 5);
    assert!(t.spans().is_empty());
}

#[test]
fn absorbed_spans_keep_their_nesting() {
    let mut a = Tracer::new(true, Instant::now());
    a.span("a", 0, |_| ());
    let mut b = a.fork();
    b.span("outer", 3, |t| t.span("inner", 3, |_| ()));
    a.absorb(b);
    let spans = a.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!((spans[1].id, spans[2].parent), (1, Some(1)));
}

#[test]
fn metric_and_workload_names_follow_the_charset() {
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(report::valid_name(name), "bad metric name {name}");
        assert!(report::valid_unit(unit), "bad unit {unit} of {name}");
    }
    for w in WORKLOADS {
        assert!(report::valid_name(w), "bad workload name {w}");
    }
    for bad in ["", "_lead", ".lead", "a b", "a/b", "é", &"x".repeat(65)] {
        assert!(!report::valid_name(bad), "{bad:?} accepted");
    }
    assert!(report::valid_name(&"x".repeat(64)));
    for bad in ["", "m s", &"u".repeat(17)] {
        assert!(!report::valid_unit(bad), "{bad:?} accepted as a unit");
    }
    assert!(report::valid_unit("1/s") && report::valid_unit("%") && report::valid_unit("ns"));
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "a metric name repeats"
    );
}

/// The `"name"`/`"unit"` pairs of one top-level array of
/// `BENCHMARK.json`, read without a JSON parser: the file's layout is
/// one object per line.
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..json[start..].find(']').map_or(json.len(), |e| start + e)];
    let field = |line: &str, f: &str| {
        let tag = format!("\"{f}\": \"");
        line.find(&tag).map(|i| {
            let rest = &line[i + tag.len()..];
            rest[..rest.find('"').expect("closed string")].to_string()
        })
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit").unwrap_or_default())))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_runs_report() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), as_owned(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), as_owned(PER_LAYER));
    let workloads = declared(&json, "workloads");
    assert!(workloads.len() >= 2);
    for (w, _) in &workloads {
        assert!(WORKLOADS.contains(&w.as_str()), "{w} is not a workload");
        assert_ne!(
            w, "fwd_uniform_512k",
            "a workload whose setup fails cannot be measured"
        );
    }
}

#[test]
fn a_failed_setup_fails_every_operation() {
    let o = Outcome::failed_setup(1_000, Vec::new());
    assert!(o.correct, "a setup failure is reported, not a wrong answer");
    assert_eq!((o.attempted, o.failed), (1_000, 1_000));
    assert_eq!(o.failed_share(), 1.0);
    assert!(o.setup_failed);
    let none = Outcome::failed_setup(0, Vec::new());
    assert_eq!(
        (none.attempted, none.failed),
        (1, 1),
        "attempted is at least 1"
    );
}

#[test]
fn the_result_line_has_exactly_the_contract_keys() {
    let o = Outcome {
        correct: true,
        attempted: 3,
        failed: 0,
        metrics: vec![report::Metric {
            name: "setup_s",
            value: 0.25,
            unit: "s",
        }],
        setup_failed: false,
    };
    assert_eq!(
        o.to_json(),
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
    );
    assert_eq!(report::json_number(f64::NAN), "null");
}

#[test]
fn quantiles_use_nearest_rank() {
    let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(report::quantile(&mut v, 0.99), 99.0);
    assert_eq!(report::median(&mut v), 50.0);
    assert_eq!(report::quantile(&mut [3.0], 0.99), 3.0);
}

fn run_for_test(workload: &str, traced: bool, quick: bool) -> (Outcome, Tracer) {
    let run = Run {
        workload: workload.to_string(),
        seed: 11,
        seconds: 0.5,
        quick,
        work: std::path::PathBuf::from(".bench_work")
            .join(format!("test-{workload}-{traced}-{}", std::process::id())),
    };
    std::fs::create_dir_all(&run.work).expect("work dir");
    let mut tracer = Tracer::new(traced, Instant::now());
    let report = run_workload(&run, &mut tracer);
    let _ = std::fs::remove_dir_all(&run.work);
    (report.expect("the run completes").outcome, tracer)
}

fn quick_run(workload: &str, traced: bool) {
    let (outcome, tracer) = run_for_test(workload, traced, true);
    assert!(outcome.correct, "{workload}: a checked answer was wrong");
    assert_eq!(outcome.failed, 0, "{workload}: an operation failed");
    assert!(outcome.attempted > 0);
    let declared = if traced { PER_LAYER } else { END_TO_END };
    check_metrics(&outcome.metrics, declared).expect("declared metrics");
    assert_eq!(tracer.spans().is_empty(), !traced);
}

/// At full size the production config cannot build this table today;
/// the run must then count each of the workload's 2^21 lookups as
/// failed. Once the build succeeds, the run must be a clean one.
#[test]
fn fwd_uniform_512k_counts_a_failed_setup_as_failed_lookups() {
    let (outcome, _) = run_for_test("fwd_uniform_512k", false, false);
    assert!(outcome.correct);
    if outcome.setup_failed {
        assert_eq!((outcome.attempted, outcome.failed), (1 << 21, 1 << 21));
        assert_eq!(outcome.failed_share(), 1.0);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, ["setup_s"]);
    } else {
        assert_eq!(outcome.failed, 0);
        check_metrics(&outcome.metrics, END_TO_END).expect("declared metrics");
    }
}

#[test]
fn quick_fwd_zipf() {
    quick_run("fwd_zipf", false);
    quick_run("fwd_zipf", true);
}

#[test]
fn quick_fwd_uniform() {
    quick_run("fwd_uniform", false);
    quick_run("fwd_uniform", true);
}

#[test]
fn quick_update_durable() {
    quick_run("update_durable", false);
    quick_run("update_durable", true);
}
