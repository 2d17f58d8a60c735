//! What one run reports: the correctness verdict, operation counts and
//! named metrics, rendered as the single JSON line that ends stdout.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every checked answer matched its reference.
    pub correct: bool,
    /// Operations the workload attempted (lookup keys or updates).
    pub attempted: u64,
    /// Operations that failed. A failed setup fails every operation.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Setup failed, so nothing was measured beyond the setup time.
    pub setup_failed: bool,
}

impl Outcome {
    /// The outcome of a workload whose setup failed: nothing was served,
    /// so each of the `planned` operations counts as failed. No answer
    /// was wrong, so the run is still `correct`.
    pub fn failed_setup(planned: u64, metrics: Vec<Metric>) -> Self {
        Outcome {
            correct: true,
            attempted: planned.max(1),
            failed: planned.max(1),
            metrics,
            setup_failed: true,
        }
    }

    /// Failed operations over attempted ones.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `{"correct": .., "attempted": .., "failed": ..,
    /// "metrics": {name: {"value": .., "unit": ..}}}`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite number as JSON; non-finite values have no JSON form and
/// become `null`, which the result check rejects.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The `q`-quantile (0..=1) of `samples` by nearest rank; sorts in place.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// The median of `samples`; sorts in place.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Windows a time series is cut into for its robust statistics. On a
/// shared host, neighbours stall a run for a few milliseconds about once
/// a second; with 40 windows such stalls touch a minority of windows.
pub const WINDOWS: usize = 40;

/// The median over [`WINDOWS`] consecutive windows of `samples` of the
/// per-window `stat`: a stall that hits one window moves one of the
/// per-window values, not the result.
pub fn windowed_median(samples: &[f64], stat: impl Fn(&mut [f64]) -> f64) -> f64 {
    let size = samples.len().div_ceil(WINDOWS).max(1);
    let mut per_window: Vec<f64> = samples
        .chunks(size)
        .map(|w| stat(&mut w.to_vec()))
        .collect();
    median(&mut per_window)
}

/// The declared metrics, in declared order, taking each value from
/// `values`; a declared metric without a value is an error.
pub fn ordered(
    values: &std::collections::BTreeMap<&'static str, f64>,
    declared: &[(&'static str, &'static str)],
) -> Result<Vec<Metric>, String> {
    declared
        .iter()
        .map(|&(name, unit)| {
            values
                .get(name)
                .map(|&value| Metric { name, value, unit })
                .ok_or_else(|| format!("metric {name} was not measured"))
        })
        .collect()
}
