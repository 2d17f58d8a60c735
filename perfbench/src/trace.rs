//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is `{id, trace, name, start, end, parent}`: `trace` is shared by
//! every span of one batch or one update, `parent` is the span that was
//! open when this one started. Spans stay in memory and are written out
//! when the run ends. A disabled tracer records nothing and only runs the
//! closure, so untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::json_string;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub trace: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Durations minus their child spans' durations.
    pub self_ns: u64,
}

#[derive(Debug, Clone)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            // Room for a traced run's spans up front, so that growing the
            // store does not stall a timed call.
            spans: Vec::with_capacity(if on { 1 << 20 } else { 0 }),
            open: Vec::new(),
        }
    }

    /// An empty tracer for another thread, on the same epoch and switch;
    /// fold it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of trace `trace`; spans that
    /// `f` records through the tracer it is handed nest under this one.
    pub fn span<T>(&mut self, name: &'static str, trace: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            id,
            trace,
            name,
            start: 0,
            end: 0,
            parent,
        });
        self.open.push(id);
        let start = self.now();
        let out = f(self);
        let end = self.now();
        self.open.pop();
        let span = &mut self.spans[id];
        span.start = start;
        span.end = end;
        out
    }

    /// Appends another thread's spans (recorded against the same epoch),
    /// renumbering their ids.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Count, total and self time of the spans of each name.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanTotals> {
        let self_times = self.self_times();
        let mut by_name: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration();
            t.self_ns += self_times[s.id];
        }
        by_name
    }

    /// Self time of every span, by id: its duration minus the durations
    /// of its children. Children recorded through [`Tracer::span`] nest
    /// inside their parent and never overlap each other.
    pub fn self_times(&self) -> Vec<u64> {
        let mut self_times: Vec<u64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_times[p] -= s.duration();
            }
        }
        self_times
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"trace\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.id,
                s.trace,
                json_string(s.name),
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}
