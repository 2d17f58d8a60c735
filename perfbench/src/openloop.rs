//! The open loop: 64-key batches fall due on a fixed schedule whatever
//! the server is doing, and each batch is timed from its due time, so a
//! stall also charges the batches queued behind it.

use std::time::{Duration, Instant};

use chisel_core::{CachedReader, SharedChisel};
use chisel_dataplane::DataplaneConfig;
use chisel_prefix::{Key, NextHop};

use crate::report::{median, quantile, windowed_median};
use crate::trace::Tracer;

/// Keys per open-loop batch (the dataplane's default batch).
pub const BATCH: usize = 64;

#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Due-to-answered latency of every batch, in microseconds.
    pub latencies_us: Vec<f64>,
    pub keys: u64,
    /// Batches whose answers failed their check.
    pub wrong_batches: u64,
    /// Batches answered against a newer snapshot generation than the
    /// batch before them: each one found its flow cache invalidated.
    pub invalidations: u64,
    /// How late the last batch started, in microseconds. A backlog that
    /// kept growing leaves this above the latency limit.
    pub final_lag_us: f64,
}

impl OpenLoop {
    /// Median over the run's windows of each window's median latency.
    pub fn p50_us(&self) -> f64 {
        windowed_median(&self.latencies_us, median)
    }

    /// Median over the run's windows of each window's p90 latency.
    pub fn p90_us(&self) -> f64 {
        windowed_median(&self.latencies_us, |w| quantile(w, 0.9))
    }

    /// Median over the run's windows of each window's p99 latency.
    pub fn p99_us(&self) -> f64 {
        windowed_median(&self.latencies_us, |w| quantile(w, 0.99))
    }

    /// The p99 latency over every batch of the run, stalls included.
    pub fn whole_p99_us(&self) -> f64 {
        quantile(&mut self.latencies_us.clone(), 0.99)
    }

    /// Folds in another run of the same loop.
    pub fn absorb(&mut self, other: &OpenLoop) {
        self.latencies_us.extend_from_slice(&other.latencies_us);
        self.keys += other.keys;
        self.wrong_batches += other.wrong_batches;
        self.invalidations += other.invalidations;
        self.final_lag_us = self.final_lag_us.max(other.final_lag_us);
    }

    /// Whether the run kept up: p99 within `limit_us` and no backlog left
    /// growing at the end.
    pub fn met_limit(&self, limit_us: f64) -> bool {
        !self.latencies_us.is_empty()
            && self.whole_p99_us() <= limit_us
            && self.final_lag_us <= limit_us
    }
}

/// Serves `stream` in [`BATCH`]-key batches offered at `rate` keys per
/// second, spinning (poll mode) until each batch is due: the first
/// batch, then more while `keep_going` holds. Each batch is one
/// `openloop.batch` span. `lookup` answers a batch and returns the
/// snapshot generation it used; `check` then verifies the answers outside
/// the timed interval, given the generation and the batch's stream offset.
pub fn run(
    tracer: &mut Tracer,
    stream: &[Key],
    rate: f64,
    mut keep_going: impl FnMut() -> bool,
    mut lookup: impl FnMut(&[Key], &mut [Option<NextHop>]) -> u64,
    mut check: impl FnMut(u64, usize, &[Key], &[Option<NextHop>]) -> bool,
) -> OpenLoop {
    let interval_ns = BATCH as f64 / rate * 1e9;
    let mut out = vec![None; BATCH];
    let mut result = OpenLoop::default();
    let mut last_generation = None;
    let mut offset = 0usize;
    let start = Instant::now();
    let mut batch_no = 0u64;
    while batch_no == 0 || keep_going() {
        let due = start + Duration::from_nanos((interval_ns * batch_no as f64) as u64);
        let mut now = Instant::now();
        while now < due {
            std::hint::spin_loop();
            now = Instant::now();
        }
        if offset + BATCH > stream.len() {
            offset = 0;
        }
        let keys = &stream[offset..offset + BATCH];
        let generation = tracer.span("openloop.batch", batch_no, |_| lookup(keys, &mut out));
        let done = Instant::now();
        result
            .latencies_us
            .push(done.duration_since(due).as_secs_f64() * 1e6);
        result.final_lag_us = now.duration_since(due).as_secs_f64() * 1e6;
        result.keys += BATCH as u64;
        if last_generation.is_some_and(|g| g != generation) {
            result.invalidations += 1;
        }
        last_generation = Some(generation);
        if !check(generation, offset, keys, &out) {
            result.wrong_batches += 1;
        }
        offset += BATCH;
        batch_no += 1;
    }
    result
}

/// The open loop's server: one poll-mode reader making the dataplane
/// shard's own call, traced or not. Its steps (the snapshot pin and the
/// flow-cache lookup) are timed separately by the layer probes.
pub struct Reader {
    reader: CachedReader,
    lanes: usize,
}

impl Reader {
    pub fn new(shared: &SharedChisel) -> Self {
        let config = DataplaneConfig::default();
        Reader {
            reader: shared.reader_with_capacity(config.cache_slots),
            lanes: config.lane_depth,
        }
    }

    /// Answers one batch and returns the snapshot generation it used.
    pub fn serve(&mut self, keys: &[Key], out: &mut [Option<NextHop>]) -> u64 {
        self.reader.lookup_batch_pinned_lanes(keys, out, self.lanes)
    }

    /// Hit rate of the reader's flow cache over the batches it served.
    pub fn hit_rate(&self) -> f64 {
        let cache = self.reader.cache();
        cache.hits() as f64 / (cache.hits() + cache.misses()).max(1) as f64
    }
}
