//! Storage accounting and lookup tracing.
//!
//! Reproduces the storage models behind Figures 8–12 and 15 and the
//! "4 sequential memory accesses" latency claim of Section 6.7.1. As in
//! the paper (Section 5), Result Table / next-hop storage is excluded from
//! every storage figure: all compared schemes keep next hops off-chip in
//! commodity memory.

use chisel_prefix::bits::addr_bits;
use chisel_prefix::AddressFamily;

/// Memory accesses performed by one lookup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupTrace {
    /// Index Table reads (the `k` segments are read in parallel — one
    /// access per probed sub-cell).
    pub index_reads: usize,
    /// Filter Table reads.
    pub filter_reads: usize,
    /// Bit-vector Table reads (in parallel with the filter check).
    pub bitvec_reads: usize,
    /// Result Table (off-chip) reads.
    pub result_reads: usize,
    /// Spillover TCAM hits.
    pub spill_hits: usize,
    /// Flow-cache hits: the whole data path was skipped and the next hop
    /// served from one exact-match cache read.
    pub cache_hits: usize,
    /// Flow-cache misses: the lookup went through the full data path and
    /// its result was installed in the cache.
    pub cache_misses: usize,
    /// Spillover TCAM hits on *degraded* keys — keys parked in the TCAM
    /// because a partition re-setup exhausted its retry budget
    /// (Section 4.4.2 failure path). A subset of `spill_hits`.
    pub degraded_hits: usize,
    /// Modeled 64-byte cache lines a cold pass over the data path touches:
    /// one per Index Table probe (`k` lines), one each for the Filter and
    /// Bit-vector rows, one per Result Table read. Flow-cache hits and
    /// spillover-TCAM index hits add nothing — this is the software
    /// analogue of the DESIGN.md §11 access budget.
    pub cache_lines_touched: u64,
}

impl LookupTrace {
    /// Sequential memory-access depth of the Chisel pipeline for one
    /// sub-cell: Index Table, then Filter ∥ Bit-vector, then the off-chip
    /// Result Table read — with the hash stage this is the paper's 4
    /// sequential accesses, independent of key width (all sub-cells are
    /// searched in parallel in hardware).
    pub const SEQUENTIAL_DEPTH: usize = 4;

    /// Total reads across all tables.
    pub fn total_reads(&self) -> usize {
        self.index_reads + self.filter_reads + self.bitvec_reads + self.result_reads
    }

    /// Accumulates `other` into `self` (used to fold per-shard traces
    /// into a dataplane-wide total).
    pub fn merge(&mut self, other: &LookupTrace) {
        self.index_reads += other.index_reads;
        self.filter_reads += other.filter_reads;
        self.bitvec_reads += other.bitvec_reads;
        self.result_reads += other.result_reads;
        self.spill_hits += other.spill_hits;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.degraded_hits += other.degraded_hits;
        self.cache_lines_touched += other.cache_lines_touched;
    }
}

/// Counters for the re-setup recovery policy (Section 4.4.2 failure
/// handling): salted retries, degradation into the spillover TCAM, and
/// rollbacks of updates that could not complete.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Salted Bloomier setup attempts consumed by partition re-setups
    /// (1 per first try + 1 per retry).
    pub resetup_attempts: u64,
    /// Setup attempts beyond the first of each re-setup (the retry tail
    /// of the exponential seed schedule).
    pub resetup_retries: u64,
    /// Re-setups whose whole retry budget failed to produce an encoding
    /// that fits the spillover TCAM.
    pub resetup_failures: u64,
    /// Keys parked in the spillover TCAM after a failed re-setup
    /// (degraded mode entries).
    pub degraded_parks: u64,
    /// Parked keys later re-encoded by a successful re-setup, re-absorbed
    /// by an arena regrow, or withdrawn.
    pub degraded_reclaims: u64,
    /// Announces fully rolled back because recovery was impossible (the
    /// TCAM had no room to park the key).
    pub rollbacks: u64,
}

impl RecoveryStats {
    /// Accumulates `other` into `self` (used to merge per-cell counters
    /// into engine-wide totals).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.resetup_attempts += other.resetup_attempts;
        self.resetup_retries += other.resetup_retries;
        self.resetup_failures += other.resetup_failures;
        self.degraded_parks += other.degraded_parks;
        self.degraded_reclaims += other.degraded_reclaims;
        self.rollbacks += other.rollbacks;
    }
}

/// Whether the engine is serving any routes from the degraded (parked in
/// spillover TCAM) path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DegradedMode {
    /// Every route has a healthy Index Table encoding (or is a regular
    /// setup-time spill).
    #[default]
    Normal,
    /// Some routes are served only because they were parked in the
    /// spillover TCAM after a failed re-setup. Lookups remain correct but
    /// the TCAM headroom for future setup failures is reduced.
    Degraded {
        /// Number of parked keys across all sub-cells.
        parked_keys: usize,
    },
}

impl DegradedMode {
    /// Whether any key is parked.
    pub fn is_degraded(&self) -> bool {
        matches!(self, DegradedMode::Degraded { .. })
    }
}

/// A consolidated health snapshot of one engine: update classification,
/// recovery counters, degraded-mode status and spillover occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Incremental-update classification counters.
    pub updates: crate::update::UpdateStats,
    /// Batched-update counters (windows published, coalescing and
    /// rebuild-unit sharing wins) — see [`crate::ChiselLpm::apply_batch`].
    pub batch: crate::update::BatchStats,
    /// Re-setup retry / degradation / rollback counters.
    pub recovery: RecoveryStats,
    /// Degraded-mode status.
    pub degraded: DegradedMode,
    /// Routes currently installed.
    pub routes: usize,
    /// Live collapsed groups across all sub-cells.
    pub groups: usize,
    /// Spillover TCAM entries in use (regular spills + degraded parks).
    pub spill_len: usize,
    /// Total spillover TCAM capacity across all sub-cells.
    pub spill_capacity: usize,
    /// Partition re-setups performed since build.
    pub resetups: u64,
}

/// On-chip storage of one Chisel instance, broken down by table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageBreakdown {
    /// Index Table bits (`m` locations × pointer width).
    pub index_bits: u64,
    /// Filter Table bits (key width + dirty bit per location).
    pub filter_bits: u64,
    /// Bit-vector Table bits (`2^stride` + result-pointer width each).
    pub bitvec_bits: u64,
}

impl StorageBreakdown {
    /// Total on-chip bits.
    pub fn total_bits(&self) -> u64 {
        self.index_bits + self.filter_bits + self.bitvec_bits
    }

    /// Total in megabits (the unit of the paper's figures).
    pub fn total_mbits(&self) -> f64 {
        self.total_bits() as f64 / 1.0e6
    }

    /// Bytes per prefix for a table of `n` prefixes.
    pub fn bytes_per_prefix(&self, n: usize) -> f64 {
        self.total_bits() as f64 / 8.0 / n.max(1) as f64
    }
}

/// The deterministic worst-case storage model (Section 4.3.2): sized for
/// `n` original prefixes regardless of their distribution — Index Table
/// depth `m_per_key * n`, Filter and Bit-vector Tables depth `n`.
///
/// `with_wildcards = false` drops the Bit-vector Table (the Figure 8
/// comparison assumes a single exact-match table).
pub fn chisel_worst_case(
    family: AddressFamily,
    n: usize,
    k_unused_for_storage: usize,
    m_per_key: f64,
    stride: u8,
    with_wildcards: bool,
) -> StorageBreakdown {
    let _ = k_unused_for_storage; // k shapes m via m_per_key; kept for call-site clarity
    let m = (n as f64 * m_per_key).ceil() as u64;
    let ptr_bits = addr_bits(n) as u64;
    let key_bits = family.width() as u64;
    // Result-pointer width: the Result Table holds >= n next hops.
    let result_ptr_bits = addr_bits(2 * n.max(1)) as u64;
    StorageBreakdown {
        index_bits: m * ptr_bits,
        filter_bits: n as u64 * (key_bits + 1),
        bitvec_bits: if with_wildcards {
            n as u64 * ((1u64 << stride) + result_ptr_bits)
        } else {
            0
        },
    }
}

/// Average-case storage when the actual number of collapsed groups is
/// known: the Filter/Bit-vector tables need one location per *group*, not
/// per original prefix.
pub fn chisel_actual(
    family: AddressFamily,
    groups: usize,
    original_prefixes: usize,
    m_per_key: f64,
    stride: u8,
) -> StorageBreakdown {
    let m = (groups as f64 * m_per_key).ceil() as u64;
    let ptr_bits = addr_bits(groups.max(2)) as u64;
    let key_bits = family.width() as u64;
    let result_ptr_bits = addr_bits(2 * original_prefixes.max(1)) as u64;
    StorageBreakdown {
        index_bits: m * ptr_bits,
        filter_bits: groups as u64 * (key_bits + 1),
        bitvec_bits: groups as u64 * ((1u64 << stride) + result_ptr_bits),
    }
}

/// Storage of the *naive* false-positive-elimination layout the paper's
/// Section 4.2 argues against: keys stored directly alongside values in a
/// Result Table of `m = m_per_key * n` locations, with the Index Table
/// encoding only `log2(k)`-bit hash selectors.
pub fn naive_key_storage(
    family: AddressFamily,
    n: usize,
    k: usize,
    m_per_key: f64,
) -> StorageBreakdown {
    let m = (n as f64 * m_per_key).ceil() as u64;
    let key_bits = family.width() as u64;
    StorageBreakdown {
        index_bits: m * addr_bits(k) as u64,
        // keys live in every one of the m result locations
        filter_bits: m * (key_bits + 1),
        bitvec_bits: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_design_point_bytes_per_prefix() {
        // Paper Section 4.1: k=3, m/n=3 yields roughly 8 bytes per IPv4
        // prefix (our layout lands slightly above: 3·log2(n) + 33 bits).
        let n = 256 * 1024;
        let s = chisel_worst_case(AddressFamily::V4, n, 3, 3.0, 4, false);
        let bpp = s.bytes_per_prefix(n);
        assert!((7.0..14.0).contains(&bpp), "bytes/prefix = {bpp}");
    }

    #[test]
    fn pointer_indirection_beats_naive() {
        // Section 4.2: the two-level layout saves storage vs storing keys
        // in all m result locations — more for IPv6 than IPv4.
        let n = 256 * 1024;
        let chisel4 = chisel_worst_case(AddressFamily::V4, n, 3, 3.0, 4, false).total_bits();
        let naive4 = naive_key_storage(AddressFamily::V4, n, 3, 3.0).total_bits();
        let chisel6 = chisel_worst_case(AddressFamily::V6, n, 3, 3.0, 4, false).total_bits();
        let naive6 = naive_key_storage(AddressFamily::V6, n, 3, 3.0).total_bits();
        let save4 = 1.0 - chisel4 as f64 / naive4 as f64;
        let save6 = 1.0 - chisel6 as f64 / naive6 as f64;
        assert!(save4 > 0.10, "IPv4 saving {save4}");
        assert!(
            save6 > save4,
            "IPv6 saving {save6} should exceed IPv4 {save4}"
        );
        assert!(save6 > 0.40, "IPv6 saving {save6}");
    }

    #[test]
    fn ipv6_roughly_doubles_not_quadruples() {
        // Figure 12: quadrupling the key width only widens the Filter
        // Table, roughly doubling total storage.
        let n = 512 * 1024;
        let v4 = chisel_worst_case(AddressFamily::V4, n, 3, 3.0, 4, true).total_bits() as f64;
        let v6 = chisel_worst_case(AddressFamily::V6, n, 3, 3.0, 4, true).total_bits() as f64;
        let ratio = v6 / v4;
        assert!((1.5..2.6).contains(&ratio), "IPv6/IPv4 ratio = {ratio}");
    }

    #[test]
    fn actual_scales_with_groups_not_prefixes() {
        let a = chisel_actual(AddressFamily::V4, 1000, 4000, 3.0, 4);
        let b = chisel_actual(AddressFamily::V4, 4000, 4000, 3.0, 4);
        assert!(a.total_bits() < b.total_bits() / 2);
    }

    #[test]
    fn trace_totals() {
        let t = LookupTrace {
            index_reads: 7,
            filter_reads: 1,
            bitvec_reads: 1,
            result_reads: 1,
            spill_hits: 0,
            cache_hits: 0,
            cache_misses: 1,
            degraded_hits: 0,
            cache_lines_touched: 6,
        };
        assert_eq!(t.total_reads(), 10);
        assert_eq!(LookupTrace::SEQUENTIAL_DEPTH, 4);
    }

    #[test]
    fn trace_merge_sums_every_field() {
        let a = LookupTrace {
            index_reads: 1,
            filter_reads: 2,
            bitvec_reads: 3,
            result_reads: 4,
            spill_hits: 5,
            cache_hits: 6,
            cache_misses: 7,
            degraded_hits: 8,
            cache_lines_touched: 9,
        };
        let b = LookupTrace {
            index_reads: 10,
            filter_reads: 20,
            bitvec_reads: 30,
            result_reads: 40,
            spill_hits: 50,
            cache_hits: 60,
            cache_misses: 70,
            degraded_hits: 80,
            cache_lines_touched: 90,
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(
            m,
            LookupTrace {
                index_reads: 11,
                filter_reads: 22,
                bitvec_reads: 33,
                result_reads: 44,
                spill_hits: 55,
                cache_hits: 66,
                cache_misses: 77,
                degraded_hits: 88,
                cache_lines_touched: 99,
            }
        );
        // Merging the default is the identity.
        let mut id = a;
        id.merge(&LookupTrace::default());
        assert_eq!(id, a);
    }
}
