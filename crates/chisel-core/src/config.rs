use chisel_prefix::collapse::StridePlan;
use chisel_prefix::AddressFamily;

/// Configuration for a [`crate::ChiselLpm`] engine.
///
/// The defaults are the paper's chosen design point: `k = 3` hash
/// functions, an Index Table of `m = 3n` locations (Section 4.1), a
/// collapse stride of 4 (the stride used throughout the evaluation), and
/// 16 logical Index Table partitions for bounded re-setups.
///
/// The Index Table layout is not configurable: it is the paper's flat
/// table, where a key's `k` probes are independent locations in one
/// `w`-bit packed arena (Section 5) — the layout that measured fastest on
/// wall clock and builds the 512K-prefix design point (DESIGN.md §11.5).
///
/// ```
/// use chisel_core::ChiselConfig;
///
/// let config = ChiselConfig::ipv4().stride(6).partitions(8).seed(7);
/// assert_eq!(config.stride, 6);
/// ```
#[derive(Debug, Clone)]
pub struct ChiselConfig {
    /// Address family the engine serves.
    pub family: AddressFamily,
    /// Number of hash functions per Bloomier filter (paper: 3).
    pub k: usize,
    /// Index Table locations per key (paper: 3.0).
    pub m_per_key: f64,
    /// Maximum collapse stride — bits collapsed per sub-cell (paper: 4).
    pub stride: u8,
    /// Logical Index Table partitions per sub-cell (Section 4.4.2).
    pub partitions: usize,
    /// Master seed for all hash functions.
    pub seed: u64,
    /// Headroom multiplier when sizing sub-cells from the actual group
    /// count (room for future announces before a grow-resetup).
    pub slack: f64,
    /// Spillover TCAM capacity per sub-cell (paper: 16-32 entries).
    pub spill_capacity: usize,
    /// Explicit stride plan; `None` derives a greedy plan from the build
    /// table (Section 4.3.3) with gaps filled so every length is covered.
    pub plan: Option<StridePlan>,
    /// Whether withdrawn collapsed keys are retained dirty in the Index
    /// Table for cheap route-flap restoration (Section 4.4.1). Disabling
    /// this is the ablation: flaps then cost a fresh key insert.
    pub flap_absorption: bool,
    /// Worker threads for the full-build pipeline (`0` = the machine's
    /// available parallelism). The built engine is byte-identical for
    /// every value — threads only change wall-clock time.
    pub build_threads: usize,
    /// Salted setup attempts per partition re-setup before the update
    /// degrades into the spillover TCAM (exponential seed-schedule
    /// backoff; the paper's Section 4.1 failure-probability analysis makes
    /// a handful of retries sufficient).
    pub resetup_retries: u32,
}

impl ChiselConfig {
    /// The paper's IPv4 design point.
    pub fn ipv4() -> Self {
        ChiselConfig {
            family: AddressFamily::V4,
            k: 3,
            m_per_key: 3.0,
            stride: 4,
            partitions: 16,
            seed: 0x00C4_15E1,
            slack: 1.5,
            spill_capacity: 32,
            plan: None,
            flap_absorption: true,
            build_threads: 0,
            resetup_retries: 4,
        }
    }

    /// The paper's IPv6 configuration: identical geometry, wider keys.
    pub fn ipv6() -> Self {
        ChiselConfig {
            family: AddressFamily::V6,
            ..Self::ipv4()
        }
    }

    /// Sets the number of hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn k(mut self, k: usize) -> Self {
        assert!(k > 0);
        self.k = k;
        self
    }

    /// Sets the Index Table size ratio `m/n`.
    ///
    /// # Panics
    ///
    /// Panics unless `m_per_key >= 1.0`.
    pub fn m_per_key(mut self, m_per_key: f64) -> Self {
        assert!(m_per_key >= 1.0);
        self.m_per_key = m_per_key;
        self
    }

    /// Sets the maximum collapse stride.
    pub fn stride(mut self, stride: u8) -> Self {
        self.stride = stride;
        self
    }

    /// Sets the number of logical partitions.
    ///
    /// # Panics
    ///
    /// Panics if `partitions == 0`.
    pub fn partitions(mut self, partitions: usize) -> Self {
        assert!(partitions > 0);
        self.partitions = partitions;
        self
    }

    /// Sets the hash seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the sub-cell sizing headroom.
    ///
    /// # Panics
    ///
    /// Panics unless `slack >= 1.0`.
    pub fn slack(mut self, slack: f64) -> Self {
        assert!(slack >= 1.0);
        self.slack = slack;
        self
    }

    /// Sets the per-sub-cell spillover TCAM capacity.
    pub fn spill_capacity(mut self, spill_capacity: usize) -> Self {
        self.spill_capacity = spill_capacity;
        self
    }

    /// Supplies an explicit stride plan instead of the derived greedy one.
    pub fn plan(mut self, plan: StridePlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Enables or disables dirty-bit route-flap absorption (the ablation
    /// knob; on by default).
    pub fn flap_absorption(mut self, on: bool) -> Self {
        self.flap_absorption = on;
        self
    }

    /// Sets the build-pipeline worker count (`0` = available parallelism).
    pub fn build_threads(mut self, build_threads: usize) -> Self {
        self.build_threads = build_threads;
        self
    }

    /// Sets the re-setup retry budget (salted setup attempts per
    /// partition rebuild before degrading into the spillover TCAM).
    ///
    /// # Panics
    ///
    /// Panics if `resetup_retries == 0`.
    pub fn resetup_retries(mut self, resetup_retries: u32) -> Self {
        assert!(resetup_retries > 0);
        self.resetup_retries = resetup_retries;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_point_defaults() {
        let c = ChiselConfig::ipv4();
        assert_eq!(c.k, 3);
        assert_eq!(c.m_per_key, 3.0);
        assert_eq!(c.stride, 4);
        assert_eq!(c.family, AddressFamily::V4);
        let c6 = ChiselConfig::ipv6();
        assert_eq!(c6.family, AddressFamily::V6);
        assert_eq!(c6.k, 3);
    }

    #[test]
    fn builder_chains() {
        let c = ChiselConfig::ipv4()
            .k(4)
            .m_per_key(4.0)
            .stride(6)
            .partitions(8)
            .seed(1)
            .slack(2.0)
            .spill_capacity(64);
        assert_eq!(c.k, 4);
        assert_eq!(c.m_per_key, 4.0);
        assert_eq!(c.stride, 6);
        assert_eq!(c.partitions, 8);
        assert_eq!(c.seed, 1);
        assert_eq!(c.slack, 2.0);
        assert_eq!(c.spill_capacity, 64);
    }

    #[test]
    #[should_panic]
    fn zero_k_rejected() {
        ChiselConfig::ipv4().k(0);
    }

    #[test]
    #[should_panic]
    fn sub_unit_ratio_rejected() {
        ChiselConfig::ipv4().m_per_key(0.5);
    }
}
