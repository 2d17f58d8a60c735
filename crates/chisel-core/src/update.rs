//! Update classification — the categories of Figure 14 and the counters
//! behind the paper's update-traffic breakup.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use chisel_prefix::Prefix;

use crate::subcell::AnnounceOutcome;

/// How one update was applied — the paper's Figure 14 categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum UpdateKind {
    /// A `withdraw`: applied on the bit-vector / Result Table only (or a
    /// no-op when the prefix was absent).
    Withdraw,
    /// An `announce` restoring a recently-removed prefix — either clearing
    /// a dirty Index Table entry or re-setting a bit-vector bit.
    RouteFlap,
    /// An `announce` for a prefix already present: only the next hop
    /// changed.
    NextHopChange,
    /// An `announce` adding a prefix whose *collapsed* form already exists
    /// in the Index Table: only the Bit-vector/Result tables change.
    AddCollapsed,
    /// An `announce` adding a new collapsed key to the Index Table
    /// incrementally through a singleton location.
    AddSingleton,
    /// An `announce` that forced a (partition-bounded) Index Table
    /// re-setup.
    Resetup,
    /// An `announce` whose re-setup exhausted its retry budget; the key
    /// was parked in the spillover TCAM instead (degraded mode).
    DegradedSpill,
}

impl fmt::Display for UpdateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UpdateKind::Withdraw => "withdraw",
            UpdateKind::RouteFlap => "route-flap",
            UpdateKind::NextHopChange => "next-hop",
            UpdateKind::AddCollapsed => "add-pc",
            UpdateKind::AddSingleton => "singleton",
            UpdateKind::Resetup => "resetup",
            UpdateKind::DegradedSpill => "degraded-spill",
        };
        f.write_str(s)
    }
}

/// Tallies of applied updates by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Withdraw operations.
    pub withdraws: usize,
    /// Route-flap restores.
    pub route_flaps: usize,
    /// Next-hop-only changes.
    pub next_hop_changes: usize,
    /// Adds absorbed by prefix collapsing.
    pub add_collapsed: usize,
    /// Incremental singleton inserts.
    pub add_singleton: usize,
    /// Partition re-setups.
    pub resetups: usize,
    /// Announces degraded into the spillover TCAM after re-setup failure.
    pub degraded_spills: usize,
}

impl UpdateStats {
    /// Records one update.
    pub fn record(&mut self, kind: UpdateKind) {
        match kind {
            UpdateKind::Withdraw => self.withdraws += 1,
            UpdateKind::RouteFlap => self.route_flaps += 1,
            UpdateKind::NextHopChange => self.next_hop_changes += 1,
            UpdateKind::AddCollapsed => self.add_collapsed += 1,
            UpdateKind::AddSingleton => self.add_singleton += 1,
            UpdateKind::Resetup => self.resetups += 1,
            UpdateKind::DegradedSpill => self.degraded_spills += 1,
        }
    }

    /// Total updates recorded.
    pub fn total(&self) -> usize {
        self.withdraws
            + self.route_flaps
            + self.next_hop_changes
            + self.add_collapsed
            + self.add_singleton
            + self.resetups
            + self.degraded_spills
    }

    /// Fraction of updates applied without touching the Index Table
    /// structure (everything but singleton inserts and re-setups) — the
    /// paper's "99.9% incremental" headline number counts these plus
    /// singletons.
    pub fn incremental_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        1.0 - ((self.resetups + self.degraded_spills) as f64 / total as f64)
    }
}

/// Cumulative counters of the batched update path (see
/// [`crate::ChiselLpm::apply_batch`]): how many windows were published,
/// how much work per-prefix coalescing and rebuild-unit sharing avoided.
/// The batch-window companion of [`UpdateStats`]. Every update goes
/// through a window, so a single [`crate::ChiselLpm::announce`] or
/// [`crate::ChiselLpm::withdraw`] that succeeds counts as a window of one
/// event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Update windows applied (each published as one snapshot generation).
    pub batches_published: u64,
    /// Raw events ingested across all windows.
    pub events_ingested: u64,
    /// Raw events absorbed by per-prefix coalescing — they never touched
    /// a table (announce/withdraw/announce collapses to one change,
    /// next-hop churn collapses to the last write).
    pub events_coalesced: u64,
    /// Raw events rejected inside a window (invalid, or rolled back when
    /// a failed re-setup found no spillover-TCAM room).
    pub events_rejected: u64,
    /// Inline partition re-setups avoided: deferred inserts that shared a
    /// rebuild unit with another insert of the same window, or were swept
    /// up by a capacity-doubling full cell rebuild.
    pub resetups_saved: u64,
    /// Partition-rebuild units executed by batch windows (units of one
    /// window build concurrently).
    pub parallel_resetups: u64,
}

impl BatchStats {
    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &BatchStats) {
        self.batches_published += other.batches_published;
        self.events_ingested += other.events_ingested;
        self.events_coalesced += other.events_coalesced;
        self.events_rejected += other.events_rejected;
        self.resetups_saved += other.resetups_saved;
        self.parallel_resetups += other.parallel_resetups;
    }
}

/// How many withdrawals [`RecentWithdrawals`] remembers by default: the
/// window within which a re-announce still counts as a route flap.
pub const FLAP_WINDOW: usize = 1 << 16;

/// A bounded memory of recently withdrawn prefixes, used to classify an
/// announce as a route flap (paper Section 4.4: "a large fraction of
/// updates are actually route-flaps").
#[derive(Debug, Clone)]
pub struct RecentWithdrawals {
    set: HashMap<Prefix, usize>,
    fifo: VecDeque<Prefix>,
    capacity: usize,
}

impl Default for RecentWithdrawals {
    /// An empty window of [`FLAP_WINDOW`] withdrawals.
    fn default() -> Self {
        RecentWithdrawals::new(FLAP_WINDOW)
    }
}

impl RecentWithdrawals {
    /// Creates a window remembering at most `capacity` withdrawals.
    pub fn new(capacity: usize) -> Self {
        RecentWithdrawals {
            set: HashMap::new(),
            fifo: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Records a withdrawal.
    pub fn record(&mut self, prefix: Prefix) {
        *self.set.entry(prefix).or_insert(0) += 1;
        self.fifo.push_back(prefix);
        while self.fifo.len() > self.capacity {
            let Some(old) = self.fifo.pop_front() else {
                break;
            };
            if let Some(c) = self.set.get_mut(&old) {
                *c -= 1;
                if *c == 0 {
                    self.set.remove(&old);
                }
            }
        }
    }

    /// Consumes a pending withdrawal of `prefix` if one is remembered,
    /// returning whether the announce is a flap.
    pub fn take(&mut self, prefix: &Prefix) -> bool {
        match self.set.get_mut(prefix) {
            Some(c) => {
                *c -= 1;
                if *c == 0 {
                    self.set.remove(prefix);
                }
                true
            }
            None => false,
        }
    }

    /// Number of remembered (not yet consumed or evicted) withdrawals.
    pub fn len(&self) -> usize {
        self.set.values().sum()
    }

    /// Whether no withdrawals are remembered.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

/// What applying one residual update op did to the tables, before the
/// flap tracker has classified it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Applied {
    /// An announce, with what the tables did to absorb it.
    Announce(AnnounceOutcome),
    /// A withdraw; `true` when it removed a route.
    Withdraw(bool),
}

/// The writer's update bookkeeping: the flap tracker and the tallies.
///
/// No lookup reads any of it. A bare [`crate::ChiselLpm`] carries its own;
/// behind [`crate::SharedChisel`] the writer lock owns the live value and
/// every published snapshot carries an empty one, so a publish never
/// copies it (paper Section 4.4: the network processor's software shadow
/// keeps the update bookkeeping, only table portions reach the engine).
#[derive(Debug, Clone, Default)]
pub(crate) struct UpdateControl {
    pub(crate) recent: RecentWithdrawals,
    pub(crate) stats: UpdateStats,
    pub(crate) batch: BatchStats,
}

impl UpdateControl {
    /// Classifies one applied op and records it: an announce consumes a
    /// remembered withdrawal of its prefix, a withdraw that removed a
    /// route is remembered.
    pub(crate) fn record(&mut self, prefix: Prefix, applied: Applied) -> UpdateKind {
        let kind = match applied {
            Applied::Announce(outcome) => classify(outcome, self.recent.take(&prefix)),
            Applied::Withdraw(existed) => {
                if existed {
                    self.recent.record(prefix);
                }
                UpdateKind::Withdraw
            }
        };
        self.stats.record(kind);
        kind
    }
}

/// The Figure 14 category of an announce, from what the tables did with it
/// and whether it re-announces a recently withdrawn prefix. A dirty-bit
/// restore is a flap whatever the tracker says; a re-announce the tables
/// absorbed without a new key is a flap when the tracker remembers it.
fn classify(outcome: AnnounceOutcome, flap: bool) -> UpdateKind {
    match outcome {
        AnnounceOutcome::DirtyRestore => UpdateKind::RouteFlap,
        AnnounceOutcome::NextHopOnly | AnnounceOutcome::Collapsed if flap => UpdateKind::RouteFlap,
        AnnounceOutcome::NextHopOnly => UpdateKind::NextHopChange,
        AnnounceOutcome::Collapsed => UpdateKind::AddCollapsed,
        AnnounceOutcome::Singleton => UpdateKind::AddSingleton,
        AnnounceOutcome::Resetup => UpdateKind::Resetup,
        AnnounceOutcome::DegradedSpill => UpdateKind::DegradedSpill,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_tally_and_fraction() {
        let mut s = UpdateStats::default();
        for _ in 0..99 {
            s.record(UpdateKind::Withdraw);
        }
        s.record(UpdateKind::Resetup);
        assert_eq!(s.total(), 100);
        assert_eq!(s.withdraws, 99);
        assert_eq!(s.resetups, 1);
        assert!((s.incremental_fraction() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_fraction_is_one() {
        assert_eq!(UpdateStats::default().incremental_fraction(), 1.0);
    }

    #[test]
    fn recent_withdrawals_flap_detection() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let q: Prefix = "11.0.0.0/8".parse().unwrap();
        let mut r = RecentWithdrawals::new(10);
        r.record(p);
        assert!(r.take(&p));
        assert!(!r.take(&p), "flap already consumed");
        assert!(!r.take(&q));
    }

    #[test]
    fn recent_withdrawals_eviction() {
        let mut r = RecentWithdrawals::new(2);
        let a: Prefix = "1.0.0.0/8".parse().unwrap();
        let b: Prefix = "2.0.0.0/8".parse().unwrap();
        let c: Prefix = "3.0.0.0/8".parse().unwrap();
        r.record(a);
        r.record(b);
        r.record(c); // evicts a
        assert_eq!(r.len(), 2);
        assert!(!r.take(&a));
        assert!(r.take(&b));
        assert!(r.take(&c));
        assert!(r.is_empty());
    }

    #[test]
    fn duplicate_withdrawals_counted() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let mut r = RecentWithdrawals::new(10);
        r.record(p);
        r.record(p);
        assert!(r.take(&p));
        assert!(r.take(&p));
        assert!(!r.take(&p));
    }

    #[test]
    fn batch_stats_merge() {
        let mut a = BatchStats {
            batches_published: 1,
            events_ingested: 64,
            events_coalesced: 10,
            events_rejected: 1,
            resetups_saved: 2,
            parallel_resetups: 3,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.batches_published, 2);
        assert_eq!(a.events_ingested, 128);
        assert_eq!(a.events_coalesced, 20);
        assert_eq!(a.events_rejected, 2);
        assert_eq!(a.resetups_saved, 4);
        assert_eq!(a.parallel_resetups, 6);
    }

    #[test]
    fn kind_display() {
        assert_eq!(UpdateKind::AddCollapsed.to_string(), "add-pc");
        assert_eq!(UpdateKind::Resetup.to_string(), "resetup");
    }
}
