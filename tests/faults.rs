//! Deterministic fault-injection suite for the hardened control plane.
//!
//! Compiled only under `RUSTFLAGS="--cfg faultpoint"` (the same pattern
//! as the loom-lite model checker) and run with `--test-threads 1`: the
//! fault harness serializes armings through a global guard, so parallel
//! test threads would only contend.
//!
//! Every test follows the same invariant: whatever faults fire — forced
//! Bloomier setup failures, spillover-TCAM overflow, partial update
//! application, allocation pressure — the engine either applies an
//! update fully or rejects it with a typed error leaving published
//! state unchanged. Lookups are checked against a linear-scan
//! [`OracleLpm`] that mirrors exactly the updates the engine accepted.
//!
//! `CHISEL_FAULT_SEEDS=N` widens the seed matrix (default 3).

#![cfg(faultpoint)]

use chisel::core::faultpoint::{self, arm, FaultPlan};
use chisel::core::{ChiselError, DegradedMode, LookupTrace, RouteUpdate, SharedChisel, UpdateKind};
use chisel::prefix::oracle::OracleLpm;
use chisel::workloads::{adversarial_trace, synthesize, PrefixLenDistribution, UpdateEvent};
use chisel::{AddressFamily, ChiselConfig, ChiselLpm, Key, NextHop, Prefix, RoutingTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn seeds() -> Vec<u64> {
    let n = std::env::var("CHISEL_FAULT_SEEDS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(3)
        .max(1);
    (1..=n).collect()
}

/// The CI fault matrix: site mixes that force each recovery path. The
/// resetup sites ride on `no-singleton` because a forced insert
/// collision is what routes an announce into the re-setup machinery.
fn fault_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "setup-fail",
            FaultPlan::new(seed)
                .with(faultpoint::NO_SINGLETON, 0.4)
                .with(faultpoint::SETUP_FAIL, 0.5),
        ),
        (
            "spill-overflow",
            FaultPlan::new(seed)
                .with(faultpoint::NO_SINGLETON, 0.4)
                .with(faultpoint::SPILL_OVERFLOW, 0.5),
        ),
        (
            "partial-update",
            FaultPlan::new(seed).with(faultpoint::PARTIAL_UPDATE, 0.05),
        ),
        (
            "alloc-pressure",
            FaultPlan::new(seed).with(faultpoint::ALLOC_PRESSURE, 0.5),
        ),
    ]
}

/// Replays an adversarial trace through a snapshot-published engine with
/// faults armed, mirroring only *accepted* updates into the oracle, then
/// checks the engine against the oracle and its own invariants.
fn run_matrix_case(seed: u64, name: &str, plan: FaultPlan) {
    let table = synthesize(1_200, &PrefixLenDistribution::bgp_ipv4(), seed);
    let shared =
        SharedChisel::build(&table, ChiselConfig::ipv4().seed(seed)).expect("fault-free build");
    let mut oracle = OracleLpm::from_table(&table);
    let trace = adversarial_trace(&table, 3_000, seed ^ 0x5EED);

    let guard = arm(plan);
    let mut rejected = 0usize;
    for ev in &trace {
        match *ev {
            UpdateEvent::Announce(p, nh) => match shared.announce(p, nh) {
                Ok(_) => {
                    oracle.insert(p, nh);
                }
                Err(_) => rejected += 1,
            },
            UpdateEvent::Withdraw(p) => match shared.withdraw(p) {
                Ok(_) => {
                    oracle.remove(&p);
                }
                Err(_) => rejected += 1,
            },
        }
    }
    drop(guard);

    let report = shared.with_engine(|e| e.verify());
    assert!(
        report.is_ok(),
        "[{name} seed {seed}] invariants violated after {rejected} rejections:\n{report}"
    );
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    for _ in 0..4_000 {
        let key = Key::from_raw(AddressFamily::V4, rng.gen::<u32>() as u128);
        assert_eq!(
            shared.lookup(key),
            oracle.lookup(key),
            "[{name} seed {seed}] lookup diverged from linear-scan oracle at {key}"
        );
    }
    let es = shared.engine_stats();
    if let DegradedMode::Degraded { parked_keys } = es.degraded {
        assert!(parked_keys > 0, "[{name} seed {seed}] empty degraded mode");
        assert!(
            es.recovery.degraded_parks > 0,
            "[{name} seed {seed}] degraded without a recorded park"
        );
    }
}

#[test]
fn fault_matrix_preserves_lookup_correctness() {
    for seed in seeds() {
        for (name, plan) in fault_plans(seed) {
            run_matrix_case(seed, name, plan);
        }
    }
}

#[test]
fn partial_update_fault_is_atomic_on_snapshot_path() {
    let table = synthesize(600, &PrefixLenDistribution::bgp_ipv4(), 41);
    let shared = SharedChisel::build(&table, ChiselConfig::ipv4()).expect("build");
    let mut oracle = OracleLpm::from_table(&table);
    let p = Prefix::new(AddressFamily::V4, 0x00AB_CDE, 24).expect("prefix");
    let key = p.first_key();
    let before = shared.lookup(key);
    let gen0 = shared.generation();

    let guard = arm(FaultPlan::new(7).with(faultpoint::PARTIAL_UPDATE, 1.0));
    let err = shared
        .announce(p, NextHop::new(77))
        .expect_err("partial-update fault must reject the announce");
    assert!(
        matches!(err, ChiselError::FaultInjected { .. }),
        "unexpected error: {err}"
    );
    // Nothing was published: same generation, same answers.
    assert_eq!(shared.generation(), gen0);
    assert_eq!(shared.lookup(key), before);
    let werr = shared
        .withdraw(p)
        .expect_err("partial-update fault must reject the withdraw");
    assert!(matches!(werr, ChiselError::FaultInjected { .. }));
    assert_eq!(shared.generation(), gen0);
    drop(guard);

    // Disarmed, the same update applies cleanly.
    shared
        .announce(p, NextHop::new(77))
        .expect("clean announce");
    oracle.insert(p, NextHop::new(77));
    assert_eq!(shared.lookup(key), oracle.lookup(key));
    assert!(shared.generation() > gen0);
}

/// A rejected update through the snapshot path must leave the writer's
/// bookkeeping exactly as it was: the remembered withdrawal still
/// classifies the later re-announce as a flap, and the failed attempt is
/// not tallied.
#[test]
fn rejected_shared_update_keeps_flap_history_and_tallies() {
    let table = synthesize(600, &PrefixLenDistribution::bgp_ipv4(), 43);
    let p = table.iter().next().expect("non-empty table").prefix;
    let shared = SharedChisel::build(&table, ChiselConfig::ipv4()).expect("build");
    assert_eq!(shared.withdraw(p).expect("withdraw"), UpdateKind::Withdraw);

    let guard = arm(FaultPlan::new(5).with(faultpoint::PARTIAL_UPDATE, 1.0));
    let err = shared
        .announce(p, NextHop::new(61))
        .expect_err("partial-update fault must reject the announce");
    assert!(matches!(err, ChiselError::FaultInjected { .. }), "{err}");
    drop(guard);

    assert_eq!(
        shared
            .announce(p, NextHop::new(62))
            .expect("clean announce"),
        UpdateKind::RouteFlap
    );
    let stats = shared.update_stats();
    assert_eq!(stats.withdraws, 1, "{stats:?}");
    assert_eq!(stats.route_flaps, 1, "{stats:?}");
    assert_eq!(stats.total(), 2, "{stats:?}");
}

/// A /20 table whose prefixes each collapse to their own Index Table
/// group, plus config with a deliberately tiny spillover TCAM.
fn tiny_spill_setup() -> (RoutingTable, ChiselLpm) {
    let mut t = RoutingTable::new_v4();
    for i in 0..8u128 {
        t.insert(
            Prefix::new(AddressFamily::V4, (0x0A00 + i) << 4, 20).expect("prefix"),
            NextHop::new(i as u32),
        );
    }
    let config = ChiselConfig::ipv4()
        .spill_capacity(2)
        .slack(8.0)
        .seed(3)
        .partitions(2);
    let engine = ChiselLpm::build(&t, config).expect("build");
    (t, engine)
}

fn parked_prefix(i: u128) -> Prefix {
    Prefix::new(AddressFamily::V4, (0x0B00 + i) << 4, 20).expect("prefix")
}

#[test]
fn spillover_exhaustion_is_typed_and_withdraw_reclaims() {
    let (t, mut e) = tiny_spill_setup();
    assert_eq!(e.spill_len(), 0, "build must not pre-fill the tiny TCAM");
    let baseline_len = e.len();
    let probes: Vec<Key> = t.iter().map(|r| r.prefix.first_key()).collect();
    let before: Vec<_> = probes.iter().map(|&k| e.lookup(k)).collect();

    // Force every new-key announce through a failing re-setup so it
    // parks in the spillover TCAM — until the TCAM is full.
    let guard = arm(FaultPlan::new(1)
        .with(faultpoint::NO_SINGLETON, 1.0)
        .with(faultpoint::SETUP_FAIL, 1.0));
    assert_eq!(
        e.announce(parked_prefix(0), NextHop::new(100))
            .expect("park 0"),
        UpdateKind::DegradedSpill
    );
    assert_eq!(
        e.announce(parked_prefix(1), NextHop::new(101))
            .expect("park 1"),
        UpdateKind::DegradedSpill
    );
    let err = e
        .announce(parked_prefix(2), NextHop::new(102))
        .expect_err("third park must overflow the 2-entry TCAM");
    assert!(
        matches!(
            err,
            ChiselError::SpilloverOverflow {
                needed: 3,
                capacity: 2
            }
        ),
        "unexpected error: {err}"
    );

    // The rejected announce left no trace: route count, existing
    // lookups, and the structural invariants are all unchanged.
    assert_eq!(e.len(), baseline_len + 2);
    for (k, b) in probes.iter().zip(&before) {
        assert_eq!(e.lookup(*k), *b, "pre-existing lookup changed at {k}");
    }
    assert_eq!(e.lookup(parked_prefix(2).first_key()), None);
    let report = e.verify();
    assert!(report.is_ok(), "{report}");

    // Parked keys answer through the TCAM, and the stats say so.
    assert_eq!(
        e.lookup(parked_prefix(0).first_key()),
        Some(NextHop::new(100))
    );
    let es = e.engine_stats();
    assert_eq!(es.degraded, DegradedMode::Degraded { parked_keys: 2 });
    assert!(es.recovery.resetup_failures >= 3, "{:?}", es.recovery);
    assert_eq!(es.recovery.degraded_parks, 2, "{:?}", es.recovery);
    assert!(es.recovery.rollbacks >= 1, "{:?}", es.recovery);

    // Withdrawing a parked prefix reclaims TCAM capacity even though its
    // partition re-setup failed: the next park fits again.
    e.withdraw(parked_prefix(0)).expect("withdraw parked");
    assert_eq!(e.spill_len(), 1);
    assert_eq!(e.lookup(parked_prefix(0).first_key()), None);
    assert_eq!(
        e.announce(parked_prefix(2), NextHop::new(102))
            .expect("park fits again"),
        UpdateKind::DegradedSpill
    );
    drop(guard);
    let report = e.verify();
    assert!(report.is_ok(), "{report}");
    assert!(e.engine_stats().recovery.degraded_reclaims >= 1);
}

#[test]
fn withdrawing_all_parked_keys_leaves_degraded_mode() {
    let (_, mut e) = tiny_spill_setup();
    let guard = arm(FaultPlan::new(2)
        .with(faultpoint::NO_SINGLETON, 1.0)
        .with(faultpoint::SETUP_FAIL, 1.0));
    e.announce(parked_prefix(0), NextHop::new(100))
        .expect("park");
    assert!(e.engine_stats().degraded.is_degraded());
    drop(guard);

    // The regression this guards: a withdraw of a prefix whose re-setup
    // failed must fully release its spillover entry, not leave a live
    // TCAM entry with no owning partition.
    e.withdraw(parked_prefix(0)).expect("withdraw parked");
    let es = e.engine_stats();
    assert_eq!(es.degraded, DegradedMode::Normal);
    assert_eq!(e.spill_len(), 0);
    assert!(es.recovery.degraded_reclaims >= 1, "{:?}", es.recovery);
    let report = e.verify();
    assert!(report.is_ok(), "{report}");

    // The freed capacity is usable by ordinary (un-faulted) updates.
    e.announce(parked_prefix(5), NextHop::new(9))
        .expect("clean announce");
    assert_eq!(
        e.lookup(parked_prefix(5).first_key()),
        Some(NextHop::new(9))
    );
}

#[test]
fn degraded_parks_surface_in_lookup_trace() {
    let (_, mut e) = tiny_spill_setup();
    let guard = arm(FaultPlan::new(5)
        .with(faultpoint::NO_SINGLETON, 1.0)
        .with(faultpoint::SETUP_FAIL, 1.0));
    e.announce(parked_prefix(0), NextHop::new(100))
        .expect("park");
    drop(guard);

    let mut trace = LookupTrace::default();
    let hop = e.lookup_traced(parked_prefix(0).first_key(), &mut trace);
    assert_eq!(hop, Some(NextHop::new(100)));
    assert!(trace.degraded_hits >= 1, "{trace:?}");
    assert!(trace.spill_hits >= trace.degraded_hits, "{trace:?}");

    // An address outside the parked group never touches a degraded entry.
    let mut clean = LookupTrace::default();
    e.lookup_traced(
        Key::from_raw(AddressFamily::V4, 0x0A00_0001 << 4),
        &mut clean,
    );
    assert_eq!(clean.degraded_hits, 0, "{clean:?}");
}

/// Every rebuild unit of a batched window fails its re-setup: the new
/// keys degrade into partition-local TCAM parks up to the budget (the
/// overflow rolls back as rejected events) while the *inline* half of
/// the window — next-hop changes on existing routes — commits untouched
/// and the window still publishes.
#[test]
fn batch_setup_failures_degrade_only_affected_partitions() {
    for seed in seeds() {
        let (t, mut e) = tiny_spill_setup();
        let baseline_len = e.len();

        // Inline half: re-point every existing route. Deferred half:
        // four brand-new keys that NO_SINGLETON forces through the
        // parallel re-setup machinery, where SETUP_FAIL kills every unit.
        let mut events: Vec<RouteUpdate> = t
            .iter()
            .enumerate()
            .map(|(i, r)| RouteUpdate::Announce(r.prefix, NextHop::new(40 + i as u32)))
            .collect();
        for i in 0..4u128 {
            events.push(RouteUpdate::Announce(
                parked_prefix(i),
                NextHop::new(100 + i as u32),
            ));
        }

        let guard = arm(FaultPlan::new(seed)
            .with(faultpoint::NO_SINGLETON, 1.0)
            .with(faultpoint::SETUP_FAIL, 1.0));
        let report = e.apply_batch(&events).expect("window must publish");
        drop(guard);

        let verify = e.verify();
        assert!(verify.is_ok(), "[seed {seed}] {verify}");
        assert!(
            report.parallel_resetups >= 1,
            "[seed {seed}] no rebuild units ran"
        );

        // Whatever the partition split of the four keys, the 2-entry
        // TCAM parks exactly two and the other two roll back, named in
        // the report.
        let es = e.engine_stats();
        assert!(es.recovery.resetup_failures >= 1, "[seed {seed}]");
        assert_eq!(es.degraded, DegradedMode::Degraded { parked_keys: 2 });
        assert_eq!(es.recovery.degraded_parks, 2, "[seed {seed}]");
        assert_eq!(report.rejected_events.len(), 2, "[seed {seed}]");
        assert_eq!(e.len(), baseline_len + 2, "[seed {seed}]");

        // The failed units' blast radius never reaches the inline ops.
        for (i, r) in t.iter().enumerate() {
            assert_eq!(
                e.lookup(r.prefix.first_key()),
                Some(NextHop::new(40 + i as u32)),
                "[seed {seed}] inline next-hop change lost at {}",
                r.prefix
            );
        }
        // Parked keys answer through the TCAM; rolled-back keys answer
        // exactly as if never announced.
        for i in 0..4u128 {
            let raw = t.len() + i as usize;
            let got = e.lookup(parked_prefix(i).first_key());
            if report.rejected_events.contains(&raw) {
                assert_eq!(got, None, "[seed {seed}] rolled-back key answers");
            } else {
                assert_eq!(
                    got,
                    Some(NextHop::new(100 + i as u32)),
                    "[seed {seed}] parked key lost"
                );
            }
        }
    }
}

/// With SETUP_FAIL at coin-flip odds, some seeds fail one rebuild unit
/// of a window while the sibling unit commits: the committed partition
/// gets real encodings, the failed one degrades, and the engine stays
/// verified either way. The seed sweep must exhibit at least one such
/// mixed window.
#[test]
fn batch_mixed_resetup_outcome_commits_healthy_units() {
    let mut mixed_seen = false;
    for seed in 1..=16u64 {
        let (t, mut e) = tiny_spill_setup();
        let baseline_len = e.len();
        let events: Vec<RouteUpdate> = (0..8u128)
            .map(|i| RouteUpdate::Announce(parked_prefix(i), NextHop::new(100 + i as u32)))
            .collect();

        let guard = arm(FaultPlan::new(seed)
            .with(faultpoint::NO_SINGLETON, 1.0)
            .with(faultpoint::SETUP_FAIL, 0.5));
        let report = e.apply_batch(&events).expect("window must publish");
        drop(guard);

        let verify = e.verify();
        assert!(verify.is_ok(), "[seed {seed}] {verify}");
        assert_eq!(
            e.len(),
            baseline_len + events.len() - report.rejected_events.len(),
            "[seed {seed}] length diverged from the report"
        );
        for i in 0..8u128 {
            let got = e.lookup(parked_prefix(i).first_key());
            if report.rejected_events.contains(&(i as usize)) {
                assert_eq!(got, None, "[seed {seed}] rejected key answers");
            } else {
                assert_eq!(
                    got,
                    Some(NextHop::new(100 + i as u32)),
                    "[seed {seed}] accepted key lost"
                );
            }
        }
        // Pre-existing routes are untouched by any outcome.
        for r in t.iter() {
            assert_eq!(e.lookup(r.prefix.first_key()), Some(r.next_hop));
        }

        let es = e.engine_stats();
        if report.kinds.resetups > 0 && es.recovery.resetup_failures > 0 {
            mixed_seen = true;
        }
    }
    assert!(
        mixed_seen,
        "no seed produced a window with both a committed and a failed unit"
    );
}

#[test]
fn alloc_pressure_fault_rejects_grow_without_corruption() {
    // A small table with no slack grows quickly; allocation pressure at
    // the grow site must reject the triggering announce pre-mutation.
    let mut t = RoutingTable::new_v4();
    for i in 0..16u128 {
        t.insert(
            Prefix::new(AddressFamily::V4, (0x0C00 + i) << 4, 20).expect("prefix"),
            NextHop::new(i as u32),
        );
    }
    let config = ChiselConfig::ipv4().slack(1.0).seed(11);
    let mut e = ChiselLpm::build(&t, config).expect("build");
    let mut oracle = OracleLpm::from_table(&t);

    let guard = arm(FaultPlan::new(3).with(faultpoint::ALLOC_PRESSURE, 1.0));
    let mut grow_rejections = 0usize;
    for i in 0..64u128 {
        let p = Prefix::new(AddressFamily::V4, (0x0D00 + i) << 4, 20).expect("prefix");
        match e.announce(p, NextHop::new(200 + i as u32)) {
            Ok(_) => {
                oracle.insert(p, NextHop::new(200 + i as u32));
            }
            Err(ChiselError::FaultInjected { site }) => {
                assert_eq!(site, faultpoint::ALLOC_PRESSURE);
                grow_rejections += 1;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    drop(guard);
    assert!(
        grow_rejections > 0,
        "the no-slack engine never tried to grow"
    );
    let report = e.verify();
    assert!(report.is_ok(), "{report}");
    for r in t.iter() {
        let k = r.prefix.first_key();
        assert_eq!(e.lookup(k), oracle.lookup(k), "diverged at {k}");
    }
}
