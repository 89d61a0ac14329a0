//! Chaos properties for the resilience ladder (DESIGN.md §13): for ANY
//! seeded per-shard fault schedule — targeted at one shard or salted
//! across all of them — every pipeline's results stay bit-identical to
//! the clean sharded run, the failover ledger balances (invariant 14:
//! `hw_tests + fallback_tests == clean hw_tests`, wherever the
//! surviving hardware tests actually executed), and every counter the
//! chaos touches is a deterministic function of the schedule, including
//! under half-open probation.
//!
//! The worst case is pinned exactly: a schedule that kills *every*
//! shard quarantines the whole device and the ladder bottoms out in
//! pure software with the clean run's rows. And without chaos the pool is
//! invisible: a clean `k`-shard pool runs every submission on shard 0
//! and charges exactly what the single device does.

use hwa_core::engine::{EngineConfig, PreparedDataset, SpatialEngine};
use hwa_core::{
    CostBreakdown, DeviceKind, FaultKind, FaultPlan, FaultTrigger, HwConfig, RecoveryPolicy,
};
use proptest::prelude::*;

fn prepare(ds: spatial_datagen::Dataset) -> PreparedDataset {
    PreparedDataset::new(ds.name, ds.polygons)
}

prop_compose! {
    /// A fault plan that may target one specific shard (`Some`) or run
    /// salted on every shard (`None`).
    fn arb_chaos_plan()(
        seed in 0u64..u64::MAX,
        kind_pick in 0usize..4,
        trigger_pick in 0usize..3,
        n in 0u64..5,
        k in 1u64..4,
        // 0..4 targets that shard; 4 leaves the plan salted on all shards
        // (the vendored proptest has no `option::of`).
        target_pick in 0usize..5,
    ) -> FaultPlan {
        let kind = match kind_pick {
            0 => FaultKind::ContextLost,
            1 => FaultKind::OutOfMemory,
            2 => FaultKind::Timeout,
            _ => FaultKind::ReadbackBitFlip,
        };
        let trigger = match trigger_pick {
            0 => FaultTrigger::OnExecute(n),
            1 => FaultTrigger::OnCommand(n * 5),
            _ => FaultTrigger::EveryK(k),
        };
        let plan = FaultPlan::new(seed, kind, trigger);
        match target_pick {
            s @ 0..=3 => plan.on_shard(s),
            _ => plan,
        }
    }
}

prop_compose! {
    /// A recovery policy with and without half-open probation.
    fn arb_policy()(probation_pick in 0usize..3) -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 1,
            backoff_ns: 1_000,
            quarantine_after: 2,
            probation_ns: match probation_pick {
                0 => None,
                1 => Some(2_000),
                _ => Some(200_000),
            },
        }
    }
}

/// Runs all four pipelines under one engine config; returns results and
/// costs in a fixed order.
fn run_all(
    config: EngineConfig,
    a: &PreparedDataset,
    b: &PreparedDataset,
    q: &spatial_geom::Polygon,
    d: f64,
) -> Vec<(Vec<(usize, usize)>, CostBreakdown)> {
    let mut e = SpatialEngine::new(config);
    let lift = |(r, c): (Vec<usize>, CostBreakdown)| {
        (r.into_iter().map(|i| (i, 0)).collect::<Vec<_>>(), c)
    };
    vec![
        lift(e.intersection_selection(a, q)),
        lift(e.containment_selection(a, q)),
        e.intersection_join(a, b),
        e.within_distance_join(a, b, d),
    ]
}

/// Renders every deterministic counter of a [`TestStats`] — everything
/// except `sim_wall`, the only field measured from the host clock.
fn replayable_counters(t: &hwa_core::TestStats) -> String {
    format!(
        "pip {} rej {} sw {} skip {} width {} hw {} batches {} fb {} faults {} \
         retries {} quar {} fo {} shq {} probes {} reinst {} rec_ns {} \
         hwstats {:?} gpu {:?}",
        t.decided_by_pip,
        t.rejected_by_hw,
        t.software_tests,
        t.skipped_by_threshold,
        t.width_limit_fallbacks,
        t.hw_tests,
        t.hw_batches,
        t.fallback_tests,
        t.device_faults,
        t.retries,
        t.quarantined,
        t.shard_failovers,
        t.shard_quarantined,
        t.probes,
        t.probe_reinstates,
        t.recovery_ns,
        t.hw,
        t.gpu_modeled,
    )
}

/// A `shards`-device pool: every submission is aimed at shard 0 and
/// reaches another shard only by failover.
fn chaos_config(
    device: DeviceKind,
    shards: usize,
    policy: RecoveryPolicy,
    batch: bool,
) -> EngineConfig {
    let hw = HwConfig::at_resolution(8).with_threshold(0);
    EngineConfig {
        device,
        shards,
        hw_batch: if batch { 16 } else { 1 },
        use_object_filters: true,
        recovery: policy,
        ..EngineConfig::hardware(hw)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline chaos property: any seeded per-shard schedule, on
    /// any shard count and with or without probation, preserves results
    /// bit for bit and balances the invariant-14 ledger on all four
    /// pipelines.
    #[test]
    fn any_shard_schedule_preserves_results_and_ledger(
        plan in arb_chaos_plan(),
        policy in arb_policy(),
        shards in 1usize..4,
        batch_pick in 0usize..2,
    ) {
        let batch = batch_pick == 1;
        let a = prepare(spatial_datagen::landc(0.0015, 31));
        let b = prepare(spatial_datagen::lando(0.0015, 31));
        let queries = spatial_datagen::states50(31);
        let q = &queries.polygons[0];
        let d = 0.02;
        let clean = run_all(
            chaos_config(DeviceKind::Reference, shards, policy, batch),
            &a, &b, q, d,
        );
        let chaotic = run_all(
            chaos_config(DeviceKind::Reference.with_faults(plan), shards, policy, batch),
            &a, &b, q, d,
        );
        // Breaker state persists across the four pipeline calls (one
        // engine), so opening/failover/probe counters must be judged
        // engine-wide, not per pipeline: a breaker opened (and charged)
        // during `isect_sel` reroutes `isect_join` submissions whose own
        // `shard_quarantined` is zero.
        let (mut openings, mut failovers, mut probes) = (0usize, 0usize, 0usize);
        for (name, (c, f)) in ["isect_sel", "contain_sel", "isect_join", "within_join"]
            .iter()
            .zip(clean.iter().zip(&chaotic))
        {
            prop_assert_eq!(&c.0, &f.0, "{}: results changed under {:?}", name, plan);
            let (ct, ft) = (&c.1.tests, &f.1.tests);
            openings += ft.shard_quarantined;
            failovers += ft.shard_failovers;
            probes += ft.probes;
            // Invariant 14: every hardware test either executed on SOME
            // shard (failovers move it, never lose it) or fell back.
            prop_assert_eq!(
                ft.hw_tests + ft.fallback_tests,
                ct.hw_tests,
                "{}: hw {} + fallback {} != clean hw {} under {:?}",
                name, ft.hw_tests, ft.fallback_tests, ct.hw_tests, plan
            );
            // Pre-hardware routing cannot see the chaos.
            prop_assert_eq!(ct.decided_by_pip, ft.decided_by_pip, "{}", name);
            prop_assert_eq!(ct.decided_by_runs, ft.decided_by_runs, "{}", name);
            prop_assert_eq!(ct.skipped_by_threshold, ft.skipped_by_threshold, "{}", name);
            prop_assert_eq!(c.1.candidates, f.1.candidates, "{}", name);
            prop_assert_eq!(c.1.results, f.1.results, "{}", name);
            // The clean run's resilience counters are all zero.
            prop_assert_eq!(ct.shard_failovers, 0, "{}", name);
            prop_assert_eq!(ct.shard_quarantined, 0, "{}", name);
            prop_assert_eq!(ct.probes, 0, "{}", name);
            if policy.probation_ns.is_none() {
                prop_assert_eq!(ft.probes, 0, "{}: probes without probation", name);
                prop_assert_eq!(ft.probe_reinstates, 0, "{}", name);
            }
            prop_assert!(
                ft.probe_reinstates <= ft.probes,
                "{}: more reinstatements than probes", name
            );
            if ft.fallback_tests > 0 {
                prop_assert!(
                    ft.device_faults > 0 || ft.quarantined > 0,
                    "{}: fallbacks without faults", name
                );
            }
        }
        // Failovers and probes both require an opened breaker, so across
        // the whole engine they can only appear after at least one
        // charged opening.
        if openings == 0 {
            prop_assert_eq!(failovers, 0, "failovers without any breaker opening");
            prop_assert_eq!(probes, 0, "probes without any breaker opening");
        }
    }

    /// Chaos is replayable: the same schedule, policy and shard count
    /// produce the same rows AND the same value for every resilience
    /// counter — failovers, quarantines, probes, reinstatements,
    /// retries and charged recovery time included.
    #[test]
    fn chaos_counters_are_deterministic(
        plan in arb_chaos_plan(),
        policy in arb_policy(),
        shards in 1usize..4,
    ) {
        let a = prepare(spatial_datagen::landc(0.0015, 32));
        let b = prepare(spatial_datagen::lando(0.0015, 32));
        let queries = spatial_datagen::states50(32);
        let q = &queries.polygons[0];
        let device = DeviceKind::Reference.with_faults(plan);
        let first = run_all(chaos_config(device, shards, policy, false), &a, &b, q, 0.02);
        let second = run_all(chaos_config(device, shards, policy, false), &a, &b, q, 0.02);
        for (name, (x, y)) in ["isect_sel", "contain_sel", "isect_join", "within_join"]
            .iter()
            .zip(first.iter().zip(&second))
        {
            prop_assert_eq!(&x.0, &y.0, "{}: rows must replay", name);
            prop_assert_eq!(
                replayable_counters(&x.1.tests),
                replayable_counters(&y.1.tests),
                "{}: counters must replay", name
            );
        }
    }

    /// The worst case exactly: a schedule that permanently kills every
    /// shard opens every breaker, the supervisor quarantines the whole
    /// device, and the run still returns the clean rows — all of them
    /// refined in software.
    #[test]
    fn all_shards_quarantined_still_gives_exact_results(
        seed in 0u64..u64::MAX,
        shards in 1usize..4,
        // 0 disables probation; otherwise the cool-down in modeled ns.
        probation_pick in 0u64..100,
    ) {
        let probation = (probation_pick > 0).then_some(probation_pick * 1_000);
        let a = prepare(spatial_datagen::landc(0.0015, 33));
        let b = prepare(spatial_datagen::lando(0.0015, 33));
        let policy = RecoveryPolicy {
            max_retries: 1,
            backoff_ns: 1_000,
            quarantine_after: 2,
            probation_ns: probation,
        };
        let plan = FaultPlan::new(seed, FaultKind::Timeout, FaultTrigger::EveryK(1));
        let clean = run_all(
            chaos_config(DeviceKind::Reference, shards, policy, false),
            &a, &b, &spatial_datagen::states50(33).polygons[0], 0.02,
        );
        let dead = run_all(
            chaos_config(DeviceKind::Reference.with_faults(plan), shards, policy, false),
            &a, &b, &spatial_datagen::states50(33).polygons[0], 0.02,
        );
        let (mut clean_hw, mut openings, mut refusals) = (0usize, 0usize, 0usize);
        for (name, (c, f)) in ["isect_sel", "contain_sel", "isect_join", "within_join"]
            .iter()
            .zip(clean.iter().zip(&dead))
        {
            prop_assert_eq!(&c.0, &f.0, "{}: results changed", name);
            let (ct, ft) = (&c.1.tests, &f.1.tests);
            prop_assert_eq!(ft.hw_tests, 0, "{}: no submission can succeed", name);
            prop_assert_eq!(ft.fallback_tests, ct.hw_tests, "{}", name);
            clean_hw += ct.hw_tests;
            openings += ft.shard_quarantined;
            refusals += ft.quarantined;
        }
        // With enough submissions across the whole engine every shard's
        // breaker opens exactly once (probation only *re*-opens breakers,
        // which is never re-counted).
        if clean_hw > 2 * shards + 2 {
            prop_assert_eq!(
                openings, shards,
                "every shard must quarantine exactly once"
            );
            // Without probation a fully-open device can only refuse;
            // with probation the modeled clock may keep ripening some
            // breaker, so submissions can probe instead of refusing.
            if probation.is_none() {
                prop_assert!(refusals > 0, "refusals must be charged");
            }
        }
    }

    /// A clean pool is the single device: at either batch size, `shards`
    /// devices return the same rows
    /// and every deterministic counter — submission grouping and raw
    /// hardware work included — because no submission leaves shard 0.
    #[test]
    fn a_clean_shard_pool_is_bit_identical_to_one_device(
        shards in 1usize..5,
        batch_pick in 0usize..2,
    ) {
        let a = prepare(spatial_datagen::landc(0.0015, 32));
        let b = prepare(spatial_datagen::lando(0.0015, 32));
        let queries = spatial_datagen::states50(32);
        let q = &queries.polygons[1];
        let config = |shards| {
            chaos_config(DeviceKind::Reference, shards, RecoveryPolicy::default(), batch_pick == 1)
        };
        let single = run_all(config(1), &a, &b, q, 0.02);
        let pooled = run_all(config(shards), &a, &b, q, 0.02);
        for (name, (u, p)) in ["isect_sel", "contain_sel", "isect_join", "within_join"]
            .iter()
            .zip(single.iter().zip(&pooled))
        {
            prop_assert_eq!(&u.0, &p.0, "{}: results changed behind {} shards", name, shards);
            prop_assert_eq!(
                (u.1.candidates, u.1.filter_hits, u.1.results, u.1.node_tests),
                (p.1.candidates, p.1.filter_hits, p.1.results, p.1.node_tests),
                "{}", name
            );
            prop_assert_eq!(
                replayable_counters(&u.1.tests),
                replayable_counters(&p.1.tests),
                "{}: counters moved behind {} shards", name, shards
            );
        }
    }
}
