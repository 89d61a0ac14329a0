//! The headline fault-tolerance property: for ANY seeded fault plan, every
//! pipeline's results are bit-identical to the fault-free run, and the
//! degradation is fully accounted — every hardware test the faults stole
//! reappears as a software fallback (`hw_tests + fallback_tests` equals
//! the clean run's `hw_tests`), while all routing counters stay untouched.
//!
//! This is the end-to-end composition of the whole ladder: injected device
//! faults (submission errors and corrupted readbacks), post-execution
//! validation, supervised retry with modeled backoff, the circuit breaker,
//! and per-pair/per-batch software fallback — across all four query
//! pipelines, per-pair and batched+threaded.

use hwa_core::engine::{EngineConfig, PreparedDataset, SpatialEngine};
use hwa_core::{
    CostBreakdown, DeviceKind, FaultKind, FaultPlan, FaultTrigger, HwConfig, RecoveryPolicy,
};
use proptest::prelude::*;

fn prepare(ds: spatial_datagen::Dataset) -> PreparedDataset {
    PreparedDataset::new(ds.name, ds.polygons)
}

prop_compose! {
    fn arb_plan()(
        seed in 0u64..u64::MAX,
        kind_pick in 0usize..4,
        trigger_pick in 0usize..3,
        n in 0u64..6,
        k in 1u64..4,
    ) -> FaultPlan {
        let kind = match kind_pick {
            0 => FaultKind::ContextLost,
            1 => FaultKind::OutOfMemory,
            2 => FaultKind::Timeout,
            _ => FaultKind::ReadbackBitFlip,
        };
        let trigger = match trigger_pick {
            0 => FaultTrigger::OnExecute(n),
            1 => FaultTrigger::OnCommand(n * 7),
            _ => FaultTrigger::EveryK(k),
        };
        FaultPlan::new(seed, kind, trigger)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn any_fault_plan_preserves_results_and_accounts_every_test(
        plan in arb_plan(),
        batch in 1usize..3,
    ) {
        let a = prepare(spatial_datagen::landc(0.0015, 21));
        let b = prepare(spatial_datagen::lando(0.0015, 21));
        let queries = spatial_datagen::states50(21);
        let q = &queries.polygons[0];
        let d = 0.02;
        // sw_threshold 0 routes every undecided pair to the hardware, so
        // faults actually bite; a permissive policy keeps the breaker out
        // of the comparison (quarantine is exercised separately below).
        let hw = HwConfig::at_resolution(8).with_threshold(0);
        let base = EngineConfig {
            hw_batch: if batch > 1 { 16 } else { 1 },
            use_object_filters: true,
            ..EngineConfig::hardware(hw)
        };
        let clean_cfg = EngineConfig { device: DeviceKind::Reference, ..base.clone() };
        let faulted_cfg = EngineConfig {
            device: DeviceKind::Reference.with_faults(plan),
            ..base
        };
        let clean = run_all(clean_cfg, &a, &b, q, d);
        let faulted = run_all(faulted_cfg, &a, &b, q, d);
        for (name, (c, f)) in ["isect_sel", "contain_sel", "isect_join", "within_join"]
            .iter()
            .zip(clean.iter().zip(&faulted))
        {
            prop_assert_eq!(&c.0, &f.0, "{}: results changed under {:?}", name, plan);
            let (ct, ft) = (&c.1.tests, &f.1.tests);
            // Every hardware test the faults stole is accounted as a
            // fallback — the degradation ladder never loses a pair.
            prop_assert_eq!(
                ft.hw_tests + ft.fallback_tests,
                ct.hw_tests,
                "{}: hw {} + fallback {} != clean hw {} under {:?}",
                name, ft.hw_tests, ft.fallback_tests, ct.hw_tests, plan
            );
            // Routing (pre-hardware) counters cannot see the faults.
            prop_assert_eq!(ct.decided_by_pip, ft.decided_by_pip, "{}", name);
            prop_assert_eq!(ct.decided_by_runs, ft.decided_by_runs, "{}", name);
            prop_assert_eq!(ct.skipped_by_threshold, ft.skipped_by_threshold, "{}", name);
            prop_assert_eq!(ct.width_limit_fallbacks, ft.width_limit_fallbacks, "{}", name);
            prop_assert_eq!(c.1.candidates, f.1.candidates, "{}", name);
            prop_assert_eq!(c.1.filter_hits, f.1.filter_hits, "{}", name);
            prop_assert_eq!(c.1.results, f.1.results, "{}", name);
            // A fault that never fired charges nothing; one that fired is
            // visible in the ledger — either as exhausted retries or, once
            // the breaker (which outlives a query on the same engine) has
            // opened, as refused submissions.
            if ft.fallback_tests > 0 {
                prop_assert!(
                    ft.device_faults > 0 || ft.quarantined > 0,
                    "{}: fallbacks without faults",
                    name
                );
            }
            if ft.device_faults == 0 {
                prop_assert_eq!(ft.retries, 0, "{}", name);
                prop_assert_eq!(ft.recovery_ns, 0, "{}", name);
            }
        }
    }

    /// An always-faulting device trips the breaker, yet the pipeline still
    /// returns exactly the clean results — the ladder bottoms out in pure
    /// software, quarantining instead of retrying forever.
    #[test]
    fn permanent_faults_quarantine_and_still_give_exact_results(
        seed in 0u64..u64::MAX,
        batch in 1usize..3,
    ) {
        let a = prepare(spatial_datagen::landc(0.0015, 22));
        let b = prepare(spatial_datagen::lando(0.0015, 22));
        let hw = HwConfig::at_resolution(8).with_threshold(0);
        let plan = FaultPlan::new(seed, FaultKind::ContextLost, FaultTrigger::EveryK(1));
        let clean = SpatialEngine::new(EngineConfig::hardware(hw))
            .intersection_join(&a, &b);
        let mut e = SpatialEngine::new(EngineConfig {
            device: DeviceKind::Reference.with_faults(plan),
            hw_batch: if batch > 1 { 16 } else { 1 },
            recovery: RecoveryPolicy {
                max_retries: 1,
                backoff_ns: 10,
                quarantine_after: 2,
                probation_ns: None,
            },
            ..EngineConfig::hardware(hw)
        });
        let (results, cost) = e.intersection_join(&a, &b);
        prop_assert_eq!(&results, &clean.0);
        let t = &cost.tests;
        prop_assert_eq!(t.hw_tests, 0, "no submission ever succeeds");
        prop_assert_eq!(t.fallback_tests, clean.1.tests.hw_tests);
        // Per-pair every candidate is its own submission, so once the
        // breaker opens after 2 exhausted submissions the rest are refused
        // without touching the device. (Batched mode folds the candidates
        // into a handful of submissions, so the breaker may open only on
        // the last one — no refusals to count.)
        if batch == 1 && clean.1.tests.hw_tests > 2 {
            prop_assert!(t.quarantined > 0, "breaker must open: {:?}", t);
        }
        prop_assert!(t.recovery_ns > 0, "retries charge modeled backoff");
    }
}
