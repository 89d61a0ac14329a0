//! The headline partitioning property (DESIGN.md invariant 12): for ANY
//! grid size, shard count and seeded fault plan, every
//! pipeline run over the PBSM-partitioned path returns bit-identical
//! result sets — each pair exactly once — and identical deterministic
//! counters to the unpartitioned engine.
//!
//! Two comparisons compose here:
//!
//! 1. partitioned-clean vs unpartitioned-clean: results AND the full
//!    deterministic counter set must match (at `hw_batch = 1` even the
//!    submission-grouping diagnostics have nowhere to move, so `hw_tests`,
//!    `hw_batches` and the raw `HwStats` are all asserted bit-identical);
//! 2. partitioned-faulted vs partitioned-clean: results must still match,
//!    and the degradation ledger must balance — every hardware test the
//!    faults stole reappears as a software fallback
//!    (`hw_tests + fallback_tests` equals the clean run's `hw_tests`),
//!    even though each device shard carries its own independently-seeded
//!    fault schedule.

use hwa_core::engine::{EngineConfig, PartitionConfig, PreparedDataset, SpatialEngine};
use hwa_core::{CostBreakdown, DeviceKind, FaultKind, FaultPlan, FaultTrigger, HwConfig};
use proptest::prelude::*;

fn prepare(ds: spatial_datagen::Dataset) -> PreparedDataset {
    PreparedDataset::new(ds.name, ds.polygons)
}

prop_compose! {
    fn arb_plan()(
        seed in 0u64..u64::MAX,
        kind_pick in 0usize..4,
        trigger_pick in 0usize..3,
        n in 0u64..5,
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
            1 => FaultTrigger::OnCommand(n * 5),
            _ => FaultTrigger::EveryK(k),
        };
        FaultPlan::new(seed, kind, trigger)
    }
}

/// Runs all four pipelines under one engine config; returns results and
/// costs in a fixed order (selection results lifted into pair form).
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

const PIPELINES: [&str; 4] = ["isect_sel", "contain_sel", "isect_join", "within_join"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Clean-path equivalence at `hw_batch = 1`: with per-pair submission
    /// there is no grouping freedom, so EVERY counter — including the
    /// batching diagnostics and the raw simulated-hardware work counters —
    /// must be bit-identical between the partitioned and unpartitioned
    /// engines, for every grid × shard combination from the pinned matrix.
    #[test]
    fn partitioned_clean_run_is_bit_identical(
        grid_pick in 0usize..3,
        shards_pick in 0usize..3,
    ) {
        let grid = [1usize, 2, 4][grid_pick];
        let shards = [1usize, 2, 4][shards_pick];
        let a = prepare(spatial_datagen::landc(0.0015, 31));
        let b = prepare(spatial_datagen::lando(0.0015, 31));
        let queries = spatial_datagen::states50(31);
        let q = &queries.polygons[0];
        let d = 0.02;
        let hw = HwConfig::at_resolution(8).with_threshold(0);
        let base = EngineConfig {
            device: DeviceKind::Reference,
            use_object_filters: true,
            ..EngineConfig::hardware(hw)
        };
        let flat = run_all(base.clone(), &a, &b, q, d);
        let part = run_all(
            EngineConfig {
                partition: PartitionConfig::grid(grid).with_shards(shards),
                ..base
            },
            &a, &b, q, d,
        );
        for (name, (u, p)) in PIPELINES.iter().zip(flat.iter().zip(&part)) {
            prop_assert_eq!(
                &u.0, &p.0,
                "{}: results changed under grid {} × shards {}", name, grid, shards
            );
            prop_assert_eq!(u.1.candidates, p.1.candidates, "{}", name);
            prop_assert_eq!(u.1.filter_hits, p.1.filter_hits, "{}", name);
            prop_assert_eq!(u.1.results, p.1.results, "{}", name);
            prop_assert_eq!(u.1.node_tests, p.1.node_tests, "{}", name);
            let (ut, pt) = (&u.1.tests, &p.1.tests);
            prop_assert_eq!(ut.decided_by_pip, pt.decided_by_pip, "{}", name);
            prop_assert_eq!(ut.rejected_by_hw, pt.rejected_by_hw, "{}", name);
            prop_assert_eq!(ut.software_tests, pt.software_tests, "{}", name);
            prop_assert_eq!(ut.skipped_by_threshold, pt.skipped_by_threshold, "{}", name);
            prop_assert_eq!(ut.width_limit_fallbacks, pt.width_limit_fallbacks, "{}", name);
            prop_assert_eq!(ut.hw_tests, pt.hw_tests, "{}", name);
            prop_assert_eq!(ut.hw_batches, pt.hw_batches, "{}: per-pair grouping", name);
            prop_assert_eq!(&ut.hw, &pt.hw, "{}: raw hardware work", name);
            prop_assert_eq!(ut.fallback_tests, 0, "{}: clean run", name);
            // The diagnostic may fan out but never exceeds the grid.
            prop_assert!(p.1.partitions_used <= grid * grid, "{}", name);
            prop_assert!(u.1.partitions_used <= 1, "{}", name);
        }
    }

    /// Batched + threaded clean-path equivalence: results and the
    /// deterministic counters still match (grouping diagnostics are free
    /// to move because partitions batch independently).
    #[test]
    fn partitioned_batched_run_preserves_results_and_counters(
        grid_pick in 0usize..3,
        shards_pick in 0usize..3,
    ) {
        let grid = [1usize, 2, 4][grid_pick];
        let shards = [1usize, 2, 4][shards_pick];
        let a = prepare(spatial_datagen::landc(0.0015, 32));
        let b = prepare(spatial_datagen::lando(0.0015, 32));
        let queries = spatial_datagen::states50(32);
        let q = &queries.polygons[1];
        let d = 0.02;
        let hw = HwConfig::at_resolution(8).with_threshold(0);
        let base = EngineConfig {
            device: DeviceKind::Reference,
            hw_batch: 16,
            refine_threads: 3,
            use_object_filters: true,
            ..EngineConfig::hardware(hw)
        };
        let flat = run_all(base.clone(), &a, &b, q, d);
        let part = run_all(
            EngineConfig {
                partition: PartitionConfig::grid(grid).with_shards(shards),
                ..base.clone()
            },
            &a, &b, q, d,
        );
        for (name, (u, p)) in PIPELINES.iter().zip(flat.iter().zip(&part)) {
            prop_assert_eq!(
                &u.0, &p.0,
                "{}: results changed under grid {} × shards {}", name, grid, shards
            );
            prop_assert_eq!(u.1.candidates, p.1.candidates, "{}", name);
            prop_assert_eq!(u.1.results, p.1.results, "{}", name);
            let (ut, pt) = (&u.1.tests, &p.1.tests);
            prop_assert_eq!(ut.decided_by_pip, pt.decided_by_pip, "{}", name);
            prop_assert_eq!(ut.rejected_by_hw, pt.rejected_by_hw, "{}", name);
            prop_assert_eq!(ut.software_tests, pt.software_tests, "{}", name);
            prop_assert_eq!(ut.hw_tests, pt.hw_tests, "{}", name);
        }
        // The device pool alone (one partition, so batches group as on the
        // bare device; worker threads fork the pool): even the grouping
        // and the raw hardware work match.
        let fronted = run_all(
            EngineConfig {
                partition: PartitionConfig::grid(1).with_shards(shards),
                ..base
            },
            &a, &b, q, d,
        );
        for (name, (u, f)) in PIPELINES.iter().zip(flat.iter().zip(&fronted)) {
            prop_assert_eq!(&u.0, &f.0, "{}: results changed behind {} shards", name, shards);
            prop_assert_eq!(u.1.tests.hw_batches, f.1.tests.hw_batches, "{}", name);
            prop_assert_eq!(&u.1.tests.hw, &f.1.tests.hw, "{}: raw hardware work", name);
        }
    }

    /// Fault composition: a partitioned engine whose shards each carry an
    /// independently-seeded copy of the fault plan still returns exactly
    /// the clean partitioned results, and the degradation ledger balances
    /// per pipeline.
    #[test]
    fn partitioned_faults_preserve_results_and_balance_the_ledger(
        plan in arb_plan(),
        grid_pick in 0usize..3,
        shards_pick in 0usize..3,
        batch in 1usize..3,
    ) {
        let grid = [1usize, 2, 4][grid_pick];
        let shards = [1usize, 2, 4][shards_pick];
        let a = prepare(spatial_datagen::landc(0.0015, 33));
        let b = prepare(spatial_datagen::lando(0.0015, 33));
        let queries = spatial_datagen::states50(33);
        let q = &queries.polygons[0];
        let d = 0.02;
        let hw = HwConfig::at_resolution(8).with_threshold(0);
        let base = EngineConfig {
            hw_batch: if batch > 1 { 16 } else { 1 },
            partition: PartitionConfig::grid(grid).with_shards(shards),
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
        for (name, (c, f)) in PIPELINES.iter().zip(clean.iter().zip(&faulted)) {
            prop_assert_eq!(
                &c.0, &f.0,
                "{}: results changed under {:?} with grid {} × shards {}",
                name, plan, grid, shards
            );
            let (ct, ft) = (&c.1.tests, &f.1.tests);
            prop_assert_eq!(
                ft.hw_tests + ft.fallback_tests,
                ct.hw_tests,
                "{}: hw {} + fallback {} != clean hw {} under {:?}",
                name, ft.hw_tests, ft.fallback_tests, ct.hw_tests, plan
            );
            prop_assert_eq!(ct.decided_by_pip, ft.decided_by_pip, "{}", name);
            prop_assert_eq!(ct.skipped_by_threshold, ft.skipped_by_threshold, "{}", name);
            prop_assert_eq!(c.1.candidates, f.1.candidates, "{}", name);
            prop_assert_eq!(c.1.results, f.1.results, "{}", name);
            prop_assert_eq!(c.1.partitions_used, f.1.partitions_used, "{}", name);
            if ft.device_faults == 0 {
                prop_assert_eq!(ft.retries, 0, "{}", name);
                prop_assert_eq!(ft.recovery_ns, 0, "{}", name);
            }
        }
    }
}
