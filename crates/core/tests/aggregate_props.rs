//! The aggregation contract, property-tested (DESIGN.md §14): the
//! area-of-overlap pipeline's quantized answer sits inside the per-pixel
//! quantization envelope of the exact clipped-polygon oracle at every
//! resolution, and is bit-identical across shard counts, refine-thread
//! counts and seeded fault plans.
//!
//! The envelope is the geometric one from §14: the fill rule emits a
//! cell iff its center lies inside `P ∩ Q`, so hardware and oracle can
//! disagree only on cells the clipped boundary passes through. A segment
//! crosses at most `2·res + 3` cells of a `res × res` grid, and the
//! clipped boundary has at most `2·(Vp + Vq)` segments, giving the
//! always-sound (if generous) bound asserted here.

use hwa_core::engine::{EngineConfig, PreparedDataset, SpatialEngine};
use hwa_core::hw_intersect::HwTester;
use hwa_core::hw_overlap::{overlap_cell_area, sw_overlap_area};
use hwa_core::{
    DeviceKind, FaultKind, FaultPlan, FaultTrigger, HwConfig, RecoveryPolicy, TestStats,
};
use proptest::prelude::*;
use spatial_geom::{overlap_area_exact, Point, Polygon};

fn star_polygon(cx: f64, cy: f64, radii: &[f64]) -> Polygon {
    let n = radii.len();
    let vertices: Vec<Point> = radii
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let a = (i as f64) * std::f64::consts::TAU / (n as f64);
            Point::new(cx + r * a.cos(), cy + r * a.sin())
        })
        .collect();
    Polygon::new(vertices).expect("star polygons are structurally valid")
}

prop_compose! {
    fn arb_star()(
        cx in -30.0f64..30.0,
        cy in -30.0f64..30.0,
        radii in prop::collection::vec(0.5f64..20.0, 3..16),
    ) -> Polygon {
        star_polygon(cx, cy, &radii)
    }
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

/// The §14 quantization envelope, in world area, for one measured pair.
fn envelope(p: &Polygon, q: &Polygon, res: usize) -> f64 {
    let region = p
        .mbr()
        .intersection(&q.mbr())
        .expect("called only for measured pairs");
    let segments = 2.0 * (p.vertex_count() + q.vertex_count()) as f64;
    segments * (2.0 * res as f64 + 3.0) * overlap_cell_area(region, res)
}

fn prepare(ds: spatial_datagen::Dataset) -> PreparedDataset {
    PreparedDataset::new(ds.name, ds.polygons)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// |hw − exact| ≤ envelope, for arbitrary (concave) star pairs at
    /// every resolution — and the hardware and software execution paths
    /// answer the identical quantized bits.
    #[test]
    fn overlap_area_is_within_the_quantization_envelope(
        p in arb_star(),
        q in arb_star(),
        res in 1usize..49,
    ) {
        let mut t = HwTester::new(HwConfig::recommended());
        let mut st = TestStats::default();
        let hw = t.overlap_area(&p, &q, res, &mut st);
        let sw = sw_overlap_area(&p, &q, res);
        prop_assert_eq!(hw.to_bits(), sw.to_bits(), "sw/hw split at res {}", res);

        // Star polygons are simple by construction; skip the rare input
        // the triangulator rejects for numeric reasons rather than fail.
        let Some(exact) = overlap_area_exact(&p, &q) else { return Ok(()) };
        if p.mbr().intersection(&q.mbr()).is_some() {
            prop_assert!(
                (hw - exact).abs() <= envelope(&p, &q, res),
                "res {}: hw {} exact {} envelope {}",
                res, hw, exact, envelope(&p, &q, res)
            );
        } else {
            prop_assert_eq!(hw, 0.0);
            prop_assert!(exact.abs() < 1e-9);
        }
    }

    /// Sharding is transparent bit-for-bit for aggregations, including
    /// the charged hardware work counters: with shard 0 dead, a
    /// measurement runs on shard 1 once shard 0's breaker has opened.
    #[test]
    fn overlap_area_is_bit_identical_under_sharding(
        p in arb_star(),
        q in arb_star(),
        res in 1usize..33,
        shards in 1usize..5,
    ) {
        let reference = {
            let mut t = HwTester::new(HwConfig::recommended());
            let mut st = TestStats::default();
            (t.overlap_area(&p, &q, res, &mut st), st.hw)
        };
        // A one-device pool keeps its one device alive.
        let dead_0 = FaultPlan::new(5, FaultKind::Timeout, FaultTrigger::EveryK(1)).on_shard(0);
        let device = if shards > 1 {
            DeviceKind::Reference.with_faults(dead_0)
        } else {
            DeviceKind::Reference
        };
        let mut t = HwTester::with_device_and_policy(
            HwConfig::recommended(),
            device,
            shards,
            RecoveryPolicy { quarantine_after: 1, ..RecoveryPolicy::default() },
        );
        // An overlapping pair that always reaches the device: on a dead
        // shard 0 it opens the breaker (and falls back to software).
        let (u, v) = (star_polygon(0.0, 0.0, &[4.0; 6]), star_polygon(1.0, 1.0, &[4.0; 6]));
        let mut warm = TestStats::default();
        t.overlap_area(&u, &v, res, &mut warm);
        prop_assert_eq!(warm.shard_quarantined, usize::from(shards > 1));
        let mut st = TestStats::default();
        let area = t.overlap_area(&p, &q, res, &mut st);
        prop_assert_eq!(area.to_bits(), reference.0.to_bits(), "{} shards", shards);
        prop_assert_eq!(&st.hw, &reference.1, "{} shards charged differently", shards);
        if shards > 1 && reference.1.draw_calls > 0 {
            prop_assert_eq!(st.shard_failovers, 1, "the measurement ran on shard 1");
        }
    }

    /// Seeded fault plans never change a reported area: the fallback
    /// replays the same choreography, and the invariant-14 ledger
    /// balances (`hw_tests + fallback_tests` = clean `hw_tests`).
    #[test]
    fn faulted_overlap_area_is_bit_identical_with_balanced_ledger(
        p in arb_star(),
        q in arb_star(),
        res in 1usize..33,
        plan in arb_plan(),
    ) {
        let (clean_area, clean_st) = {
            let mut t = HwTester::new(HwConfig::recommended());
            let mut st = TestStats::default();
            (t.overlap_area(&p, &q, res, &mut st), st)
        };
        let mut t = HwTester::with_device_and_policy(
            HwConfig::recommended(),
            DeviceKind::Reference.with_faults(plan),
            1,
            RecoveryPolicy::default(),
        );
        let mut st = TestStats::default();
        let area = t.overlap_area(&p, &q, res, &mut st);
        prop_assert_eq!(area.to_bits(), clean_area.to_bits());
        prop_assert_eq!(st.overlap_tests, clean_st.overlap_tests);
        prop_assert_eq!(
            st.hw_tests + st.fallback_tests,
            clean_st.hw_tests,
            "degradation ledger must balance"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full aggregation pipeline: shard count and a seeded fault plan
    /// may move work anywhere, but every `(i, j, area)` row is
    /// bit-identical to the clean single-shard run.
    #[test]
    fn overlap_join_rows_survive_shards_and_faults(
        shards_pick in 0usize..3,
        res_pick in 0usize..3,
        plan in arb_plan(),
    ) {
        let shards = [1usize, 2, 4][shards_pick];
        let res = [4usize, 8, 32][res_pick];
        let a = prepare(spatial_datagen::landc(0.002, 17));
        let b = prepare(spatial_datagen::lando(0.002, 17));
        let base_cfg = EngineConfig::hardware(HwConfig::recommended());
        let (base, base_cost) =
            SpatialEngine::new(base_cfg.clone()).overlap_area_join(&a, &b, res);
        prop_assert!(!base.is_empty(), "BaseD-scale datasets overlap");
        // The §14 envelope on generated rows, not only on stars. The
        // oracle triangulates in O(V²), so the rows of the few
        // multi-thousand-vertex polygons are skipped (seconds each).
        let mut enveloped = 0;
        for &(i, j, area) in &base {
            let (p, q) = (a.polygon(i), b.polygon(j));
            if p.vertex_count() + q.vertex_count() > 2_000 {
                continue;
            }
            let Some(exact) = overlap_area_exact(p, q) else { continue };
            prop_assert!(
                (area - exact).abs() <= envelope(p, q, res),
                "pair ({}, {}) res {}: hw {} exact {} envelope {}",
                i, j, res, area, exact, envelope(p, q, res)
            );
            enveloped += 1;
        }
        prop_assert!(enveloped > 0, "no generated row met its oracle");

        let shaped_cfg = EngineConfig {
            device: DeviceKind::Reference.with_faults(plan),
            shards,
            ..base_cfg
        };
        let (rows, cost) = SpatialEngine::new(shaped_cfg).overlap_area_join(&a, &b, res);
        prop_assert_eq!(rows.len(), base.len());
        for ((i, j, ar), (bi, bj, br)) in rows.iter().zip(&base) {
            prop_assert_eq!((i, j), (bi, bj));
            prop_assert_eq!(
                ar.to_bits(), br.to_bits(),
                "pair ({}, {}) drifted under s{}",
                i, j, shards
            );
        }
        prop_assert_eq!(cost.tests.overlap_tests, base_cost.tests.overlap_tests);
        prop_assert_eq!(
            cost.tests.hw_tests + cost.tests.fallback_tests,
            base_cost.tests.hw_tests,
            "degradation ledger must balance under faults"
        );
    }
}
