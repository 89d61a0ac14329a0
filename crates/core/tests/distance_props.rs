//! Adversarial query distances for the within-distance tests: the exact
//! MBR-touch values where `min_dist` rounding used to panic the pipeline
//! (the `expanded(d/2)` intersection coming back `None`), plus zero,
//! subnormal and ulp-perturbed distances. The per-pair and batched paths
//! must never panic, must agree with each other, and must agree with the
//! exact software predicate on the geometry they were given.

use hwa_core::hw_intersect::HwTester;
use hwa_core::{HwConfig, Predicate, TestStats};
use proptest::prelude::*;
use spatial_geom::Polygon;

/// An axis-aligned rectangle as a polygon (degenerate-free: w, h > 0).
fn rect_poly(x: f64, y: f64, w: f64, h: f64) -> Polygon {
    Polygon::from_coords(&[(x, y), (x + w, y), (x + w, y + h), (x, y + h)])
}

/// The exact software predicate on the *full* edge sets — no frontier
/// restriction, no clipping. The pipeline restricts and clips the edge
/// sets before running the same pairwise kernel; agreeing with this
/// oracle proves those prefilters never drop a deciding edge, even when
/// `d` sits exactly on a representability boundary.
fn oracle(p: &Polygon, q: &Polygon, d: f64) -> bool {
    let ep: Vec<_> = p.edges().collect();
    let eq: Vec<_> = q.edges().collect();
    spatial_geom::distance::edges_within_pairwise(&ep, &eq, d)
}

/// The adversarial distance set for a pair: the exact MBR gap (the value
/// whose `expanded(d/2)` roundtrip used to panic), its ulp neighbours,
/// zero, a subnormal, and the gap's half and double.
fn adversarial_distances(p: &Polygon, q: &Polygon) -> Vec<f64> {
    let gap = p.mbr().min_dist(&q.mbr());
    let mut ds = vec![
        gap,
        f64::from_bits(gap.to_bits().saturating_add(1)),
        gap / 2.0,
        gap * 2.0,
        0.0,
        f64::MIN_POSITIVE,
        f64::from_bits(1), // smallest subnormal
    ];
    if gap > 0.0 {
        ds.push(f64::from_bits(gap.to_bits() - 1));
    }
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Rectangles separated by an arbitrary f64 gap, queried at the gap
    /// itself and its neighbourhood: never panics, agrees with the exact
    /// predicate, per-pair and batch agree with each other.
    #[test]
    fn within_distance_survives_exact_touch_distances(
        x in -50.0f64..50.0,
        y in -30.0f64..30.0,
        w in 0.5f64..8.0,
        gap in 0.0f64..20.0,
        dy in -5.0f64..5.0,
        res in 1usize..17,
    ) {
        let p = rect_poly(x, y, w, 2.0);
        let q = rect_poly(x + w + gap, y + dy, w, 2.0);
        let mut t = HwTester::new(HwConfig::at_resolution(res));
        for d in adversarial_distances(&p, &q) {
            let expect = oracle(&p, &q, d);
            let mut st = TestStats::default();
            let got = t.within_distance(&p, &q, d, &mut st);
            prop_assert_eq!(
                got,
                expect,
                "d = {} ({:#x}), x={x:?} y={y:?} w={w:?} gap={gap:?} dy={dy:?} res={res}",
                d,
                d.to_bits()
            );

            let mut st = TestStats::default();
            let batch = t.test_batch(Predicate::WithinDistance(d), &[(&p, &q), (&q, &p)], &mut st);
            prop_assert_eq!(batch, vec![expect, expect], "batch, d = {}", d);

            // A fresh tester answers what the reused `t` does.
            let mut fresh = HwTester::new(HwConfig::at_resolution(res));
            let mut st = TestStats::default();
            prop_assert_eq!(fresh.within_distance(&p, &q, d, &mut st), expect,
                "fresh tester, d = {}", d);
        }
    }

    /// The one-ulp hazard reconstructed directly: whenever the rounded
    /// half-expansions fail to intersect even though the MBR gate passes,
    /// the pipeline must take the software fallback (and charge it),
    /// not panic.
    #[test]
    fn failed_expansion_intersections_are_charged_fallbacks(
        x1 in -40.0f64..40.0,
        gap in 0.1f64..30.0,
    ) {
        let p = rect_poly(x1 - 2.0, 0.0, 2.0, 2.0);
        let q = rect_poly(x1 + gap, 0.0, 2.0, 2.0);
        let d = p.mbr().min_dist(&q.mbr());
        let half = d / 2.0;
        let hazard = p
            .mbr()
            .expanded(half)
            .intersection(&q.mbr().expanded(half))
            .is_none();
        let mut t = HwTester::new(HwConfig::at_resolution(8));
        let mut st = TestStats::default();
        let got = t.within_distance(&p, &q, d, &mut st);
        prop_assert_eq!(got, oracle(&p, &q, d));
        if hazard {
            prop_assert_eq!(st.width_limit_fallbacks, 1, "{:?}", st);
            prop_assert_eq!(st.hw_tests, 0);
        }
    }
}
