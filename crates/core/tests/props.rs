//! The headline invariants of the paper, property-tested: the
//! hardware-assisted tests are *exact* — equal to the software oracles —
//! at every window resolution, every overlap strategy, every threshold
//! and every query distance (DESIGN.md §5, invariants 1–2).

use hwa_core::hw_intersect::HwTester;
use hwa_core::{FilterStats, HwConfig, Predicate, RefineOp, Stage1, StagedExecutor, TestStats};
use proptest::prelude::*;
use spatial_geom::{min_dist_brute, polygons_intersect_brute, Point, Polygon};
use spatial_raster::OverlapStrategy;

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
        cx in -40.0f64..40.0,
        cy in -40.0f64..40.0,
        radii in prop::collection::vec(0.5f64..25.0, 3..20),
    ) -> Polygon {
        star_polygon(cx, cy, &radii)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Algorithm 3.1 == brute force, across resolutions.
    #[test]
    fn hw_intersects_is_exact(
        p in arb_star(),
        q in arb_star(),
        res in 1usize..33,
    ) {
        let oracle = polygons_intersect_brute(&p, &q);
        let mut t = HwTester::new(HwConfig::at_resolution(res));
        let mut st = TestStats::default();
        prop_assert_eq!(t.intersects(&p, &q, &mut st), oracle, "res {}", res);
    }

    /// The software threshold must never change results, only routing.
    #[test]
    fn sw_threshold_is_result_invariant(
        p in arb_star(),
        q in arb_star(),
        threshold in 0usize..2000,
    ) {
        let oracle = polygons_intersect_brute(&p, &q);
        let mut t = HwTester::new(HwConfig::at_resolution(8).with_threshold(threshold));
        let mut st = TestStats::default();
        prop_assert_eq!(t.intersects(&p, &q, &mut st), oracle);
    }

    /// All overlap strategies implement the same exact test.
    #[test]
    fn strategies_are_equivalent(p in arb_star(), q in arb_star()) {
        let oracle = polygons_intersect_brute(&p, &q);
        for strategy in [
            OverlapStrategy::Accumulation,
            OverlapStrategy::Blending,
            OverlapStrategy::Stencil,
        ] {
            let cfg = HwConfig { strategy, ..HwConfig::at_resolution(8) };
            let mut t = HwTester::new(cfg);
            let mut st = TestStats::default();
            prop_assert_eq!(t.intersects(&p, &q, &mut st), oracle, "{:?}", strategy);
        }
    }

    /// The distance test == oracle, across resolutions and distances,
    /// including the width-limit software fallback region.
    #[test]
    fn hw_within_distance_is_exact(
        p in arb_star(),
        q in arb_star(),
        res in 1usize..33,
        d in 0.0f64..120.0,
    ) {
        let oracle = min_dist_brute(&p, &q) <= d;
        let mut t = HwTester::new(HwConfig::at_resolution(res));
        let mut st = TestStats::default();
        prop_assert_eq!(
            t.within_distance(&p, &q, d, &mut st),
            oracle,
            "res {}, d {}", res, d
        );
    }

    /// A reused tester (retargeted context) must not leak state between
    /// pairs: run three tests back-to-back and compare each to its oracle.
    #[test]
    fn tester_reuse_is_stateless(
        a in arb_star(),
        b in arb_star(),
        c in arb_star(),
    ) {
        let mut t = HwTester::new(HwConfig::at_resolution(8));
        let mut st = TestStats::default();
        for (p, q) in [(&a, &b), (&b, &c), (&a, &c), (&a, &b)] {
            prop_assert_eq!(
                t.intersects(p, q, &mut st),
                polygons_intersect_brute(p, q)
            );
        }
    }

    /// Strict containment (hardware) equals the brute-force definition at
    /// every resolution: one vertex inside plus all-pairs disjoint edges.
    #[test]
    fn hw_containment_is_exact(
        p in arb_star(),
        q in arb_star(),
        res in 1usize..17,
    ) {
        let oracle = q.mbr().contains_rect(&p.mbr())
            && spatial_geom::point_in_polygon(p.vertices()[0], &q)
            && p.edges().all(|ep| q.edges().all(|eq| !ep.intersects(&eq)));
        let mut t = HwTester::new(HwConfig::at_resolution(res));
        let mut st = TestStats::default();
        prop_assert_eq!(t.contained_in(&p, &q, &mut st), oracle, "res {}", res);
    }

    /// Hardware rejections really are rejections the software sweep would
    /// also produce (no lost positives — conservative filtering).
    #[test]
    fn hw_rejections_are_true_negatives(
        p in arb_star(),
        q in arb_star(),
        res in 1usize..17,
    ) {
        let mut t = HwTester::new(HwConfig::at_resolution(res));
        let mut st = TestStats::default();
        let result = t.intersects(&p, &q, &mut st);
        if st.rejected_by_hw > 0 {
            prop_assert!(!result);
            prop_assert!(!polygons_intersect_brute(&p, &q),
                "hardware rejected a truly intersecting pair");
        }
    }

    /// Batched atlas submission == per-pair choreography == software
    /// oracle for the intersection test, across resolutions; routing
    /// counters are a pure function of the pairs, not the submission mode.
    #[test]
    fn batched_intersects_is_exact(
        polys in prop::collection::vec(arb_star(), 2..7),
        res in 1usize..17,
    ) {
        let pairs: Vec<(&Polygon, &Polygon)> = (0..polys.len())
            .flat_map(|i| (0..polys.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| i < j)
            .map(|(i, j)| (&polys[i], &polys[j]))
            .collect();
        let mut tb = HwTester::new(HwConfig::at_resolution(res));
        let mut sb = TestStats::default();
        let batched = tb.test_batch(Predicate::Intersects, &pairs, &mut sb);
        let mut tp = HwTester::new(HwConfig::at_resolution(res));
        let mut sp = TestStats::default();
        let per_pair: Vec<bool> = pairs
            .iter()
            .map(|&(p, q)| tp.intersects(p, q, &mut sp))
            .collect();
        let oracle: Vec<bool> = pairs
            .iter()
            .map(|&(p, q)| polygons_intersect_brute(p, q))
            .collect();
        prop_assert_eq!(&batched, &per_pair, "res {}", res);
        prop_assert_eq!(&batched, &oracle, "res {}", res);
        prop_assert_eq!(sb.hw_tests, sp.hw_tests);
        prop_assert_eq!(sb.rejected_by_hw, sp.rejected_by_hw);
        prop_assert_eq!(sb.decided_by_pip, sp.decided_by_pip);
        prop_assert_eq!(sb.software_tests, sp.software_tests);
    }

    /// Same exactness for the batched §3.1 within-distance test, whose
    /// atlas rounds also group pairs by Equation (1) line width.
    #[test]
    fn batched_within_distance_is_exact(
        polys in prop::collection::vec(arb_star(), 2..6),
        res in 1usize..17,
        d in 0.0f64..90.0,
    ) {
        let pairs: Vec<(&Polygon, &Polygon)> = (0..polys.len())
            .flat_map(|i| (0..polys.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| i < j)
            .map(|(i, j)| (&polys[i], &polys[j]))
            .collect();
        let mut tb = HwTester::new(HwConfig::at_resolution(res));
        let mut sb = TestStats::default();
        let batched = tb.test_batch(Predicate::WithinDistance(d), &pairs, &mut sb);
        let mut tp = HwTester::new(HwConfig::at_resolution(res));
        let mut sp = TestStats::default();
        let per_pair: Vec<bool> = pairs
            .iter()
            .map(|&(p, q)| tp.within_distance(p, q, d, &mut sp))
            .collect();
        let oracle: Vec<bool> = pairs
            .iter()
            .map(|&(p, q)| min_dist_brute(p, q) <= d)
            .collect();
        prop_assert_eq!(&batched, &per_pair, "res {}, d {}", res, d);
        prop_assert_eq!(&batched, &oracle, "res {}, d {}", res, d);
        prop_assert_eq!(sb.hw_tests, sp.hw_tests);
        prop_assert_eq!(sb.rejected_by_hw, sp.rejected_by_hw);
        prop_assert_eq!(sb.width_limit_fallbacks, sp.width_limit_fallbacks);
    }

    /// Parallel refinement is bit-identical to sequential: same results,
    /// same merged counters (and hence the same modeled GPU time), for
    /// any thread count and either submission mode.
    #[test]
    fn parallel_refinement_is_bit_identical(
        polys in prop::collection::vec(arb_star(), 3..8),
        threads in 2usize..6,
        batch in 1usize..5,
    ) {
        let cands: Vec<(usize, usize)> = (0..polys.len())
            .flat_map(|i| (0..polys.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| i < j)
            .collect();
        let run = |threads: usize| {
            let exec = StagedExecutor { batch, threads, partitions: 1 };
            let mut backend = HwTester::new(HwConfig::at_resolution(8));
            exec.run::<_, (), _>(
                &mut backend,
                RefineOp::Test(Predicate::Intersects),
                Stage1 {
                    candidates: cands.clone(),
                    stats: FilterStats::default(),
                    elapsed: std::time::Duration::ZERO,
                },
                Vec::new(),
                |_| 0,
                |(i, j)| (&polys[i], &polys[j]),
            )
        };
        let (r1, c1) = run(1);
        let (rn, cn) = run(threads);
        prop_assert_eq!(r1, rn, "threads {}", threads);
        prop_assert_eq!(c1.tests.hw_tests, cn.tests.hw_tests);
        prop_assert_eq!(c1.tests.rejected_by_hw, cn.tests.rejected_by_hw);
        prop_assert_eq!(c1.tests.software_tests, cn.tests.software_tests);
        prop_assert_eq!(c1.tests.decided_by_pip, cn.tests.decided_by_pip);
        prop_assert_eq!(c1.tests.hw_batches, cn.tests.hw_batches);
        prop_assert_eq!(c1.tests.hw, cn.tests.hw);
        prop_assert_eq!(c1.tests.gpu_modeled, cn.tests.gpu_modeled);
    }
}
