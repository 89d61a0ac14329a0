//! Property tests: the bulk-loaded R-tree's answers equal linear scans for
//! every query type on arbitrary rectangle soups.

use proptest::prelude::*;
use spatial_geom::Rect;
use spatial_index::{
    join_intersecting, join_intersecting_with, join_within_distance, join_within_distance_with,
    FilterConfig, FilterStats, RTree,
};

prop_compose! {
    fn arb_rect()(
        x in -100.0f64..100.0,
        y in -100.0f64..100.0,
        w in 0.0f64..40.0,
        h in 0.0f64..40.0,
    ) -> Rect {
        Rect::new(x, y, x + w, y + h)
    }
}

prop_compose! {
    fn arb_items(max: usize)(
        rects in prop::collection::vec(arb_rect(), 1..max),
    ) -> Vec<(Rect, usize)> {
        rects.into_iter().enumerate().map(|(i, r)| (r, i)).collect()
    }
}

fn sorted(v: Vec<&usize>) -> Vec<usize> {
    let mut v: Vec<usize> = v.into_iter().copied().collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Window queries equal a linear scan.
    #[test]
    fn search_matches_scan(items in arb_items(120), window in arb_rect()) {
        let bulk = RTree::bulk_load(items.clone());
        bulk.check_invariants();
        let mut expected: Vec<usize> = items
            .iter()
            .filter(|(r, _)| r.intersects(&window))
            .map(|&(_, v)| v)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(sorted(bulk.search_intersects(&window)), expected);
    }

    /// Joins equal the quadratic scan.
    #[test]
    fn joins_match_scan(a in arb_items(60), b in arb_items(60), d in 0.0f64..50.0) {
        let ta = RTree::bulk_load(a.clone());
        let tb = RTree::bulk_load(b.clone());
        let mut got: Vec<(usize, usize)> = join_intersecting(&ta, &tb)
            .into_iter()
            .map(|(x, y)| (*x, *y))
            .collect();
        got.sort_unstable();
        let mut expected: Vec<(usize, usize)> = Vec::new();
        for (ra, va) in &a {
            for (rb, vb) in &b {
                if ra.intersects(rb) {
                    expected.push((*va, *vb));
                }
            }
        }
        expected.sort_unstable();
        prop_assert_eq!(got, expected);

        let mut got_d: Vec<(usize, usize)> = join_within_distance(&ta, &tb, d)
            .into_iter()
            .map(|(x, y)| (*x, *y))
            .collect();
        got_d.sort_unstable();
        let mut expected_d: Vec<(usize, usize)> = Vec::new();
        for (ra, va) in &a {
            for (rb, vb) in &b {
                if ra.min_dist(rb) <= d {
                    expected_d.push((*va, *vb));
                }
            }
        }
        expected_d.sort_unstable();
        prop_assert_eq!(got_d, expected_d);
    }

    /// Structural invariants — one lane box per child, parents covering
    /// children, padding slots empty, a balanced tree — hold after bulk
    /// loading.
    #[test]
    fn invariants_and_soa_mirror_hold_under_construction(items in arb_items(150)) {
        let bulk = RTree::bulk_load(items.clone());
        bulk.check_invariants();
        prop_assert_eq!(bulk.len(), items.len());
    }

    /// For both join predicates the candidate set equals the brute-force
    /// nested-loop oracle.
    #[test]
    fn joins_match_the_oracle(
        a in arb_items(50),
        b in arb_items(50),
        d in 0.0f64..50.0,
    ) {
        let ta = RTree::bulk_load(a.clone());
        let tb = RTree::bulk_load(b.clone());

        let mut oracle_int: Vec<(usize, usize)> = Vec::new();
        let mut oracle_dist: Vec<(usize, usize)> = Vec::new();
        for (ra, va) in &a {
            for (rb, vb) in &b {
                if ra.intersects(rb) {
                    oracle_int.push((*va, *vb));
                }
                if ra.min_dist(rb) <= d {
                    oracle_dist.push((*va, *vb));
                }
            }
        }
        oracle_int.sort_unstable();
        oracle_dist.sort_unstable();

        let sorted = |v: Vec<(&usize, &usize)>| -> Vec<(usize, usize)> {
            let mut v: Vec<(usize, usize)> = v.into_iter().map(|(x, y)| (*x, *y)).collect();
            v.sort_unstable();
            v
        };
        let (cfg, mut stats) = (FilterConfig {}, FilterStats::default());
        prop_assert_eq!(sorted(join_intersecting_with(&ta, &tb, &cfg, &mut stats)), oracle_int);
        prop_assert_eq!(
            sorted(join_within_distance_with(&ta, &tb, d, &cfg, &mut stats)),
            oracle_dist
        );
    }
}
