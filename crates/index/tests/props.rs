//! Property tests: the R-tree's answers equal linear scans for every query
//! type, under both construction methods, on arbitrary rectangle soups.

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

    /// Window queries equal a linear scan, for bulk-loaded and inserted
    /// trees alike.
    #[test]
    fn search_matches_scan(items in arb_items(120), window in arb_rect()) {
        let bulk = RTree::bulk_load(items.clone());
        let mut incr = RTree::new();
        for (r, v) in items.clone() {
            incr.insert(r, v);
        }
        bulk.check_invariants();
        incr.check_invariants();
        let mut expected: Vec<usize> = items
            .iter()
            .filter(|(r, _)| r.intersects(&window))
            .map(|&(_, v)| v)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(sorted(bulk.search_intersects(&window)), expected.clone());
        prop_assert_eq!(sorted(incr.search_intersects(&window)), expected);
    }

    /// Within-distance queries equal a linear scan.
    #[test]
    fn within_matches_scan(items in arb_items(100), q in arb_rect(), d in 0.0f64..80.0) {
        let tree = RTree::bulk_load(items.clone());
        let mut expected: Vec<usize> = items
            .iter()
            .filter(|(r, _)| r.min_dist(&q) <= d)
            .map(|&(_, v)| v)
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(sorted(tree.search_within(&q, d)), expected);
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

    /// Structural invariants — including every node's SoA mirror matching
    /// its entry list bit for bit — hold after bulk loading and after
    /// every step of an incremental insert sequence (the insert/split
    /// path rebuilds the mirrors on the way back up).
    #[test]
    fn invariants_and_soa_mirror_hold_under_construction(items in arb_items(150)) {
        let bulk = RTree::bulk_load(items.clone());
        bulk.check_invariants();
        let mut incr = RTree::new();
        for (i, (r, v)) in items.into_iter().enumerate() {
            incr.insert(r, v);
            // Checking at every prefix would be quadratic; sample the
            // prefixes (always including the final tree).
            if i % 17 == 0 {
                incr.check_invariants();
            }
        }
        incr.check_invariants();
        prop_assert_eq!(bulk.len(), incr.len());
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
