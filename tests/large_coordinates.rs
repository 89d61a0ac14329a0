//! A degenerate projection window far from the origin. A pair that only
//! touches along an axis-parallel edge projects a zero-extent region, which
//! `Viewport` inflates. From |x| ≥ 2¹⁴ up, adding a fixed `1e-12` rounds
//! back to `x`: the window kept a zero width, an infinite scale, and window
//! coordinates that were NaN or ∞, so the hardware filter rejected pairs
//! that touch. `DATA_EXTENT` is 1e5, so such coordinates are in range.
//!
//! Every case is checked against the software oracle, per pair and as one
//! atlas of 32, for intersection and for strict containment. The oracle's
//! step 3 searches the run-box region R, which for these pairs is a
//! segment or a box a few ulps from degenerate; so the oracle is checked
//! in turn against an all-pairs definition that reads no run box.

use hwspatial::core::hw_intersect::HwTester;
use hwspatial::core::pipeline::Predicate;
use hwspatial::core::{HwConfig, TestStats};
use hwspatial::geom::{
    point_in_polygon, polygon_contained_in, polygons_intersect, polygons_intersect_brute, Polygon,
};

/// The square `[b, b + 10]²`, each side cut into `per_side` edges.
fn square(b: f64, per_side: usize) -> Polygon {
    let t = |k: usize| 10.0 * k as f64 / per_side as f64;
    let coords: Vec<(f64, f64)> = (0..per_side)
        .map(|k| (b + t(k), b))
        .chain((0..per_side).map(|k| (b + 10.0, b + t(k))))
        .chain((0..per_side).map(|k| (b + 10.0 - t(k), b + 10.0)))
        .chain((0..per_side).map(|k| (b, b + 10.0 - t(k))))
        .collect();
    Polygon::from_coords(&coords)
}

fn shifted(b: f64, coords: &[(f64, f64)]) -> Polygon {
    let coords: Vec<(f64, f64)> = coords.iter().map(|&(x, y)| (b + x, b + y)).collect();
    Polygon::from_coords(&coords)
}

/// Pairs that touch `square(b, _)` along its right side and its top, from
/// outside.
fn touching_outside(b: f64) -> [Polygon; 2] {
    [
        shifted(b, &[(20.0, 3.0), (20.0, 7.0), (10.0, 7.0), (10.0, 3.0)]),
        shifted(b, &[(3.0, 20.0), (3.0, 10.0), (7.0, 10.0), (7.0, 20.0)]),
    ]
}

/// Squares inside `square(b, _)`: touching its right side, touching its top,
/// and clear of its boundary.
fn inside(b: f64) -> [Polygon; 3] {
    [
        shifted(b, &[(6.0, 3.0), (10.0, 3.0), (10.0, 7.0), (6.0, 7.0)]),
        shifted(b, &[(3.0, 6.0), (7.0, 6.0), (7.0, 10.0), (3.0, 10.0)]),
        shifted(b, &[(3.0, 3.0), (7.0, 3.0), (7.0, 7.0), (3.0, 7.0)]),
    ]
}

/// `(b, resolutions)`: the shared edge of `b = 16 383` lies at
/// x = 16 393, just past 2¹⁴.
const CASES: [(f64, &[usize]); 5] = [
    (16_383.0, &[8]),
    (2e4, &[1, 8, 32]),
    (1e5, &[1, 8, 32]),
    (5e5, &[1, 8, 32]),
    (1e7, &[1, 8, 32]),
];

/// The oracle's answer for `pred` on `(p, q)`.
fn oracle(pred: Predicate, p: &Polygon, q: &Polygon) -> bool {
    match pred {
        Predicate::Intersects => polygons_intersect(p, q),
        Predicate::ContainedIn => polygon_contained_in(p, q),
        Predicate::WithinDistance(_) => unreachable!("no distance case here"),
    }
}

/// `pred` on `(p, q)` from its definition over whole boundaries: the
/// brute-force intersection oracle, and for containment the MBR gate, the
/// first vertex inside and no edge of one boundary meeting an edge of the
/// other.
fn brute(pred: Predicate, p: &Polygon, q: &Polygon) -> bool {
    match pred {
        Predicate::Intersects => polygons_intersect_brute(p, q),
        Predicate::ContainedIn => {
            q.mbr().contains_rect(&p.mbr())
                && point_in_polygon(p.vertices()[0], q)
                && !p.edges().any(|e| q.edges().any(|f| e.intersects(&f)))
        }
        Predicate::WithinDistance(_) => unreachable!("no distance case here"),
    }
}

/// Every `(pred, p, q)` case at base `b`: the four-vertex square against
/// the pairs touching it from outside, and a 400-vertex square — one that
/// carries run boxes — against the squares inside it.
fn cases(b: f64) -> Vec<(Predicate, Polygon, Polygon)> {
    let mut cases = Vec::new();
    for q in touching_outside(b) {
        cases.push((Predicate::Intersects, square(b, 1), q.clone()));
        cases.push((Predicate::Intersects, square(b, 100), q));
    }
    for inner in inside(b) {
        cases.push((Predicate::ContainedIn, inner.clone(), square(b, 100)));
        cases.push((Predicate::Intersects, inner, square(b, 100)));
    }
    cases
}

#[test]
fn touching_pairs_far_from_the_origin_are_not_rejected() {
    let mut checked = 0;
    for (b, resolutions) in CASES {
        let cases = cases(b);
        for (pred, p, q) in &cases {
            assert_eq!(
                oracle(*pred, p, q),
                brute(*pred, p, q),
                "{pred:?} at b = {b}"
            );
        }
        for &resolution in resolutions {
            let mut tester = HwTester::new(HwConfig::at_resolution(resolution));
            for (pred, p, q) in &cases {
                let expected = oracle(*pred, p, q);
                let mut stats = TestStats::default();
                let got = tester.test(*pred, p, q, &mut stats);
                assert_eq!(
                    got, expected,
                    "{pred:?} at b = {b}, {resolution}×{resolution}"
                );
                checked += 1;
            }
        }
        // The touching pairs are true positives of intersection.
        assert!(touching_outside(b)
            .iter()
            .all(|q| polygons_intersect(&square(b, 1), q)));
    }
    assert_eq!(checked, 13 * 10);
}

#[test]
fn touching_pairs_far_from_the_origin_are_not_rejected_in_an_atlas_of_32() {
    for pred in [Predicate::Intersects, Predicate::ContainedIn] {
        let all: Vec<(Polygon, Polygon)> = CASES
            .iter()
            .flat_map(|&(b, _)| cases(b))
            .filter(|(p_pred, _, _)| *p_pred == pred)
            .map(|(_, p, q)| (p, q))
            .collect();
        let pairs: Vec<(&Polygon, &Polygon)> =
            all.iter().cycle().take(32).map(|(p, q)| (p, q)).collect();
        for resolution in [1, 8, 32] {
            let mut tester = HwTester::new(HwConfig::at_resolution(resolution));
            let mut stats = TestStats::default();
            let got = tester.test_batch(pred, &pairs, &mut stats);
            let expected: Vec<bool> = pairs.iter().map(|(p, q)| oracle(pred, p, q)).collect();
            assert_eq!(got, expected, "{pred:?} at {resolution}×{resolution}");
        }
    }
}
