//! Polygon–polygon minimum distance and within-distance tests — the
//! software baseline for the paper's within-distance joins (§4.1.1, §4.4).
//!
//! [`within_distance`] is the paper's "modified minDist": Chan's
//! frontier-chain algorithm augmented with the two optimizations from
//! §4.1.1 — (1) return as soon as the running distance drops to ≤ D, and
//! (2) restrict the frontier chains to the parts intersecting the other
//! MBR extended by D.

use crate::chains::frontier_clipped_in;
use crate::distance::{edges_min_dist, edges_within_pairwise_in, edges_within_sweep};
use crate::pip::point_in_polygon;
use crate::polygon::Polygon;
use crate::{with_scratch, Scratch};

/// Work counters for one within-distance test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinDistStats {
    /// Edges of P surviving the frontier + extended-MBR reduction.
    pub edges_p: usize,
    /// Edges of Q surviving the reduction.
    pub edges_q: usize,
    /// Tests decided by MBR distance or containment alone.
    pub decided_early: usize,
}

/// Exact minimum distance between two simple polygons (0 when they
/// intersect; interiors count, so a polygon inside another has distance 0).
///
/// Exact but conservative about reductions: scans all edge pairs with MBR
/// pruning and a sampled initial upper bound. Use [`within_distance`] for
/// the fast thresholded test.
pub fn min_dist(p: &Polygon, q: &Polygon) -> f64 {
    if crate::intersect::polygons_intersect(p, q) {
        return 0.0;
    }
    let ep: Vec<_> = p.edges().collect();
    let eq: Vec<_> = q.edges().collect();
    // Initial upper bound: distances from a few P vertices to Q's boundary.
    let step = (p.vertex_count() / 8).max(1);
    let mut upper = f64::INFINITY;
    for v in p.vertices().iter().step_by(step) {
        upper = upper.min(crate::distance::point_boundary_min_dist(*v, &eq));
    }
    // The bound is achieved by an actual pair, so passing it as `upper` is
    // safe: edges_min_dist returns min(upper, true min) = true min.
    edges_min_dist(&ep, &eq, upper)
}

/// Brute-force oracle: all-pairs edge distances, no reductions. O(n·m).
pub fn min_dist_brute(p: &Polygon, q: &Polygon) -> f64 {
    if crate::intersect::polygons_intersect_brute(p, q) {
        return 0.0;
    }
    let mut best = f64::INFINITY;
    for ep in p.edges() {
        for eq in q.edges() {
            best = best.min(ep.dist_segment(&eq));
        }
    }
    best
}

/// True when the two polygons are within distance `d` of each other
/// (closed: exactly `d` counts; intersecting polygons are within any
/// `d ≥ 0`). The paper's "modified minDist" algorithm: frontier chains,
/// clipped to MBRs extended by `d`, compared pairwise with early exit.
pub fn within_distance(p: &Polygon, q: &Polygon, d: f64) -> bool {
    within_distance_with(p, q, d, &mut MinDistStats::default())
}

/// [`within_distance`] with work counters.
pub fn within_distance_with(p: &Polygon, q: &Polygon, d: f64, stats: &mut MinDistStats) -> bool {
    if let Some(decided) = decided_early(p, q, d, stats) {
        return decided;
    }
    clipped_chains_within(p, q, d, stats)
}

/// The back half of [`within_distance`], for a pair its MBR gate and
/// containment probes left undecided: the frontier chains clipped to
/// within `d` of the other MBR, compared pair by pair
/// ([`crate::distance::edges_within_pairwise`]).
pub fn clipped_chains_within(p: &Polygon, q: &Polygon, d: f64, stats: &mut MinDistStats) -> bool {
    with_scratch(|s| {
        clip_chains(p, q, d, s, stats);
        edges_within_pairwise_in(&s.ep, &s.eq, d, &mut s.boxes)
    })
}

/// A modern variant of [`within_distance`] that replaces the pairwise
/// chain comparison with a forward sweep (near-linear). Identical results;
/// benchmarked against the paper's kernel in the ablation suite.
pub fn within_distance_sweep(p: &Polygon, q: &Polygon, d: f64) -> bool {
    let stats = &mut MinDistStats::default();
    if let Some(decided) = decided_early(p, q, d, stats) {
        return decided;
    }
    with_scratch(|s| {
        clip_chains(p, q, d, s, stats);
        edges_within_sweep(&s.ep, &s.eq, d)
    })
}

/// Shared front half: the MBR lower bound and the containment probes.
/// `Some(answer)` when they decide the pair.
fn decided_early(p: &Polygon, q: &Polygon, d: f64, stats: &mut MinDistStats) -> Option<bool> {
    debug_assert!(d >= 0.0);
    // MBR lower bound (the 0-level filter; cheap stand-alone correctness).
    if p.mbr().min_dist(&q.mbr()) > d {
        stats.decided_early += 1;
        return Some(false);
    }
    // Containment ⇒ distance 0. Boundary crossings are caught later by a
    // zero edge-pair distance, so two point-in-polygon probes suffice.
    if point_in_polygon(p.vertices()[0], q) || point_in_polygon(q.vertices()[0], p) {
        stats.decided_early += 1;
        return Some(true);
    }
    None
}

/// Frontier chains clipped to extended MBRs (§4.1.1, optimization 2),
/// into `s.ep` and `s.eq`.
fn clip_chains(p: &Polygon, q: &Polygon, d: f64, s: &mut Scratch, stats: &mut MinDistStats) {
    frontier_clipped_in(p, &q.mbr(), d, &mut s.ep);
    frontier_clipped_in(q, &p.mbr(), d, &mut s.eq);
    stats.edges_p += s.ep.len();
    stats.edges_q += s.eq.len();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(x: f64, y: f64, s: f64) -> Polygon {
        Polygon::from_coords(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
    }

    #[test]
    fn disjoint_squares_distance() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(4.0, 0.0, 1.0);
        assert_eq!(min_dist(&a, &b), 3.0);
        assert_eq!(min_dist_brute(&a, &b), 3.0);
    }

    #[test]
    fn diagonal_distance() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(4.0, 5.0, 1.0); // gap dx=3, dy=4
        assert_eq!(min_dist_brute(&a, &b), 5.0);
        assert_eq!(min_dist(&a, &b), 5.0);
    }

    #[test]
    fn intersecting_polygons_have_zero_distance() {
        let a = square(0.0, 0.0, 2.0);
        let b = square(1.0, 1.0, 2.0);
        assert_eq!(min_dist(&a, &b), 0.0);
        assert_eq!(min_dist_brute(&a, &b), 0.0);
        assert!(within_distance(&a, &b, 0.0));
    }

    #[test]
    fn containment_has_zero_distance() {
        let outer = square(0.0, 0.0, 10.0);
        let inner = square(4.0, 4.0, 1.0);
        assert_eq!(min_dist(&outer, &inner), 0.0);
        assert!(within_distance(&outer, &inner, 0.0));
        assert!(within_distance(&inner, &outer, 0.0));
    }

    #[test]
    fn within_distance_thresholds() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(4.0, 0.0, 1.0); // true distance 3
        assert!(within_distance(&a, &b, 3.0), "closed: exactly d counts");
        assert!(within_distance(&a, &b, 3.5));
        assert!(!within_distance(&a, &b, 2.999));
    }

    #[test]
    fn within_distance_mbr_early_exit() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(100.0, 100.0, 1.0);
        let mut st = MinDistStats::default();
        assert!(!within_distance_with(&a, &b, 5.0, &mut st));
        assert_eq!(st.decided_early, 1);
        assert_eq!(st.edges_p, 0, "no edge work after early exit");
    }

    #[test]
    fn within_distance_concave_pocket() {
        // Small square inside the C's pocket: disjoint, but very close to
        // the inner walls.
        let c = Polygon::from_coords(&[
            (0.0, 0.0),
            (4.0, 0.0),
            (4.0, 1.0),
            (1.0, 1.0),
            (1.0, 3.0),
            (4.0, 3.0),
            (4.0, 4.0),
            (0.0, 4.0),
        ]);
        let pocket = square(2.0, 1.5, 1.0);
        let d = min_dist_brute(&c, &pocket);
        assert!((d - 0.5).abs() < 1e-12, "pocket floor gap is 0.5, got {d}");
        assert!(within_distance(&c, &pocket, 0.5));
        assert!(!within_distance(&c, &pocket, 0.49));
        assert_eq!(min_dist(&c, &pocket), d);
    }

    #[test]
    fn min_dist_matches_brute_on_triangles() {
        let t1 = Polygon::from_coords(&[(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)]);
        let t2 = Polygon::from_coords(&[(5.0, 1.0), (7.0, 1.0), (6.0, 3.0)]);
        assert!((min_dist(&t1, &t2) - min_dist_brute(&t1, &t2)).abs() < 1e-12);
    }

    /// Two squares of side `s`, `2 s` apart: at every magnitude the
    /// distance is `2 s` and the pair is within `2.5 s`, not `1.5 s`. Past
    /// `s ≈ 6.7e153` the squared gap overflows, and `Rect::min_dist`,
    /// `min_dist_brute` and the MBR gate used to read `∞`.
    #[test]
    fn distances_survive_overflowing_squares() {
        for s in [1.0, 1e150, 1e153, 1e154, 1e155, 1e200, 1e300] {
            let (a, b) = (square(0.0, 0.0, s), square(3.0 * s, 0.0, s));
            // `3 s - s` as the coordinates round it: `2 s` to an ulp.
            let gap = b.mbr().xmin - a.mbr().xmax;
            assert_eq!(a.mbr().min_dist(&b.mbr()), gap, "s = {s}");
            assert_eq!(min_dist_brute(&a, &b), gap, "s = {s}");
            assert_eq!(min_dist(&a, &b), gap, "s = {s}");
            for (p, q) in [(&a, &b), (&b, &a)] {
                assert!(within_distance(p, q, 2.5 * s), "s = {s}");
                assert!(within_distance(p, q, gap), "s = {s}");
                assert!(!within_distance(p, q, 1.5 * s), "s = {s}");
                assert!(crate::within_distance_sweep(p, q, 2.5 * s), "s = {s}");
            }
        }
    }

    #[test]
    fn stats_report_reduction() {
        // Two big squares far apart in x: frontier + clip should keep fewer
        // edges than the full boundary.
        let a = square(0.0, 0.0, 10.0);
        let b = square(13.0, 0.0, 10.0);
        let mut st = MinDistStats::default();
        assert!(within_distance_with(&a, &b, 3.0, &mut st));
        assert!(st.edges_p <= 4 && st.edges_p > 0);
    }
}
