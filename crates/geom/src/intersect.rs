//! The software polygon-intersection test (§3.1): point-in-polygon plus
//! plane-sweep segment intersection, with the *restricted search space*
//! optimization of Brinkhoff et al. (§4.1.1, Fig. 9(b)).

use crate::pip::point_in_polygon;
use crate::polygon::Polygon;
use crate::rect::Rect;
use crate::segment::Segment;
use crate::sweep::{forward_sweep_intersects_stats, tree_sweep_intersects_stats, SweepStats};

/// Which sweep implementation performs the segment-intersection step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepAlgo {
    /// Balanced-status plane sweep — the O((n+m)·log(n+m)) algorithm the
    /// paper uses as its software baseline.
    #[default]
    Tree,
    /// Exhaustive sweep-and-prune; no preconditions, used as the oracle.
    Forward,
}

/// Work counters for one intersection test; aggregated by the engine to
/// report the paper's per-stage cost breakdowns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntersectStats {
    /// Point-in-polygon tests run.
    pub pip_tests: usize,
    /// Edges surviving the restricted-search-space filter (P side).
    pub restricted_edges_p: usize,
    /// Edges surviving the restricted-search-space filter (Q side).
    pub restricted_edges_q: usize,
    /// Sweep work counters.
    pub sweep: SweepStats,
    /// Tests decided by the point-in-polygon step alone.
    pub decided_by_pip: usize,
}

/// Collects the edges of `poly` whose MBR intersects `region` — the
/// restricted search space. Any boundary-boundary intersection point lies in
/// both polygons' MBRs, hence in their intersection, hence on edges this
/// filter keeps; the reduction is therefore lossless.
///
/// Only the runs whose cached box intersects `region` are walked: an
/// edge's MBR lies inside its run's box, so no edge the filter keeps is in
/// a run it skips.
pub fn restricted_edges(poly: &Polygon, region: &Rect) -> Vec<Segment> {
    poly.edges_near(|mbr| mbr.intersects(region))
}

/// The complete software intersection test between two simple polygons,
/// with closed semantics (shared boundaries count as intersecting).
///
/// Steps, exactly as in §3.1:
/// 1. MBR rejection (the caller's filter normally did this already, but the
///    test stays correct stand-alone);
/// 2. point-in-polygon both ways — catches full containment;
/// 3. plane-sweep segment intersection over the restricted search space.
pub fn polygons_intersect(p: &Polygon, q: &Polygon) -> bool {
    polygons_intersect_with(p, q, SweepAlgo::default(), &mut IntersectStats::default())
}

/// [`polygons_intersect`] with an explicit sweep algorithm and counters.
pub fn polygons_intersect_with(
    p: &Polygon,
    q: &Polygon,
    algo: SweepAlgo,
    stats: &mut IntersectStats,
) -> bool {
    let region = match p.mbr().intersection(&q.mbr()) {
        Some(r) => r,
        None => return false,
    };

    // Step 1: point-in-polygon. Any vertex serves; use the first.
    stats.pip_tests += 1;
    if point_in_polygon(p.vertices()[0], q) {
        stats.decided_by_pip += 1;
        return true;
    }
    stats.pip_tests += 1;
    if point_in_polygon(q.vertices()[0], p) {
        stats.decided_by_pip += 1;
        return true;
    }

    // Step 2: segment intersection over the restricted search space.
    let ep = restricted_edges(p, &region);
    let eq = restricted_edges(q, &region);
    stats.restricted_edges_p += ep.len();
    stats.restricted_edges_q += eq.len();
    match algo {
        SweepAlgo::Tree => tree_sweep_intersects_stats(&ep, &eq, &mut stats.sweep),
        SweepAlgo::Forward => forward_sweep_intersects_stats(&ep, &eq, &mut stats.sweep),
    }
}

/// Software strict-containment test: `inner` lies entirely inside `outer`.
///
/// One vertex of `inner` inside `outer` plus disjoint boundaries implies
/// full containment (the boundary of a simple polygon cannot leave another
/// simple polygon without crossing its boundary). Steps: MBR containment,
/// point-in-polygon on the first vertex, then a plane sweep over the
/// restricted search space — `inner`'s MBR, since any boundary crossing
/// involves an edge of `inner`.
pub fn polygon_contained_in(inner: &Polygon, outer: &Polygon) -> bool {
    use crate::sweep::tree_sweep_intersects;
    if !outer.mbr().contains_rect(&inner.mbr()) {
        return false;
    }
    if !point_in_polygon(inner.vertices()[0], outer) {
        return false;
    }
    let region = inner.mbr();
    let ep = restricted_edges(inner, &region);
    let eq = restricted_edges(outer, &region);
    if ep.is_empty() || eq.is_empty() {
        return true;
    }
    !tree_sweep_intersects(&ep, &eq)
}

/// Brute-force oracle: point-in-polygon both ways plus all-pairs edge
/// intersection. O(n·m) but unconditionally correct; the property tests
/// compare every other implementation against this.
pub fn polygons_intersect_brute(p: &Polygon, q: &Polygon) -> bool {
    if !p.mbr().intersects(&q.mbr()) {
        return false;
    }
    if point_in_polygon(p.vertices()[0], q) || point_in_polygon(q.vertices()[0], p) {
        return true;
    }
    for ep in p.edges() {
        for eq in q.edges() {
            if ep.intersects(&eq) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(x: f64, y: f64, s: f64) -> Polygon {
        Polygon::from_coords(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
    }

    fn c_shape() -> Polygon {
        Polygon::from_coords(&[
            (0.0, 0.0),
            (4.0, 0.0),
            (4.0, 1.0),
            (1.0, 1.0),
            (1.0, 3.0),
            (4.0, 3.0),
            (4.0, 4.0),
            (0.0, 4.0),
        ])
    }

    #[test]
    fn overlapping_squares() {
        let a = square(0.0, 0.0, 2.0);
        let b = square(1.0, 1.0, 2.0);
        assert!(polygons_intersect(&a, &b));
        assert!(polygons_intersect_brute(&a, &b));
    }

    #[test]
    fn disjoint_squares() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(3.0, 3.0, 1.0);
        assert!(!polygons_intersect(&a, &b));
        assert!(!polygons_intersect_brute(&a, &b));
    }

    #[test]
    fn containment_is_caught_by_pip() {
        let outer = square(0.0, 0.0, 10.0);
        let inner = square(4.0, 4.0, 1.0);
        let mut st = IntersectStats::default();
        assert!(polygons_intersect_with(
            &outer,
            &inner,
            SweepAlgo::Tree,
            &mut st
        ));
        assert_eq!(st.decided_by_pip, 1, "containment must not reach the sweep");
        assert!(polygons_intersect(&inner, &outer), "order must not matter");
    }

    #[test]
    fn mbr_overlap_but_disjoint_polygons() {
        // A small square inside the *pocket* of the C: MBRs overlap but the
        // polygons are disjoint. The paper notes these are the expensive
        // cases the hardware filter targets.
        let c = c_shape();
        let pocket = square(2.0, 1.5, 1.0);
        assert!(c.mbr().intersects(&pocket.mbr()));
        assert!(!polygons_intersect(&c, &pocket));
        assert!(!polygons_intersect_brute(&c, &pocket));
    }

    #[test]
    fn boundary_touch_counts() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(1.0, 0.0, 1.0);
        assert!(polygons_intersect(&a, &b));
        let corner = square(1.0, 1.0, 1.0);
        assert!(polygons_intersect(&a, &corner));
    }

    #[test]
    fn forward_and_tree_agree() {
        let shapes = [
            (square(0.0, 0.0, 2.0), square(1.0, 1.0, 2.0)),
            (square(0.0, 0.0, 1.0), square(3.0, 0.0, 1.0)),
            (c_shape(), square(2.0, 1.5, 1.0)),
            (c_shape(), square(0.0, 1.5, 0.5)),
        ];
        for (p, q) in &shapes {
            let mut s1 = IntersectStats::default();
            let mut s2 = IntersectStats::default();
            assert_eq!(
                polygons_intersect_with(p, q, SweepAlgo::Tree, &mut s1),
                polygons_intersect_with(p, q, SweepAlgo::Forward, &mut s2),
            );
        }
    }

    #[test]
    fn restricted_edges_reduce_work() {
        // Two long thin polygons overlapping only at their tips.
        let a = Polygon::from_coords(&[(0.0, 0.0), (10.0, 0.0), (10.0, 1.0), (0.0, 1.0)]);
        let b = Polygon::from_coords(&[(9.5, 0.5), (20.0, 0.5), (20.0, 1.5), (9.5, 1.5)]);
        let region = a.mbr().intersection(&b.mbr()).unwrap();
        let ea = restricted_edges(&a, &region);
        // Only edges touching the overlap region x ∈ [9.5, 10] survive: the
        // top and bottom edges span it, plus the right edge.
        assert!(ea.len() < 4 || ea.len() == 3, "got {}", ea.len());
        assert!(polygons_intersect(&a, &b));
    }

    #[test]
    fn containment_basic_cases() {
        let outer = square(0.0, 0.0, 10.0);
        let inner = square(4.0, 4.0, 1.0);
        assert!(polygon_contained_in(&inner, &outer));
        assert!(!polygon_contained_in(&outer, &inner));
        // Overlap without containment.
        let straddling = square(9.0, 9.0, 3.0);
        assert!(!polygon_contained_in(&straddling, &outer));
        // Inside the MBR but in the pocket of the C — not contained.
        let c = c_shape();
        let pocket = square(2.0, 1.5, 1.0);
        assert!(!polygon_contained_in(&pocket, &c));
    }

    #[test]
    fn containment_is_strict_about_boundaries() {
        // Sharing a boundary edge means boundaries intersect → not strictly
        // contained under this test's semantics.
        let outer = square(0.0, 0.0, 4.0);
        let flush = square(0.0, 1.0, 2.0);
        assert!(!polygon_contained_in(&flush, &outer));
    }

    #[test]
    fn stats_accumulate() {
        let a = square(0.0, 0.0, 2.0);
        let b = square(5.0, 5.0, 2.0); // disjoint MBRs: early return
        let mut st = IntersectStats::default();
        polygons_intersect_with(&a, &b, SweepAlgo::Tree, &mut st);
        assert_eq!(st.pip_tests, 0);
        let c = square(1.5, 1.5, 2.0);
        polygons_intersect_with(&a, &c, SweepAlgo::Tree, &mut st);
        assert!(st.pip_tests >= 1);
    }
}
