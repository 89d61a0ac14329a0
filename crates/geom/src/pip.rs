//! Ray-crossing point-in-polygon test — step 1 of both the software and the
//! hardware-assisted intersection tests (§3.1).
//!
//! The paper stresses that this step is O(n) and cache-friendly (sequential
//! vertex access), which is why Algorithm 3.1 keeps it in software and only
//! offloads the segment test to hardware. "Cheap relative to the
//! segment-intersection step" does not survive measurement here: both paths
//! pay it on every candidate the filters pass, while the sweep and minDist
//! kernels see only restricted or clipped edges — on `join-sw` the probes
//! cost about as much as every sweep and pairwise-kernel call together
//! (EXPERIMENTS.md "Honest software baseline"), and 15 % of `select-warm`
//! while they still scanned *whole* boundaries ("Boundary runs"). Hence the
//! two levels of skipping in [`locate_point`]: a run of 32 edges whose
//! cached box the ray cannot reach costs one box compare, and within a
//! visited run an edge strictly above or below the point costs compares
//! and no arithmetic.

use crate::point::Point;
use crate::polygon::Polygon;
use crate::predicates::on_segment;
use crate::rect::Rect;
use crate::segment::Segment;

/// Where a point lies relative to a polygon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointLocation {
    Inside,
    OnBoundary,
    Outside,
}

/// Classifies `p` against `poly` exactly, including boundary detection.
///
/// Uses the standard half-open crossing rule (count an edge when its two
/// endpoints straddle the horizontal line through `p`, with the upper
/// endpoint excluded) so vertices on the ray are counted exactly once.
pub fn locate_point(p: Point, poly: &Polygon) -> PointLocation {
    if !poly.mbr().contains_point(p) {
        return PointLocation::Outside;
    }
    let mut inside = false;
    // A run whose box lies strictly above, strictly below or strictly left
    // of `p` holds no edge the per-edge tests below would act on.
    let reachable = |run: &Rect| run.ymin <= p.y && p.y <= run.ymax && run.xmax >= p.x;
    for run in poly.runs_where(reachable) {
        let on_boundary = poly.edges_in(run).any(|Segment { a, b }| {
            let (a_above, b_above) = (a.y > p.y, b.y > p.y);
            // An edge strictly above or strictly below the horizontal
            // through `p` can neither hold `p` nor cross its ray: skip it
            // on the compares, before the orientation product `on_segment`
            // starts with.
            if a_above && b_above || a.y < p.y && b.y < p.y {
                return false;
            }
            if on_segment(a, b, p) {
                return true;
            }
            // Half-open rule: edge crosses the rightward ray from p when
            // exactly one endpoint is strictly above p's y — and the edge
            // is not wholly left of `p`, where the rounded crossing below
            // can land one ulp past the edge's own end.
            if a_above != b_above && (a.x >= p.x || b.x >= p.x) {
                // x-coordinate of the edge at height p.y.
                let t = (p.y - a.y) / (b.y - a.y);
                let x = a.x + t * (b.x - a.x);
                if x > p.x {
                    inside = !inside;
                }
            }
            false
        });
        if on_boundary {
            return PointLocation::OnBoundary;
        }
    }
    if inside {
        PointLocation::Inside
    } else {
        PointLocation::Outside
    }
}

/// Closed containment: `true` when `p` is inside `poly` or on its boundary.
///
/// This is the predicate Algorithm 3.1 needs: the spatial `intersects`
/// relation is closed, so a boundary vertex counts.
#[inline]
pub fn point_in_polygon(p: Point, poly: &Polygon) -> bool {
    locate_point(p, poly) != PointLocation::Outside
}

/// Strict containment: `true` only when `p` is in the open interior.
#[inline]
pub fn point_strictly_in_polygon(p: Point, poly: &Polygon) -> bool {
    locate_point(p, poly) == PointLocation::Inside
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Polygon {
        Polygon::from_coords(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)])
    }

    /// Concave "C" opening to the right.
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
    fn center_is_inside() {
        assert_eq!(
            locate_point(Point::new(2.0, 2.0), &square()),
            PointLocation::Inside
        );
    }

    #[test]
    fn outside_mbr_is_fast_outside() {
        assert_eq!(
            locate_point(Point::new(10.0, 10.0), &square()),
            PointLocation::Outside
        );
    }

    #[test]
    fn boundary_edge_and_vertex() {
        assert_eq!(
            locate_point(Point::new(2.0, 0.0), &square()),
            PointLocation::OnBoundary
        );
        assert_eq!(
            locate_point(Point::new(4.0, 4.0), &square()),
            PointLocation::OnBoundary
        );
        assert!(point_in_polygon(Point::new(0.0, 0.0), &square()));
        assert!(!point_strictly_in_polygon(Point::new(0.0, 0.0), &square()));
    }

    #[test]
    fn concave_pocket_is_outside() {
        let c = c_shape();
        // The pocket (right middle) is outside the polygon...
        assert_eq!(
            locate_point(Point::new(3.0, 2.0), &c),
            PointLocation::Outside
        );
        // ...but the spine (left) is inside.
        assert_eq!(
            locate_point(Point::new(0.5, 2.0), &c),
            PointLocation::Inside
        );
        // And the arms are inside.
        assert_eq!(
            locate_point(Point::new(3.0, 0.5), &c),
            PointLocation::Inside
        );
        assert_eq!(
            locate_point(Point::new(3.0, 3.5), &c),
            PointLocation::Inside
        );
    }

    #[test]
    fn ray_through_vertex_counts_once() {
        // Diamond: an upward ray from below the left vertex passes exactly
        // through the top and bottom vertices of the test point column.
        let diamond = Polygon::from_coords(&[(2.0, 0.0), (4.0, 2.0), (2.0, 4.0), (0.0, 2.0)]);
        // Horizontal line through vertex (0,2)-(4,2) heights.
        assert_eq!(
            locate_point(Point::new(2.0, 2.0), &diamond),
            PointLocation::Inside
        );
        assert_eq!(
            locate_point(Point::new(-1.0, 2.0), &diamond),
            PointLocation::Outside
        );
        assert_eq!(
            locate_point(Point::new(3.9, 2.0), &diamond),
            PointLocation::Inside
        );
    }

    #[test]
    fn an_edge_wholly_left_of_the_point_is_never_crossed() {
        // At the height of its lower end, the long edge's crossing rounds
        // to x = 2 — past that end at x = 1.5 (1e16 + 1.5 is not a double).
        // A point between the two is right of the whole edge and inside the
        // polygon; counting the rounded crossing would call it outside,
        // and only below 64 vertices, where no run box hides the edge.
        let poly = Polygon::from_coords(&[(-1e16, 1.0), (1.5, 0.0), (3.0, -1.0), (3.0, 2.0)]);
        assert_eq!(
            locate_point(Point::new(1.75, 0.0), &poly),
            PointLocation::Inside
        );
    }

    #[test]
    fn point_on_horizontal_edge() {
        let p = Polygon::from_coords(&[(0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (0.0, 2.0)]);
        assert_eq!(
            locate_point(Point::new(2.0, 2.0), &p),
            PointLocation::OnBoundary
        );
    }

    #[test]
    fn winding_direction_is_irrelevant() {
        let ccw = square();
        let cw = Polygon::from_coords(&[(0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (4.0, 0.0)]);
        for &(x, y) in &[(2.0, 2.0), (5.0, 5.0), (0.0, 2.0), (3.9, 3.9)] {
            assert_eq!(
                locate_point(Point::new(x, y), &ccw),
                locate_point(Point::new(x, y), &cw)
            );
        }
    }
}
