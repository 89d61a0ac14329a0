//! Geometric predicates: orientation, collinearity and segment-segment
//! intersection tests.
//!
//! These are the leaves of every algorithm in this crate, so they are kept
//! branch-light and allocation-free. Orientation uses the standard
//! cross-product sign; we deliberately do *not* use an epsilon — the paper's
//! algorithms are compared against brute-force oracles built from the same
//! predicates, so consistency matters more than adaptive-precision
//! perfection, and the synthetic datasets avoid adversarially degenerate
//! inputs by construction.

use crate::point::Point;

/// The signed doubled area of triangle `(a, b, c)`: positive for a
/// counter-clockwise turn, negative for clockwise, zero for collinear.
#[inline]
pub(crate) fn orient2d(a: Point, b: Point, c: Point) -> f64 {
    (b - a).cross(c - a)
}

/// True when `p` lies on the closed segment `a b`, assuming the three points
/// are already known to be collinear.
#[inline]
pub(crate) fn on_segment_collinear(a: Point, b: Point, p: Point) -> bool {
    p.x >= a.x.min(b.x) && p.x <= a.x.max(b.x) && p.y >= a.y.min(b.y) && p.y <= a.y.max(b.y)
}

/// True when `p` lies on the closed segment `a b` (collinearity checked).
#[inline]
pub fn on_segment(a: Point, b: Point, p: Point) -> bool {
    orient2d(a, b, p) == 0.0 && on_segment_collinear(a, b, p)
}

/// Closed segment-intersection test: shared endpoints, endpoint-on-interior
/// touches and collinear overlaps all count as intersections.
///
/// This is the predicate the polygon intersection test needs — the paper's
/// `intersects` is the closed spatial predicate, so boundary contact counts.
pub fn segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool {
    let d1 = orient2d(q1, q2, p1);
    let d2 = orient2d(q1, q2, p2);
    let d3 = orient2d(p1, p2, q1);
    let d4 = orient2d(p1, p2, q2);

    if ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
    {
        return true; // proper crossing
    }
    (d1 == 0.0 && on_segment_collinear(q1, q2, p1))
        || (d2 == 0.0 && on_segment_collinear(q1, q2, p2))
        || (d3 == 0.0 && on_segment_collinear(p1, p2, q1))
        || (d4 == 0.0 && on_segment_collinear(p1, p2, q2))
}

/// *Proper* intersection test: the segments cross at a single point interior
/// to both. Shared endpoints and touches do **not** count.
pub(crate) fn segments_intersect_properly(p1: Point, p2: Point, q1: Point, q2: Point) -> bool {
    let d1 = orient2d(q1, q2, p1);
    let d2 = orient2d(q1, q2, p2);
    let d3 = orient2d(p1, p2, q1);
    let d4 = orient2d(p1, p2, q2);
    ((d1 > 0.0 && d2 < 0.0) || (d1 < 0.0 && d2 > 0.0))
        && ((d3 > 0.0 && d4 < 0.0) || (d3 < 0.0 && d4 > 0.0))
}

/// The intersection point of two segments known (or suspected) to cross.
///
/// Returns `None` for parallel or collinear segments, or when the
/// intersection parameter falls outside either segment.
pub fn segment_intersection_point(p1: Point, p2: Point, q1: Point, q2: Point) -> Option<Point> {
    let r = p2 - p1;
    let s = q2 - q1;
    let denom = r.cross(s);
    if denom == 0.0 {
        return None;
    }
    let t = (q1 - p1).cross(s) / denom;
    let u = (q1 - p1).cross(r) / denom;
    if (0.0..=1.0).contains(&t) && (0.0..=1.0).contains(&u) {
        Some(p1 + r * t)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn orientation_signs() {
        assert!(orient2d(p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0)) > 0.0);
        assert!(orient2d(p(0.0, 0.0), p(1.0, 0.0), p(1.0, -1.0)) < 0.0);
        assert_eq!(orient2d(p(0.0, 0.0), p(1.0, 0.0), p(2.0, 0.0)), 0.0);
    }

    #[test]
    fn on_segment_checks_bounds() {
        assert!(on_segment(p(0.0, 0.0), p(2.0, 2.0), p(1.0, 1.0)));
        assert!(
            on_segment(p(0.0, 0.0), p(2.0, 2.0), p(0.0, 0.0)),
            "endpoint counts"
        );
        assert!(
            !on_segment(p(0.0, 0.0), p(2.0, 2.0), p(3.0, 3.0)),
            "beyond the end"
        );
        assert!(
            !on_segment(p(0.0, 0.0), p(2.0, 2.0), p(1.0, 0.0)),
            "off the line"
        );
    }

    #[test]
    fn proper_crossing() {
        assert!(segments_intersect(
            p(0.0, 0.0),
            p(2.0, 2.0),
            p(0.0, 2.0),
            p(2.0, 0.0)
        ));
        assert!(segments_intersect_properly(
            p(0.0, 0.0),
            p(2.0, 2.0),
            p(0.0, 2.0),
            p(2.0, 0.0)
        ));
    }

    #[test]
    fn disjoint_segments() {
        assert!(!segments_intersect(
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(0.0, 1.0),
            p(1.0, 1.0)
        ));
        assert!(!segments_intersect_properly(
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(0.0, 1.0),
            p(1.0, 1.0)
        ));
    }

    #[test]
    fn shared_endpoint_is_closed_but_not_proper() {
        let a = p(0.0, 0.0);
        assert!(segments_intersect(a, p(1.0, 0.0), a, p(0.0, 1.0)));
        assert!(!segments_intersect_properly(a, p(1.0, 0.0), a, p(0.0, 1.0)));
    }

    #[test]
    fn t_junction_touch() {
        // q1 lies in the interior of segment p1-p2.
        assert!(segments_intersect(
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(1.0, 0.0),
            p(1.0, 1.0)
        ));
        assert!(!segments_intersect_properly(
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(1.0, 0.0),
            p(1.0, 1.0)
        ));
    }

    #[test]
    fn collinear_overlap_and_gap() {
        assert!(segments_intersect(
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(1.0, 0.0),
            p(3.0, 0.0)
        ));
        assert!(!segments_intersect(
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(2.0, 0.0),
            p(3.0, 0.0)
        ));
    }

    #[test]
    fn intersection_point_of_crossing() {
        let got =
            segment_intersection_point(p(0.0, 0.0), p(2.0, 2.0), p(0.0, 2.0), p(2.0, 0.0)).unwrap();
        assert!((got.x - 1.0).abs() < 1e-12 && (got.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn intersection_point_none_for_parallel() {
        assert!(
            segment_intersection_point(p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0), p(1.0, 1.0))
                .is_none()
        );
        // Crossing lines but outside the segments.
        assert!(
            segment_intersection_point(p(0.0, 0.0), p(1.0, 1.0), p(3.0, 0.0), p(4.0, -1.0))
                .is_none()
        );
    }
}
