//! Line segments (polygon edges) and their bounding boxes.

use crate::point::Point;
use crate::predicates::{segments_intersect, segments_intersect_properly};
use crate::rect::Rect;

/// A closed line segment between two points.
///
/// Segments are the unit of work in both the software plane sweep and the
/// hardware line rasterization; a polygon with `n` vertices contributes `n`
/// segments (the boundary is closed implicitly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub a: Point,
    pub b: Point,
}

impl Segment {
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// The segment's MBR.
    #[inline]
    pub fn mbr(&self) -> Rect {
        Rect::of_corners(self.a, self.b)
    }

    /// True for a zero-length (degenerate) segment.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.a == self.b
    }

    /// Midpoint of the segment.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.lerp(self.b, 0.5)
    }

    /// Closed intersection test against another segment.
    #[inline]
    pub fn intersects(&self, other: &Segment) -> bool {
        segments_intersect(self.a, self.b, other.a, other.b)
    }

    /// Proper (interior) intersection test against another segment.
    #[inline]
    pub fn intersects_properly(&self, other: &Segment) -> bool {
        segments_intersect_properly(self.a, self.b, other.a, other.b)
    }

    /// The point on the segment closest to `p`.
    pub fn closest_point(&self, p: Point) -> Point {
        let d = self.b - self.a;
        let l2 = d.dot(d);
        if l2 == 0.0 {
            return self.a;
        }
        let t = ((p - self.a).dot(d) / l2).clamp(0.0, 1.0);
        self.a + d * t
    }

    /// Minimum distance from `p` to the segment.
    #[inline]
    pub fn dist_point(&self, p: Point) -> f64 {
        p.dist(self.closest_point(p))
    }

    /// Squared minimum distance from `p` to the segment: what
    /// [`Segment::dist_point`] roots (`∞` where the square overflows).
    #[inline]
    pub fn dist2_point(&self, p: Point) -> f64 {
        p.dist2(self.closest_point(p))
    }

    /// Minimum distance between two closed segments (0 when they intersect).
    ///
    /// This is the inner kernel of Chan's `minDist` (§4.1.1): the distance
    /// between two disjoint segments is realized at an endpoint of one of
    /// them, so four point–segment distances suffice. They are compared
    /// squared and the least is rooted once: `sqrt` is correctly rounded,
    /// hence monotone, so `√min(a, b) = min(√a, √b)` as `f64` values and
    /// the result is the bits four roots gave. Only when every square
    /// overflows does it root each distance ([`Point::dist`] rescales).
    pub fn dist_segment(&self, other: &Segment) -> f64 {
        if self.intersects(other) {
            return 0.0;
        }
        let least = self
            .dist2_point(other.a)
            .min(self.dist2_point(other.b))
            .min(other.dist2_point(self.a))
            .min(other.dist2_point(self.b));
        if least < f64::INFINITY {
            return least.sqrt();
        }
        self.dist_point(other.a)
            .min(self.dist_point(other.b))
            .min(other.dist_point(self.a))
            .min(other.dist_point(self.b))
    }
}

impl From<(Point, Point)> for Segment {
    #[inline]
    fn from((a, b): (Point, Point)) -> Self {
        Segment::new(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn mbr_of_segment() {
        assert_eq!(s(2.0, 0.0, 0.0, 3.0).mbr(), Rect::new(0.0, 0.0, 2.0, 3.0));
    }

    #[test]
    fn degenerate_segments() {
        let seg = s(0.0, 0.0, 3.0, 4.0);
        assert!(!seg.is_degenerate());
        assert!(s(1.0, 1.0, 1.0, 1.0).is_degenerate());
    }

    #[test]
    fn closest_point_projection() {
        let seg = s(0.0, 0.0, 10.0, 0.0);
        assert_eq!(
            seg.closest_point(Point::new(5.0, 3.0)),
            Point::new(5.0, 0.0)
        );
        assert_eq!(
            seg.closest_point(Point::new(-2.0, 3.0)),
            Point::new(0.0, 0.0)
        );
        assert_eq!(
            seg.closest_point(Point::new(12.0, -1.0)),
            Point::new(10.0, 0.0)
        );
    }

    #[test]
    fn closest_point_degenerate() {
        let seg = s(1.0, 1.0, 1.0, 1.0);
        assert_eq!(
            seg.closest_point(Point::new(5.0, 5.0)),
            Point::new(1.0, 1.0)
        );
    }

    #[test]
    fn dist_point_values() {
        let seg = s(0.0, 0.0, 10.0, 0.0);
        assert_eq!(seg.dist_point(Point::new(5.0, 3.0)), 3.0);
        assert_eq!(seg.dist_point(Point::new(13.0, 4.0)), 5.0);
        assert_eq!(seg.dist_point(Point::new(4.0, 0.0)), 0.0);
    }

    #[test]
    fn dist_segment_intersecting_is_zero() {
        assert_eq!(
            s(0.0, 0.0, 2.0, 2.0).dist_segment(&s(0.0, 2.0, 2.0, 0.0)),
            0.0
        );
    }

    #[test]
    fn dist_segment_parallel() {
        assert_eq!(
            s(0.0, 0.0, 10.0, 0.0).dist_segment(&s(0.0, 2.0, 10.0, 2.0)),
            2.0
        );
    }

    #[test]
    fn dist_segment_endpoint_to_interior() {
        // Vertical segment above the middle of a horizontal one.
        assert_eq!(
            s(0.0, 0.0, 10.0, 0.0).dist_segment(&s(5.0, 1.0, 5.0, 4.0)),
            1.0
        );
    }

    /// One root over the least squared end-point distance is the bits four
    /// roots gave, on coordinates whose squares round (thirds, 1e-7
    /// offsets), on degenerate segments and on touching ones; past the
    /// overflow line it is the rescaled root, not `∞`.
    #[test]
    fn dist_segment_roots_once_and_keeps_the_bits() {
        let four_roots = |p: &Segment, q: &Segment| {
            if p.intersects(q) {
                return 0.0;
            }
            p.dist_point(q.a)
                .min(p.dist_point(q.b))
                .min(q.dist_point(p.a))
                .min(q.dist_point(p.b))
        };
        let coords = [-7.0, -1.0 / 3.0, 0.0, 1e-7, 0.1, 2.0 / 3.0, 5.0];
        let mut segs = Vec::new();
        for &x in &coords {
            for &y in &coords {
                segs.push(s(x, y, y + 0.3, x / 3.0));
                segs.push(s(x, y, x, y));
            }
        }
        for p in &segs {
            for q in &segs {
                assert_eq!(
                    p.dist_segment(q).to_bits(),
                    four_roots(p, q).to_bits(),
                    "{p:?} {q:?}"
                );
                assert_eq!(p.dist2_point(q.a).sqrt(), p.dist_point(q.a));
            }
        }
        for big in [1e154, 1e155, 1e300] {
            let p = s(0.0, 0.0, 0.0, big);
            let q = s(2.0 * big, 0.0, 2.0 * big, big);
            assert_eq!(p.dist2_point(q.a), f64::INFINITY);
            assert_eq!(p.dist_segment(&q), 2.0 * big);
        }
    }

    #[test]
    fn dist_segment_symmetric() {
        let a = s(0.0, 0.0, 1.0, 1.0);
        let b = s(3.0, 0.0, 4.0, -2.0);
        assert_eq!(a.dist_segment(&b), b.dist_segment(&a));
    }
}
