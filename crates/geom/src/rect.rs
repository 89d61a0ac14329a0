//! Axis-aligned rectangles — the minimum bounding rectangles (MBRs) that
//! drive the filtering step (§1) and the window projections (§3.2).

use crate::point::{hypot, Point};

/// A closed axis-aligned rectangle `[xmin, xmax] × [ymin, ymax]`.
///
/// Degenerate rectangles (zero width and/or height) are valid: the MBR of a
/// horizontal segment has zero height, and the paper's datasets contain
/// 3-vertex slivers. An *empty* rectangle (used as the identity for
/// [`Rect::union`]) has `xmin > xmax`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    pub xmin: f64,
    pub ymin: f64,
    pub xmax: f64,
    pub ymax: f64,
}

impl Rect {
    /// A rectangle from its corner coordinates. Callers must pass
    /// `xmin <= xmax` and `ymin <= ymax` unless constructing a sentinel.
    #[inline]
    pub const fn new(xmin: f64, ymin: f64, xmax: f64, ymax: f64) -> Self {
        Rect {
            xmin,
            ymin,
            xmax,
            ymax,
        }
    }

    /// The empty rectangle: identity element for [`Rect::union`], intersects
    /// nothing, contains nothing.
    pub const EMPTY: Rect = Rect {
        xmin: f64::INFINITY,
        ymin: f64::INFINITY,
        xmax: f64::NEG_INFINITY,
        ymax: f64::NEG_INFINITY,
    };

    /// The MBR of two points (in any order).
    #[inline]
    pub fn of_corners(a: Point, b: Point) -> Self {
        Rect {
            xmin: a.x.min(b.x),
            ymin: a.y.min(b.y),
            xmax: a.x.max(b.x),
            ymax: a.y.max(b.y),
        }
    }

    /// The MBR of a non-empty point set; [`Rect::EMPTY`] for an empty one.
    pub fn of_points(points: &[Point]) -> Self {
        points.iter().fold(Rect::EMPTY, |r, &p| r.expand_to(p))
    }

    /// True when `xmin > xmax || ymin > ymax` (no points inside).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xmin > self.xmax || self.ymin > self.ymax
    }

    #[inline]
    pub fn width(&self) -> f64 {
        (self.xmax - self.xmin).max(0.0)
    }

    #[inline]
    pub fn height(&self) -> f64 {
        (self.ymax - self.ymin).max(0.0)
    }

    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half the perimeter; the R-tree quadratic split uses it as a measure.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)
    }

    /// Closed containment of a point (boundary counts as inside).
    #[inline]
    pub fn contains_point(&self, p: Point) -> bool {
        p.x >= self.xmin && p.x <= self.xmax && p.y >= self.ymin && p.y <= self.ymax
    }

    /// True when `other` lies entirely inside `self` (closed semantics).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        !other.is_empty()
            && other.xmin >= self.xmin
            && other.xmax <= self.xmax
            && other.ymin >= self.ymin
            && other.ymax <= self.ymax
    }

    /// Closed intersection test: touching boundaries intersect. This is the
    /// MBR-filter predicate of the paper's Fig. 8 pipeline.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.xmin <= other.xmax
            && other.xmin <= self.xmax
            && self.ymin <= other.ymax
            && other.ymin <= self.ymax
    }

    /// The intersection region of two rectangles, or `None` when disjoint.
    ///
    /// §3.2: for the hardware intersection test, *this* region is projected
    /// onto the rendering window, maximizing resolution utilization.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        let r = Rect {
            xmin: self.xmin.max(other.xmin),
            ymin: self.ymin.max(other.ymin),
            xmax: self.xmax.min(other.xmax),
            ymax: self.ymax.min(other.ymax),
        };
        if r.is_empty() {
            None
        } else {
            Some(r)
        }
    }

    /// The smallest rectangle containing both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            xmin: self.xmin.min(other.xmin),
            ymin: self.ymin.min(other.ymin),
            xmax: self.xmax.max(other.xmax),
            ymax: self.ymax.max(other.ymax),
        }
    }

    /// The smallest rectangle containing `self` and `p`.
    #[inline]
    pub fn expand_to(&self, p: Point) -> Rect {
        Rect {
            xmin: self.xmin.min(p.x),
            ymin: self.ymin.min(p.y),
            xmax: self.xmax.max(p.x),
            ymax: self.ymax.max(p.y),
        }
    }

    /// The rectangle grown by `d` in every direction (Minkowski sum with a
    /// `2d × 2d` square). Used by the distance-test projection (§3.2) and the
    /// extended-MBR `minDist` optimization (§4.1.1). `d` must be ≥ 0.
    #[inline]
    pub fn expanded(&self, d: f64) -> Rect {
        debug_assert!(d >= 0.0);
        Rect {
            xmin: self.xmin - d,
            ymin: self.ymin - d,
            xmax: self.xmax + d,
            ymax: self.ymax + d,
        }
    }

    /// Minimum Euclidean distance between two rectangles (0 when they
    /// intersect). This is the lower bound used by the MBR filter for
    /// within-distance joins: "the distance between two MBRs is a lower
    /// bound of the distance between two objects" (§4.1.1). Finite for
    /// every finite gap ([`hypot`]).
    #[inline]
    pub fn min_dist(&self, other: &Rect) -> f64 {
        let dx = (other.xmin - self.xmax)
            .max(self.xmin - other.xmax)
            .max(0.0);
        let dy = (other.ymin - self.ymax)
            .max(self.ymin - other.ymax)
            .max(0.0);
        hypot(dx, dy)
    }

    /// Maximum Euclidean distance between any point of `self` and any point
    /// of `other` (the diameter bound used by the 0-object filter analysis).
    #[inline]
    pub fn max_dist(&self, other: &Rect) -> f64 {
        let dx = (self.xmax - other.xmin)
            .abs()
            .max((other.xmax - self.xmin).abs());
        let dy = (self.ymax - other.ymin)
            .abs()
            .max((other.ymax - self.ymin).abs());
        (dx * dx + dy * dy).sqrt()
    }

    /// The four corners in counter-clockwise order starting at
    /// `(xmin, ymin)`.
    #[inline]
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.xmin, self.ymin),
            Point::new(self.xmax, self.ymin),
            Point::new(self.xmax, self.ymax),
            Point::new(self.xmin, self.ymax),
        ]
    }

    /// The four sides in counter-clockwise order: bottom, right, top, left.
    /// Each side is `(corner_i, corner_{i+1})`; the 0-object filter reasons
    /// about objects touching all four sides of their MBR.
    #[inline]
    pub fn sides(&self) -> [(Point, Point); 4] {
        let c = self.corners();
        [(c[0], c[1]), (c[1], c[2]), (c[2], c[3]), (c[3], c[0])]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d)
    }

    #[test]
    fn empty_identity() {
        assert!(Rect::EMPTY.is_empty());
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(Rect::EMPTY.union(&a), a);
        assert!(!Rect::EMPTY.intersects(&a));
        assert!(Rect::EMPTY.intersection(&a).is_none());
    }

    #[test]
    fn of_points_matches_manual() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 3.0),
            Point::new(4.0, -1.0),
        ];
        assert_eq!(Rect::of_points(&pts), r(-2.0, -1.0, 4.0, 5.0));
        assert!(Rect::of_points(&[]).is_empty());
    }

    #[test]
    fn measures() {
        let a = r(0.0, 0.0, 4.0, 3.0);
        assert_eq!(a.width(), 4.0);
        assert_eq!(a.height(), 3.0);
        assert_eq!(a.area(), 12.0);
        assert_eq!(a.margin(), 7.0);
        assert_eq!(a.center(), Point::new(2.0, 1.5));
    }

    #[test]
    fn intersection_and_touching() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        let c = r(2.0, 0.0, 4.0, 2.0); // shares the x = 2 edge with a
        let d = r(5.0, 5.0, 6.0, 6.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        assert!(a.intersects(&c), "touching rectangles intersect (closed)");
        assert!(!a.intersects(&d));
        assert!(a.intersection(&d).is_none());
    }

    #[test]
    fn containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        let inner = r(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains_rect(&inner));
        assert!(!inner.contains_rect(&outer));
        assert!(outer.contains_rect(&outer), "containment is reflexive");
        assert!(
            outer.contains_point(Point::new(0.0, 0.0)),
            "boundary is inside"
        );
        assert!(!outer.contains_point(Point::new(-0.1, 5.0)));
    }

    #[test]
    fn expansion() {
        let a = r(1.0, 1.0, 2.0, 2.0);
        assert_eq!(a.expanded(0.5), r(0.5, 0.5, 2.5, 2.5));
        assert_eq!(a.expand_to(Point::new(5.0, 0.0)), r(1.0, 0.0, 5.0, 2.0));
    }

    #[test]
    fn min_dist_disjoint_and_overlapping() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(4.0, 5.0, 6.0, 7.0); // dx = 3, dy = 4
        assert_eq!(a.min_dist(&b), 5.0);
        assert_eq!(b.min_dist(&a), 5.0);
        let c = r(0.5, 0.5, 2.0, 2.0);
        assert_eq!(a.min_dist(&c), 0.0);
        // Axis-aligned gap only in x.
        let d = r(3.0, 0.0, 4.0, 1.0);
        assert_eq!(a.min_dist(&d), 2.0);
    }

    #[test]
    fn max_dist_bounds_min_dist() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 0.0, 3.0, 1.0);
        // Farthest corners: (0,0)-(3,1) or (0,1)-(3,0): sqrt(9+1)
        assert!((a.max_dist(&b) - 10.0f64.sqrt()).abs() < 1e-12);
        assert!(a.max_dist(&b) >= a.min_dist(&b));
    }

    #[test]
    fn corners_and_sides_are_ccw() {
        let a = r(0.0, 0.0, 1.0, 2.0);
        let c = a.corners();
        assert_eq!(c[0], Point::new(0.0, 0.0));
        assert_eq!(c[2], Point::new(1.0, 2.0));
        // Shoelace over corners must be positive (CCW).
        let mut area2 = 0.0;
        for i in 0..4 {
            area2 += c[i].cross(c[(i + 1) % 4]);
        }
        assert!(area2 > 0.0);
        assert_eq!(a.sides()[0], (c[0], c[1]));
    }

    #[test]
    fn degenerate_rect_is_not_empty() {
        let line = r(0.0, 1.0, 5.0, 1.0); // zero height
        assert!(!line.is_empty());
        assert_eq!(line.area(), 0.0);
        assert!(line.intersects(&r(2.0, 0.0, 3.0, 2.0)));
    }
}
