//! 2D points in data space.
//!
//! Coordinates are `f64` throughout, matching the paper's observation (§2.2.1)
//! that public GIS data carries 4–6 decimal digits and that modern graphics
//! FPUs lose no accuracy during the data-space → window-space translation.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// `√(dx² + dy²)`: the one root behind [`Point::dist`], [`crate::Rect::min_dist`]
/// and the R-tree's within-distance lanes.
///
/// Bit for bit `(dx * dx + dy * dy).sqrt()` wherever that sum is finite.
/// Where it overflows — a component past ≈ 1.34e154 — the same expression
/// is evaluated on `dx`, `dy` scaled by 2⁻⁶⁰⁰ and the root scaled back by
/// 2⁶⁰⁰: power-of-two scalings are exact, so the result is the rounded
/// distance instead of `∞`. It stays monotone in `|dx|` and `|dy|` — each
/// branch is a composition of monotone operations, and an overflowing sum
/// roots to at least [`OVERFLOW_ROOT`], the largest finite branch result —
/// so the run-box and block-box prunes built on it keep their argument.
#[inline]
pub fn hypot(dx: f64, dy: f64) -> f64 {
    let sum = dx * dx + dy * dy;
    if sum < f64::INFINITY {
        sum.sqrt()
    } else {
        hypot_rescaled(dx, dy)
    }
}

/// `√f64::MAX` rounded: the least [`hypot`] returns past its overflow line
/// (the rescaled sum is at least `f64::MAX · 2⁻¹²⁰⁰` and the root is
/// correctly rounded). So for `d < OVERFLOW_ROOT`, `hypot(dx, dy) <= d`
/// iff `(dx * dx + dy * dy).sqrt() <= d`.
pub const OVERFLOW_ROOT: f64 = 1.340_780_792_994_259_6e154;

/// [`hypot`] past the overflow line (NaN comes here too, and stays NaN).
#[cold]
#[inline(never)]
fn hypot_rescaled(dx: f64, dy: f64) -> f64 {
    // 2⁻⁶⁰⁰ and 2⁶⁰⁰, spelled by their biased exponents.
    const DOWN: f64 = f64::from_bits((1023 - 600) << 52);
    const UP: f64 = f64::from_bits((1023 + 600) << 52);
    let (x, y) = (dx * DOWN, dy * DOWN);
    (x * x + y * y).sqrt() * UP
}

/// A point (or free vector) in the 2D data space.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Dot product, treating both points as vectors.
    #[inline]
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the cross product, treating both points as vectors.
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Prefer this over [`Point::dist`] in comparisons: it avoids the square
    /// root and is exactly monotone in the true distance.
    #[inline]
    pub fn dist2(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`: the root of [`Point::dist2`], finite
    /// past its overflow line ([`hypot`]).
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        hypot(self.x - other.x, self.y - other.y)
    }

    /// Euclidean norm, treating the point as a vector.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Returns the vector scaled to unit length, or `None` for a (near-)zero
    /// vector where the direction is undefined.
    #[inline]
    pub fn normalized(self) -> Option<Point> {
        let n = self.norm();
        if n > 0.0 {
            Some(self / n)
        } else {
            None
        }
    }

    /// The vector rotated 90° counter-clockwise.
    #[inline]
    pub fn perp(self) -> Point {
        Point::new(-self.y, self.x)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Lexicographic comparison (x first, then y), a total order used by the
    /// plane-sweep event queue.
    #[inline]
    pub fn lex_cmp(&self, other: &Point) -> std::cmp::Ordering {
        self.x
            .total_cmp(&other.x)
            .then_with(|| self.y.total_cmp(&other.y))
    }

    /// True when both coordinates are finite (no NaN / infinity).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_ops() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, -0.5));
        assert_eq!(-a, Point::new(-1.0, -2.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Point::new(1.0, 0.0);
        let b = Point::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
        assert_eq!(a.dot(a), 1.0);
    }

    #[test]
    fn distances() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist2(b), 25.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(b.norm(), 5.0);
    }

    /// Below the overflow line `hypot` is the plain expression bit for bit;
    /// past it, the exact distance of an axis-aligned gap instead of `∞`,
    /// still monotone across the line.
    #[test]
    fn hypot_is_the_plain_root_until_the_square_overflows() {
        let parts: [f64; 7] = [0.0, 1e-300, 1.0 / 3.0, 3.0, 7e153, 1.3e154, 1.34e154];
        let (mut finite, mut overflowing) = (0, 0);
        for &dx in &parts {
            for &dy in &parts {
                let plain = (dx * dx + dy * dy).sqrt();
                if plain.is_finite() {
                    finite += 1;
                    assert_eq!(hypot(dx, dy).to_bits(), plain.to_bits(), "{dx}, {dy}");
                    assert_eq!(hypot(-dx, dy).to_bits(), plain.to_bits());
                } else {
                    overflowing += 1;
                    let h = hypot(dx, dy);
                    assert!(h.is_finite() && h >= OVERFLOW_ROOT, "{dx}, {dy}: {h}");
                }
            }
        }
        assert!(finite > 0 && overflowing > 0);
        for s in [1.35e154, 1e155, 1e200, 1e300, f64::MAX / 2.0] {
            assert_eq!((s * s).sqrt(), f64::INFINITY, "the parent's reading");
            assert_eq!(hypot(s, 0.0), s);
            assert_eq!(Point::new(0.0, -s).dist(Point::ORIGIN), s);
            let diagonal = hypot(s, s);
            assert!(diagonal > s && (diagonal / s - std::f64::consts::SQRT_2).abs() < 1e-15);
        }
        assert_eq!(hypot(f64::MAX, f64::MAX), f64::INFINITY);
        assert!(hypot(f64::NAN, 1.0).is_nan() && hypot(1e300, f64::NAN).is_nan());
        // Monotone across the line: the first overflowing sums root to at
        // least what the last finite one does, `OVERFLOW_ROOT`.
        assert_eq!(OVERFLOW_ROOT, f64::MAX.sqrt());
        assert_eq!(hypot(OVERFLOW_ROOT, 0.0), OVERFLOW_ROOT);
        assert_eq!(hypot(f64::MAX, 0.0), f64::MAX);
        let edge = OVERFLOW_ROOT;
        let mut last = 0.0;
        for x in [
            edge * 0.999_999,
            edge,
            edge * 1.000_000_1,
            edge * 1.001,
            2.0 * edge,
        ] {
            let h = hypot(x, x / 4.0);
            assert!(h >= last, "{x}: {h} < {last}");
            last = h;
        }
    }

    #[test]
    fn normalized_unit_length() {
        let v = Point::new(3.0, 4.0).normalized().unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        assert!(Point::ORIGIN.normalized().is_none());
    }

    #[test]
    fn perp_is_ccw_rotation() {
        let v = Point::new(1.0, 0.0);
        assert_eq!(v.perp(), Point::new(0.0, 1.0));
        assert_eq!(v.perp().perp(), -v);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(1.0, 2.0));
    }

    #[test]
    fn lexicographic_order() {
        use std::cmp::Ordering;
        let a = Point::new(1.0, 5.0);
        let b = Point::new(2.0, 0.0);
        let c = Point::new(1.0, 6.0);
        assert_eq!(a.lex_cmp(&b), Ordering::Less);
        assert_eq!(a.lex_cmp(&c), Ordering::Less);
        assert_eq!(a.lex_cmp(&a), Ordering::Equal);
        assert_eq!(b.lex_cmp(&a), Ordering::Greater);
    }

    #[test]
    fn finiteness() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }
}
