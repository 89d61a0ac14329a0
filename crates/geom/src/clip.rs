//! Convex polygon clipping (Sutherland–Hodgman) and the exact
//! area-of-overlap oracle.
//!
//! The hardware aggregation path answers "how much area do these two
//! polygons share?" by rasterizing both interiors and counting pixels —
//! a quantized measurement. This module computes the *exact* answer in
//! software: triangulate both polygons ([`crate::triangulate`]), clip
//! every triangle of one against every triangle of the other
//! (triangle–triangle intersections are convex, so Sutherland–Hodgman is
//! exact here — no concave-output pitfalls), and sum the clipped areas.
//! Triangles of one triangulation have disjoint interiors, so the pairwise
//! sum *is* the intersection area, up to `f64` rounding.
//!
//! The oracle defines the quantization envelope the property tests pin the
//! hardware measurement inside (DESIGN.md §14); it is also what the online
//! planner's software arm would execute for an `OverlapArea` query.

use crate::point::Point;
use crate::polygon::Polygon;
use crate::predicates::orient2d;
use crate::triangulate::triangulate;

/// Clips convex `subject` against convex `clip` (both CCW) and returns the
/// intersection polygon's vertices (possibly empty, possibly degenerate).
///
/// Textbook Sutherland–Hodgman: successively clip the subject against each
/// directed clip edge, keeping the half-plane to its left. Correct for
/// convex clip regions of any vertex count; the subject must be convex too
/// for the output to be the true intersection.
pub(crate) fn convex_clip(subject: &[Point], clip: &[Point]) -> Vec<Point> {
    let mut out: Vec<Point> = subject.to_vec();
    let mut input: Vec<Point> = Vec::with_capacity(subject.len() + clip.len());
    let m = clip.len();
    for e in 0..m {
        if out.is_empty() {
            return out;
        }
        let a = clip[e];
        let b = clip[(e + 1) % m];
        std::mem::swap(&mut input, &mut out);
        out.clear();
        let n = input.len();
        for i in 0..n {
            let cur = input[i];
            let nxt = input[(i + 1) % n];
            let cur_in = orient2d(a, b, cur) >= 0.0;
            let nxt_in = orient2d(a, b, nxt) >= 0.0;
            if cur_in {
                out.push(cur);
                if !nxt_in {
                    out.push(edge_intersection(a, b, cur, nxt));
                }
            } else if nxt_in {
                out.push(edge_intersection(a, b, cur, nxt));
            }
        }
    }
    out
}

/// Where segment `p`–`q` crosses the (infinite) line through `a`–`b`.
/// Callers guarantee the endpoints straddle the line, so the denominator
/// is nonzero up to rounding; a degenerate denominator falls back to `p`.
fn edge_intersection(a: Point, b: Point, p: Point, q: Point) -> Point {
    let dp = orient2d(a, b, p);
    let dq = orient2d(a, b, q);
    let denom = dp - dq;
    if denom == 0.0 {
        return p;
    }
    let t = dp / denom;
    Point::new(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
}

/// Shoelace area of a vertex ring (absolute value; zero for fewer than
/// three vertices).
fn ring_area(vs: &[Point]) -> f64 {
    if vs.len() < 3 {
        return 0.0;
    }
    let mut twice = 0.0;
    let n = vs.len();
    for i in 0..n {
        let p = vs[i];
        let q = vs[(i + 1) % n];
        twice += p.x * q.y - q.x * p.y;
    }
    twice.abs() / 2.0
}

/// The intersection area of two convex CCW rings.
pub(crate) fn convex_overlap_area(subject: &[Point], clip: &[Point]) -> f64 {
    ring_area(&convex_clip(subject, clip))
}

/// One polygon's triangulation as CCW triangles, dropping degenerate
/// (zero-area) ears that contribute nothing.
fn ccw_triangles(poly: &Polygon) -> Option<Vec<[Point; 3]>> {
    let vs = poly.vertices();
    let tris = triangulate(poly)?;
    Some(
        tris.iter()
            .filter_map(|t| {
                let (a, b, c) = (vs[t[0]], vs[t[1]], vs[t[2]]);
                let orient = orient2d(a, b, c);
                if orient == 0.0 {
                    None
                } else if orient > 0.0 {
                    Some([a, b, c])
                } else {
                    Some([c, b, a])
                }
            })
            .collect(),
    )
}

/// Exact area of `p ∩ q` for simple polygons: triangulate both, clip every
/// triangle pair, sum. `None` when either polygon fails to triangulate
/// (non-simple input).
pub fn overlap_area_exact(p: &Polygon, q: &Polygon) -> Option<f64> {
    // Cheap rejection: disjoint MBRs share no area.
    if !p.mbr().intersects(&q.mbr()) {
        return Some(0.0);
    }
    let pt = ccw_triangles(p)?;
    let qt = ccw_triangles(q)?;
    let mut area = 0.0;
    for a in &pt {
        for b in &qt {
            area += convex_overlap_area(a, b);
        }
    }
    Some(area)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(x0: f64, y0: f64, side: f64) -> Polygon {
        Polygon::from_coords(&[
            (x0, y0),
            (x0 + side, y0),
            (x0 + side, y0 + side),
            (x0, y0 + side),
        ])
    }

    #[test]
    fn identical_squares_overlap_fully() {
        let s = square(0.0, 0.0, 4.0);
        assert!((overlap_area_exact(&s, &s).unwrap() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn offset_squares_overlap_partially() {
        let a = square(0.0, 0.0, 4.0);
        let b = square(2.0, 2.0, 4.0);
        assert!((overlap_area_exact(&a, &b).unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_squares_share_nothing() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(5.0, 5.0, 1.0);
        assert_eq!(overlap_area_exact(&a, &b), Some(0.0));
        // Touching along an edge: zero area, not an error.
        let c = square(1.0, 0.0, 1.0);
        assert!(overlap_area_exact(&a, &c).unwrap().abs() < 1e-12);
    }

    #[test]
    fn clockwise_input_is_normalized() {
        let ccw = square(0.0, 0.0, 2.0);
        let cw = Polygon::from_coords(&[(1.0, 1.0), (1.0, 3.0), (3.0, 3.0), (3.0, 1.0)]);
        assert!((overlap_area_exact(&ccw, &cw).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn concave_subject_clips_by_triangulation() {
        // An L-shape of area 5 against a square covering its lower bar.
        let l = Polygon::from_coords(&[
            (0.0, 0.0),
            (3.0, 0.0),
            (3.0, 1.0),
            (1.0, 1.0),
            (1.0, 3.0),
            (0.0, 3.0),
        ]);
        let bar = Polygon::from_coords(&[(0.0, 0.0), (3.0, 0.0), (3.0, 1.0), (0.0, 1.0)]);
        assert!((overlap_area_exact(&l, &bar).unwrap() - 3.0).abs() < 1e-9);
        // Symmetric argument order.
        assert!((overlap_area_exact(&bar, &l).unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn contained_polygon_reports_its_own_area() {
        let outer = square(0.0, 0.0, 10.0);
        let inner = square(2.0, 2.0, 3.0);
        assert!((overlap_area_exact(&outer, &inner).unwrap() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn triangle_pair_cross() {
        // Two triangles forming a symmetric star overlap in a quad.
        let up = Polygon::from_coords(&[(0.0, 0.0), (4.0, 0.0), (2.0, 4.0)]);
        let down = Polygon::from_coords(&[(0.0, 3.0), (4.0, 3.0), (2.0, -1.0)]);
        let a = overlap_area_exact(&up, &down).unwrap();
        let b = overlap_area_exact(&down, &up).unwrap();
        assert!((a - b).abs() < 1e-9, "symmetry: {a} vs {b}");
        assert!(a > 0.0 && a < up.area().min(down.area()));
    }
}
