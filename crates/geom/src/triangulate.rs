//! Ear-clipping triangulation.
//!
//! The paper's §3 observes that graphics hardware only renders convex
//! primitives, so the *filled-polygon* strategy (Hoff et al.) must
//! triangulate concave polygons in software first — "much more expensive
//! than hardware operations" — which is exactly why Algorithm 3.1 renders
//! boundaries instead. We implement triangulation anyway to (a) power the
//! filled-polygon ablation in `hwa-core` and (b) quantify that cost in the
//! ablation bench.

use crate::point::Point;
use crate::polygon::Polygon;
use crate::predicates::orient2d;

/// A triangle as three vertex indices into the source polygon.
pub(crate) type Triangle = [usize; 3];

/// Triangulates a simple polygon by ear clipping in O(n²) worst case.
///
/// Returns `n - 2` triangles for an `n`-vertex simple polygon. Returns
/// `None` when no ear can be found (non-simple input).
pub fn triangulate(poly: &Polygon) -> Option<Vec<Triangle>> {
    let vs = poly.vertices();
    let n = vs.len();
    if n == 3 {
        return Some(vec![[0, 1, 2]]);
    }
    // Work on a CCW copy of the index list.
    let ccw = poly.is_ccw();
    let mut idx: Vec<usize> = if ccw {
        (0..n).collect()
    } else {
        (0..n).rev().collect()
    };
    let mut out: Vec<Triangle> = Vec::with_capacity(n - 2);

    let mut guard = 0usize;
    while idx.len() > 3 {
        let m = idx.len();
        let mut clipped = false;
        for i in 0..m {
            let ia = idx[(i + m - 1) % m];
            let ib = idx[i];
            let ic = idx[(i + 1) % m];
            if is_ear(vs, &idx, ia, ib, ic) {
                out.push(order_triangle(ia, ib, ic, ccw));
                idx.remove(i);
                clipped = true;
                break;
            }
        }
        if !clipped {
            return None; // non-simple polygon
        }
        guard += 1;
        if guard > n {
            return None;
        }
    }
    out.push(order_triangle(idx[0], idx[1], idx[2], ccw));
    Some(out)
}

/// Restores the source winding in the emitted triangle.
fn order_triangle(a: usize, b: usize, c: usize, ccw: bool) -> Triangle {
    if ccw {
        [a, b, c]
    } else {
        [c, b, a]
    }
}

/// An ear at `b` (between `a` and `c`, CCW order): the corner is convex and
/// no other polygon vertex lies inside triangle `abc`.
fn is_ear(vs: &[Point], idx: &[usize], ia: usize, ib: usize, ic: usize) -> bool {
    let (a, b, c) = (vs[ia], vs[ib], vs[ic]);
    if orient2d(a, b, c) <= 0.0 {
        return false; // reflex or collinear corner
    }
    for &j in idx {
        if j == ia || j == ib || j == ic {
            continue;
        }
        if point_in_triangle(vs[j], a, b, c) {
            return false;
        }
    }
    true
}

/// Closed point-in-triangle test for a CCW triangle.
fn point_in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool {
    orient2d(a, b, p) >= 0.0 && orient2d(b, c, p) >= 0.0 && orient2d(c, a, p) >= 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum of the triangles' areas: a triangulation covers the polygon
    /// exactly when it equals the polygon's area.
    fn triangulation_area(poly: &Polygon, tris: &[Triangle]) -> f64 {
        let vs = poly.vertices();
        tris.iter()
            .map(|t| orient2d(vs[t[0]], vs[t[1]], vs[t[2]]).abs() / 2.0)
            .sum()
    }

    #[test]
    fn triangle_is_itself() {
        let t = Polygon::from_coords(&[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]);
        assert_eq!(triangulate(&t).unwrap(), vec![[0, 1, 2]]);
    }

    #[test]
    fn square_gives_two_triangles() {
        let sq = Polygon::from_coords(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]);
        let tris = triangulate(&sq).unwrap();
        assert_eq!(tris.len(), 2);
        assert!((triangulation_area(&sq, &tris) - sq.area()).abs() < 1e-12);
    }

    #[test]
    fn concave_l_shape() {
        let l = Polygon::from_coords(&[
            (0.0, 0.0),
            (3.0, 0.0),
            (3.0, 1.0),
            (1.0, 1.0),
            (1.0, 3.0),
            (0.0, 3.0),
        ]);
        let tris = triangulate(&l).unwrap();
        assert_eq!(tris.len(), 4, "n - 2 triangles");
        assert!((triangulation_area(&l, &tris) - l.area()).abs() < 1e-12);
    }

    #[test]
    fn clockwise_input_works() {
        let cw = Polygon::from_coords(&[(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]);
        let tris = triangulate(&cw).unwrap();
        assert_eq!(tris.len(), 2);
        assert!((triangulation_area(&cw, &tris) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_polygon() {
        // 8-point concave star.
        let star = Polygon::from_coords(&[
            (0.0, 3.0),
            (1.0, 1.0),
            (3.0, 0.0),
            (1.0, -1.0),
            (0.0, -3.0),
            (-1.0, -1.0),
            (-3.0, 0.0),
            (-1.0, 1.0),
        ]);
        let tris = triangulate(&star).unwrap();
        assert_eq!(tris.len(), 6);
        assert!((triangulation_area(&star, &tris) - star.area()).abs() < 1e-10);
    }

    #[test]
    fn triangle_count_is_always_n_minus_2() {
        // Spiral-ish comb polygon with many reflex vertices.
        let mut coords = Vec::new();
        for i in 0..6 {
            let x = i as f64 * 2.0;
            coords.push((x, 0.0));
            coords.push((x + 1.0, 3.0));
        }
        coords.push((11.0, -2.0));
        coords.push((0.0, -2.0));
        let comb = Polygon::from_coords(&coords);
        assert!(comb.is_simple());
        let tris = triangulate(&comb).unwrap();
        assert_eq!(tris.len(), comb.vertex_count() - 2);
        assert!((triangulation_area(&comb, &tris) - comb.area()).abs() < 1e-10);
    }
}
