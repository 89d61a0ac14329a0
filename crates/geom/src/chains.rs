//! Frontier chains for the `minDist` algorithm (Chan, §4.1.1 and Fig. 9(c)).
//!
//! When two objects' MBRs are separated along an axis, the minimum distance
//! between the objects is realized on the *frontier chain* of each polygon:
//! the boundary chain facing the other object. For an x-separated pair with
//! `Q` to the right of `P`, the frontier of `P` is the chain between its
//! topmost and bottommost vertices that contains its maximum-x vertex.
//!
//! Soundness sketch (for `Q` strictly right of `P`): let `(p*, q*)` realize
//! the minimum distance. The segment `p*q*` cannot cross `∂P` (a crossing
//! would be closer to `q*`), and extending it beyond `q*` leaves `P`'s MBR,
//! so `p*` sees infinity in a direction with positive x-component. Boundary
//! points with that property all lie on the chain containing the
//! maximum-x vertex. When the extreme vertex is shared by both chains, or
//! the MBRs overlap in both axes, we conservatively return the whole
//! boundary — the reduction is an optimization, never a filter.
//!
//! The paper augments Chan's algorithm with a second optimization: clip the
//! frontier chains to the other MBR *extended by D* (Fig. 9(d)), which
//! "in practice reduces the computational cost by a factor of 2 to 6".
//! That clip is [`frontier_clipped`].
//!
//! What the clip buys is only kept if *finding* the chain is cheap. The
//! chain's end points and its facing vertex are extreme vertices of the
//! polygon — independent of the other object — so [`Polygon`] caches their
//! indices at construction and a pair pays one walk over its chain.
//! Rediscovering them per pair (three scans of every vertex, a modulo walk
//! to place the facing vertex, another to list the chain) measured 5 µs for
//! a chain that takes 1 µs to walk and clip — a quarter to two fifths of
//! the whole software distance test on `join-sw`, more than the clip saves
//! (EXPERIMENTS.md "Honest software baseline").
//!
//! The walk itself is over run boxes, in both arms ([`frontier_runs`]):
//! it visits only the runs of 32 edges whose cached box
//! ([`Polygon::runs_where_in`]) is within `d` of the other MBR — of the
//! chain's edge range where there is a chain, of the whole boundary where
//! the MBRs overlap on both axes. The whole-boundary arm, 10–34 % of the
//! calls, used to be 55–77 % of the clip's time (EXPERIMENTS.md "Boundary
//! runs"); the chain arm then walked all ≈ 220 edges of its chain for the
//! few dozen near the other MBR, 0.9 µs a call (EXPERIMENTS.md "Distance
//! bounds").

use crate::polygon::Polygon;
use crate::rect::Rect;
use crate::segment::Segment;
use std::ops::Range;

/// Relative placement of `other` w.r.t. `this` along the separating axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Separation {
    /// MBRs overlap in both axes: no chain reduction possible.
    None,
    /// `other` lies entirely at larger x.
    Right,
    Left,
    Above,
    Below,
}

fn classify(this: &Rect, other: &Rect) -> Separation {
    let gap_right = other.xmin - this.xmax;
    let gap_left = this.xmin - other.xmax;
    let gap_above = other.ymin - this.ymax;
    let gap_below = this.ymin - other.ymax;
    // Choose the axis with the widest gap; require a strict gap.
    let mut best = (0.0, Separation::None);
    if gap_right > best.0 {
        best = (gap_right, Separation::Right);
    }
    if gap_left > best.0 {
        best = (gap_left, Separation::Left);
    }
    if gap_above > best.0 {
        best = (gap_above, Separation::Above);
    }
    if gap_below > best.0 {
        best = (gap_below, Separation::Below);
    }
    best.1
}

/// Frontier chain clipped to within `d` of the other MBR (the paper's
/// second `minDist` optimization): only edges whose MBR is within `d` of
/// `other_mbr` can participate in a within-distance-`d` pair. At
/// `d = ∞` it is the whole frontier chain of `poly` facing `other_mbr`,
/// or the full boundary when the MBRs overlap in both axes or the facing
/// extreme vertex coincides with a chain split point.
///
/// One walk over the runs of the chosen chain ([`frontier_runs`]) whose
/// cached box is within `d`, clipping edge by edge inside them. The
/// chain's end points are the polygon's cached extreme vertices
/// ([`Polygon`] finds them once, at construction), so a pair costs the
/// part of its chain near the other MBR, not three scans of the whole
/// boundary to find it — and where there is no chain, the boundary runs
/// within `d`, not the boundary.
///
/// The filter uses the same [`Rect::min_dist`] kernel as the pipeline's
/// MBR gates and the pairwise edge prefilter — NOT an
/// `intersects(expanded(d))` test, whose `x ± d` rounding can land one
/// ulp past an edge that sits at *exactly* distance `d` and silently
/// drop it, flipping a closed-predicate boundary answer. With one shared
/// kernel, every layer of the distance test rounds the same way.
pub fn frontier_clipped(poly: &Polygon, other_mbr: &Rect, d: f64) -> Vec<Segment> {
    let mut out = Vec::new();
    frontier_clipped_in(poly, other_mbr, d, &mut out);
    out
}

/// [`frontier_clipped`] into `out`, whose contents it replaces.
pub(crate) fn frontier_clipped_in(
    poly: &Polygon,
    other_mbr: &Rect,
    d: f64,
    out: &mut Vec<Segment>,
) {
    let within = |mbr: &Rect| mbr.min_dist(other_mbr) <= d;
    out.clear();
    for run in frontier_runs(poly, other_mbr, &within) {
        out.extend(poly.edges_in(run).filter(|e| within(&e.mbr())));
    }
}

/// The edge ranges [`frontier_clipped`] walks, in its output order: the
/// stretches of runs whose cached box `accept`s ([`Polygon::runs_where_in`])
/// within the frontier chain facing `other_mbr` — its two pieces
/// `from..n` then `0..to` when it wraps past vertex 0 — or within the
/// whole boundary where there is no chain.
///
/// With `accept` the per-edge clip applied to the box, a run it skips holds
/// no edge the clip keeps: the box contains each of its edges' MBRs and
/// `Rect::min_dist` is monotone under containment — subtractions, `max`,
/// squares of non-negatives, a sum and a root, each monotone in f64
/// (DESIGN.md invariant 4). Public so `--bin diag` counts the box tests
/// and the edges of the product's own walk.
pub fn frontier_runs<'a>(
    poly: &'a Polygon,
    other_mbr: &Rect,
    accept: &'a impl Fn(&Rect) -> bool,
) -> impl Iterator<Item = Range<usize>> + 'a {
    let [first, second] = chain_pieces(poly, other_mbr);
    poly.runs_where_in(first, accept)
        .chain(poly.runs_where_in(second, accept))
}

/// The frontier chain's edge indices as at most two ascending pieces (the
/// second empty unless the chain wraps past vertex 0), or the whole
/// boundary when there is no chain.
fn chain_pieces(poly: &Polygon, other_mbr: &Rect) -> [Range<usize>; 2] {
    let n = poly.vertex_count();
    let whole_boundary = [0..n, 0..0];
    // Split vertices (perpendicular extremes) and the facing extreme.
    let [max_x, min_x, max_y, min_y] = poly.extremes();
    let (split_a, split_b, facing) = match classify(&poly.mbr(), other_mbr) {
        Separation::None => return whole_boundary,
        Separation::Right => (max_y, min_y, max_x),
        Separation::Left => (max_y, min_y, min_x),
        Separation::Above => (max_x, min_x, max_y),
        Separation::Below => (max_x, min_x, min_y),
    };
    if split_a == split_b || facing == split_a || facing == split_b {
        // Degenerate split: be conservative.
        return whole_boundary;
    }
    // The chain containing the facing extreme: `split_a → split_b` when it
    // lies strictly between them in cyclic vertex order, else the other one.
    let a_to_b = if split_a < split_b {
        split_a < facing && facing < split_b
    } else {
        facing > split_a || facing < split_b
    };
    let (from, to) = if a_to_b {
        (split_a, split_b)
    } else {
        (split_b, split_a)
    };
    if from < to {
        [from..to, 0..0]
    } else {
        [from..n, 0..to]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn square(x: f64, y: f64, s: f64) -> Polygon {
        Polygon::from_coords(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
    }

    #[test]
    fn overlapping_mbrs_keep_all_edges() {
        let p = square(0.0, 0.0, 4.0);
        let q = Rect::new(2.0, 2.0, 6.0, 6.0);
        assert_eq!(frontier_clipped(&p, &q, f64::INFINITY).len(), 4);
    }

    #[test]
    fn right_facing_chain_of_square() {
        let p = square(0.0, 0.0, 4.0);
        let q = Rect::new(10.0, 0.0, 12.0, 4.0);
        let chain = frontier_clipped(&p, &q, f64::INFINITY);
        assert!(chain.len() < 4, "chain must be a strict subset");
        // Every chain edge must touch the right half of the square.
        for e in &chain {
            assert!(e.a.x.max(e.b.x) >= 2.0, "edge {e:?} does not face right");
        }
        // The true closest edge (x = 4 side) must be present.
        assert!(chain.iter().any(|e| e.a.x == 4.0 && e.b.x == 4.0));
    }

    #[test]
    fn chain_contains_closest_point_for_l_shape() {
        // L-shape with its concave pocket facing right; Q far right.
        let l = Polygon::from_coords(&[
            (0.0, 0.0),
            (10.0, 0.0),
            (10.0, 1.0),
            (1.0, 1.0),
            (1.0, 10.0),
            (0.0, 10.0),
        ]);
        let q = Rect::new(20.0, 0.0, 22.0, 10.0);
        let chain = frontier_clipped(&l, &q, f64::INFINITY);
        let full: Vec<Segment> = l.edges().collect();
        let d_chain = crate::distance::edges_min_dist(
            &chain,
            &[Segment::new(Point::new(20.0, 5.0), Point::new(20.0, 6.0))],
            f64::INFINITY,
        );
        let d_full = crate::distance::edges_min_dist(
            &full,
            &[Segment::new(Point::new(20.0, 5.0), Point::new(20.0, 6.0))],
            f64::INFINITY,
        );
        assert_eq!(d_chain, d_full, "frontier chain must preserve min distance");
    }

    #[test]
    fn vertical_separation_uses_horizontal_split() {
        let p = square(0.0, 0.0, 4.0);
        let q_above = Rect::new(0.0, 10.0, 4.0, 12.0);
        let chain = frontier_clipped(&p, &q_above, f64::INFINITY);
        assert!(chain.len() < 4);
        // The top side (y = 4) must survive.
        assert!(chain.iter().any(|e| e.a.y == 4.0 && e.b.y == 4.0));
    }

    #[test]
    fn clipping_removes_far_edges() {
        let p = square(0.0, 0.0, 4.0);
        let q = Rect::new(10.0, 0.0, 12.0, 4.0);
        // With a small d the left portions of top/bottom edges could drop
        // out entirely if their MBRs don't reach the extended rectangle.
        let clipped = frontier_clipped(&p, &q, 1.0);
        for e in &clipped {
            assert!(e.mbr().intersects(&q.expanded(1.0)));
        }
        // With a huge d everything in the frontier survives.
        let wide = frontier_clipped(&p, &q, 100.0);
        assert_eq!(wide.len(), frontier_clipped(&p, &q, f64::INFINITY).len());
    }

    #[test]
    fn diagonal_separation_is_sound() {
        // Q up-right of P: x-gap larger, so the x logic is used.
        let p = square(0.0, 0.0, 4.0);
        let q = Rect::new(20.0, 10.0, 22.0, 12.0);
        let chain = frontier_clipped(&p, &q, f64::INFINITY);
        // Closest point of P to (20,10) is corner (4,4); edge (4,0)-(4,4)
        // or (4,4)-(0,4) must be present.
        assert!(chain
            .iter()
            .any(|e| e.a == Point::new(4.0, 4.0) || e.b == Point::new(4.0, 4.0)));
    }
}
