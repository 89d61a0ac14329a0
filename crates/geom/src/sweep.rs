//! Plane-sweep segment-intersection *detection*.
//!
//! The paper's software segment-intersection test (§3.1, step 3) "sweeps a
//! horizontal (or vertical) line through P and Q. Edges that intersect the
//! sweep line at the same time are tested against their immediate left and
//! right neighbors" — i.e. a Shamos–Hoey-style detection sweep with a
//! balanced-search-tree status, stopping at the first red/blue (P-edge vs
//! Q-edge) intersection. That algorithm is [`tree_sweep_intersects`].
//!
//! We additionally provide [`forward_sweep_intersects`], the "sweep and
//! prune" variant widely used in spatial-join implementations: it tests
//! *every* pair of edges whose x-ranges overlap (with a y-interval
//! prefilter), so it is exhaustive by construction and serves as the
//! reference the tree sweep is validated against. The same machinery powers
//! `polygon_is_simple`, the checker for the paper's footnote-1 definition
//! of simple polygons.
//!
//! # Preconditions
//!
//! [`tree_sweep_intersects`] assumes each input edge set is internally
//! non-crossing (the edges of a *simple* polygon boundary): proper red-red
//! or blue-blue crossings can corrupt the status order before a red/blue
//! intersection is reached. This is the paper's setting — the datasets are
//! (overwhelmingly) simple polygons — but `Polygon::new` accepts a bowtie.
//! The product's step 3 is therefore the block search of
//! [`crate::intersect::edges_meet`], which has no precondition; it reaches
//! the tree sweep only past its work budget. [`forward_sweep_intersects`]
//! has no such precondition.

use crate::polygon::Polygon;
use crate::predicates::on_segment;
use crate::segment::Segment;
use std::cmp::Ordering;

/// Which edge set a sweep segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    Red,
    Blue,
}

/// Counters describing how much work a red/blue detection performed; the
/// benches report these alongside wall-clock time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Exact segment-pair intersection tests executed.
    pub pair_tests: usize,
    /// Events processed (tree sweep) or segments scanned (forward sweep).
    /// Nonzero after [`crate::intersect::edges_meet`] only when it ran
    /// out of budget and handed its edges to the tree sweep.
    pub events: usize,
    /// Block-box pairs the block search compared.
    pub box_tests: usize,
    /// Edge-MBR compares the block search made inside the block pairs it
    /// entered: each edge against the other block's box, and each edge
    /// that meets that box against the MBRs in the block.
    pub edge_tests: usize,
}

// ---------------------------------------------------------------------------
// Forward sweep ("sweep and prune") — exhaustive red/blue detection.
// ---------------------------------------------------------------------------

/// Detects whether any red segment intersects any blue segment (closed
/// semantics: touching counts), by sweeping both sets in `xmin` order and
/// testing all pairs with overlapping x-ranges and y-ranges.
///
/// Exhaustive: every intersecting pair has overlapping MBRs, and every pair
/// with overlapping x-ranges is examined, so no intersection can be missed
/// regardless of degeneracies.
pub fn forward_sweep_intersects(red: &[Segment], blue: &[Segment]) -> bool {
    forward_sweep_intersects_stats(red, blue, &mut SweepStats::default())
}

/// [`forward_sweep_intersects`] with work counters.
pub(crate) fn forward_sweep_intersects_stats(
    red: &[Segment],
    blue: &[Segment],
    stats: &mut SweepStats,
) -> bool {
    if red.is_empty() || blue.is_empty() {
        return false;
    }
    // Merged processing order by xmin.
    let mut order: Vec<(f64, Color, u32)> = Vec::with_capacity(red.len() + blue.len());
    for (i, s) in red.iter().enumerate() {
        order.push((s.a.x.min(s.b.x), Color::Red, i as u32));
    }
    for (i, s) in blue.iter().enumerate() {
        order.push((s.a.x.min(s.b.x), Color::Blue, i as u32));
    }
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

    // Active lists hold (xmax, ymin, ymax, index); stale entries are pruned
    // as the sweep front passes them.
    let mut active_red: Vec<(f64, f64, f64, u32)> = Vec::new();
    let mut active_blue: Vec<(f64, f64, f64, u32)> = Vec::new();

    for &(x, color, idx) in &order {
        stats.events += 1;
        let (seg, opposite_set, own_active, other_active) = match color {
            Color::Red => (&red[idx as usize], blue, &mut active_red, &mut active_blue),
            Color::Blue => (&blue[idx as usize], red, &mut active_blue, &mut active_red),
        };
        let (ymin, ymax) = if seg.a.y <= seg.b.y {
            (seg.a.y, seg.b.y)
        } else {
            (seg.b.y, seg.a.y)
        };
        // Prune expired opposite-set segments, then test the live ones.
        other_active.retain(|&(xmax, _, _, _)| xmax >= x);
        for &(_, oymin, oymax, oidx) in other_active.iter() {
            if oymin <= ymax && ymin <= oymax {
                stats.pair_tests += 1;
                if seg.intersects(&opposite_set[oidx as usize]) {
                    return true;
                }
            }
        }
        own_active.push((seg.a.x.max(seg.b.x), ymin, ymax, idx));
    }
    false
}

// ---------------------------------------------------------------------------
// Tree sweep — the paper's balanced-search-tree plane sweep.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SweepSeg {
    seg: Segment,
    color: Color,
    /// Left endpoint (smaller x, ties by y).
    left: crate::point::Point,
    /// Right endpoint.
    right: crate::point::Point,
}

impl SweepSeg {
    fn new(seg: Segment, color: Color) -> Self {
        let (left, right) = if seg.a.lex_cmp(&seg.b) == Ordering::Greater {
            (seg.b, seg.a)
        } else {
            (seg.a, seg.b)
        };
        SweepSeg {
            seg,
            color,
            left,
            right,
        }
    }

    /// y-coordinate of the segment at sweep position `x` (clamped into the
    /// segment's x-range; vertical segments answer with their lower y).
    fn y_at(&self, x: f64) -> f64 {
        let (l, r) = (self.left, self.right);
        if r.x == l.x {
            return l.y.min(r.y);
        }
        let t = ((x - l.x) / (r.x - l.x)).clamp(0.0, 1.0);
        l.y + t * (r.y - l.y)
    }

    /// Slope used to break ties when two segments pass through the same
    /// point on the sweep line; vertical segments sort above everything.
    fn slope(&self) -> f64 {
        let dx = self.right.x - self.left.x;
        if dx == 0.0 {
            f64::INFINITY
        } else {
            (self.right.y - self.left.y) / dx
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Insert,
    Remove,
}

/// Detects a red/blue intersection with the balanced-status plane sweep.
///
/// Closed semantics: endpoint touches and collinear overlaps count. See the
/// module docs for the simple-boundary precondition.
pub fn tree_sweep_intersects(red: &[Segment], blue: &[Segment]) -> bool {
    tree_sweep_intersects_stats(red, blue, &mut SweepStats::default())
}

/// [`tree_sweep_intersects`] with work counters.
pub(crate) fn tree_sweep_intersects_stats(
    red: &[Segment],
    blue: &[Segment],
    stats: &mut SweepStats,
) -> bool {
    if red.is_empty() || blue.is_empty() {
        return false;
    }
    let mut segs: Vec<SweepSeg> = Vec::with_capacity(red.len() + blue.len());
    segs.extend(red.iter().map(|&s| SweepSeg::new(s, Color::Red)));
    segs.extend(blue.iter().map(|&s| SweepSeg::new(s, Color::Blue)));

    // Events: (x, y, kind, segment id). Insert sorts before Remove at equal
    // coordinates so that segments meeting end-to-start coexist in the
    // status and endpoint touches are detected.
    let mut events: Vec<(f64, f64, EventKind, u32)> = Vec::with_capacity(segs.len() * 2);
    for (i, s) in segs.iter().enumerate() {
        events.push((s.left.x, s.left.y, EventKind::Insert, i as u32));
        events.push((s.right.x, s.right.y, EventKind::Remove, i as u32));
    }
    events.sort_unstable_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| {
                let ka = if a.2 == EventKind::Insert { 0 } else { 1 };
                let kb = if b.2 == EventKind::Insert { 0 } else { 1 };
                ka.cmp(&kb)
            })
            .then_with(|| a.1.total_cmp(&b.1))
    });

    // Status: segment ids ordered bottom-to-top at the current sweep x.
    let mut status: Vec<u32> = Vec::new();

    let crosses = |a: u32, b: u32, stats: &mut SweepStats| -> bool {
        let sa = &segs[a as usize];
        let sb = &segs[b as usize];
        if sa.color == sb.color {
            return false;
        }
        stats.pair_tests += 1;
        sa.seg.intersects(&sb.seg)
    };

    for &(x, _, kind, id) in &events {
        stats.events += 1;
        match kind {
            EventKind::Insert => {
                let s = &segs[id as usize];
                let key = (s.y_at(x), s.slope());
                // Find insertion position by the (y, slope) order at x.
                let pos = status.partition_point(|&other| {
                    let o = &segs[other as usize];
                    let okey = (o.y_at(x), o.slope());
                    okey.0 < key.0 || (okey.0 == key.0 && okey.1 < key.1)
                });
                if pos > 0 && crosses(status[pos - 1], id, stats) {
                    return true;
                }
                if pos < status.len() && crosses(status[pos], id, stats) {
                    return true;
                }
                status.insert(pos, id);
            }
            EventKind::Remove => {
                // Locate by identity (the order may have drifted after the
                // segment's span, so a comparator search is not reliable).
                if let Some(pos) = status.iter().position(|&s| s == id) {
                    status.remove(pos);
                    if pos > 0 && pos < status.len() && crosses(status[pos - 1], status[pos], stats)
                    {
                        return true;
                    }
                }
            }
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Simplicity check (paper footnote 1).
// ---------------------------------------------------------------------------

/// True when the polygon is *simple*: no two non-adjacent edges touch, and
/// adjacent edges share exactly their common vertex (no spikes / collinear
/// backtracking). Runs an exhaustive forward sweep over the boundary edges.
pub(crate) fn polygon_is_simple(poly: &Polygon) -> bool {
    let edges: Vec<Segment> = poly.edges().collect();
    let n = edges.len();
    // Sort indices by xmin and sweep.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        let ax = edges[a as usize].a.x.min(edges[a as usize].b.x);
        let bx = edges[b as usize].a.x.min(edges[b as usize].b.x);
        ax.total_cmp(&bx)
    });
    let mut active: Vec<(f64, u32)> = Vec::new(); // (xmax, edge index)
    for &i in &order {
        let e = &edges[i as usize];
        let exmin = e.a.x.min(e.b.x);
        active.retain(|&(xmax, _)| xmax >= exmin);
        for &(_, j) in active.iter() {
            if edges_violate_simplicity(&edges, n, i as usize, j as usize) {
                return false;
            }
        }
        active.push((e.a.x.max(e.b.x), i));
    }
    true
}

/// Whether edges `i` and `j` of an `n`-edge boundary violate simplicity.
fn edges_violate_simplicity(edges: &[Segment], n: usize, i: usize, j: usize) -> bool {
    let (i, j) = if i < j { (i, j) } else { (j, i) };
    let ei = &edges[i];
    let ej = &edges[j];
    let adjacent_fwd = j == i + 1;
    let adjacent_wrap = i == 0 && j == n - 1;
    if adjacent_fwd || adjacent_wrap {
        // Shared vertex is legal; anything more (spike / overlap) is not.
        // For forward adjacency the shared vertex is ei.b == ej.a; for the
        // wrap case it is ej.b == ei.a.
        let (shared, far_i, far_j) = if adjacent_fwd {
            (ei.b, ei.a, ej.b)
        } else {
            (ei.a, ei.b, ej.a)
        };
        debug_assert_eq!(shared, if adjacent_fwd { ej.a } else { ej.b });
        // The far endpoint of one edge must not lie on the other edge, which
        // covers both collinear spikes and zero-angle folds.
        on_segment(ei.a, ei.b, far_j) || on_segment(ej.a, ej.b, far_i)
    } else {
        ei.intersects(ej)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    fn square_edges(x: f64, y: f64, s: f64) -> Vec<Segment> {
        Polygon::from_coords(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
            .edges()
            .collect()
    }

    #[test]
    fn both_sweeps_detect_crossing_squares() {
        let a = square_edges(0.0, 0.0, 2.0);
        let b = square_edges(1.0, 1.0, 2.0);
        assert!(forward_sweep_intersects(&a, &b));
        assert!(tree_sweep_intersects(&a, &b));
    }

    #[test]
    fn both_sweeps_reject_disjoint_squares() {
        let a = square_edges(0.0, 0.0, 1.0);
        let b = square_edges(5.0, 5.0, 1.0);
        assert!(!forward_sweep_intersects(&a, &b));
        assert!(!tree_sweep_intersects(&a, &b));
    }

    #[test]
    fn nested_boundaries_do_not_intersect() {
        // Containment without boundary contact: boundaries are disjoint.
        let outer = square_edges(0.0, 0.0, 10.0);
        let inner = square_edges(4.0, 4.0, 1.0);
        assert!(!forward_sweep_intersects(&outer, &inner));
        assert!(!tree_sweep_intersects(&outer, &inner));
    }

    #[test]
    fn touching_corner_counts() {
        let a = square_edges(0.0, 0.0, 1.0);
        let b = square_edges(1.0, 1.0, 1.0); // shares corner (1,1)
        assert!(forward_sweep_intersects(&a, &b));
        assert!(tree_sweep_intersects(&a, &b));
    }

    #[test]
    fn touching_edge_counts() {
        let a = square_edges(0.0, 0.0, 1.0);
        let b = square_edges(1.0, 0.0, 1.0); // shares the x = 1 edge
        assert!(forward_sweep_intersects(&a, &b));
        assert!(tree_sweep_intersects(&a, &b));
    }

    #[test]
    fn single_crossing_pair() {
        let a = vec![seg(0.0, 0.0, 10.0, 10.0)];
        let b = vec![seg(0.0, 10.0, 10.0, 0.0)];
        assert!(forward_sweep_intersects(&a, &b));
        assert!(tree_sweep_intersects(&a, &b));
    }

    #[test]
    fn vertical_segments() {
        let a = vec![seg(5.0, 0.0, 5.0, 10.0)];
        let b = vec![seg(0.0, 5.0, 10.0, 5.0)];
        assert!(tree_sweep_intersects(&a, &b));
        let c = vec![seg(11.0, 0.0, 11.0, 10.0)];
        assert!(!tree_sweep_intersects(&b, &c));
    }

    #[test]
    fn empty_inputs() {
        let a = square_edges(0.0, 0.0, 1.0);
        assert!(!forward_sweep_intersects(&a, &[]));
        assert!(!forward_sweep_intersects(&[], &a));
        assert!(!tree_sweep_intersects(&[], &[]));
    }

    #[test]
    fn stats_count_work() {
        let a = square_edges(0.0, 0.0, 2.0);
        let b = square_edges(5.0, 0.0, 2.0);
        let mut st = SweepStats::default();
        assert!(!forward_sweep_intersects_stats(&a, &b, &mut st));
        assert_eq!(st.events, 8);
        let mut st2 = SweepStats::default();
        assert!(!tree_sweep_intersects_stats(&a, &b, &mut st2));
        assert_eq!(st2.events, 16); // insert + remove per segment
    }

    #[test]
    fn sweeps_agree_on_comb_shapes() {
        // Interleaved combs exercise many events without intersections.
        let mut red = Vec::new();
        let mut blue = Vec::new();
        for i in 0..10 {
            let x = i as f64;
            red.push(seg(x, 0.0, x + 0.4, 10.0));
            blue.push(seg(x + 0.5, 0.0, x + 0.9, 10.0));
        }
        assert!(!forward_sweep_intersects(&red, &blue));
        assert!(!tree_sweep_intersects(&red, &blue));
        // Now tilt one blue tooth so it crosses a red one.
        blue[4] = seg(4.5, 0.0, 3.9, 10.0);
        assert!(forward_sweep_intersects(&red, &blue));
        assert!(tree_sweep_intersects(&red, &blue));
    }

    #[test]
    fn simple_polygon_checks() {
        assert!(polygon_is_simple(&Polygon::from_coords(&[
            (0.0, 0.0),
            (4.0, 0.0),
            (4.0, 4.0),
            (0.0, 4.0)
        ])));
        // Bowtie.
        assert!(!polygon_is_simple(&Polygon::from_coords(&[
            (0.0, 0.0),
            (2.0, 2.0),
            (2.0, 0.0),
            (0.0, 2.0)
        ])));
        // Spike: collinear backtracking at vertex 2.
        assert!(!polygon_is_simple(&Polygon::from_coords(&[
            (0.0, 0.0),
            (4.0, 0.0),
            (2.0, 0.0),
            (2.0, 3.0)
        ])));
        // Vertex of degree > 2: boundary pinches at (2,2).
        assert!(!polygon_is_simple(&Polygon::from_coords(&[
            (0.0, 0.0),
            (4.0, 0.0),
            (2.0, 2.0),
            (4.0, 4.0),
            (0.0, 4.0),
            (2.0, 2.0),
        ])));
    }

    #[test]
    fn concave_simple_polygon_passes() {
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
        assert!(polygon_is_simple(&star));
    }
}
