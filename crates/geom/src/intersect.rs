//! The software polygon-intersection test (§3.1): point-in-polygon plus a
//! search for a crossing between the two boundaries, over the *restricted
//! search space* of Brinkhoff et al. (§4.1.1, Fig. 9(b)).

use crate::pip::point_in_polygon;
use crate::polygon::Polygon;
use crate::rect::Rect;
use crate::segment::Segment;
use crate::sweep::{tree_sweep_intersects_stats, SweepStats};
use crate::with_scratch;

/// Consecutive restricted edges [`edges_meet`] unions into one block box:
/// one box compare stands in for up to `SEARCH_BLOCK²` edge pairs.
pub const SEARCH_BLOCK: usize = 8;

/// The work [`edges_meet`] may spend per restricted edge before it hands
/// its edges to the tree sweep. A block-pair box compare costs one unit,
/// and entering a block pair costs `|a|·|b|` more.
pub const SEARCH_BUDGET_PER_EDGE: usize = 8;

/// Work counters for one intersection test; aggregated by the engine to
/// report the paper's per-stage cost breakdowns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntersectStats {
    /// Point-in-polygon tests run.
    pub pip_tests: usize,
    /// Step-3 work counters ([`boundaries_meet`]).
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
    let mut kept = Vec::new();
    poly.edges_near(|mbr| mbr.intersects(region), &mut kept);
    kept
}

/// §3.1 step 3: whether the boundaries of `p` and `q` meet (closed: a touch
/// counts). Boundaries can only meet inside the MBRs' intersection, so
/// [`edges_meet`] searches the restricted search space of that region.
///
/// Unlike a plane sweep alone, this has no precondition on the input: a
/// self-crossing boundary gets the exact answer, unless the search runs
/// out of budget and the tree sweep decides (see [`edges_meet`]).
pub fn boundaries_meet(p: &Polygon, q: &Polygon, stats: &mut SweepStats) -> bool {
    let Some(region) = p.mbr().intersection(&q.mbr()) else {
        return false;
    };
    with_scratch(|s| {
        p.edges_near(|mbr| mbr.intersects(&region), &mut s.ep);
        q.edges_near(|mbr| mbr.intersects(&region), &mut s.eq);
        edges_meet_in(&s.ep, &s.eq, &mut s.boxes, stats)
    })
}

/// Whether an edge of `ep` meets an edge of `eq` (closed semantics, the
/// plane sweep's own [`Segment::intersects`]); returns at the first
/// crossing found.
///
/// Each [`SEARCH_BLOCK`] consecutive edges of either set are unioned into
/// a block box. The search visits `ep` blocks × `eq` blocks and skips
/// every pair whose boxes miss. Inside a pair it skips each `e` whose MBR
/// misses the other block's box, and tests each `f` whose MBR meets `e`'s.
/// A crossing point lies in both edges' MBRs, hence in both block boxes,
/// so no skip loses one. The search is therefore all-pairs, the answer of
/// [`crate::sweep::forward_sweep_intersects`], with no precondition.
///
/// The work is bounded: a block-pair box compare costs one unit and an
/// entered pair `|a|·|b|` more. Once the total would pass
/// [`SEARCH_BUDGET_PER_EDGE`]` · (|ep| + |eq|)`, the pair that would pass
/// it is not visited, and both sets go to
/// [`tree_sweep_intersects_stats`]. That sweep is exact only on edges that
/// do not cross their own set, such as a simple boundary's.
/// `stats.events > 0` shows that this fallback ran.
pub fn edges_meet(ep: &[Segment], eq: &[Segment], stats: &mut SweepStats) -> bool {
    edges_meet_in(ep, eq, &mut Vec::new(), stats)
}

/// [`edges_meet`] with the block boxes in `boxes`, whose contents it
/// replaces.
fn edges_meet_in(
    ep: &[Segment],
    eq: &[Segment],
    boxes: &mut Vec<Rect>,
    stats: &mut SweepStats,
) -> bool {
    let block_box = |block: &[Segment]| block.iter().fold(Rect::EMPTY, |b, e| b.union(&e.mbr()));
    // One buffer: the block boxes of `ep`, then those of `eq`.
    let p_blocks = ep.len().div_ceil(SEARCH_BLOCK);
    boxes.clear();
    boxes.extend(ep.chunks(SEARCH_BLOCK).map(block_box));
    boxes.extend(eq.chunks(SEARCH_BLOCK).map(block_box));
    let (p_boxes, q_boxes) = boxes.split_at(p_blocks);

    let budget = SEARCH_BUDGET_PER_EDGE * (ep.len() + eq.len());
    let mut work = 0;
    for (a, a_box) in ep.chunks(SEARCH_BLOCK).zip(p_boxes) {
        for (b, b_box) in eq.chunks(SEARCH_BLOCK).zip(q_boxes) {
            stats.box_tests += 1;
            let enter = a_box.intersects(b_box);
            work += 1 + if enter { a.len() * b.len() } else { 0 };
            if work > budget {
                return tree_sweep_intersects_stats(ep, eq, stats);
            }
            if enter && blocks_meet(a, b, b_box, stats) {
                return true;
            }
        }
    }
    false
}

/// Whether an edge of `a` meets an edge of `b`, whose block box is `b_box`.
fn blocks_meet(a: &[Segment], b: &[Segment], b_box: &Rect, stats: &mut SweepStats) -> bool {
    for e in a {
        let m = e.mbr();
        stats.edge_tests += 1;
        if !m.intersects(b_box) {
            continue;
        }
        for f in b {
            stats.edge_tests += 1;
            if m.intersects(&f.mbr()) {
                stats.pair_tests += 1;
                if e.intersects(f) {
                    return true;
                }
            }
        }
    }
    false
}

/// The complete software intersection test between two polygons, with
/// closed semantics (shared boundaries count as intersecting).
///
/// Steps, exactly as in §3.1:
/// 1. MBR rejection (the caller's filter normally did this already, but the
///    test stays correct stand-alone);
/// 2. point-in-polygon both ways — catches full containment;
/// 3. a boundary crossing over the restricted search space
///    ([`boundaries_meet`]).
pub fn polygons_intersect(p: &Polygon, q: &Polygon) -> bool {
    polygons_intersect_with(p, q, &mut IntersectStats::default())
}

/// [`polygons_intersect`] with counters.
pub fn polygons_intersect_with(p: &Polygon, q: &Polygon, stats: &mut IntersectStats) -> bool {
    if !p.mbr().intersects(&q.mbr()) {
        return false;
    }

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

    // Step 2: a boundary crossing over the restricted search space.
    boundaries_meet(p, q, &mut stats.sweep)
}

/// Software strict-containment test: `inner` lies entirely inside `outer`.
///
/// One vertex of `inner` inside `outer` plus disjoint boundaries implies
/// full containment (the boundary of a simple polygon cannot leave another
/// simple polygon without crossing its boundary). Steps: MBR containment,
/// point-in-polygon on the first vertex, then [`boundaries_meet`] — whose
/// search region is `inner`'s MBR, since any boundary crossing involves an
/// edge of `inner`.
pub fn polygon_contained_in(inner: &Polygon, outer: &Polygon) -> bool {
    outer.mbr().contains_rect(&inner.mbr())
        && point_in_polygon(inner.vertices()[0], outer)
        && !boundaries_meet(inner, outer, &mut SweepStats::default())
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
    use crate::point::Point;
    use crate::sweep::{forward_sweep_intersects, tree_sweep_intersects};

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

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    /// xorshift64*: deterministic, no dependency.
    fn next(rng: &mut u64) -> u64 {
        *rng ^= *rng >> 12;
        *rng ^= *rng << 25;
        *rng ^= *rng >> 27;
        rng.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33
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
        assert!(polygons_intersect_with(&outer, &inner, &mut st));
        assert_eq!(st.decided_by_pip, 1, "containment must not reach step 3");
        assert_eq!(st.sweep, SweepStats::default());
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
            let region = p.mbr().union(&q.mbr());
            let (ep, eq) = (restricted_edges(p, &region), restricted_edges(q, &region));
            let forward = forward_sweep_intersects(&ep, &eq);
            assert_eq!(tree_sweep_intersects(&ep, &eq), forward);
            assert_eq!(boundaries_meet(p, q, &mut SweepStats::default()), forward);
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
        polygons_intersect_with(&a, &b, &mut st);
        assert_eq!(st.pip_tests, 0);
        let c = square(1.5, 1.5, 2.0);
        polygons_intersect_with(&a, &c, &mut st);
        assert!(st.pip_tests >= 1);
        // A plus sign: neither first vertex is inside, step 3 decides.
        let horiz = Polygon::from_coords(&[(0.0, 2.0), (6.0, 2.0), (6.0, 4.0), (0.0, 4.0)]);
        let vert = Polygon::from_coords(&[(2.0, 0.0), (4.0, 0.0), (4.0, 6.0), (2.0, 6.0)]);
        assert!(polygons_intersect_with(&horiz, &vert, &mut st));
        assert_eq!(st.sweep.box_tests, 1);
        assert!(st.sweep.pair_tests >= 1 && st.sweep.events == 0);
    }

    /// A ring of 3–14 vertices on a 15 × 15 integer grid, in any order:
    /// usually self-crossing, full of touches and collinear overlaps.
    /// `None` when the draw repeats a vertex consecutively.
    fn grid_ring(rng: &mut u64) -> Option<Polygon> {
        let n = 3 + next(rng) as usize % 12;
        let ring = (0..n)
            .map(|_| Point::new((next(rng) % 15) as f64, (next(rng) % 15) as f64))
            .collect();
        Polygon::new(ring).ok()
    }

    /// Regression: a bowtie passes `Polygon::new`, and the tree sweep's
    /// simple-boundary precondition then failed silently — this pair's
    /// boundaries cross, yet step 3 answered `false`. The block search has
    /// no precondition within its budget, which these rings never exceed.
    #[test]
    fn self_crossing_boundaries_answer_like_brute_force() {
        let p = Polygon::from_coords(&[(0.0, 10.0), (7.0, 6.0), (2.0, 2.0), (7.0, 1.0)]);
        let q = Polygon::from_coords(&[(14.0, 10.0), (8.0, 9.0), (6.0, 2.0)]);
        assert!(!p.is_simple());
        assert!(polygons_intersect_brute(&p, &q));
        assert!(polygons_intersect(&p, &q));

        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let (mut pairs, mut non_simple) = (0usize, 0usize);
        let (mut searched, mut misses) = (0usize, 0usize);
        while pairs < 20_000 {
            let (Some(p), Some(q)) = (grid_ring(&mut rng), grid_ring(&mut rng)) else {
                continue;
            };
            let mut st = IntersectStats::default();
            let expected = polygons_intersect_brute(&p, &q);
            assert_eq!(
                polygons_intersect_with(&p, &q, &mut st),
                expected,
                "{p:?} {q:?}"
            );
            assert_eq!(st.sweep.events, 0, "no fallback: {p:?} {q:?}");
            pairs += 1;
            non_simple += usize::from(!(p.is_simple() && q.is_simple()));
            if st.decided_by_pip == 0 {
                searched += 1;
                misses += usize::from(!expected);
            }
        }
        assert!(
            non_simple > 15_000,
            "{non_simple} pairs with a self-crossing ring"
        );
        assert!(
            searched > 4_000 && misses > 400,
            "{searched} searched, {misses} misses"
        );
    }

    /// `n` edges, all far from the other set's, except the last one, which
    /// is `last` — on both sides of every block boundary.
    fn with_last(n: usize, y: f64, last: Segment) -> Vec<Segment> {
        let mut edges: Vec<Segment> = (0..n - 1)
            .map(|i| seg(i as f64, y, i as f64 + 0.5, y + 0.5))
            .collect();
        edges.push(last);
        edges
    }

    /// A crossing held by the last edge of both sets alone is found at
    /// every set size around a block boundary — a proper crossing, a touch
    /// of end points, a T, and a collinear overlap — and a gap of one unit
    /// in the last place is not.
    #[test]
    fn the_last_edge_of_a_partial_block_is_searched() {
        let sizes = [1, 7, 8, 9, 16, 17];
        let gap = 1.0f64.next_up() - 1.0;
        let meetings = [
            (
                seg(-5.0, -5.0, -3.0, -3.0),
                seg(-5.0, -3.0, -3.0, -5.0),
                true,
            ),
            (
                seg(-5.0, -5.0, -4.0, -4.0),
                seg(-4.0, -4.0, -3.0, -5.0),
                true,
            ),
            (
                seg(-5.0, -4.0, -3.0, -4.0),
                seg(-4.0, -4.0, -4.0, -6.0),
                true,
            ),
            (
                seg(-5.0, -4.0, -3.0, -4.0),
                seg(-4.0, -4.0, -2.0, -4.0),
                true,
            ),
            (
                seg(-5.0, -4.0, -3.0, -4.0),
                seg(-3.0 + 4.0 * gap, -4.0, -2.0, -4.0),
                false,
            ),
            (
                seg(-5.0, -4.0, -3.0, -4.0),
                seg(-4.0, -4.0 - 4.0 * gap, -4.0, -6.0),
                false,
            ),
        ];
        for (e, f, meet) in meetings {
            for m in sizes {
                for n in sizes {
                    let ep = with_last(m, 0.0, e);
                    let eq = with_last(n, 2.0, f);
                    assert_eq!(forward_sweep_intersects(&ep, &eq), meet);
                    let mut st = SweepStats::default();
                    assert_eq!(
                        edges_meet(&ep, &eq, &mut st),
                        meet,
                        "{m} × {n}: {e:?} {f:?}"
                    );
                    assert_eq!(
                        edges_meet(&eq, &ep, &mut st),
                        meet,
                        "{n} × {m}: {f:?} {e:?}"
                    );
                    assert_eq!(st.events, 0, "{m} × {n}: within budget");
                }
            }
        }
    }

    /// `blocks` blocks of vertical teeth `x = 0, 1, 2, …` (`ep`) and
    /// `x = 0.5, 1.5, …` (`eq`), 8 to a block: block `i` of one set meets
    /// block `i` of the other only, so the search works
    /// `blocks² + 64 · blocks` units against a budget of `128 · blocks`.
    /// The two sets meet nowhere, unless `cross` tilts the last `eq` tooth
    /// across the last `ep` one.
    fn teeth(blocks: usize, cross: bool) -> (Vec<Segment>, Vec<Segment>) {
        let n = blocks * SEARCH_BLOCK;
        let ep: Vec<Segment> = (0..n).map(|i| seg(i as f64, 0.0, i as f64, 8.0)).collect();
        let mut eq: Vec<Segment> = (0..n)
            .map(|i| seg(i as f64 + 0.5, 0.0, i as f64 + 0.5, 8.0))
            .collect();
        if cross {
            let x = (n - 1) as f64;
            eq[n - 1] = seg(x - 0.5, 0.0, x + 0.5, 8.0);
        }
        (ep, eq)
    }

    /// 64 blocks a side spend the budget exactly and search to the end. 65
    /// pass it when the last block pair is charged, and that pair is not
    /// visited: the crossing it holds is the tree sweep's to find.
    #[test]
    fn the_budget_hands_over_to_the_tree_sweep_before_the_pair_that_passes_it() {
        for cross in [false, true] {
            let (ep, eq) = teeth(64, cross);
            let mut st = SweepStats::default();
            assert_eq!(edges_meet(&ep, &eq, &mut st), cross);
            assert_eq!(st.events, 0, "64 blocks: the budget is spent, not passed");
            assert_eq!(st.box_tests, 64 * 64);
            // In block pair `i`, tooth `8i` misses the other block's box;
            // the other seven compare with it and with all eight MBRs in it.
            assert_eq!(st.edge_tests, 64 * (8 + 7 * 8));
            assert_eq!(st.pair_tests, usize::from(cross));

            let (ep, eq) = teeth(65, cross);
            let mut st = SweepStats::default();
            assert_eq!(edges_meet(&ep, &eq, &mut st), cross);
            assert!(st.events > 0, "65 blocks: past the budget");
            assert_eq!(st.box_tests, 65 * 65);
            assert_eq!(
                st.edge_tests,
                64 * (8 + 7 * 8),
                "the last pair is not visited"
            );
            assert_eq!(forward_sweep_intersects(&ep, &eq), cross);
        }
    }

    /// The search against the all-pairs answer over the same edges on
    /// random polylines of `1, 7, 8, 9, 16, 17` edges — grid polylines full
    /// of touching end points and collinear overlaps, and continuous ones —
    /// and, where it ran out of budget, against the tree sweep.
    #[test]
    fn edges_meet_matches_the_forward_sweep_on_random_polylines() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let (mut hits, mut misses, mut fallbacks) = (0usize, 0usize, 0usize);
        let chain = |rng: &mut u64, start: Point, n: usize, unit: f64| {
            let mut at = start;
            let mut out = Vec::with_capacity(n);
            while out.len() < n {
                let jitter = |r: u64| {
                    if unit == 1.0 {
                        0.0
                    } else {
                        (r % 1000) as f64 / 1000.0
                    }
                };
                let (sx, sy) = (next(rng), next(rng));
                let step = Point::new(
                    ((sx % 7) as f64 - 3.0 + jitter(sx >> 8)) * unit,
                    ((sy % 7) as f64 - 3.0 + jitter(sy >> 8)) * unit,
                );
                if step != Point::ORIGIN {
                    out.push(Segment::new(at, at + step));
                    at = at + step;
                }
            }
            out
        };
        for round in 0..60 {
            let unit = if round % 2 == 0 { 1.0 } else { 0.37 };
            for m in [1, 7, 8, 9, 16, 17] {
                for n in [1, 7, 8, 9, 16, 17] {
                    let ep = chain(&mut rng, Point::ORIGIN, m, unit);
                    let offset = Point::new((round % 5) as f64 * 2.0, (round % 3) as f64 - 1.0);
                    let eq = chain(&mut rng, offset * unit, n, unit);
                    let mut st = SweepStats::default();
                    let got = edges_meet(&ep, &eq, &mut st);
                    if st.events == 0 {
                        assert_eq!(got, forward_sweep_intersects(&ep, &eq), "{ep:?} {eq:?}");
                    } else {
                        fallbacks += 1;
                        assert_eq!(got, tree_sweep_intersects(&ep, &eq), "{ep:?} {eq:?}");
                    }
                    if got {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
            }
        }
        assert!(hits > 300 && misses > 300, "{hits} hits, {misses} misses");
        assert!(fallbacks < (hits + misses) / 10, "{fallbacks} fallbacks");
    }
}
