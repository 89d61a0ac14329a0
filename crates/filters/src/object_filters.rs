//! The 0-object and 1-object filters for within-distance joins (Chan,
//! §4.1.1): cheap *upper bounds* on the distance between two polygons. A
//! candidate pair whose upper bound is ≤ D is a confirmed positive and
//! skips geometry comparison entirely.
//!
//! Both bounds exploit the defining property of an MBR: the object touches
//! all four of its sides.
//!
//! * **0-object** (MBRs only): for any side `s1` of `R1` and `s2` of `R2`,
//!   there are object points on both sides, so
//!   `dist(A, B) ≤ maxDist(s1, s2)`; minimizing over the 16 side pairs
//!   gives the bound. `maxDist` of two segments is attained at endpoint
//!   pairs because the distance is convex in each argument.
//!
//! * **1-object** (actual geometry of one object, the paper retrieves the
//!   *larger* one): `B` touches each side `s2 = q1q2` of `R2` somewhere, and
//!   `q ↦ dist(A, q)` is 1-Lipschitz, so along the side
//!   `max_q dist(A, q) ≤ (dist(A, q1) + dist(A, q2) + |q1q2|) / 2`;
//!   minimizing over the four sides (and capping by the 0-object bound)
//!   gives a tighter bound. This is a conservative variant of Chan's
//!   filter — identical contract, simpler geometry.
//!
//! A filter only asks whether a bound is `≤ D`, and for the 1-object bound
//! [`one_object_within`] answers that by branch and bound over the block
//! boxes of the sample ([`Sample::block_boxes`], one per 8 sampled edges,
//! widened so they bound rounded distances too). A side whose half-length
//! exceeds `D` is never asked about. The blocks are visited nearest-first;
//! before each, every corner's distance is bounded from below by what is
//! measured and the boxes left, and the call answers `false` as soon as no
//! side can reach `D`; after each, one side term `≤ D` answers `true`.
//! The boxes depend on the polygon alone, so the filter stage builds them
//! once per polygon and join. On LANDC ⋈dist LANDO (`--bin diag`, scale
//! 0.05) the earlier form — stride looks that could confirm early but never
//! reject — measured 39 of the ≈ 60 sampled edges a call; this one
//! measures 5.6 over 0.71 blocks, rejecting 19 859 of 44 914 calls before
//! its last block, and the stage costs 0.34 µs a candidate instead of 0.60
//! (EXPERIMENTS.md "1-object branch and bound").
//! [`one_object_upper_bound`] is the bound itself, kept as the oracle
//! `one_object_within` is tested against.

use spatial_geom::{Point, Polygon, Rect, Segment};

/// The 0-object upper bound on `dist(A, B)` from the MBRs alone.
///
/// Works on the 16 corner-pair *squared* distances and takes one root at
/// the end. `sqrt` is monotone and correctly rounded, so it commutes with
/// `max` and `min`: the result is bit-for-bit the `f64` that rooting every
/// endpoint pair of every side pair (64 roots) would return.
pub fn zero_object_upper_bound(r1: &Rect, r2: &Rect) -> f64 {
    let (c1, c2) = (r1.corners(), r2.corners());
    let d2 = c1.map(|p| c2.map(|q| p.dist2(q)));
    let mut best = f64::INFINITY;
    // Side `i` joins corners `i` and `i + 1`; the maximum distance between
    // two sides is their farthest endpoint pair.
    for i in 0..4 {
        let i1 = (i + 1) % 4;
        for j in 0..4 {
            let j1 = (j + 1) % 4;
            let far = d2[i][j].max(d2[i][j1]).max(d2[i1][j]).max(d2[i1][j1]);
            best = best.min(far);
        }
    }
    best.sqrt()
}

/// The 1-object upper bound: uses the actual boundary of one object, `A`,
/// against the MBR `r2` of the other. The Lipschitz cap can exceed the
/// 0-object bound on skewed sides, so the pair's 0-object bound `ub0` —
/// which the caller has already computed, the 1-object filter only runs
/// where the 0-object one failed — is applied as a floor.
///
/// `a_edges` may be any *subset* of `A`'s boundary: distances to a subset
/// only grow, and the bound stays valid (just weaker). The engine exploits
/// this by sampling a few dozen edges of huge polygons — an unsampled
/// 39k-vertex boundary would make the filter cost more than the geometry
/// comparison it exists to avoid. The edges are consumed in one pass that
/// measures all four corners of `r2`, each of which ends two sides.
pub fn one_object_upper_bound(
    a_edges: impl IntoIterator<Item = Segment>,
    r2: &Rect,
    ub0: f64,
) -> f64 {
    let corners = r2.corners();
    let mut dist = [f64::INFINITY; 4];
    for e in a_edges {
        for (best, &q) in dist.iter_mut().zip(&corners) {
            *best = best.min(e.dist_point(q));
        }
    }
    let mut best = ub0;
    for i in 0..4 {
        let i1 = (i + 1) % 4;
        let side = (dist[i] + dist[i1] + corners[i].dist(corners[i1])) / 2.0;
        best = best.min(side);
    }
    best
}

/// Consecutive sampled edges under one block box: edges `8b .. 8b + 8` of
/// a [`Sample`] are block `b`.
pub const SAMPLE_BLOCK: usize = 8;

/// The most edges a [`Sample`] holds, so a polygon has at most eight block
/// boxes.
pub const MAX_SAMPLE_EDGES: usize = 8 * SAMPLE_BLOCK;

/// Every `step`-th edge of a polygon — edges `0, step, 2·step, …` — read
/// in place: what the 1-object filter knows of the object's boundary.
#[derive(Debug, Clone, Copy)]
pub struct Sample<'a> {
    poly: &'a Polygon,
    step: usize,
}

impl<'a> Sample<'a> {
    /// Every `step`-th edge of `poly`; panics unless `step ≥ 1` and that is
    /// at most [`MAX_SAMPLE_EDGES`] edges.
    pub fn strided(poly: &'a Polygon, step: usize) -> Self {
        assert!(step >= 1 && poly.vertex_count().div_ceil(step) <= MAX_SAMPLE_EDGES);
        Sample { poly, step }
    }

    pub fn edge_count(&self) -> usize {
        self.poly.vertex_count().div_ceil(self.step)
    }

    /// The `k`-th sampled edge.
    fn edge(&self, k: usize) -> Segment {
        self.poly.edge(k * self.step)
    }

    /// The sampled edges in order.
    pub fn edges(self) -> impl Iterator<Item = Segment> + 'a {
        (0..self.edge_count()).map(move |k| self.edge(k))
    }

    /// One box per [`SAMPLE_BLOCK`] sampled edges, widened by
    /// `8·ε·(its largest |coordinate|)` so that it holds every *rounded*
    /// [`Segment::closest_point`] on its edges, not just the real ones.
    ///
    /// That point is `a + (b − a)·t` in three roundings, each off by at
    /// most a relative `ε/2`, with `|a|, |b − a| ≤ 2M` for the box's largest
    /// coordinate `M`: it lands within `≈ 2.5·ε·M` of the segment, and the
    /// widening (an exact power-of-two multiple of `M`, then one more
    /// rounding) leaves three times that. A corner's squared distance to
    /// the box is then at most its [`Segment::dist2_point`] to each edge
    /// as `f64` values: each coordinate gap to the box is a subtraction
    /// from the same corner with a box side no farther than the point, and
    /// subtraction, squares of non-negatives and their sum round
    /// monotonically.
    pub fn block_boxes(self) -> impl Iterator<Item = Rect> + 'a {
        let n = self.edge_count();
        (0..n).step_by(SAMPLE_BLOCK).map(move |k| {
            let b = (k..(k + SAMPLE_BLOCK).min(n))
                .map(|k| self.edge(k).mbr())
                .fold(Rect::EMPTY, |b, m| b.union(&m));
            let m = b
                .xmin
                .abs()
                .max(b.xmax.abs())
                .max(b.ymin.abs())
                .max(b.ymax.abs());
            b.expanded(8.0 * f64::EPSILON * m)
        })
    }
}

/// The squared distance from `q` to the box `b` (0 inside).
fn box_dist2(b: &Rect, q: Point) -> f64 {
    let dx = (b.xmin - q.x).max(q.x - b.xmax).max(0.0);
    let dy = (b.ymin - q.y).max(q.y - b.ymax).max(0.0);
    dx * dx + dy * dy
}

/// What [`one_object_within_with`] did, summed over its calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OneObjectStats {
    pub calls: usize,
    /// Calls the side prune answered `false` before any box.
    pub pruned: usize,
    /// Calls the lower bound answered `false` with a block left unvisited.
    pub rejected: usize,
    /// Calls confirmed with a block left unvisited.
    pub confirmed_early: usize,
    /// Blocks measured.
    pub blocks: usize,
    /// Sampled edges measured.
    pub edges: usize,
}

/// Whether the 1-object bound confirms `d`: exactly
/// `one_object_upper_bound(sample.edges(), r2, ub0) <= d` for every
/// `ub0 > d` — the question the filter stage asks once the 0-object bound
/// has failed — answered by branch and bound over the sample's block
/// boxes, `blocks` (its [`Sample::block_boxes`]).
pub fn one_object_within(sample: Sample<'_>, blocks: &[Rect], r2: &Rect, d: f64) -> bool {
    one_object_within_with(sample, blocks, r2, d, &mut OneObjectStats::default())
}

/// [`one_object_within`], counting its work in `stats`.
///
/// * A side whose half-length exceeds `d` is never asked about: its term
///   `(d1 + d2 + len) / 2` is at least `len / 2`, because `d1, d2 ≥ 0` and
///   rounded addition and halving are monotone. With no side left the
///   answer is `false` before the first box.
/// * Each live corner's squared distance to each box is a lower bound on
///   its squared distance to every edge of the block (see
///   [`Sample::block_boxes`]). Blocks are visited nearest-first, by their
///   least such bound. Before each one, a corner's final squared distance
///   is at least the least of what is measured and the bounds of the
///   blocks left; a side whose term over those is `> d` can never confirm
///   (`sqrt`, `+` and `/2` are monotone), so it dies, and a corner stops
///   being measured once both of its sides are dead. With every side dead
///   the answer is `false`.
/// * The side terms only fall as blocks are measured, so a live term
///   `≤ d` after a block is the final answer.
///
/// The per-corner minima do not depend on the visit order, and a side only
/// dies when its final term is `> d`, so the verdict is the bound's.
/// The corner minima are kept squared and rooted once per look
/// (`√min(a, b) = min(√a, √b)`: `sqrt` is correctly rounded). Past
/// ≈ 1.34e154 a squared corner distance overflows and reads `∞` here where
/// the rooted form is finite: that can only withhold a confirm, never make
/// one.
pub fn one_object_within_with(
    sample: Sample<'_>,
    blocks: &[Rect],
    r2: &Rect,
    d: f64,
    stats: &mut OneObjectStats,
) -> bool {
    const MAX_BLOCKS: usize = MAX_SAMPLE_EDGES / SAMPLE_BLOCK;
    let nb = blocks.len();
    debug_assert_eq!(nb, sample.edge_count().div_ceil(SAMPLE_BLOCK));
    stats.calls += 1;
    let corners = r2.corners();
    // Side `i` joins corners `i` and `i + 1`; corner `c` ends sides `c - 1`
    // and `c`.
    let len: [f64; 4] = std::array::from_fn(|i| corners[i].dist(corners[(i + 1) % 4]));
    let mut live: [bool; 4] = std::array::from_fn(|i| len[i] / 2.0 <= d);
    if live == [false; 4] {
        stats.pruned += 1;
        return false;
    }
    let ends_live =
        |live: &[bool; 4]| -> [bool; 4] { std::array::from_fn(|c| live[c] || live[(c + 3) % 4]) };
    let term = |i: usize, root: &[f64; 4]| (root[i] + root[(i + 1) % 4] + len[i]) / 2.0;
    let mut measured = ends_live(&live);

    // Each block's bound at each measured corner, and the visit order.
    let mut lb = [[f64::INFINITY; 4]; MAX_BLOCKS];
    let mut key = [f64::INFINITY; MAX_BLOCKS];
    for (b, block) in blocks.iter().enumerate() {
        for c in (0..4).filter(|&c| measured[c]) {
            lb[b][c] = box_dist2(block, corners[c]);
            key[b] = key[b].min(lb[b][c]);
        }
    }
    let mut order = [0u8; MAX_BLOCKS];
    for k in 0..nb {
        let mut at = k;
        while at > 0 && key[order[at - 1] as usize] > key[k] {
            order[at] = order[at - 1];
            at -= 1;
        }
        order[at] = k as u8;
    }
    // `rest[k][c]`: the least bound at corner `c` over the blocks visited
    // from the `k`-th on.
    let mut rest = [[f64::INFINITY; 4]; MAX_BLOCKS + 1];
    for k in (0..nb).rev() {
        let b = order[k] as usize;
        rest[k] = std::array::from_fn(|c| rest[k + 1][c].min(lb[b][c]));
    }

    let mut dist2 = [f64::INFINITY; 4];
    for (k, &b) in order[..nb].iter().enumerate() {
        let low = std::array::from_fn(|c| dist2[c].min(rest[k][c]).sqrt());
        live = std::array::from_fn(|i| live[i] && term(i, &low) <= d);
        if live == [false; 4] {
            stats.rejected += 1;
            return false;
        }
        measured = ends_live(&live);
        let b = b as usize;
        let edges = b * SAMPLE_BLOCK..((b + 1) * SAMPLE_BLOCK).min(sample.edge_count());
        stats.blocks += 1;
        stats.edges += edges.len();
        for e in edges.map(|k| sample.edge(k)) {
            for c in 0..4 {
                if measured[c] {
                    dist2[c] = dist2[c].min(e.dist2_point(corners[c]));
                }
            }
        }
        let root = dist2.map(f64::sqrt);
        if (0..4).any(|i| live[i] && term(i, &root) <= d) {
            stats.confirmed_early += usize::from(k + 1 < nb);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_geom::{min_dist_brute, Point, Polygon};

    fn square(x: f64, y: f64, s: f64) -> Polygon {
        Polygon::from_coords(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
    }

    /// The bounds in their textbook form, kept as oracles: a root per
    /// endpoint pair of every side pair (64), and two boundary scans per
    /// side of `r2` (eight) under a 0-object bound computed from scratch.
    mod reference {
        use super::*;
        use spatial_geom::distance::point_boundary_min_dist;

        /// `distance` over the four endpoint pairs of two sides.
        fn seg_max_dist(
            a: (Point, Point),
            b: (Point, Point),
            distance: fn(Point, Point) -> f64,
        ) -> f64 {
            distance(a.0, b.0)
                .max(distance(a.0, b.1))
                .max(distance(a.1, b.0))
                .max(distance(a.1, b.1))
        }

        /// The 0-object bound with a `√(dx² + dy²)` per endpoint pair —
        /// `∞` where the square overflows, as the bound may stay.
        pub fn zero_object_upper_bound(r1: &Rect, r2: &Rect) -> f64 {
            zero_object_with(r1, r2, |p, q| p.dist2(q).sqrt())
        }

        /// ...and with [`Point::dist`], finite past the overflow line.
        pub fn zero_object_finite(r1: &Rect, r2: &Rect) -> f64 {
            zero_object_with(r1, r2, Point::dist)
        }

        fn zero_object_with(r1: &Rect, r2: &Rect, distance: fn(Point, Point) -> f64) -> f64 {
            let mut best = f64::INFINITY;
            for s1 in r1.sides() {
                for s2 in r2.sides() {
                    best = best.min(seg_max_dist(s1, s2, distance));
                }
            }
            best
        }

        pub fn one_object_upper_bound(a: &Polygon, a_edges: &[Segment], r2: &Rect) -> f64 {
            let mut best = zero_object_upper_bound(&a.mbr(), r2);
            for (q1, q2) in r2.sides() {
                let d1 = point_boundary_min_dist(q1, a_edges);
                let d2 = point_boundary_min_dist(q2, a_edges);
                let side = (d1 + d2 + q1.dist(q2)) / 2.0;
                best = best.min(side);
            }
            best
        }
    }

    /// The 1-object bound of `a` against `r2`, from all of `a`'s edges.
    fn one_object(a: &Polygon, r2: &Rect) -> f64 {
        one_object_upper_bound(a.edges(), r2, zero_object_upper_bound(&a.mbr(), r2))
    }

    /// The 90-rect battery: every x-range over coordinates whose squares
    /// round (thirds, 1e-7 offsets) or overflow (±1e154 apart), each with
    /// two y-ranges, one of them flat.
    fn rect_battery() -> Vec<Rect> {
        let coords = [
            -1e154,
            -7.0,
            -1.0 / 3.0,
            0.0,
            1e-7,
            0.1,
            2.0 / 3.0,
            5.0,
            1e154,
        ];
        let mut rects = Vec::new();
        for (i, &x0) in coords.iter().enumerate() {
            for &x1 in &coords[i..] {
                rects.push(Rect::new(x0, -0.3, x1, 0.7));
                rects.push(Rect::new(x0, x0 / 3.0, x1, x0 / 3.0));
            }
        }
        rects
    }

    fn battery_shapes() -> [Polygon; 3] {
        [
            square(0.0, 0.0, 2.0),
            Polygon::from_coords(&[(0.1, 0.0), (10.0, 1.0 / 3.0), (0.1, 0.1), (0.0, 10.0)]),
            Polygon::from_coords(&[(-3.0, 1e-7), (2.0 / 3.0, -5.0), (4.0, 0.1), (0.3, 7.0)]),
        ]
    }

    /// Squared distances and one root, one scan for four corners: the same
    /// `f64` bits as the reference on coordinates where sums of squares
    /// round or overflow to infinity, on degenerate MBRs, and at every
    /// relative placement. Where a square overflows the 0-object bound
    /// reads `∞`, at or above the finite textbook value: conservative.
    #[test]
    fn bounds_are_bit_identical_to_the_reference() {
        let rects = rect_battery();
        assert_eq!(rects.len(), 90);
        for r1 in &rects {
            for r2 in &rects {
                let ub0 = zero_object_upper_bound(r1, r2);
                assert_eq!(
                    ub0.to_bits(),
                    reference::zero_object_upper_bound(r1, r2).to_bits(),
                    "{r1:?} vs {r2:?}"
                );
                assert!(ub0 >= reference::zero_object_finite(r1, r2));
            }
        }
        for a in &battery_shapes() {
            let edges: Vec<Segment> = a.edges().collect();
            for r2 in rects.iter().filter(|r| r.xmin > -1e100 && r.xmax < 1e100) {
                assert_eq!(
                    one_object(a, r2).to_bits(),
                    reference::one_object_upper_bound(a, &edges, r2).to_bits(),
                    "{a:?} vs {r2:?}"
                );
                // ...and on a strided boundary subset, as the engine samples.
                let sample: Vec<Segment> = edges.iter().copied().step_by(2).collect();
                let ub0 = zero_object_upper_bound(&a.mbr(), r2);
                assert_eq!(
                    one_object_upper_bound(sample.iter().copied(), r2, ub0).to_bits(),
                    reference::one_object_upper_bound(a, &sample, r2).to_bits(),
                );
            }
        }
    }

    /// The side terms `(r[i] + r[i + 1] + len[i]) / 2` of the corner
    /// distances `r`, exactly and one ulp either side.
    fn push_terms(ds: &mut Vec<f64>, r2: &Rect, r: [f64; 4]) {
        let c = r2.corners();
        for i in 0..4 {
            let term = (r[i] + r[(i + 1) % 4] + c[i].dist(c[(i + 1) % 4])) / 2.0;
            ds.extend([term, term.next_up(), term.next_down()]);
        }
    }

    /// The distances at which `one_object_within(sample, blocks, r2, d)`
    /// can flip: each half side length; the side terms of each block's
    /// lower bounds; before each block of the visit order, the terms of
    /// the lower bounds its kill test uses, and after it the terms it
    /// measured; the oracle's own terms; 0, ∞, NaN.
    fn deciding_distances(sample: Sample<'_>, r2: &Rect) -> Vec<f64> {
        let c = r2.corners();
        let mut ds = vec![0.0, f64::INFINITY, f64::NAN];
        ds.extend((0..4).map(|i| c[i].dist(c[(i + 1) % 4]) / 2.0));
        let edges: Vec<Segment> = sample.edges().collect();
        let blocks: Vec<Rect> = sample.block_boxes().collect();
        let lb = |b: usize| c.map(|q| box_dist2(&blocks[b], q));
        for b in 0..blocks.len() {
            push_terms(&mut ds, r2, lb(b).map(f64::sqrt));
        }
        // Every corner is measured from the start: a side left by the
        // prune keeps both of its corners, and each corner ends one of
        // the two sides of equal length.
        let key = |b: usize| lb(b).into_iter().fold(f64::INFINITY, f64::min);
        let mut order: Vec<usize> = (0..blocks.len()).collect();
        order.sort_by(|&x, &y| key(x).total_cmp(&key(y)));
        let mut dist2 = [f64::INFINITY; 4];
        for (k, &b) in order.iter().enumerate() {
            let rest = order[k..]
                .iter()
                .map(|&u| lb(u))
                .fold([f64::INFINITY; 4], |m, l| {
                    std::array::from_fn(|i| m[i].min(l[i]))
                });
            push_terms(
                &mut ds,
                r2,
                std::array::from_fn(|i| dist2[i].min(rest[i]).sqrt()),
            );
            for e in &edges[b * SAMPLE_BLOCK..((b + 1) * SAMPLE_BLOCK).min(edges.len())] {
                dist2 = std::array::from_fn(|i| dist2[i].min(e.dist2_point(c[i])));
            }
            push_terms(&mut ds, r2, dist2.map(f64::sqrt));
        }
        let dist = c.map(|q| {
            edges
                .iter()
                .map(|e| e.dist_point(q))
                .fold(f64::INFINITY, f64::min)
        });
        push_terms(&mut ds, r2, dist);
        ds
    }

    /// What the 1-object checks saw: answers each way, calls the side
    /// prune settled before any box, calls the lower bound rejected and
    /// calls confirmed with a block left unvisited.
    #[derive(Default, Debug)]
    struct Seen {
        within: usize,
        not_within: usize,
        unscanned: usize,
        rejected: usize,
        early: usize,
    }

    impl Seen {
        /// `one_object_within(sample, blocks, r2, d)` against the oracle at
        /// `d` for `ub0` one ulp above `d`, at `∞` and at the pair's own
        /// 0-object bound `ub0_pair` when it exceeds `d`.
        fn check(&mut self, sample: Sample<'_>, blocks: &[Rect], r2: &Rect, d: f64, ub0_pair: f64) {
            let mut stats = OneObjectStats::default();
            let got = one_object_within_with(sample, blocks, r2, d, &mut stats);
            let mut ub0s = vec![f64::INFINITY, d.next_up()];
            if ub0_pair > d {
                ub0s.push(ub0_pair);
            }
            // No `ub0` exceeds `d = ∞` or NaN; there any `ub0` will do.
            let unbounded = d.is_nan() || d == f64::INFINITY;
            for ub0 in ub0s.into_iter().filter(|&ub0| ub0 > d || unbounded) {
                let bound = one_object_upper_bound(sample.edges(), r2, ub0);
                assert_eq!(got, bound <= d, "d = {d}, ub0 = {ub0}, {r2:?}, {sample:?}");
            }
            let c = r2.corners();
            if (0..4).all(|i| c[i].dist(c[(i + 1) % 4]) / 2.0 > d) {
                self.unscanned += 1;
            }
            self.rejected += stats.rejected;
            self.early += stats.confirmed_early;
            *if got {
                &mut self.within
            } else {
                &mut self.not_within
            } += 1;
        }

        /// Checks `sample` against every rect of `rects` at each of its
        /// deciding distances.
        fn check_all(&mut self, sample: Sample<'_>, rects: &[Rect]) {
            let blocks: Vec<Rect> = sample.block_boxes().collect();
            for r2 in rects {
                let ub0_pair = zero_object_upper_bound(&sample.poly.mbr(), r2);
                for d in deciding_distances(sample, r2) {
                    self.check(sample, &blocks, r2, d, ub0_pair);
                }
            }
        }
    }

    /// A ring of `n` vertices around `(1 + at, 2 + at)` whose radius cycles
    /// through three values: enough edges for several blocks.
    fn cog(n: usize, at: f64) -> Polygon {
        let ring: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let (r, a) = (
                    1.0 + (i % 3) as f64 / 3.0,
                    i as f64 * std::f64::consts::TAU / n as f64,
                );
                (1.0 + at + r * a.cos(), 2.0 + at + r * a.sin())
            })
            .collect();
        Polygon::from_coords(&ring)
    }

    /// Sample sizes on both sides of every block boundary, up to the cap.
    const SIZES: [usize; 8] = [3, 7, 8, 9, 16, 17, 63, 64];

    /// `one_object_within(s, ..) == (one_object_upper_bound(s, r2, ub0) <=
    /// d)` for every `ub0 > d`, on the 90-rect battery against the battery
    /// shapes and cogs of every size in [`SIZES`] and of 37 vertices (whole
    /// and strided, as the engine samples), at every distance where the
    /// answer can flip.
    #[test]
    fn one_object_within_answers_the_bound_at_every_deciding_distance() {
        let mut seen = Seen::default();
        let cogs = SIZES.iter().chain(&[37]).map(|&n| cog(n, 0.0));
        let shapes: Vec<Polygon> = battery_shapes().into_iter().chain(cogs).collect();
        let rects = rect_battery();
        for a in &shapes {
            for step in [1, 2] {
                seen.check_all(Sample::strided(a, step), &rects);
            }
        }
        assert!(
            seen.within > 10_000
                && seen.not_within > 10_000
                && seen.unscanned > 1000
                && seen.rejected > 1000
                && seen.early > 1000,
            "{seen:?}"
        );
    }

    /// ...and 1e6 and 1e12 away from the origin, where a rounded closest
    /// point can land outside its edge's MBR: the battery rects moved with
    /// the cogs, the distance at each tie.
    #[test]
    fn one_object_within_answers_the_bound_far_from_the_origin() {
        let mut seen = Seen::default();
        for at in [1e6, 1e12] {
            let rects: Vec<Rect> = rect_battery()
                .iter()
                .filter(|r| r.xmin > -1e100 && r.xmax < 1e100)
                .map(|r| Rect::new(r.xmin + at, r.ymin + at, r.xmax + at, r.ymax + at))
                .collect();
            for n in SIZES {
                seen.check_all(Sample::strided(&cog(n, at), 1), &rects);
            }
        }
        assert!(
            seen.within > 1000 && seen.not_within > 1000 && seen.rejected > 100,
            "{seen:?}"
        );
    }

    /// ...and where a rounded closest point leaves its edge's MBR: on the
    /// edge `(1, 0)–(1e-20, 1)`, `b − a` rounds to `(−1, 1)`, so the point
    /// nearest `(−1e-20, 1)` comes out as `(0, 1)`, 1e-20 away, while the
    /// MBR is 2e-20 away. The degenerate MBRs there confirm at `d = 1e-20`
    /// only if the block box holds the rounded point.
    #[test]
    fn one_object_within_answers_the_bound_where_closest_points_round() {
        let a = Polygon::from_coords(&[(1.0, 0.0), (1e-20, 1.0), (1e-20, 2.0)]);
        let rects = [
            Rect::new(-1e-20, 1.0, -1e-20, 1.0),
            Rect::new(-1e-20, 1.0, -1e-20, 1.0 + 1e-20),
            Rect::new(-3e-20, 1.0, -1e-20, 1.0),
        ];
        let mut seen = Seen::default();
        seen.check_all(Sample::strided(&a, 1), &rects);
        assert!(seen.within > 0 && seen.not_within > 0, "{seen:?}");
        let blocks: Vec<Rect> = Sample::strided(&a, 1).block_boxes().collect();
        assert!(one_object_within(
            Sample::strided(&a, 1),
            &blocks,
            &rects[0],
            1e-20
        ));
    }

    /// The rounding claim of [`Sample::block_boxes`] on its own: a corner's
    /// squared distance to a block box is at most its `dist2_point` to
    /// every edge of the block, as `f64` values, at every scale — on cogs
    /// moved far from the origin and on a triangle whose `b − a` rounds
    /// (`1e-20 − 1 = −1`), so its rounded closest points leave the MBR.
    #[test]
    fn block_boxes_bound_every_rounded_edge_distance() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut unit = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut shapes = vec![Polygon::from_coords(&[
            (1.0, 0.0),
            (1e-20, 1.0),
            (1e-20, 2.0),
        ])];
        for at in [0.0f64, 1e6, 1e12, -1e15, 1e150] {
            let scale = if at == 0.0 { 1.0 } else { at.abs() * 1e-9 };
            for n in SIZES {
                let moved: Vec<(f64, f64)> = cog(n, 0.0)
                    .vertices()
                    .iter()
                    .map(|v| (at + v.x * scale, at + v.y * scale))
                    .collect();
                shapes.push(Polygon::from_coords(&moved));
            }
        }
        let mut outside = 0;
        for a in &shapes {
            let (m, c) = (a.mbr(), a.mbr().center());
            let r = m.width().max(m.height());
            let sample = Sample::strided(a, 1);
            let edges: Vec<Segment> = sample.edges().collect();
            for (block, edges) in sample.block_boxes().zip(edges.chunks(SAMPLE_BLOCK)) {
                let mbr = edges.iter().fold(Rect::EMPTY, |m, e| m.union(&e.mbr()));
                for _ in 0..200 {
                    let q = Point::new(
                        c.x + (unit() * 4.0 - 2.0) * r,
                        c.y + (unit() * 4.0 - 2.0) * r,
                    );
                    for e in edges {
                        assert!(box_dist2(&block, q) <= e.dist2_point(q), "{e:?} {q:?}");
                        outside += usize::from(!mbr.contains_point(e.closest_point(q)));
                    }
                }
            }
        }
        // The widening is needed: rounded closest points do leave the MBR.
        assert!(outside > 0);
    }

    proptest::proptest! {
        /// ...and on random MBRs against random rings sampled at a random
        /// stride.
        #[test]
        fn one_object_within_answers_the_bound_on_random_rings(
            (x2, y2, w2, h2) in (-100.0f64..100.0, -100.0f64..100.0, 0.0f64..50.0, 0.0f64..50.0),
            ring in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..40),
            step in 1usize..5,
        ) {
            let r2 = Rect::new(x2, y2, x2 + w2, y2 + h2);
            let a = Polygon::from_coords(&ring);
            Seen::default().check_all(Sample::strided(&a, step), &[r2]);
        }
    }

    proptest::proptest! {
        /// The same bit-identity on continuous coordinates: random MBR
        /// pairs, and random vertex rings (any ring is a valid edge set)
        /// sampled at a random stride.
        #[test]
        fn bounds_match_the_reference_bit_for_bit(
            (x1, y1, w1, h1) in (-100.0f64..100.0, -100.0f64..100.0, 0.0f64..50.0, 0.0f64..50.0),
            (x2, y2, w2, h2) in (-100.0f64..100.0, -100.0f64..100.0, 0.0f64..50.0, 0.0f64..50.0),
            ring in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..40),
            step in 1usize..5,
        ) {
            let r1 = Rect::new(x1, y1, x1 + w1, y1 + h1);
            let r2 = Rect::new(x2, y2, x2 + w2, y2 + h2);
            proptest::prop_assert_eq!(
                zero_object_upper_bound(&r1, &r2).to_bits(),
                reference::zero_object_upper_bound(&r1, &r2).to_bits()
            );
            let a = Polygon::from_coords(&ring);
            let sample: Vec<Segment> = a.edges().step_by(step).collect();
            let ub0 = zero_object_upper_bound(&a.mbr(), &r2);
            proptest::prop_assert_eq!(
                one_object_upper_bound(sample.iter().copied(), &r2, ub0).to_bits(),
                reference::one_object_upper_bound(&a, &sample, &r2).to_bits()
            );
        }
    }

    #[test]
    fn zero_object_on_aligned_squares() {
        // Unit squares 3 apart in x: facing sides are (1,0)-(1,1) and
        // (4,0)-(4,1); their max endpoint distance is sqrt(9 + 1).
        let r1 = Rect::new(0.0, 0.0, 1.0, 1.0);
        let r2 = Rect::new(4.0, 0.0, 5.0, 1.0);
        let ub = zero_object_upper_bound(&r1, &r2);
        assert!((ub - 10.0f64.sqrt()).abs() < 1e-12, "got {ub}");
    }

    #[test]
    fn zero_object_is_an_upper_bound() {
        let a = square(0.0, 0.0, 2.0);
        let b = square(5.0, 1.0, 3.0);
        let ub = zero_object_upper_bound(&a.mbr(), &b.mbr());
        assert!(ub >= min_dist_brute(&a, &b));
    }

    #[test]
    fn one_object_tightens_zero_object() {
        // A spiky polygon whose MBR is mostly empty: the 1-object bound
        // (which sees the actual boundary) must be no worse.
        let spiky = Polygon::from_coords(&[
            (0.0, 0.0),
            (10.0, 0.0),
            (0.1, 0.1), // deep concavity: MBR is mostly empty space
            (0.0, 10.0),
        ]);
        let other = square(20.0, 0.0, 2.0);
        let ub0 = zero_object_upper_bound(&spiky.mbr(), &other.mbr());
        let ub1 = one_object(&spiky, &other.mbr());
        assert!(ub1 <= ub0, "1-object {ub1} must not exceed 0-object {ub0}");
        assert!(
            ub1 >= min_dist_brute(&spiky, &other),
            "still an upper bound"
        );
    }

    #[test]
    fn bounds_confirm_touching_squares() {
        // Two adjacent unit squares: distance 0; both bounds stay small
        // enough to confirm reasonable query distances.
        let a = square(0.0, 0.0, 1.0);
        let b = square(1.0, 0.0, 1.0);
        let ub0 = zero_object_upper_bound(&a.mbr(), &b.mbr());
        // Shared side: maxDist of the coincident sides is the side length.
        assert!(ub0 <= 2.0f64.sqrt() + 1e-12);
        let ub1 = one_object(&a, &b.mbr());
        assert!(ub1 <= ub0);
        assert!(ub1 >= 0.0);
    }

    #[test]
    fn upper_bounds_on_battery_of_pairs() {
        // Deterministic battery: bounds must always dominate the true
        // distance.
        let shapes: Vec<Polygon> = (0..6)
            .map(|i| {
                let x = i as f64 * 4.0;
                Polygon::from_coords(&[
                    (x, 0.0),
                    (x + 2.0, 0.5),
                    (x + 3.0, 2.5),
                    (x + 1.0, 3.0),
                    (x + 0.2, 1.5),
                ])
            })
            .collect();
        for i in 0..shapes.len() {
            for j in (i + 1)..shapes.len() {
                let (a, b) = (&shapes[i], &shapes[j]);
                let true_d = min_dist_brute(a, b);
                let ub0 = zero_object_upper_bound(&a.mbr(), &b.mbr());
                let ub1 = one_object(a, &b.mbr());
                assert!(ub0 + 1e-9 >= true_d, "0-object violated: {ub0} < {true_d}");
                assert!(ub1 + 1e-9 >= true_d, "1-object violated: {ub1} < {true_d}");
                assert!(ub1 <= ub0 + 1e-9, "1-object must cap at 0-object");
            }
        }
    }
}
