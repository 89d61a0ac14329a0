//! Low-level distance kernels shared by the `minDist` machinery and the
//! 0/1-object filters.

use crate::point::Point;
use crate::rect::Rect;
use crate::segment::Segment;

/// Consecutive `eq` edges whose MBRs [`edges_within_pairwise`] unions into
/// one block box: one box compare stands in for this many pair compares.
pub const PAIR_BLOCK: usize = 8;

/// Minimum distance between a point and a polygon *boundary* (not interior).
pub fn point_boundary_min_dist(p: Point, edges: &[Segment]) -> f64 {
    edges
        .iter()
        .map(|e| e.dist_point(p))
        .fold(f64::INFINITY, f64::min)
}

/// Minimum distance between two edge sets with MBR-based pruning.
///
/// `upper` is an initial upper bound (use `f64::INFINITY` when unknown); the
/// scan skips pairs whose MBR distance already exceeds the current best.
pub fn edges_min_dist(ep: &[Segment], eq: &[Segment], upper: f64) -> f64 {
    let mut best = upper;
    // Precompute MBRs once; the inner loop runs |ep|·|eq| times.
    let eq_mbrs: Vec<Rect> = eq.iter().map(|e| e.mbr()).collect();
    for sp in ep {
        let mp = sp.mbr();
        for (sq, mq) in eq.iter().zip(eq_mbrs.iter()) {
            if mp.min_dist(mq) >= best {
                continue;
            }
            let d = sp.dist_segment(sq);
            if d < best {
                best = d;
                if best == 0.0 {
                    return 0.0;
                }
            }
        }
    }
    best
}

/// Pairwise within-distance detection — the *paper's* refinement kernel:
/// Chan's `minDist` compares the (clipped) frontier chains pair by pair,
/// pruning by segment-MBR distance and returning as soon as any pair
/// comes within `d` (the paper's first optimization, §4.1.1).
///
/// It visits the paper's pairs in the paper's order — `ep` outer, `eq`
/// inner — and returns at the same first pair within `d`; what it skips
/// is only what the per-pair prefilter would have rejected. Each
/// [`PAIR_BLOCK`] consecutive `eq` MBRs are unioned into a block box
/// once per call, and a block whose box is farther than `d` from the
/// `ep` edge's MBR is passed over on one compare: the box contains each
/// of its edges' MBRs and `Rect::min_dist` is monotone under containment
/// (DESIGN.md invariant 4), so no pair in it passes the prefilter.
///
/// On `join-sw` (`--bin diag --scale 0.02`) the flat form of this kernel
/// was 15–48 % of the software distance test, reaching its exact segment
/// test only 1.5–4.9 times a call: the rest was 381 / 1 404 per-pair MBR
/// compares a call (LANDC ⋈ LANDO / WATER ⋈ PRISM), which the block boxes
/// turn into 49 / 180 box compares and 5 / 13 pair compares
/// (EXPERIMENTS.md "Distance bounds").
pub fn edges_within_pairwise(ep: &[Segment], eq: &[Segment], d: f64) -> bool {
    edges_within_pairwise_in(ep, eq, d, &mut Vec::new())
}

/// [`edges_within_pairwise`] with its boxes in `boxes`, whose contents it
/// replaces.
pub(crate) fn edges_within_pairwise_in(
    ep: &[Segment],
    eq: &[Segment],
    d: f64,
    boxes: &mut Vec<Rect>,
) -> bool {
    if ep.is_empty() || eq.is_empty() {
        return false;
    }
    // One buffer: the `eq` edge MBRs, then one box per block of them.
    boxes.clear();
    boxes.extend(eq.iter().map(Segment::mbr));
    for k in (0..eq.len()).step_by(PAIR_BLOCK) {
        let block = boxes[k..(k + PAIR_BLOCK).min(eq.len())]
            .iter()
            .fold(Rect::EMPTY, |b, m| b.union(m));
        boxes.push(block);
    }
    let (eq_mbrs, blocks) = boxes.split_at(eq.len());
    for sp in ep {
        let mp = sp.mbr();
        for ((sqs, mqs), block) in eq
            .chunks(PAIR_BLOCK)
            .zip(eq_mbrs.chunks(PAIR_BLOCK))
            .zip(blocks)
        {
            if mp.min_dist(block) > d {
                continue;
            }
            for (sq, mq) in sqs.iter().zip(mqs) {
                if mp.min_dist(mq) <= d && sp.dist_segment(sq) <= d {
                    return true;
                }
            }
        }
    }
    false
}

/// Forward-sweep within-distance detection between two edge sets: returns
/// `true` as soon as any pair comes within `d` (closed: exactly `d` counts).
///
/// A modern improvement over the paper's pairwise kernel (near-linear for
/// GIS edge sets): edges are processed in x order and compared only when
/// their x-ranges come within `d`. Kept as an ablation — the figure
/// benches use [`edges_within_pairwise`] to stay faithful to the paper's
/// software baseline.
pub fn edges_within_sweep(ep: &[Segment], eq: &[Segment], d: f64) -> bool {
    if ep.is_empty() || eq.is_empty() {
        return false;
    }
    #[derive(Clone, Copy)]
    struct Entry {
        xmax: f64,
        ymin: f64,
        ymax: f64,
        idx: u32,
    }
    let mut order: Vec<(f64, bool, u32)> = Vec::with_capacity(ep.len() + eq.len());
    for (i, s) in ep.iter().enumerate() {
        order.push((s.a.x.min(s.b.x), false, i as u32));
    }
    for (i, s) in eq.iter().enumerate() {
        order.push((s.a.x.min(s.b.x), true, i as u32));
    }
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));

    let mut active_p: Vec<Entry> = Vec::new();
    let mut active_q: Vec<Entry> = Vec::new();

    for &(x, is_q, idx) in &order {
        let (seg, others, own, other_set) = if is_q {
            (&eq[idx as usize], ep, &mut active_q, &mut active_p)
        } else {
            (&ep[idx as usize], eq, &mut active_p, &mut active_q)
        };
        let (ymin, ymax) = if seg.a.y <= seg.b.y {
            (seg.a.y, seg.b.y)
        } else {
            (seg.b.y, seg.a.y)
        };
        // Expire opposite-set edges that ended more than d before the front.
        other_set.retain(|e| e.xmax >= x - d);
        for e in other_set.iter() {
            if e.ymin - d <= ymax
                && ymin <= e.ymax + d
                && seg.dist_segment(&others[e.idx as usize]) <= d
            {
                return true;
            }
        }
        own.push(Entry {
            xmax: seg.a.x.max(seg.b.x),
            ymin,
            ymax,
            idx,
        });
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn point_boundary_distance() {
        let edges = vec![seg(0.0, 0.0, 4.0, 0.0), seg(4.0, 0.0, 4.0, 4.0)];
        assert_eq!(point_boundary_min_dist(Point::new(2.0, 3.0), &edges), 2.0);
        assert_eq!(
            point_boundary_min_dist(Point::new(2.0, 3.0), &[]),
            f64::INFINITY
        );
    }

    #[test]
    fn edges_min_dist_parallel_sets() {
        let a = vec![seg(0.0, 0.0, 10.0, 0.0)];
        let b = vec![seg(0.0, 3.0, 10.0, 3.0), seg(0.0, 7.0, 10.0, 7.0)];
        assert_eq!(edges_min_dist(&a, &b, f64::INFINITY), 3.0);
    }

    #[test]
    fn edges_min_dist_respects_upper_bound() {
        let a = vec![seg(0.0, 0.0, 1.0, 0.0)];
        let b = vec![seg(0.0, 5.0, 1.0, 5.0)];
        // With an upper bound below the true distance, the bound is returned
        // (callers use this as "nothing closer than upper exists").
        assert_eq!(edges_min_dist(&a, &b, 2.0), 2.0);
        assert_eq!(edges_min_dist(&a, &b, f64::INFINITY), 5.0);
    }

    /// The pairwise kernel as it was before the block boxes: every pair's
    /// MBR compared, kept as the oracle of the blocked one.
    fn flat_pairwise(ep: &[Segment], eq: &[Segment], d: f64) -> bool {
        let eq_mbrs: Vec<Rect> = eq.iter().map(|e| e.mbr()).collect();
        for sp in ep {
            let mp = sp.mbr();
            for (sq, mq) in eq.iter().zip(eq_mbrs.iter()) {
                if mp.min_dist(mq) <= d && sp.dist_segment(sq) <= d {
                    return true;
                }
            }
        }
        false
    }

    /// A polyline of `n` edges from `start`: steps of -3..=3 grid units
    /// (zero steps re-drawn), scaled by `unit` — a grid chain for `unit = 1`
    /// (axis-parallel edges, collinear runs, exact ties between an edge-MBR
    /// gap and a segment distance), a continuous one otherwise.
    fn chain(rng: &mut u64, start: Point, n: usize, unit: f64) -> Vec<Segment> {
        let mut next = || {
            // xorshift64*: deterministic, no dependency.
            *rng ^= *rng >> 12;
            *rng ^= *rng << 25;
            *rng ^= *rng >> 27;
            rng.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33
        };
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
            let (sx, sy) = (next(), next());
            let step = Point::new(
                ((sx % 7) as f64 - 3.0 + jitter(sx >> 8)) * unit,
                ((sy % 7) as f64 - 3.0 + jitter(sy >> 8)) * unit,
            );
            if step == Point::ORIGIN {
                continue;
            }
            out.push(Segment::new(at, at + step));
            at = at + step;
        }
        out
    }

    /// The blocked kernel against the flat one on random grid and
    /// continuous chains with `|eq|` on both sides of every block boundary,
    /// at every distance where a prune decision can flip — each edge-MBR
    /// gap, each block-box gap, each exact segment distance — and at
    /// `0`, `∞` and NaN.
    #[test]
    fn blocked_pairwise_kernel_matches_the_flat_one() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let (mut hits, mut misses) = (0usize, 0usize);
        for round in 0..40 {
            let unit = if round % 2 == 0 { 1.0 } else { 0.37 };
            for m in [1, 7, 8, 9, 16, 17] {
                let n = 1 + round % 6;
                let ep = chain(&mut rng, Point::new(0.0, 0.0), n, unit);
                let offset = Point::new(3.0 + (round % 4) as f64, (round % 3) as f64 - 1.0);
                let eq = chain(&mut rng, offset * unit, m, unit);
                let mut ds = vec![0.0, f64::INFINITY, f64::NAN];
                for sp in &ep {
                    let mp = sp.mbr();
                    for chunk in eq.chunks(PAIR_BLOCK) {
                        let block = chunk.iter().fold(Rect::EMPTY, |b, e| b.union(&e.mbr()));
                        ds.push(mp.min_dist(&block));
                        for sq in chunk {
                            ds.push(mp.min_dist(&sq.mbr()));
                            ds.push(sp.dist_segment(sq));
                        }
                    }
                }
                for d in ds {
                    let expected = flat_pairwise(&ep, &eq, d);
                    assert_eq!(
                        edges_within_pairwise(&ep, &eq, d),
                        expected,
                        "round {round}, |eq| = {m}, d = {d}"
                    );
                    if expected {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
            }
        }
        assert!(hits > 1000 && misses > 1000, "{hits} hits, {misses} misses");
    }

    /// The hit that decides a blocked call can sit in the last block, alone
    /// at exactly `d`, where the block's box is no closer than its edge.
    #[test]
    fn blocked_pairwise_kernel_reaches_the_last_block_at_exactly_d() {
        let ep = [seg(0.0, 0.0, 0.0, 1.0)];
        for m in [1, 7, 8, 9, 16, 17] {
            // Far edges, then one at x = 2 in the last block.
            let mut eq: Vec<Segment> = (0..m - 1)
                .map(|i| seg(10.0 + i as f64, 5.0, 11.0 + i as f64, 5.0))
                .collect();
            eq.push(seg(2.0, 0.0, 2.0, 1.0));
            assert!(edges_within_pairwise(&ep, &eq, 2.0), "|eq| = {m}");
            assert!(!edges_within_pairwise(&ep, &eq, 2.0f64.next_down()));
            assert!(flat_pairwise(&ep, &eq, 2.0));
        }
    }

    #[test]
    fn within_sweep_basic() {
        let a = vec![seg(0.0, 0.0, 10.0, 0.0)];
        let b = vec![seg(0.0, 3.0, 10.0, 3.0)];
        assert!(edges_within_sweep(&a, &b, 3.0)); // closed: exactly d counts
        assert!(edges_within_sweep(&a, &b, 4.0));
        assert!(!edges_within_sweep(&a, &b, 2.9));
    }

    #[test]
    fn within_sweep_x_separated() {
        let a = vec![seg(0.0, 0.0, 1.0, 0.0)];
        let b = vec![seg(4.0, 0.0, 5.0, 0.0)];
        assert!(edges_within_sweep(&a, &b, 3.0));
        assert!(!edges_within_sweep(&a, &b, 2.5));
    }

    #[test]
    fn within_sweep_agrees_with_min_dist_on_grid() {
        // A small deterministic battery of segment placements.
        let mut segs = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                segs.push(seg(
                    i as f64,
                    j as f64,
                    i as f64 + 0.8,
                    j as f64 + (i as f64) * 0.3,
                ));
            }
        }
        let (a, b) = segs.split_at(8);
        let true_min = edges_min_dist(a, b, f64::INFINITY);
        for &d in &[0.1, 0.5, 1.0, 2.0, 5.0] {
            assert_eq!(
                edges_within_sweep(a, b, d),
                true_min <= d,
                "d = {d}, true_min = {true_min}"
            );
        }
    }

    #[test]
    fn within_sweep_empty() {
        let a = vec![seg(0.0, 0.0, 1.0, 0.0)];
        assert!(!edges_within_sweep(&a, &[], 10.0));
        assert!(!edges_within_sweep(&[], &a, 10.0));
    }
}
