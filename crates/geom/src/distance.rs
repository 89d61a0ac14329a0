//! Low-level distance kernels shared by the `minDist` machinery and the
//! 0/1-object filters.

use crate::point::Point;
use crate::rect::Rect;
use crate::segment::Segment;

/// Minimum distance from a segment to a rectangle (0 when they intersect).
///
/// Used as the pruning lower bound when scanning frontier-chain edges: if
/// `seg_rect_min_dist(e, mbr(Q)) > D`, edge `e` cannot participate in any
/// within-distance-`D` pair.
pub fn seg_rect_min_dist(seg: &Segment, rect: &Rect) -> f64 {
    if rect.contains_point(seg.a) || rect.contains_point(seg.b) {
        return 0.0;
    }
    // If the segment crosses the rectangle boundary the distance is 0.
    let mut best = f64::INFINITY;
    for (a, b) in rect.sides() {
        let side = Segment::new(a, b);
        let d = seg.dist_segment(&side);
        if d == 0.0 {
            return 0.0;
        }
        best = best.min(d);
    }
    best
}

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
/// Quadratic in the chain lengths for true negatives in the worst case,
/// but the clipped chains it is handed are short: measured on `join-sw`
/// (`--bin diag`, EXPERIMENTS.md "Honest software baseline") this kernel
/// was 4–16 % of the software distance test while *finding* the chains it
/// is handed was 26–42 %; with the chains found for free it is 8–31 %,
/// still less than the frontier clip that feeds it. It is not the cost
/// the hardware distance filter saves.
pub fn edges_within_pairwise(ep: &[Segment], eq: &[Segment], d: f64) -> bool {
    if ep.is_empty() || eq.is_empty() {
        return false;
    }
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
    fn seg_rect_inside_and_crossing() {
        let r = Rect::new(0.0, 0.0, 4.0, 4.0);
        assert_eq!(seg_rect_min_dist(&seg(1.0, 1.0, 2.0, 2.0), &r), 0.0); // inside
        assert_eq!(seg_rect_min_dist(&seg(-1.0, 2.0, 5.0, 2.0), &r), 0.0); // crossing
    }

    #[test]
    fn seg_rect_outside() {
        let r = Rect::new(0.0, 0.0, 4.0, 4.0);
        assert_eq!(seg_rect_min_dist(&seg(6.0, 0.0, 6.0, 4.0), &r), 2.0);
        assert_eq!(seg_rect_min_dist(&seg(7.0, 8.0, 9.0, 10.0), &r), 5.0);
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
