//! Filled-polygon rasterization (§2.2.3): pixel-center rule.
//!
//! The spec's two rules: (1) a pixel is colored only if its center lies
//! inside the polygon; (2) a pixel center on a *shared* edge of two
//! polygons is colored exactly once. The half-open crossing rule delivers
//! both. Hardware only fills convex polygons, so `hwa-core`'s
//! filled-polygon ablation triangulates first and feeds triangles here.
//!
//! One fill emits a pixel at most once: a scanline's sorted crossings pair
//! up into half-open column intervals `[x0, x1)` with `x1 ≤` the next
//! pair's `x0`, the first and one-past-last pixel of an interval are the
//! same monotone function of its two ends, and every scanline is visited
//! once. So the caller may write each fragment as it arrives, in any write
//! mode: there is nothing for a per-draw-call deduplication to remove.

use crate::cover::candidate_range;
use crate::stats::HwStats;
use spatial_geom::Point;

/// Scanline-fills a convex or concave simple polygon given by `vertices`
/// (window coordinates, either winding, the closing edge implied). Pixels
/// are emitted when their center `(i + ½, j + ½)` is inside under the
/// half-open crossing rule (edges owned downward: a center exactly on a
/// shared edge belongs to exactly one of the two polygons). Fewer than
/// three vertices emit nothing.
#[inline]
pub fn rasterize_polygon(
    vertices: impl IntoIterator<Item = Point>,
    width: usize,
    height: usize,
    stats: &mut HwStats,
    sink: &mut impl FnMut(usize, usize),
) {
    // One walk over the vertices — the caller projects them on the way in —
    // finds the scanlines the polygon spans and keeps the edges that can
    // cross a scanline center of the window: an edge with both end points
    // above the last center, or neither above the first, satisfies the
    // crossing rule below on no scanline (same strict `>`, so NaN drops
    // out the same way). Crossings are sorted per scanline, so edge order
    // is free.
    let (y_first, y_last) = (0.5, height as f64 - 0.5);
    let mut live: Vec<(Point, Point)> = Vec::new();
    let mut edge = |a: Point, b: Point| {
        if !(a.y > y_last && b.y > y_last) && (a.y > y_first || b.y > y_first) {
            live.push((a, b));
        }
    };
    let mut vertices = vertices.into_iter();
    let Some(first) = vertices.next() else {
        return;
    };
    let (mut last, mut count) = (first, 1);
    let (mut ymin, mut ymax) = (first.y, first.y);
    for v in vertices {
        edge(last, v);
        (last, count) = (v, count + 1);
        ymin = ymin.min(v.y);
        ymax = ymax.max(v.y);
    }
    edge(last, first);
    // A center above `ymax` has no end point above it: no crossing.
    let Some(rows) = candidate_range(ymin, ymax, height).filter(|_| count >= 3) else {
        return;
    };
    let mut xs: Vec<f64> = Vec::with_capacity(8);

    for j in rows {
        let yc = j as f64 + 0.5;
        xs.clear();
        for &(a, b) in &live {
            // Half-open rule: the edge spans the scanline when exactly one
            // endpoint is strictly above it.
            if (a.y > yc) != (b.y > yc) {
                let t = (yc - a.y) / (b.y - a.y);
                xs.push(a.x + t * (b.x - a.x));
            }
        }
        xs.sort_unstable_by(|p, q| p.total_cmp(q));
        // Fill between crossing pairs, half-open in x: centers in [x0, x1).
        for pair in xs.chunks_exact(2) {
            let (x0, x1) = (pair[0], pair[1]);
            // Smallest i with i + 0.5 >= x0, largest i with i + 0.5 < x1.
            let i_lo = ((x0 - 0.5).ceil() as i64).max(0);
            // (Saturating: a crossing below `i64::MIN` must stay left of
            // the window, not wrap around to its right edge.)
            let i_hi = ((x1 - 0.5).ceil() as i64)
                .saturating_sub(1)
                .min(width as i64 - 1);
            if i_lo <= i_hi {
                stats.fragments_tested += (i_hi - i_lo + 1) as usize;
                for i in i_lo..=i_hi {
                    sink(i as usize, j);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(coords: &[(f64, f64)], win: usize) -> Vec<(usize, usize)> {
        let pts: Vec<Point> = coords.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut out = Vec::new();
        let mut st = HwStats::default();
        rasterize_polygon(pts, win, win, &mut st, &mut |x, y| out.push((x, y)));
        out.sort_unstable();
        out
    }

    #[test]
    fn pixel_aligned_square_fills_exactly() {
        // Square [1,3]²: centers (1.5,1.5), (1.5,2.5), (2.5,1.5), (2.5,2.5).
        let px = collect(&[(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)], 4);
        assert_eq!(px, vec![(1, 1), (1, 2), (2, 1), (2, 2)]);
    }

    #[test]
    fn center_rule_excludes_partial_pixels() {
        // Square [1.6, 2.4]²: only the center (2.5, 2.5)? No — (2.5 > 2.4)
        // so *no* pixel center falls inside: nothing is filled. The paper's
        // point that polygon fill is not conservative.
        let px = collect(&[(1.6, 1.6), (2.4, 1.6), (2.4, 2.4), (1.6, 2.4)], 4);
        assert!(px.is_empty(), "got {px:?}");
    }

    #[test]
    fn shared_edge_fills_exactly_once() {
        // Two rectangles sharing the edge x = 2, which passes through no
        // pixel centers... make it x = 2.5 (through centers of column 2).
        let left = collect(&[(0.0, 0.0), (2.5, 0.0), (2.5, 4.0), (0.0, 4.0)], 4);
        let right = collect(&[(2.5, 0.0), (4.0, 0.0), (4.0, 4.0), (2.5, 4.0)], 4);
        let mut both = left.clone();
        both.extend(right.iter().copied());
        let total = both.len();
        both.sort_unstable();
        both.dedup();
        assert_eq!(total, both.len(), "shared-edge pixels double-filled");
        // Column 2 centers (x = 2.5) belong to exactly one side.
        let col2: Vec<_> = both.iter().filter(|&&(x, _)| x == 2).collect();
        assert_eq!(col2.len(), 4);
    }

    #[test]
    fn triangle_fill() {
        let px = collect(&[(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)], 4);
        assert!(px.contains(&(0, 0)));
        assert!(px.contains(&(1, 1)));
        assert!(!px.contains(&(3, 3)), "outside the hypotenuse");
    }

    #[test]
    fn concave_polygon_fill() {
        // C-shape: pocket column must stay empty.
        let px = collect(
            &[
                (0.0, 0.0),
                (4.0, 0.0),
                (4.0, 1.0),
                (1.0, 1.0),
                (1.0, 3.0),
                (4.0, 3.0),
                (4.0, 4.0),
                (0.0, 4.0),
            ],
            4,
        );
        assert!(px.contains(&(0, 2)), "spine filled");
        assert!(px.contains(&(3, 0)), "bottom arm filled");
        assert!(px.contains(&(3, 3)), "top arm filled");
        assert!(!px.contains(&(2, 2)), "pocket must stay empty");
        assert!(!px.contains(&(3, 1)), "pocket row above bottom arm");
    }

    #[test]
    fn winding_invariance() {
        let ccw = collect(&[(0.0, 0.0), (3.0, 0.0), (3.0, 3.0), (0.0, 3.0)], 4);
        let cw = collect(&[(0.0, 0.0), (0.0, 3.0), (3.0, 3.0), (3.0, 0.0)], 4);
        assert_eq!(ccw, cw);
    }

    #[test]
    fn clipping_to_window() {
        let px = collect(&[(-5.0, -5.0), (10.0, -5.0), (10.0, 10.0), (-5.0, 10.0)], 3);
        assert_eq!(px.len(), 9, "entire 3×3 window filled");
    }

    #[test]
    fn degenerate_input_is_ignored() {
        let pts = [Point::new(0.0, 0.0), Point::new(1.0, 1.0)];
        let mut st = HwStats::default();
        let mut hits = 0;
        rasterize_polygon(pts, 4, 4, &mut st, &mut |_, _| hits += 1);
        assert_eq!(hits, 0);
    }
}
