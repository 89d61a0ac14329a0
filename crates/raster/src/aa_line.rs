//! Anti-aliased wide-line rasterization (§2.2.2, Fig. 4) — the load-bearing
//! primitive of the hardware segment test.
//!
//! An anti-aliased line of width `w` is rasterized through its *bounding
//! rectangle*: two edges parallel to the segment at distance `w/2`, two
//! perpendicular edges through the end points. Real hardware assigns each
//! touched pixel an alpha equal to its coverage fraction; with **blending
//! disabled** (the paper's configuration) the alpha is ignored and every
//! pixel with non-zero coverage receives the full line color.
//!
//! That yields the conservativeness guarantee of Algorithm 3.1: "with
//! anti-aliasing enabled, every pixel that intersects the line segment is
//! colored, therefore if two line segments intersect, there exists at least
//! one pixel that is colored twice." We implement coverage exactly as
//! "pixel square ∩ oriented rectangle ≠ ∅" (closed), decided by a
//! separating-axis test.
//!
//! Algorithm 3.1 submits whole boundaries and leaves it to the pipeline to
//! clip what falls outside the viewing area, so many segments a list holds
//! never reach this setup — all but a few percent of whole boundaries,
//! still a quarter to a half of what is left once `hwa-core`'s projection
//! window has dropped the runs of 32 edges that cannot meet the other
//! boundary there (`choreography::LiveRuns`), a cull that keeps no run
//! whose *box* the same compare rejects. The inner loop of every
//! hardware-assisted query is the clip compare [`aa_line_outside_window`],
//! which the replay runs before [`SegmentCover::new`]. For the segments that
//! survive, setup and per-pixel test cost their arithmetic: one root and
//! two divides for the direction, candidate ranges from truncating casts
//! (`cover::candidate_range`), and — the candidate loop bounds already
//! guarantee overlap on the window axes — only the rectangle's two edge
//! normals to check per pixel, with all rectangle projections hoisted out
//! of the loop. (This is the simulation's stand-in for the GPU's parallel
//! coverage evaluation.)

use crate::context::PixelRect;
use crate::cover::{candidate_range, coordinate, Cover, Footprint};
use crate::framebuffer::FrameBuffer;
use crate::point_raster::WidePointCover;
use crate::stats::HwStats;
use spatial_geom::Point;
use std::ops::Range;

/// The paper's default width for intersection tests: the pixel diagonal.
pub const DIAGONAL_WIDTH: f64 = std::f64::consts::SQRT_2;

/// The clip test for the width-`w` line `a→b` (window coordinates) against
/// the window columns `0..width` and scanlines `0..height`: true only when
/// [`SegmentCover::new`] would return `None`, so skipping a segment on it
/// changes no pixel and no counter.
///
/// The bounding rectangle's corners are `a ± n`, `b ± n` with `|n.x|`,
/// `|n.y|` ≤ `w/2` up to rounding, hence below `w`; floating-point addition
/// is monotone, so both ends' `x + w < 0` puts every corner left of column
/// 0 and both ends' `x − w ≥ width` puts every corner's `floor` at or past
/// `width` — and with them the diameter-`w` disc at `a` that stands in for
/// a segment without a direction. A NaN coordinate compares false on its
/// axis and leaves the verdict to the other one.
#[inline]
pub fn aa_line_outside_window(a: Point, b: Point, w: f64, width: usize, height: usize) -> bool {
    let (width, height) = (width as f64, height as f64);
    (a.x + w < 0.0 && b.x + w < 0.0)
        || (a.x - w >= width && b.x - w >= width)
        || (a.y + w < 0.0 && b.y + w < 0.0)
        || (a.y - w >= height && b.y - w >= height)
}

/// Rasterizes the anti-aliased line `a→b` of width `w` (window
/// coordinates), emitting every pixel whose square intersects what the
/// segment covers ([`SegmentCover`]).
#[inline]
pub fn rasterize_aa_line(
    a: Point,
    b: Point,
    w: f64,
    width: usize,
    height: usize,
    stats: &mut HwStats,
    sink: &mut impl FnMut(usize, usize),
) {
    if let Some(cover) = SegmentCover::new(a, b, w, width, height) {
        stats.fragments_tested += cover.emit(sink);
    }
}

/// What the width-`w` line `a→b` covers: its bounding rectangle — or, when
/// it has end points but no direction, the diameter-`w` disc at `a`.
///
/// "Every pixel that intersects the line segment is colored" has to hold
/// for a segment a viewport scaled down to nothing, too: `a == b` after
/// projection, or two distinct end points so close that the squared length
/// underflows (`(1e-200, 0) → (3e-200, 0)`). Neither has a rectangle; both
/// lie within their own end cap. (A length that is not a number — a NaN
/// coordinate — takes the same path: all there is to such a segment is an
/// end point.)
#[derive(Debug, Clone)]
pub enum SegmentCover {
    Line(AaLineCover),
    Cap(WidePointCover),
}

impl SegmentCover {
    /// Coverage setup for the width-`w` line `a→b` over the window columns
    /// `0..width` and scanlines `0..height`. `None` when what it covers
    /// cannot touch the window.
    #[inline]
    pub fn new(a: Point, b: Point, w: f64, width: usize, height: usize) -> Option<Self> {
        match (b - a).normalized() {
            Some(dir) => AaLineCover::along(dir, a, b, w, width, height).map(SegmentCover::Line),
            None => WidePointCover::new(a, w, width, height).map(SegmentCover::Cap),
        }
    }
}

impl Cover for SegmentCover {
    #[inline]
    fn emit(&self, sink: &mut impl FnMut(usize, usize)) -> usize {
        match self {
            SegmentCover::Line(line) => line.emit(sink),
            SegmentCover::Cap(cap) => cap.emit(sink),
        }
    }

    #[inline]
    fn paint(&self, fb: &mut FrameBuffer, window: PixelRect, color: f32) -> (usize, usize) {
        match self {
            SegmentCover::Line(line) => line.paint(fb, window, color),
            SegmentCover::Cap(cap) => cap.paint(fb, window, color),
        }
    }
}

/// The hoisted per-segment setup of the anti-aliased line rasterizer:
/// bounding-rectangle projections and candidate ranges.
#[derive(Debug, Clone)]
pub struct AaLineCover {
    columns: Range<usize>,
    rows: Range<usize>,
    dir: Point,
    perp: Point,
    rect_d_lo: f64,
    rect_d_hi: f64,
    rect_p_lo: f64,
    rect_p_hi: f64,
    half_d: f64,
    half_p: f64,
}

impl AaLineCover {
    /// Coverage setup for the width-`w` line `a→b`, `dir` the unit vector
    /// from `a` to `b`, over the window columns `0..width` and scanlines
    /// `0..height`. `None` when the bounding rectangle cannot touch the
    /// window.
    #[inline]
    fn along(dir: Point, a: Point, b: Point, w: f64, width: usize, height: usize) -> Option<Self> {
        debug_assert!(w > 0.0);
        let n = dir.perp() * (w / 2.0);
        let corners = [a + n, b + n, b - n, a - n];

        let mut xmin = f64::INFINITY;
        let mut xmax = f64::NEG_INFINITY;
        let mut ymin = f64::INFINITY;
        let mut ymax = f64::NEG_INFINITY;
        for p in &corners {
            xmin = xmin.min(p.x);
            xmax = xmax.max(p.x);
            ymin = ymin.min(p.y);
            ymax = ymax.max(p.y);
        }
        let columns = candidate_range(xmin, xmax, width)?;
        let rows = candidate_range(ymin, ymax, height)?;

        // Separating axes. The candidate loop only visits pixels whose
        // square overlaps the rectangle's AABB, so the window axes
        // (1,0)/(0,1) can never separate; only the rectangle's own edge
        // normals remain: `dir` (separates beyond the end caps) and `perp`
        // (beyond the sides).
        //
        // Projections of the rectangle onto each axis, hoisted: onto `dir`
        // the rectangle spans [a·dir, b·dir] (a before b by construction);
        // onto `perp` it spans (a·perp) ± w/2.
        let perp = dir.perp();
        let rect_d_lo = a.x * dir.x + a.y * dir.y;
        let rect_d_hi = b.x * dir.x + b.y * dir.y;
        let (rect_d_lo, rect_d_hi) = if rect_d_lo <= rect_d_hi {
            (rect_d_lo, rect_d_hi)
        } else {
            (rect_d_hi, rect_d_lo)
        };
        let center_p = a.x * perp.x + a.y * perp.y; // b projects identically
        let rect_p_lo = center_p - w / 2.0;
        let rect_p_hi = center_p + w / 2.0;
        // A unit square centered at c projects onto axis n as
        // c·n ± (|n.x| + |n.y|) / 2.
        let half_d = (dir.x.abs() + dir.y.abs()) / 2.0;
        let half_p = (perp.x.abs() + perp.y.abs()) / 2.0;
        Some(AaLineCover {
            columns,
            rows,
            dir,
            perp,
            rect_d_lo,
            rect_d_hi,
            rect_p_lo,
            rect_p_hi,
            half_d,
            half_p,
        })
    }
}

impl Footprint for AaLineCover {
    /// The scanline center's share of the projections onto `dir` and
    /// `perp`.
    type Row = (f64, f64);

    #[inline]
    fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    #[inline]
    fn columns(&self) -> Range<usize> {
        self.columns.clone()
    }

    #[inline]
    fn row(&self, j: usize) -> (f64, f64) {
        let cy = coordinate(j) + 0.5;
        (cy * self.dir.y, cy * self.perp.y)
    }

    #[inline]
    fn covers(&self, (cy_d, cy_p): (f64, f64), i: usize) -> bool {
        let cx = coordinate(i) + 0.5;
        let c_d = cx * self.dir.x + cy_d;
        let c_p = cx * self.perp.x + cy_p;
        // `|`, not `||`: four compares cost less than one mispredicted
        // short-circuit.
        !((c_d + self.half_d < self.rect_d_lo)
            | (c_d - self.half_d > self.rect_d_hi)
            | (c_p + self.half_p < self.rect_p_lo)
            | (c_p - self.half_p > self.rect_p_hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The four corners of the width-`w` bounding rectangle of segment
    /// `a→b`. Returns `None` for a segment without a direction — it has no
    /// rectangle and renders as a wide point instead ([`SegmentCover`]).
    fn bounding_rectangle(a: Point, b: Point, w: f64) -> Option<[Point; 4]> {
        let dir = (b - a).normalized()?;
        let n = dir.perp() * (w / 2.0);
        Some([a + n, b + n, b - n, a - n])
    }

    fn collect(a: Point, b: Point, w: f64, win: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut st = HwStats::default();
        rasterize_aa_line(a, b, w, win, win, &mut st, &mut |x, y| out.push((x, y)));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Reference implementation: full 4-axis SAT against the quad, over
    /// the same candidate-pixel range the production rasterizer enumerates
    /// (pixels only *grazed* by the rectangle boundary are latitude — see
    /// `boundary_touch_latitude` — so the ranges must match for the SAT
    /// math to be comparable).
    fn collect_reference(a: Point, b: Point, w: f64, win: usize) -> Vec<(usize, usize)> {
        let quad = match bounding_rectangle(a, b, w) {
            Some(q) => q,
            None => return Vec::new(),
        };
        let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in &quad {
            xmin = xmin.min(p.x);
            xmax = xmax.max(p.x);
            ymin = ymin.min(p.y);
            ymax = ymax.max(p.y);
        }
        let x_lo = (xmin.floor().max(0.0)) as usize;
        let x_hi = ((xmax.floor() as i64).min(win as i64 - 1)).max(0) as usize;
        let y_lo = (ymin.floor().max(0.0)) as usize;
        let y_hi = ((ymax.floor() as i64).min(win as i64 - 1)).max(0) as usize;
        let mut out = Vec::new();
        for j in y_lo..=y_hi {
            for i in x_lo..=x_hi {
                let sq = [
                    Point::new(i as f64, j as f64),
                    Point::new(i as f64 + 1.0, j as f64),
                    Point::new(i as f64 + 1.0, j as f64 + 1.0),
                    Point::new(i as f64, j as f64 + 1.0),
                ];
                let e0 = quad[1] - quad[0];
                let e1 = quad[2] - quad[1];
                let axes = [
                    Point::new(1.0, 0.0),
                    Point::new(0.0, 1.0),
                    e0.perp(),
                    e1.perp(),
                ];
                let mut overlap = true;
                for axis in axes {
                    if axis.x == 0.0 && axis.y == 0.0 {
                        continue;
                    }
                    let proj = |pts: &[Point]| -> (f64, f64) {
                        let mut lo = f64::INFINITY;
                        let mut hi = f64::NEG_INFINITY;
                        for p in pts {
                            let v = p.dot(axis);
                            lo = lo.min(v);
                            hi = hi.max(v);
                        }
                        (lo, hi)
                    };
                    let (alo, ahi) = proj(&quad);
                    let (blo, bhi) = proj(&sq);
                    if ahi < blo || bhi < alo {
                        overlap = false;
                        break;
                    }
                }
                if overlap {
                    out.push((i, j));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Segments and widths for the reference comparisons.
    fn sat_cases() -> [(Point, Point, f64); 6] {
        [
            (Point::new(0.3, 0.7), Point::new(7.6, 5.2), DIAGONAL_WIDTH),
            (Point::new(2.0, 0.0), Point::new(2.0, 8.0), 1.0),
            (Point::new(0.0, 4.0), Point::new(8.0, 4.0), 4.0),
            // Endpoints exactly on pixel corners are latitude (zero-area
            // grazing can flip on f64 rounding), so keep endpoints off the
            // lattice here.
            (Point::new(6.97, 7.03), Point::new(1.0, 2.0), 2.5),
            (
                Point::new(-3.0, -3.0),
                Point::new(12.0, 9.0),
                DIAGONAL_WIDTH,
            ),
            (Point::new(0.1, 0.1), Point::new(0.2, 0.15), 0.5),
        ]
    }

    #[test]
    fn optimized_matches_reference_sat() {
        for (a, b, w) in sat_cases() {
            assert_eq!(
                collect(a, b, w, 8),
                collect_reference(a, b, w, 8),
                "a={a} b={b} w={w}"
            );
        }
    }

    /// The two walks of a cover read one predicate: what `paint` writes
    /// into the color plane is what `emit` hands to its sink — same pixel
    /// set, same written and tested counts — for the reference segments at
    /// their own width and at every Equation (1) width, for the cap a
    /// segment without a direction gets, and at a scissor-cell offset.
    #[test]
    fn painted_rows_equal_emitted_rows() {
        const N: usize = 8;
        let cell = PixelRect {
            x: N,
            y: 2 * N,
            w: N,
            h: N,
        };
        let whole = PixelRect { x: 0, y: 0, ..cell };
        let mut segments: Vec<(Point, Point, f64)> = sat_cases().to_vec();
        for (a, b, _) in sat_cases() {
            segments.extend((1..=10).map(|w| (a, b, f64::from(w))));
            segments.extend((1..=10).map(|w| (a, a, f64::from(w))));
        }
        let mut written_total = 0;
        for (a, b, w) in segments {
            // (The cap of the segment that starts at (−3, −3) misses.)
            let Some(cover) = SegmentCover::new(a, b, w, N, N) else {
                assert!(a == b && a.x < 0.0);
                continue;
            };
            assert_eq!(matches!(cover, SegmentCover::Cap(_)), a == b);
            let mut emitted = Vec::new();
            let tested = cover.emit(&mut |x, y| emitted.push((x, y)));
            for window in [whole, cell] {
                let mut fb = FrameBuffer::new(3 * N, 3 * N);
                assert_eq!(
                    cover.paint(&mut fb, window, 0.5),
                    (tested, emitted.len()),
                    "{a} {b} width {w}"
                );
                let painted: Vec<(usize, usize)> = (0..3 * N)
                    .flat_map(|y| (0..3 * N).map(move |x| (x, y)))
                    .filter(|&(x, y)| fb.read_pixel(x, y) > 0.0)
                    .map(|(x, y)| (x - window.x, y - window.y))
                    .collect();
                // Row by row, ascending columns: the order `emit` promises.
                let mut by_rows = emitted.clone();
                by_rows.sort_unstable_by_key(|&(x, y)| (y, x));
                assert_eq!(emitted, by_rows);
                assert_eq!(painted, by_rows, "{a} {b} width {w} at {window:?}");
            }
            written_total += emitted.len();
        }
        assert!(written_total > 2_000, "{written_total}");
    }

    #[test]
    fn bounding_rectangle_geometry() {
        let q = bounding_rectangle(Point::new(0.0, 0.0), Point::new(4.0, 0.0), 2.0).unwrap();
        // Horizontal segment: rectangle spans y ∈ [-1, 1], x ∈ [0, 4].
        let ys: Vec<f64> = q.iter().map(|p| p.y).collect();
        assert!(ys.contains(&1.0) && ys.contains(&-1.0));
        let xs: Vec<f64> = q.iter().map(|p| p.x).collect();
        assert_eq!(xs.iter().cloned().fold(f64::INFINITY, f64::min), 0.0);
        assert_eq!(xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max), 4.0);
        assert!(bounding_rectangle(Point::new(1.0, 1.0), Point::new(1.0, 1.0), 2.0).is_none());
    }

    #[test]
    fn no_pixel_touched_by_segment_is_missed() {
        // The conservativeness property: every pixel whose square the raw
        // segment passes through must be emitted (width arbitrary > 0).
        let a = Point::new(0.3, 0.7);
        let b = Point::new(7.6, 5.2);
        let px = collect(a, b, DIAGONAL_WIDTH, 8);
        for k in 0..=200 {
            let t = k as f64 / 200.0;
            let p = a.lerp(b, t);
            let cell = (p.x.floor() as usize, p.y.floor() as usize);
            assert!(
                px.contains(&cell),
                "pixel {cell:?} under the segment missing"
            );
        }
    }

    #[test]
    fn crossing_segments_share_a_pixel() {
        // The Algorithm 3.1 invariant at the rasterizer level.
        let p1 = collect(
            Point::new(0.0, 0.0),
            Point::new(8.0, 8.0),
            DIAGONAL_WIDTH,
            8,
        );
        let p2 = collect(
            Point::new(0.0, 8.0),
            Point::new(8.0, 0.0),
            DIAGONAL_WIDTH,
            8,
        );
        assert!(p1.iter().any(|c| p2.contains(c)));
    }

    #[test]
    fn disjoint_far_segments_share_nothing_at_high_resolution() {
        let p1 = collect(
            Point::new(1.0, 1.0),
            Point::new(1.0, 30.0),
            DIAGONAL_WIDTH,
            32,
        );
        let p2 = collect(
            Point::new(30.0, 1.0),
            Point::new(30.0, 30.0),
            DIAGONAL_WIDTH,
            32,
        );
        assert!(!p1.iter().any(|c| p2.contains(c)));
    }

    #[test]
    fn close_segments_merge_at_low_resolution() {
        // At 1×1 everything overlaps — the resolution-dependent false-hit
        // behaviour of Figure 11's left edge.
        let p1 = collect(
            Point::new(0.1, 0.1),
            Point::new(0.1, 0.9),
            DIAGONAL_WIDTH,
            1,
        );
        let p2 = collect(
            Point::new(0.9, 0.1),
            Point::new(0.9, 0.9),
            DIAGONAL_WIDTH,
            1,
        );
        assert_eq!(p1, vec![(0, 0)]);
        assert_eq!(p2, vec![(0, 0)]);
    }

    #[test]
    fn wide_line_covers_expanded_band() {
        // Width 4 horizontal line through the middle of an 8×8 window.
        let px = collect(Point::new(0.0, 4.0), Point::new(8.0, 4.0), 4.0, 8);
        // Band y ∈ [2, 6] → pixel rows 2..6 contain band points.
        for row in 2..6 {
            assert!(px.contains(&(4, row)), "row {row} missing");
        }
        assert!(!px.contains(&(4, 0)));
        assert!(!px.contains(&(4, 7)));
    }

    #[test]
    fn boundary_touch_latitude() {
        // Rectangle band y ∈ [1, 3]. Pixels *containing* band points (rows
        // 1 and 2) must be colored — that is the conservativeness
        // guarantee. Pixels only grazed by the band boundary (zero-area
        // coverage: rows 0 and 3) may or may not be colored, mirroring the
        // spec's latitude for boundary pixels; they must never be required.
        let px = collect(Point::new(0.0, 2.0), Point::new(4.0, 2.0), 2.0, 4);
        assert!(px.contains(&(2, 1)));
        assert!(px.contains(&(2, 2)));
        // Interior band points in every column.
        for col in 0..4 {
            assert!(px.contains(&(col, 1)), "column {col} row 1 missing");
        }
    }

    #[test]
    fn steep_line_coverage_is_symmetric() {
        let p1 = collect(
            Point::new(2.0, 0.0),
            Point::new(2.0, 8.0),
            DIAGONAL_WIDTH,
            8,
        );
        let p2 = collect(
            Point::new(0.0, 2.0),
            Point::new(8.0, 2.0),
            DIAGONAL_WIDTH,
            8,
        );
        let flipped: Vec<(usize, usize)> = p2.iter().map(|&(x, y)| (y, x)).collect();
        let mut flipped_sorted = flipped;
        flipped_sorted.sort_unstable();
        assert_eq!(p1, flipped_sorted);
    }
}
