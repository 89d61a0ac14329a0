//! An OpenGL-style stateful rendering context over the simulated hardware,
//! so the hardware-assisted algorithms read like the paper's pseudo-code
//! (Algorithm 3.1: set color, render edges, accumulate, minmax).

use crate::aa_line::{aa_line_outside_window, SegmentCover};
use crate::cover::Cover;
use crate::framebuffer::{FrameBuffer, BLACK};
use crate::point_raster::{wide_point_outside_window, WidePointCover};
use crate::polygon_raster::rasterize_polygon;
use crate::stats::HwStats;
use crate::viewport::Viewport;
use spatial_geom::{Point, Segment};

/// Maximum anti-aliased line width, in pixels. The paper reports a 10-pixel
/// limit on its GeForce4 platform (§4.4); exceeding it forces the software
/// fallback.
pub const MAX_AA_LINE_WIDTH: f64 = 10.0;

/// Maximum (smooth) point size, in pixels — same platform limit.
pub(crate) const MAX_POINT_SIZE: f64 = 10.0;

/// Largest window side, in pixels: the simulated card's
/// `GL_MAX_VIEWPORT_DIMS`. A `4096 × 4096` frame holds ≈ 150 MB at 9 B a
/// pixel (f32 colour, f32 accumulation, u8 stencil).
pub const MAX_WINDOW_SIDE: usize = 4096;

/// How overlapping fragments are detected. The one choreography is the
/// paper's Algorithm 3.1: both boundaries at half intensity, added in the
/// accumulation buffer, full white searched for. The enum stays only
/// because the public recorders `record_segment_test` and
/// `record_distance_test` in `hwa-core` still name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverlapStrategy {
    /// Render both at half intensity, add via the accumulation buffer,
    /// search for full white (the paper's choice).
    #[default]
    Accumulation,
}

/// Where fragments land and how they combine — the write half of the
/// OpenGL state the choreographies manipulate.
///
/// Lines and points are only ever painted into the color plane: the
/// [`crate::Recorder`] refuses a line or point draw in any other mode
/// ([`crate::RecordError::DrawRequiresOverwrite`]). The two stencil modes
/// exist for the polygon fills of the §14 overlap count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteMode {
    /// Color buffer, overwrite (blending disabled — the paper's setting).
    #[default]
    Overwrite,
    /// Stencil plane, `GL_REPLACE` with this reference value.
    StencilReplace(u8),
    /// Stencil plane, increment where the current value equals the
    /// reference (`glStencilFunc(GL_EQUAL, ref)` + `GL_INCR`).
    StencilIncrIfEq(u8),
}

/// An axis-aligned pixel rectangle in window coordinates — the scissor
/// unit and the atlas cell-reduction unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PixelRect {
    pub x: usize,
    pub y: usize,
    pub w: usize,
    pub h: usize,
}

/// A rendering window plus the pipeline state Algorithm 3.1 manipulates.
#[derive(Debug)]
pub struct GlContext {
    fb: FrameBuffer,
    viewport: Viewport,
    stats: HwStats,
    color: f32,
    line_width: f64,
    point_size: f64,
    write_mode: WriteMode,
    scissor: Option<PixelRect>,
}

impl GlContext {
    /// A context rendering through `viewport` into a matching window.
    pub fn new(viewport: Viewport) -> Self {
        GlContext {
            fb: FrameBuffer::new(viewport.width(), viewport.height()),
            viewport,
            stats: HwStats::default(),
            color: crate::framebuffer::HALF_GRAY,
            line_width: crate::aa_line::DIAGONAL_WIDTH,
            point_size: 1.0,
            write_mode: WriteMode::Overwrite,
            scissor: None,
        }
    }

    /// Re-targets the context at a new viewport, keeping the accumulated
    /// statistics and reusing the pixel allocation when the window size is
    /// unchanged — a per-candidate-pair reallocation would dominate at
    /// small resolutions. Buffers are **not** cleared: every overlap
    /// choreography starts with its own explicit clears (Algorithm 3.1
    /// step 2.2), exactly like the GL program would.
    pub(crate) fn retarget(&mut self, viewport: Viewport) {
        if viewport.width() != self.fb.width() || viewport.height() != self.fb.height() {
            self.fb = FrameBuffer::new(viewport.width(), viewport.height());
        }
        self.viewport = viewport;
        self.scissor = None;
    }

    #[inline]
    pub fn viewport(&self) -> &Viewport {
        &self.viewport
    }

    #[inline]
    pub fn frame_buffer(&self) -> &FrameBuffer {
        &self.fb
    }

    #[inline]
    pub fn stats(&self) -> HwStats {
        self.stats
    }

    // -- pipeline state ----------------------------------------------------

    /// Sets the draw intensity. Anything but a number in `[0, 1]` is
    /// refused like a `GL_INVALID_VALUE` — the current color stays and
    /// `false` comes back — because a NaN intensity vanishes from every
    /// Minmax (`f32::max` drops NaN) and would read as "no overlap".
    pub fn set_color(&mut self, c: f32) -> bool {
        let valid = (0.0..=1.0).contains(&c);
        if valid {
            self.color = c;
        }
        valid
    }

    /// Sets the line width in pixels; clamped to [`MAX_AA_LINE_WIDTH`] like
    /// real hardware clamps `glLineWidth`. Returns the effective width so
    /// callers can detect clamping and fall back to software.
    pub fn set_line_width(&mut self, w: f64) -> f64 {
        self.line_width = w.clamp(1.0, MAX_AA_LINE_WIDTH);
        self.line_width
    }

    /// Sets the point size in pixels; clamped to `MAX_POINT_SIZE`.
    pub fn set_point_size(&mut self, s: f64) -> f64 {
        self.point_size = s.clamp(1.0, MAX_POINT_SIZE);
        self.point_size
    }

    /// Selects how fill fragments combine with their plane (lines and
    /// points always paint the color plane; see [`WriteMode`]).
    pub fn set_write_mode(&mut self, mode: WriteMode) {
        self.write_mode = mode;
    }

    /// Restricts rasterization to `r` (or lifts the restriction): draws
    /// project through the viewport into an `r.w × r.h` window whose
    /// pixels land at offset `(r.x, r.y)` in the frame buffer — the
    /// atlas's cell-local rendering. All per-pixel math happens in the
    /// scissor-local window, so a cell renders bit-identically to a
    /// standalone window of the same size.
    pub fn set_scissor(&mut self, r: Option<PixelRect>) {
        if let Some(r) = r {
            debug_assert!(r.w > 0 && r.h > 0, "empty scissor");
            debug_assert!(
                r.x + r.w <= self.fb.width() && r.y + r.h <= self.fb.height(),
                "scissor outside the window"
            );
        }
        self.scissor = r;
    }

    /// Replaces the data→window projection without touching the frame
    /// buffer: device replay renders into a window whose size (the atlas
    /// side) can differ from the recorded viewport's (one cell).
    pub fn set_projection(&mut self, viewport: Viewport) {
        self.viewport = viewport;
    }

    /// Marks the start of a batched submission round (the atlas's shared
    /// fixed cost).
    pub(crate) fn begin_batch(&mut self) {
        self.stats.batches += 1;
    }

    /// Restores the context to its just-constructed state — cleared
    /// planes, default pipeline state — without charging any counter.
    /// Device replay uses this so execution is a pure function of the
    /// command list: the list's own recorded clears carry the charges.
    pub(crate) fn reset_for_replay(&mut self) {
        self.fb.reset();
        self.color = crate::framebuffer::HALF_GRAY;
        self.line_width = crate::aa_line::DIAGONAL_WIDTH;
        self.point_size = 1.0;
        self.write_mode = WriteMode::Overwrite;
        self.scissor = None;
    }

    /// The active rasterization window: the scissor, or the whole frame
    /// buffer.
    #[inline]
    fn window(&self) -> PixelRect {
        self.scissor.unwrap_or(PixelRect {
            x: 0,
            y: 0,
            w: self.fb.width(),
            h: self.fb.height(),
        })
    }

    // -- clears and accumulation ops ----------------------------------------

    pub fn clear_color_buffer(&mut self) {
        self.fb.clear_color(BLACK, &mut self.stats);
    }

    pub fn clear_accum_buffer(&mut self) {
        self.fb.clear_accum(&mut self.stats);
    }

    pub(crate) fn clear_stencil_buffer(&mut self) {
        self.fb.clear_stencil(&mut self.stats);
    }

    /// `glAccum(GL_LOAD)`: accumulation ← color.
    pub fn accum_load(&mut self) {
        self.fb.accum_load(&mut self.stats);
    }

    /// `glAccum(GL_ACCUM)`: accumulation += color.
    pub fn accum_add(&mut self) {
        self.fb.accum_add(&mut self.stats);
    }

    /// `glAccum(GL_RETURN)`: color ← accumulation.
    pub fn accum_return(&mut self) {
        self.fb.accum_return(&mut self.stats);
    }

    // -- drawing -------------------------------------------------------------

    /// Draws a batch of segments (data coordinates) with the current line
    /// state; vertices are *not* widened — call [`GlContext::draw_points`]
    /// for end-cap coverage when the line width exceeds one pixel.
    pub fn draw_segments(&mut self, segments: &[Segment]) {
        self.stats.draw_calls += 1;
        self.draw_segments_merged(segments);
    }

    /// [`GlContext::draw_segments`] without the draw-call charge: the
    /// device layer coalesces several recorded geometry runs into one
    /// logical hardware submission (the atlas's per-pass batching).
    pub(crate) fn draw_segments_merged(&mut self, segments: &[Segment]) {
        let (width, viewport, PixelRect { w, h, .. }) =
            (self.line_width, self.viewport, self.window());
        self.draw(segments, |seg| {
            let (a, b) = (viewport.to_window(seg.a), viewport.to_window(seg.b));
            if aa_line_outside_window(a, b, width, w, h) {
                return None;
            }
            SegmentCover::new(a, b, width, w, h)
        });
    }

    /// Draws smooth points (`GL_POINT_SMOOTH`, data coordinates) with the
    /// current point size: a point is a *disc* of the given diameter at any
    /// size — including 1.0, where the disc can bleed into up to four
    /// pixels. The distance test's conservativeness depends on this: a
    /// vertex cap centered just outside the window must still color the
    /// window pixels its disc reaches.
    pub fn draw_points(&mut self, points: &[Point]) {
        self.stats.draw_calls += 1;
        self.draw_points_merged(points);
    }

    /// [`GlContext::draw_points`] without the draw-call charge (see
    /// [`GlContext::draw_segments_merged`]).
    pub(crate) fn draw_points_merged(&mut self, points: &[Point]) {
        let (size, viewport, PixelRect { w, h, .. }) =
            (self.point_size, self.viewport, self.window());
        self.draw(points, |&p| {
            let p = viewport.to_window(p);
            if wide_point_outside_window(p, size, w, h) {
                return None;
            }
            WidePointCover::new(p, size, w, h)
        });
    }

    /// Rasterizes one run of primitives into the active window (scissor-
    /// local, so an atlas cell clips against its own cell); `setup` projects
    /// and clips a primitive and sets up what is left of it.
    ///
    /// The clip stage of §2.1 ("the parts of geometries that are outside
    /// the viewing area are clipped") is `setup`'s first step: Algorithm
    /// 3.1 submits whole boundaries, and much of what a list holds misses
    /// the window — all but a few percent of whole boundaries, still a
    /// quarter to a half of the boundary runs `hwa-core` submits since it
    /// culls by run box — so a submitted primitive costs its projection
    /// and one rectangle compare; only the survivors pay the rest of the
    /// setup. Clipping is uncharged and invisible — `primitives` counts
    /// submissions, and the compare skips only what the setup would itself
    /// discard ([`aa_line_outside_window`], [`wide_point_outside_window`]).
    ///
    /// Each cover paints its candidate rows in the color plane, whatever
    /// the write mode ([`WriteMode`]); setups and pixel walks alternate a
    /// block of primitives at a time ([`in_blocks`]).
    fn draw<P, C: Cover>(&mut self, primitives: &[P], setup: impl Fn(&P) -> Option<C>) {
        let window = self.window();
        self.stats.primitives += primitives.len();
        in_blocks(primitives, setup, |cover| {
            let (tested, written) = cover.paint(&mut self.fb, window, self.color);
            self.stats.fragments_tested += tested;
            self.stats.pixels_written += written;
        });
    }

    /// Fills a polygon (data coordinates, must be convex for "hardware"
    /// fidelity — the ablation triangulates concave input first) in the
    /// current write mode. Each fragment is written as the scanline
    /// produces it: a fill emits a pixel at most once
    /// ([`crate::polygon_raster`]), so no write mode needs the fragments
    /// of the draw call collected first.
    pub fn draw_filled_polygon(&mut self, vertices: &[Point]) {
        self.stats.draw_calls += 1;
        self.stats.primitives += 1;
        let (window, viewport) = (self.window(), self.viewport);
        let mut fragments = HwStats::default();
        rasterize_polygon(
            vertices.iter().map(|&p| viewport.to_window(p)),
            window.w,
            window.h,
            &mut fragments,
            &mut |x, y| self.write_fragment(window.x + x, window.y + y),
        );
        self.stats.add(&fragments);
    }

    /// Writes one fill fragment at frame-buffer pixel `(x, y)` in the
    /// current write mode.
    #[inline]
    fn write_fragment(&mut self, x: usize, y: usize) {
        let GlContext {
            fb, stats, color, ..
        } = self;
        match self.write_mode {
            WriteMode::Overwrite => fb.write_pixel(x, y, *color, stats),
            WriteMode::StencilReplace(v) => fb.stencil_replace(x, y, v, stats),
            WriteMode::StencilIncrIfEq(r) => fb.stencil_incr_if_eq(x, y, r, stats),
        }
    }

    // -- queries -------------------------------------------------------------

    /// The hardware Minmax query over the color buffer.
    pub(crate) fn minmax(&mut self) -> (f32, f32) {
        self.stats.minmax_queries += 1;
        self.fb.minmax(&mut self.stats)
    }

    /// Convenience: the maximum of the Minmax query.
    pub fn max_value(&mut self) -> f32 {
        self.minmax().1
    }

    /// Number of pixels whose stencil value is at least `min` — one
    /// whole-buffer scan, the counting readback the area-of-overlap
    /// choreography reads back instead of transferring pixels.
    pub(crate) fn stencil_count_ge(&mut self, min: u8) -> u64 {
        self.stats.minmax_queries += 1;
        self.fb.stencil_count_ge(min, &mut self.stats)
    }

    /// One whole-buffer scan reducing each of `cells` to the maximum
    /// value inside it — the batched stand-in for per-cell Minmax queries
    /// (a histogram/reduction pass over the full buffer).
    pub(crate) fn cell_max_scan(&mut self, cells: &[PixelRect]) -> Vec<f32> {
        self.stats.minmax_queries += 1;
        self.stats.pixels_scanned += self.fb.len();
        cells
            .iter()
            .map(|c| {
                let mut max = 0.0f32;
                for y in c.y..c.y + c.h {
                    for x in c.x..c.x + c.w {
                        max = max.max(self.fb.read_pixel(x, y));
                    }
                }
                max
            })
            .collect()
    }
}

/// Runs `setup` over `primitives` and `apply` over the covers it returns,
/// alternating a block of primitives at a time: the setups of a block — a
/// root and two divides each for a line, no data-dependent loop — overlap
/// in the pipeline instead of each waiting behind the mispredicted exits
/// of the previous primitive's few-pixel rows. The survivors wait in a
/// stack array that is reused from block to block: nothing here is sized
/// by the draw call.
fn in_blocks<P, C>(primitives: &[P], setup: impl Fn(&P) -> Option<C>, mut apply: impl FnMut(&C)) {
    const BLOCK: usize = 16;
    let mut covers: [Option<C>; BLOCK] = std::array::from_fn(|_| None);
    for block in primitives.chunks(BLOCK) {
        let mut live = 0;
        for primitive in block {
            if let Some(cover) = setup(primitive) {
                covers[live] = Some(cover);
                live += 1;
            }
        }
        covers[..live].iter().flatten().for_each(&mut apply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_geom::Rect;

    fn ctx(n: usize) -> GlContext {
        GlContext::new(Viewport::new(Rect::new(0.0, 0.0, n as f64, n as f64), n, n))
    }

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    /// The `(x, y)` of every pixel with a non-black color.
    fn lit(gl: &GlContext) -> Vec<(usize, usize)> {
        let fb = gl.frame_buffer();
        (0..fb.height())
            .flat_map(|y| (0..fb.width()).map(move |x| (x, y)))
            .filter(|&(x, y)| fb.read_pixel(x, y) > 0.0)
            .collect()
    }

    #[test]
    fn algorithm_31_choreography_detects_overlap() {
        let mut gl = ctx(8);
        assert!(gl.set_color(crate::framebuffer::HALF_GRAY));
        // Refused, half gray stays: drawn in NaN the crossing below would
        // read 0.0, "no overlap" (`f32::max` drops NaN in the Minmax scan).
        assert!(!gl.set_color(f32::NAN));
        assert!(!gl.set_color(1.5));
        gl.clear_color_buffer();
        gl.clear_accum_buffer();
        gl.draw_segments(&[seg(0.0, 0.0, 8.0, 8.0)]);
        gl.accum_load();
        gl.clear_color_buffer();
        gl.draw_segments(&[seg(0.0, 8.0, 8.0, 0.0)]);
        gl.accum_add();
        gl.accum_return();
        assert_eq!(gl.max_value(), 1.0, "crossing segments must reach white");
    }

    #[test]
    fn algorithm_31_choreography_no_overlap() {
        let mut gl = ctx(8);
        gl.clear_color_buffer();
        gl.clear_accum_buffer();
        gl.draw_segments(&[seg(0.5, 0.5, 0.5, 7.5)]);
        gl.accum_load();
        gl.clear_color_buffer();
        gl.draw_segments(&[seg(7.5, 0.5, 7.5, 7.5)]);
        gl.accum_add();
        gl.accum_return();
        assert_eq!(gl.max_value(), 0.5, "disjoint segments stay half gray");
    }

    #[test]
    fn line_width_clamps_at_hardware_limit() {
        let mut gl = ctx(4);
        assert_eq!(gl.set_line_width(25.0), MAX_AA_LINE_WIDTH);
        assert_eq!(gl.set_line_width(3.0), 3.0);
        assert_eq!(gl.set_point_size(99.0), MAX_POINT_SIZE);
    }

    #[test]
    fn retarget_keeps_buffers_for_explicit_clears() {
        let mut gl = ctx(8);
        gl.draw_segments(&[seg(0.0, 0.0, 8.0, 8.0)]);
        assert!(gl.max_value() > 0.0);
        // Retarget does NOT clear (Algorithm 3.1 clears explicitly)...
        gl.retarget(Viewport::new(Rect::new(10.0, 10.0, 20.0, 20.0), 8, 8));
        assert!(gl.max_value() > 0.0, "stale pixels remain until cleared");
        // ...and the explicit clear wipes them.
        gl.clear_color_buffer();
        assert_eq!(gl.max_value(), 0.0);
        // Different size reallocates (fresh buffers start clear).
        gl.retarget(Viewport::new(Rect::new(0.0, 0.0, 1.0, 1.0), 16, 16));
        assert_eq!(gl.frame_buffer().width(), 16);
        assert_eq!(gl.max_value(), 0.0);
    }

    #[test]
    fn stats_grow_monotonically() {
        let mut gl = ctx(8);
        let s0 = gl.stats();
        gl.draw_segments(&[seg(0.0, 0.0, 8.0, 8.0)]);
        let s1 = gl.stats();
        assert!(s1.pixels_written > s0.pixels_written);
        assert!(s1.primitives == s0.primitives + 1);
        gl.minmax();
        let s2 = gl.stats();
        assert_eq!(s2.minmax_queries, s1.minmax_queries + 1);
        assert_eq!(s2.pixels_scanned, s1.pixels_scanned + 64);
    }

    #[test]
    fn smooth_point_disc_bleeds_across_pixel_rows() {
        // Regression: a size-1 smooth point centered just below the window
        // must still color row 0 (its disc reaches 0.09 into the window).
        // Truncating it to its containing pixel clips it entirely — and
        // that once caused the distance test to drop a vertex cap and
        // reject a truly-within-distance pair.
        let vp = Viewport::new(Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8);
        let mut gl = GlContext::new(vp);
        gl.set_point_size(1.0);
        // Window coords = data coords here; y = -0.41 is outside.
        gl.draw_points(&[Point::new(3.5, -0.41)]);
        assert!(
            gl.frame_buffer().read_pixel(3, 0) > 0.0,
            "disc must bleed into row 0"
        );
    }

    #[test]
    fn wide_points_cover_vertices() {
        let mut gl = ctx(8);
        gl.set_point_size(4.0);
        gl.draw_points(&[Point::new(4.0, 4.0)]);
        // A 4-pixel disc around window (4,4) must cover several pixels.
        let covered = lit(&gl).len();
        assert!(covered >= 4, "got {covered}");
    }

    /// A segment with end points but no direction — the squared length of
    /// `b − a` underflows, so there is no unit vector to build a rectangle
    /// on — is still a segment: it colors the pixels its cap covers, like
    /// `a == b`.
    #[test]
    fn a_segment_without_a_direction_draws_its_cap() {
        let collapsed = [seg(1e-200, 1e-200, 3e-200, 1e-200), seg(2.5, 2.5, 2.5, 2.5)];
        for s in collapsed {
            assert!((s.b - s.a).normalized().is_none(), "{s:?}");
            let cap = {
                let mut gl = ctx(8);
                gl.set_point_size(crate::aa_line::DIAGONAL_WIDTH);
                gl.draw_points(&[s.a]);
                lit(&gl)
            };
            assert!(!cap.is_empty());

            let mut gl = ctx(8);
            gl.draw_segments(&[s]);
            assert_eq!(lit(&gl), cap, "painted {s:?}");
            assert_eq!(gl.max_value(), 0.5);
        }

        // A whole triangle far below a pixel: every edge is such a segment.
        let speck = [
            seg(0.0, 0.0, 1e-170, 0.0),
            seg(1e-170, 0.0, 0.0, 1e-170),
            seg(0.0, 1e-170, 0.0, 0.0),
        ];
        let mut gl = ctx(8);
        gl.draw_segments(&speck);
        assert_eq!(gl.max_value(), 0.5);
    }

    /// A fill emits a pixel at most once, so writing each fragment as the
    /// scanline produces it is writing the draw call's collected, sorted
    /// and deduplicated fragments (the oracle here): same planes, same
    /// counters, in every write mode — on concave, self-touching and self-crossing rings,
    /// over a marked stencil and in a scissored cell.
    #[test]
    fn a_fill_writes_what_its_collected_fragments_would() {
        fn collected_fill(gl: &mut GlContext, ring: &[Point]) {
            gl.stats.draw_calls += 1;
            gl.stats.primitives += 1;
            let (window, viewport) = (gl.window(), gl.viewport);
            let mut frags = Vec::new();
            rasterize_polygon(
                ring.iter().map(|&p| viewport.to_window(p)),
                window.w,
                window.h,
                &mut gl.stats,
                &mut |x, y| frags.push((window.x + x, window.y + y)),
            );
            let emitted = frags.len();
            frags.sort_unstable();
            frags.dedup();
            assert_eq!(frags.len(), emitted, "a pixel emitted twice: {ring:?}");
            for (x, y) in frags {
                gl.write_fragment(x, y);
            }
        }

        let ring = |coords: &[(f64, f64)]| -> Vec<Point> {
            coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
        };
        let rings = [
            // Concave: a C whose pocket stays empty.
            ring(&[
                (0.3, 0.2),
                (7.6, 0.2),
                (7.6, 2.1),
                (2.2, 2.1),
                (2.2, 5.4),
                (7.6, 5.4),
                (7.6, 7.7),
                (0.3, 7.7),
            ]),
            // Self-touching: two squares that share the vertex (4, 4).
            ring(&[
                (0.5, 0.5),
                (4.0, 0.5),
                (4.0, 4.0),
                (7.5, 4.0),
                (7.5, 7.5),
                (4.0, 7.5),
                (4.0, 4.0),
                (0.5, 4.0),
            ]),
            // Bow-tie: the two diagonals cross at the window center.
            ring(&[(0.0, 0.0), (8.0, 8.0), (8.0, 0.0), (0.0, 8.0)]),
            // Doubled: the boundary runs over itself, every crossing twice.
            ring(&[
                (1.0, 1.0),
                (7.0, 1.0),
                (4.0, 7.0),
                (1.0, 1.0),
                (7.0, 1.0),
                (4.0, 7.0),
            ]),
            // Larger than the window on every side.
            ring(&[(-5.0, -3.0), (20.0, 2.0), (3.0, 30.0)]),
        ];
        let modes = [
            WriteMode::Overwrite,
            WriteMode::StencilReplace(3),
            WriteMode::StencilIncrIfEq(0),
            WriteMode::StencilIncrIfEq(1),
        ];
        let cell = PixelRect {
            x: 8,
            y: 16,
            w: 8,
            h: 8,
        };
        let mark = ring(&[(0.0, 0.0), (8.0, 0.0), (8.0, 5.5), (0.0, 5.5)]);
        let mut written = 0;
        for scissor in [None, Some(cell)] {
            for r in &rings {
                for mode in modes {
                    let fresh = || {
                        let side = if scissor.is_some() { 24 } else { 8 };
                        let mut gl = ctx(side);
                        gl.set_scissor(scissor);
                        gl.set_projection(Viewport::new(Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8));
                        // Something for `StencilIncrIfEq(1)` to count on.
                        gl.set_write_mode(WriteMode::StencilReplace(1));
                        gl.draw_filled_polygon(&mark);
                        gl.set_write_mode(mode);
                        gl
                    };
                    let (mut direct, mut oracle) = (fresh(), fresh());
                    direct.draw_filled_polygon(r);
                    collected_fill(&mut oracle, r);
                    assert_eq!(direct.stats(), oracle.stats(), "{mode:?} {r:?}");
                    assert_eq!(
                        direct.frame_buffer(),
                        oracle.frame_buffer(),
                        "{mode:?} {r:?}"
                    );
                    written += direct.stats().pixels_written;
                }
            }
        }
        assert!(written > 1_000, "{written}");
    }

    #[test]
    fn data_space_projection_applies() {
        // Viewport over [100, 200]²: a segment at data x = 150 lands mid-window.
        let vp = Viewport::new(Rect::new(100.0, 100.0, 200.0, 200.0), 8, 8);
        let mut gl = GlContext::new(vp);
        gl.draw_segments(&[seg(150.0, 100.0, 150.0, 200.0)]);
        assert!(lit(&gl).iter().any(|&(x, _)| x == 3 || x == 4));
    }
}
