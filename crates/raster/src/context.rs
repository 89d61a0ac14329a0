//! The pipeline state of the simulated card and the replay that drives it:
//! [`GlContext`] runs a recorded [`CommandList`] one command at a time —
//! set color, render edges, accumulate, minmax, the steps of Algorithm 3.1
//! — for [`crate::ReferenceDevice`], the only code that turns commands
//! into pixels. Also the state types and hardware limits the
//! [`crate::Recorder`] validates against.

use crate::aa_line::{aa_line_outside_window, SegmentCover};
use crate::cover::Cover;
use crate::device::{Command, CommandList, Execution, Readback};
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

/// The pipeline state Algorithm 3.1 manipulates, over the frame buffer of
/// one execution. A context lives for one [`CommandList`]: it starts at
/// the defaults with every counter at zero, so what it charges is a
/// function of the list alone. The [`crate::Recorder`] validated every
/// value a command sets — colors in `[0, 1]`, widths and sizes within the
/// hardware limits, scissors and cells inside the window, a viewport
/// before every draw — so nothing here checks them again.
#[derive(Debug)]
pub(crate) struct GlContext<'fb> {
    fb: &'fb mut FrameBuffer,
    stats: HwStats,
    viewport: Option<Viewport>,
    color: f32,
    line_width: f64,
    point_size: f64,
    write_mode: WriteMode,
    /// Draws project through the viewport into this `w × h` window, whose
    /// pixels land at offset `(x, y)` in the frame buffer — the atlas's
    /// cell-local rendering. All per-pixel math happens in the
    /// scissor-local window, so a cell renders bit-identically to a
    /// standalone window of the same size.
    scissor: Option<PixelRect>,
}

impl<'fb> GlContext<'fb> {
    /// The default state over `fb`, which must be cleared.
    pub(crate) fn new(fb: &'fb mut FrameBuffer) -> Self {
        GlContext {
            fb,
            stats: HwStats::default(),
            viewport: None,
            color: crate::framebuffer::HALF_GRAY,
            line_width: crate::aa_line::DIAGONAL_WIDTH,
            point_size: 1.0,
            write_mode: WriteMode::Overwrite,
            scissor: None,
        }
    }

    /// Runs `list` command by command — nothing reordered, nothing fused —
    /// and returns the work charged and the readbacks in recorded order.
    pub(crate) fn execute(mut self, list: &CommandList) -> Execution {
        let mut readbacks = Vec::with_capacity(list.readback_count());
        for cmd in list.commands() {
            let (fb, stats) = (&mut *self.fb, &mut self.stats);
            match *cmd {
                Command::SetColor(c) => self.color = c,
                Command::SetLineWidth(width) => self.line_width = width,
                Command::SetPointSize(size) => self.point_size = size,
                Command::SetWriteMode(mode) => self.write_mode = mode,
                Command::SetViewport(vp) => self.viewport = Some(vp),
                Command::SetScissor(r) => self.scissor = r,
                Command::ClearColor => fb.clear_color(BLACK, stats),
                Command::ClearAccum => fb.clear_accum(stats),
                Command::ClearStencil => fb.clear_stencil(stats),
                Command::AccumLoad => fb.accum_load(stats),
                Command::AccumAdd => fb.accum_add(stats),
                Command::AccumReturn => fb.accum_return(stats),
                Command::BeginBatch => stats.batches += 1,
                Command::DrawSegments {
                    start,
                    len,
                    new_call,
                } => self.draw_segments(list.seg_run(start, len), new_call),
                Command::DrawPoints {
                    start,
                    len,
                    new_call,
                } => self.draw_points(list.point_run(start, len), new_call),
                Command::FillPolygon { start, len } => {
                    self.draw_filled_polygon(list.poly_run(start, len))
                }
                Command::Minmax => {
                    stats.minmax_queries += 1;
                    let (mn, mx) = fb.minmax(stats);
                    readbacks.push(Readback::Minmax(mn, mx));
                }
                Command::StencilCount { min } => {
                    stats.minmax_queries += 1;
                    readbacks.push(Readback::StencilCount(fb.stencil_count_ge(min, stats)));
                }
                Command::CellMax { start, len } => {
                    readbacks.push(Readback::CellMax(
                        self.cell_max_scan(list.cell_run(start, len)),
                    ));
                }
            }
        }
        Execution {
            stats: self.stats,
            readbacks,
        }
    }

    /// The projection of the draw being run. The recorder orders a
    /// viewport before every draw.
    #[inline]
    fn viewport(&self) -> Viewport {
        self.viewport
            .expect("the recorder sets a viewport before a draw")
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

    /// Draws a run of segments (data coordinates) with the current line
    /// state; vertices are *not* widened — the distance test draws its
    /// vertex caps as points. `new_call` charges a draw call: the atlas
    /// extends one logical submission over several recorded runs.
    fn draw_segments(&mut self, segments: &[Segment], new_call: bool) {
        self.stats.draw_calls += usize::from(new_call);
        let (width, viewport, PixelRect { w, h, .. }) =
            (self.line_width, self.viewport(), self.window());
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
    /// window pixels its disc reaches. `new_call` as for segments.
    fn draw_points(&mut self, points: &[Point], new_call: bool) {
        self.stats.draw_calls += usize::from(new_call);
        let (size, viewport, PixelRect { w, h, .. }) =
            (self.point_size, self.viewport(), self.window());
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
            let (tested, written) = cover.paint(self.fb, window, self.color);
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
    fn draw_filled_polygon(&mut self, vertices: &[Point]) {
        self.stats.draw_calls += 1;
        self.stats.primitives += 1;
        let (window, viewport) = (self.window(), self.viewport());
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

    /// One whole-buffer scan reducing each of `cells` to the maximum
    /// value inside it — the batched stand-in for per-cell Minmax queries
    /// (a histogram/reduction pass over the full buffer).
    fn cell_max_scan(&mut self, cells: &[PixelRect]) -> Vec<f32> {
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
    use crate::device::{RasterDevice, RecordError, Recorder, ReferenceDevice};
    use spatial_geom::Rect;

    /// The identity projection of an `n × n` window.
    fn identity(n: usize) -> Viewport {
        Viewport::new(Rect::new(0.0, 0.0, n as f64, n as f64), n, n)
    }

    /// Records `draw` behind `viewport` (color, widths and write mode at
    /// their defaults), executes it and returns what it charged, read
    /// back and left in the frame.
    fn render(
        viewport: Viewport,
        draw: impl FnOnce(&mut Recorder) -> Result<(), RecordError>,
    ) -> (Execution, FrameBuffer) {
        let mut rec = Recorder::new(viewport.width(), viewport.height()).unwrap();
        rec.set_viewport(viewport).unwrap();
        draw(&mut rec).unwrap();
        let mut device = ReferenceDevice::new();
        let exec = device.execute(&rec.finish()).unwrap();
        (exec, device.snapshot().unwrap())
    }

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    /// The `(x, y)` of every pixel with a non-black color.
    fn lit(fb: &FrameBuffer) -> Vec<(usize, usize)> {
        (0..fb.height())
            .flat_map(|y| (0..fb.width()).map(move |x| (x, y)))
            .filter(|&(x, y)| fb.read_pixel(x, y) > 0.0)
            .collect()
    }

    /// The maximum color of Algorithm 3.1 steps 2.2–2.8 over two runs of
    /// segments in an 8 × 8 window.
    fn accumulated_max(first: Segment, second: Segment) -> f32 {
        let (exec, _) = render(identity(8), |rec| {
            rec.clear_color();
            rec.clear_accum();
            rec.draw_segments([first])?;
            rec.accum_load();
            rec.clear_color();
            rec.draw_segments([second])?;
            rec.accum_add();
            rec.accum_return();
            rec.minmax();
            Ok(())
        });
        exec.max_red(0).unwrap()
    }

    #[test]
    fn algorithm_31_choreography_detects_overlap() {
        let max = accumulated_max(seg(0.0, 0.0, 8.0, 8.0), seg(0.0, 8.0, 8.0, 0.0));
        assert_eq!(max, 1.0, "crossing segments must reach white");
    }

    #[test]
    fn algorithm_31_choreography_no_overlap() {
        let max = accumulated_max(seg(0.5, 0.5, 0.5, 7.5), seg(7.5, 0.5, 7.5, 7.5));
        assert_eq!(max, 0.5, "disjoint segments stay half gray");
    }

    #[test]
    fn smooth_point_disc_bleeds_across_pixel_rows() {
        // Regression: a size-1 smooth point centered just below the window
        // must still color row 0 (its disc reaches 0.09 into the window).
        // Truncating it to its containing pixel clips it entirely — and
        // that once caused the distance test to drop a vertex cap and
        // reject a truly-within-distance pair.
        // Window coords = data coords here; y = -0.41 is outside.
        let (_, fb) = render(identity(8), |rec| {
            rec.set_point_size(1.0)?;
            rec.draw_points([Point::new(3.5, -0.41)])
        });
        assert!(fb.read_pixel(3, 0) > 0.0, "disc must bleed into row 0");
    }

    #[test]
    fn wide_points_cover_vertices() {
        let (_, fb) = render(identity(8), |rec| {
            rec.set_point_size(4.0)?;
            rec.draw_points([Point::new(4.0, 4.0)])
        });
        // A 4-pixel disc around window (4,4) must cover several pixels.
        let covered = lit(&fb).len();
        assert!(covered >= 4, "got {covered}");
    }

    /// A segment with end points but no direction — the squared length of
    /// `b − a` underflows, so there is no unit vector to build a rectangle
    /// on — is still a segment: it colors the pixels its cap covers, like
    /// `a == b`.
    #[test]
    fn a_segment_without_a_direction_draws_its_cap() {
        let with_minmax = |draw: &dyn Fn(&mut Recorder) -> Result<(), RecordError>| {
            let (exec, fb) = render(identity(8), |rec| {
                draw(rec)?;
                rec.minmax();
                Ok(())
            });
            (exec.max_red(0).unwrap(), lit(&fb))
        };
        let collapsed = [seg(1e-200, 1e-200, 3e-200, 1e-200), seg(2.5, 2.5, 2.5, 2.5)];
        for s in collapsed {
            assert!((s.b - s.a).normalized().is_none(), "{s:?}");
            let (_, cap) = with_minmax(&|rec| {
                rec.set_point_size(crate::aa_line::DIAGONAL_WIDTH)?;
                rec.draw_points([s.a])
            });
            assert!(!cap.is_empty());
            let (max, painted) = with_minmax(&|rec| rec.draw_segments([s]));
            assert_eq!(painted, cap, "painted {s:?}");
            assert_eq!(max, 0.5);
        }

        // A whole triangle far below a pixel: every edge is such a segment.
        let speck = [
            seg(0.0, 0.0, 1e-170, 0.0),
            seg(1e-170, 0.0, 0.0, 1e-170),
            seg(0.0, 1e-170, 0.0, 0.0),
        ];
        let (max, _) = with_minmax(&|rec| rec.draw_segments(speck));
        assert_eq!(max, 0.5);
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
            let (window, viewport) = (gl.window(), gl.viewport());
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
                    let side = if scissor.is_some() { 24 } else { 8 };
                    let (mut direct_fb, mut oracle_fb) =
                        (FrameBuffer::new(side, side), FrameBuffer::new(side, side));
                    let fresh = |fb| {
                        let mut gl = GlContext::new(fb);
                        gl.scissor = scissor;
                        gl.viewport = Some(identity(8));
                        // Something for `StencilIncrIfEq(1)` to count on.
                        gl.write_mode = WriteMode::StencilReplace(1);
                        gl.draw_filled_polygon(&mark);
                        gl.write_mode = mode;
                        gl
                    };
                    let (mut direct, mut oracle) = (fresh(&mut direct_fb), fresh(&mut oracle_fb));
                    direct.draw_filled_polygon(r);
                    collected_fill(&mut oracle, r);
                    assert_eq!(direct.stats, oracle.stats, "{mode:?} {r:?}");
                    written += direct.stats.pixels_written;
                    assert_eq!(direct_fb, oracle_fb, "{mode:?} {r:?}");
                }
            }
        }
        assert!(written > 1_000, "{written}");
    }

    #[test]
    fn data_space_projection_applies() {
        // Viewport over [100, 200]²: a segment at data x = 150 lands mid-window.
        let vp = Viewport::new(Rect::new(100.0, 100.0, 200.0, 200.0), 8, 8);
        let (_, fb) = render(vp, |rec| {
            rec.draw_segments([seg(150.0, 100.0, 150.0, 200.0)])
        });
        assert!(lit(&fb).iter().any(|&(x, _)| x == 3 || x == 4));
    }
}
