//! Typed, validated command streams — the retained half of the device
//! layer.
//!
//! A [`Recorder`] captures one submission's worth of state changes, draws
//! and readback requests into a [`CommandList`], validating hardware limits
//! (line width, point size, viewport/window agreement, scissor bounds) *at
//! record time* — the moment a GL driver would reject the call — instead of
//! at execution. The list is immutable once finished: executing it twice,
//! or on two different [`crate::device::RasterDevice`]s, performs exactly
//! the same work, which is what makes replay-driven cost accounting
//! possible.
//!
//! Geometry is stored in flat arenas (one per primitive kind) and commands
//! reference `start/len` runs, so a recorded atlas batch is one contiguous
//! allocation rather than a tree of boxed draws.

use crate::context::{PixelRect, WriteMode, MAX_AA_LINE_WIDTH, MAX_POINT_SIZE};
use crate::viewport::Viewport;
use spatial_geom::{Point, Segment};
use std::fmt;

/// One retained device command. Draw commands index runs in the owning
/// [`CommandList`]'s geometry arenas; readback commands are assigned
/// result slots in record order.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Sets the current draw intensity, validated to lie in `[0, 1]` at
    /// record time.
    SetColor(f32),
    /// Sets the anti-aliased line width in pixels. The recorder validated
    /// it against [`MAX_AA_LINE_WIDTH`] and pre-clamped it to ≥ 1, so
    /// executors apply the stored value directly.
    SetLineWidth(f64),
    /// Sets the smooth-point diameter in pixels, validated against
    /// [`MAX_POINT_SIZE`] and pre-clamped to ≥ 1 at record time.
    SetPointSize(f64),
    /// Selects how fragments combine with the target plane (overwrite,
    /// additive blend, stencil replace, stencil increment-if-equal).
    SetWriteMode(WriteMode),
    /// Sets the data→window projection. The recorder verified that its
    /// window dimensions match the active rasterization window (the
    /// scissor if one is set, the frame buffer otherwise).
    SetViewport(Viewport),
    /// Restricts rasterization to a sub-rectangle (validated non-empty and
    /// in-bounds at record time), or lifts the restriction with `None`.
    SetScissor(Option<PixelRect>),
    /// Clears the color plane to black; charges one `pixels_scanned` pass.
    ClearColor,
    /// Clears the accumulation plane to black; charges one scan pass.
    ClearAccum,
    /// Clears the stencil plane to zero; charges one scan pass.
    ClearStencil,
    /// `glAccum(GL_LOAD)`: accum ← color; charges one scan pass.
    AccumLoad,
    /// `glAccum(GL_ACCUM)`: accum ← accum + color; charges one scan pass.
    AccumAdd,
    /// `glAccum(GL_RETURN)`: color ← accum clamped to [0, 1]; charges one
    /// scan pass.
    AccumReturn,
    /// Marks the start of a batched submission round (charges the
    /// per-batch fixed cost).
    BeginBatch,
    /// Draws a run of wide anti-aliased segments. `new_call` charges one
    /// draw call; merged continuations (`new_call == false`) extend the
    /// previous submission, the atlas's per-pass batching.
    DrawSegments {
        /// First segment of the run in the segment arena.
        start: usize,
        /// Number of segments (each charges one primitive).
        len: usize,
        /// Whether this submission charges a new draw call.
        new_call: bool,
    },
    /// Draws a run of smooth (anti-aliased) points.
    DrawPoints {
        /// First point of the run in the point arena.
        start: usize,
        /// Number of points (each charges one primitive).
        len: usize,
        /// Whether this submission charges a new draw call.
        new_call: bool,
    },
    /// Fills one polygon given by a run of vertices (one draw call, one
    /// primitive). The recorder verified a viewport was set; executors
    /// ignore runs of fewer than three vertices.
    FillPolygon {
        /// First vertex of the polygon in the vertex arena.
        start: usize,
        /// Vertex count.
        len: usize,
    },
    /// Minmax query over the color buffer → one readback slot.
    Minmax,
    /// Maximum stencil value → one readback slot.
    StencilMax,
    /// Number of pixels with stencil value ≥ `min` → one readback slot.
    /// The fragment-counting query of the area-of-overlap aggregation:
    /// scaled by the viewport's per-pixel world area, the count *is* the
    /// quantized overlap area.
    StencilCount {
        /// The inclusive stencil threshold a pixel must reach to count.
        min: u8,
    },
    /// Per-cell maximum reduction over a run of pixel rectangles
    /// (validated non-empty and in-bounds at record time) → one readback
    /// slot holding one value per rectangle.
    CellMax {
        /// First rectangle of the run in the cell arena.
        start: usize,
        /// Rectangle count.
        len: usize,
    },
}

impl Command {
    /// Whether executing this command produces a readback slot.
    #[inline]
    pub fn is_readback(&self) -> bool {
        matches!(
            self,
            Command::Minmax
                | Command::StencilMax
                | Command::StencilCount { .. }
                | Command::CellMax { .. }
        )
    }
}

/// An immutable recorded command stream targeting a `width × height`
/// window. Construct one through [`Recorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct CommandList {
    width: usize,
    height: usize,
    commands: Vec<Command>,
    segments: Vec<Segment>,
    points: Vec<Point>,
    polys: Vec<Point>,
    cells: Vec<PixelRect>,
    readbacks: usize,
}

impl CommandList {
    /// Target window width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Target window height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// The recorded commands, in submission order.
    #[inline]
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Number of readback slots the stream produces when executed.
    #[inline]
    pub fn readback_count(&self) -> usize {
        self.readbacks
    }

    #[inline]
    pub(crate) fn seg_run(&self, start: usize, len: usize) -> &[Segment] {
        &self.segments[start..start + len]
    }

    #[inline]
    pub(crate) fn point_run(&self, start: usize, len: usize) -> &[Point] {
        &self.points[start..start + len]
    }

    #[inline]
    pub(crate) fn poly_run(&self, start: usize, len: usize) -> &[Point] {
        &self.polys[start..start + len]
    }

    #[inline]
    pub(crate) fn cell_run(&self, start: usize, len: usize) -> &[PixelRect] {
        &self.cells[start..start + len]
    }

    /// A stable, human-readable one-line-per-command dump, including the
    /// referenced geometry. Coordinates print with `f64`'s shortest
    /// round-trip formatting, so the output is platform-independent —
    /// golden snapshot tests diff it verbatim.
    pub fn serialize(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let mut slot = 0usize;
        let _ = writeln!(out, "window {}x{}", self.width, self.height);
        for cmd in &self.commands {
            match *cmd {
                Command::SetColor(c) => {
                    let _ = writeln!(out, "set_color {c}");
                }
                Command::SetLineWidth(w) => {
                    let _ = writeln!(out, "set_line_width {w}");
                }
                Command::SetPointSize(s) => {
                    let _ = writeln!(out, "set_point_size {s}");
                }
                Command::SetWriteMode(m) => {
                    let _ = writeln!(out, "set_write_mode {m:?}");
                }
                Command::SetViewport(vp) => {
                    let r = vp.region();
                    let _ = writeln!(
                        out,
                        "set_viewport region=({} {} {} {}) window={}x{} scale=({} {})",
                        r.xmin,
                        r.ymin,
                        r.xmax,
                        r.ymax,
                        vp.width(),
                        vp.height(),
                        vp.scale_x(),
                        vp.scale_y()
                    );
                }
                Command::SetScissor(None) => {
                    let _ = writeln!(out, "set_scissor none");
                }
                Command::SetScissor(Some(r)) => {
                    let _ = writeln!(out, "set_scissor {} {} {}x{}", r.x, r.y, r.w, r.h);
                }
                Command::ClearColor => out.push_str("clear_color\n"),
                Command::ClearAccum => out.push_str("clear_accum\n"),
                Command::ClearStencil => out.push_str("clear_stencil\n"),
                Command::AccumLoad => out.push_str("accum_load\n"),
                Command::AccumAdd => out.push_str("accum_add\n"),
                Command::AccumReturn => out.push_str("accum_return\n"),
                Command::BeginBatch => out.push_str("begin_batch\n"),
                Command::DrawSegments {
                    start,
                    len,
                    new_call,
                } => {
                    let _ = write!(out, "draw_segments new_call={new_call} n={len}:");
                    for s in self.seg_run(start, len) {
                        let _ = write!(out, " ({} {})-({} {})", s.a.x, s.a.y, s.b.x, s.b.y);
                    }
                    out.push('\n');
                }
                Command::DrawPoints {
                    start,
                    len,
                    new_call,
                } => {
                    let _ = write!(out, "draw_points new_call={new_call} n={len}:");
                    for p in self.point_run(start, len) {
                        let _ = write!(out, " ({} {})", p.x, p.y);
                    }
                    out.push('\n');
                }
                Command::FillPolygon { start, len } => {
                    let _ = write!(out, "fill_polygon n={len}:");
                    for p in self.poly_run(start, len) {
                        let _ = write!(out, " ({} {})", p.x, p.y);
                    }
                    out.push('\n');
                }
                Command::Minmax => {
                    let _ = writeln!(out, "minmax slot={slot}");
                    slot += 1;
                }
                Command::StencilMax => {
                    let _ = writeln!(out, "stencil_max slot={slot}");
                    slot += 1;
                }
                Command::StencilCount { min } => {
                    let _ = writeln!(out, "stencil_count min={min} slot={slot}");
                    slot += 1;
                }
                Command::CellMax { start, len } => {
                    let _ = write!(out, "cell_max slot={slot} n={len}:");
                    for c in self.cell_run(start, len) {
                        let _ = write!(out, " [{} {} {}x{}]", c.x, c.y, c.w, c.h);
                    }
                    out.push('\n');
                    slot += 1;
                }
            }
        }
        out
    }
}

/// A record-time validation failure — the retained analogue of a GL error.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordError {
    /// Requested draw intensity is non-finite or outside `[0, 1]`.
    ColorOutOfRange(f32),
    /// Requested line width is non-finite or above [`MAX_AA_LINE_WIDTH`].
    WidthTooLarge(f64),
    /// Requested point size is non-finite or above [`MAX_POINT_SIZE`].
    PointSizeTooLarge(f64),
    /// Viewport window dimensions disagree with the rasterization window
    /// (the scissor if one is set, the frame buffer otherwise).
    ViewportMismatch {
        /// The active rasterization window's dimensions.
        expected: (usize, usize),
        /// The rejected viewport's window dimensions.
        got: (usize, usize),
    },
    /// Scissor rectangle is empty or exceeds the frame buffer.
    ScissorOutOfBounds(PixelRect),
    /// Cell-reduction rectangle is empty or exceeds the frame buffer.
    CellOutOfBounds(PixelRect),
    /// Merged (`extend_*`) draws are only defined in overwrite mode: the
    /// per-draw-call fragment deduplication of the other modes has no
    /// meaning across a merged run.
    MergedDrawRequiresOverwrite,
    /// A draw was recorded before any viewport was set.
    DrawWithoutViewport,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::ColorOutOfRange(c) => write!(f, "color {c} is not in [0, 1]"),
            RecordError::WidthTooLarge(w) => {
                write!(
                    f,
                    "line width {w} exceeds the hardware limit {MAX_AA_LINE_WIDTH}"
                )
            }
            RecordError::PointSizeTooLarge(s) => {
                write!(
                    f,
                    "point size {s} exceeds the hardware limit {MAX_POINT_SIZE}"
                )
            }
            RecordError::ViewportMismatch { expected, got } => write!(
                f,
                "viewport window {}x{} does not match the rasterization window {}x{}",
                got.0, got.1, expected.0, expected.1
            ),
            RecordError::ScissorOutOfBounds(r) => {
                write!(
                    f,
                    "scissor {} {} {}x{} outside the window",
                    r.x, r.y, r.w, r.h
                )
            }
            RecordError::CellOutOfBounds(r) => {
                write!(f, "cell {} {} {}x{} outside the window", r.x, r.y, r.w, r.h)
            }
            RecordError::MergedDrawRequiresOverwrite => {
                write!(f, "merged draws require WriteMode::Overwrite")
            }
            RecordError::DrawWithoutViewport => {
                write!(f, "draw recorded before any viewport was set")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// Records a validated [`CommandList`] targeting a `width × height`
/// window. State setters mirror [`crate::GlContext`]'s; draw methods take
/// any geometry iterator so callers can stream edges without intermediate
/// buffers.
#[derive(Debug)]
pub struct Recorder {
    list: CommandList,
    write_mode: WriteMode,
    viewport_set: bool,
    scissor: Option<PixelRect>,
}

impl Recorder {
    /// A recorder for a `width × height` pixel window.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width > 0 && height > 0,
            "window must have at least one pixel"
        );
        Recorder {
            list: CommandList {
                width,
                height,
                commands: Vec::new(),
                segments: Vec::new(),
                points: Vec::new(),
                polys: Vec::new(),
                cells: Vec::new(),
                readbacks: 0,
            },
            write_mode: WriteMode::Overwrite,
            viewport_set: false,
            scissor: None,
        }
    }

    /// Validates `c` to be a number in `[0, 1]` and records it as the
    /// current draw intensity. A NaN would vanish from every Minmax
    /// (`f32::max` drops NaN) and read back as "no overlap", the one
    /// verdict the filter must never invent.
    pub fn set_color(&mut self, c: f32) -> Result<(), RecordError> {
        if !(0.0..=1.0).contains(&c) {
            return Err(RecordError::ColorOutOfRange(c));
        }
        self.list.commands.push(Command::SetColor(c));
        Ok(())
    }

    /// Validates `w` against [`MAX_AA_LINE_WIDTH`] and records the
    /// effective (≥ 1 pixel) width, which is returned — mirroring
    /// [`crate::GlContext::set_line_width`], except that exceeding the
    /// hardware limit is an upfront error here rather than a silent clamp:
    /// the caller decides on the software fallback *before* the list
    /// exists.
    pub fn set_line_width(&mut self, w: f64) -> Result<f64, RecordError> {
        if !w.is_finite() || w > MAX_AA_LINE_WIDTH {
            return Err(RecordError::WidthTooLarge(w));
        }
        let eff = w.max(1.0);
        self.list.commands.push(Command::SetLineWidth(eff));
        Ok(eff)
    }

    /// Validates `s` against [`MAX_POINT_SIZE`] and records the effective
    /// (≥ 1 pixel) size.
    pub fn set_point_size(&mut self, s: f64) -> Result<f64, RecordError> {
        if !s.is_finite() || s > MAX_POINT_SIZE {
            return Err(RecordError::PointSizeTooLarge(s));
        }
        let eff = s.max(1.0);
        self.list.commands.push(Command::SetPointSize(eff));
        Ok(eff)
    }

    /// Records the fragment write mode. Tracked by the recorder as well:
    /// merged (`extend_*`) draws are rejected outside overwrite mode.
    pub fn set_write_mode(&mut self, mode: WriteMode) {
        self.write_mode = mode;
        self.list.commands.push(Command::SetWriteMode(mode));
    }

    /// Records the data→window projection. Its window dimensions must
    /// match the active rasterization window: the scissor if one is set
    /// (the atlas's cell-local projection), the full frame buffer
    /// otherwise.
    pub fn set_viewport(&mut self, vp: Viewport) -> Result<(), RecordError> {
        let expected = match self.scissor {
            Some(r) => (r.w, r.h),
            None => (self.list.width, self.list.height),
        };
        let got = (vp.width(), vp.height());
        if got != expected {
            return Err(RecordError::ViewportMismatch { expected, got });
        }
        self.viewport_set = true;
        self.list.commands.push(Command::SetViewport(vp));
        Ok(())
    }

    /// Restricts rasterization to `r` (or lifts the restriction). The
    /// rectangle must be non-empty and lie inside the window.
    pub fn set_scissor(&mut self, r: Option<PixelRect>) -> Result<(), RecordError> {
        if let Some(r) = r {
            if r.w == 0 || r.h == 0 || r.x + r.w > self.list.width || r.y + r.h > self.list.height {
                return Err(RecordError::ScissorOutOfBounds(r));
            }
        }
        self.scissor = r;
        self.list.commands.push(Command::SetScissor(r));
        Ok(())
    }

    /// Records a color-plane clear (to black).
    pub fn clear_color(&mut self) {
        self.list.commands.push(Command::ClearColor);
    }

    /// Records an accumulation-plane clear (to black).
    pub fn clear_accum(&mut self) {
        self.list.commands.push(Command::ClearAccum);
    }

    /// Records a stencil-plane clear (to zero).
    pub fn clear_stencil(&mut self) {
        self.list.commands.push(Command::ClearStencil);
    }

    /// Records `glAccum(GL_LOAD)`: accum ← color.
    pub fn accum_load(&mut self) {
        self.list.commands.push(Command::AccumLoad);
    }

    /// Records `glAccum(GL_ACCUM)`: accum ← accum + color.
    pub fn accum_add(&mut self) {
        self.list.commands.push(Command::AccumAdd);
    }

    /// Records `glAccum(GL_RETURN)`: color ← accum clamped to [0, 1].
    pub fn accum_return(&mut self) {
        self.list.commands.push(Command::AccumReturn);
    }

    /// Marks the start of a batched submission round.
    pub fn begin_batch(&mut self) {
        self.list.commands.push(Command::BeginBatch);
    }

    /// Records a draw call over a run of segments.
    pub fn draw_segments(
        &mut self,
        segments: impl IntoIterator<Item = Segment>,
    ) -> Result<(), RecordError> {
        self.push_segments(segments, true)
    }

    /// Extends the previous segment submission without a new draw call —
    /// only meaningful in overwrite mode (see
    /// [`RecordError::MergedDrawRequiresOverwrite`]).
    pub fn extend_draw_segments(
        &mut self,
        segments: impl IntoIterator<Item = Segment>,
    ) -> Result<(), RecordError> {
        if self.write_mode != WriteMode::Overwrite {
            return Err(RecordError::MergedDrawRequiresOverwrite);
        }
        self.push_segments(segments, false)
    }

    fn push_segments(
        &mut self,
        segments: impl IntoIterator<Item = Segment>,
        new_call: bool,
    ) -> Result<(), RecordError> {
        if !self.viewport_set {
            return Err(RecordError::DrawWithoutViewport);
        }
        let start = self.list.segments.len();
        self.list.segments.extend(segments);
        let len = self.list.segments.len() - start;
        self.list.commands.push(Command::DrawSegments {
            start,
            len,
            new_call,
        });
        Ok(())
    }

    /// Records a draw call over a run of points.
    pub fn draw_points(
        &mut self,
        points: impl IntoIterator<Item = Point>,
    ) -> Result<(), RecordError> {
        self.push_points(points, true)
    }

    /// Extends the previous point submission without a new draw call.
    pub fn extend_draw_points(
        &mut self,
        points: impl IntoIterator<Item = Point>,
    ) -> Result<(), RecordError> {
        if self.write_mode != WriteMode::Overwrite {
            return Err(RecordError::MergedDrawRequiresOverwrite);
        }
        self.push_points(points, false)
    }

    fn push_points(
        &mut self,
        points: impl IntoIterator<Item = Point>,
        new_call: bool,
    ) -> Result<(), RecordError> {
        if !self.viewport_set {
            return Err(RecordError::DrawWithoutViewport);
        }
        let start = self.list.points.len();
        self.list.points.extend(points);
        let len = self.list.points.len() - start;
        self.list.commands.push(Command::DrawPoints {
            start,
            len,
            new_call,
        });
        Ok(())
    }

    /// Records one filled-polygon draw.
    pub fn fill_polygon(
        &mut self,
        vertices: impl IntoIterator<Item = Point>,
    ) -> Result<(), RecordError> {
        if !self.viewport_set {
            return Err(RecordError::DrawWithoutViewport);
        }
        let start = self.list.polys.len();
        self.list.polys.extend(vertices);
        let len = self.list.polys.len() - start;
        self.list.commands.push(Command::FillPolygon { start, len });
        Ok(())
    }

    /// Records a Minmax query; returns the readback slot its result
    /// occupies in the [`crate::device::Execution`].
    pub fn minmax(&mut self) -> usize {
        self.list.commands.push(Command::Minmax);
        self.list.readbacks += 1;
        self.list.readbacks - 1
    }

    /// Records a stencil-maximum query; returns its readback slot.
    pub fn stencil_max(&mut self) -> usize {
        self.list.commands.push(Command::StencilMax);
        self.list.readbacks += 1;
        self.list.readbacks - 1
    }

    /// Records a stencil-count query (pixels with stencil ≥ `min`);
    /// returns its readback slot.
    pub fn stencil_count(&mut self, min: u8) -> usize {
        self.list.commands.push(Command::StencilCount { min });
        self.list.readbacks += 1;
        self.list.readbacks - 1
    }

    /// Records one per-cell maximum reduction scan; returns its
    /// readback slot. Every rectangle must be non-empty and inside the
    /// window.
    pub fn cell_max(
        &mut self,
        cells: impl IntoIterator<Item = PixelRect>,
    ) -> Result<usize, RecordError> {
        let start = self.list.cells.len();
        for c in cells {
            if c.w == 0 || c.h == 0 || c.x + c.w > self.list.width || c.y + c.h > self.list.height {
                self.list.cells.truncate(start);
                return Err(RecordError::CellOutOfBounds(c));
            }
            self.list.cells.push(c);
        }
        let len = self.list.cells.len() - start;
        self.list.commands.push(Command::CellMax { start, len });
        self.list.readbacks += 1;
        Ok(self.list.readbacks - 1)
    }

    /// Sizes the segment and point arenas for a caller that knows its
    /// totals up front (the atlas).
    pub(crate) fn reserve(&mut self, segments: usize, points: usize) {
        self.list.segments.reserve_exact(segments);
        self.list.points.reserve_exact(points);
    }

    /// Seals the stream.
    pub fn finish(self) -> CommandList {
        self.list
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framebuffer::HALF_GRAY;
    use spatial_geom::Rect;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn width_and_size_limits_are_record_time_errors() {
        let mut r = Recorder::new(8, 8);
        // A NaN intensity would vanish from every Minmax and read as "no
        // overlap"; nothing outside [0, 1] reaches the command tape.
        for bad in [f32::NAN, f32::INFINITY, -0.5, 1.5] {
            assert!(matches!(
                r.set_color(bad),
                Err(RecordError::ColorOutOfRange(_))
            ));
        }
        assert_eq!(r.set_color(0.0), Ok(()));
        assert_eq!(r.set_color(1.0), Ok(()));
        assert_eq!(
            r.set_line_width(MAX_AA_LINE_WIDTH + 0.1),
            Err(RecordError::WidthTooLarge(MAX_AA_LINE_WIDTH + 0.1))
        );
        assert!(matches!(
            r.set_line_width(f64::NAN),
            Err(RecordError::WidthTooLarge(_))
        ));
        assert_eq!(
            r.set_line_width(0.25),
            Ok(1.0),
            "clamped up like glLineWidth"
        );
        assert_eq!(r.set_line_width(MAX_AA_LINE_WIDTH), Ok(MAX_AA_LINE_WIDTH));
        assert!(matches!(
            r.set_point_size(MAX_POINT_SIZE * 2.0),
            Err(RecordError::PointSizeTooLarge(_))
        ));
        assert_eq!(r.set_point_size(3.0), Ok(3.0));
    }

    #[test]
    fn viewport_must_match_active_window() {
        let mut r = Recorder::new(8, 8);
        let bad = Viewport::new(Rect::new(0.0, 0.0, 4.0, 4.0), 4, 4);
        assert_eq!(
            r.set_viewport(bad),
            Err(RecordError::ViewportMismatch {
                expected: (8, 8),
                got: (4, 4)
            })
        );
        // With a 4×4 scissor the same viewport becomes valid (cell-local).
        r.set_scissor(Some(PixelRect {
            x: 2,
            y: 2,
            w: 4,
            h: 4,
        }))
        .unwrap();
        assert_eq!(r.set_viewport(bad), Ok(()));
    }

    #[test]
    fn scissor_and_cells_must_stay_inside() {
        let mut r = Recorder::new(8, 8);
        let overhang = PixelRect {
            x: 6,
            y: 0,
            w: 4,
            h: 4,
        };
        assert_eq!(
            r.set_scissor(Some(overhang)),
            Err(RecordError::ScissorOutOfBounds(overhang))
        );
        let empty = PixelRect {
            x: 0,
            y: 0,
            w: 0,
            h: 4,
        };
        assert_eq!(
            r.set_scissor(Some(empty)),
            Err(RecordError::ScissorOutOfBounds(empty))
        );
        assert!(r
            .set_scissor(Some(PixelRect {
                x: 4,
                y: 4,
                w: 4,
                h: 4
            }))
            .is_ok());
        let tall = PixelRect {
            x: 0,
            y: 7,
            w: 1,
            h: 2,
        };
        assert_eq!(r.cell_max([tall]), Err(RecordError::CellOutOfBounds(tall)));
    }

    #[test]
    fn draws_require_a_viewport() {
        let mut r = Recorder::new(8, 8);
        assert_eq!(
            r.draw_segments([seg(0.0, 0.0, 1.0, 1.0)]),
            Err(RecordError::DrawWithoutViewport)
        );
        r.set_viewport(Viewport::new(Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8))
            .unwrap();
        assert!(r.draw_segments([seg(0.0, 0.0, 1.0, 1.0)]).is_ok());
    }

    #[test]
    fn merged_draws_are_overwrite_only() {
        let mut r = Recorder::new(8, 8);
        r.set_viewport(Viewport::new(Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8))
            .unwrap();
        r.set_write_mode(WriteMode::Blend);
        assert_eq!(
            r.extend_draw_segments([seg(0.0, 0.0, 1.0, 1.0)]),
            Err(RecordError::MergedDrawRequiresOverwrite)
        );
        r.set_write_mode(WriteMode::Overwrite);
        assert!(r.extend_draw_segments([seg(0.0, 0.0, 1.0, 1.0)]).is_ok());
    }

    #[test]
    fn readback_slots_count_up_in_record_order() {
        let mut r = Recorder::new(8, 8);
        assert_eq!(r.minmax(), 0);
        assert_eq!(r.stencil_max(), 1);
        assert_eq!(
            r.cell_max([PixelRect {
                x: 0,
                y: 0,
                w: 2,
                h: 2
            }])
            .unwrap(),
            2
        );
        let list = r.finish();
        assert_eq!(list.readback_count(), 3);
    }

    #[test]
    fn serialization_is_deterministic_and_complete() {
        let build = || {
            let mut r = Recorder::new(8, 8);
            r.set_color(HALF_GRAY).unwrap();
            r.set_line_width(1.5).unwrap();
            r.set_viewport(Viewport::new(Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8))
                .unwrap();
            r.clear_color();
            r.draw_segments([seg(0.0, 0.0, 8.0, 8.0)]).unwrap();
            r.minmax();
            r.finish()
        };
        let a = build().serialize();
        let b = build().serialize();
        assert_eq!(a, b);
        assert!(a.contains("set_line_width 1.5"));
        assert!(a.contains("draw_segments new_call=true n=1: (0 0)-(8 8)"));
        assert!(a.contains("minmax slot=0"));
        assert_eq!(a.lines().count(), 7, "one line per command plus header");
    }
}
