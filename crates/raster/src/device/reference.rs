//! The executor: verbatim replay onto [`GlContext`].
//!
//! In the record→validate→execute→replay-cost lifecycle this is the
//! *execute* station: one context call per recorded command, nothing
//! reordered, nothing fused. A future backend's obligation (see
//! [`crate::device`]) is defined against this replay.

use super::command::{Command, CommandList};
use super::{DeviceError, Execution, RasterDevice, Readback};
use crate::context::GlContext;
use crate::framebuffer::FrameBuffer;
use crate::viewport::Viewport;
use spatial_geom::Rect;

/// Replays command lists onto the immediate-mode [`GlContext`], one
/// command per context call. The context (and its pixel allocation) is kept
/// across executions and reused whenever the window size repeats, exactly
/// like the retarget-based hot paths it replaces.
#[derive(Debug, Default)]
pub struct ReferenceDevice {
    gl: Option<GlContext>,
}

impl ReferenceDevice {
    /// A fresh device; the GL context is allocated on first execute.
    pub fn new() -> Self {
        ReferenceDevice { gl: None }
    }
}

impl RasterDevice for ReferenceDevice {
    fn execute(&mut self, list: &CommandList) -> Result<Execution, DeviceError> {
        let (w, h) = (list.width(), list.height());
        // Placeholder projection until the stream's own SetViewport runs
        // (the recorder guarantees draws come after one).
        let window = Viewport::new(Rect::new(0.0, 0.0, w as f64, h as f64), w, h);
        match self.gl {
            Some(ref mut gl) => gl.retarget(window),
            None => self.gl = Some(GlContext::new(window)),
        }
        let gl = self.gl.as_mut().expect("context installed above");
        // Uncharged: the list's own recorded clears pay for clearing, so
        // the charged stats are a pure function of the list.
        gl.reset_for_replay();
        let before = gl.stats();
        let mut readbacks = Vec::with_capacity(list.readback_count());
        for cmd in list.commands() {
            match *cmd {
                Command::SetColor(c) => {
                    gl.set_color(c);
                }
                Command::SetLineWidth(width) => {
                    gl.set_line_width(width);
                }
                Command::SetPointSize(size) => {
                    gl.set_point_size(size);
                }
                Command::SetWriteMode(mode) => gl.set_write_mode(mode),
                Command::SetViewport(vp) => gl.set_projection(vp),
                Command::SetScissor(r) => gl.set_scissor(r),
                Command::ClearColor => gl.clear_color_buffer(),
                Command::ClearAccum => gl.clear_accum_buffer(),
                Command::ClearStencil => gl.clear_stencil_buffer(),
                Command::AccumLoad => gl.accum_load(),
                Command::AccumAdd => gl.accum_add(),
                Command::AccumReturn => gl.accum_return(),
                Command::BeginBatch => gl.begin_batch(),
                Command::DrawSegments {
                    start,
                    len,
                    new_call,
                } => {
                    let segs = list.seg_run(start, len);
                    if new_call {
                        gl.draw_segments(segs);
                    } else {
                        gl.draw_segments_merged(segs);
                    }
                }
                Command::DrawPoints {
                    start,
                    len,
                    new_call,
                } => {
                    let pts = list.point_run(start, len);
                    if new_call {
                        gl.draw_points(pts);
                    } else {
                        gl.draw_points_merged(pts);
                    }
                }
                Command::FillPolygon { start, len } => {
                    gl.draw_filled_polygon(list.poly_run(start, len));
                }
                Command::Minmax => {
                    let (mn, mx) = gl.minmax();
                    readbacks.push(Readback::Minmax(mn, mx));
                }
                Command::StencilCount { min } => {
                    readbacks.push(Readback::StencilCount(gl.stencil_count_ge(min)));
                }
                Command::CellMax { start, len } => {
                    readbacks.push(Readback::CellMax(
                        gl.cell_max_scan(list.cell_run(start, len)),
                    ));
                }
            }
        }
        Ok(Execution {
            stats: gl.stats().delta_since(&before),
            readbacks,
        })
    }

    fn snapshot(&self) -> Option<FrameBuffer> {
        self.gl.as_ref().map(|gl| gl.frame_buffer().clone())
    }
}
