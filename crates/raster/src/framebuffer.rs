//! The frame buffer: one color plane, one accumulation plane and the
//! stencil plane, with the buffer-level operations the paper and Hoff et
//! al. use (§2.1).
//!
//! A color is one `f32` intensity: every choreography draws gray and reads
//! back one maximum or one stencil count, so a pixel is exactly what its
//! consumers read — two `f32` planes and one `u8` plane, 9 bytes. The
//! paper's Algorithm 3.1 renders both polygons at 0.5 and searches for 1.0
//! after accumulation, so half-intensity values must add exactly — `f32`
//! holds 0.5 and 1.0 exactly, as 2003-era 8-bit-per-channel buffers held
//! 128 and 255.

use crate::scan;
use crate::stats::HwStats;
use std::ops::Range;

/// Pure black — the clear color.
pub(crate) const BLACK: f32 = 0.0;
/// The half-intensity gray Algorithm 3.1 renders with.
pub const HALF_GRAY: f32 = 0.5;

/// A rectangular array of pixels with all three buffer planes.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameBuffer {
    width: usize,
    height: usize,
    color: Vec<f32>,
    accum: Vec<f32>,
    stencil: Vec<u8>,
}

impl FrameBuffer {
    /// Allocates a cleared `width × height` frame buffer.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width > 0 && height > 0,
            "window must have at least one pixel"
        );
        FrameBuffer {
            width,
            height,
            color: vec![BLACK; width * height],
            accum: vec![BLACK; width * height],
            stencil: vec![0; width * height],
        }
    }

    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total pixel count.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.color.len()
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        y * self.width + x
    }

    /// Writes a color fragment (no blending: overwrite).
    #[inline]
    pub fn write_pixel(&mut self, x: usize, y: usize, c: f32, stats: &mut HwStats) {
        let i = self.idx(x, y);
        self.color[i] = c;
        stats.pixels_written += 1;
    }

    /// The color pixels `xs` of scanline `y`, for the overwrite-mode draws
    /// to paint a primitive's candidate row in place: one bounds check a
    /// row, and the caller counts what it wrote.
    #[inline]
    pub(crate) fn color_span_mut(&mut self, y: usize, xs: Range<usize>) -> &mut [f32] {
        debug_assert!(xs.end <= self.width && y < self.height);
        let row = y * self.width;
        &mut self.color[row + xs.start..row + xs.end]
    }

    /// `glStencilOp(GL_REPLACE)`: writes `val` into the stencil plane.
    #[inline]
    pub fn stencil_replace(&mut self, x: usize, y: usize, val: u8, stats: &mut HwStats) {
        let i = self.idx(x, y);
        self.stencil[i] = val;
        stats.pixels_written += 1;
    }

    /// `glStencilFunc(GL_EQUAL, reference)` + `GL_INCR`: increments only
    /// where the current value equals `reference`. This is what lets the
    /// §14 overlap count read `P ∩ Q`: the second fill's fragments only
    /// count on pixels the *first* fill marked, and only once.
    #[inline]
    pub fn stencil_incr_if_eq(&mut self, x: usize, y: usize, reference: u8, stats: &mut HwStats) {
        let i = self.idx(x, y);
        if self.stencil[i] == reference {
            self.stencil[i] = self.stencil[i].saturating_add(1);
        }
        stats.pixels_written += 1;
    }

    /// Reads one pixel's color (CPU-side debug path; real readback is what
    /// the Minmax function exists to avoid).
    #[inline]
    pub fn read_pixel(&self, x: usize, y: usize) -> f32 {
        self.color[self.idx(x, y)]
    }

    /// Clears the color buffer to `c`.
    pub(crate) fn clear_color(&mut self, c: f32, stats: &mut HwStats) {
        self.color.fill(c);
        stats.pixels_scanned += self.len();
    }

    /// Clears the accumulation buffer to black.
    pub(crate) fn clear_accum(&mut self, stats: &mut HwStats) {
        self.accum.fill(BLACK);
        stats.pixels_scanned += self.len();
    }

    /// Clears the stencil buffer to zero.
    pub(crate) fn clear_stencil(&mut self, stats: &mut HwStats) {
        self.stencil.fill(0);
        stats.pixels_scanned += self.len();
    }

    /// `glAccum(GL_LOAD, 1.0)`: accum ← color.
    pub(crate) fn accum_load(&mut self, stats: &mut HwStats) {
        self.accum.copy_from_slice(&self.color);
        stats.pixels_scanned += self.len();
    }

    /// `glAccum(GL_ACCUM, 1.0)`: accum ← accum + color.
    #[inline(always)]
    pub(crate) fn accum_add(&mut self, stats: &mut HwStats) {
        scan::add_assign(&mut self.accum, &self.color);
        stats.pixels_scanned += self.len();
    }

    /// `glAccum(GL_RETURN, 1.0)`: color ← accum (clamped to [0, 1]).
    #[inline(always)]
    pub(crate) fn accum_return(&mut self, stats: &mut HwStats) {
        scan::copy_clamped(&mut self.color, &self.accum);
        stats.pixels_scanned += self.len();
    }

    /// The hardware Minmax query (§3.2): minimum and maximum of the color
    /// buffer, computed "on the card" — i.e. without transferring
    /// pixels back — at the cost of one scan over the window.
    pub(crate) fn minmax(&self, stats: &mut HwStats) -> (f32, f32) {
        stats.pixels_scanned += self.len();
        scan::minmax(&self.color)
    }

    /// Number of pixels whose stencil value is at least `min` — the
    /// fragment-counting readback of the area-of-overlap aggregation.
    pub(crate) fn stencil_count_ge(&self, min: u8, stats: &mut HwStats) -> u64 {
        stats.pixels_scanned += self.len();
        scan::stencil_count_ge(&self.stencil, min)
    }

    /// Resets every plane to its cleared state without charging any
    /// counter. Device replay uses this to make execution a pure function
    /// of the command list: the paper's choreography pays for its own
    /// explicit clears, this one is bookkeeping between replays.
    pub(crate) fn reset(&mut self) {
        self.color.fill(BLACK);
        self.accum.fill(BLACK);
        self.stencil.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full white — the overlap signature Algorithm 3.1 searches for.
    const WHITE: f32 = 1.0;

    #[test]
    #[should_panic(expected = "at least one pixel")]
    fn zero_size_panics() {
        let _ = FrameBuffer::new(0, 4);
    }

    #[test]
    fn write_and_read() {
        let mut fb = FrameBuffer::new(4, 3);
        let mut st = HwStats::default();
        fb.write_pixel(2, 1, HALF_GRAY, &mut st);
        assert_eq!(fb.read_pixel(2, 1), HALF_GRAY);
        assert_eq!(fb.read_pixel(0, 0), BLACK);
        assert_eq!(st.pixels_written, 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut fb = FrameBuffer::new(2, 2);
        let mut st = HwStats::default();
        fb.write_pixel(0, 0, WHITE, &mut st);
        fb.clear_color(BLACK, &mut st);
        assert_eq!(fb.read_pixel(0, 0), BLACK);
        assert_eq!(st.pixels_scanned, 4);
    }

    #[test]
    fn accumulation_pipeline_finds_overlap() {
        // The exact buffer choreography of Algorithm 3.1 steps 2.2–2.8.
        let mut fb = FrameBuffer::new(4, 4);
        let mut st = HwStats::default();
        fb.clear_color(BLACK, &mut st);
        fb.clear_accum(&mut st);
        // "Polygon 1" covers pixels (0..2, 0..2).
        for y in 0..2 {
            for x in 0..2 {
                fb.write_pixel(x, y, HALF_GRAY, &mut st);
            }
        }
        fb.accum_load(&mut st);
        fb.clear_color(BLACK, &mut st);
        // "Polygon 2" covers pixels (1..3, 1..3): overlap at (1,1).
        for y in 1..3 {
            for x in 1..3 {
                fb.write_pixel(x, y, HALF_GRAY, &mut st);
            }
        }
        fb.accum_add(&mut st);
        fb.accum_return(&mut st);
        let (_, mx) = fb.minmax(&mut st);
        assert_eq!(mx, WHITE, "overlap pixel must reach full white");
        assert_eq!(fb.read_pixel(1, 1), WHITE);
        assert_eq!(fb.read_pixel(0, 0), HALF_GRAY);
        assert_eq!(
            st.minmax_queries, 0,
            "the replay charges the minmax counter"
        );
    }

    #[test]
    fn accumulation_no_overlap_stays_gray() {
        let mut fb = FrameBuffer::new(4, 1);
        let mut st = HwStats::default();
        fb.write_pixel(0, 0, HALF_GRAY, &mut st);
        fb.accum_load(&mut st);
        fb.clear_color(BLACK, &mut st);
        fb.write_pixel(3, 0, HALF_GRAY, &mut st);
        fb.accum_add(&mut st);
        fb.accum_return(&mut st);
        let (_, mx) = fb.minmax(&mut st);
        assert_eq!(mx, HALF_GRAY);
    }

    #[test]
    fn accum_return_clamps() {
        let mut fb = FrameBuffer::new(1, 1);
        let mut st = HwStats::default();
        fb.write_pixel(0, 0, WHITE, &mut st);
        fb.accum_load(&mut st);
        fb.accum_add(&mut st); // accum = 2.0
        fb.accum_return(&mut st);
        assert_eq!(fb.read_pixel(0, 0), WHITE, "clamped to 1.0");
    }
}
