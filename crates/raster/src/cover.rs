//! What every rasterized primitive kind provides, and the two ways a draw
//! walks it.
//!
//! A wide line and a smooth point differ only in their [`Footprint`]: the
//! candidate pixels of the window their extent can touch and the predicate
//! that decides each of them. Walking the candidates is the same for both
//! and comes in two forms ([`Cover`]): *paint* writes the covered pixels of
//! a candidate row straight into the color plane's row slice — the
//! overwrite mode every draw of Algorithm 3.1 and of the §3.1 distance test
//! runs in — and *emit* hands each covered pixel to a sink, for the Blend /
//! Stencil write modes that must see a draw call's fragments together. Both
//! read the one predicate, so they cover the same pixels by construction.

use crate::context::PixelRect;
use crate::framebuffer::FrameBuffer;
use std::ops::Range;

/// The pixels of an `n`-pixel window axis that the closed extent
/// `[min, max]` (window coordinates) can touch: `⌊min⌋ ..= ⌊max⌋` clamped
/// into `0 .. n`, `None` when that is empty.
///
/// No `floor`: an extent that ends below 0 touches nothing, and for a
/// non-negative value the truncating cast *is* `floor` — NaN → 0 and
/// saturation included — while a negative lower end truncates to 0, where
/// the clamp would have put it. On baseline x86-64 `floor` is a call into
/// libm, four of them per primitive setup.
#[inline]
pub(crate) fn candidate_range(min: f64, max: f64, n: usize) -> Option<Range<usize>> {
    if max < 0.0 {
        return None;
    }
    // (Through `i64`, like `coordinate`: a window is far narrower than 2⁶³.)
    let lo = (min as i64).max(0);
    let end = (max as i64).min(n as i64 - 1) + 1;
    (lo < end).then_some(lo as usize..end as usize)
}

/// Pixel index → window coordinate of the pixel's low edge. By way of
/// `i64`: x86-64 converts a signed integer in one instruction and an
/// unsigned one in five, and an index is far below 2⁶³.
#[inline]
pub(crate) fn coordinate(i: usize) -> f64 {
    i as i64 as f64
}

/// `p` clamped into the pixel interval `[lo, lo + 1]` — [`f64::clamp`]
/// (NaN stays NaN) without its `min <= max` assertion, which the compiler
/// cannot discharge for floats and would re-check per pixel.
#[inline]
pub(crate) fn clamp_to_pixel(p: f64, lo: f64) -> f64 {
    let hi = lo + 1.0;
    if p < lo {
        lo
    } else if p > hi {
        hi
    } else {
        p
    }
}

/// The candidate pixels of one primitive and its coverage predicate.
pub(crate) trait Footprint {
    /// The terms of the predicate that are constant along a scanline.
    type Row: Copy;
    /// The candidate scanlines (window coordinates).
    fn rows(&self) -> Range<usize>;
    /// The candidate columns, the same on every scanline.
    fn columns(&self) -> Range<usize>;
    /// The predicate's terms for scanline `j`.
    fn row(&self, j: usize) -> Self::Row;
    /// Whether the primitive covers pixel `i` of the scanline `row` was
    /// derived from.
    fn covers(&self, row: Self::Row, i: usize) -> bool;
}

/// A primitive set up for rasterization into a window.
pub(crate) trait Cover {
    /// Calls `sink(x, y)` for every covered pixel (window coordinates),
    /// row by row in ascending column order; returns the number of
    /// fragments tested (the candidate count).
    fn emit(&self, sink: &mut impl FnMut(usize, usize)) -> usize;

    /// Writes `color` to every covered pixel of `fb`'s color plane, the
    /// window's origin at `window.x, window.y`; returns the number of
    /// fragments tested and of pixels written.
    fn paint(&self, fb: &mut FrameBuffer, window: PixelRect, color: f32) -> (usize, usize);
}

impl<F: Footprint> Cover for F {
    #[inline]
    fn emit(&self, sink: &mut impl FnMut(usize, usize)) -> usize {
        for j in self.rows() {
            let row = self.row(j);
            for i in self.columns() {
                if self.covers(row, i) {
                    sink(i, j);
                }
            }
        }
        self.rows().len() * self.columns().len()
    }

    #[inline]
    fn paint(&self, fb: &mut FrameBuffer, window: PixelRect, color: f32) -> (usize, usize) {
        let (rows, columns) = (self.rows(), self.columns());
        debug_assert!(
            rows.end <= window.h && columns.end <= window.w,
            "candidates {columns:?} × {rows:?} leave the {}×{} window",
            window.w,
            window.h
        );
        let mut written = 0;
        for j in rows.clone() {
            let row = self.row(j);
            let pixels = fb.color_span_mut(
                window.y + j,
                window.x + columns.start..window.x + columns.end,
            );
            // A select rather than a guarded store: a row of a few pixels
            // can stay free of data-dependent branches.
            for (i, pixel) in columns.clone().zip(pixels) {
                let covered = self.covers(row, i);
                *pixel = if covered { color } else { *pixel };
                written += usize::from(covered);
            }
        }
        (rows.len() * columns.len(), written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `candidate_range` by its definition: `floor`, then clamp.
    fn floored(min: f64, max: f64, n: usize) -> Option<Range<usize>> {
        let lo = (min.floor() as i64).max(0);
        let hi = (max.floor() as i64).min(n as i64 - 1);
        (lo <= hi).then(|| lo as usize..hi as usize + 1)
    }

    #[test]
    fn cast_ranges_equal_floored_ranges() {
        let mut values = vec![
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e19,
            -1e19,
            9.3e18,
            -9.3e18,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for k in -3i32..=12 {
            let k = f64::from(k);
            values.extend([k, k + 0.5, k - 1e-9, k + 1e-9]);
        }
        values.extend([545.0, 545.5, 546.0, 546.5, 1e6]);
        let mut some = 0;
        for n in [1usize, 8, 546] {
            for &min in &values {
                for &max in &values {
                    let got = candidate_range(min, max, n);
                    assert_eq!(got, floored(min, max, n), "[{min}, {max}] on {n}");
                    some += usize::from(got.is_some());
                }
            }
        }
        assert!(some > 1000, "{some}");
    }
}
