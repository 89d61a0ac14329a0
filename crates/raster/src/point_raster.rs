//! Smooth (anti-aliased) point rasterization — the vertex caps of the
//! §3.1 distance test.

use crate::stats::HwStats;
use spatial_geom::Point;

/// The clip test for the diameter-`size` smooth point at `p` (window
/// coordinates): true only when [`WidePointCover::new`] would return `None`
/// — `p.x + r < 0` floors to an `x_hi` left of column 0 and `p.x − r ≥
/// width` to an `x_lo` at or past `width`, same in y — so skipping a point
/// on it changes no pixel and no counter. A NaN coordinate compares false:
/// the setup clamps it into the window and charges its candidates.
#[inline]
pub fn wide_point_outside_window(p: Point, size: f64, width: usize, height: usize) -> bool {
    let r = size / 2.0;
    p.x + r < 0.0 || p.x - r >= width as f64 || p.y + r < 0.0 || p.y - r >= height as f64
}

/// Rasterizes an anti-aliased ("smooth") point of diameter `size` at window
/// coordinates `p`: every pixel whose unit square intersects the disc of
/// diameter `size` centered at `p` is emitted.
///
/// The distance test widens polygon vertices with these points so that the
/// union of wide lines and wide points covers the full Minkowski expansion
/// of the boundary — the square end caps of the line rectangles miss the
/// round corners, the point discs supply them.
#[inline]
pub fn rasterize_wide_point(
    p: Point,
    size: f64,
    width: usize,
    height: usize,
    stats: &mut HwStats,
    sink: &mut impl FnMut(usize, usize),
) {
    let Some(cov) = WidePointCover::new(p, size, width, height) else {
        return;
    };
    for j in cov.rows() {
        stats.fragments_tested += cov.cover_row(j, &mut |x| sink(x, j as usize));
    }
}

/// The hoisted per-point setup of the smooth-point rasterizer (disc radius
/// and candidate ranges), from which [`rasterize_wide_point`] drives the
/// per-scanline disc test.
#[derive(Debug, Clone, Copy)]
pub struct WidePointCover {
    x_lo: i64,
    x_hi: i64,
    y_lo: i64,
    y_hi: i64,
    px: f64,
    py: f64,
    r2: f64,
}

impl WidePointCover {
    /// Coverage setup for the diameter-`size` disc at `p` over the window
    /// columns `0..width` and scanlines `0..height`. `None` when the disc
    /// cannot touch the window.
    pub fn new(p: Point, size: f64, width: usize, height: usize) -> Option<Self> {
        debug_assert!(size > 0.0);
        let r = size / 2.0;
        let x_lo = ((p.x - r).floor() as i64).max(0);
        let x_hi = ((p.x + r).floor() as i64).min(width as i64 - 1);
        let y_lo = ((p.y - r).floor() as i64).max(0);
        let y_hi = ((p.y + r).floor() as i64).min(height as i64 - 1);
        if x_lo > x_hi || y_lo > y_hi {
            return None;
        }
        Some(WidePointCover {
            x_lo,
            x_hi,
            y_lo,
            y_hi,
            px: p.x,
            py: p.y,
            r2: r * r,
        })
    }

    /// The candidate scanlines (inclusive, window coordinates).
    #[inline]
    pub fn rows(&self) -> std::ops::RangeInclusive<i64> {
        self.y_lo..=self.y_hi
    }

    /// Runs the disc test over scanline `j`'s candidate pixels, calling
    /// `emit(x)` for every covered column in ascending order; returns the
    /// number of fragments tested (the candidate count).
    #[inline]
    pub fn cover_row(&self, j: i64, emit: &mut impl FnMut(usize)) -> usize {
        debug_assert!(self.rows().contains(&j));
        // Closest point of the pixel square to the disc center; the y term
        // is constant along a scanline.
        let cy = self.py.clamp(j as f64, j as f64 + 1.0);
        let dy = cy - self.py;
        let dy2 = dy * dy;
        let mut i = self.x_lo;
        while i <= self.x_hi {
            let x = i as f64;
            let cx = self.px.clamp(x, x + 1.0);
            let dx = cx - self.px;
            if dx * dx + dy2 <= self.r2 {
                emit(i as usize);
            }
            i += 1;
        }
        (self.x_hi - self.x_lo + 1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_wide(p: Point, size: f64, w: usize, h: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut st = HwStats::default();
        rasterize_wide_point(p, size, w, h, &mut st, &mut |x, y| out.push((x, y)));
        out.sort_unstable();
        out
    }

    #[test]
    fn wide_point_covers_disc() {
        // Diameter 2 disc centered mid-pixel (2.5, 2.5) reaches into all
        // four-neighbours but not the diagonal-only corners at distance
        // > 1 from the disc.
        let px = collect_wide(Point::new(2.5, 2.5), 2.0, 6, 6);
        assert!(px.contains(&(2, 2)));
        assert!(px.contains(&(1, 2)));
        assert!(px.contains(&(3, 2)));
        assert!(px.contains(&(2, 1)));
        assert!(px.contains(&(2, 3)));
        // Corner pixel (1,1): its nearest square point (2,2) is at distance
        // sqrt(0.5) < 1, so the conservative coverage includes it.
        assert!(px.contains(&(1, 1)));
        // (0,0) is far outside.
        assert!(!px.contains(&(0, 0)));
    }

    #[test]
    fn wide_point_at_corner_is_clipped() {
        let px = collect_wide(Point::new(0.0, 0.0), 4.0, 3, 3);
        assert!(px.contains(&(0, 0)));
        assert!(px.iter().all(|&(x, y)| x < 3 && y < 3));
    }

    #[test]
    fn tiny_point_covers_containing_pixel() {
        let px = collect_wide(Point::new(1.5, 1.5), 0.1, 3, 3);
        assert_eq!(px, vec![(1, 1)]);
    }

    #[test]
    fn wide_point_covers_minkowski_disc() {
        // Every sample point within r of the center must land in an emitted
        // pixel (the conservativeness the distance test relies on).
        let c = Point::new(3.3, 2.7);
        let size = 3.0;
        let px = collect_wide(c, size, 8, 8);
        for k in 0..64 {
            let ang = k as f64 * std::f64::consts::TAU / 64.0;
            for &f in &[0.0, 0.5, 0.99] {
                let q = Point::new(
                    c.x + f * size / 2.0 * ang.cos(),
                    c.y + f * size / 2.0 * ang.sin(),
                );
                let cell = (q.x.floor() as usize, q.y.floor() as usize);
                assert!(px.contains(&cell), "sample {q} in pixel {cell:?} missing");
            }
        }
    }
}
