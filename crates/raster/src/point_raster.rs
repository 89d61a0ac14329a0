//! Smooth (anti-aliased) point rasterization — the vertex caps of the
//! §3.1 distance test.

use crate::cover::{candidate_range, clamp_to_pixel, coordinate, Cover, Footprint};
use crate::stats::HwStats;
use spatial_geom::Point;
use std::ops::Range;

/// The clip test for the diameter-`size` smooth point at `p` (window
/// coordinates): true only when [`WidePointCover::new`] would return `None`
/// — `p.x + r < 0` ends the disc left of column 0 and `p.x − r ≥ width`
/// starts it at or past `width`, same in y — so skipping a point on it
/// changes no pixel and no counter. A NaN coordinate compares false: the
/// setup clamps it into the window and charges its candidates.
#[inline]
pub(crate) fn wide_point_outside_window(p: Point, size: f64, width: usize, height: usize) -> bool {
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
    if let Some(cover) = WidePointCover::new(p, size, width, height) {
        stats.fragments_tested += cover.emit(sink);
    }
}

/// The hoisted per-point setup of the smooth-point rasterizer: disc radius
/// and candidate ranges.
#[derive(Debug, Clone)]
pub struct WidePointCover {
    columns: Range<usize>,
    rows: Range<usize>,
    px: f64,
    py: f64,
    r2: f64,
}

impl WidePointCover {
    /// Coverage setup for the diameter-`size` disc at `p` over the window
    /// columns `0..width` and scanlines `0..height`. `None` when the disc
    /// cannot touch the window.
    #[inline]
    pub(crate) fn new(p: Point, size: f64, width: usize, height: usize) -> Option<Self> {
        debug_assert!(size > 0.0);
        let r = size / 2.0;
        let columns = candidate_range(p.x - r, p.x + r, width)?;
        let rows = candidate_range(p.y - r, p.y + r, height)?;
        Some(WidePointCover {
            columns,
            rows,
            px: p.x,
            py: p.y,
            r2: r * r,
        })
    }
}

impl Footprint for WidePointCover {
    /// The squared distance from the disc center to the scanline's band.
    type Row = f64;

    #[inline]
    fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    #[inline]
    fn columns(&self) -> Range<usize> {
        self.columns.clone()
    }

    #[inline]
    fn row(&self, j: usize) -> f64 {
        let dy = clamp_to_pixel(self.py, coordinate(j)) - self.py;
        dy * dy
    }

    /// The closest point of the pixel square to the disc center lies
    /// within the radius.
    #[inline]
    fn covers(&self, dy2: f64, i: usize) -> bool {
        let dx = clamp_to_pixel(self.px, coordinate(i)) - self.px;
        dx * dx + dy2 <= self.r2
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
