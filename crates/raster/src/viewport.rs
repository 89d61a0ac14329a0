//! The data-space → window-space transform.
//!
//! §3.2 of the paper: "Another factor that has a large impact on
//! performance is the projection of the data space to the rendering
//! window" — the paper projects the MBR intersection for intersection
//! tests and the expanded MBR of the smaller object for distance tests;
//! `hwa-core` projects the part of that region the run boxes of both
//! boundaries can meet in, and the MBR intersection for the overlap count.
//! Those *policies* live in `hwa-core`; this module provides the mechanism:
//! an affine map from a data-space rectangle onto the pixel grid.

use spatial_geom::{Point, Rect};

/// Maps a data-space region onto a `width × height` pixel window.
///
/// Window coordinates follow §2.2.1: the window is a grid of unit cells;
/// pixel `(i, j)` occupies `[i, i+1) × [j, j+1)` and a point rasterizes to
/// the cell containing its (truncated) window coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewport {
    region: Rect,
    width: usize,
    height: usize,
    sx: f64,
    sy: f64,
}

impl Viewport {
    /// A viewport projecting `region` onto a `width × height` window.
    ///
    /// Degenerate regions (zero width/height, e.g. the MBR of an
    /// axis-aligned sliver) are inflated to a tiny positive extent so the
    /// transform stays finite: `MIN_EXTENT` where the coordinate can hold
    /// it, one ulp where it cannot — from 2¹⁴ up, half an ulp exceeds
    /// `MIN_EXTENT` and `min + MIN_EXTENT` rounds back to `min`.
    pub fn new(region: Rect, width: usize, height: usize) -> Self {
        assert!(
            width > 0 && height > 0,
            "window must have at least one pixel"
        );
        assert!(!region.is_empty(), "cannot project an empty region");
        const MIN_EXTENT: f64 = 1e-12;
        let inflated = |min: f64, max: f64| match max - min {
            extent if extent >= MIN_EXTENT => max,
            _ if min + MIN_EXTENT > min => min + MIN_EXTENT,
            _ => min.next_up(),
        };
        let mut region = region;
        region.xmax = inflated(region.xmin, region.xmax);
        region.ymax = inflated(region.ymin, region.ymax);
        Viewport {
            region,
            width,
            height,
            sx: width as f64 / region.width(),
            sy: height as f64 / region.height(),
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

    /// The projected data-space region.
    #[inline]
    pub(crate) fn region(&self) -> Rect {
        self.region
    }

    /// Data-space point → continuous window coordinates.
    #[inline]
    pub fn to_window(&self, p: Point) -> Point {
        Point::new(
            (p.x - self.region.xmin) * self.sx,
            (p.y - self.region.ymin) * self.sy,
        )
    }

    /// Data-space length along x → window-space length.
    #[inline]
    pub(crate) fn scale_x(&self) -> f64 {
        self.sx
    }

    /// Data-space length along y → window-space length.
    #[inline]
    pub(crate) fn scale_y(&self) -> f64 {
        self.sy
    }

    /// A *uniform-scale* viewport: both axes use the same pixels-per-unit
    /// factor (the one that fits the whole region), letterboxing the rest
    /// of the window. Equation (1) of the paper — `LineWidth = ⌈D · n /
    /// max(w, h)⌉` — presumes exactly this aspect-preserving projection:
    /// with anisotropic scaling a line widened by `w` pixels would cover
    /// different data-space distances along x and y. The distance test
    /// therefore always projects uniformly.
    pub fn uniform(region: Rect, width: usize, height: usize) -> Self {
        let mut vp = Viewport::new(region, width, height);
        let s = vp.sx.min(vp.sy);
        vp.sx = s;
        vp.sy = s;
        vp
    }

    /// Equation (1) of the paper: the pixel line width needed so that a
    /// line widened by `d` data-space units covers at least `d` on screen.
    ///
    /// Conservative under anisotropy: the *finer* axis (more pixels per
    /// data unit) dictates the width, so the rendered expansion always
    /// contains the data-space expansion. On a [`Viewport::uniform`]
    /// projection this is exactly `⌈d · n / max(w, h)⌉`.
    pub fn line_width_for_distance(&self, d: f64) -> f64 {
        (d * self.sx.max(self.sy)).ceil().max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_mapping() {
        let vp = Viewport::new(Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8);
        assert_eq!(vp.to_window(Point::new(0.0, 0.0)), Point::new(0.0, 0.0));
        assert_eq!(vp.to_window(Point::new(8.0, 8.0)), Point::new(8.0, 8.0));
        assert_eq!(vp.to_window(Point::new(4.0, 2.0)), Point::new(4.0, 2.0));
    }

    #[test]
    fn scaling_and_offset() {
        let vp = Viewport::new(Rect::new(100.0, 200.0, 300.0, 400.0), 16, 32);
        let w = vp.to_window(Point::new(200.0, 300.0)); // region center
        assert_eq!(w, Point::new(8.0, 16.0));
        assert_eq!(vp.scale_x(), 16.0 / 200.0);
        assert_eq!(vp.scale_y(), 32.0 / 200.0);
    }

    #[test]
    fn degenerate_region_is_inflated() {
        let vp = Viewport::new(Rect::new(5.0, 5.0, 5.0, 9.0), 4, 4);
        let w = vp.to_window(Point::new(5.0, 7.0));
        assert!(w.x.is_finite() && w.y.is_finite());
        assert_eq!(w.y, 2.0);
    }

    /// Past 2¹⁴ a zero extent cannot take `1e-12`: it widens by one ulp,
    /// and the scale stays finite. Below, the inflation is unchanged.
    #[test]
    fn degenerate_region_far_from_the_origin_is_inflated() {
        for x in [16_393.0, 2e4, 1e5, -1e5, 1e7] {
            let vp = Viewport::new(Rect::new(x, 5.0, x, 9.0), 8, 8);
            assert_eq!(vp.region().xmax, f64::next_up(x), "{x}");
            assert!(vp.scale_x().is_finite(), "{x}");
            assert_eq!(vp.to_window(Point::new(x, 7.0)), Point::new(0.0, 4.0));
        }
        let vp = Viewport::new(Rect::new(5.0, 5.0, 5.0, 9.0), 4, 4);
        assert_eq!(vp.region().xmax, 5.0 + 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty region")]
    fn empty_region_panics() {
        let _ = Viewport::new(Rect::EMPTY, 4, 4);
    }

    #[test]
    fn equation_one_line_width() {
        // 100-unit region on an 8-pixel window: 12.5 units per pixel.
        let vp = Viewport::new(Rect::new(0.0, 0.0, 100.0, 100.0), 8, 8);
        // d = 25 units = 2 pixels.
        assert_eq!(vp.line_width_for_distance(25.0), 2.0);
        // Fractional pixel widths round up (conservative).
        assert_eq!(vp.line_width_for_distance(13.0), 2.0);
        assert_eq!(vp.line_width_for_distance(12.5), 1.0);
        // Never below one pixel.
        assert_eq!(vp.line_width_for_distance(0.001), 1.0);
    }

    #[test]
    fn anisotropic_viewport_widens_conservatively() {
        // x: 10 px per 100 units (0.1 px/unit); y: 100 px per 100 units.
        let vp = Viewport::new(Rect::new(0.0, 0.0, 100.0, 100.0), 10, 100);
        assert_ne!(vp.scale_x(), vp.scale_y());
        // d = 30 units → 3 px on x but 30 px on y; the conservative width
        // must satisfy the finer axis.
        assert_eq!(vp.line_width_for_distance(30.0), 30.0);
    }

    #[test]
    fn uniform_viewport_matches_equation_one() {
        // 200×100 region on a 10×10 window: uniform scale = 10/200 = 0.05.
        let vp = Viewport::uniform(Rect::new(0.0, 0.0, 200.0, 100.0), 10, 10);
        assert_eq!(vp.scale_x(), vp.scale_y());
        assert_eq!(vp.scale_x(), 0.05);
        // Equation (1): ceil(d * n / max(w, h)) = ceil(30 * 10 / 200) = 2.
        assert_eq!(vp.line_width_for_distance(30.0), 2.0);
        // The far corner of the region still lands inside the window.
        let w = vp.to_window(Point::new(200.0, 100.0));
        assert!(w.x <= 10.0 && w.y <= 10.0);
    }
}
