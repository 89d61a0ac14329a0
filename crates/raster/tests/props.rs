//! Property tests for the rasterization rules the paper's correctness
//! argument depends on (§2.2, §3.1).

use proptest::prelude::*;
use spatial_geom::predicates::segments_intersect;
use spatial_geom::{Point, Rect, Segment};
use spatial_raster::aa_line::{rasterize_aa_line, DIAGONAL_WIDTH};
use spatial_raster::framebuffer::HALF_GRAY;
use spatial_raster::point_raster::rasterize_wide_point;
use spatial_raster::{HwStats, RasterDevice, Recorder, ReferenceDevice, Viewport};

fn aa_pixels(a: Point, b: Point, w: f64, win: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut st = HwStats::default();
    rasterize_aa_line(a, b, w, win, win, &mut st, &mut |x, y| out.push((x, y)));
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Conservativeness of AA lines: every pixel the mathematical segment
    /// passes through is colored (for any positive width).
    #[test]
    fn aa_line_covers_segment(
        ax in 0.0f64..16.0, ay in 0.0f64..16.0,
        bx in 0.0f64..16.0, by in 0.0f64..16.0,
        w in 0.1f64..4.0,
    ) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        prop_assume!(a != b);
        let px = aa_pixels(a, b, w, 16);
        for k in 0..=100 {
            let p = a.lerp(b, k as f64 / 100.0);
            let cell = ((p.x.floor() as usize).min(15), (p.y.floor() as usize).min(15));
            prop_assert!(px.contains(&cell), "segment point {} missed pixel {:?}", p, cell);
        }
    }

    /// The Algorithm 3.1 invariant at rasterizer level: intersecting
    /// segments always share at least one colored pixel — at any window
    /// resolution, any line width.
    #[test]
    fn crossing_segments_always_share_a_pixel(
        ax in 0.0f64..1.0, ay in 0.0f64..1.0,
        bx in 0.0f64..1.0, by in 0.0f64..1.0,
        cx in 0.0f64..1.0, cy in 0.0f64..1.0,
        dx in 0.0f64..1.0, dy in 0.0f64..1.0,
        win in 1usize..33,
    ) {
        let (a, b) = (Point::new(ax, ay), Point::new(bx, by));
        let (c, d) = (Point::new(cx, cy), Point::new(dx, dy));
        prop_assume!(a != b && c != d);
        prop_assume!(segments_intersect(a, b, c, d));
        let s = win as f64;
        let scale = |p: Point| Point::new(p.x * s, p.y * s);
        let p1 = aa_pixels(scale(a), scale(b), DIAGONAL_WIDTH, win);
        let p2 = aa_pixels(scale(c), scale(d), DIAGONAL_WIDTH, win);
        prop_assert!(
            p1.iter().any(|c| p2.contains(c)),
            "intersecting segments share no pixel at {}x{}", win, win
        );
    }

    /// Wide points cover the full disc (no point within the radius falls
    /// into an un-colored pixel).
    #[test]
    fn wide_point_covers_disc(
        px in 1.0f64..15.0, py in 1.0f64..15.0,
        size in 0.2f64..6.0,
        ang in 0.0f64..std::f64::consts::TAU,
        frac in 0.0f64..1.0,
    ) {
        let c = Point::new(px, py);
        let mut pixels = Vec::new();
        let mut st = HwStats::default();
        rasterize_wide_point(c, size, 16, 16, &mut st, &mut |x, y| pixels.push((x, y)));
        let q = Point::new(
            c.x + frac * size / 2.0 * ang.cos(),
            c.y + frac * size / 2.0 * ang.sin(),
        );
        let cell = ((q.x.floor() as usize).min(15), (q.y.floor() as usize).min(15));
        prop_assert!(pixels.contains(&cell), "disc point {} missed pixel {:?}", q, cell);
    }

    /// End-to-end device invariant: the full Algorithm 3.1 buffer
    /// choreography, recorded and executed, reports overlap whenever two
    /// segments truly intersect.
    #[test]
    fn context_choreography_is_conservative(
        ax in 0.0f64..100.0, ay in 0.0f64..100.0,
        bx in 0.0f64..100.0, by in 0.0f64..100.0,
        cx in 0.0f64..100.0, cy in 0.0f64..100.0,
        dx in 0.0f64..100.0, dy in 0.0f64..100.0,
        win in 1usize..17,
    ) {
        let s1 = Segment::new(Point::new(ax, ay), Point::new(bx, by));
        let s2 = Segment::new(Point::new(cx, cy), Point::new(dx, dy));
        prop_assume!(!s1.is_degenerate() && !s2.is_degenerate());
        let vp = Viewport::new(Rect::new(0.0, 0.0, 100.0, 100.0), win, win);
        let mut rec = Recorder::new(win, win).unwrap();
        rec.set_viewport(vp).unwrap();
        rec.set_color(HALF_GRAY).unwrap();
        rec.set_line_width(DIAGONAL_WIDTH).unwrap();
        rec.clear_color();
        rec.clear_accum();
        rec.draw_segments([s1]).unwrap();
        rec.accum_load();
        rec.clear_color();
        rec.draw_segments([s2]).unwrap();
        rec.accum_add();
        rec.accum_return();
        let slot = rec.minmax();
        let exec = ReferenceDevice::new().execute(&rec.finish()).unwrap();
        let overlap = exec.max_red(slot).unwrap() >= 1.0;
        if s1.intersects(&s2) {
            prop_assert!(overlap, "true intersection reported as disjoint");
        }
        // The converse may be false (false hits at coarse resolutions) —
        // that is exactly why Algorithm 3.1 keeps the software step 3.
    }
}
