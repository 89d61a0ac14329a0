//! Differential test of the clip stage: `GlContext` (which rejects
//! out-of-window primitives before any per-primitive setup, and filters a
//! fill's edge list once) against a test-local *unclipped* pipeline that
//! runs the full setup on everything, the way the context did before it
//! had a clip stage. Clipping must be invisible: same pixels, same planes,
//! same counters — over in-window, edge-grazing, far, huge, infinite and
//! NaN coordinates, every width, whole-window and scissor-cell windows and
//! all four write modes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spatial_geom::{Point, Rect, Segment};
use spatial_raster::aa_line::rasterize_aa_line;
use spatial_raster::framebuffer::HALF_GRAY;
use spatial_raster::point_raster::rasterize_wide_point;
use spatial_raster::polygon_raster::rasterize_polygon;
use spatial_raster::{
    FrameBuffer, GlContext, HwStats, PixelRect, Viewport, WriteMode, MAX_AA_LINE_WIDTH,
};

const MODES: [WriteMode; 4] = [
    WriteMode::Overwrite,
    WriteMode::Blend,
    WriteMode::StencilReplace(3),
    // The stencil plane starts at 0, so reference 0 makes every first
    // touch count.
    WriteMode::StencilIncrIfEq(0),
];

/// Where a draw lands: a `fb × fb` frame buffer, optionally scissored to
/// one atlas-style cell, and the projection into the active window.
#[derive(Clone, Copy)]
struct Window {
    fb: usize,
    scissor: Option<PixelRect>,
    viewport: Viewport,
}

impl Window {
    /// The whole `n × n` buffer, data coordinates = window coordinates.
    fn whole(n: usize) -> Self {
        Window {
            fb: n,
            scissor: None,
            viewport: Viewport::new(Rect::new(0.0, 0.0, n as f64, n as f64), n, n),
        }
    }

    /// An `n × n` cell at an interior offset of a `3n × 3n` buffer.
    fn cell(n: usize) -> Self {
        Window {
            fb: 3 * n,
            scissor: Some(PixelRect {
                x: n,
                y: 2 * n,
                w: n,
                h: n,
            }),
            viewport: Viewport::new(Rect::new(0.0, 0.0, n as f64, n as f64), n, n),
        }
    }

    /// Active window: scissor-local size and its origin in the buffer.
    fn active(&self) -> (usize, usize, usize, usize) {
        match self.scissor {
            Some(r) => (r.w, r.h, r.x, r.y),
            None => (self.fb, self.fb, 0, 0),
        }
    }

    fn context(&self, mode: WriteMode) -> GlContext {
        let placeholder = Rect::new(0.0, 0.0, 1.0, 1.0);
        let mut gl = GlContext::new(Viewport::new(placeholder, self.fb, self.fb));
        gl.set_projection(self.viewport);
        gl.set_scissor(self.scissor);
        gl.set_color(HALF_GRAY);
        gl.set_write_mode(mode);
        gl
    }
}

/// The unclipped pipeline: full per-primitive setup for every submitted
/// primitive, fragments collected per draw and written by mode.
struct Unclipped {
    win: Window,
    fb: FrameBuffer,
    stats: HwStats,
    mode: WriteMode,
}

impl Unclipped {
    fn new(win: Window, mode: WriteMode) -> Self {
        Unclipped {
            win,
            fb: FrameBuffer::new(win.fb, win.fb),
            stats: HwStats::default(),
            mode,
        }
    }

    fn draw_segments(&mut self, segments: &[Segment], width: f64) {
        let (w, h, ox, oy) = self.win.active();
        self.stats.draw_calls += 1;
        let mut frags = Vec::new();
        for seg in segments {
            self.stats.primitives += 1;
            let a = self.win.viewport.to_window(seg.a);
            let b = self.win.viewport.to_window(seg.b);
            let mut sink = |x: usize, y: usize| frags.push((ox + x, oy + y));
            // (A segment without a direction rasterizes as its cap.)
            rasterize_aa_line(a, b, width, w, h, &mut self.stats, &mut sink);
        }
        self.write(frags);
    }

    fn draw_points(&mut self, points: &[Point], size: f64) {
        let (w, h, ox, oy) = self.win.active();
        self.stats.draw_calls += 1;
        let mut frags = Vec::new();
        for &p in points {
            self.stats.primitives += 1;
            let wp = self.win.viewport.to_window(p);
            rasterize_wide_point(wp, size, w, h, &mut self.stats, &mut |x, y| {
                frags.push((ox + x, oy + y))
            });
        }
        self.write(frags);
    }

    fn fill(&mut self, vertices: &[Point]) {
        let (w, h, ox, oy) = self.win.active();
        self.stats.draw_calls += 1;
        self.stats.primitives += 1;
        let win: Vec<Point> = vertices
            .iter()
            .map(|&p| self.win.viewport.to_window(p))
            .collect();
        let mut frags = Vec::new();
        unclipped_fill(&win, w, h, &mut self.stats, &mut |x, y| {
            frags.push((ox + x, oy + y))
        });
        self.write(frags);
    }

    fn write(&mut self, mut frags: Vec<(usize, usize)>) {
        if matches!(self.mode, WriteMode::Blend | WriteMode::StencilIncrIfEq(_)) {
            frags.sort_unstable();
            frags.dedup();
        }
        for (x, y) in frags {
            match self.mode {
                WriteMode::Overwrite => self.fb.write_pixel(x, y, HALF_GRAY, &mut self.stats),
                WriteMode::Blend => self.fb.blend_pixel(x, y, HALF_GRAY, &mut self.stats),
                WriteMode::StencilReplace(v) => self.fb.stencil_replace(x, y, v, &mut self.stats),
                WriteMode::StencilIncrIfEq(r) => {
                    self.fb.stencil_incr_if_eq(x, y, r, &mut self.stats)
                }
            }
        }
    }
}

/// The scanline fill with the edge test inside the scanline loop: every
/// edge is examined on every row.
fn unclipped_fill(
    vertices: &[Point],
    width: usize,
    height: usize,
    stats: &mut HwStats,
    sink: &mut impl FnMut(usize, usize),
) {
    if vertices.len() < 3 {
        return;
    }
    let mut ymin = f64::INFINITY;
    let mut ymax = f64::NEG_INFINITY;
    for p in vertices {
        ymin = ymin.min(p.y);
        ymax = ymax.max(p.y);
    }
    let j_lo = (ymin.floor() as i64).max(0);
    let j_hi = (ymax.ceil() as i64).min(height as i64 - 1);
    let n = vertices.len();
    let mut xs: Vec<f64> = Vec::new();
    for j in j_lo..=j_hi {
        let yc = j as f64 + 0.5;
        xs.clear();
        for k in 0..n {
            let a = vertices[k];
            let b = vertices[(k + 1) % n];
            if (a.y > yc) != (b.y > yc) {
                let t = (yc - a.y) / (b.y - a.y);
                xs.push(a.x + t * (b.x - a.x));
            }
        }
        xs.sort_unstable_by(|p, q| p.total_cmp(q));
        for pair in xs.chunks_exact(2) {
            let i_lo = ((pair[0] - 0.5).ceil() as i64).max(0);
            let i_hi = ((pair[1] - 0.5).ceil() as i64)
                .saturating_sub(1)
                .min(width as i64 - 1);
            if i_lo <= i_hi {
                stats.fragments_tested += (i_hi - i_lo + 1) as usize;
                for i in i_lo..=i_hi {
                    sink(i as usize, j as usize);
                }
            }
        }
    }
}

/// One axis's coordinates for an `n`-pixel window and extent `w` (line
/// width or point size): inside, within ±w of both window edges —
/// including the values that put an extent of `w/2` or the clip slack `w`
/// exactly on 0 and on `n` — far outside, and the hostile values.
fn axis_pool(n: usize, w: f64) -> Vec<f64> {
    let n = n as f64;
    let tiny = 1e-9;
    vec![
        0.5,
        n / 2.0 + 0.25,
        n - 0.5,
        0.0,
        n,
        -w / 2.0,
        -w / 2.0 - tiny,
        -w / 2.0 + tiny,
        -w,
        -w - tiny,
        -w + tiny,
        n + w / 2.0,
        n + w / 2.0 - tiny,
        n + w,
        n + w + tiny,
        n + w - tiny,
        -1000.0,
        1000.0,
        1e150,
        -1e150,
        1e-150,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ]
}

/// Draws each primitive alone through a cleared context and the unclipped
/// pipeline and compares counters and, whenever either side wrote,
/// planes. One primitive emits a pixel at most once, so per-primitive
/// agreement of the written set and count is agreement of the emitted
/// multiset.
fn check_each<P: Copy + std::fmt::Debug>(
    win: Window,
    prims: &[P],
    configure: impl Fn(&mut GlContext),
    draw: impl Fn(&mut GlContext, P),
    draw_unclipped: impl Fn(&mut Unclipped, P),
) -> usize {
    let mut gl = win.context(WriteMode::Overwrite);
    configure(&mut gl);
    let mut oracle = Unclipped::new(win, WriteMode::Overwrite);
    let mut live = 0;
    for &p in prims {
        let (before, oracle_before) = (gl.stats(), oracle.stats);
        draw(&mut gl, p);
        draw_unclipped(&mut oracle, p);
        let delta = gl.stats().delta_since(&before);
        assert_eq!(delta, oracle.stats.delta_since(&oracle_before), "{p:?}");
        if delta.pixels_written > 0 {
            live += 1;
            assert_eq!(gl.frame_buffer(), &oracle.fb, "{p:?}");
            gl = win.context(WriteMode::Overwrite);
            configure(&mut gl);
            oracle = Unclipped::new(win, WriteMode::Overwrite);
        }
    }
    live
}

fn windows() -> [Window; 3] {
    [Window::whole(8), Window::cell(8), Window::whole(5)]
}

#[test]
fn clipped_aa_lines_match_unclipped_setup() {
    for win in windows() {
        let n = win.active().0;
        for width in [1.0, std::f64::consts::SQRT_2, 2.5, MAX_AA_LINE_WIDTH] {
            let pool = axis_pool(n, width);
            // Every (a.x, b.x) pair against a rotating choice of (a.y,
            // b.y), and the transpose: each axis sees the full product.
            let mut segs = Vec::new();
            for (i, &ax) in pool.iter().enumerate() {
                for (j, &bx) in pool.iter().enumerate() {
                    for k in 0..4 {
                        let ay = pool[(i + 5 * j + 7 * k) % pool.len()];
                        let by = pool[(3 * i + j + 11 * k + 1) % pool.len()];
                        segs.push(Segment::new(Point::new(ax, ay), Point::new(bx, by)));
                        segs.push(Segment::new(Point::new(ay, ax), Point::new(by, bx)));
                    }
                }
            }
            // Degenerate a == b at every pool position.
            for &x in &pool {
                for &y in &pool {
                    segs.push(Segment::new(Point::new(x, y), Point::new(x, y)));
                }
            }
            let live = check_each(
                win,
                &segs,
                |gl| {
                    gl.set_line_width(width);
                },
                |gl, s| gl.draw_segments(&[s]),
                |o, s| o.draw_segments(&[s], width),
            );
            assert!(live > 0 && live < segs.len(), "{live} of {}", segs.len());

            // The whole list as one run, in every write mode.
            for mode in MODES {
                let mut gl = win.context(mode);
                gl.set_line_width(width);
                let mut oracle = Unclipped::new(win, mode);
                gl.draw_segments(&segs);
                oracle.draw_segments(&segs, width);
                assert_eq!(gl.stats(), oracle.stats, "{mode:?} width {width}");
                assert_eq!(gl.frame_buffer(), &oracle.fb, "{mode:?} width {width}");
            }
        }
    }
}

#[test]
fn clipped_wide_points_match_unclipped_setup() {
    for win in windows() {
        let n = win.active().0;
        for size in [1.0, 2.0, 3.7, MAX_AA_LINE_WIDTH] {
            // A disc's extent is its radius: the pool's ±w/2 entries put
            // a diameter-2w disc exactly on the window edges.
            let mut pool = axis_pool(n, size);
            pool.extend(axis_pool(n, size / 2.0));
            let points: Vec<Point> = pool
                .iter()
                .flat_map(|&x| pool.iter().map(move |&y| Point::new(x, y)))
                .collect();
            let live = check_each(
                win,
                &points,
                |gl| {
                    gl.set_point_size(size);
                },
                |gl, p| gl.draw_points(&[p]),
                |o, p| o.draw_points(&[p], size),
            );
            assert!(live > 0 && live < points.len());

            for mode in MODES {
                let mut gl = win.context(mode);
                gl.set_point_size(size);
                let mut oracle = Unclipped::new(win, mode);
                gl.draw_points(&points);
                oracle.draw_points(&points, size);
                assert_eq!(gl.stats(), oracle.stats, "{mode:?} size {size}");
                assert_eq!(gl.frame_buffer(), &oracle.fb, "{mode:?} size {size}");
            }
        }
    }
}

#[test]
fn edge_filtered_fill_matches_per_row_edge_test() {
    let mut rng = StdRng::seed_from_u64(14);
    for win in windows() {
        let n = win.active().0;
        let pool = axis_pool(n, 1.0);
        let hostile = pool.len();
        // Mostly ordinary coordinates around the window, a hostile pool
        // value now and then.
        let coord = |rng: &mut StdRng| {
            if rng.gen_range(0..8) == 0 {
                pool[rng.gen_range(0..hostile)]
            } else {
                rng.gen_range(-1.5 * n as f64..2.5 * n as f64)
            }
        };
        for case in 0..4000 {
            let len = rng.gen_range(3..14);
            let poly: Vec<Point> = (0..len)
                .map(|_| Point::new(coord(&mut rng), coord(&mut rng)))
                .collect();

            // The kernel itself: same fragments in the same order.
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let (mut got_stats, mut want_stats) = (HwStats::default(), HwStats::default());
            rasterize_polygon(poly.iter().copied(), n, n, &mut got_stats, &mut |x, y| {
                got.push((x, y))
            });
            unclipped_fill(&poly, n, n, &mut want_stats, &mut |x, y| want.push((x, y)));
            assert_eq!(got, want, "{poly:?}");
            assert_eq!(got_stats, want_stats, "{poly:?}");

            // Through the context, rotating the write mode.
            let mode = MODES[case % MODES.len()];
            let mut gl = win.context(mode);
            let mut oracle = Unclipped::new(win, mode);
            gl.draw_filled_polygon(&poly);
            oracle.fill(&poly);
            assert_eq!(gl.stats(), oracle.stats, "{mode:?} {poly:?}");
            assert_eq!(gl.frame_buffer(), &oracle.fb, "{mode:?} {poly:?}");
        }
    }
}
