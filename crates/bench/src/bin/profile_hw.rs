//! Phase-level profile of one hardware segment test (not a paper figure):
//! where the simulated-GPU microseconds go, per window resolution.

use spatial_bench::BenchOpts;
use spatial_datagen::shapes::harmonic_star;
use spatial_geom::{Point, Segment};
use spatial_raster::aa_line::{aa_line_outside_window, DIAGONAL_WIDTH};
use spatial_raster::framebuffer::HALF_GRAY;
use spatial_raster::{GlContext, Viewport};
use std::time::Instant;

fn time_us(iters: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / iters as f64
}

fn main() {
    let _ = BenchOpts::from_args();
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    // A near-miss pair, ~512 vertices each.
    let p = harmonic_star(
        Point::new(0.0, 0.0),
        50.0,
        512,
        0.5,
        0.3,
        1.0,
        0.0,
        &mut rng,
    );
    let q = harmonic_star(
        Point::new(103.0, 0.0),
        50.0,
        512,
        0.5,
        0.3,
        1.0,
        0.0,
        &mut rng,
    );
    let region = p.mbr().intersection(&q.mbr()).unwrap();
    // The lists the testers record: Algorithm 3.1 submits every edge of
    // both polygons and leaves the region restriction to the clip stage.
    let ep: Vec<Segment> = p.edges().collect();
    let eq: Vec<Segment> = q.edges().collect();
    println!("submitted edges: {} + {}", ep.len(), eq.len());

    for res in [8usize, 16, 32] {
        let vp = Viewport::new(region, res, res);
        let touching = ep
            .iter()
            .chain(&eq)
            .filter(|s| {
                let (a, b) = (vp.to_window(s.a), vp.to_window(s.b));
                !aa_line_outside_window(a, b, DIAGONAL_WIDTH, res, res)
            })
            .count();
        println!(
            "res {res:>2}: {} primitives submitted, {touching} touch the window",
            ep.len() + eq.len()
        );
        let mut gl = GlContext::new(vp);
        gl.set_color(HALF_GRAY);
        let n = 2000;

        let t_clear = time_us(n, || gl.clear_color_buffer());
        let t_draw = time_us(n, || gl.draw_segments(&ep));
        let t_load = time_us(n, || gl.accum_load());
        let t_add = time_us(n, || gl.accum_add());
        let t_ret = time_us(n, || gl.accum_return());
        let t_minmax = time_us(n, || {
            gl.minmax();
        });
        let t_retarget = time_us(n, || gl.retarget(Viewport::new(region, res, res)));
        // Whole choreography.
        let t_all = time_us(n, || {
            gl.retarget(Viewport::new(region, res, res));
            gl.clear_color_buffer();
            gl.clear_accum_buffer();
            gl.draw_segments(&ep);
            gl.accum_load();
            gl.clear_color_buffer();
            gl.draw_segments(&eq);
            gl.accum_add();
            gl.accum_return();
            gl.max_value();
        });
        println!(
            "res {res:>2}: clear {t_clear:.2} draw({}) {t_draw:.2} load {t_load:.2} add {t_add:.2} \
             return {t_ret:.2} minmax {t_minmax:.2} retarget {t_retarget:.2} | full test {t_all:.2} us",
            ep.len()
        );
    }

    // Edge-throughput isolation: long batch, big window.
    let segs: Vec<Segment> = (0..10_000)
        .map(|i| {
            let x = (i % 100) as f64;
            Segment::new(Point::new(x, 0.0), Point::new(x + 0.8, 99.0))
        })
        .collect();
    let vp = Viewport::new(spatial_geom::Rect::new(0.0, 0.0, 100.0, 100.0), 8, 8);
    let mut gl = GlContext::new(vp);
    gl.set_color(HALF_GRAY);
    let t = time_us(100, || gl.draw_segments(&segs));
    println!(
        "edge throughput at 8x8: {:.1} ns/edge",
        t * 1000.0 / segs.len() as f64
    );
}
