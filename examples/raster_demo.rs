//! Rasterizer demo: renders what the "graphics card" sees during
//! Algorithm 3.1 and writes the frames as PPM images — the repository's
//! stand-in for the paper's Figure 5.
//!
//! Produces in the working directory:
//! * `demo_boundaries.ppm`   — two polygon boundaries at half intensity
//! * `demo_overlap.ppm`      — after accumulation: overlap pixels are white
//! * `demo_expanded.ppm`     — the distance test's widened boundaries
//!
//! ```bash
//! cargo run --release --example raster_demo
//! ```

use hwspatial::geom::{Polygon, Rect, Segment};
use hwspatial::raster::framebuffer::HALF_GRAY;
use hwspatial::raster::ppm::save_ppm;
use hwspatial::raster::{GlContext, Viewport};

fn polygons() -> (Polygon, Polygon) {
    // A concave C-shape and a blob poking into its pocket without touching.
    let c = Polygon::from_coords(&[
        (10.0, 10.0),
        (90.0, 10.0),
        (90.0, 30.0),
        (35.0, 30.0),
        (35.0, 70.0),
        (90.0, 70.0),
        (90.0, 90.0),
        (10.0, 90.0),
    ]);
    let blob = Polygon::from_coords(&[
        (55.0, 40.0),
        (80.0, 38.0),
        (84.0, 50.0),
        (78.0, 62.0),
        (56.0, 60.0),
        (50.0, 50.0),
    ]);
    (c, blob)
}

fn main() -> std::io::Result<()> {
    let (p, q) = polygons();
    let vp = Viewport::new(Rect::new(0.0, 0.0, 100.0, 100.0), 256, 256);

    // Frame 1: both boundaries at half intensity.
    let mut gl = GlContext::new(vp);
    gl.set_color(HALF_GRAY);
    let ep: Vec<Segment> = p.edges().collect();
    let eq: Vec<Segment> = q.edges().collect();
    gl.draw_segments(&ep);
    gl.draw_segments(&eq);
    save_ppm(gl.frame_buffer(), "demo_boundaries.ppm")?;

    // Frame 2: the Algorithm 3.1 choreography — overlap would be white.
    let mut gl = GlContext::new(vp);
    gl.set_color(HALF_GRAY);
    gl.clear_color_buffer();
    gl.clear_accum_buffer();
    gl.draw_segments(&ep);
    gl.accum_load();
    gl.clear_color_buffer();
    gl.draw_segments(&eq);
    gl.accum_add();
    gl.accum_return();
    let overlap = gl.max_value() >= 1.0;
    save_ppm(gl.frame_buffer(), "demo_overlap.ppm")?;
    println!("boundaries overlap on screen: {overlap} (the polygons are disjoint:\n  the pocket blob never touches the C — zoomed projections would separate them)");

    // Frame 3: the distance test's expanded boundaries (width 9 px).
    let mut gl = GlContext::new(vp);
    gl.set_color(HALF_GRAY);
    gl.set_line_width(9.0);
    gl.set_point_size(9.0);
    gl.clear_color_buffer();
    gl.clear_accum_buffer();
    gl.draw_segments(&ep);
    gl.draw_points(p.vertices());
    gl.accum_load();
    gl.clear_color_buffer();
    gl.draw_segments(&eq);
    gl.draw_points(q.vertices());
    gl.accum_add();
    gl.accum_return();
    save_ppm(gl.frame_buffer(), "demo_expanded.ppm")?;

    println!("wrote demo_boundaries.ppm, demo_overlap.ppm, demo_expanded.ppm");
    Ok(())
}
