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

use hwspatial::core::HwTester;
use hwspatial::geom::{Polygon, Rect};
use hwspatial::raster::framebuffer::HALF_GRAY;
use hwspatial::raster::ppm::save_ppm;
use hwspatial::raster::{
    CommandList, OverlapStrategy, RasterDevice, Recorder, ReferenceDevice, Viewport,
};

/// Executes `list` and writes the frame it leaves to `path`; returns the
/// device's execution.
fn render(list: &CommandList, path: &str) -> std::io::Result<hwspatial::raster::Execution> {
    let mut device = ReferenceDevice::new();
    let exec = device
        .execute(list)
        .expect("the reference device never faults");
    save_ppm(&device.snapshot().expect("executed above"), path)?;
    Ok(exec)
}

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
    // A square region, so the distance test's uniform projection is this
    // one too.
    let region = Rect::new(0.0, 0.0, 100.0, 100.0);

    // Frame 1: both boundaries at half intensity, one draw each.
    let mut rec = Recorder::new(256, 256).expect("a 256² window");
    rec.set_viewport(Viewport::new(region, 256, 256))
        .expect("the window is the viewport's");
    rec.set_color(HALF_GRAY)
        .expect("half gray is a valid intensity");
    rec.draw_segments(p.edges())
        .expect("viewport recorded above");
    rec.draw_segments(q.edges())
        .expect("viewport recorded above");
    render(&rec.finish(), "demo_boundaries.ppm")?;

    // Frame 2: the Algorithm 3.1 choreography — overlap would be white.
    let (list, slot) = HwTester::record_segment_test(
        region,
        256,
        OverlapStrategy::Accumulation,
        p.edges(),
        q.edges(),
    );
    let exec = render(&list, "demo_overlap.ppm")?;
    let overlap = exec.max_red(slot).expect("the list records its Minmax") >= 1.0;
    println!("boundaries overlap on screen: {overlap} (the polygons are disjoint:\n  the pocket blob never touches the C — zoomed projections would separate them)");

    // Frame 3: the distance test's expanded boundaries (width 9 px).
    let (list, _) =
        HwTester::record_distance_test(region, 256, OverlapStrategy::Accumulation, 9.0, &p, &q);
    render(&list, "demo_expanded.ppm")?;

    println!("wrote demo_boundaries.ppm, demo_overlap.ppm, demo_expanded.ppm");
    Ok(())
}
