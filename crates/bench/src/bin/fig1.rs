//! Figure 1 analogue: render the first 100 polygons of the LANDC and LANDO
//! stand-ins to PPM images, like the paper's "Sample Objects from Two
//! Datasets" figure — a visual sanity check that the synthetic shapes are
//! concave, irregular and dendritic like real land-cover data.
//!
//! Writes `fig1_landc.ppm` and `fig1_lando.ppm` to the working directory.

use spatial_bench::{header, BenchOpts};
use spatial_datagen::Dataset;
use spatial_geom::Rect;
use spatial_raster::framebuffer::HALF_GRAY;
use spatial_raster::ppm::save_ppm;
use spatial_raster::{RasterDevice, Recorder, ReferenceDevice, Viewport};

fn render(ds: &Dataset, take: usize, path: &str) -> std::io::Result<()> {
    let polys: Vec<_> = ds.polygons.iter().take(take).collect();
    let bbox = polys.iter().fold(Rect::EMPTY, |r, p| r.union(&p.mbr()));
    let mut rec = Recorder::new(1024, 1024).expect("a 1024² window");
    rec.set_viewport(Viewport::uniform(bbox, 1024, 1024))
        .expect("the window is the viewport's");
    rec.set_color(HALF_GRAY)
        .expect("half gray is a valid intensity");
    for p in &polys {
        rec.draw_segments(p.edges())
            .expect("viewport recorded above");
    }
    let mut device = ReferenceDevice::new();
    device
        .execute(&rec.finish())
        .expect("the reference device never faults");
    save_ppm(&device.snapshot().expect("executed above"), path)
}

fn main() -> std::io::Result<()> {
    let opts = BenchOpts::from_args();
    header(
        "Figure 1",
        "sample objects from two datasets (PPM renderings)",
        opts,
    );
    let landc = spatial_datagen::landc(opts.scale, opts.seed);
    let lando = spatial_datagen::lando(opts.scale, opts.seed);
    render(&landc, 100, "fig1_landc.ppm")?;
    render(&lando, 100, "fig1_lando.ppm")?;
    println!("wrote fig1_landc.ppm and fig1_lando.ppm (first 100 polygons each)");
    Ok(())
}
