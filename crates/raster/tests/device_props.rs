//! The device contract, property-tested: for randomized recorded scenes,
//! [`ReferenceDevice`] execution is pure and self-validating, the
//! [`FaultDevice`] wrapper is transparent off its schedule, and every shard
//! of a fault-free device pool is bit-identical to the bare executor —
//! framebuffers, readback results and `HwStats` counters alike.
//!
//! The scenes deliberately exercise every command the recorder can emit:
//! the Algorithm 3.1 accumulation choreography, the §14 overlap count
//! (stencil fills and the stencil-count readback), wide anti-aliased lines
//! and smooth points, filled polygons, scissored sub-window passes with
//! their own viewports, and all three readback kinds (Minmax, stencil
//! count, per-cell reduction).

use proptest::prelude::*;
use spatial_geom::{Point, Rect, Segment};
use spatial_raster::framebuffer::HALF_GRAY;
use spatial_raster::{
    CommandList, DeviceError, FaultDevice, FaultKind, FaultPlan, FaultTrigger, PixelRect,
    RasterDevice, Recorder, ReferenceDevice, Viewport,
};
use spatial_raster::{FrameBuffer, WriteMode};

#[derive(Debug, Clone)]
struct Scene {
    width: usize,
    height: usize,
    region: Rect,
    /// Whether the accumulation pass is followed by an overlap count of
    /// `polygon` and `second_polygon`.
    overlap_count: bool,
    line_width: f64,
    point_size: f64,
    first_segments: Vec<Segment>,
    second_segments: Vec<Segment>,
    points: Vec<Point>,
    polygon: Vec<Point>,
    second_polygon: Vec<Point>,
    /// A scissored overwrite pass inside this sub-rectangle, if any.
    scissor: Option<(PixelRect, Vec<Segment>)>,
}

const EXTENT: f64 = 24.0;

prop_compose! {
    fn arb_point()(x in -EXTENT..EXTENT, y in -EXTENT..EXTENT) -> Point {
        Point::new(x, y)
    }
}

prop_compose! {
    fn arb_segment()(a in arb_point(), b in arb_point()) -> Segment {
        Segment::new(a, b)
    }
}

prop_compose! {
    fn arb_scene()(
        width in 3usize..40,
        height in 3usize..40,
        rx in -8.0f64..8.0,
        ry in -8.0f64..8.0,
        rw in 0.5f64..30.0,
        rh in 0.5f64..30.0,
        with_count in 0usize..2,
        line_width in 1.0f64..8.0,
        point_size in 1.0f64..8.0,
        first_segments in prop::collection::vec(arb_segment(), 0..10),
        second_segments in prop::collection::vec(arb_segment(), 0..10),
        points in prop::collection::vec(arb_point(), 0..6),
        polygon in prop::collection::vec(arb_point(), 3..7),
        second_polygon in prop::collection::vec(arb_point(), 3..7),
        with_scissor in 0usize..2,
        scissor_segments in prop::collection::vec(arb_segment(), 1..5),
    ) -> Scene {
        // A scissor rectangle in the lower-left quadrant — always
        // non-empty and in bounds for any window ≥ 3×3.
        let scissor = (with_scissor == 1).then(|| {
            (
                PixelRect {
                    x: 1,
                    y: 1,
                    w: (width / 2).max(1),
                    h: (height / 2).max(1),
                },
                scissor_segments.clone(),
            )
        });
        Scene {
            width,
            height,
            region: Rect::new(rx, ry, rx + rw, ry + rh),
            overlap_count: with_count == 1,
            line_width,
            point_size,
            first_segments,
            second_segments,
            points,
            polygon,
            second_polygon,
            scissor,
        }
    }
}

/// Records the full-choreography command list for a scene.
fn record(scene: &Scene) -> CommandList {
    let mut rec = Recorder::new(scene.width, scene.height).unwrap();
    rec.set_viewport(Viewport::new(scene.region, scene.width, scene.height))
        .unwrap();
    rec.set_color(HALF_GRAY).unwrap();
    rec.set_line_width(scene.line_width).unwrap();
    rec.set_point_size(scene.point_size).unwrap();
    rec.set_write_mode(WriteMode::Overwrite);
    rec.clear_color();
    rec.clear_accum();
    rec.draw_segments(scene.first_segments.iter().copied())
        .unwrap();
    rec.draw_points(scene.points.iter().copied()).unwrap();
    rec.fill_polygon(scene.polygon.iter().copied()).unwrap();
    rec.accum_load();
    rec.clear_color();
    rec.draw_segments(scene.second_segments.iter().copied())
        .unwrap();
    rec.accum_add();
    rec.accum_return();
    rec.minmax();
    if scene.overlap_count {
        rec.clear_stencil();
        rec.set_write_mode(WriteMode::StencilReplace(1));
        rec.fill_polygon(scene.polygon.iter().copied()).unwrap();
        rec.set_write_mode(WriteMode::StencilIncrIfEq(1));
        rec.fill_polygon(scene.second_polygon.iter().copied())
            .unwrap();
        rec.set_write_mode(WriteMode::Overwrite);
        rec.stencil_count(2);
    }
    // A scissored tail pass: cell-local viewport, merged draw extension,
    // and the batched per-cell reduction readback.
    if let Some((cell, segs)) = &scene.scissor {
        rec.set_scissor(Some(*cell)).unwrap();
        rec.set_viewport(Viewport::new(scene.region, cell.w, cell.h))
            .unwrap();
        rec.draw_segments(segs.iter().copied()).unwrap();
        rec.extend_draw_segments(segs.iter().rev().copied())
            .unwrap();
        rec.set_scissor(None).unwrap();
        rec.cell_max([
            *cell,
            PixelRect {
                x: 0,
                y: 0,
                w: scene.width,
                h: scene.height,
            },
        ])
        .unwrap();
    }
    rec.finish()
}

fn reference_run(list: &CommandList) -> (spatial_raster::Execution, FrameBuffer) {
    let mut reference = ReferenceDevice::new();
    let exec = reference.execute(list).expect("reference is infallible");
    let fb = reference.snapshot().expect("executed at least once");
    (exec, fb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Executing the same list twice on the same device is idempotent:
    /// counters are a pure function of the list, not of device history —
    /// and a clean execution passes its own post-execution validation.
    #[test]
    fn re_execution_is_pure(scene in arb_scene()) {
        let list = record(&scene);
        let mut dev = ReferenceDevice::new();
        let first = dev.execute(&list).expect("the simulated executor is infallible");
        prop_assert!(first.validate(&list).is_ok(), "validation failed");
        let second = dev.execute(&list).expect("the simulated executor is infallible");
        prop_assert_eq!(first, second, "impure execution");
    }

    /// A fault-wrapped executor is transparent off-schedule and fails with
    /// exactly the planned error on schedule, deterministically across
    /// repeat runs of the same plan.
    #[test]
    fn fault_device_schedule_is_deterministic(
        scene in arb_scene(),
        seed in 0u64..u64::MAX,
        every in 1u64..4,
    ) {
        let list = record(&scene);
        let (ref_exec, _) = reference_run(&list);
        let plan = FaultPlan::new(seed, FaultKind::ContextLost, FaultTrigger::EveryK(every));
        let run = |n: usize| -> Vec<Result<spatial_raster::Execution, DeviceError>> {
            let mut dev = FaultDevice::new(Box::new(ReferenceDevice::new()), plan);
            (0..n).map(|_| dev.execute(&list)).collect()
        };
        let first = run(6);
        let second = run(6);
        prop_assert_eq!(&first, &second, "schedule must be reproducible");
        for (i, r) in first.iter().enumerate() {
            if (i as u64 + 1).is_multiple_of(every) {
                prop_assert_eq!(r, &Err(DeviceError::ContextLost), "execute {}", i);
            } else {
                let exec = r.as_ref().expect("off-schedule executes are clean");
                prop_assert_eq!(&exec.readbacks, &ref_exec.readbacks, "execute {}", i);
            }
        }
    }

    /// Every shard of a fault-free pool (shard `i` built from
    /// `DeviceKind::for_shard(i)`, as the hardware tester builds it)
    /// executes bit-identically to the reference, whatever routing
    /// sequence selects them — sharding is pure fan-out, never a semantic
    /// knob.
    #[test]
    fn every_pool_shard_matches_reference_on_every_route(
        scene in arb_scene(),
        shards in 1usize..5,
        routes in prop::collection::vec(0usize..8, 1..6),
    ) {
        use spatial_raster::DeviceKind;
        let list = record(&scene);
        let (ref_exec, ref_fb) = reference_run(&list);
        let mut pool: Vec<_> =
            (0..shards).map(|i| DeviceKind::Reference.for_shard(i).build()).collect();
        for &r in &routes {
            let dev = &mut pool[r % shards];
            let exec = dev.execute(&list).expect("the simulated executor is infallible");
            prop_assert_eq!(&exec.stats, &ref_exec.stats, "stats diverged on route {}", r);
            prop_assert_eq!(&exec.readbacks, &ref_exec.readbacks);
            prop_assert!(dev.snapshot().expect("ran") == ref_fb);
        }
    }
}
