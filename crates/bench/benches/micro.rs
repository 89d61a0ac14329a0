//! Criterion microbenchmarks for the kernels underneath the figures:
//! point-in-polygon, the restricted search space, the intersection test's
//! step 3 on a hostile comb pair, minDist,
//! its pairwise kernel and its frontier clip, the 0/1-object bounds and the
//! 1-object filter's question, the AA-line rasterizer, its
//! setup and its clip stage, the vertex caps' clip stage, the polygon fill
//! (whole and through a fill ring), the R-tree, and one full Algorithm 3.1
//! call. Kept short
//! (small sample count) so `cargo bench --workspace` finishes in minutes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hwa_core::hw_intersect::HwTester;
use hwa_core::hw_overlap::fill_rings;
use hwa_core::{HwConfig, TestStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spatial_datagen::shapes::harmonic_star;
use spatial_filters::{one_object_upper_bound, one_object_within, zero_object_upper_bound, Sample};
use spatial_geom::chains::frontier_clipped;
use spatial_geom::distance::{edges_min_dist, edges_within_pairwise};
use spatial_geom::intersect::restricted_edges;
use spatial_geom::{
    point_in_polygon, polygons_intersect, within_distance, Point, Polygon, Rect, Segment,
};
use spatial_index::RTree;
use spatial_raster::aa_line::{
    aa_line_outside_window, rasterize_aa_line, SegmentCover, DIAGONAL_WIDTH,
};
use spatial_raster::polygon_raster::rasterize_polygon;
use spatial_raster::{GlContext, HwStats, Viewport, WriteMode};
use std::hint::black_box;
use std::time::Duration;

fn star(n: usize, seed: u64, cx: f64, cy: f64) -> Polygon {
    let mut rng = StdRng::seed_from_u64(seed);
    harmonic_star(Point::new(cx, cy), 50.0, n, 0.5, 0.3, 1.0, 0.0, &mut rng)
}

fn bench_pip(c: &mut Criterion) {
    let mut g = c.benchmark_group("point_in_polygon");
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    // 48 vertices: below the 64-vertex line, no run boxes, every edge
    // visited; the other two walk only the runs the ray can reach.
    for (name, n) in [("48", 48usize), ("1k", 1_000), ("10k", 10_000)] {
        let poly = star(n, 1, 0.0, 0.0);
        let p = Point::new(10.0, 10.0);
        g.bench_function(name, |b| {
            b.iter(|| point_in_polygon(black_box(p), black_box(&poly)))
        });
    }
    g.finish();
}

/// The restricted search space of a pair whose MBRs share a corner: the
/// runs whose box reaches the shared region, then the per-edge filter.
fn bench_restricted(c: &mut Criterion) {
    let mut g = c.benchmark_group("restricted_edges");
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for (name, n) in [("1k", 1_000usize), ("10k", 10_000)] {
        let p = star(n, 2, 0.0, 0.0);
        let region = p
            .mbr()
            .intersection(&star(n, 3, 60.0, 40.0).mbr())
            .expect("the stars' MBRs overlap");
        g.bench_function(name, |b| {
            b.iter(|| restricted_edges(black_box(&p), black_box(&region)).len())
        });
    }
    g.finish();
}

/// Two `4 · teeth`-vertex simple combs, teeth 0.4 wide: `P`'s stand on a
/// spine below, `Q`'s hang from one above, and the two sets interleave
/// 0.2 apart — or, `meshed`, each `Q` tooth straddles a `P` tooth's top.
/// No first vertex lies in the other polygon, so step 3 decides the pair.
fn comb_pair(teeth: usize, meshed: bool) -> (Polygon, Polygon) {
    let last = (teeth - 1) as f64;
    let mut p = Vec::with_capacity(4 * teeth);
    let mut q = Vec::with_capacity(4 * teeth);
    let shift = if meshed { 0.2 } else { 0.6 };
    for k in 0..teeth {
        let x = k as f64;
        let (p_foot, q_root) = match k {
            0 => (-1.0, 12.0),
            _ => (0.0, 11.0),
        };
        p.extend([(x, p_foot), (x, 10.0), (x + 0.4, 10.0), (x + 0.4, 0.0)]);
        q.extend([
            (x + shift, q_root),
            (x + shift, 1.0),
            (x + shift + 0.2, 1.0),
        ]);
        q.push((x + shift + 0.2, if k == teeth - 1 { 12.0 } else { 11.0 }));
    }
    p[4 * teeth - 1] = (last + 0.4, -1.0);
    (Polygon::from_coords(&p), Polygon::from_coords(&q))
}

/// The software intersection test where only step 3 can decide: the comb
/// pair apart (no crossing: the block search spends its budget, then the
/// tree sweep runs) and meshed (a crossing in the first block pair).
fn bench_intersect(c: &mut Criterion) {
    let mut g = c.benchmark_group("polygon_intersect");
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for vertices in [512usize, 32_768] {
        for (name, meshed) in [("comb_apart", false), ("comb_meshed", true)] {
            let (p, q) = comb_pair(vertices / 4, meshed);
            assert_eq!(polygons_intersect(&p, &q), meshed);
            g.bench_with_input(BenchmarkId::new(name, vertices), &vertices, |b, _| {
                b.iter(|| polygons_intersect(black_box(&p), black_box(&q)))
            });
        }
    }
    g.finish();
}

fn bench_mindist(c: &mut Criterion) {
    let mut g = c.benchmark_group("within_distance");
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for n in [64usize, 512] {
        let p = star(n, 4, 0.0, 0.0);
        let q = star(n, 5, 150.0, 0.0);
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| within_distance(black_box(&p), black_box(&q), 30.0))
        });
    }
    // The pairwise kernel alone on the chain sizes of a WATER ⋈ PRISM
    // call: the middle 117 edges of one star's frontier chain against the
    // middle 39 of the other's, at their exact distance (a hit, found
    // late) and one ulp below it (a miss: every block box is tested).
    let p = star(1024, 4, 0.0, 0.0);
    let q = star(1024, 5, 150.0, 0.0);
    let middle = |chain: Vec<Segment>, len: usize| -> Vec<Segment> {
        let start = (chain.len() - len) / 2;
        chain[start..start + len].to_vec()
    };
    let ep = middle(frontier_clipped(&p, &q.mbr(), f64::INFINITY), 117);
    let eq = middle(frontier_clipped(&q, &p.mbr(), f64::INFINITY), 39);
    let exact = edges_min_dist(&ep, &eq, f64::INFINITY);
    for (name, d) in [
        ("pairwise_hit", exact),
        ("pairwise_miss", exact.next_down()),
    ] {
        assert_eq!(edges_within_pairwise(&ep, &eq, d), name == "pairwise_hit");
        g.bench_function(name, |b| {
            b.iter(|| edges_within_pairwise(black_box(&ep), black_box(&eq), d))
        });
    }
    g.finish();
}

/// The frontier clip in its two regimes: MBRs separated by a gap (one
/// chain between cached extremes is walked) and MBRs overlapping on both
/// axes (no chain exists; the runs of the whole boundary within `d` are
/// clipped).
fn bench_frontier(c: &mut Criterion) {
    let mut g = c.benchmark_group("frontier_clipped");
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for (name, n, (cx, cy)) in [
        ("chain", 2048usize, (150.0, 0.0)),
        ("both_axes_overlap", 2048, (60.0, 20.0)),
        ("both_axes_overlap_10k", 10_000, (60.0, 20.0)),
    ] {
        let p = star(n, 4, 0.0, 0.0);
        let other = star(n, 5, cx, cy).mbr();
        assert_eq!(name == "chain", !p.mbr().intersects(&other));
        g.bench_function(name, |b| {
            b.iter(|| frontier_clipped(black_box(&p), black_box(&other), 30.0).len())
        });
    }
    g.finish();
}

/// The 0-object bound of an MBR pair, and the 1-object bound from a
/// 64-edge boundary sample (the engine's cap) under it; then the question
/// the filter stage asks of the same sample, through its cached block
/// boxes, once for each answer.
fn bench_object_filters(c: &mut Criterion) {
    let mut g = c.benchmark_group("object_filters");
    g.sample_size(30);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    let p = star(2048, 4, 0.0, 0.0);
    let (r1, r2) = (p.mbr(), star(64, 5, 150.0, 0.0).mbr());
    g.bench_function("zero", |b| {
        b.iter(|| zero_object_upper_bound(black_box(&r1), black_box(&r2)))
    });
    let ub0 = zero_object_upper_bound(&r1, &r2);
    let sample = Sample::strided(&p, 32);
    assert_eq!(sample.edge_count(), 64);
    g.bench_function("one", |b| {
        b.iter(|| one_object_upper_bound(black_box(sample.edges()), black_box(&r2), ub0))
    });
    let blocks: Vec<Rect> = sample.block_boxes().collect();
    // Confirmed at the bound itself, once the side term reaches it...
    let ub1 = one_object_upper_bound(sample.edges(), &r2, ub0);
    assert!(ub1 < ub0 && one_object_within(sample, &blocks, &r2, ub1));
    g.bench_function("one_within", |b| {
        b.iter(|| one_object_within(black_box(sample), black_box(&blocks), black_box(&r2), ub1))
    });
    // ...and refused, against a far MBR at 90 % of its bound: every side
    // is short enough to be asked about, none can reach `d`.
    let far = star(64, 5, 400.0, 0.0).mbr();
    let d = 0.9 * one_object_upper_bound(sample.edges(), &far, f64::INFINITY);
    let c = far.corners();
    assert!((0..4).all(|i| c[i].dist(c[(i + 1) % 4]) / 2.0 <= d));
    assert!(!one_object_within(sample, &blocks, &far, d));
    g.bench_function("one_reject", |b| {
        b.iter(|| one_object_within(black_box(sample), black_box(&blocks), black_box(&far), d))
    });
    g.finish();
}

fn bench_aa_line(c: &mut Criterion) {
    let mut g = c.benchmark_group("aa_line_raster");
    g.sample_size(30);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    for res in [8usize, 32, 128] {
        g.bench_with_input(BenchmarkId::from_parameter(res), &res, |b, &res| {
            let a = Point::new(0.3, 0.7);
            let e = Point::new(res as f64 - 0.3, res as f64 - 1.1);
            b.iter(|| {
                let mut st = HwStats::default();
                let mut count = 0usize;
                rasterize_aa_line(
                    black_box(a),
                    black_box(e),
                    DIAGONAL_WIDTH,
                    res,
                    res,
                    &mut st,
                    &mut |_, _| count += 1,
                );
                count
            })
        });
    }
    // What a query actually submits: every edge of a 2048-vertex boundary
    // into an 8×8 window over a sliver of it, so ~1 % of the run touches
    // the window and the rest must cost the clip compare only.
    let boundary = star(2048, 5, 0.0, 0.0);
    let run: Vec<Segment> = boundary.edges().collect();
    let corner = boundary.vertices()[0];
    let sliver = Rect::new(
        corner.x - 4.5,
        corner.y - 4.5,
        corner.x + 4.5,
        corner.y + 4.5,
    );
    let vp = Viewport::new(sliver, 8, 8);
    let live = run
        .iter()
        .filter(|s| {
            !aa_line_outside_window(vp.to_window(s.a), vp.to_window(s.b), DIAGONAL_WIDTH, 8, 8)
        })
        .count();
    assert!((10..=41).contains(&live), "{live} of 2048 segments live");
    g.bench_function("clipped_run", |b| {
        let mut gl = GlContext::new(vp);
        b.iter(|| {
            gl.draw_segments(black_box(&run));
            gl.stats().pixels_written
        })
    });
    // The per-segment setup alone — direction, candidate ranges, hoisted
    // projections — for the segments of that run that survive the clip.
    let survivors: Vec<(Point, Point)> = run
        .iter()
        .map(|s| (vp.to_window(s.a), vp.to_window(s.b)))
        .filter(|&(a, b)| !aa_line_outside_window(a, b, DIAGONAL_WIDTH, 8, 8))
        .collect();
    g.bench_function("setup_only", |b| {
        b.iter(|| {
            black_box(&survivors)
                .iter()
                .filter_map(|&(a, b)| SegmentCover::new(a, b, DIAGONAL_WIDTH, 8, 8))
                .count()
        })
    });
    g.finish();

    // The distance test's caps over the same sliver: every vertex of the
    // boundary as a 4-pixel smooth point, all but a few clipped.
    let mut g = c.benchmark_group("points");
    g.sample_size(30);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("clipped_run", |b| {
        let mut gl = GlContext::new(vp);
        gl.set_point_size(4.0);
        b.iter(|| {
            gl.draw_points(black_box(boundary.vertices()));
            gl.stats().pixels_written
        })
    });
    g.finish();
}

fn bench_polygon_fill(c: &mut Criterion) {
    let mut g = c.benchmark_group("polygon_fill");
    g.sample_size(30);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    // The overlap-area choreography's fill: a 2048-vertex boundary into a
    // 32×32 window over its own MBR — every edge is inside the scanline
    // range, the case the fill's edge filter must not slow down.
    let poly = star(2048, 6, 0.0, 0.0);
    let vp = Viewport::new(poly.mbr(), 32, 32);
    let window: Vec<Point> = poly.vertices().iter().map(|&p| vp.to_window(p)).collect();
    g.bench_function("2k_vertices_r32", |b| {
        b.iter(|| {
            let mut st = HwStats::default();
            let mut count = 0usize;
            let window = black_box(&window).iter().copied();
            rasterize_polygon(window, 32, 32, &mut st, &mut |_, _| count += 1);
            count
        })
    });
    // What an overlap count submits: the fill ring of a 2048-vertex
    // boundary for the 8×8 window over the MBR it shares with a neighbour,
    // drawn through the context (projection and stencil writes included).
    let neighbour = star(2048, 7, 70.0, 60.0);
    let region = poly
        .mbr()
        .intersection(&neighbour.mbr())
        .expect("the stars' MBRs overlap");
    let [ring, _] = fill_rings(&poly, &neighbour, 8).expect("a region with interior");
    assert!(
        (3..1024).contains(&ring.len()),
        "{} ring vertices",
        ring.len()
    );
    g.bench_function("2k_vertices_r8_ring", |b| {
        let mut gl = GlContext::new(Viewport::new(region, 8, 8));
        gl.set_write_mode(WriteMode::StencilReplace(1));
        b.iter(|| {
            gl.draw_filled_polygon(black_box(&ring));
            gl.stats().pixels_written
        })
    });
    g.finish();
}

fn bench_rtree(c: &mut Criterion) {
    let mut g = c.benchmark_group("rtree");
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    let items: Vec<(Rect, usize)> = (0..10_000)
        .map(|i| {
            let x = (i % 100) as f64 * 10.0;
            let y = (i / 100) as f64 * 10.0;
            (Rect::new(x, y, x + 8.0, y + 8.0), i)
        })
        .collect();
    g.bench_function("bulk_load_10k", |b| {
        b.iter(|| RTree::bulk_load(black_box(items.clone())))
    });
    let tree = RTree::bulk_load(items);
    g.bench_function("window_query", |b| {
        let w = Rect::new(200.0, 200.0, 400.0, 400.0);
        b.iter(|| tree.search_intersects(black_box(&w)).len())
    });
    g.finish();
}

fn bench_hw_test(c: &mut Criterion) {
    let mut g = c.benchmark_group("hw_intersect_pair");
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    // Near-miss pair (the case hardware accelerates) at two resolutions.
    let p = star(512, 6, 0.0, 0.0);
    let q = star(512, 7, 103.0, 0.0);
    for res in [8usize, 16] {
        g.bench_with_input(BenchmarkId::new("hw", res), &res, |b, &res| {
            let mut t = HwTester::new(HwConfig::at_resolution(res));
            b.iter(|| {
                let mut st = TestStats::default();
                t.intersects(black_box(&p), black_box(&q), &mut st)
            })
        });
    }
    g.bench_function("sw", |b| {
        b.iter(|| polygons_intersect(black_box(&p), black_box(&q)))
    });
    g.finish();
}

fn bench_segment_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("segment_kernels");
    g.sample_size(30);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(2));
    let a = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 7.0));
    let b_seg = Segment::new(Point::new(3.0, 9.0), Point::new(12.0, 1.0));
    g.bench_function("intersects", |bch| {
        bch.iter(|| black_box(a).intersects(black_box(&b_seg)))
    });
    g.bench_function("distance", |bch| {
        bch.iter(|| black_box(a).dist_segment(black_box(&b_seg)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_pip,
    bench_restricted,
    bench_intersect,
    bench_mindist,
    bench_frontier,
    bench_object_filters,
    bench_aa_line,
    bench_polygon_fill,
    bench_rtree,
    bench_hw_test,
    bench_segment_kernel
);
criterion_main!(benches);
