//! Ablation benches for the design decisions DESIGN.md calls out:
//!
//! 1. **Boundary rendering vs filled polygons** — the §3 argument: filled
//!    polygons need software triangulation and are not exact;
//! 2. **Restricted search space** (§4.1.1) — the paper credits it with
//!    30–40% on the software sweep; measured here directly, the same step 3
//!    over the restricted edges and over whole boundaries;
//! 3. **minDist optimizations** — frontier clipping + early exit vs the
//!    brute-force scan (paper: 2–6×).

use hwa_core::ablation::{filled_intersects_approx, FilledResult};
use hwa_core::{HwConfig, TestStats};
use spatial_bench::{header, ms, BenchOpts, Workloads};
use spatial_geom::intersect::edges_meet;
use spatial_geom::sweep::SweepStats;
use spatial_geom::{min_dist_brute, polygons_intersect, within_distance, Segment};
use std::time::Instant;

fn filled_vs_boundary(w: &Workloads) {
    println!("\n[1] filled-polygon (Hoff) vs boundary rendering (Algorithm 3.1):");
    // Run both over the LANDC ⋈ LANDO candidate pairs; count wrong
    // verdicts and time the triangulation-burdened path.
    let a = &w.landc;
    let b = &w.lando;
    let candidates: Vec<(usize, usize)> = spatial_index::join_intersecting(&a.tree, &b.tree)
        .into_iter()
        .map(|(x, y)| (*x, *y))
        .collect();
    let sample: Vec<(usize, usize)> = candidates.into_iter().take(400).collect();

    let t0 = Instant::now();
    let mut wrong = 0usize;
    let mut failed = 0usize;
    let mut st = TestStats::default();
    for &(i, j) in &sample {
        let truth = polygons_intersect(a.polygon(i), b.polygon(j));
        match filled_intersects_approx(
            a.polygon(i),
            b.polygon(j),
            HwConfig::at_resolution(8),
            &mut st,
        ) {
            FilledResult::OverlapFound => {
                if !truth {
                    wrong += 1;
                }
            }
            FilledResult::NoOverlap => {
                if truth {
                    wrong += 1;
                }
            }
            FilledResult::TriangulationFailed => failed += 1,
        }
    }
    let filled_ms = ms(t0.elapsed());

    let mut hw = hwa_core::hw_intersect::HwTester::new(HwConfig::at_resolution(8));
    let t1 = Instant::now();
    let mut st2 = TestStats::default();
    for &(i, j) in &sample {
        let _ = hw.intersects(a.polygon(i), b.polygon(j), &mut st2);
    }
    let boundary_ms = ms(t1.elapsed());

    println!(
        "  filled (approx):   {:>8.1} ms over {} pairs, {} wrong verdicts, {} triangulation failures",
        filled_ms,
        sample.len(),
        wrong,
        failed
    );
    println!(
        "  boundary (exact):  {:>8.1} ms over {} pairs, 0 wrong by construction",
        boundary_ms,
        sample.len()
    );
}

fn restricted_search_space(w: &Workloads) {
    println!("\n[2] restricted search space on the software step 3 (LANDC ⋈ LANDO candidates):");
    let a = &w.landc;
    let b = &w.lando;
    let candidates: Vec<(usize, usize)> = spatial_index::join_intersecting(&a.tree, &b.tree)
        .into_iter()
        .map(|(x, y)| (*x, *y))
        .collect();

    // With restriction (the engine's normal path).
    let t0 = Instant::now();
    for &(i, j) in &candidates {
        let _ = polygons_intersect(a.polygon(i), b.polygon(j));
    }
    let with_ms = ms(t0.elapsed());

    // Without restriction: the same step 3 over the whole boundaries.
    let t1 = Instant::now();
    for &(i, j) in &candidates {
        let p = a.polygon(i);
        let q = b.polygon(j);
        if spatial_geom::point_in_polygon(p.vertices()[0], q)
            || spatial_geom::point_in_polygon(q.vertices()[0], p)
        {
            continue;
        }
        let ep: Vec<Segment> = p.edges().collect();
        let eq: Vec<Segment> = q.edges().collect();
        let _ = edges_meet(&ep, &eq, &mut SweepStats::default());
    }
    let without_ms = ms(t1.elapsed());
    println!(
        "  restricted {:>8.1} ms vs full {:>8.1} ms  ({:.0}% saved; paper reports 30-40%)",
        with_ms,
        without_ms,
        100.0 * (1.0 - with_ms / without_ms)
    );
}

fn mindist_optimizations(w: &Workloads) {
    println!("\n[3] minDist kernels at D = BaseD (paper pairwise vs brute force):");
    let a = &w.water;
    let b = &w.prism;
    let d = w.base_d_water_prism;
    let candidates: Vec<(usize, usize)> = spatial_index::join_within_distance(&a.tree, &b.tree, d)
        .into_iter()
        .map(|(x, y)| (*x, *y))
        .take(300)
        .collect();

    let t0 = Instant::now();
    for &(i, j) in &candidates {
        let _ = within_distance(a.polygon(i), b.polygon(j), d);
    }
    let pairwise_ms = ms(t0.elapsed());

    let t1 = Instant::now();
    for &(i, j) in &candidates {
        let _ = min_dist_brute(a.polygon(i), b.polygon(j)) <= d;
    }
    let brute_ms = ms(t1.elapsed());
    println!(
        "  paper pairwise   {:>8.1} ms ({:.1}x over brute {:.1} ms; paper credits 2-6x)",
        pairwise_ms,
        brute_ms / pairwise_ms,
        brute_ms
    );
}

fn main() {
    let opts = BenchOpts::from_args();
    header(
        "Ablations",
        "design-decision benches (filled vs boundary, restricted search space, minDist)",
        opts,
    );
    let w = Workloads::generate(opts);
    filled_vs_boundary(&w);
    restricted_search_space(&w);
    mindist_optimizations(&w);
}
