//! Workload diagnostic (not a paper figure): composition of the MBR-filter
//! candidate set and per-pair costs, used to validate that the synthetic
//! workloads exercise the same regime the paper's datasets do — a healthy
//! share of near-miss negatives that finer windows can reject — and the
//! phase-by-phase cost of the *software* refinement every headline ratio
//! divides by: the plane sweep's phases for the intersection joins, and
//! object filters · point-in-polygon · frontier clip · pairwise kernel for
//! the within-distance joins at the Figure 14/16 distances.

use hwa_core::engine::PreparedDataset;
use hwa_core::pipeline::{CandidateFilter, Decision, ObjectFilterStage};
use spatial_bench::{header, ms, BenchOpts, Workloads, DISTANCE_FACTORS};
use spatial_geom::chains::{frontier_clipped, frontier_edges};
use spatial_geom::distance::edges_within_pairwise;
use spatial_geom::intersect::{
    polygons_intersect_with, restricted_edges, IntersectStats, SweepAlgo,
};
use spatial_geom::{point_in_polygon, Polygon, Segment};
use std::time::Instant;

fn main() {
    let opts = BenchOpts::from_args();
    header(
        "Diagnostic",
        "candidate composition and software refinement phases of the joins",
        opts,
    );
    let w = Workloads::generate(opts);

    for (a, b, base_d) in [
        (&w.landc, &w.lando, w.base_d_landc_lando),
        (&w.water, &w.prism, w.base_d_water_prism),
    ] {
        intersection_composition(a, b);
        distance_decomposition(a, b, base_d);
    }
}

/// One phase of the software distance test: calls, wall-clock, and the
/// boundary vertices the calls walked (0 where the phase is not a walk).
#[derive(Default, Clone, Copy)]
struct Phase {
    calls: usize,
    ms: f64,
    vertices: usize,
}

impl Phase {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ms += ms(t.elapsed());
        self.calls += 1;
        out
    }

    fn row(&self, name: &str, total_ms: f64) {
        let per_call = |x: f64| x / self.calls.max(1) as f64;
        println!(
            "  {name:<38} {:>7} calls {:>9.1} ms {:>5.1} % {:>7.2} us/call {:>6.0} vertices/call",
            self.calls,
            self.ms,
            100.0 * self.ms / total_ms,
            per_call(self.ms * 1e3),
            per_call(self.vertices as f64),
        );
    }
}

/// The within-distance join as `join-sw` runs it (0/1-object filters, then
/// the paper's modified minDist), one phase at a time, summed over the
/// Figure 14/16 distances.
fn distance_decomposition(a: &PreparedDataset, b: &PreparedDataset, base_d: f64) {
    let [mut filters, mut pip, mut overlap, mut chain, mut pairwise] = [Phase::default(); 5];
    let mut results = 0usize;
    for d in DISTANCE_FACTORS.map(|f| f * base_d) {
        let mut stage = ObjectFilterStage::new(a, b, d);
        for (&i, &j) in spatial_index::join_within_distance(&a.tree, &b.tree, d) {
            if filters.time(|| stage.examine(&(i, j))) == Decision::Confirm {
                continue;
            }
            let (p, q) = (a.polygon(i), b.polygon(j));
            if pip.time(|| {
                point_in_polygon(p.vertices()[0], q) || point_in_polygon(q.vertices()[0], p)
            }) {
                continue;
            }
            // The clip walks the whole boundary when the MBRs overlap on
            // both axes and one frontier chain when a gap separates them.
            let mut clip = |poly: &Polygon, other: &Polygon| -> Vec<Segment> {
                let phase = if poly.mbr().intersects(&other.mbr()) {
                    &mut overlap
                } else {
                    &mut chain
                };
                phase.vertices += frontier_edges(poly, &other.mbr()).len();
                phase.time(|| frontier_clipped(poly, &other.mbr(), d))
            };
            let (ep, eq) = (clip(p, q), clip(q, p));
            results += usize::from(pairwise.time(|| edges_within_pairwise(&ep, &eq, d)));
        }
    }
    let total_ms = filters.ms + pip.ms + overlap.ms + chain.ms + pairwise.ms;
    // Each phase runs on what the one before it left undecided.
    println!(
        "\n{} ⋈ {} within D ∈ {DISTANCE_FACTORS:?} × BaseD: {} candidates, {} filter hits, \
         {} pip positives, {results} kernel positives, {total_ms:.1} ms",
        a.name,
        b.name,
        filters.calls,
        filters.calls - pip.calls,
        pip.calls - pairwise.calls,
    );
    filters.row("0/1-object filters", total_ms);
    pip.row("point-in-polygon pair", total_ms);
    overlap.row("frontier clip, MBRs overlap: boundary", total_ms);
    chain.row("frontier clip, MBRs apart: one chain", total_ms);
    pairwise.row("pairwise kernel", total_ms);
}

fn intersection_composition(a: &PreparedDataset, b: &PreparedDataset) {
    let candidates: Vec<(usize, usize)> = spatial_index::join_intersecting(&a.tree, &b.tree)
        .into_iter()
        .map(|(x, y)| (*x, *y))
        .collect();
    let mut pip_pos = 0usize;
    let mut rss_empty = 0usize;
    let mut sweep_pos = 0usize;
    let mut sweep_neg = 0usize;
    let mut edge_hist = [0usize; 6]; // restricted edge-count buckets
    let mut sweep_time_pos = 0.0f64;
    let mut sweep_time_neg = 0.0f64;
    let mut pip_time = 0.0f64;
    let mut rss_time = 0.0f64;
    for &(i, j) in &candidates {
        let p = a.polygon(i);
        let q = b.polygon(j);
        let region = p.mbr().intersection(&q.mbr()).unwrap();
        let t_pip = Instant::now();
        let pip_hit = point_in_polygon(p.vertices()[0], q) || point_in_polygon(q.vertices()[0], p);
        pip_time += t_pip.elapsed().as_secs_f64() * 1e3;
        if pip_hit {
            pip_pos += 1;
            continue;
        }
        let t_rss = Instant::now();
        let ep = restricted_edges(p, &region);
        let eq = restricted_edges(q, &region);
        rss_time += t_rss.elapsed().as_secs_f64() * 1e3;
        if ep.is_empty() || eq.is_empty() {
            rss_empty += 1;
            continue;
        }
        let total_edges = ep.len() + eq.len();
        let bucket = match total_edges {
            0..=20 => 0,
            21..=50 => 1,
            51..=100 => 2,
            101..=300 => 3,
            301..=1000 => 4,
            _ => 5,
        };
        edge_hist[bucket] += 1;
        let t = Instant::now();
        let hit = polygons_intersect_with(p, q, SweepAlgo::Tree, &mut IntersectStats::default());
        let dt = t.elapsed().as_secs_f64() * 1e6;
        if hit {
            sweep_pos += 1;
            sweep_time_pos += dt;
        } else {
            sweep_neg += 1;
            sweep_time_neg += dt;
        }
    }
    println!("\n{} ⋈ {}: {} candidates", a.name, b.name, candidates.len());
    println!("  pip positives:   {pip_pos}");
    println!("  rss-empty rejects: {rss_empty}");
    println!(
        "  sweep positives: {sweep_pos} (avg {:.1} us)",
        sweep_time_pos / sweep_pos.max(1) as f64
    );
    println!(
        "  sweep negatives: {sweep_neg} (avg {:.1} us)  <- what hardware can save",
        sweep_time_neg / sweep_neg.max(1) as f64
    );
    println!("  restricted-edge histogram (<=20/50/100/300/1000/more): {edge_hist:?}");
    println!(
        "  phase totals: pip {:.1} ms | rss {:.1} ms | sweep+ {:.1} ms | sweep- {:.1} ms",
        pip_time,
        rss_time,
        sweep_time_pos / 1e3,
        sweep_time_neg / 1e3
    );
}
