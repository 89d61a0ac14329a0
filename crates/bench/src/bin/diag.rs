//! Workload diagnostic (not a paper figure): composition of the MBR-filter
//! candidate set and per-pair costs, used to validate that the synthetic
//! workloads exercise the same regime the paper's datasets do — a healthy
//! share of near-miss negatives that finer windows can reject — and the
//! phase-by-phase cost of the *software* refinement every headline ratio
//! divides by: the intersection test's phases for the intersection joins,
//! with what its step-3 block search did and every step-3 verdict checked
//! against the forward sweep (a mismatch makes the run exit 1), and
//! object filters · point-in-polygon · frontier clip · pairwise kernel for
//! the within-distance joins at the Figure 14/16 distances — each boundary
//! scan with the vertices its polygons have, the run boxes it tests and the
//! edges it then visits, the pairwise kernel with the block boxes, pairs
//! and segment pairs it tests, and the 1-object filter with the calls its
//! side prune settles without a box, the calls its block lower bounds
//! reject early, the calls it confirms early and the blocks and edges it
//! measures, every verdict checked against the bound (a mismatch makes the
//! run exit 1) — and what the hardware test submits for the same candidates: segments before
//! and after the run cull, survivors of the rasterizer's clip compare,
//! candidate fragments per surviving segment, and for the overlap count the
//! vertices before and after the fill ring and the scanline crossings a
//! fill is left with.

use hwa_core::engine::PreparedDataset;
use hwa_core::hw_intersect::HwTester;
use hwa_core::hw_overlap::fill_rings;
use hwa_core::pipeline::{CandidateFilter, Decision, ObjectFilterStage};
use hwa_core::{HwConfig, TestStats};
use spatial_bench::{header, ms, BenchOpts, Workloads, DISTANCE_FACTORS};
use spatial_filters::{
    one_object_upper_bound, one_object_within_with, zero_object_upper_bound, OneObjectStats,
};
use spatial_geom::chains::{frontier_clipped, frontier_runs};
use spatial_geom::distance::{edges_within_pairwise, PAIR_BLOCK};
use spatial_geom::intersect::{polygons_intersect_with, restricted_edges, IntersectStats};
use spatial_geom::sweep::{forward_sweep_intersects, SweepStats};
use spatial_geom::{point_in_polygon, Point, Polygon, Rect, Segment};
use spatial_raster::aa_line::{aa_line_outside_window, DIAGONAL_WIDTH};
use spatial_raster::Viewport;
use std::cell::Cell;
use std::ops::Range;
use std::time::Instant;

fn main() {
    let opts = BenchOpts::from_args();
    header(
        "Diagnostic",
        "candidate composition and software refinement phases of the joins",
        opts,
    );
    let w = Workloads::generate(opts);

    let (mut mismatches, mut filter_mismatches) = (0, 0);
    for (a, b, base_d) in [
        (&w.landc, &w.lando, w.base_d_landc_lando),
        (&w.water, &w.prism, w.base_d_water_prism),
    ] {
        mismatches += intersection_composition(a, b);
        filter_mismatches += distance_decomposition(a, b, base_d);
        hardware_submission(a, b, base_d);
    }
    if mismatches > 0 {
        println!("\nFAIL: {mismatches} step-3 verdicts differ from the forward sweep");
    }
    if filter_mismatches > 0 {
        println!("\nFAIL: {filter_mismatches} 1-object verdicts differ from the bound");
    }
    if mismatches + filter_mismatches > 0 {
        std::process::exit(1);
    }
}

/// What one boundary scan had before it and did: the vertices of the
/// polygons it was asked about, the run boxes it tested and the edges of
/// the runs it then visited ([`Polygon::runs_where`]; a polygon below 64
/// vertices has no boxes and is visited whole).
#[derive(Default, Clone, Copy)]
struct Walk {
    vertices: usize,
    runs: usize,
    edges: usize,
}

/// `accept`, counting its calls in `tested`.
fn counting<'a>(
    tested: &'a Cell<usize>,
    accept: impl Fn(&Rect) -> bool + 'a,
) -> impl Fn(&Rect) -> bool + 'a {
    move |run| {
        tested.set(tested.get() + 1);
        accept(run)
    }
}

impl Walk {
    /// Adds a walk of `poly` over the edge ranges `runs` yields, asked
    /// through a box test that counts its calls in `tested`.
    fn add(
        &mut self,
        poly: &Polygon,
        tested: &Cell<usize>,
        runs: impl Iterator<Item = Range<usize>>,
    ) {
        self.edges += runs.map(|run| run.len()).sum::<usize>();
        self.runs += tested.get();
        self.vertices += poly.vertex_count();
    }

    /// Adds a scan of `poly` that visits the runs whose box `accept`s —
    /// the scanning function's own box test, restated by the caller.
    fn scan(&mut self, poly: &Polygon, accept: impl Fn(&Rect) -> bool) {
        let tested = Cell::new(0);
        self.add(poly, &tested, poly.runs_where(counting(&tested, accept)));
    }

    /// `locate_point(p, poly)`: nothing past the MBR test for a point
    /// outside it, else the runs the point's rightward ray can reach.
    fn point_in_polygon(&mut self, p: Point, poly: &Polygon) {
        if poly.mbr().contains_point(p) {
            self.scan(poly, |run| {
                run.ymin <= p.y && p.y <= run.ymax && run.xmax >= p.x
            });
        } else {
            self.vertices += poly.vertex_count();
        }
    }

    fn per_call(&self, calls: usize) -> String {
        let per = |x: usize| x as f64 / calls.max(1) as f64;
        format!(
            "{:>6.0} vertices {:>6.1} runs tested {:>6.0} edges visited /call",
            per(self.vertices),
            per(self.runs),
            per(self.edges)
        )
    }
}

/// Adds what the probe pair both tests open with walks: the second probe
/// runs only when the first misses.
fn pip_pair(p: &Polygon, q: &Polygon, walk: &mut Walk) {
    walk.point_in_polygon(p.vertices()[0], q);
    if !point_in_polygon(p.vertices()[0], q) {
        walk.point_in_polygon(q.vertices()[0], p);
    }
}

/// One phase of the software distance test: calls, wall-clock, and the
/// boundary walk behind the calls (all 0 where the phase is not a walk).
#[derive(Default, Clone, Copy)]
struct Phase {
    calls: usize,
    ms: f64,
    walk: Walk,
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
        println!(
            "  {name:<38} {:>7} calls {:>9.1} ms {:>5.1} % {:>7.2} us/call {}",
            self.calls,
            self.ms,
            100.0 * self.ms / total_ms,
            self.ms * 1e3 / self.calls.max(1) as f64,
            self.walk.per_call(self.calls),
        );
    }
}

/// What the 1-object stage of the object filters did, from the counters
/// of the product's own `one_object_within_with` over the stage's own
/// sample, and how many of the stage's verdicts differ from the bound's
/// oracle, `one_object_upper_bound(..) <= d`.
#[derive(Default)]
struct OneObject {
    work: OneObjectStats,
    sampled: usize,
    mismatches: usize,
}

impl OneObject {
    /// Adds the candidate `(pa, pb)` at `d`, which the stage `confirmed`
    /// or not.
    fn count(&mut self, pa: &Polygon, pb: &Polygon, d: f64, confirmed: bool) {
        let ub0 = zero_object_upper_bound(&pa.mbr(), &pb.mbr());
        if ub0 <= d {
            self.mismatches += usize::from(!confirmed);
            return;
        }
        let (big, r2) = if pa.vertex_count() >= pb.vertex_count() {
            (pa, pb.mbr())
        } else {
            (pb, pa.mbr())
        };
        let sample = ObjectFilterStage::sampled(big);
        let blocks: Vec<Rect> = sample.block_boxes().collect();
        self.sampled += sample.edge_count();
        let within = one_object_within_with(sample, &blocks, &r2, d, &mut self.work);
        let oracle = one_object_upper_bound(sample.edges(), &r2, ub0) <= d;
        self.mismatches += usize::from(within != oracle || confirmed != oracle);
    }

    fn row(&self) {
        let w = &self.work;
        let per = |x: usize| x as f64 / w.calls.max(1) as f64;
        println!(
            "    1-object stage: {} calls, {} refined by the side prune without a box, \
             {} rejected by the bound before the last block, {} confirmed early; \
             {:.2} blocks visited, {:.1} of {:.1} sampled edges measured /call; \
             {} verdicts differ from the bound",
            w.calls,
            w.pruned,
            w.rejected,
            w.confirmed_early,
            per(w.blocks),
            per(w.edges),
            per(self.sampled),
            self.mismatches,
        );
    }
}

/// What the pairwise kernel did, restated with its block size: block box
/// compares, per-pair MBR compares, exact segment tests, and the pair
/// compares the flat kernel (no block boxes) would have made.
#[derive(Default)]
struct Pairs {
    blocks: usize,
    pairs: usize,
    segments: usize,
    flat: usize,
}

impl Pairs {
    /// Adds `edges_within_pairwise(ep, eq, d)`'s work; returns its verdict.
    fn count(&mut self, ep: &[Segment], eq: &[Segment], d: f64) -> bool {
        let mbrs: Vec<Rect> = eq.iter().map(Segment::mbr).collect();
        for sp in ep {
            let mp = sp.mbr();
            for (k, chunk) in mbrs.chunks(PAIR_BLOCK).enumerate() {
                self.blocks += 1;
                let block = chunk.iter().fold(Rect::EMPTY, |b, m| b.union(m));
                if mp.min_dist(&block) > d {
                    self.flat += chunk.len();
                    continue;
                }
                for (j, mq) in chunk.iter().enumerate() {
                    self.pairs += 1;
                    self.flat += 1;
                    if mp.min_dist(mq) <= d {
                        self.segments += 1;
                        if sp.dist_segment(&eq[k * PAIR_BLOCK + j]) <= d {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    fn row(&self, calls: usize) {
        let per = |x: usize| x as f64 / calls.max(1) as f64;
        println!(
            "    per call: {:.1} block tests, {:.1} pair tests ({:.1} without the block boxes), \
             {:.1} segment tests",
            per(self.blocks),
            per(self.pairs),
            per(self.flat),
            per(self.segments),
        );
    }
}

/// The within-distance join as `join-sw` runs it (0/1-object filters, then
/// the paper's modified minDist), one phase at a time, summed over the
/// Figure 14/16 distances.
/// Returns the number of 1-object verdicts that differ from the bound.
fn distance_decomposition(a: &PreparedDataset, b: &PreparedDataset, base_d: f64) -> usize {
    let [mut filters, mut pip, mut overlap, mut chain, mut pairwise] = [Phase::default(); 5];
    let (mut one_object, mut pairs) = (OneObject::default(), Pairs::default());
    let mut results = 0usize;
    for d in DISTANCE_FACTORS.map(|f| f * base_d) {
        let mut stage = ObjectFilterStage::new(a, b, d);
        for (&i, &j) in spatial_index::join_within_distance(&a.tree, &b.tree, d) {
            let (p, q) = (a.polygon(i), b.polygon(j));
            let confirmed = filters.time(|| stage.examine(&(i, j))) == Decision::Confirm;
            one_object.count(p, q, d, confirmed);
            if confirmed {
                continue;
            }
            pip_pair(p, q, &mut pip.walk);
            if pip.time(|| {
                point_in_polygon(p.vertices()[0], q) || point_in_polygon(q.vertices()[0], p)
            }) {
                continue;
            }
            // The clip walks the runs within `d` of the whole boundary when
            // the MBRs overlap on both axes, of one frontier chain when a
            // gap separates them — counted through the product's own walk.
            let mut clip = |poly: &Polygon, other: &Polygon| -> Vec<Segment> {
                let other = other.mbr();
                let phase = if poly.mbr().intersects(&other) {
                    &mut overlap
                } else {
                    &mut chain
                };
                let tested = Cell::new(0);
                let within = counting(&tested, |run| run.min_dist(&other) <= d);
                phase
                    .walk
                    .add(poly, &tested, frontier_runs(poly, &other, &within));
                phase.time(|| frontier_clipped(poly, &other, d))
            };
            let (ep, eq) = (clip(p, q), clip(q, p));
            let hit = pairwise.time(|| edges_within_pairwise(&ep, &eq, d));
            assert_eq!(pairs.count(&ep, &eq, d), hit, "the restated kernel");
            results += usize::from(hit);
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
    one_object.row();
    pip.row("point-in-polygon pair", total_ms);
    overlap.row("frontier clip, MBRs overlap: boundary", total_ms);
    chain.row("frontier clip, MBRs apart: one chain", total_ms);
    pairwise.row("pairwise kernel", total_ms);
    pairs.row(pairwise.calls);
    one_object.mismatches
}

/// What step 3's block search did over the calls that reached it, from
/// the counters it returns, and how many of its verdicts differ from the
/// forward sweep's over the same restricted edges.
#[derive(Default)]
struct Search {
    calls: usize,
    exits: usize,
    negatives: usize,
    fallbacks: usize,
    work: SweepStats,
    mismatches: usize,
}

impl Search {
    fn add(&mut self, st: &SweepStats, hit: bool, oracle: bool) {
        self.calls += 1;
        match (st.events > 0, hit) {
            (true, _) => self.fallbacks += 1,
            (false, true) => self.exits += 1,
            (false, false) => self.negatives += 1,
        }
        self.work.box_tests += st.box_tests;
        self.work.edge_tests += st.edge_tests;
        self.work.pair_tests += st.pair_tests;
        self.mismatches += usize::from(hit != oracle);
    }

    fn row(&self) {
        let per = |x: usize| x as f64 / self.calls.max(1) as f64;
        println!(
            "  block search: {} calls, {} first-crossing exits, {} exhaustive negatives, \
             {} fallbacks; {:.1} box compares {:.1} edge compares {:.1} segment tests /call; \
             {} verdicts differ from the forward sweep",
            self.calls,
            self.exits,
            self.negatives,
            self.fallbacks,
            per(self.work.box_tests),
            per(self.work.edge_tests),
            per(self.work.pair_tests),
            self.mismatches,
        );
    }
}

/// The intersection join's software test, phase by phase, and its step 3
/// checked against the forward sweep; returns the number of mismatches.
fn intersection_composition(a: &PreparedDataset, b: &PreparedDataset) -> usize {
    let candidates: Vec<(usize, usize)> = spatial_index::join_intersecting(&a.tree, &b.tree)
        .into_iter()
        .map(|(x, y)| (*x, *y))
        .collect();
    let mut search = Search::default();
    let mut pip_pos = 0usize;
    let mut rss_empty = 0usize;
    let mut sweep_pos = 0usize;
    let mut sweep_neg = 0usize;
    let mut edge_hist = [0usize; 6]; // restricted edge-count buckets
    let mut sweep_time_pos = 0.0f64;
    let mut sweep_time_neg = 0.0f64;
    let mut pip_time = 0.0f64;
    let mut rss_time = 0.0f64;
    let [mut pip_walk, mut rss_walk] = [Walk::default(); 2];
    for &(i, j) in &candidates {
        let p = a.polygon(i);
        let q = b.polygon(j);
        let region = p.mbr().intersection(&q.mbr()).unwrap();
        pip_pair(p, q, &mut pip_walk);
        let t_pip = Instant::now();
        let pip_hit = point_in_polygon(p.vertices()[0], q) || point_in_polygon(q.vertices()[0], p);
        pip_time += t_pip.elapsed().as_secs_f64() * 1e3;
        if pip_hit {
            pip_pos += 1;
            continue;
        }
        rss_walk.scan(p, |run| run.intersects(&region));
        rss_walk.scan(q, |run| run.intersects(&region));
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
        let mut st = IntersectStats::default();
        let t = Instant::now();
        let hit = polygons_intersect_with(p, q, &mut st);
        let dt = t.elapsed().as_secs_f64() * 1e6;
        search.add(&st.sweep, hit, forward_sweep_intersects(&ep, &eq));
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
        "  step-3 positives: {sweep_pos} (avg {:.1} us)",
        sweep_time_pos / sweep_pos.max(1) as f64
    );
    println!(
        "  step-3 negatives: {sweep_neg} (avg {:.1} us)  <- what hardware can save",
        sweep_time_neg / sweep_neg.max(1) as f64
    );
    println!("  restricted-edge histogram (<=20/50/100/300/1000/more): {edge_hist:?}");
    println!(
        "  phase totals: pip {:.1} ms | rss {:.1} ms | step3+ {:.1} ms | step3- {:.1} ms",
        pip_time,
        rss_time,
        sweep_time_pos / 1e3,
        sweep_time_neg / 1e3
    );
    let searched = candidates.len() - pip_pos;
    println!(
        "  point-in-polygon pair:   {}",
        pip_walk.per_call(candidates.len())
    );
    println!("  restricted search space: {}", rss_walk.per_call(searched));
    search.row();
    search.mismatches
}

/// What the hardware tests submit for the pair's candidates at the
/// recommended 8×8 window with `sw_threshold = 0` (every pair the probes
/// leave undecided is submitted): primitives before the run cull (two whole
/// boundaries a pair, and every vertex again as a cap for the distance
/// test) and after it (`HwStats::primitives`), and for the segment test the
/// survivors of the rasterizer's clip compare and the candidate fragments
/// each of them costs; and for the overlap count of the intersection
/// candidates at the same window the vertices of both polygons before and
/// after the fill ring, and per fill the scanline-center crossings of the
/// ring's edges — the work the fill itself is about.
fn hardware_submission(a: &PreparedDataset, b: &PreparedDataset, base_d: f64) {
    const RESOLUTION: usize = 8;
    let mut tester = HwTester::new(HwConfig::at_resolution(RESOLUTION).with_threshold(0));
    println!(
        "\n{} ⋈ {} hardware submission at {RESOLUTION}×{RESOLUTION}, sw_threshold 0:",
        a.name, b.name
    );

    let (mut stats, mut whole, mut survivors) = (TestStats::default(), 0usize, 0usize);
    for (&i, &j) in spatial_index::join_intersecting(&a.tree, &b.tree) {
        let (p, q) = (a.polygon(i), b.polygon(j));
        let tested = stats.hw_tests;
        tester.intersects(p, q, &mut stats);
        if stats.hw_tests == tested {
            continue;
        }
        whole += p.vertex_count() + q.vertex_count();
        // The segment test's window (§3.2) and the clip compare over it.
        let region = p.mbr().intersection(&q.mbr()).expect("a candidate");
        let viewport = Viewport::new(region, RESOLUTION, RESOLUTION);
        survivors += p
            .edges()
            .chain(q.edges())
            .filter(|e| {
                let (a, b) = (viewport.to_window(e.a), viewport.to_window(e.b));
                !aa_line_outside_window(a, b, DIAGONAL_WIDTH, RESOLUTION, RESOLUTION)
            })
            .count();
    }
    println!(
        "  intersection:         {:>6} tests  {whole:>9} segments before the run cull  \
         {:>8} after ({:.1} %)  {survivors:>7} survive the clip compare  \
         {:.1} candidate fragments per survivor",
        stats.hw_tests,
        stats.hw.primitives,
        100.0 * stats.hw.primitives as f64 / whole.max(1) as f64,
        stats.hw.fragments_tested as f64 / survivors.max(1) as f64,
    );

    let (mut fills, mut whole, mut ring, mut crossings) = (0usize, 0usize, 0usize, 0usize);
    for (&i, &j) in spatial_index::join_intersecting(&a.tree, &b.tree) {
        let (p, q) = (a.polygon(i), b.polygon(j));
        let Some(rings) = fill_rings(p, q, RESOLUTION) else {
            continue;
        };
        let region = p.mbr().intersection(&q.mbr()).expect("a candidate");
        let viewport = Viewport::new(region, RESOLUTION, RESOLUTION);
        whole += p.vertex_count() + q.vertex_count();
        for vertices in rings {
            fills += 1;
            ring += vertices.len();
            let ys: Vec<f64> = vertices.iter().map(|&v| viewport.to_window(v).y).collect();
            for (k, &y) in ys.iter().enumerate() {
                let next = ys[(k + 1) % ys.len()];
                crossings += (0..RESOLUTION)
                    .filter(|&row| (y > row as f64 + 0.5) != (next > row as f64 + 0.5))
                    .count();
            }
        }
    }
    println!(
        "  overlap count:        {fills:>6} fills  {whole:>9} vertices before the fill ring  \
         {ring:>8} after ({:.1} %)  {:.1} scanline crossings per fill",
        100.0 * ring as f64 / whole.max(1) as f64,
        crossings as f64 / fills.max(1) as f64,
    );

    let (mut stats, mut whole) = (TestStats::default(), 0usize);
    for (&i, &j) in spatial_index::join_within_distance(&a.tree, &b.tree, base_d) {
        let (p, q) = (a.polygon(i), b.polygon(j));
        let tested = stats.hw_tests;
        tester.within_distance(p, q, base_d, &mut stats);
        if stats.hw_tests > tested {
            whole += 2 * (p.vertex_count() + q.vertex_count());
        }
    }
    println!(
        "  within 1.0 × BaseD:   {:>6} tests  {whole:>9} segments and caps before  \
         {:>8} after ({:.1} %)  {:.1} candidate fragments per submitted primitive",
        stats.hw_tests,
        stats.hw.primitives,
        100.0 * stats.hw.primitives as f64 / whole.max(1) as f64,
        stats.hw.fragments_tested as f64 / stats.hw.primitives.max(1) as f64,
    );
}
