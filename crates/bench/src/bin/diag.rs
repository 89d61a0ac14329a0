//! Workload diagnostic (not a paper figure): composition of the MBR-filter
//! candidate set and per-pair costs, used to validate that the synthetic
//! workloads exercise the same regime the paper's datasets do — a healthy
//! share of near-miss negatives that finer windows can reject — and the
//! phase-by-phase cost of the *software* refinement every headline ratio
//! divides by: the intersection test's phases for the intersection joins —
//! the pairs whose run-box region R is empty, those whose search space
//! over R is, and the restricted edges per call over R and over the MBR
//! region R₀ — with what its step-3 block search did and every step-3
//! verdict checked against the forward sweep over R₀'s restricted edges
//! (a mismatch makes the run exit 1), and
//! object filters · point-in-polygon · frontier clip · pairwise kernel for
//! the within-distance joins at the Figure 14/16 distances — each boundary
//! scan with the vertices its polygons have, the run boxes it tests and the
//! edges it then visits, the pairwise kernel with the block boxes, pairs
//! and segment pairs it tests, and the 1-object filter with the calls its
//! side prune settles without a box, the calls its block lower bounds
//! reject early, the calls it confirms early and the blocks and edges it
//! measures, every verdict checked against the bound (a mismatch makes the
//! run exit 1) — and what the hardware test submits for the same candidates: the pairs the
//! run boxes decide with no submission (each checked against a step 3
//! that reads no run box; a mismatch makes the run exit 1) and the
//! projection region's area over
//! the MBR region's, segments before
//! and after the run cull, survivors of the rasterizer's clip compare,
//! candidate fragments per surviving segment, and for the overlap count the
//! vertices before and after the fill ring and the scanline crossings a
//! fill is left with. It ends with the calibration of the planner's
//! software price: the measured time of step 3's negatives — the calls a
//! scan rejection saves — by bucket of the step-3 edge count the prologue
//! routes by and the planner prices by (`submitted_edges`), once for the
//! intersection joins (`boundaries_meet`) and once for the within-distance
//! joins (`clipped_chains_within`), each with the line fitted through its
//! bucket medians beside the committed `STEP3_FIXED_NS` and
//! `STEP3_NS_PER_EDGE`.

use hwa_core::engine::PreparedDataset;
use hwa_core::hw_intersect::{submitted_edges, HwTester};
use hwa_core::hw_overlap::fill_rings;
use hwa_core::pipeline::{CandidateFilter, Decision, ObjectFilterStage, Predicate};
use hwa_core::service::{STEP3_FIXED_NS, STEP3_NS_PER_EDGE};
use hwa_core::{HwConfig, TestStats};
use spatial_bench::{header, ms, BenchOpts, Workloads, DISTANCE_FACTORS};
use spatial_filters::{
    one_object_upper_bound, one_object_within_with, zero_object_upper_bound, OneObjectStats,
};
use spatial_geom::chains::{frontier_clipped, frontier_runs};
use spatial_geom::distance::{edges_within_pairwise, PAIR_BLOCK};
use spatial_geom::intersect::{boundaries_meet, restricted_edges};
use spatial_geom::mindist::clipped_chains_within;
use spatial_geom::reach::walk;
use spatial_geom::sweep::{forward_sweep_intersects, SweepStats};
use spatial_geom::{point_in_polygon, Point, Polygon, Rect, RefineStats, Segment};
use spatial_raster::aa_line::{aa_line_outside_window, DIAGONAL_WIDTH};
use spatial_raster::{Viewport, MAX_AA_LINE_WIDTH};
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

    let (mut mismatches, mut filter_mismatches, mut runs_mismatches) = (0, 0, 0);
    let [mut intersect_calibration, mut within_calibration] =
        [(); 2].map(|_| Calibration::default());
    for (a, b, base_d) in [
        (&w.landc, &w.lando, w.base_d_landc_lando),
        (&w.water, &w.prism, w.base_d_water_prism),
    ] {
        mismatches += intersection_composition(a, b, &mut intersect_calibration);
        filter_mismatches += distance_decomposition(a, b, base_d, &mut within_calibration);
        runs_mismatches += hardware_submission(a, b, base_d);
    }
    intersect_calibration.table("the intersection joins (boundaries_meet)");
    within_calibration.table("the within-distance joins (clipped_chains_within)");
    if mismatches > 0 {
        println!("\nFAIL: {mismatches} step-3 verdicts differ from the forward sweep");
    }
    if filter_mismatches > 0 {
        println!("\nFAIL: {filter_mismatches} 1-object verdicts differ from the bound");
    }
    if runs_mismatches > 0 {
        println!(
            "\nFAIL: {runs_mismatches} hardware-test pairs disagree with step 3 or with the \
             restated window"
        );
    }
    if mismatches + filter_mismatches + runs_mismatches > 0 {
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
/// Figure 14/16 distances, with its step 3 timed into `calibration`.
/// Returns the number of 1-object verdicts that differ from the bound.
fn distance_decomposition(
    a: &PreparedDataset,
    b: &PreparedDataset,
    base_d: f64,
    calibration: &mut Calibration,
) -> usize {
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
            calibration.time(Predicate::WithinDistance(d), p, q, || {
                clipped_chains_within(p, q, d)
            });
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
/// the counters it returns, and how many step-3 verdicts — of those calls
/// and of the pairs step 3 answered without a search — differ from the
/// forward sweep's over the restricted edges of R₀, the MBR intersection.
#[derive(Default)]
struct Search {
    calls: usize,
    exits: usize,
    negatives: usize,
    fallbacks: usize,
    work: SweepStats,
    /// Verdicts checked against the forward sweep, searched or not.
    checked: usize,
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
        self.check(hit, oracle);
    }

    /// Checks one step-3 verdict against the forward sweep's.
    fn check(&mut self, hit: bool, oracle: bool) {
        self.checked += 1;
        self.mismatches += usize::from(hit != oracle);
    }

    fn row(&self) {
        let per = |x: usize| x as f64 / self.calls.max(1) as f64;
        println!(
            "  block search: {} calls, {} first-crossing exits, {} exhaustive negatives, \
             {} fallbacks; {:.1} box compares {:.1} edge compares {:.1} segment tests /call; \
             {} of {} step-3 verdicts differ from the forward sweep over R₀",
            self.calls,
            self.exits,
            self.negatives,
            self.fallbacks,
            per(self.work.box_tests),
            per(self.work.edge_tests),
            per(self.work.pair_tests),
            self.mismatches,
            self.checked,
        );
    }
}

/// Step 3's measured time per negative call against the edges the prologue
/// routes by and the planner prices by, the first value of
/// [`submitted_edges`]. Only negatives: a hardware plan differs
/// from the software one by its GPU time less the step 3 of the pairs its
/// scan rejects, and the scan rejects only pairs whose boundaries are
/// apart (more than `d` apart for a within-distance test) — where step 3
/// searches to the end instead of stopping at a first witness.
#[derive(Default)]
struct Calibration {
    /// `(step-3 edges, ns)` of every timed negative.
    calls: Vec<(usize, f64)>,
}

impl Calibration {
    /// Times `step3`, the product's step 3 of `pred` on `(p, q)`, keeping
    /// the call if it is negative.
    fn time(&mut self, pred: Predicate, p: &Polygon, q: &Polygon, step3: impl FnOnce() -> bool) {
        let t = Instant::now();
        let hit = step3();
        let ns = t.elapsed().as_secs_f64() * 1e9;
        if !hit {
            self.calls
                .push((submitted_edges(pred, p, q, RESOLUTION).0, ns));
        }
    }

    /// The table by edge bucket — calls, median edges, median ns and that
    /// median over the committed price of the median edges — and the
    /// least-squares line through the medians of the buckets with at
    /// least ten calls (a median of two calls is one pair's time), beside
    /// the committed price.
    fn table(mut self, title: &str) {
        const BUCKETS: [(usize, &str); 6] = [
            (20, "<=20"),
            (50, "21-50"),
            (100, "51-100"),
            (300, "101-300"),
            (1000, "301-1000"),
            (usize::MAX, "more"),
        ];
        let median = |xs: &mut Vec<f64>| {
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        };
        println!("\nstep-3 calibration, negatives of {title}:");
        println!(
            "  {:>9} {:>7} {:>13} {:>10} {:>8}",
            "bucket", "calls", "median edges", "median ns", "÷ model"
        );
        self.calls.sort_by_key(|&(edges, _)| edges);
        let mut points = Vec::new();
        let mut rest = &self.calls[..];
        for (upper, name) in BUCKETS {
            let split = rest.partition_point(|&(edges, _)| edges <= upper);
            let (bucket, after) = rest.split_at(split);
            rest = after;
            if bucket.is_empty() {
                continue;
            }
            let edges = median(&mut bucket.iter().map(|&(e, _)| e as f64).collect());
            let ns = median(&mut bucket.iter().map(|&(_, ns)| ns).collect());
            let model = STEP3_FIXED_NS + STEP3_NS_PER_EDGE * edges;
            println!(
                "  {name:>9} {:>7} {edges:>13.0} {ns:>10.0} {:>8.2}",
                bucket.len(),
                ns / model
            );
            if bucket.len() >= 10 {
                points.push((edges, ns));
            }
        }
        if points.len() < 2 {
            println!("  fewer than two buckets of ten calls: no line to fit");
            return;
        }
        let k = points.len() as f64;
        let (mx, my) = points
            .iter()
            .fold((0.0, 0.0), |(sx, sy), &(x, y)| (sx + x / k, sy + y / k));
        let (sxy, sxx) = points.iter().fold((0.0, 0.0), |(sxy, sxx), &(x, y)| {
            (sxy + (x - mx) * (y - my), sxx + (x - mx) * (x - mx))
        });
        let rate = sxy / sxx;
        println!(
            "  fit over the bucket medians: {:.0} ns + {rate:.1} ns/edge \
             (committed: {STEP3_FIXED_NS:.0} ns + {STEP3_NS_PER_EDGE:.1} ns/edge)",
            my - rate * mx,
        );
    }
}

/// The intersection join's software test, phase by phase, and its step 3
/// checked against the forward sweep over R₀'s restricted edges and timed
/// into `calibration`; returns the number of mismatches. Step 3 searches
/// the run-box region R: a pair whose R is empty it answers with no
/// search, one whose R leaves a side without an edge with an empty search.
/// Both are checked, neither timed: the planner prices the first at
/// nothing, and the calibration is of the searches.
fn intersection_composition(
    a: &PreparedDataset,
    b: &PreparedDataset,
    calibration: &mut Calibration,
) -> usize {
    let candidates: Vec<(usize, usize)> = spatial_index::join_intersecting(&a.tree, &b.tree)
        .into_iter()
        .map(|(x, y)| (*x, *y))
        .collect();
    let mut search = Search::default();
    let mut pip_pos = 0usize;
    let (mut runs_decided, mut empty_space) = (0usize, 0usize);
    let (mut r_edges, mut r0_edges) = (0usize, 0usize);
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
        let r0 = p.mbr().intersection(&q.mbr()).unwrap();
        pip_pair(p, q, &mut pip_walk);
        let t_pip = Instant::now();
        let pip_hit = point_in_polygon(p.vertices()[0], q) || point_in_polygon(q.vertices()[0], p);
        pip_time += t_pip.elapsed().as_secs_f64() * 1e3;
        if pip_hit {
            pip_pos += 1;
            continue;
        }
        // The oracle reads no run box: the edges whose MBR meets R₀.
        let (ep0, eq0) = (restricted_edges(p, &r0), restricted_edges(q, &r0));
        r0_edges += ep0.len() + eq0.len();
        let oracle = forward_sweep_intersects(&ep0, &eq0);
        let t_rss = Instant::now();
        let r = walk(p, q, 0.0).region;
        let (ep, eq) = r.map_or((Vec::new(), Vec::new()), |r| {
            (restricted_edges(p, &r), restricted_edges(q, &r))
        });
        rss_time += t_rss.elapsed().as_secs_f64() * 1e3;
        r_edges += ep.len() + eq.len();
        let mut st = RefineStats::default();
        let t = Instant::now();
        let hit = Predicate::Intersects.test(p, q, &mut st);
        let dt = t.elapsed().as_secs_f64() * 1e6;
        let Some(r) = r else {
            runs_decided += 1;
            // The product's step 3 must have answered the pair by runs.
            search.check(hit || st.decided_by_runs != 1, oracle);
            continue;
        };
        calibration.time(Predicate::Intersects, p, q, || {
            boundaries_meet(p, q, &mut SweepStats::default())
        });
        rss_walk.scan(p, |run| run.intersects(&r));
        rss_walk.scan(q, |run| run.intersects(&r));
        if ep.is_empty() || eq.is_empty() {
            empty_space += 1;
            search.check(hit, oracle);
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
        search.add(&st.sweep, hit, oracle);
        if hit {
            sweep_pos += 1;
            sweep_time_pos += dt;
        } else {
            sweep_neg += 1;
            sweep_time_neg += dt;
        }
    }
    let searched = candidates.len() - pip_pos;
    println!("\n{} ⋈ {}: {} candidates", a.name, b.name, candidates.len());
    println!("  pip positives:   {pip_pos}");
    println!("  decided by runs (R empty):       {runs_decided}");
    println!("  empty search space over R:       {empty_space}");
    println!(
        "  restricted edges per call: {:.1} over R, {:.1} over R₀ ({searched} calls)",
        r_edges as f64 / searched.max(1) as f64,
        r0_edges as f64 / searched.max(1) as f64,
    );
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
    println!(
        "  point-in-polygon pair:   {}",
        pip_walk.per_call(candidates.len())
    );
    println!(
        "  restricted search space over R ({} calls): {}",
        searched - runs_decided,
        rss_walk.per_call(searched - runs_decided)
    );
    search.row();
    search.mismatches
}

/// The window side of the hardware submission table: the recommended 8×8.
const RESOLUTION: usize = 8;

/// What the hardware tests submit for the pair's candidates at the
/// recommended 8×8 window with `sw_threshold = 0` (every pair the probes
/// leave undecided is submitted): for the intersection and within-distance
/// joins the pairs the run boxes decide without a submission, the hardware
/// tests, the width fallbacks and the mean area of the projection region R
/// over the MBR region R₀ it was shrunk from; primitives before the run
/// cull (two whole boundaries a pair, and every vertex again as a cap for
/// the distance test) and after the pairing step (`HwStats::primitives`),
/// and for the segment test the survivors of the rasterizer's clip compare
/// and the candidate fragments each of them costs; the CPU time per routed pair of
/// the hardware prologue beside the software step 3 it stands before; and
/// for the overlap count of the intersection candidates at the same window
/// the vertices of both polygons before and after the fill ring, and per
/// fill the scanline-center crossings of the ring's edges — the work the
/// fill itself is about. Returns the gate's failures: a pair the run boxes
/// decided that the software step 3 answers otherwise, or one where the
/// window restated here ([`restate`]) disagrees with the product's on
/// whether the boxes decide, whether the pair has a window, or on the
/// primitives it submits.
fn hardware_submission(a: &PreparedDataset, b: &PreparedDataset, base_d: f64) -> usize {
    let mut tester = HwTester::new(HwConfig::at_resolution(RESOLUTION).with_threshold(0));
    println!(
        "\n{} ⋈ {} hardware submission at {RESOLUTION}×{RESOLUTION}, sw_threshold 0:",
        a.name, b.name
    );

    let (mut stats, mut whole, mut survivors) = (TestStats::default(), 0usize, 0usize);
    let (mut runs, mut failures) = (RunBoxes::default(), 0usize);
    for (&i, &j) in spatial_index::join_intersecting(&a.tree, &b.tree) {
        let (p, q) = (a.polygon(i), b.polygon(j));
        let before = stats;
        let verdict = tester.intersects(p, q, &mut stats);
        let step3 = || boundaries_meet(p, q, &mut SweepStats::default());
        // The gate's step 3 reads no run box: the forward sweep over R₀'s
        // restricted edges (`boundaries_meet` answers an empty R itself).
        let r0 = p.mbr().intersection(&q.mbr()).expect("a candidate");
        let r0_sweep =
            || forward_sweep_intersects(&restricted_edges(p, &r0), &restricted_edges(q, &r0));
        let restated = restate(p, q, None);
        failures += runs.add(&before, &stats, verdict, r0_sweep, &restated);
        runs.time(&before, &stats, Predicate::Intersects, p, q, step3);
        let (true, Restated::Window { region, .. }) = (stats.hw_tests > before.hw_tests, restated)
        else {
            continue;
        };
        whole += p.vertex_count() + q.vertex_count();
        // The segment test's window (§3.2) and the clip compare over it.
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
         {:>8} after pairing ({:.1} %)  \
         {survivors:>7} survive the clip compare  \
         {:.1} candidate fragments per survivor",
        stats.hw_tests,
        stats.hw.primitives,
        100.0 * stats.hw.primitives as f64 / whole.max(1) as f64,
        stats.hw.fragments_tested as f64 / survivors.max(1) as f64,
    );
    runs.row(&stats);

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

    let (mut stats, mut whole, mut runs) = (TestStats::default(), 0usize, RunBoxes::default());
    for (&i, &j) in spatial_index::join_within_distance(&a.tree, &b.tree, base_d) {
        let (p, q) = (a.polygon(i), b.polygon(j));
        let before = stats;
        let verdict = tester.within_distance(p, q, base_d, &mut stats);
        let step3 = || clipped_chains_within(p, q, base_d);
        // §3.2: the distance test renders the smaller object first.
        let (small, large) = if p.mbr().area() <= q.mbr().area() {
            (p, q)
        } else {
            (q, p)
        };
        let restated = restate(small, large, Some(base_d));
        failures += runs.add(&before, &stats, verdict, step3, &restated);
        runs.time(
            &before,
            &stats,
            Predicate::WithinDistance(base_d),
            p,
            q,
            step3,
        );
        if stats.hw_tests > before.hw_tests {
            whole += 2 * (p.vertex_count() + q.vertex_count());
        }
    }
    println!(
        "  within 1.0 × BaseD:   {:>6} tests  {whole:>9} segments and caps before  \
         {:>8} after pairing ({:.1} %)  \
         {:.1} candidate fragments per submitted primitive",
        stats.hw_tests,
        stats.hw.primitives,
        100.0 * stats.hw.primitives as f64 / whole.max(1) as f64,
        stats.hw.fragments_tested as f64 / stats.hw.primitives.max(1) as f64,
    );
    runs.row(&stats);
    failures
}

/// A boolean hardware test's window at [`RESOLUTION`], restated from the
/// public run boxes.
enum Restated {
    /// R is empty, or a side keeps no paired run: the run boxes decide.
    Apart,
    /// No window: an empty R ∩ R₀, or — for runs that pair — an Equation
    /// (1) width over the limit.
    Unfit,
    /// A window over `region` = R ∩ R₀, submitting `paired` primitives.
    Window {
        r0: Rect,
        region: Rect,
        paired: usize,
    },
}

/// The window of a boolean hardware test that renders `first` first — the
/// segment test for `d = None` — restated from the public run boxes:
/// `hwa-core`'s `choreography::projection` and `Framing::fit` (the pairing
/// of `spatial_geom::reach::Reach::paired`). Each run
/// box is expanded by `half` = d/2 and rounded outward; a polygon without
/// run boxes is one box, its MBR. R₀ is the MBR intersection (for a
/// distance test both MBRs expanded by `half`), R the MBR intersection
/// shrunk to the hull of the boxes of `first` that meet it, then of
/// `second`'s boxes that meet what is left; the window projects R ∩ R₀,
/// uniformly at the Equation (1) width for distance. A run is submitted if
/// its box meets R and the box of a run of the other boundary that meets
/// R; the distance test adds a cap per edge. A side left with no such run
/// decides the pair before the width is looked at.
fn restate(first: &Polygon, second: &Polygon, d: Option<f64>) -> Restated {
    let half = d.map_or(0.0, |d| d / 2.0);
    let grown = |r: &Rect| match half {
        0.0 => *r,
        _ => Rect::new(
            (r.xmin - half).next_down(),
            (r.ymin - half).next_down(),
            (r.xmax + half).next_up(),
            (r.ymax + half).next_up(),
        ),
    };
    let Some(r0) = first
        .mbr()
        .expanded(half)
        .intersection(&second.mbr().expanded(half))
    else {
        return Restated::Unfit;
    };
    let Some(mut reach) = grown(&first.mbr()).intersection(&grown(&second.mbr())) else {
        return Restated::Unfit;
    };
    // Each run's edge count and grown box.
    let runs = |poly: &Polygon| -> Vec<(usize, Rect)> {
        if poly.runs().len() == 0 {
            return vec![(poly.vertex_count(), grown(&poly.mbr()))];
        }
        poly.runs()
            .map(|(edges, run)| (edges.len(), grown(run)))
            .collect()
    };
    let (first, second) = (runs(first), runs(second));
    for runs in [&first, &second] {
        let hull = runs
            .iter()
            .filter(|(_, run)| run.intersects(&reach))
            .fold(Rect::EMPTY, |hull, (_, run)| hull.union(run));
        let Some(shrunk) = reach.intersection(&hull) else {
            return Restated::Apart;
        };
        reach = shrunk;
    }
    // The edges of `runs` that pair with the runs of `other`: both boxes
    // meet R and each other.
    let paired = |runs: &[(usize, Rect)], other: &[(usize, Rect)]| -> usize {
        let reaches = |run: &&(usize, Rect)| run.1.intersects(&reach);
        runs.iter()
            .filter(reaches)
            .filter(|(_, run)| other.iter().filter(reaches).any(|(_, b)| b.intersects(run)))
            .map(|(edges, _)| edges)
            .sum()
    };
    let kept = [paired(&first, &second), paired(&second, &first)];
    let Some(region) = reach.intersection(&r0) else {
        return Restated::Unfit;
    };
    if kept.contains(&0) {
        return Restated::Apart;
    }
    if let Some(d) = d {
        let viewport = Viewport::uniform(region, RESOLUTION, RESOLUTION);
        let width = viewport.line_width_for_distance(d.max(f64::MIN_POSITIVE));
        if width.is_nan() || width > MAX_AA_LINE_WIDTH {
            return Restated::Unfit;
        }
    }
    let per_edge = if d.is_some() { 2 } else { 1 };
    Restated::Window {
        r0,
        region,
        paired: per_edge * (kept[0] + kept[1]),
    }
}

/// What the run boxes did for one join's hardware tests: the pairs they
/// decided, the area of R over
/// R₀ summed over the submitted pairs whose R₀ has one, and the CPU time of
/// the hardware prologue and of the software step 3 over the routed pairs
/// (those the MBR gate and point-in-polygon left).
#[derive(Default)]
struct RunBoxes {
    decided: usize,
    ratio_sum: f64,
    ratios: usize,
    routed: usize,
    prologue_ns: f64,
    step3_ns: f64,
}

impl RunBoxes {
    /// Counts one pair the tester answered `verdict`, from its ledger
    /// `before` and `after` the test, with an exact `step3` that reads no
    /// run box and the restated window; returns 1 if the pair fails the
    /// gate.
    fn add(
        &mut self,
        before: &TestStats,
        after: &TestStats,
        verdict: bool,
        step3: impl Fn() -> bool,
        restated: &Restated,
    ) -> usize {
        let decided = after.decided_by_runs > before.decided_by_runs;
        let submitted = after.hw_tests > before.hw_tests;
        self.decided += usize::from(decided);
        let mut drift = false;
        if let (true, Restated::Window { r0, region, paired }) = (submitted, restated) {
            if r0.area() > 0.0 {
                self.ratio_sum += region.area() / r0.area();
                self.ratios += 1;
            }
            drift = after.hw.primitives - before.hw.primitives != *paired;
        }
        // A width fallback has no restated window either.
        let fallback = after.width_limit_fallbacks > before.width_limit_fallbacks;
        drift |= fallback && !matches!(restated, Restated::Unfit);
        // A runs-decided pair is apart: step 3 must find no meeting, and
        // the restated window must be apart exactly then.
        let wrong = decided && (verdict || step3());
        drift |= (decided || submitted) && decided != matches!(restated, Restated::Apart);
        usize::from(wrong || drift)
    }

    /// Times, for a pair the tester routed past its MBR gate and
    /// point-in-polygon step, the product's hardware prologue
    /// ([`submitted_edges`]: the run-box walk, which also yields the
    /// step-3 count a threshold above 0 routes by, and the pairing), and
    /// `step3`.
    fn time(
        &mut self,
        before: &TestStats,
        after: &TestStats,
        pred: Predicate,
        p: &Polygon,
        q: &Polygon,
        step3: impl Fn() -> bool,
    ) {
        if after.decided_by_pip > before.decided_by_pip {
            return;
        }
        let ns = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e9
        };
        self.routed += 1;
        self.prologue_ns += ns(&mut || {
            std::hint::black_box(submitted_edges(pred, p, q, RESOLUTION));
        });
        self.step3_ns += ns(&mut || {
            std::hint::black_box(step3());
        });
    }

    fn row(&self, stats: &TestStats) {
        let per = |ns: f64| ns / self.routed.max(1) as f64;
        println!(
            "    run boxes: {} pairs decided by runs, {} hardware tests, {} width fallbacks, \
             mean R/R₀ area {:.3} over the tests",
            self.decided,
            stats.hw_tests,
            stats.width_limit_fallbacks,
            self.ratio_sum / self.ratios.max(1) as f64,
        );
        println!(
            "    prologue per routed pair ({} pairs): {:.0} ns walk + pairing; \
             software step 3 {:.0} ns",
            self.routed,
            per(self.prologue_ns),
            per(self.step3_ns),
        );
    }
}
