//! The replay-cost planner: the paper's Figure 13 break-even analysis,
//! run online per query.
//!
//! Figure 13 plots hardware vs software refinement cost against object
//! complexity and finds a crossover: below it the fixed per-test
//! hardware overhead (draw calls, min/max readback) dominates and
//! software wins; above it rasterization's vertex-rate scanning wins.
//! The paper draws that curve offline; a serving engine has to locate
//! the crossover *per query*, because every candidate set has its own
//! complexity profile and size.
//!
//! The planner exploits the retained command-stream architecture
//! (DESIGN.md §7): recording a test's `CommandList` is pure and cheap,
//! and [`HwCostModel::replay_cost`] prices a recorded list by replaying
//! it on a private `ReferenceDevice` — touching none of the query's own
//! devices, ledgers or results — and pricing the counters the replay
//! charged. A pricing pass therefore costs the wall-clock of executing
//! its sample once (mostly the rasterizer's clip compare: a sampled
//! pair submits every edge and few touch the window), which is why the
//! sample is small. So for each query the planner takes a small sample of
//! the candidate set, records the sample's choreography at each
//! configured resolution, prices per-pair and batched variants
//! arithmetically from the replayed counters, compares against a
//! calibrated software sweep estimate, and picks the cheapest plan.
//! A small memo keyed on the query's shape (pipeline, candidate-count
//! bucket, sampled complexity) makes repeat queries plan for free.
//!
//! Whatever the planner picks, results are bit-identical (invariant 13):
//! every backend is exact, so planning is purely a latency decision and
//! a wrong estimate can never corrupt an answer.

use crate::choreography::{list, window, Tape};
use crate::pipeline::{Predicate, RefineOp};
use spatial_geom::Polygon;
use spatial_raster::{CommandList, HwCostModel, OverlapStrategy};
use std::collections::HashMap;

/// The backend a query will refine on, as selected by the planner (or
/// forced by [`PlannerMode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanChoice {
    /// Exact software refinement (plane sweep / PiP) — below the
    /// modeled crossover.
    Software,
    /// Hardware refinement at `resolution`, submitting `batch` tests
    /// per atlas round (`batch == 1` is the per-pair path).
    Hardware { resolution: usize, batch: usize },
}

impl PlanChoice {
    pub fn is_hardware(&self) -> bool {
        matches!(self, PlanChoice::Hardware { .. })
    }
}

/// Planner operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerMode {
    /// Price each query and pick the cheaper side of the crossover.
    #[default]
    Adaptive,
    /// Always refine in software (planning skipped).
    ForceSoftware,
    /// Always refine on the configured hardware (planning skipped).
    ForceHardware,
}

/// Planner knobs, validated by `ServiceConfig::validate`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    pub mode: PlannerMode,
    /// Window resolutions to price hardware plans at (2–3 entries keeps
    /// planning cheap; must be non-empty).
    pub resolutions: Vec<usize>,
    /// Atlas batch size priced for the batched hardware variant.
    pub batch: usize,
    /// Candidate pairs sampled per pricing pass (≥ 1).
    pub sample: usize,
    /// Calibrated software refinement throughput, in nanoseconds per
    /// polygon vertex — the software side of Figure 13. The default
    /// matches the tree-sweep calibration note in
    /// `spatial_raster::cost_model`.
    pub sweep_ns_per_vertex: f64,
    /// Capacity of the plan memo (cleared wholesale when full — plans
    /// are cheap to recompute and the memo is purely an optimization).
    pub memo_entries: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            mode: PlannerMode::Adaptive,
            resolutions: vec![4, 8, 16],
            batch: 32,
            sample: 16,
            sweep_ns_per_vertex: 10.0,
            memo_entries: 256,
        }
    }
}

/// A planning decision plus whether it came from the memo.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Planned {
    pub choice: PlanChoice,
    pub memo_hit: bool,
    /// Whether the planner actually consulted its memo / ran a pricing
    /// pass. False for the zero-candidate short-circuit (and for forced
    /// modes, which skip planning entirely): those decisions must not
    /// count as plan-cache hits *or* misses in the serving ledger —
    /// nothing was priced or recorded.
    pub priced: bool,
}

impl Planned {
    /// A decision reached without consulting the memo or pricing
    /// anything: a forced mode, or nothing to refine.
    pub(crate) fn unpriced(choice: PlanChoice) -> Self {
        Planned {
            choice,
            memo_hit: false,
            priced: false,
        }
    }
}

/// Memo key: everything that determines a pricing pass's output.
/// Candidate counts are bucketed by log2 so "the same query against the
/// same data" hits while materially different workloads don't.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MemoKey {
    kind: u8,
    candidates_log2: u32,
    sample_vertices: u64,
    width_bits: u64,
    /// Resolution cap in force (brownout `CoarsePlans` prices fewer
    /// resolutions, so its plans must not be served to — or from — an
    /// uncapped pricing pass).
    res_limit: u8,
}

#[derive(Debug)]
pub(crate) struct Planner {
    cfg: PlannerConfig,
    strategy: OverlapStrategy,
    model: HwCostModel,
    memo: HashMap<MemoKey, PlanChoice>,
}

fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

impl Planner {
    pub(crate) fn new(cfg: PlannerConfig, strategy: OverlapStrategy) -> Self {
        Planner {
            cfg,
            strategy,
            model: HwCostModel::default(),
            memo: HashMap::new(),
        }
    }

    /// Prices the query described by (`kind`, `op`, `candidates`,
    /// `sample`) and returns the cheapest plan. `sample` holds up to
    /// [`PlannerConfig::sample`] candidate pairs in the filter stage's
    /// deterministic order.
    ///
    /// `res_limit` caps how many of the configured
    /// resolutions are priced, coarsest first — the brownout
    /// controller's `CoarsePlans` rung passes 1 so pricing (and the
    /// resulting hardware passes) run at the cheapest window only.
    /// Whatever the cap, the chosen plan is exact (invariant 13).
    ///
    /// An area-of-overlap aggregation's grid resolution is part of the
    /// query contract, so under [`RefineOp::Measure`] the planner prices
    /// hardware at exactly that resolution (the configured resolution
    /// ladder and the brownout cap tune *boolean* choreographies only)
    /// and its choice moves the counting between backends without ever
    /// changing the quantized answer (§14).
    pub(crate) fn plan_limited(
        &mut self,
        kind: u8,
        op: RefineOp,
        candidates: usize,
        sample: &[(&Polygon, &Polygon)],
        res_limit: usize,
    ) -> Planned {
        if candidates == 0 || sample.is_empty() {
            // Nothing to refine: the backend is irrelevant, software
            // avoids standing up a device. Short-circuit *before*
            // touching the memo — no choreography is recorded and the
            // serving ledger must not count this as a pricing pass.
            return Planned::unpriced(PlanChoice::Software);
        }

        let sample_vertices: u64 = sample
            .iter()
            .map(|(p, q)| (p.vertex_count() + q.vertex_count()) as u64)
            .sum();
        let key = MemoKey {
            kind,
            candidates_log2: (usize::BITS - 1).saturating_sub(candidates.leading_zeros()),
            sample_vertices,
            // Kind codes disambiguate the reuse: distance bits for
            // within-distance joins, the contractual grid resolution
            // for overlap aggregations, 0 otherwise.
            width_bits: match op {
                RefineOp::Measure { resolution } => resolution as u64,
                RefineOp::Test(Predicate::WithinDistance(d)) => d.to_bits(),
                RefineOp::Test(_) => 0,
            },
            res_limit: res_limit.min(u8::MAX as usize) as u8,
        };
        if let Some(&choice) = self.memo.get(&key) {
            return Planned {
                choice,
                memo_hit: true,
                priced: true,
            };
        }

        let choice = self.price(op, candidates, sample, sample_vertices, res_limit);
        if self.memo.len() >= self.cfg.memo_entries {
            self.memo.clear();
        }
        self.memo.insert(key, choice);
        Planned {
            choice,
            memo_hit: false,
            priced: true,
        }
    }

    /// The Figure-13 comparison: software sweep estimate vs per-pair and
    /// batched hardware at every configured resolution. For an
    /// aggregation the software side prices the exact Sutherland–Hodgman
    /// clip as a vertex sweep with the same calibrated per-vertex rate.
    fn price(
        &self,
        op: RefineOp,
        candidates: usize,
        sample: &[(&Polygon, &Polygon)],
        sample_vertices: u64,
        res_limit: usize,
    ) -> PlanChoice {
        let n = candidates as f64;
        let mean_vertices = sample_vertices as f64 / sample.len() as f64;
        let sw_total = n * mean_vertices * self.cfg.sweep_ns_per_vertex;

        let mut best = (sw_total, PlanChoice::Software);
        // Fixed per-test overhead a batched submission amortizes: two
        // boundary draw calls and one verdict readback per pair.
        let fixed = 2.0 * self.model.draw_call_ns + self.model.minmax_ns;
        let resolutions = match op {
            // The grid resolution is the query's contract: there is no
            // resolution *choice* to make.
            RefineOp::Measure { resolution } => vec![resolution],
            // Under a brownout cap only the coarsest (cheapest) windows
            // are candidates; sort so "coarsest first" holds for any
            // config.
            RefineOp::Test(_) => {
                let mut resolutions = self.cfg.resolutions.clone();
                resolutions.sort_unstable();
                resolutions.truncate(res_limit.max(1));
                resolutions
            }
        };
        for r in resolutions {
            let mut total_ns = 0.0;
            let mut priced = 0usize;
            for &(p, q) in sample {
                if let Some(pair_ns) = self.price_pair(op, r, p, q) {
                    total_ns += pair_ns;
                    priced += 1;
                }
            }
            if priced == 0 {
                // Hardware infeasible at this resolution (every sampled
                // pair hit the width limit or had no projection window);
                // disjoint overlap pairs answer their zeros for free.
                continue;
            }
            let mean_pair = total_ns / priced as f64;

            let per_pair_total = n * mean_pair;
            if per_pair_total < best.0 {
                best = (
                    per_pair_total,
                    PlanChoice::Hardware {
                        resolution: r,
                        batch: 1,
                    },
                );
            }

            if matches!(op, RefineOp::Measure { .. }) {
                // Aggregations submit per pair (DESIGN.md §14): there is
                // no atlas-batched variant to price.
                continue;
            }
            let rounds = (candidates as u64).div_ceil(self.cfg.batch as u64) as f64;
            let batched_total =
                n * (mean_pair - fixed).max(0.0) + rounds * (fixed + self.model.batch_ns);
            if batched_total < best.0 {
                best = (
                    batched_total,
                    PlanChoice::Hardware {
                        resolution: r,
                        batch: self.cfg.batch,
                    },
                );
            }
        }
        best.1
    }

    /// Prices one sampled pair's choreography at `resolution` by
    /// replaying its command list against the cost model. `None` means
    /// hardware can't take this pair (no projection window, or the
    /// Equation (1) line width exceeds the hardware limit) and it would
    /// fall back to software — or, for an aggregation, that the pair's
    /// shared MBR is empty or degenerate and it answers `0.0` without
    /// touching a device.
    fn price_pair(&self, op: RefineOp, resolution: usize, p: &Polygon, q: &Polygon) -> Option<f64> {
        let list = self.priced_list(op, resolution, p, q)?;
        Some(ns(self.model.replay_cost(&list)))
    }

    /// The list [`Planner::price_pair`] prices: exactly what a tester at
    /// `resolution` executes for the pair once its software prologue
    /// sends it to the device — same window, same tape. Every sampled
    /// pair with a projection window is priced; the prologue's
    /// point-in-polygon and threshold exits are the tester's own.
    pub(crate) fn priced_list(
        &self,
        op: RefineOp,
        resolution: usize,
        p: &Polygon,
        q: &Polygon,
    ) -> Option<CommandList> {
        let w = window(op, p, q, resolution, self.strategy)?;
        Some(list(Tape::Pair(&w)).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HwConfig;
    use crate::engine::PreparedDataset;
    use crate::hw_intersect::HwTester;
    use crate::pipeline::QuerySpec;
    use crate::stats::TestStats;
    use spatial_index::FilterConfig;
    use spatial_raster::{DeviceError, DeviceKind, Execution, FrameBuffer, RasterDevice};
    use std::sync::{Arc, Mutex};

    const INTERSECTS: RefineOp = RefineOp::Test(Predicate::Intersects);

    impl Planner {
        /// The uncapped spelling of `plan_limited`.
        fn plan(
            &mut self,
            kind: u8,
            op: RefineOp,
            candidates: usize,
            sample: &[(&Polygon, &Polygon)],
        ) -> Planned {
            self.plan_limited(kind, op, candidates, sample, usize::MAX)
        }
    }

    fn measure(resolution: usize) -> RefineOp {
        RefineOp::Measure { resolution }
    }

    fn rect_poly(x: f64, y: f64, w: f64, h: f64) -> Polygon {
        Polygon::from_coords(&[(x, y), (x + w, y), (x + w, y + h), (x, y + h)])
    }

    /// Dense many-vertex ring: expensive for the software sweep.
    fn ring(cx: f64, cy: f64, r: f64, n: usize) -> Polygon {
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                (cx + r * t.cos(), cy + r * t.sin())
            })
            .collect();
        Polygon::from_coords(&pts)
    }

    #[test]
    fn empty_candidate_set_plans_software() {
        let mut pl = Planner::new(PlannerConfig::default(), OverlapStrategy::Accumulation);
        let planned = pl.plan(0, INTERSECTS, 0, &[]);
        assert_eq!(planned.choice, PlanChoice::Software);
        assert!(!planned.memo_hit);
        // The short-circuit is not a pricing pass: no choreography was
        // recorded, nothing entered the memo, and the serving ledger
        // must not count a plan-cache miss for it.
        assert!(!planned.priced);
        assert!(pl.memo.is_empty(), "zero-candidate plans must not memoize");
    }

    /// Real pricing passes (and their memo hits) report `priced`, so
    /// the service can tell them apart from short-circuits.
    #[test]
    fn pricing_passes_report_priced() {
        let mut pl = Planner::new(PlannerConfig::default(), OverlapStrategy::Accumulation);
        let a = rect_poly(0.0, 0.0, 10.0, 10.0);
        let b = rect_poly(5.0, 5.0, 10.0, 10.0);
        assert!(pl.plan(0, INTERSECTS, 4, &[(&a, &b)]).priced);
        assert!(pl.plan(0, INTERSECTS, 4, &[(&a, &b)]).priced);
    }

    /// Overlap aggregations price hardware at the query's own
    /// contractual resolution — never one from the configured boolean
    /// ladder — and batch per pair.
    #[test]
    fn overlap_plans_keep_the_contractual_resolution() {
        let mut pl = Planner::new(PlannerConfig::default(), OverlapStrategy::Accumulation);
        let a = ring(5.0, 5.0, 4.0, 600);
        let b = ring(6.0, 5.0, 4.0, 600);
        let planned = pl.plan_limited(4, measure(48), 10_000, &[(&a, &b)], usize::MAX);
        assert!(planned.priced);
        match planned.choice {
            PlanChoice::Hardware { resolution, batch } => {
                assert_eq!(resolution, 48, "resolution is part of the query contract");
                assert_eq!(batch, 1, "aggregations submit per pair");
            }
            PlanChoice::Software => panic!("this workload crosses over to hardware"),
        }
        // A repeat plan at the same resolution hits the memo; a
        // different resolution is a different query shape.
        assert!(
            pl.plan_limited(4, measure(48), 10_000, &[(&a, &b)], usize::MAX)
                .memo_hit
        );
        assert!(
            !pl.plan_limited(4, measure(16), 10_000, &[(&a, &b)], usize::MAX)
                .memo_hit
        );
    }

    /// An overlap sample of entirely disjoint pairs has nothing to
    /// render: software answers the zeros for free.
    #[test]
    fn disjoint_overlap_sample_plans_software() {
        let mut pl = Planner::new(PlannerConfig::default(), OverlapStrategy::Accumulation);
        let a = rect_poly(0.0, 0.0, 1.0, 1.0);
        let b = rect_poly(5.0, 5.0, 1.0, 1.0);
        let planned = pl.plan_limited(4, measure(16), 1_000_000, &[(&a, &b)], usize::MAX);
        assert_eq!(planned.choice, PlanChoice::Software);
    }

    #[test]
    fn small_simple_pairs_stay_in_software() {
        let mut pl = Planner::new(PlannerConfig::default(), OverlapStrategy::Accumulation);
        let a = rect_poly(0.0, 0.0, 10.0, 10.0);
        let b = rect_poly(5.0, 5.0, 10.0, 10.0);
        // A handful of 4-vertex pairs: the fixed draw/readback overhead
        // can never pay off.
        let planned = pl.plan(0, INTERSECTS, 4, &[(&a, &b)]);
        assert_eq!(planned.choice, PlanChoice::Software);
    }

    #[test]
    fn complex_pairs_at_scale_cross_over_to_hardware() {
        let mut pl = Planner::new(PlannerConfig::default(), OverlapStrategy::Accumulation);
        let a = ring(5.0, 5.0, 4.0, 600);
        let b = ring(6.0, 5.0, 4.0, 600);
        // 1200 vertices/pair × 10 ns ≫ the modeled raster cost at a
        // small window.
        let planned = pl.plan(2, INTERSECTS, 10_000, &[(&a, &b)]);
        assert!(
            planned.choice.is_hardware(),
            "expected hardware, got {:?}",
            planned.choice
        );
    }

    #[test]
    fn repeat_shapes_hit_the_memo() {
        let mut pl = Planner::new(PlannerConfig::default(), OverlapStrategy::Accumulation);
        let a = rect_poly(0.0, 0.0, 10.0, 10.0);
        let b = rect_poly(5.0, 5.0, 10.0, 10.0);
        let first = pl.plan(0, INTERSECTS, 4, &[(&a, &b)]);
        let second = pl.plan(0, INTERSECTS, 4, &[(&a, &b)]);
        assert!(!first.memo_hit);
        assert!(second.memo_hit);
        assert_eq!(first.choice, second.choice);
    }

    #[test]
    fn resolution_cap_prices_only_the_coarsest_windows() {
        let mut pl = Planner::new(PlannerConfig::default(), OverlapStrategy::Accumulation);
        let a = ring(5.0, 5.0, 4.0, 600);
        let b = ring(6.0, 5.0, 4.0, 600);
        let capped = pl.plan_limited(2, INTERSECTS, 10_000, &[(&a, &b)], 1);
        match capped.choice {
            PlanChoice::Hardware { resolution, .. } => {
                assert_eq!(
                    resolution, 4,
                    "cap of 1 must price the coarsest window only"
                );
            }
            PlanChoice::Software => panic!("this workload crosses over to hardware"),
        }
        // The capped pass memoizes under its own key: the uncapped plan
        // still runs a fresh pricing pass over every resolution.
        let uncapped = pl.plan(2, INTERSECTS, 10_000, &[(&a, &b)]);
        assert!(!uncapped.memo_hit, "cap must partition the memo");
        // And a repeat capped plan hits the capped entry.
        assert!(
            pl.plan_limited(2, INTERSECTS, 10_000, &[(&a, &b)], 1)
                .memo_hit
        );
    }

    #[test]
    fn distance_pricing_handles_width_limit() {
        // At high window resolutions the Equation (1) pixel width for a
        // distance comparable to the window extent exceeds the hardware
        // line-width limit; every sampled pair is then infeasible and
        // the plan must fall back to software rather than panic.
        let cfg = PlannerConfig {
            resolutions: vec![128, 256],
            ..PlannerConfig::default()
        };
        let mut pl = Planner::new(cfg, OverlapStrategy::Accumulation);
        let a = rect_poly(0.0, 0.0, 1.0, 1.0);
        let b = rect_poly(1.5, 0.0, 1.0, 1.0);
        let planned = pl.plan(
            3,
            RefineOp::Test(Predicate::WithinDistance(2.0)),
            50,
            &[(&a, &b)],
        );
        assert_eq!(planned.choice, PlanChoice::Software);
    }

    /// A reference device that also keeps the serialization of every
    /// list it was handed.
    #[derive(Debug)]
    struct Spy {
        inner: Box<dyn RasterDevice>,
        seen: Arc<Mutex<Vec<String>>>,
    }

    impl RasterDevice for Spy {
        fn execute(&mut self, list: &CommandList) -> Result<Execution, DeviceError> {
            self.seen.lock().unwrap().push(list.serialize());
            self.inner.execute(list)
        }

        fn snapshot(&self) -> Option<FrameBuffer> {
            self.inner.snapshot()
        }
    }

    fn prepare(ds: spatial_datagen::Dataset) -> PreparedDataset {
        PreparedDataset::new(ds.name, ds.polygons)
    }

    type Seen = Arc<Mutex<Vec<String>>>;

    /// Runs `check` for all five query kinds × three overlap strategies,
    /// each with a tester whose device records what it is handed in
    /// `seen`. Boolean kinds run at resolution 8, the aggregation at its
    /// own.
    fn for_each_kind_and_strategy(
        mut check: impl FnMut(OverlapStrategy, &QuerySpec, usize, &mut HwTester, &Seen),
    ) {
        let a = prepare(spatial_datagen::landc(0.002, 7));
        let b = prepare(spatial_datagen::lando(0.002, 7));
        // A window with undecided candidates under both selections.
        let window = spatial_datagen::states50(7).polygons[10].clone();
        let d = 0.5
            * spatial_datagen::base_distance(
                &spatial_datagen::landc(0.002, 7),
                &spatial_datagen::lando(0.002, 7),
            );
        let specs = [
            QuerySpec::intersection_selection(&a, &window),
            QuerySpec::containment_selection(&a, &window),
            QuerySpec::intersection_join(&a, &b),
            QuerySpec::within_distance_join(&a, &b, d),
            QuerySpec::overlap_area_join(&a, &b, 16),
        ];
        for strategy in [
            OverlapStrategy::Accumulation,
            OverlapStrategy::Blending,
            OverlapStrategy::Stencil,
        ] {
            for spec in &specs {
                let resolution = match spec.op() {
                    RefineOp::Measure { resolution } => resolution,
                    RefineOp::Test(_) => 8,
                };
                let cfg = HwConfig {
                    strategy,
                    ..HwConfig::at_resolution(resolution)
                };
                let mut tester = HwTester::new(cfg);
                let seen = Seen::default();
                tester.set_device(Box::new(Spy {
                    inner: DeviceKind::Reference.build(),
                    seen: Arc::clone(&seen),
                }));
                check(strategy, spec, resolution, &mut tester, &seen);
            }
        }
    }

    /// Runs the per-pair tester entry point of `op` on one pair.
    fn test_pair(tester: &mut HwTester, op: RefineOp, p: &Polygon, q: &Polygon) {
        let mut stats = TestStats::default();
        match op {
            RefineOp::Test(pred) => {
                tester.test(pred, p, q, &mut stats);
            }
            RefineOp::Measure { resolution } => {
                tester.overlap_area(p, q, resolution, &mut stats);
            }
        }
    }

    /// The list the planner prices for a sampled pair is the list the
    /// tester executes for that pair at the same resolution and strategy,
    /// for all five query kinds. (The planner prices every pair that has
    /// a window; the tester's prologue decides some of them without the
    /// device, and those are skipped here.)
    #[test]
    fn the_planner_prices_the_list_the_tester_executes() {
        for_each_kind_and_strategy(|strategy, spec, resolution, tester, seen| {
            let planner = Planner::new(PlannerConfig::default(), strategy);
            let mut compared = 0;
            let stage1 = spec.stage1(&FilterConfig::default());
            for &cand in &stage1.candidates {
                if compared == 4 {
                    break;
                }
                let (p, q) = spec.resolve(cand);
                let priced = planner.priced_list(spec.op(), resolution, p, q);
                test_pair(tester, spec.op(), p, q);
                if let Some(executed) = seen.lock().unwrap().pop() {
                    let priced = priced.expect("a pair that reached the device has a window");
                    assert_eq!(priced.serialize(), executed, "{strategy:?} {:?}", spec.op());
                    compared += 1;
                }
            }
            assert!(compared >= 2, "{strategy:?} {:?}", spec.op());
        });
    }

    /// What a tester submits is the `record_*` output itself — the
    /// functions `tests/golden.rs` pins — for the *live runs* of the
    /// pair's window: nothing rewrites the tape between recorder and
    /// device, per pair or batched. (Re-pinned with the boundary runs:
    /// until then the lists were `w.first.edges()` / `w.second.edges()`
    /// and every vertex as a cap; `choreography`'s differential test
    /// holds that the two forms execute alike.)
    #[test]
    fn testers_submit_the_recorders_list_verbatim() {
        use crate::choreography::{route, Routed};
        use spatial_raster::atlas::record_batch;
        use spatial_raster::AtlasJob;

        for_each_kind_and_strategy(|strategy, spec, resolution, tester, seen| {
            let what = format!("{strategy:?} {:?}", spec.op());
            let stage1 = spec.stage1(&FilterConfig::default());
            let pairs: Vec<(&Polygon, &Polygon)> = stage1
                .candidates
                .iter()
                .take(24)
                .map(|&cand| spec.resolve(cand))
                .collect();

            let mut compared = 0;
            for &(p, q) in &pairs {
                test_pair(tester, spec.op(), p, q);
                let Some(submitted) = seen.lock().unwrap().pop() else {
                    continue;
                };
                let w = window(spec.op(), p, q, resolution, strategy)
                    .expect("a pair that reached the device has a window");
                let direct = match spec.op() {
                    RefineOp::Test(Predicate::WithinDistance(_)) => {
                        HwTester::record_expanded_boundaries(
                            w.region,
                            resolution,
                            strategy,
                            w.width,
                            (w.segments(false), w.points(false)),
                            (w.segments(true), w.points(true)),
                        )
                    }
                    RefineOp::Test(_) => HwTester::record_segment_test(
                        w.region,
                        resolution,
                        strategy,
                        w.segments(false),
                        w.segments(true),
                    ),
                    RefineOp::Measure { .. } => HwTester::record_overlap_area(
                        w.region,
                        resolution,
                        w.points(false),
                        w.points(true),
                    ),
                };
                assert_eq!(submitted, direct.0.serialize(), "{what}");
                compared += 1;
            }
            assert!(compared >= 2, "{what}");

            // Batched: one atlas round per line width, ascending, over
            // the pairs the prologue routes to the device.
            let RefineOp::Test(pred) = spec.op() else {
                return;
            };
            let cfg = tester.config();
            let mut routed = Vec::new();
            for &(p, q) in &pairs {
                if let Routed::Hw(w) = route(pred, p, q, &cfg, &mut TestStats::default()) {
                    routed.push(w);
                }
            }
            routed.sort_by(|a, b| a.width.total_cmp(&b.width));
            let direct: Vec<String> = routed
                .chunk_by(|a, b| a.width == b.width)
                .map(|round| {
                    let jobs: Vec<AtlasJob> = round
                        .iter()
                        .map(|w| AtlasJob {
                            viewport: w.viewport,
                            first_segments: w.segments(false).collect(),
                            first_points: w.points(false).collect(),
                            second_segments: w.segments(true).collect(),
                            second_points: w.points(true).collect(),
                        })
                        .collect();
                    record_batch(&jobs, round[0].width, round[0].width)
                        .0
                        .serialize()
                })
                .collect();
            tester.test_batch(pred, &pairs, &mut TestStats::default());
            assert!(!direct.is_empty(), "{what}");
            assert_eq!(*seen.lock().unwrap(), direct, "{what} batched");
        });
    }
}
