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
//! Restated per pair, the crossover is Algorithm 3.1's own arithmetic:
//! the hardware step only *rejects*, and every pair its scan lets through
//! still runs the software step 3. So the planner prices both plans from
//! step 3. For each sampled pair with a window:
//!
//! * the software plan costs `step3(p, q)`: [`STEP3_FIXED_NS`] plus
//!   [`STEP3_NS_PER_EDGE`] times the edges the tester's prologue routes
//!   its threshold by (`choreography::Framing::routed_edges`: over the
//!   run-box region R for intersection and containment, within `d` of
//!   the other MBR for distance) — and nothing for an intersection or
//!   containment pair whose R is empty, which step 3 answers with no
//!   search (`spatial_geom::intersect::boundaries_meet`);
//! * the hardware plan at resolution `r` costs the modeled GPU time of
//!   the pair's list replayed at `r`, plus `step3(p, q)` when the replayed
//!   Minmax scan does not reject the pair — nothing when the run boxes
//!   prove the pair apart, which the tester's prologue answers without a
//!   submission, and just `step3(p, q)`, the tester's software fallback,
//!   when the pair has no window at `r`.
//!
//! The hardware filter therefore pays only when the step-3 work its
//! rejections save exceeds its GPU time. The batched variant is the same
//! sum with the per-test draw and readback overhead amortized over atlas
//! rounds. An aggregation has no step 3 (the count is the answer): its
//! software side is the Sutherland–Hodgman clip, priced at the same
//! per-edge rate over both boundaries.
//!
//! The planner exploits the retained command-stream architecture
//! (DESIGN.md §7): recording a test's `CommandList` is pure and cheap,
//! and a pricing pass replays each sampled list on one private
//! `ReferenceDevice` it builds for the pass and reuses across its pairs
//! and resolutions — touching none of the query's own devices, ledgers
//! or results — reading the scan's verdict and
//! pricing the counters the replay charged with [`HwCostModel::time`]
//! (what [`HwCostModel::replay_cost`] returns for the same list). A
//! pricing pass therefore costs at most the wall-clock of executing its
//! sample once per priced resolution (mostly line and point setup and
//! coverage; EXPERIMENTS.md "Branch-and-bound pricing"), which is why the
//! sample is small. It is usually less: the
//! pass stops replaying a resolution as soon as the pairs priced so far
//! prove that neither of its plans can beat the best one found yet, and
//! still chooses what replaying every pair would (`Planner::price`).
//! Each sampled pair's framing (`choreography::framing`: its run-box
//! walk, R and the polygons in render order) and its pairing are derived
//! once per pass and reused at every priced resolution; a pair whose runs
//! pair nowhere is free at each. A pair whose
//! framing proves its boundaries apart —
//! an empty R — is free on both plans for intersection and containment:
//! the tester's prologue answers it with no submission and the software
//! step 3 with no search. (A within-distance pair keeps its software
//! price: its software step 3 does not read R.) The other priced pairs are
//! every sampled pair with a window, not only those the tester's
//! point-in-polygon and `sw_threshold` prologue would send to the device:
//! a pair point-in-polygon decides, or whose routed edges are within the
//! threshold, is priced as a device test but runs in software, so the
//! hardware plans' prices, and the share of plans that pick hardware,
//! overstate what the device does. Pricing those as the tester routes
//! them would skip their replays, and waits on ROADMAP item 1: on
//! `select-small` it moves the harness past its 2²⁰-op capacity class,
//! and `peak_rss_mb` with it. A small memo keyed on the query's shape
//! (pipeline, candidate-count bucket, sampled complexity) makes repeat
//! queries plan for free.
//!
//! Whatever the planner picks, results are bit-identical (invariant 13):
//! every backend is exact, so planning is purely a latency decision and
//! a wrong estimate can never corrupt an answer.

use crate::choreography::{framing, list, Framing, NoWindow, Tape};
use crate::pipeline::{Predicate, RefineOp};
use spatial_geom::Polygon;
use spatial_raster::{
    atlas, CommandList, HwCostModel, RasterDevice, ReferenceDevice, MAX_AA_LINE_WIDTH,
};
use std::collections::HashMap;

/// The fixed part of one software step 3, in nanoseconds: the call, the
/// restricted-search-space setup and the first block compares, whatever
/// the edge count. Calibrated with [`STEP3_NS_PER_EDGE`] by the step-3
/// table of `--bin diag` (EXPERIMENTS.md "Step 3 on both sides of the
/// crossover").
pub const STEP3_FIXED_NS: f64 = 160.0;

/// The software step-3 rate, in nanoseconds per edge the prologue routes
/// by (`choreography::Framing::routed_edges`), on top of
/// [`STEP3_FIXED_NS`] per pair — the software side of Figure
/// 13. `--bin diag` times both step-3 kernels against it — the
/// intersection joins' and the within-distance joins' — and both sit on
/// this one line within the host's run-to-run spread. An aggregation's
/// clip is priced at the same rate per vertex.
pub const STEP3_NS_PER_EDGE: f64 = 9.5;

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
    /// Capacity of the plan memo (≥ 1; cleared wholesale when full —
    /// plans are cheap to recompute and the memo is purely an
    /// optimization).
    pub memo_entries: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            mode: PlannerMode::Adaptive,
            resolutions: vec![4, 8, 16],
            batch: 32,
            sample: 16,
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

/// One sampled pair as a pricing pass sees it: its framing, derived once
/// for every priced resolution, and what the software plan pays for it.
struct Sampled<'a> {
    framing: Framing<'a>,
    step3: f64,
}

/// What the hardware plan pays for one sampled pair at one resolution.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PairPrice {
    /// Its list replayed: the modeled GPU time and the step 3 after it.
    Replayed { gpu: f64, step3: f64 },
    /// Its run boxes decide it before any submission: nothing.
    Apart,
    /// No window at this resolution: the software fallback.
    Unfit { step3: f64 },
}

#[derive(Debug)]
pub(crate) struct Planner {
    cfg: PlannerConfig,
    model: HwCostModel,
    memo: HashMap<MemoKey, PlanChoice>,
}

fn ns(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64
}

impl Planner {
    pub(crate) fn new(cfg: PlannerConfig) -> Self {
        Planner {
            cfg,
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

        // One replay device for the pass, dropped with it: a frame of the
        // largest priced window lives no longer than the pricing.
        let choice = self.price(
            &mut ReferenceDevice::new(),
            op,
            candidates,
            sample,
            res_limit,
        );
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

    /// The Figure-13 comparison: the software plan against per-pair and
    /// batched hardware at every priced resolution, each the mean cost of
    /// a sampled pair (module docs) times the candidate count, replayed on
    /// `device`.
    ///
    /// Branch and bound: before each sampled pair at resolution `r`, the
    /// per-pair and batched totals of the pairs priced so far bound `r`'s
    /// two plans from below. Once neither is under the best plan so far,
    /// `r` cannot win — a plan is kept only on a strict `<` — and the rest
    /// of its sample is not replayed. The chosen plan is the one replaying
    /// every pair at every resolution would choose.
    fn price(
        &self,
        device: &mut impl RasterDevice,
        op: RefineOp,
        candidates: usize,
        sample: &[(&Polygon, &Polygon)],
        res_limit: usize,
    ) -> PlanChoice {
        // Sums over the sample, scaled to the candidate set.
        let scale = candidates as f64 / sample.len() as f64;
        let sampled = Self::sampled(op, sample);
        let software: f64 = sampled.iter().map(|pair| pair.step3).sum();
        let mut best = (scale * software, PlanChoice::Software);
        // Fixed per-test overhead a batched submission amortizes: two
        // boundary draw calls and one verdict readback per pair.
        let fixed = 2.0 * self.model.draw_call_ns + self.model.minmax_ns;
        // What the batched plan's atlas rounds cost at resolution `r`: a
        // round holds the configured batch, or as many cells as the atlas
        // fits at the widest line any test draws, if that is fewer.
        // Aggregations submit per pair (DESIGN.md §14): they have no
        // batched plan, and neither does a cell no atlas fits.
        let rounds_at = |r: usize| {
            let cells = self.cfg.batch.min(atlas::capacity(r, MAX_AA_LINE_WIDTH));
            match op {
                RefineOp::Test(_) if cells > 0 => {
                    (candidates as u64).div_ceil(cells as u64) as f64
                        * (fixed + self.model.batch_ns)
                }
                _ => f64::INFINITY,
            }
        };
        // The two hardware plans' totals over the pairs summed so far. Over
        // a prefix of the sample each is at most its total over all of it:
        // every term is non-negative, and f64 addition and multiplication
        // by `scale > 0` are monotone. In the batched total, every modeled
        // GPU time is a whole number of nanoseconds, as is `fixed`, so
        // `gpu - replayed * fixed` is exact, and each replayed pair adds
        // its GPU time less `fixed` to it, which is never negative.
        let per_pair = |gpu: f64, confirm: f64| scale * (gpu + confirm);
        let batched = |gpu: f64, replayed: usize, confirm: f64, rounds: f64| {
            scale * ((gpu - replayed as f64 * fixed).max(0.0) + confirm) + rounds
        };
        for r in self.resolutions(op, res_limit) {
            let rounds = rounds_at(r);
            // The sample's modeled GPU time, its replayed pairs, the pairs
            // the hardware plan can take at all, and the step 3 it still
            // runs.
            let (mut gpu, mut replayed, mut feasible, mut confirm) = (0.0, 0usize, 0usize, 0.0);
            for pair in &sampled {
                if per_pair(gpu, confirm) >= best.0
                    && batched(gpu, replayed, confirm, rounds) >= best.0
                {
                    // Neither plan at `r` can beat `best` any more.
                    break;
                }
                match self.price_pair(device, op, r, pair) {
                    PairPrice::Replayed {
                        gpu: pair_gpu,
                        step3,
                    } => {
                        // Every priced list draws two boundaries or two
                        // fills and scans once: it charges at least `fixed`.
                        debug_assert!(pair_gpu >= fixed, "{pair_gpu} < {fixed}");
                        gpu += pair_gpu;
                        replayed += 1;
                        feasible += 1;
                        confirm += step3;
                    }
                    PairPrice::Apart => feasible += 1,
                    PairPrice::Unfit { step3 } => confirm += step3,
                }
            }
            if feasible == 0 {
                // Hardware infeasible at this resolution (every sampled
                // pair hit the width limit or had no projection window).
                continue;
            }
            for (total, batch) in [
                (per_pair(gpu, confirm), 1),
                (batched(gpu, replayed, confirm, rounds), self.cfg.batch),
            ] {
                if total < best.0 {
                    best = (
                        total,
                        PlanChoice::Hardware {
                            resolution: r,
                            batch,
                        },
                    );
                }
            }
        }
        best.1
    }

    /// The resolutions a pass prices hardware at.
    fn resolutions(&self, op: RefineOp, res_limit: usize) -> Vec<usize> {
        match op {
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
        }
    }

    /// Each pair of `sample` with its framing and its software price.
    fn sampled<'a>(op: RefineOp, sample: &[(&'a Polygon, &'a Polygon)]) -> Vec<Sampled<'a>> {
        sample
            .iter()
            .map(|&(p, q)| {
                let framing = framing(op, p, q);
                let step3 = Self::step3_ns(op, p, q, &framing);
                Sampled { framing, step3 }
            })
            .collect()
    }

    /// The software plan's cost of one pair with `framing`, in modeled
    /// nanoseconds: for a boolean test its step 3, [`STEP3_FIXED_NS`] plus
    /// [`STEP3_NS_PER_EDGE`] times the framing's step-3 edges
    /// (`Framing::routed_edges`) — nothing for an intersection or
    /// containment pair whose R is empty, which step 3 answers without a
    /// search; for an aggregation the clip, at the same rate per vertex of
    /// both boundaries.
    fn step3_ns(op: RefineOp, p: &Polygon, q: &Polygon, framing: &Framing) -> f64 {
        match op {
            RefineOp::Measure { .. } => {
                (p.vertex_count() + q.vertex_count()) as f64 * STEP3_NS_PER_EDGE
            }
            RefineOp::Test(Predicate::Intersects | Predicate::ContainedIn) if framing.apart() => {
                0.0
            }
            RefineOp::Test(_) => STEP3_FIXED_NS + framing.routed_edges() as f64 * STEP3_NS_PER_EDGE,
        }
    }

    /// The hardware plan's cost of one sampled pair at `resolution`: the
    /// modeled GPU time of its replayed list and the step 3 that follows
    /// unless the replayed scan rejects the pair; nothing for a pair whose
    /// run boxes prove it apart, which the tester's prologue answers
    /// without a submission or a step 3; and without a window, the
    /// tester's software fallback — all of the pair's software price. An
    /// aggregation's count is its answer: no step 3 follows a replay, and a
    /// pair without a window has an empty or degenerate overlap that
    /// answers `0.0` without either.
    fn price_pair(
        &self,
        device: &mut impl RasterDevice,
        op: RefineOp,
        resolution: usize,
        pair: &Sampled,
    ) -> PairPrice {
        let (list, slot) = match Self::priced_tape(&pair.framing, resolution) {
            Ok(tape) => tape,
            Err(NoWindow::Apart) => return PairPrice::Apart,
            Err(NoWindow::Unfit) => {
                return PairPrice::Unfit {
                    step3: match op {
                        RefineOp::Measure { .. } => 0.0,
                        RefineOp::Test(_) => pair.step3,
                    },
                }
            }
        };
        let exec = device
            .execute(&list)
            .expect("the reference replay is infallible");
        let rejected = match op {
            RefineOp::Measure { .. } => true,
            RefineOp::Test(_) => exec.max_red(slot).is_ok_and(|max| max < 1.0),
        };
        PairPrice::Replayed {
            gpu: ns(self.model.time(&exec.stats)),
            step3: if rejected { 0.0 } else { pair.step3 },
        }
    }

    /// The list [`Planner::price_pair`] replays for a pair with `framing`
    /// and its verdict slot: exactly what a tester at `resolution` executes
    /// for the pair once its software prologue sends it to the device —
    /// same window, same tape — or why the tester submits nothing. Every
    /// sampled pair with a projection window is priced; the prologue's
    /// point-in-polygon and threshold exits are the tester's own.
    fn priced_tape(framing: &Framing, resolution: usize) -> Result<(CommandList, usize), NoWindow> {
        Ok(list(Tape::Pair(&framing.window(resolution)?)))
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
    use spatial_raster::OverlapStrategy;
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

        /// The list the planner replays for a pair at `resolution`.
        fn priced_list(
            &self,
            op: RefineOp,
            resolution: usize,
            p: &Polygon,
            q: &Polygon,
        ) -> Option<CommandList> {
            Self::priced_tape(&framing(op, p, q), resolution)
                .ok()
                .map(|(list, _)| list)
        }

        /// The pricing pass without its bound, in its own arithmetic:
        /// every sampled pair replayed at every resolution. `price` must
        /// choose what this chooses.
        fn price_exhaustively(
            &self,
            device: &mut impl RasterDevice,
            op: RefineOp,
            candidates: usize,
            sample: &[(&Polygon, &Polygon)],
            res_limit: usize,
        ) -> PlanChoice {
            let scale = candidates as f64 / sample.len() as f64;
            let sampled = Self::sampled(op, sample);
            let software: f64 = sampled.iter().map(|pair| pair.step3).sum();
            let mut best = (scale * software, PlanChoice::Software);
            let fixed = 2.0 * self.model.draw_call_ns + self.model.minmax_ns;
            for r in self.resolutions(op, res_limit) {
                let (mut gpu, mut replayed, mut feasible, mut confirm) = (0.0, 0usize, 0usize, 0.0);
                for pair in &sampled {
                    match self.price_pair(device, op, r, pair) {
                        PairPrice::Replayed {
                            gpu: pair_gpu,
                            step3,
                        } => {
                            gpu += pair_gpu;
                            replayed += 1;
                            feasible += 1;
                            confirm += step3;
                        }
                        PairPrice::Apart => feasible += 1,
                        PairPrice::Unfit { step3 } => confirm += step3,
                    }
                }
                if feasible == 0 {
                    continue;
                }
                let per_pair_total = scale * (gpu + confirm);
                if per_pair_total < best.0 {
                    best = (
                        per_pair_total,
                        PlanChoice::Hardware {
                            resolution: r,
                            batch: 1,
                        },
                    );
                }
                let cells = self.cfg.batch.min(atlas::capacity(r, MAX_AA_LINE_WIDTH));
                if matches!(op, RefineOp::Measure { .. }) || cells == 0 {
                    continue;
                }
                let rounds = (candidates as u64).div_ceil(cells as u64) as f64;
                let batched_total = scale * ((gpu - replayed as f64 * fixed).max(0.0) + confirm)
                    + rounds * (fixed + self.model.batch_ns);
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
    }

    /// A reference device that counts the lists it executes.
    #[derive(Debug, Default)]
    struct Counting {
        inner: ReferenceDevice,
        lists: usize,
    }

    impl RasterDevice for Counting {
        fn execute(
            &mut self,
            list: &CommandList,
        ) -> Result<spatial_raster::Execution, spatial_raster::DeviceError> {
            self.lists += 1;
            self.inner.execute(list)
        }

        fn snapshot(&self) -> Option<spatial_raster::FrameBuffer> {
            self.inner.snapshot()
        }
    }

    /// Prices `sample` both ways and returns the plan with the lists each
    /// way replayed: (plan, pruned, exhaustive).
    fn price_both_ways(
        pl: &Planner,
        op: RefineOp,
        candidates: usize,
        sample: &[(&Polygon, &Polygon)],
        res_limit: usize,
    ) -> (PlanChoice, usize, usize) {
        let (mut pruned, mut full) = (Counting::default(), Counting::default());
        let choice = pl.price(&mut pruned, op, candidates, sample, res_limit);
        let oracle = pl.price_exhaustively(&mut full, op, candidates, sample, res_limit);
        assert_eq!(choice, oracle, "{op:?} {candidates} {res_limit}");
        assert!(pruned.lists <= full.lists);
        (choice, pruned.lists, full.lists)
    }

    fn measure(resolution: usize) -> RefineOp {
        RefineOp::Measure { resolution }
    }

    /// `(a, b)` as a pricing pass samples it under `op`.
    fn sampled<'a>(op: RefineOp, a: &'a Polygon, b: &'a Polygon) -> Sampled<'a> {
        Planner::sampled(op, &[(a, b)]).remove(0)
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
        let mut pl = Planner::new(PlannerConfig::default());
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
        let mut pl = Planner::new(PlannerConfig::default());
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
        let mut pl = Planner::new(PlannerConfig::default());
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
        let mut pl = Planner::new(PlannerConfig::default());
        let a = rect_poly(0.0, 0.0, 1.0, 1.0);
        let b = rect_poly(5.0, 5.0, 1.0, 1.0);
        let planned = pl.plan_limited(4, measure(16), 1_000_000, &[(&a, &b)], usize::MAX);
        assert_eq!(planned.choice, PlanChoice::Software);
    }

    #[test]
    fn small_simple_pairs_stay_in_software() {
        let mut pl = Planner::new(PlannerConfig::default());
        let a = rect_poly(0.0, 0.0, 10.0, 10.0);
        let b = rect_poly(5.0, 5.0, 10.0, 10.0);
        // A handful of 4-vertex pairs: the fixed draw/readback overhead
        // can never pay off.
        let planned = pl.plan(0, INTERSECTS, 4, &[(&a, &b)]);
        assert_eq!(planned.choice, PlanChoice::Software);
    }

    /// Two rings, one inside the other, their boundaries 2.0 apart: each
    /// 32-edge run box of the 96-vertex outer ring spans a third of it and
    /// reaches into the inner ring's MBR, so the run boxes cannot decide
    /// the pair, and every window's scan rejects it.
    fn nested_rings() -> (Polygon, Polygon) {
        (ring(5.0, 5.0, 4.0, 96), ring(5.0, 5.0, 2.0, 600))
    }

    /// Both facts `nested_rings` is for: at every configured resolution
    /// the pair reaches the device — its run boxes meet inside the MBR
    /// intersection — and the replayed scan rejects it.
    fn assert_replayed_and_rejected(pl: &Planner, a: &Polygon, b: &Polygon) {
        let device = &mut ReferenceDevice::new();
        let pair = sampled(INTERSECTS, a, b);
        assert!(pair.step3 > 0.0);
        for &r in &pl.cfg.resolutions {
            let price = pl.price_pair(device, INTERSECTS, r, &pair);
            assert!(
                matches!(price, PairPrice::Replayed { step3: 0.0, .. }),
                "at {r}: {price:?}"
            );
        }
    }

    #[test]
    fn complex_pairs_at_scale_cross_over_to_hardware() {
        let mut pl = Planner::new(PlannerConfig::default());
        let (a, b) = nested_rings();
        assert_replayed_and_rejected(&pl, &a, &b);
        // The step 3 the scan's rejection saves (600 live edges) ≫ the
        // modeled raster cost at a small window.
        let planned = pl.plan(2, INTERSECTS, 10_000, &[(&a, &b)]);
        assert!(
            planned.choice.is_hardware(),
            "expected hardware, got {:?}",
            planned.choice
        );
    }

    #[test]
    fn repeat_shapes_hit_the_memo() {
        let mut pl = Planner::new(PlannerConfig::default());
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
        let mut pl = Planner::new(PlannerConfig::default());
        let (a, b) = nested_rings();
        assert_replayed_and_rejected(&pl, &a, &b);
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

    /// A pair whose run boxes prove it apart costs both plans nothing: the
    /// tester's prologue answers it with no submission and no step 3, and
    /// the software step 3 with no search. (The 600-vertex outer ring's
    /// boxes never reach the inner ring's MBR.) A sample of such pairs
    /// plans software however many candidates stand behind it — hardware
    /// would have to be strictly cheaper — for intersection and
    /// containment alike. A within-distance test keeps its software price:
    /// its step 3 does not read R, so the same pair plans hardware.
    #[test]
    fn an_apart_pair_costs_both_plans_nothing() {
        let (a, b) = (ring(5.0, 5.0, 4.0, 600), ring(5.0, 5.0, 2.0, 600));
        let pl = Planner::new(PlannerConfig::default());
        let device = &mut ReferenceDevice::new();
        let contained = RefineOp::Test(Predicate::ContainedIn);
        for (op, p, q) in [(INTERSECTS, &a, &b), (contained, &b, &a)] {
            let pair = sampled(op, p, q);
            assert!(pair.framing.apart(), "{op:?}");
            assert_eq!(pair.step3, 0.0, "{op:?}");
            for &r in &pl.cfg.resolutions {
                assert_eq!(pl.price_pair(device, op, r, &pair), PairPrice::Apart);
            }
            for candidates in [1, 64, 10_000] {
                let mut pl = Planner::new(PlannerConfig::default());
                let planned = pl.plan(2, op, candidates, &[(p, q)]);
                assert_eq!(planned.choice, PlanChoice::Software, "{op:?} {candidates}");
                let (choice, ..) = price_both_ways(&pl, op, candidates, &[(p, q)], usize::MAX);
                assert_eq!(choice, PlanChoice::Software, "{op:?} {candidates}");
            }
        }
        let within = RefineOp::Test(Predicate::WithinDistance(0.1));
        let pair = sampled(within, &a, &b);
        assert!(pair.framing.apart());
        assert!(pair.step3 > 0.0);
        let planned = Planner::new(PlannerConfig::default()).plan(3, within, 64, &[(&a, &b)]);
        assert_eq!(
            planned.choice,
            PlanChoice::Hardware {
                resolution: 4,
                batch: 1
            }
        );
    }

    /// Two crossing rings: the scan never rejects them, so the hardware
    /// plan pays its GPU time on top of the step 3 software pays alone —
    /// at any resolution, batch or candidate count.
    #[test]
    fn a_pair_the_scan_cannot_reject_never_plans_hardware() {
        let a = ring(5.0, 5.0, 4.0, 600);
        let b = ring(6.0, 5.0, 4.0, 600);
        for candidates in [1, 64, 10_000, 1_000_000] {
            for limit in [1, usize::MAX] {
                let mut pl = Planner::new(PlannerConfig::default());
                let planned = pl.plan_limited(2, INTERSECTS, candidates, &[(&a, &b)], limit);
                assert_eq!(planned.choice, PlanChoice::Software, "{candidates} {limit}");
            }
        }
    }

    /// A sampled pair without a window at a resolution costs the hardware
    /// plan there its software fallback: step 3, no GPU time.
    #[test]
    fn a_window_less_pair_costs_the_hardware_plan_its_software_fallback() {
        let pl = Planner::new(PlannerConfig::default());
        let a = rect_poly(0.0, 0.0, 1.0, 1.0);
        let b = rect_poly(1.5, 0.0, 1.0, 1.0);
        let op = RefineOp::Test(Predicate::WithinDistance(2.0));
        let pair = sampled(op, &a, &b);
        assert!(pair.step3 > 0.0);
        let device = &mut ReferenceDevice::new();
        // Over the line-width limit at 256 (see the test below), not at 4.
        assert_eq!(
            pl.price_pair(device, op, 256, &pair),
            PairPrice::Unfit { step3: pair.step3 }
        );
        assert!(matches!(
            pl.price_pair(device, op, 4, &pair),
            PairPrice::Replayed { .. }
        ));
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
        let mut pl = Planner::new(cfg);
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

    fn prepare(ds: spatial_datagen::Dataset) -> PreparedDataset {
        PreparedDataset::new(ds.name, ds.polygons)
    }

    type Seen = Arc<Mutex<Vec<String>>>;

    /// Runs `check` for all five query kinds, each with a tester whose
    /// device records what it is handed in `seen`. Boolean kinds run at
    /// resolution 8, the aggregation at its own.
    fn for_each_kind(mut check: impl FnMut(&QuerySpec, usize, &mut HwTester, &Seen)) {
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
        for spec in &specs {
            let resolution = match spec.op() {
                RefineOp::Measure { resolution } => resolution,
                RefineOp::Test(_) => 8,
            };
            let mut tester = HwTester::new(HwConfig::at_resolution(resolution));
            let seen = tester.spy();
            check(spec, resolution, &mut tester, &seen);
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
    /// tester executes for that pair at the same resolution, for all five
    /// query kinds. (The planner prices every pair that has
    /// a window; the tester's prologue decides some of them without the
    /// device, and those are skipped here.)
    #[test]
    fn the_planner_prices_the_list_the_tester_executes() {
        for_each_kind(|spec, resolution, tester, seen| {
            let planner = Planner::new(PlannerConfig::default());
            let mut compared = 0;
            let stage1 = spec.stage1();
            for &cand in &stage1.candidates {
                if compared == 4 {
                    break;
                }
                let (p, q) = spec.resolve(cand);
                let priced = planner.priced_list(spec.op(), resolution, p, q);
                test_pair(tester, spec.op(), p, q);
                if let Some(executed) = seen.lock().unwrap().pop() {
                    let priced = priced.expect("a pair that reached the device has a window");
                    assert_eq!(priced.serialize(), executed, "{:?}", spec.op());
                    compared += 1;
                }
            }
            assert!(compared >= 2, "{:?}", spec.op());
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
        use crate::choreography::{route, window, Routed};
        use spatial_raster::atlas::record_batch;
        use spatial_raster::AtlasJob;

        for_each_kind(|spec, resolution, tester, seen| {
            let what = format!("{:?}", spec.op());
            let stage1 = spec.stage1();
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
                let w = window(spec.op(), p, q, resolution)
                    .expect("a pair that reached the device has a window");
                let direct = match spec.op() {
                    RefineOp::Test(Predicate::WithinDistance(_)) => {
                        HwTester::record_expanded_boundaries(
                            w.region,
                            resolution,
                            w.width,
                            (w.segments(false), w.points(false)),
                            (w.segments(true), w.points(true)),
                        )
                    }
                    RefineOp::Test(_) => HwTester::record_segment_test(
                        w.region,
                        resolution,
                        OverlapStrategy::Accumulation,
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

    /// Four-vertex pairs whose MBRs overlap: the replayed lists cost more
    /// than the step 3 they could save, so software wins, and each
    /// resolution stops replaying once its partial sums pass the software
    /// total — after a few of the sixteen pairs, not all of them.
    #[test]
    fn a_pass_stops_replaying_a_resolution_that_cannot_win() {
        let pl = Planner::new(PlannerConfig::default());
        let pairs: Vec<(Polygon, Polygon)> = (0..16)
            .map(|i| {
                let x = i as f64 * 20.0;
                (
                    rect_poly(x, 0.0, 10.0, 10.0),
                    rect_poly(x + 5.0, 5.0, 10.0, 10.0),
                )
            })
            .collect();
        let sample: Vec<(&Polygon, &Polygon)> = pairs.iter().map(|(p, q)| (p, q)).collect();
        for candidates in [16, 10_000] {
            let (choice, pruned, full) =
                price_both_ways(&pl, INTERSECTS, candidates, &sample, usize::MAX);
            assert_eq!(choice, PlanChoice::Software);
            assert_eq!(full, sample.len() * pl.cfg.resolutions.len());
            assert!(pruned < full / 2, "{candidates}: {pruned} of {full}");
        }
    }

    /// A sample of `n` pairs of `spatial_datagen` stars, each pair one of
    /// four relations: the second star nested inside the first with their
    /// boundaries apart (what the scan rejects, so hardware can win), their
    /// boundaries crossing, side by side with overlapping MBRs, or far
    /// apart. Up to 400 vertices a star; a nested pair's outer star has
    /// under 96, so that each of its run boxes spans a third of it or more
    /// and reaches the inner star's MBR: the run boxes do not prove the
    /// pair apart, which would make it free on both plans.
    fn star_sample(seed: u64, n: usize) -> Vec<(Polygon, Polygon)> {
        use rand::{Rng, SeedableRng};
        use spatial_datagen::shapes::harmonic_star;
        use spatial_geom::Point;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let star = |x: f64, radius: f64, most: usize, rng: &mut rand::rngs::StdRng| {
                    let vertices = rng.gen_range(8..most);
                    let (roughness, detail) = (rng.gen_range(0.0..0.1), rng.gen_range(0.0..0.05));
                    let rotation = rng.gen_range(0.0..std::f64::consts::TAU);
                    let center = Point::new(x, 0.0);
                    harmonic_star(
                        center, radius, vertices, roughness, detail, 1.0, rotation, rng,
                    )
                };
                let relation = rng.gen_range(0..4);
                let most = if relation == 0 { 96 } else { 400 };
                let p = star(0.0, 5.0, most, &mut rng);
                let q = match relation {
                    0 => star(0.0, 2.0, 400, &mut rng),
                    1 => star(rng.gen_range(1.0..4.0), 4.0, 400, &mut rng),
                    2 => star(rng.gen_range(8.0..12.0), 4.0, 400, &mut rng),
                    _ => star(40.0, 4.0, 400, &mut rng),
                };
                (p, q)
            })
            .collect()
    }

    /// Prices one star sample both ways under every query kind, resolution
    /// cap and batch size, and returns what each pass chose with its
    /// replay counts.
    fn price_star_sample(
        seed: u64,
        n: usize,
        candidates: usize,
        d: f64,
        grid: usize,
    ) -> Vec<(PlanChoice, usize, usize)> {
        let pairs = star_sample(seed, n);
        let sample: Vec<(&Polygon, &Polygon)> = pairs.iter().map(|(p, q)| (p, q)).collect();
        let mut priced = Vec::new();
        for batch in [1, 32] {
            let pl = Planner::new(PlannerConfig {
                batch,
                ..PlannerConfig::default()
            });
            for op in [
                INTERSECTS,
                RefineOp::Test(Predicate::ContainedIn),
                RefineOp::Test(Predicate::WithinDistance(d)),
                measure(grid),
            ] {
                for res_limit in [1, usize::MAX] {
                    priced.push(price_both_ways(&pl, op, candidates, &sample, res_limit));
                }
            }
        }
        priced
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The pruned pass chooses the exhaustive pass's plan, on samples of
        /// nested, crossing, neighbouring and distant stars, for every query
        /// kind, at resolution caps 1 and none, batch 1 and 32, from one
        /// candidate to two million.
        #[test]
        fn pruned_pricing_chooses_the_exhaustive_plan(
            seed in 0u64..u64::MAX,
            n in 1usize..13,
            candidates_log10 in 0.0f64..6.3,
            d in 0.0f64..1.5,
            grid in 4usize..48,
        ) {
            let candidates = 10f64.powf(candidates_log10) as usize;
            price_star_sample(seed, n, candidates, d, grid);
        }
    }

    /// What the property above covers, on fixed seeds: star samples plan
    /// software and hardware, per pair and batched, at more than one
    /// resolution, and some passes stop replaying early — so the bound is
    /// checked both where it fires and after `best` moved to hardware.
    #[test]
    fn star_samples_cover_both_plans_and_the_prune() {
        let mut priced = Vec::new();
        for seed in 0..12 {
            priced.extend(price_star_sample(seed, 8, 1 << (seed % 6 * 4), 0.5, 24));
        }
        let hardware = |batch: usize| {
            priced
                .iter()
                .any(|(c, ..)| matches!(c, PlanChoice::Hardware { batch: b, .. } if *b == batch))
        };
        assert!(priced.iter().any(|(c, ..)| *c == PlanChoice::Software));
        assert!(hardware(1) && hardware(32));
        assert!(priced.iter().any(|(c, ..)| matches!(
            c,
            PlanChoice::Hardware { resolution, .. } if *resolution > 4 && *resolution != 24
        )));
        assert!(priced.iter().any(|&(_, pruned, full)| pruned < full));
        assert!(priced
            .iter()
            .any(|&(c, pruned, full)| c.is_hardware() && pruned < full));
    }
}
