//! The staged executor: one implementation of Fig. 8's three-stage loop,
//! generic over candidate type, filter chain and refinement backend.
//!
//! Every pipeline is the same shape:
//!
//! ```text
//! stage 1   MBR filtering          R-tree search / tree join
//! stage 2   intermediate filtering chain of CandidateFilters, sequential
//! stage 3   geometry comparison    RefinementBackend, per pair or batched
//! ```
//!
//! The executor owns the timers and the [`CostBreakdown`]; stage 3's
//! reported time swaps the rasterizer-simulation seconds for modeled GPU
//! seconds, exactly as the per-pipeline loops used to.
//!
//! # Determinism under batching
//!
//! Stage 3 refines the undecided candidates in order, `batch` at a time.
//! Every backend's answers are a pure function of the pairs it is given,
//! so results are identical for every `batch`; only the submission
//! counters move (`sim_wall` aside, which measures the simulation's own
//! wall clock and is excluded from all reported times).
//!
use super::backend::RefinementBackend;
use super::filter::{CandidateFilter, Decision};
use super::RefineOp;
use crate::stats::{CostBreakdown, TestStats};
use spatial_geom::Polygon;
use spatial_index::FilterStats;
use std::time::{Duration, Instant};

/// Measured stage time with the simulation seconds swapped for modeled
/// GPU seconds, plus the modeled recovery backoff (charged by the fault
/// supervisor instead of slept — see `pipeline::recovery`). Saturating: on
/// a fast host the measured slice attributable to simulation can exceed
/// the stage's own timer resolution, and under parallel refinement the
/// per-worker simulation seconds sum past the stage's wall clock.
pub(crate) fn adjusted(measured: Duration, tests: &TestStats) -> Duration {
    measured.saturating_sub(tests.sim_wall)
        + tests.gpu_modeled
        + Duration::from_nanos(tests.recovery_ns)
}

/// Stage 1's output as a value: the candidate stream in the MBR filter's
/// deterministic order, its work counters, and what the enumeration cost.
/// Whoever ran the filter — the engine, or the query service that also
/// budgets and plans on it — hands it to [`StagedExecutor::run`], so the
/// stream is produced exactly once per query.
#[derive(Debug)]
pub struct Stage1<C> {
    pub candidates: Vec<C>,
    pub stats: FilterStats,
    /// Wall-clock of the enumeration alone — the tree traversal; lands in
    /// `cost.mbr_filter`.
    pub elapsed: Duration,
}

/// What a kept candidate carries out of stage 3: `()` under
/// [`RefineOp::Test`], the positive area under [`RefineOp::Measure`].
/// Pairing an output type with the other operation is a bug in the
/// caller and panics.
pub trait Verdict: Copy {
    /// What an intermediate filter's `Confirm` settles without
    /// refinement: a boolean verdict entirely, an area not at all (the
    /// pair is a result, but it still has to be measured).
    const CONFIRMED: Option<Self>;

    /// Refines one contiguous span of resolved candidates — `None`
    /// drops the candidate — submitting `batch` pairs per round where
    /// the operation supports it.
    fn refine(
        op: RefineOp,
        batch: usize,
        backend: &mut dyn RefinementBackend,
        pairs: &[(&Polygon, &Polygon)],
        tests: &mut TestStats,
    ) -> Vec<Option<Self>>;
}

impl Verdict for () {
    const CONFIRMED: Option<()> = Some(());

    fn refine(
        op: RefineOp,
        batch: usize,
        backend: &mut dyn RefinementBackend,
        pairs: &[(&Polygon, &Polygon)],
        tests: &mut TestStats,
    ) -> Vec<Option<()>> {
        let RefineOp::Test(predicate) = op else {
            panic!("{op:?} yields areas, not boolean verdicts");
        };
        let kept: Vec<Option<()>> = if batch > 1 {
            pairs
                .chunks(batch)
                .flat_map(|group| backend.test_batch(predicate, group, tests))
                .map(|keep| keep.then_some(()))
                .collect()
        } else {
            pairs
                .iter()
                .map(|&(p, q)| backend.test(predicate, p, q, tests).then_some(()))
                .collect()
        };
        debug_assert_eq!(kept.len(), pairs.len());
        kept
    }
}

impl Verdict for f64 {
    const CONFIRMED: Option<f64> = None;

    /// Aggregations are per-pair submissions (no atlas batching), so
    /// `batch` changes nothing.
    fn refine(
        op: RefineOp,
        _batch: usize,
        backend: &mut dyn RefinementBackend,
        pairs: &[(&Polygon, &Polygon)],
        tests: &mut TestStats,
    ) -> Vec<Option<f64>> {
        let RefineOp::Measure { resolution } = op else {
            panic!("{op:?} yields boolean verdicts, not areas");
        };
        pairs
            .iter()
            .map(|&(p, q)| {
                Some(backend.measure_overlap(p, q, resolution, tests)).filter(|&a| a > 0.0)
            })
            .collect()
    }
}

/// Stage-3 execution parameters, copied from the engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct StagedExecutor {
    /// Candidate pairs per hardware submission round; ≤ 1 keeps the
    /// paper-faithful per-pair choreography.
    pub batch: usize,
}

impl StagedExecutor {
    /// Runs one query over an already-enumerated [`Stage1`]: the `filters`
    /// chain settles what it can, the backend refines the rest under
    /// `op`, and the kept candidates come back sorted, each with its
    /// [`Verdict`] — `()` for a boolean test, the positive area for a
    /// measurement (DESIGN.md §14).
    pub fn run<'p, C, O, R>(
        &self,
        backend: &mut dyn RefinementBackend,
        op: RefineOp,
        stage1: Stage1<C>,
        mut filters: Vec<Box<dyn CandidateFilter<C> + '_>>,
        resolve: R,
    ) -> (Vec<(C, O)>, CostBreakdown)
    where
        C: Copy + Ord,
        O: Verdict,
        R: Fn(C) -> (&'p Polygon, &'p Polygon),
    {
        let mut cost = CostBreakdown {
            mbr_filter: stage1.elapsed,
            candidates: stage1.candidates.len(),
            node_tests: stage1.stats.node_tests,
            ..CostBreakdown::default()
        };

        let t1 = Instant::now();
        let mut results: Vec<(C, O)> = Vec::new();
        let mut rest: Vec<C> = Vec::new();
        'candidates: for c in stage1.candidates {
            for f in filters.iter_mut() {
                match f.examine(&c) {
                    Decision::Confirm => {
                        if let Some(settled) = O::CONFIRMED {
                            results.push((c, settled));
                            continue 'candidates;
                        }
                        break;
                    }
                    Decision::Reject => continue 'candidates,
                    Decision::Refine => {}
                }
            }
            rest.push(c);
        }
        cost.intermediate_filter = t1.elapsed();
        cost.filter_hits = results.len();

        let t2 = Instant::now();
        let pairs: Vec<(&Polygon, &Polygon)> = rest.iter().map(|&c| resolve(c)).collect();
        let verdicts = O::refine(op, self.batch, backend, &pairs, &mut cost.tests);
        results.extend(
            rest.iter()
                .zip(verdicts)
                .filter_map(|(&c, v)| Some((c, v?))),
        );
        cost.geometry_comparison = adjusted(t2.elapsed(), &cost.tests);
        results.sort_unstable_by_key(|r| r.0);
        cost.results = results.len();
        (results, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HwConfig;
    use crate::hw_intersect::HwTester;
    use crate::pipeline::backend::SoftwareBackend;
    use crate::pipeline::{Predicate, RecoveryPolicy};
    use spatial_raster::DeviceKind;

    const INTERSECTS: RefineOp = RefineOp::Test(Predicate::Intersects);

    /// A hand-built candidate list standing in for the MBR filter.
    fn stage1<C>(candidates: Vec<C>) -> Stage1<C> {
        Stage1 {
            candidates,
            stats: FilterStats::default(),
            elapsed: Duration::ZERO,
        }
    }

    /// The kept candidates of a boolean run, verdicts dropped.
    fn kept<C>((rows, cost): (Vec<(C, ())>, CostBreakdown)) -> (Vec<C>, CostBreakdown) {
        (rows.into_iter().map(|(c, ())| c).collect(), cost)
    }

    fn square(x: f64, y: f64, s: f64) -> Polygon {
        Polygon::from_coords(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
    }

    /// A filter stage that confirms even indices and rejects multiples of
    /// five — exercises every `Decision` arm, including `Reject`, which no
    /// built-in paper filter uses (the paper's filters are one-sided).
    struct ParityFilter;
    impl CandidateFilter<usize> for ParityFilter {
        fn examine(&mut self, &i: &usize) -> Decision {
            if i % 5 == 0 {
                Decision::Reject
            } else if i % 2 == 0 {
                Decision::Confirm
            } else {
                Decision::Refine
            }
        }
    }

    #[test]
    fn filter_chain_routes_all_three_decisions() {
        let polys: Vec<Polygon> = (0..10).map(|i| square(i as f64 * 3.0, 0.0, 1.0)).collect();
        let query = square(0.0, 0.0, 1.0); // intersects only polygon 0 (rejected by filter)
        let exec = StagedExecutor { batch: 1 };
        let mut backend = SoftwareBackend;
        let (results, cost) = kept(exec.run(
            &mut backend,
            INTERSECTS,
            stage1((0..10).collect()),
            vec![Box::new(ParityFilter)],
            |i| (&query, &polys[i]),
        ));
        // Confirmed: even non-multiples-of-5 {2,4,6,8}. Refined {1,3,7,9}:
        // none intersects the query. Rejected {0,5} — including the one
        // true geometric intersection, proving Reject short-circuits.
        assert_eq!(results, vec![2, 4, 6, 8]);
        assert_eq!(cost.filter_hits, 4);
        assert_eq!(cost.candidates, 10);
        assert_eq!(cost.results, 4);
        assert_eq!(cost.tests.software_tests, 4);
    }

    /// Horizontal bars crossed by tall vertical bars: for the crossing
    /// pairs the MBRs overlap but no vertex of either polygon lies inside
    /// the other, so (at `sw_threshold = 0`) they genuinely reach the
    /// hardware filter; shifted verticals add PiP- and MBR-decided pairs
    /// for routing variety.
    fn bars() -> (Vec<Polygon>, Vec<Polygon>) {
        let horiz: Vec<Polygon> = (0..6)
            .map(|i| {
                let y = 10.0 * i as f64 + 2.0;
                Polygon::from_coords(&[(0.0, y), (6.0, y), (6.0, y + 2.0), (0.0, y + 2.0)])
            })
            .collect();
        let vert: Vec<Polygon> = (0..6)
            .map(|j| {
                let x = 1.0 + 4.0 * j as f64;
                Polygon::from_coords(&[(x, -1.0), (x + 2.0, -1.0), (x + 2.0, 61.0), (x, 61.0)])
            })
            .collect();
        (horiz, vert)
    }

    /// Every batch size gives the same results and the same routing
    /// counters as per-pair submission.
    #[test]
    fn batching_preserves_results_and_counters() {
        let (left, right) = bars();
        let cands: Vec<(usize, usize)> = (0..6).flat_map(|i| (0..6).map(move |j| (i, j))).collect();

        let run = |batch: usize| {
            let exec = StagedExecutor { batch };
            let mut backend = HwTester::new(HwConfig::at_resolution(8));
            kept(exec.run(
                &mut backend,
                INTERSECTS,
                stage1(cands.clone()),
                Vec::new(),
                |(i, j)| (&left[i], &right[j]),
            ))
        };

        let (base_results, base_cost) = run(1);
        assert!(!base_results.is_empty());
        assert!(
            base_cost.tests.hw_tests > 0,
            "workload must exercise the hardware"
        );
        for batch in [4, 64] {
            let (r, c) = run(batch);
            assert_eq!(r, base_results, "batch={batch}");
            let (t, bt) = (&c.tests, &base_cost.tests);
            assert_eq!(t.decided_by_pip, bt.decided_by_pip);
            assert_eq!(t.rejected_by_hw, bt.rejected_by_hw);
            assert_eq!(t.software_tests, bt.software_tests);
            assert_eq!(t.hw_tests, bt.hw_tests);
        }
    }

    /// The aggregation path's invariant: rows, areas (bit-for-bit) and
    /// deterministic counters are identical across batch and shard
    /// settings.
    #[test]
    fn measured_areas_are_invariant_across_execution_shapes() {
        let (left, right) = bars();
        let cands: Vec<(usize, usize)> = (0..6).flat_map(|i| (0..6).map(move |j| (i, j))).collect();
        let run = |batch: usize, shards: usize| {
            let exec = StagedExecutor { batch };
            let mut backend = HwTester::with_device_and_policy(
                HwConfig::at_resolution(8),
                DeviceKind::Reference,
                shards,
                RecoveryPolicy::default(),
            );
            exec.run::<_, f64, _>(
                &mut backend,
                RefineOp::Measure { resolution: 32 },
                stage1(cands.clone()),
                Vec::new(),
                |(i, j)| (&left[i], &right[j]),
            )
        };
        let (base, base_cost) = run(1, 1);
        assert!(!base.is_empty(), "bars must overlap");
        assert!(base.iter().all(|&(_, a)| a > 0.0));
        assert!(base_cost.tests.overlap_tests > 0);
        for (batch, shards) in [(4, 1), (1, 2), (4, 3)] {
            let (rows, cost) = run(batch, shards);
            assert_eq!(rows.len(), base.len(), "b{batch} s{shards}");
            for ((c, a), (bc, ba)) in rows.iter().zip(&base) {
                assert_eq!(c, bc);
                assert_eq!(a.to_bits(), ba.to_bits(), "area drifted at {c:?}");
            }
            assert_eq!(cost.tests.overlap_tests, base_cost.tests.overlap_tests);
            assert_eq!(cost.tests.hw, base_cost.tests.hw);
            assert_eq!(cost.candidates, base_cost.candidates);
            assert_eq!(cost.results, base_cost.results);
        }
    }

    /// One stage-2 code path: a measurement and a boolean test over the
    /// same candidates report identical stage-1 accounting — and a
    /// filter's `Confirm`, which settles a boolean, leaves an area to be
    /// measured all the same.
    #[test]
    fn measure_and_test_share_stage1_and_filter_chain() {
        struct ConfirmAll;
        impl CandidateFilter<(usize, usize)> for ConfirmAll {
            fn examine(&mut self, _: &(usize, usize)) -> Decision {
                Decision::Confirm
            }
        }
        let (left, right) = bars();
        let cands: Vec<(usize, usize)> = (0..6).flat_map(|i| (0..6).map(move |j| (i, j))).collect();
        let exec = StagedExecutor { batch: 1 };
        let measure = RefineOp::Measure { resolution: 32 };
        let mut backend = HwTester::with_device_and_policy(
            HwConfig::at_resolution(8),
            DeviceKind::Reference,
            2,
            RecoveryPolicy::default(),
        );
        let (tested, tc) = kept(exec.run(
            &mut backend,
            INTERSECTS,
            stage1(cands.clone()),
            Vec::new(),
            |(i, j)| (&left[i], &right[j]),
        ));
        let (measured, mc) = exec.run::<_, f64, _>(
            &mut backend,
            measure,
            stage1(cands.clone()),
            Vec::new(),
            |(i, j)| (&left[i], &right[j]),
        );
        assert_eq!(tc.candidates, mc.candidates);
        assert!(!measured.is_empty());
        assert!(
            measured.iter().all(|(c, _)| tested.contains(c)),
            "positive overlap implies intersection"
        );

        let (confirmed, cc) = exec.run::<_, f64, _>(
            &mut backend,
            measure,
            stage1(cands.clone()),
            vec![Box::new(ConfirmAll)],
            |(i, j)| (&left[i], &right[j]),
        );
        assert_eq!(confirmed, measured, "a confirmed pair is still measured");
        assert_eq!(cc.filter_hits, 0, "no refinement was skipped");
        assert_eq!(cc.tests.overlap_tests, mc.tests.overlap_tests);
    }

    #[test]
    fn batching_reduces_submission_rounds() {
        let (left, right) = bars();
        let cands: Vec<(usize, usize)> = (0..6).flat_map(|i| (0..6).map(move |j| (i, j))).collect();
        let run = |batch: usize| {
            let exec = StagedExecutor { batch };
            let mut backend = HwTester::new(HwConfig::at_resolution(8));
            kept(exec.run(
                &mut backend,
                INTERSECTS,
                stage1(cands.clone()),
                Vec::new(),
                |(i, j)| (&left[i], &right[j]),
            ))
        };
        let (r1, c1) = run(1);
        let (r2, c2) = run(64);
        assert_eq!(r1, r2);
        assert!(c2.tests.hw_tests > 0, "workload must exercise the hardware");
        assert!(
            c2.tests.hw.submissions() < c1.tests.hw.submissions(),
            "batched {} !< per-pair {}",
            c2.tests.hw.submissions(),
            c1.tests.hw.submissions()
        );
        assert_eq!(c1.tests.hw_batches, 0);
        assert!(c2.tests.hw_batches > 0);
    }
}
