//! Pluggable refinement backends: who decides the candidates the filters
//! could not.
//!
//! Both backends answer the same [`Predicate`] exactly — the paper's
//! exactness invariant — and differ only in *how*: which pairs touch the
//! simulated hardware and what that costs. `fork` hands each parallel
//! refinement worker an independent instance (its own rendering context),
//! so workers never contend and per-worker counters merge deterministically.

use super::Predicate;
use crate::hw_intersect::HwTester;
use crate::stats::TestStats;
use spatial_geom::intersect::{polygons_intersect_with, IntersectStats};
use spatial_geom::mindist::within_distance_with;
use spatial_geom::{MinDistStats, Polygon};

/// A refinement strategy: decides single pairs and (optionally) batches.
///
/// Implementations must be deterministic: the booleans and every counter
/// they record may depend only on the arguments, never on call order or
/// shared mutable state — that is what makes `threads = N` refinement
/// bit-identical to sequential.
pub trait RefinementBackend: Send + std::fmt::Debug {
    /// Decides one candidate pair.
    fn test(&mut self, pred: Predicate, p: &Polygon, q: &Polygon, stats: &mut TestStats) -> bool;

    /// Decides a group of candidate pairs in one submission round where
    /// the backend supports it. The default is the per-pair loop; the
    /// hardware tester overrides it with atlas-batched rendering.
    fn test_batch(
        &mut self,
        pred: Predicate,
        pairs: &[(&Polygon, &Polygon)],
        stats: &mut TestStats,
    ) -> Vec<bool> {
        pairs
            .iter()
            .map(|&(p, q)| self.test(pred, p, q, stats))
            .collect()
    }

    /// Measures the area of `P ∩ Q`, quantized to a `resolution ×
    /// resolution` grid over the pair's shared MBR (the aggregation
    /// contract of `HwTester::overlap_area`, DESIGN.md §14). Every
    /// backend answers the *identical* quantized area — the software
    /// default replays the recorded tape on a reference executor — so
    /// routing (planner choice, fault fallback, brownout) never changes
    /// a reported area.
    fn measure_overlap(
        &mut self,
        p: &Polygon,
        q: &Polygon,
        resolution: usize,
        stats: &mut TestStats,
    ) -> f64 {
        if crate::hw_overlap::overlap_region(p, q).is_some() {
            stats.software_tests += 1;
            stats.overlap_tests += 1;
        }
        crate::hw_overlap::sw_overlap_area(p, q, resolution)
    }

    /// Aims subsequent tests at device shard `shard` (the backend reduces
    /// it modulo its shard count). The partitioned executor calls this once
    /// per partition, with the partition index, before refining it;
    /// backends without a device have nothing to aim, so the default is a
    /// no-op. Implementations must carry the selected shard across
    /// [`RefinementBackend::fork`], so parallel refinement workers keep
    /// serving the partition that spawned them.
    fn select_shard(&mut self, _shard: usize) {}

    /// An independent backend with the same configuration, for a parallel
    /// refinement worker.
    fn fork(&self) -> Box<dyn RefinementBackend>;
}

/// Pure software refinement: the paper's baseline curves. A boundary
/// crossing search over the restricted search space for intersection and
/// containment, the modified `minDist` for distance.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftwareBackend;

impl RefinementBackend for SoftwareBackend {
    fn test(&mut self, pred: Predicate, p: &Polygon, q: &Polygon, stats: &mut TestStats) -> bool {
        stats.software_tests += 1;
        match pred {
            Predicate::Intersects => {
                let mut st = IntersectStats::default();
                let r = polygons_intersect_with(p, q, &mut st);
                stats.decided_by_pip += st.decided_by_pip;
                r
            }
            Predicate::ContainedIn => spatial_geom::polygon_contained_in(p, q),
            Predicate::WithinDistance(d) => {
                let mut st = MinDistStats::default();
                within_distance_with(p, q, d, &mut st)
            }
        }
    }

    fn fork(&self) -> Box<dyn RefinementBackend> {
        Box::new(SoftwareBackend)
    }
}

/// Hardware-assisted refinement: Algorithm 3.1 and the §3.1 distance test,
/// honoring the `sw_threshold` of the tester's `HwConfig` (§4.3 treats the
/// threshold as part of the algorithm): `0` is pure hardware routing,
/// `usize::MAX` degenerates to all-software testing (with the hardware
/// path's prologue), anything between splits pairs by combined vertex
/// count. The tester owns the rendering context.
impl RefinementBackend for HwTester {
    fn test(&mut self, pred: Predicate, p: &Polygon, q: &Polygon, stats: &mut TestStats) -> bool {
        HwTester::test(self, pred, p, q, stats)
    }

    fn test_batch(
        &mut self,
        pred: Predicate,
        pairs: &[(&Polygon, &Polygon)],
        stats: &mut TestStats,
    ) -> Vec<bool> {
        HwTester::test_batch(self, pred, pairs, stats)
    }

    fn measure_overlap(
        &mut self,
        p: &Polygon,
        q: &Polygon,
        resolution: usize,
        stats: &mut TestStats,
    ) -> f64 {
        self.overlap_area(p, q, resolution, stats)
    }

    fn select_shard(&mut self, shard: usize) {
        HwTester::select_shard(self, shard);
    }

    fn fork(&self) -> Box<dyn RefinementBackend> {
        Box::new(HwTester::fork(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HwConfig;
    use spatial_geom::{min_dist_brute, polygons_intersect_brute};

    fn square(x: f64, y: f64, s: f64) -> Polygon {
        Polygon::from_coords(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
    }

    fn backends() -> Vec<Box<dyn RefinementBackend>> {
        vec![
            Box::new(SoftwareBackend),
            Box::new(HwTester::new(HwConfig::at_resolution(8))),
            Box::new(HwTester::new(HwConfig::at_resolution(8).with_threshold(6))),
            Box::new(HwTester::new(
                HwConfig::at_resolution(8).with_threshold(usize::MAX),
            )),
        ]
    }

    #[test]
    fn all_backends_agree_on_all_predicates() {
        let cases = [
            (square(0.0, 0.0, 2.0), square(1.0, 1.0, 2.0)),
            (square(0.0, 0.0, 1.0), square(5.0, 5.0, 1.0)),
            (square(0.0, 0.0, 10.0), square(4.0, 4.0, 1.0)),
            (square(0.0, 0.0, 2.0), square(2.5, 0.0, 2.0)),
        ];
        for b in backends().iter_mut() {
            for (p, q) in &cases {
                let mut st = TestStats::default();
                assert_eq!(
                    b.test(Predicate::Intersects, p, q, &mut st),
                    polygons_intersect_brute(p, q),
                    "{b:?}"
                );
                assert_eq!(
                    b.test(Predicate::ContainedIn, p, q, &mut st),
                    spatial_geom::polygon_contained_in(p, q),
                    "{b:?}"
                );
                for d in [0.2, 1.0, 3.0] {
                    assert_eq!(
                        b.test(Predicate::WithinDistance(d), p, q, &mut st),
                        min_dist_brute(p, q) <= d,
                        "{b:?} d={d}"
                    );
                }
            }
        }
    }

    #[test]
    fn all_backends_measure_identical_overlap_areas() {
        let cases = [
            (square(0.0, 0.0, 2.0), square(1.0, 1.0, 2.0)),
            (square(0.0, 0.0, 10.0), square(4.0, 4.0, 1.0)), // containment
            (square(0.0, 0.0, 1.0), square(5.0, 5.0, 1.0)),  // disjoint
            (square(0.0, 0.0, 2.0), square(2.0, 0.0, 2.0)),  // edge contact
        ];
        for (p, q) in &cases {
            for res in [1usize, 16, 64] {
                let areas: Vec<u64> = backends()
                    .iter_mut()
                    .map(|b| {
                        b.measure_overlap(p, q, res, &mut TestStats::default())
                            .to_bits()
                    })
                    .collect();
                assert!(
                    areas.windows(2).all(|w| w[0] == w[1]),
                    "res {res}: {areas:?}"
                );
            }
        }
        // The measurement counter is routing-independent.
        let (p, q) = &cases[0];
        for b in backends().iter_mut() {
            let mut st = TestStats::default();
            b.measure_overlap(p, q, 16, &mut st);
            assert_eq!(st.overlap_tests, 1, "{b:?}");
        }
    }

    #[test]
    fn batch_equals_per_pair_for_every_backend() {
        let polys: Vec<Polygon> = (0..6)
            .map(|i| square(i as f64 * 1.3, (i % 3) as f64, 2.0))
            .collect();
        let pairs: Vec<(&Polygon, &Polygon)> = (0..polys.len())
            .flat_map(|i| (0..polys.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j)
            .map(|(i, j)| (&polys[i], &polys[j]))
            .collect();
        for pred in [
            Predicate::Intersects,
            Predicate::ContainedIn,
            Predicate::WithinDistance(0.9),
        ] {
            for b in backends().iter_mut() {
                let mut st1 = TestStats::default();
                let per_pair: Vec<bool> = pairs
                    .iter()
                    .map(|&(p, q)| b.test(pred, p, q, &mut st1))
                    .collect();
                let mut st2 = TestStats::default();
                let batched = b.test_batch(pred, &pairs, &mut st2);
                assert_eq!(per_pair, batched, "{b:?} {pred:?}");
                // Routing counters are identical; only submission counters
                // may differ between the two paths.
                assert_eq!(st1.decided_by_pip, st2.decided_by_pip);
                assert_eq!(st1.rejected_by_hw, st2.rejected_by_hw);
                assert_eq!(st1.software_tests, st2.software_tests);
                assert_eq!(st1.hw_tests, st2.hw_tests);
            }
        }
    }

    #[test]
    fn forked_backend_behaves_identically() {
        let polys: Vec<Polygon> = (0..4).map(|i| square(i as f64, 0.0, 1.4)).collect();
        let pairs: Vec<(&Polygon, &Polygon)> =
            (1..polys.len()).map(|i| (&polys[0], &polys[i])).collect();
        let mut orig: Box<dyn RefinementBackend> =
            Box::new(HwTester::new(HwConfig::at_resolution(8)));
        let mut forked = orig.fork();
        let mut s1 = TestStats::default();
        let mut s2 = TestStats::default();
        let r1 = orig.test_batch(Predicate::Intersects, &pairs, &mut s1);
        let r2 = forked.test_batch(Predicate::Intersects, &pairs, &mut s2);
        assert_eq!(r1, r2);
        assert_eq!(s1.hw.draw_calls, s2.hw.draw_calls);
        assert_eq!(s1.hw.fragments_tested, s2.hw.fragments_tested);
    }

    /// A tester's history never changes what it answers or what hardware
    /// work it charges: the same batch through a reused tester and
    /// through fresh testers is identical.
    #[test]
    fn a_reused_tester_answers_and_charges_like_a_fresh_one() {
        // Diagonal slabs: overlapping MBRs, no contained vertices — every
        // pair survives the software prologue and reaches the hardware.
        let polys: Vec<Polygon> = (0..5)
            .map(|i| {
                let x = i as f64 * 2.5;
                Polygon::from_coords(&[(x, 0.0), (x + 2.0, 0.0), (x + 10.0, 8.0), (x + 8.0, 8.0)])
            })
            .collect();
        let pairs: Vec<(&Polygon, &Polygon)> =
            (1..polys.len()).map(|i| (&polys[0], &polys[i])).collect();
        let cfg = HwConfig::at_resolution(8);
        for pred in [
            Predicate::Intersects,
            Predicate::ContainedIn,
            Predicate::WithinDistance(1.5),
        ] {
            let mut reused = HwTester::new(cfg);
            let (mut s1, mut s2) = (TestStats::default(), TestStats::default());
            let _ = reused.test_batch(pred, &pairs, &mut s1);
            let _ = HwTester::new(cfg).test_batch(pred, &pairs, &mut s2);
            let r1 = reused.test_batch(pred, &pairs, &mut s1);
            let r2 = HwTester::new(cfg).test_batch(pred, &pairs, &mut s2);
            assert_eq!(r1, r2);
            assert_eq!(s1.hw_tests, s2.hw_tests);
            assert_eq!(s1.rejected_by_hw, s2.rejected_by_hw);
            assert_eq!(s1.software_tests, s2.software_tests);
            assert_eq!(s1.hw_batches, s2.hw_batches);
            assert_eq!(s1.hw, s2.hw, "charged hardware work must be identical");
            assert_eq!(s1.gpu_modeled, s2.gpu_modeled);
        }
    }

    /// Regression: forks used to start with a fresh (un-quarantined)
    /// supervisor, so every parallel refinement worker re-paid the full
    /// retry/backoff ladder for a shard the parent had already proved
    /// dead. A fork must adopt the parent's per-shard verdicts and fail
    /// over immediately.
    #[test]
    fn fork_inherits_the_parents_shard_verdicts() {
        use crate::pipeline::RecoveryPolicy;
        use spatial_raster::{DeviceKind, FaultKind, FaultPlan, FaultTrigger};
        // Diagonal slabs: overlapping MBRs, no contained vertices — the
        // pair survives the software prologue and reaches the hardware.
        let p = Polygon::from_coords(&[(0.0, 0.0), (2.0, 0.0), (10.0, 8.0), (8.0, 8.0)]);
        let q = Polygon::from_coords(&[(2.5, 0.0), (4.5, 0.0), (12.5, 8.0), (10.5, 8.0)]);
        let plan = FaultPlan::new(9, FaultKind::Timeout, FaultTrigger::EveryK(1)).on_shard(0);
        let policy = RecoveryPolicy {
            max_retries: 0,
            backoff_ns: 10,
            quarantine_after: 1,
            probation_ns: None,
        };
        let mut parent = HwTester::with_device_and_policy(
            HwConfig::at_resolution(8),
            DeviceKind::Reference.with_faults(plan),
            2,
            policy,
        );
        let mut st = TestStats::default();
        let verdict = parent.test(Predicate::Intersects, &p, &q, &mut st);
        assert!(st.fallback_tests > 0, "shard 0's submission faults: {st:?}");
        assert_eq!(st.shard_quarantined, 1);
        // The fork adopts the open breaker: immediate failover to shard 1,
        // no ladder re-paid, same answer and hardware work as a clean run.
        let mut forked = RefinementBackend::fork(&parent);
        let mut fst = TestStats::default();
        assert_eq!(
            forked.test(Predicate::Intersects, &p, &q, &mut fst),
            verdict
        );
        assert_eq!(fst.device_faults, 0, "fork re-paid the ladder: {fst:?}");
        assert_eq!(fst.fallback_tests, 0);
        assert_eq!(fst.shard_failovers, 1);
        let mut clean = HwTester::new(HwConfig::at_resolution(8));
        let mut cst = TestStats::default();
        assert_eq!(clean.test(Predicate::Intersects, &p, &q, &mut cst), verdict);
        assert_eq!(
            fst.hw_tests, cst.hw_tests,
            "invariant 14: failover moved the work"
        );
    }

    #[test]
    fn threshold_routes_pairs() {
        // A crossing pair whose first vertices are outside each other, so
        // the test reaches the threshold branch.
        let horiz = Polygon::from_coords(&[(0.0, 2.0), (6.0, 2.0), (6.0, 4.0), (0.0, 4.0)]);
        let vert = Polygon::from_coords(&[(2.0, 0.0), (4.0, 0.0), (4.0, 6.0), (2.0, 6.0)]);
        let mut all_sw = HwTester::new(HwConfig::at_resolution(8).with_threshold(usize::MAX));
        let mut st = TestStats::default();
        assert!(all_sw.test(Predicate::Intersects, &horiz, &vert, &mut st));
        assert_eq!(st.hw_tests, 0);
        assert_eq!(st.skipped_by_threshold, 1);
        let mut all_hw = HwTester::new(HwConfig::at_resolution(8).with_threshold(0));
        let mut st = TestStats::default();
        assert!(all_hw.test(Predicate::Intersects, &horiz, &vert, &mut st));
        assert_eq!(st.hw_tests, 1);
    }
}
