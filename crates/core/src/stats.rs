//! Per-stage cost accounting — the data behind every figure in §4.

use spatial_raster::HwStats;
use std::time::Duration;

/// Counters for one batch of geometry tests (selection or join refinement).
#[derive(Debug, Clone, Copy, Default)]
pub struct TestStats {
    /// Pairs decided by the software point-in-polygon step.
    pub decided_by_pip: usize,
    /// Pairs rejected by the hardware filter (the savings).
    pub rejected_by_hw: usize,
    /// Pairs that fell through to the software segment/distance test.
    pub software_tests: usize,
    /// Pairs that skipped hardware because of `sw_threshold`.
    pub skipped_by_threshold: usize,
    /// Distance tests that reverted to software because the required line
    /// width exceeded the hardware limit (§4.4).
    pub width_limit_fallbacks: usize,
    /// Hardware tests actually executed.
    pub hw_tests: usize,
    /// Area-of-overlap aggregations answered (hardware count or fallback
    /// replay — the two produce the identical quantized area, so this
    /// counts queries, not where they ran).
    pub overlap_tests: usize,
    /// Batched submission rounds: each groups many hardware tests behind
    /// one pair of draw calls and one Minmax scan (0 on the per-pair path).
    pub hw_batches: usize,
    /// Pairs answered by the exact software path *because the device
    /// faulted* after retries were exhausted — the last rung of the
    /// degradation ladder. Disjoint from `software_tests` (deliberate
    /// routing) and `width_limit_fallbacks` (capability limits): under a
    /// fault plan, `hw_tests + fallback_tests` equals the clean run's
    /// `hw_tests`.
    pub fallback_tests: usize,
    /// Device submissions that returned an error or failed post-execution
    /// validation (each retry of the same submission counts again).
    pub device_faults: usize,
    /// Faulted submissions that were retried against the device.
    pub retries: usize,
    /// Times the circuit breaker tripped: a submission was refused without
    /// touching the device because *every* shard sat behind an open,
    /// unripe breaker.
    pub quarantined: usize,
    /// Submissions aimed at a shard whose breaker was open and executed on
    /// another shard instead (the stable rehash over healthy shards —
    /// DESIGN.md §13 tier 1). Failover moves work, never results: the
    /// invariant-14 ledger `hw_tests + fallback_tests == clean hw_tests`
    /// balances whichever shard serves.
    pub shard_failovers: usize,
    /// Per-shard breaker openings (each shard counted once per opening; a
    /// failed probe re-arms the same opening without recounting it).
    pub shard_quarantined: usize,
    /// Half-open probe submissions let through to a shard whose charged
    /// probation cool-down had elapsed on the modeled clock.
    pub probes: usize,
    /// Probes that succeeded and closed their shard's breaker again.
    pub probe_reinstates: usize,
    /// Modeled recovery cost (retry backoff), in nanoseconds. Charged by
    /// the supervisor instead of sleeping, and added to the reported
    /// geometry time the same way `gpu_modeled` is.
    pub recovery_ns: u64,
    /// Never incremented since the recording cache and the fusion pass
    /// were removed; the three names stay until the `benchmark/` ledger
    /// refresh stops reading them (ROADMAP, ledger-refresh item (a)).
    pub cache_hits: usize,
    pub cache_misses: usize,
    pub commands_elided: usize,
    /// Simulated-hardware work counters.
    pub hw: HwStats,
    /// GPU time from the calibrated cost model (what a real board would
    /// have spent on the counted work) — see `spatial_raster::cost_model`.
    pub gpu_modeled: Duration,
    /// Wall-clock the *simulation* spent producing that work. Excluded
    /// from reported geometry time and replaced by `gpu_modeled`: timing a
    /// CPU pretending to be a GPU would misstate the paper's comparison.
    pub sim_wall: Duration,
}

impl TestStats {
    pub fn add(&mut self, o: &TestStats) {
        self.decided_by_pip += o.decided_by_pip;
        self.rejected_by_hw += o.rejected_by_hw;
        self.software_tests += o.software_tests;
        self.skipped_by_threshold += o.skipped_by_threshold;
        self.width_limit_fallbacks += o.width_limit_fallbacks;
        self.hw_tests += o.hw_tests;
        self.overlap_tests += o.overlap_tests;
        self.hw_batches += o.hw_batches;
        self.fallback_tests += o.fallback_tests;
        self.device_faults += o.device_faults;
        self.retries += o.retries;
        self.quarantined += o.quarantined;
        self.shard_failovers += o.shard_failovers;
        self.shard_quarantined += o.shard_quarantined;
        self.probes += o.probes;
        self.probe_reinstates += o.probe_reinstates;
        self.recovery_ns += o.recovery_ns;
        self.hw.add(&o.hw);
        self.gpu_modeled += o.gpu_modeled;
        self.sim_wall += o.sim_wall;
    }
}

/// Wall-clock and cardinality breakdown of one query, by pipeline stage
/// (Fig. 8): MBR filtering → intermediate filtering → geometry comparison.
///
/// `geometry_comparison` is the *reported* cost: measured CPU time of the
/// refinement stage with the rasterizer-simulation seconds swapped out for
/// the cost-model GPU time (`tests.sim_wall` → `tests.gpu_modeled`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CostBreakdown {
    pub mbr_filter: Duration,
    pub intermediate_filter: Duration,
    pub geometry_comparison: Duration,
    /// Candidates surviving the MBR filter.
    pub candidates: usize,
    /// Positives confirmed by the intermediate filter (skip refinement).
    pub filter_hits: usize,
    /// Final result count.
    pub results: usize,
    /// Child-slot MBR tests evaluated by the filter stage's node kernels.
    /// Deterministic: kernels evaluate all real lanes of a node (no
    /// short-circuiting), so the count is a pure function of the trees and
    /// the query — independent of `filter_simd` / `filter_threads`.
    pub node_tests: usize,
    /// The subset of `node_tests` routed through the vectorized kernel
    /// instantiation. Diagnostic (varies with `filter_simd`).
    pub simd_node_tests: usize,
    /// Page-pair work units the join scheduler dispensed (0 for
    /// selections). Diagnostic: varies with `filter_threads` and the unit
    /// size, never changes the candidate sequence.
    pub filter_work_units: usize,
    /// Spatial partitions that held at least one candidate (0 when the
    /// query produced none, 1 on the unpartitioned path). Diagnostic:
    /// varies with `PartitionConfig.grid`, never changes results or the
    /// deterministic counters (DESIGN.md invariant 12).
    pub partitions_used: usize,
    /// Refinement-stage counters.
    pub tests: TestStats,
}

impl CostBreakdown {
    /// Total wall-clock across stages.
    pub fn total(&self) -> Duration {
        self.mbr_filter + self.intermediate_filter + self.geometry_comparison
    }

    pub fn add(&mut self, o: &CostBreakdown) {
        self.mbr_filter += o.mbr_filter;
        self.intermediate_filter += o.intermediate_filter;
        self.geometry_comparison += o.geometry_comparison;
        self.candidates += o.candidates;
        self.filter_hits += o.filter_hits;
        self.results += o.results;
        self.node_tests += o.node_tests;
        self.simd_node_tests += o.simd_node_tests;
        self.filter_work_units += o.filter_work_units;
        self.partitions_used += o.partitions_used;
        self.tests.add(&o.tests);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_accumulation() {
        let mut a = CostBreakdown {
            mbr_filter: Duration::from_millis(1),
            intermediate_filter: Duration::from_millis(2),
            geometry_comparison: Duration::from_millis(3),
            candidates: 10,
            filter_hits: 2,
            results: 5,
            node_tests: 40,
            simd_node_tests: 30,
            filter_work_units: 3,
            partitions_used: 4,
            tests: TestStats::default(),
        };
        assert_eq!(a.total(), Duration::from_millis(6));
        let b = a;
        a.add(&b);
        assert_eq!(a.candidates, 20);
        assert_eq!(a.node_tests, 80);
        assert_eq!(a.simd_node_tests, 60);
        assert_eq!(a.filter_work_units, 6);
        assert_eq!(a.partitions_used, 8);
        assert_eq!(a.total(), Duration::from_millis(12));
    }

    #[test]
    fn test_stats_accumulate() {
        let mut t = TestStats::default();
        let other = TestStats {
            decided_by_pip: 1,
            rejected_by_hw: 2,
            software_tests: 3,
            skipped_by_threshold: 4,
            width_limit_fallbacks: 5,
            hw_tests: 6,
            overlap_tests: 5,
            hw_batches: 1,
            fallback_tests: 2,
            device_faults: 3,
            retries: 2,
            quarantined: 1,
            shard_failovers: 4,
            shard_quarantined: 2,
            probes: 3,
            probe_reinstates: 1,
            recovery_ns: 100,
            cache_hits: 0,
            cache_misses: 0,
            commands_elided: 0,
            hw: HwStats::default(),
            gpu_modeled: Duration::from_micros(2),
            sim_wall: Duration::from_micros(7),
        };
        t.add(&other);
        t.add(&other);
        assert_eq!(t.rejected_by_hw, 4);
        assert_eq!(t.hw_tests, 12);
        assert_eq!(t.overlap_tests, 10);
        assert_eq!(t.fallback_tests, 4);
        assert_eq!(t.device_faults, 6);
        assert_eq!(t.retries, 4);
        assert_eq!(t.quarantined, 2);
        assert_eq!(t.shard_failovers, 8);
        assert_eq!(t.shard_quarantined, 4);
        assert_eq!(t.probes, 6);
        assert_eq!(t.probe_reinstates, 2);
        assert_eq!(t.recovery_ns, 200);
        assert_eq!(t.gpu_modeled, Duration::from_micros(4));
        assert_eq!(t.sim_wall, Duration::from_micros(14));
    }
}
