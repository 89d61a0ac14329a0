//! What the benchmark measures: the four workloads and every metric by
//! name, unit, direction and bound. `BENCHMARK.json` at the repository
//! root states the same tables for the driver; a unit test keeps the two
//! in step.

/// Default for `--seconds`; equals `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    SelectWarm,
    SelectSmall,
    JoinHw,
    JoinSw,
}

pub struct WorkloadSpec {
    pub id: WorkloadId,
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        id: WorkloadId::SelectWarm,
        name: "select-warm",
        why: "248 repeated complex-window selections on one QueryEngine: plan memo warm, refinement (simulated rasterization) is the op; planner-pricing changes must not show here",
    },
    WorkloadSpec {
        id: WorkloadId::SelectSmall,
        name: "select-small",
        why: "3000 never-repeating small windows over 33860 polygons, fresh engine per round plus reloads: memo-cold, so planning (replay_cost), engine construction and the big R-tree are the op",
    },
    WorkloadSpec {
        id: WorkloadId::JoinHw,
        name: "join-hw",
        why: "112 hardware-refined joins (intersection x resolution x batch, within-distance x D, overlap-area x resolution): record, device execute and readback dominate; join-sw is its bypass",
    },
    WorkloadSpec {
        id: WorkloadId::JoinSw,
        name: "join-sw",
        why: "108 pure-software joins (plane sweep, minDist, object filters): no raster or planner work, so it must hold still under every raster/planner change",
    },
];

impl WorkloadId {
    pub fn spec(self) -> &'static WorkloadSpec {
        WORKLOADS
            .iter()
            .find(|w| w.id == self)
            .expect("every id has a spec")
    }

    pub fn name(self) -> &'static str {
        self.spec().name
    }

    pub fn from_name(name: &str) -> Option<WorkloadId> {
        WORKLOADS.iter().find(|w| w.name == name).map(|w| w.id)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub fn worsening(self, a: f64, b: f64) -> f64 {
        if a == 0.0 {
            return if b == 0.0 { 0.0 } else { f64::INFINITY };
        }
        match self {
            Better::Lower => (b - a) / a.abs(),
            Better::Higher => (a - b) / a.abs(),
        }
    }
}

/// Where a metric's value comes from, which decides when it is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Timings of the untraced rounds (vary run to run).
    Timed,
    /// Counts from the first timed round's ledgers: a pure function of
    /// the seed, bit-identical run to run.
    Exact,
    /// Self times of the traced round's spans (only with `--trace 1`).
    Trace,
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end only).
    pub bound: Option<f64>,
    pub source: Source,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        source: Source::Timed,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
        source,
        what,
    }
}

use Better::{Higher, Lower};
use Source::{Exact, Timed, Trace};

pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25, "median over the run's 3 set-up cycles of PreparedDataset::new for every dataset + engine construction + one cold round of every op (no datagen, no reference answers)"),
    e2e("wall_ms_p50", "ms", Lower, 0.25, "median over distinct ops of the min-over-rounds wall latency of the call: the honest clock, simulation included"),
    e2e("wall_ms_p90", "ms", Lower, 0.25, "90th percentile over distinct ops of the same: the heavy queries"),
    e2e("ops_per_s", "1/s", Higher, 0.25, "ops per round / sum of min-over-rounds latencies"),
    e2e("paper_ms_per_op", "ms", Lower, 0.25, "mean over ops of min-over-rounds CostBreakdown::total(): the paper's clock (host CPU - sim_wall + modeled GPU + recovery)"),
    e2e("peak_rss_mb", "MB", Lower, 0.15, "VmHWM of the workload's process at exit"),
];

pub const PER_LAYER: &[MetricSpec] = &[
    layer("harness.ops", "count", Higher, Exact, "distinct ops per round (the sample behind every percentile)"),
    layer("harness.rounds", "count", Higher, Timed, "rounds that fit in --seconds, cold ones included (each op's latency is the min over them)"),
    layer("failed_share", "ratio", Lower, Exact, "(ops returning Err + ops whose rows differ from the reference or between rounds) / attempted"),
    layer("gpu_modeled_ms_per_op", "ms", Lower, Exact, "sum of tests.gpu_modeled / ops: the modeled 2003-GPU clock, a pure function of HwStats (0 on join-sw)"),
    layer("datagen.generate_s", "s", Lower, Timed, "generating the seeded datasets and the op sequence (never part of setup_s)"),
    layer("index.bulk_load_ms", "ms", Lower, Timed, "PreparedDataset::new over every dataset (R-tree bulk load), median over the set-up cycles"),
    layer("index.node_tests_per_op", "count", Lower, Exact, "cost.node_tests / ops"),
    layer("index.candidates_per_op", "count", Lower, Exact, "cost.candidates / ops"),
    layer("index.stage1_ms_per_op", "ms", Lower, Timed, "cost.mbr_filter / op"),
    layer("index.search_us_per_call", "us", Lower, Trace, "self time of the re-invoked stage-1 search or tree join, per call"),
    layer("filters.stage2_ms_per_op", "ms", Lower, Timed, "cost.intermediate_filter / op"),
    layer("filters.hit_ratio", "ratio", Higher, Exact, "filter_hits / candidates"),
    layer("filters.interior_build_us", "us", Lower, Trace, "InteriorFilter::build (level 4) on the op's query, per build"),
    layer("geom.software_tests_per_op", "count", Lower, Exact, "tests.software_tests / ops"),
    layer("geom.pip_decided_per_op", "count", Higher, Exact, "tests.decided_by_pip / ops"),
    layer("geom.sweep_us_per_pair", "us", Lower, Trace, "polygons_intersect / polygon_contained_in on sampled candidate pairs"),
    layer("geom.mindist_us_per_pair", "us", Lower, Trace, "within_distance on sampled candidate pairs"),
    layer("raster.sim_wall_ms_per_op", "ms", Lower, Timed, "tests.sim_wall / op: host time spent simulating the device (record + execute + readback)"),
    layer("raster.draw_calls_per_op", "count", Lower, Exact, "hw.draw_calls / ops"),
    layer("raster.fragments_per_op", "count", Lower, Exact, "hw.fragments_tested / ops"),
    layer("raster.pixels_written_per_op", "count", Lower, Exact, "hw.pixels_written / ops"),
    layer("raster.pixels_scanned_per_op", "count", Lower, Exact, "hw.pixels_scanned / ops"),
    layer("raster.minmax_per_op", "count", Lower, Exact, "hw.minmax_queries / ops"),
    layer("raster.submissions_per_op", "count", Lower, Exact, "hw.submissions() / ops"),
    layer("raster.ns_per_fragment", "ns", Lower, Timed, "sim_wall / fragments_tested: host time per simulated event"),
    layer("raster.execute_us_per_list", "us", Lower, Trace, "DeviceKind::default().build().execute on the sampled pairs' recorded lists"),
    layer("raster.replay_cost_us_per_list", "us", Lower, Trace, "HwCostModel::replay_cost on the same lists (what a planner miss pays)"),
    layer("testers.hw_tests_per_op", "count", Lower, Exact, "tests.hw_tests / ops"),
    layer("testers.hw_reject_ratio", "ratio", Higher, Exact, "rejected_by_hw / hw_tests: the useful outcomes of the hardware filter"),
    layer("testers.hw_batches_per_op", "count", Lower, Exact, "tests.hw_batches / ops"),
    layer("testers.width_fallbacks_per_op", "count", Lower, Exact, "tests.width_limit_fallbacks / ops"),
    layer("testers.cache_hit_ratio", "ratio", Higher, Exact, "recording cache hits / (hits + misses)"),
    layer("testers.commands_elided_per_op", "count", Higher, Exact, "tests.commands_elided / ops"),
    layer("testers.record_us_per_list", "us", Lower, Trace, "HwTester::record_* / atlas::record_batch on the sampled pairs"),
    layer("pipeline.refine_wall_ms_per_op", "ms", Lower, Timed, "geometry_comparison + sim_wall - gpu_modeled: host time of stage 3"),
    layer("pipeline.self_ms_per_op", "ms", Lower, Timed, "pipeline call wall - stage 1 - stage 2 - refine: binning, merge, sort, engine construction"),
    layer("pipeline.fallback_tests_per_op", "count", Lower, Exact, "tests.fallback_tests / ops"),
    layer("pipeline.device_faults_per_op", "count", Lower, Exact, "tests.device_faults / ops"),
    layer("pipeline.paper_speedup", "ratio", Higher, Timed, "join-hw only: software-reference paper ms / hardware paper ms over the ij+dj ops (the paper's 4.8x/5.9x headline)"),
    layer("engine.ij_ms", "ms", Lower, Timed, "median min-over-rounds wall of the intersection joins"),
    layer("engine.dj_ms", "ms", Lower, Timed, "median min-over-rounds wall of the within-distance joins"),
    layer("engine.oa_ms", "ms", Lower, Timed, "median min-over-rounds wall of the overlap-area joins"),
    layer("service.probe_ms_per_op", "ms", Lower, Timed, "mean ServiceStats.latencies.filter"),
    layer("service.plan_ms_per_op", "ms", Lower, Timed, "mean ServiceStats.latencies.plan"),
    layer("service.refine_ms_per_op", "ms", Lower, Timed, "mean ServiceStats.latencies.refine"),
    layer("service.self_ms_per_op", "ms", Lower, Timed, "execute wall - probe - plan - refine: admission, snapshot pin, ledger locks"),
    layer("service.memo_hit_ratio", "ratio", Higher, Exact, "plan_cache_hits / (hits + misses)"),
    layer("service.planned_hw_share", "ratio", Higher, Exact, "planned_hw / (planned_hw + planned_sw)"),
    layer("service.refused_per_op", "count", Lower, Exact, "(rejected + overload_sheds + deadline/budget aborts) / ops"),
    layer("service.p99_ms", "ms", Lower, Timed, "99th percentile over every timed execute call, all rounds pooled (the noisy moments; ungated)"),
    layer("service.reload_us", "us", Lower, Timed, "mean QueryEngine::reload of an identical snapshot"),
    layer("trace.overhead_pct", "%", Lower, Trace, "median call of the traced round vs median call of the warm rounds (single samples both): what recording spans and replaying layers between calls costs the calls"),
];

#[cfg(test)]
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` is what the driver reads; this file is what the
    /// binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );

        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (entry, w) in doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&WORKLOADS)
        {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why));
        }
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            assert_eq!(
                names(key),
                table.iter().map(|m| m.name).collect::<Vec<_>>(),
                "{key}"
            );
            for (entry, m) in doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .zip(table)
            {
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Lower.worsening(10.0, 9.0) < 0.0);
        assert_eq!(Lower.worsening(0.0, 0.0), 0.0);
    }
}
