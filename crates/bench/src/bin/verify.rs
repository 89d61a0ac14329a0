//! End-to-end verification harness (not a paper figure): runs every query
//! pipeline in software and hardware-assisted mode over the full generated
//! workload and asserts bit-identical result sets. Exits non-zero on any
//! disagreement. This is the "the hardware path is a pure optimization"
//! guarantee, checked at workload scale rather than per-pair.

use hwa_core::engine::{EngineConfig, GeometryTest, PartitionConfig, SpatialEngine};
use hwa_core::service::{
    BrownoutConfig, BrownoutRung, PlannerConfig, PlannerMode, QueryBudget, QueryEngine,
    QueryRequest, ServiceConfig, ServiceSnapshot,
};
use hwa_core::{
    overlap_cell_area, CostBreakdown, DeviceKind, FaultKind, FaultPlan, FaultTrigger, HwConfig,
    RecoveryPolicy,
};
use spatial_bench::{engine_with, header, software_engine, BenchOpts, Workloads};
use spatial_geom::overlap_area_exact;
use spatial_raster::OverlapStrategy;

/// Asserts a reference-device run and an alternate-device run (tiled,
/// SIMD, or both) of the same query agree on results and on every hardware
/// counter (the whole `HwStats` plus test/batch tallies and the modeled
/// GPU time derived from them).
fn check_device_pair<R: PartialEq>(
    label: &str,
    reference: (R, CostBreakdown),
    tiled: (R, CostBreakdown),
    failures: &mut usize,
) {
    if reference.0 != tiled.0 {
        println!("FAIL device cross-check {label}: results differ");
        *failures += 1;
    }
    let (r, t) = (&reference.1.tests, &tiled.1.tests);
    if r.hw != t.hw
        || r.hw_tests != t.hw_tests
        || r.hw_batches != t.hw_batches
        || r.width_limit_fallbacks != t.width_limit_fallbacks
        || r.gpu_modeled != t.gpu_modeled
    {
        println!(
            "FAIL device cross-check {label}: counters diverged\n  \
             reference: {:?} tests {} batches {} modeled {:?}\n  \
             tiled:     {:?} tests {} batches {} modeled {:?}",
            r.hw,
            r.hw_tests,
            r.hw_batches,
            r.gpu_modeled,
            t.hw,
            t.hw_tests,
            t.hw_batches,
            t.gpu_modeled
        );
        *failures += 1;
    }
}

/// Asserts two runs differing only in stage-1 filter knobs
/// (`filter_simd` / `filter_threads`) agree on results, on the candidate
/// stream the refinement stage saw, on the deterministic `node_tests`
/// counter, and on every refinement counter — the "filter configs are
/// pure optimizations" guarantee. Only the routing diagnostics
/// (`simd_node_tests`, `filter_work_units`) may differ.
fn check_filter_pair<R: PartialEq>(
    label: &str,
    reference: &(R, CostBreakdown),
    tuned: &(R, CostBreakdown),
    failures: &mut usize,
) {
    if reference.0 != tuned.0 {
        println!("FAIL filter cross-check {label}: results differ");
        *failures += 1;
    }
    let (r, t) = (&reference.1, &tuned.1);
    if r.candidates != t.candidates
        || r.filter_hits != t.filter_hits
        || r.results != t.results
        || r.node_tests != t.node_tests
    {
        println!(
            "FAIL filter cross-check {label}: stage-1 counters diverged\n  \
             reference: candidates {} hits {} results {} node_tests {}\n  \
             tuned:     candidates {} hits {} results {} node_tests {}",
            r.candidates,
            r.filter_hits,
            r.results,
            r.node_tests,
            t.candidates,
            t.filter_hits,
            t.results,
            t.node_tests
        );
        *failures += 1;
    }
    let (rt, tt) = (&r.tests, &t.tests);
    if rt.hw != tt.hw
        || rt.hw_tests != tt.hw_tests
        || rt.hw_batches != tt.hw_batches
        || rt.software_tests != tt.software_tests
        || rt.decided_by_pip != tt.decided_by_pip
        || rt.width_limit_fallbacks != tt.width_limit_fallbacks
        || rt.gpu_modeled != tt.gpu_modeled
    {
        println!("FAIL filter cross-check {label}: refinement counters diverged");
        *failures += 1;
    }
}

/// Widens a selection run to the join result shape so the fault sweep can
/// treat all four pipelines uniformly.
fn lift_selection(run: (Vec<usize>, CostBreakdown)) -> (Vec<(usize, usize)>, CostBreakdown) {
    (run.0.into_iter().map(|i| (i, 0)).collect(), run.1)
}

/// Asserts a fault-injected run agrees with the clean run on results and
/// on every counter the faults cannot legitimately change, and that the
/// test ledger accounts each stolen hardware test as a software fallback.
fn check_fault_pair(
    label: &str,
    clean: &(Vec<(usize, usize)>, CostBreakdown),
    faulty: &(Vec<(usize, usize)>, CostBreakdown),
    failures: &mut usize,
) {
    if clean.0 != faulty.0 {
        println!("FAIL fault sweep {label}: results differ");
        *failures += 1;
    }
    let (c, f) = (&clean.1, &faulty.1);
    if c.candidates != f.candidates || c.filter_hits != f.filter_hits || c.results != f.results {
        println!("FAIL fault sweep {label}: filter-stage counters diverged");
        *failures += 1;
    }
    let (ct, ft) = (&c.tests, &f.tests);
    if ct.decided_by_pip != ft.decided_by_pip
        || ct.skipped_by_threshold != ft.skipped_by_threshold
        || ct.width_limit_fallbacks != ft.width_limit_fallbacks
    {
        println!("FAIL fault sweep {label}: routing counters diverged");
        *failures += 1;
    }
    if ft.hw_tests + ft.fallback_tests != ct.hw_tests {
        println!(
            "FAIL fault sweep {label}: ledger leak — hw {} + fallback {} != clean hw {}",
            ft.hw_tests, ft.fallback_tests, ct.hw_tests
        );
        *failures += 1;
    }
    // Fallbacks come either from exhausted retries (device_faults) or
    // from the breaker refusing submissions (quarantined) — the breaker
    // outlives a query, so a run may see only refusals.
    if ft.fallback_tests > 0 && ft.device_faults == 0 && ft.quarantined == 0 {
        println!("FAIL fault sweep {label}: fallbacks charged without any fault");
        *failures += 1;
    }
}

/// Asserts two area-of-overlap row sets are bit-identical: same pairs in
/// the same order with the same quantized f64 area bits (DESIGN.md §14).
fn check_aggregate_rows(
    label: &str,
    reference: &[(usize, usize, f64)],
    got: &[(usize, usize, f64)],
    failures: &mut usize,
) {
    if reference.len() != got.len() {
        println!(
            "FAIL aggregate rows {label}: {} rows vs {} in reference",
            got.len(),
            reference.len()
        );
        *failures += 1;
        return;
    }
    for ((i, j, a), (ri, rj, ra)) in got.iter().zip(reference) {
        if (i, j) != (ri, rj) || a.to_bits() != ra.to_bits() {
            println!(
                "FAIL aggregate rows {label}: ({i}, {j}, {a}) vs reference ({ri}, {rj}, {ra})"
            );
            *failures += 1;
            return;
        }
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    header(
        "Verify",
        "software vs hardware result equality across all pipelines",
        opts,
    );
    let w = Workloads::generate(opts);
    let mut failures = 0usize;

    // Selections (intersection + containment) over both datasets.
    for ds in [&w.water, &w.prism] {
        let mut sw = software_engine();
        for (ri, res) in [1usize, 8, 32].iter().enumerate() {
            let mut hw = engine_with(
                GeometryTest::Hardware,
                HwConfig::at_resolution(*res).with_threshold(if ri == 1 { 500 } else { 0 }),
                Some(4),
                false,
            );
            for q in w.states50.polygons.iter().take(opts.queries.min(31)) {
                let (a, _) = sw.intersection_selection(ds, q);
                let (b, _) = hw.intersection_selection(ds, q);
                if a != b {
                    println!("FAIL intersection_selection {} res {res}", ds.name);
                    failures += 1;
                }
                let (a, _) = sw.containment_selection(ds, q);
                let (b, _) = hw.containment_selection(ds, q);
                if a != b {
                    println!("FAIL containment_selection {} res {res}", ds.name);
                    failures += 1;
                }
            }
        }
        println!("selections over {} verified", ds.name);
    }

    // Joins under every strategy at the recommended operating point.
    for (a, b) in [(&w.landc, &w.lando), (&w.water, &w.prism)] {
        let mut sw = software_engine();
        let (expected, _) = sw.intersection_join(a, b);
        for strategy in [
            OverlapStrategy::Accumulation,
            OverlapStrategy::Blending,
            OverlapStrategy::Stencil,
        ] {
            let mut hw = engine_with(
                GeometryTest::Hardware,
                HwConfig {
                    strategy,
                    ..HwConfig::recommended()
                },
                None,
                false,
            );
            let (got, _) = hw.intersection_join(a, b);
            if got != expected {
                println!(
                    "FAIL intersection_join {} ⋈ {} {strategy:?}",
                    a.name, b.name
                );
                failures += 1;
            }
        }
        println!(
            "intersection join {} ⋈ {} verified ({} results)",
            a.name,
            b.name,
            expected.len()
        );
    }

    // Within-distance joins across the distance sweep.
    for (a, b, base) in [
        (&w.landc, &w.lando, w.base_d_landc_lando),
        (&w.water, &w.prism, w.base_d_water_prism),
    ] {
        for f in [0.1, 1.0, 4.0] {
            let d = f * base;
            let mut sw = engine_with(GeometryTest::Software, HwConfig::recommended(), None, true);
            let (expected, _) = sw.within_distance_join(a, b, d);
            let mut hw = engine_with(
                GeometryTest::Hardware,
                HwConfig::at_resolution(8).with_threshold(500),
                None,
                true,
            );
            let (got, _) = hw.within_distance_join(a, b, d);
            if got != expected {
                println!(
                    "FAIL within_distance_join {} ⋈ {} D={f}×BaseD",
                    a.name, b.name
                );
                failures += 1;
            }
        }
        println!("within-distance join {} ⋈ {} verified", a.name, b.name);
    }

    // Engine config must not change results either.
    {
        let mut e1 = spatial_bench::engine_with(
            GeometryTest::Software,
            HwConfig::recommended(),
            Some(5),
            true,
        );
        let mut e2 = spatial_bench::software_engine();
        let q = &w.states50.polygons[0];
        let (a, _) = e1.intersection_selection(&w.water, q);
        let (b, _) = e2.intersection_selection(&w.water, q);
        if a != b {
            println!("FAIL interior filter changed selection results");
            failures += 1;
        }
        let _ = EngineConfig::default();
    }

    // Staged-executor cross-check: every backend × submission mode ×
    // thread count must agree on the Fig. 12 workload (LANDC ⋈ LANDO),
    // and batching must strictly reduce the draw-call-equivalent
    // submissions (draw calls + Minmax queries) of the hardware path.
    {
        let hw = HwConfig::at_resolution(8).with_threshold(500);
        let mut sw = software_engine();
        let (expected, _) = sw.intersection_join(&w.landc, &w.lando);
        let mut per_pair = SpatialEngine::new(EngineConfig::hardware(hw));
        let (pp_results, pp_cost) = per_pair.intersection_join(&w.landc, &w.lando);
        if pp_results != expected {
            println!("FAIL per-pair hardware intersection join vs software");
            failures += 1;
        }
        let pp_submissions = pp_cost.tests.hw.draw_calls + pp_cost.tests.hw.minmax_queries;
        let mut batched_submissions = usize::MAX;
        for base in [
            EngineConfig::hardware(hw),
            EngineConfig::hardware(hw.with_threshold(40)),
            EngineConfig::software(),
        ] {
            for (batch, threads) in [(1, 2), (1, 4), (64, 1), (64, 2), (64, 4)] {
                let mut e = SpatialEngine::new(EngineConfig {
                    hw_batch: batch,
                    refine_threads: threads,
                    ..base.clone()
                });
                let (got, cost) = e.intersection_join(&w.landc, &w.lando);
                if got != expected {
                    println!(
                        "FAIL staged executor {:?} threshold {} batch {batch} threads {threads}",
                        base.geometry_test, base.hw.sw_threshold
                    );
                    failures += 1;
                }
                // Compare like with like: the per-pair run's threshold.
                let same_routing = base.geometry_test == GeometryTest::Hardware
                    && base.hw.sw_threshold == hw.sw_threshold;
                if same_routing && batch > 1 {
                    batched_submissions = batched_submissions
                        .min(cost.tests.hw.draw_calls + cost.tests.hw.minmax_queries);
                }
            }
        }
        if pp_cost.tests.hw_tests > 0 && batched_submissions >= pp_submissions {
            println!(
                "FAIL batching did not reduce submissions: batched {batched_submissions} >= per-pair {pp_submissions}"
            );
            failures += 1;
        }
        println!(
            "staged executor verified on {} ⋈ {}: submissions {} (batched) vs {} (per-pair)",
            w.landc.name, w.lando.name, batched_submissions, pp_submissions
        );
    }

    // Same cross-check for the within-distance join at BaseD.
    {
        let d = w.base_d_landc_lando;
        let mut sw = engine_with(GeometryTest::Software, HwConfig::recommended(), None, true);
        let (expected, _) = sw.within_distance_join(&w.landc, &w.lando, d);
        for (batch, threads) in [(1, 4), (32, 1), (32, 4)] {
            let mut e = SpatialEngine::new(EngineConfig {
                use_object_filters: true,
                hw_batch: batch,
                refine_threads: threads,
                ..EngineConfig::hardware(HwConfig::at_resolution(8).with_threshold(500))
            });
            let (got, _) = e.within_distance_join(&w.landc, &w.lando, d);
            if got != expected {
                println!(
                    "FAIL batched/threaded within-distance join batch {batch} threads {threads}"
                );
                failures += 1;
            }
        }
        println!("staged within-distance join verified at BaseD");
    }

    // Wrapper cross-check: a sharded front over the executor must be
    // indistinguishable from the bare device: identical result sets AND
    // identical values in every hardware counter, on all four pipelines,
    // both per-pair and batched+threaded (the threaded path forks
    // per-worker devices, exercising fork's device-kind preservation).
    {
        let hw = HwConfig::at_resolution(8).with_threshold(0);
        let make = |device, batch: usize, threads: usize| {
            SpatialEngine::new(EngineConfig {
                device,
                hw_batch: batch,
                refine_threads: threads,
                use_object_filters: true,
                ..EngineConfig::hardware(hw)
            })
        };
        let q = &w.states50.polygons[0];
        let d = w.base_d_landc_lando;
        for (batch, threads) in [(1usize, 1usize), (64, 2)] {
            let mut r = make(DeviceKind::Reference, batch, threads);
            let mut t = make(DeviceKind::Reference.sharded(3), batch, threads);
            let label = format!("sharded batch {batch} threads {threads}");
            check_device_pair(
                &format!("intersection_selection {label}"),
                r.intersection_selection(&w.water, q),
                t.intersection_selection(&w.water, q),
                &mut failures,
            );
            check_device_pair(
                &format!("containment_selection {label}"),
                r.containment_selection(&w.water, q),
                t.containment_selection(&w.water, q),
                &mut failures,
            );
            check_device_pair(
                &format!("intersection_join {label}"),
                r.intersection_join(&w.landc, &w.lando),
                t.intersection_join(&w.landc, &w.lando),
                &mut failures,
            );
            check_device_pair(
                &format!("within_distance_join {label}"),
                r.within_distance_join(&w.landc, &w.lando, d),
                t.within_distance_join(&w.landc, &w.lando, d),
                &mut failures,
            );
        }
        println!("wrapper cross-check verified: sharded ≡ bare reference on all pipelines");
    }

    // Filter-config cross-check: the stage-1 knobs (`filter_simd`,
    // `filter_threads`) must never change results, the candidate stream,
    // or any refinement counter, on all four pipelines — the vectorized
    // threaded MBR filter is a pure optimization, like the device knobs.
    // Under `--faults` the same sweep runs with a fault schedule firing
    // underneath: the filter stage is upstream of the device, so recovery
    // behaviour must be untouched by filter routing.
    {
        let hw = HwConfig::at_resolution(8).with_threshold(0);
        let make = |filter_simd: bool, filter_threads: usize, device: DeviceKind| {
            SpatialEngine::new(EngineConfig {
                filter_simd,
                filter_threads,
                device,
                use_object_filters: true,
                interior_filter_level: Some(4),
                ..EngineConfig::hardware(hw)
            })
        };
        let mut devices = vec![("reference", DeviceKind::Reference)];
        if opts.faults {
            devices.push((
                "faulty reference",
                DeviceKind::Reference.with_faults(FaultPlan::new(
                    31,
                    FaultKind::ContextLost,
                    FaultTrigger::EveryK(3),
                )),
            ));
        }
        let q = &w.states50.polygons[0];
        let d = w.base_d_landc_lando;
        let mut simd_tests_seen = 0usize;
        for (dev_name, device) in &devices {
            let mut reference = make(false, 1, device.clone());
            let ref_sel = reference.intersection_selection(&w.water, q);
            let ref_con = reference.containment_selection(&w.water, q);
            let ref_join = reference.intersection_join(&w.landc, &w.lando);
            let ref_within = reference.within_distance_join(&w.landc, &w.lando, d);
            if ref_sel.1.simd_node_tests != 0 {
                println!("FAIL filter cross-check: scalar path charged SIMD tests");
                failures += 1;
            }
            for filter_simd in [false, true] {
                for filter_threads in [1usize, 4] {
                    let mut e = make(filter_simd, filter_threads, device.clone());
                    let label =
                        format!("simd {filter_simd} threads {filter_threads} on {dev_name}");
                    let got = e.intersection_selection(&w.water, q);
                    simd_tests_seen += got.1.simd_node_tests;
                    check_filter_pair(
                        &format!("intersection_selection {label}"),
                        &ref_sel,
                        &got,
                        &mut failures,
                    );
                    check_filter_pair(
                        &format!("containment_selection {label}"),
                        &ref_con,
                        &e.containment_selection(&w.water, q),
                        &mut failures,
                    );
                    check_filter_pair(
                        &format!("intersection_join {label}"),
                        &ref_join,
                        &e.intersection_join(&w.landc, &w.lando),
                        &mut failures,
                    );
                    check_filter_pair(
                        &format!("within_distance_join {label}"),
                        &ref_within,
                        &e.within_distance_join(&w.landc, &w.lando, d),
                        &mut failures,
                    );
                }
            }
        }
        if simd_tests_seen == 0 {
            println!("FAIL filter cross-check: SIMD kernels never routed any test");
            failures += 1;
        }
        println!(
            "filter configs verified: scalar/SIMD × sequential/threaded MBR filter ≡ reference on all pipelines"
        );
    }

    // Fault-injection sweep (`--faults`): every seeded fault schedule —
    // transient submission errors, corrupted readbacks, and a permanent
    // failure that drives the circuit breaker — must leave results AND
    // every fault-independent counter bit-identical to the clean run,
    // with the degradation fully accounted in the test ledger
    // (hw_tests + fallback_tests == clean hw_tests).
    if opts.faults {
        let hw = HwConfig::at_resolution(8).with_threshold(0);
        let make = |device: DeviceKind, batch: usize, threads: usize| {
            SpatialEngine::new(EngineConfig {
                device,
                hw_batch: batch,
                refine_threads: threads,
                use_object_filters: true,
                // Tight policy so permanent schedules reach the breaker
                // quickly instead of burning retries per submission.
                recovery: RecoveryPolicy {
                    max_retries: 1,
                    backoff_ns: 1_000,
                    quarantine_after: 4,
                    probation_ns: None,
                },
                ..EngineConfig::hardware(hw)
            })
        };
        let q = &w.states50.polygons[0];
        let d = w.base_d_landc_lando;
        let plans = [
            (
                "transient context loss",
                FaultPlan::new(11, FaultKind::ContextLost, FaultTrigger::EveryK(3)),
            ),
            (
                "readback bit-flips",
                FaultPlan::new(12, FaultKind::ReadbackBitFlip, FaultTrigger::EveryK(2)),
            ),
            (
                "early OOM",
                FaultPlan::new(13, FaultKind::OutOfMemory, FaultTrigger::OnExecute(0)),
            ),
            (
                "permanent timeout (quarantine)",
                FaultPlan::new(14, FaultKind::Timeout, FaultTrigger::EveryK(1)),
            ),
        ];
        let mut faults_seen = 0usize;
        for (batch, threads) in [(1usize, 1usize), (64, 3)] {
            for (plan_name, plan) in plans {
                let mut clean = make(DeviceKind::Reference, batch, threads);
                let mut faulty = make(DeviceKind::Reference.with_faults(plan), batch, threads);
                let label = format!("{plan_name} batch {batch} threads {threads}");
                let runs = [
                    (
                        "intersection_selection",
                        lift_selection(clean.intersection_selection(&w.water, q)),
                        lift_selection(faulty.intersection_selection(&w.water, q)),
                    ),
                    (
                        "containment_selection",
                        lift_selection(clean.containment_selection(&w.water, q)),
                        lift_selection(faulty.containment_selection(&w.water, q)),
                    ),
                    (
                        "intersection_join",
                        clean.intersection_join(&w.landc, &w.lando),
                        faulty.intersection_join(&w.landc, &w.lando),
                    ),
                    (
                        "within_distance_join",
                        clean.within_distance_join(&w.landc, &w.lando, d),
                        faulty.within_distance_join(&w.landc, &w.lando, d),
                    ),
                ];
                for (pipeline, c, f) in runs {
                    faults_seen += f.1.tests.device_faults;
                    check_fault_pair(&format!("{pipeline} {label}"), &c, &f, &mut failures);
                }
            }
        }
        if faults_seen == 0 {
            println!("FAIL fault sweep: no injected fault ever fired");
            failures += 1;
        }
        println!(
            "fault sweep verified: {faults_seen} injected faults absorbed with identical results"
        );
    }

    // Partition sweep (`--partition`): PBSM grid partitioning with
    // sharded device execution must be invisible in every observable —
    // for grid ∈ {1, 2, 4} × shards ∈ {1, 2, 4}, all four pipelines must return bit-identical results
    // and hardware counters to the unpartitioned engine (per-pair mode,
    // so even the batching diagnostics have nowhere to move). With
    // `--faults` the same matrix runs against per-shard fault schedules
    // and the degradation ledger must balance per pipeline.
    if opts.partition {
        let hw = HwConfig::at_resolution(8).with_threshold(0);
        let make = |device: DeviceKind, grid: usize, shards: usize| {
            SpatialEngine::new(EngineConfig {
                device,
                partition: PartitionConfig::grid(grid).with_shards(shards),
                use_object_filters: true,
                ..EngineConfig::hardware(hw)
            })
        };
        let q = &w.states50.polygons[0];
        let d = w.base_d_landc_lando;
        let mut partitions_seen = 0usize;
        let mut flat = make(DeviceKind::Reference, 1, 1);
        let ref_sel = flat.intersection_selection(&w.water, q);
        let ref_con = flat.containment_selection(&w.water, q);
        let ref_join = flat.intersection_join(&w.landc, &w.lando);
        let ref_within = flat.within_distance_join(&w.landc, &w.lando, d);
        for grid in [1usize, 2, 4] {
            for shards in [1usize, 2, 4] {
                let mut e = make(DeviceKind::Reference, grid, shards);
                let label = format!("grid {grid} shards {shards}");
                check_device_pair(
                    &format!("partition intersection_selection {label}"),
                    ref_sel.clone(),
                    e.intersection_selection(&w.water, q),
                    &mut failures,
                );
                check_device_pair(
                    &format!("partition containment_selection {label}"),
                    ref_con.clone(),
                    e.containment_selection(&w.water, q),
                    &mut failures,
                );
                let join = e.intersection_join(&w.landc, &w.lando);
                partitions_seen += join.1.partitions_used;
                check_device_pair(
                    &format!("partition intersection_join {label}"),
                    ref_join.clone(),
                    join,
                    &mut failures,
                );
                check_device_pair(
                    &format!("partition within_distance_join {label}"),
                    ref_within.clone(),
                    e.within_distance_join(&w.landc, &w.lando, d),
                    &mut failures,
                );
            }
        }
        if partitions_seen == 0 {
            println!("FAIL partition sweep: no partition ever held a candidate");
            failures += 1;
        }
        println!("partition sweep verified: grid × shard engines ≡ unpartitioned on all pipelines");

        // Fault overlay: each shard carries its own independently-seeded
        // copy of the plan; results must match the clean partitioned run
        // and every stolen hardware test must reappear as a fallback.
        if opts.faults {
            let plans = [
                (
                    "transient context loss",
                    FaultPlan::new(41, FaultKind::ContextLost, FaultTrigger::EveryK(3)),
                ),
                (
                    "readback bit-flips",
                    FaultPlan::new(42, FaultKind::ReadbackBitFlip, FaultTrigger::EveryK(2)),
                ),
            ];
            for grid in [2usize, 4] {
                for shards in [2usize, 4] {
                    for (plan_name, plan) in plans {
                        let mut clean = make(DeviceKind::Reference, grid, shards);
                        let mut faulty =
                            make(DeviceKind::Reference.with_faults(plan), grid, shards);
                        let label = format!("{plan_name} grid {grid} shards {shards}");
                        let runs = [
                            (
                                "intersection_selection",
                                lift_selection(clean.intersection_selection(&w.water, q)),
                                lift_selection(faulty.intersection_selection(&w.water, q)),
                            ),
                            (
                                "containment_selection",
                                lift_selection(clean.containment_selection(&w.water, q)),
                                lift_selection(faulty.containment_selection(&w.water, q)),
                            ),
                            (
                                "intersection_join",
                                clean.intersection_join(&w.landc, &w.lando),
                                faulty.intersection_join(&w.landc, &w.lando),
                            ),
                            (
                                "within_distance_join",
                                clean.within_distance_join(&w.landc, &w.lando, d),
                                faulty.within_distance_join(&w.landc, &w.lando, d),
                            ),
                        ];
                        for (pipeline, c, f) in runs {
                            check_fault_pair(
                                &format!("partition {pipeline} {label}"),
                                &c,
                                &f,
                                &mut failures,
                            );
                        }
                    }
                }
            }
            println!(
                "partitioned fault sweep verified: per-shard fault schedules absorbed exactly"
            );
        }
    }

    // Serving-layer sweep (`--service`): the online replay-cost planner
    // must be invisible in rows (DESIGN.md invariant 13) — serving all
    // four pipelines under the adaptive planner
    // returns bit-identical rows to forcing software and to forcing
    // hardware, and every engine's ServiceStats ledger balances. With
    // `--faults` the same matrix runs on fault-wrapped devices, where
    // the supervisor's exact fallback keeps the invariant intact.
    if opts.service {
        let make_snapshot = || {
            ServiceSnapshot::new()
                .with(hwa_core::PreparedDataset::new(
                    "landc",
                    spatial_datagen::landc(opts.scale, opts.seed).polygons,
                ))
                .with(hwa_core::PreparedDataset::new(
                    "lando",
                    spatial_datagen::lando(opts.scale, opts.seed).polygons,
                ))
        };
        let queries: Vec<_> = w
            .states50
            .polygons
            .iter()
            .take(opts.queries.min(2))
            .collect();
        let d = w.base_d_landc_lando;
        let modes = [
            ("adaptive", PlannerMode::Adaptive),
            ("forced-sw", PlannerMode::ForceSoftware),
            ("forced-hw", PlannerMode::ForceHardware),
        ];
        let fault_plan = FaultPlan::new(73, FaultKind::ContextLost, FaultTrigger::EveryK(3));
        let mut variants = vec![("reference", DeviceKind::Reference)];
        if opts.faults {
            variants.push((
                "reference+faults",
                DeviceKind::Reference.with_faults(fault_plan),
            ));
        }
        for (variant_name, dev) in variants {
            let mut serve = |mode: PlannerMode, mode_name: &str| -> Vec<Vec<(usize, usize)>> {
                let engine = QueryEngine::new(
                    ServiceConfig {
                        base: EngineConfig {
                            device: dev.clone(),
                            use_object_filters: true,
                            ..EngineConfig::hardware(HwConfig::at_resolution(8).with_threshold(0))
                        },
                        planner: PlannerConfig {
                            mode,
                            ..PlannerConfig::default()
                        },
                        ..ServiceConfig::default()
                    },
                    make_snapshot(),
                );
                let mut rows = Vec::new();
                for q in &queries {
                    let reqs = [
                        QueryRequest::intersection_selection("landc", (*q).clone()),
                        QueryRequest::containment_selection("landc", (*q).clone()),
                        QueryRequest::intersection_join("landc", "lando"),
                        QueryRequest::within_distance_join("landc", "lando", d),
                    ];
                    for req in reqs {
                        match engine.execute(&req) {
                            Ok(resp) => rows.push(resp.rows.as_pairs()),
                            Err(e) => {
                                println!(
                                    "FAIL service {variant_name} {mode_name}: \
                                     unbudgeted query errored: {e}"
                                );
                                failures += 1;
                                rows.push(Vec::new());
                            }
                        }
                    }
                }
                let stats = engine.stats();
                if !stats.balanced() {
                    println!(
                        "FAIL service {variant_name} {mode_name}: unbalanced ledger {stats:?}"
                    );
                    failures += 1;
                }
                rows
            };
            let [adaptive, forced_sw, forced_hw] =
                modes.map(|(mode_name, mode)| serve(mode, mode_name));
            for (i, ((ad, sw), hw)) in adaptive.iter().zip(&forced_sw).zip(&forced_hw).enumerate() {
                let pipeline = ["isect_sel", "contain_sel", "isect_join", "within_join"][i % 4];
                if ad != sw {
                    println!("FAIL service {variant_name} {pipeline}: adaptive != forced-software");
                    failures += 1;
                }
                if ad != hw {
                    println!("FAIL service {variant_name} {pipeline}: adaptive != forced-hardware");
                    failures += 1;
                }
            }
        }
        println!(
            "service sweep verified: planner modes ≡ on all pipelines{}",
            if opts.faults {
                " (clean + faulted)"
            } else {
                ""
            }
        );
    }

    // Chaos sweep (`--chaos`): shard failover, probation and quarantine
    // under seeded per-shard fault schedules (DESIGN.md §13). For every
    // shard count × probation config, a sharded engine
    // with one permanently dead shard — and one with every shard dead —
    // must return bit-identical results to the clean sharded engine on
    // all four pipelines, with the failover ledger balanced (invariant
    // 14: per-shard hw_tests summed across failovers + fallback_tests
    // == clean hw_tests, which `check_fault_pair` states as
    // hw + fallback == clean hw).
    if opts.chaos {
        let hw = HwConfig::at_resolution(8).with_threshold(0);
        let make = |device: DeviceKind, probation_ns: Option<u64>| {
            SpatialEngine::new(EngineConfig {
                device,
                use_object_filters: true,
                recovery: RecoveryPolicy {
                    max_retries: 1,
                    backoff_ns: 1_000,
                    quarantine_after: 2,
                    probation_ns,
                },
                ..EngineConfig::hardware(hw)
            })
        };
        let q = &w.states50.polygons[0];
        let d = w.base_d_landc_lando;
        let probations = [("no-probation", None), ("probation-5us", Some(5_000u64))];
        let mut failovers_seen = 0usize;
        let mut probes_seen = 0usize;
        let mut quarantines_seen = 0usize;
        for shards in [2usize, 4] {
            for (prob_name, probation_ns) in probations {
                // One permanently dead shard: work routed at it must
                // deterministically fail over to the next healthy
                // shard (after the breaker opens); with probation,
                // ripe breakers are probed and re-opened.
                let dead_shard =
                    FaultPlan::new(91, FaultKind::Timeout, FaultTrigger::EveryK(1)).on_shard(0);
                // Every shard dead: the supervisor quarantines the
                // whole device and the ladder bottoms out in exact
                // software.
                let all_dead = FaultPlan::new(92, FaultKind::Timeout, FaultTrigger::EveryK(1));
                let cases = [("dead shard 0", dead_shard), ("all shards dead", all_dead)];
                for (case_name, plan) in cases {
                    let mut clean = make(DeviceKind::Reference.sharded(shards), probation_ns);
                    let mut chaotic = make(
                        DeviceKind::Reference.with_faults(plan).sharded(shards),
                        probation_ns,
                    );
                    let label = format!("{case_name} shards {shards} {prob_name}");
                    let runs = [
                        (
                            "intersection_selection",
                            lift_selection(clean.intersection_selection(&w.water, q)),
                            lift_selection(chaotic.intersection_selection(&w.water, q)),
                        ),
                        (
                            "containment_selection",
                            lift_selection(clean.containment_selection(&w.water, q)),
                            lift_selection(chaotic.containment_selection(&w.water, q)),
                        ),
                        (
                            "intersection_join",
                            clean.intersection_join(&w.landc, &w.lando),
                            chaotic.intersection_join(&w.landc, &w.lando),
                        ),
                        (
                            "within_distance_join",
                            clean.within_distance_join(&w.landc, &w.lando, d),
                            chaotic.within_distance_join(&w.landc, &w.lando, d),
                        ),
                    ];
                    for (pipeline, c, f) in runs {
                        let t = &f.1.tests;
                        failovers_seen += t.shard_failovers;
                        probes_seen += t.probes;
                        quarantines_seen += t.shard_quarantined;
                        if t.probe_reinstates > 0 {
                            // Both schedules are permanent: a probe
                            // can never succeed.
                            println!(
                                "FAIL chaos sweep {pipeline} {label}: \
                                 permanent fault was reinstated"
                            );
                            failures += 1;
                        }
                        check_fault_pair(
                            &format!("chaos {pipeline} {label}"),
                            &c,
                            &f,
                            &mut failures,
                        );
                    }
                }
            }
        }
        if failovers_seen == 0 {
            println!("FAIL chaos sweep: no submission ever failed over");
            failures += 1;
        }
        if probes_seen == 0 {
            println!("FAIL chaos sweep: probation never probed an open breaker");
            failures += 1;
        }
        if quarantines_seen == 0 {
            println!("FAIL chaos sweep: no shard was ever quarantined");
            failures += 1;
        }
        println!(
            "chaos sweep verified: {failovers_seen} failovers, {probes_seen} probes, \
             {quarantines_seen} shard quarantines absorbed with identical results"
        );
    }

    // Brownout cross-check (`--chaos --service`): drive a browned-out
    // engine through the full ladder (deadline pressure up to Shed,
    // then clean traffic back down to Normal) and require every query
    // that completes on the way to return exactly the rows an
    // undegraded engine returns (invariant 13 at every rung), with both
    // ledgers balanced and the shed rung observed as a typed error.
    if opts.chaos && opts.service {
        let window = 4u32;
        let make_snapshot = || {
            ServiceSnapshot::new()
                .with(hwa_core::PreparedDataset::new(
                    "landc",
                    spatial_datagen::landc(opts.scale, opts.seed).polygons,
                ))
                .with(hwa_core::PreparedDataset::new(
                    "lando",
                    spatial_datagen::lando(opts.scale, opts.seed).polygons,
                ))
        };
        let service_config = |brownout: Option<BrownoutConfig>| ServiceConfig {
            base: EngineConfig {
                use_object_filters: true,
                ..EngineConfig::hardware(HwConfig::at_resolution(8).with_threshold(0))
            },
            brownout,
            ..ServiceConfig::default()
        };
        let reference = QueryEngine::new(service_config(None), make_snapshot());
        let browned = QueryEngine::new(
            service_config(Some(BrownoutConfig {
                window,
                ..BrownoutConfig::default()
            })),
            make_snapshot(),
        );
        let q = w.states50.polygons[0].clone();
        let d = w.base_d_landc_lando;
        let reqs = [
            QueryRequest::intersection_selection("landc", q.clone()),
            QueryRequest::containment_selection("landc", q.clone()),
            QueryRequest::intersection_join("landc", "lando"),
            QueryRequest::within_distance_join("landc", "lando", d),
        ];
        let expected: Vec<Vec<(usize, usize)>> = reqs
            .iter()
            .map(|r| {
                reference
                    .execute(r)
                    .expect("reference engine serves unbudgeted queries")
                    .rows
                    .as_pairs()
            })
            .collect();
        // Phase 1 — climb: zero-deadline queries abort deterministically
        // between stages, breaching every window until the ladder sheds.
        let doomed = reqs[0].clone().with_budget(QueryBudget {
            deadline: Some(std::time::Duration::ZERO),
            max_candidates: None,
        });
        let mut sheds_observed = 0usize;
        for _ in 0..window * 5 {
            if let Err(hwa_core::service::ServiceError::Overloaded { .. }) =
                browned.execute(&doomed)
            {
                sheds_observed += 1;
            }
        }
        if sheds_observed == 0 {
            println!("FAIL brownout cross-check: ladder never reached the shed rung");
            failures += 1;
        }
        // Phase 2 — recover: clean traffic steps the ladder back down;
        // every completion must be row-identical to the reference.
        let mut completions = 0usize;
        for i in 0..(16 * window as usize) {
            let req = &reqs[i % reqs.len()];
            match browned.execute(req) {
                Ok(resp) => {
                    completions += 1;
                    if resp.rows.as_pairs() != expected[i % reqs.len()] {
                        println!(
                            "FAIL brownout cross-check: degraded rows differ on {}",
                            req.kind.name()
                        );
                        failures += 1;
                    }
                }
                Err(hwa_core::service::ServiceError::Overloaded { .. }) => {}
                Err(e) => {
                    println!("FAIL brownout cross-check: unexpected error {e}");
                    failures += 1;
                }
            }
            if browned.brownout_rung() == BrownoutRung::Normal {
                break;
            }
        }
        let stats = browned.stats();
        if browned.brownout_rung() != BrownoutRung::Normal {
            println!("FAIL brownout cross-check: ladder never recovered ({stats:?})");
            failures += 1;
        }
        if completions == 0 {
            println!("FAIL brownout cross-check: no query ever completed during recovery");
            failures += 1;
        }
        if !stats.balanced() {
            println!("FAIL brownout cross-check: unbalanced browned ledger {stats:?}");
            failures += 1;
        }
        let ref_stats = reference.stats();
        if !ref_stats.balanced() {
            println!("FAIL brownout cross-check: unbalanced reference ledger {ref_stats:?}");
            failures += 1;
        }
        println!(
            "brownout cross-check verified: {} steps up, {} recoveries, {} sheds, \
             {completions} degraded completions row-identical to reference",
            stats.brownout_steps, stats.brownout_recoveries, stats.overload_sheds
        );
    }

    // Aggregation sweep (`--aggregate`): the area-of-overlap pipeline
    // (DESIGN.md §14) is a *measurement*, so it carries two contracts at
    // once — every partition grid × shard count × seeded fault plan must
    // report bit-identical `(i, j, area)` rows with a balanced
    // degradation ledger, and every reported area must sit inside the
    // quantization envelope of the exact clipped-polygon oracle.
    if opts.aggregate {
        let hw = HwConfig::at_resolution(8).with_threshold(0);
        let make = |device: DeviceKind, grid: usize, shards: usize| {
            SpatialEngine::new(EngineConfig {
                device,
                partition: PartitionConfig::grid(grid).with_shards(shards),
                use_object_filters: true,
                ..EngineConfig::hardware(hw)
            })
        };
        let plans = [
            (
                "transient context loss",
                FaultPlan::new(51, FaultKind::ContextLost, FaultTrigger::EveryK(3)),
            ),
            (
                "readback bit-flips",
                FaultPlan::new(52, FaultKind::ReadbackBitFlip, FaultTrigger::EveryK(2)),
            ),
        ];
        let mut pairs_checked = 0usize;
        for res in [4usize, 16, 48] {
            let (base, base_cost) =
                make(DeviceKind::Reference, 1, 1).overlap_area_join(&w.landc, &w.lando, res);
            if base.is_empty() {
                println!("FAIL aggregate sweep: no overlapping pairs at res {res}");
                failures += 1;
                continue;
            }
            // Oracle envelope: the fill rule emits a cell iff its center
            // lies inside P ∩ Q, so hardware and oracle can disagree
            // only on cells the clipped boundary crosses — at most
            // 2·res + 3 per segment over at most 2·(Vp + Vq) segments.
            for &(i, j, area) in &base {
                let (p, q) = (w.landc.polygon(i), w.lando.polygon(j));
                let Some(exact) = overlap_area_exact(p, q) else {
                    continue;
                };
                let region = p
                    .mbr()
                    .intersection(&q.mbr())
                    .expect("measured pairs overlap on MBRs");
                let bound = 2.0
                    * (p.vertex_count() + q.vertex_count()) as f64
                    * (2.0 * res as f64 + 3.0)
                    * overlap_cell_area(region, res);
                if (area - exact).abs() > bound {
                    println!(
                        "FAIL aggregate oracle res {res} pair ({i}, {j}): \
                         hw {area} exact {exact} envelope {bound}"
                    );
                    failures += 1;
                }
                pairs_checked += 1;
            }
            for grid in [1usize, 2, 4] {
                for shards in [1usize, 4] {
                    let label = format!("res {res} grid {grid} shards {shards}");
                    let (rows, cost) = make(DeviceKind::Reference, grid, shards)
                        .overlap_area_join(&w.landc, &w.lando, res);
                    check_aggregate_rows(&label, &base, &rows, &mut failures);
                    if cost.tests.overlap_tests != base_cost.tests.overlap_tests
                        || cost.tests.hw_tests != base_cost.tests.hw_tests
                    {
                        println!(
                            "FAIL aggregate counters {label}: overlap {} hw {} vs \
                             reference overlap {} hw {}",
                            cost.tests.overlap_tests,
                            cost.tests.hw_tests,
                            base_cost.tests.overlap_tests,
                            base_cost.tests.hw_tests
                        );
                        failures += 1;
                    }
                    for (plan_name, plan) in plans {
                        let flabel = format!("{label} under {plan_name}");
                        let (frows, fcost) =
                            make(DeviceKind::Reference.with_faults(plan), grid, shards)
                                .overlap_area_join(&w.landc, &w.lando, res);
                        check_aggregate_rows(&flabel, &base, &frows, &mut failures);
                        if fcost.tests.overlap_tests != base_cost.tests.overlap_tests {
                            println!(
                                "FAIL aggregate faulted counters {flabel}: overlap {} vs {}",
                                fcost.tests.overlap_tests, base_cost.tests.overlap_tests
                            );
                            failures += 1;
                        }
                        if fcost.tests.hw_tests + fcost.tests.fallback_tests
                            != base_cost.tests.hw_tests
                        {
                            println!(
                                "FAIL aggregate faulted {flabel}: ledger leak — hw {} + \
                                 fallback {} != clean hw {}",
                                fcost.tests.hw_tests,
                                fcost.tests.fallback_tests,
                                base_cost.tests.hw_tests
                            );
                            failures += 1;
                        }
                    }
                }
            }
        }
        println!(
            "aggregate sweep verified: {pairs_checked} areas inside the §14 envelope, \
             partitions × shards × faults row-identical"
        );
    }

    if failures == 0 {
        println!("\nALL PIPELINES VERIFIED: hardware assistance never changes results.");
    } else {
        println!("\n{failures} FAILURES");
        std::process::exit(1);
    }
}
