//! The serving-layer headline property (DESIGN.md invariant 13): for
//! ANY seeded workload, device and fault plan, a query served under the
//! adaptive replay-cost planner returns rows bit-identical to the same
//! query forced through the software backend AND forced through the
//! hardware backend, on all four pipelines — and every engine's
//! [`ServiceStats`] ledger balances.
//!
//! The planner only ever picks *which exact backend* refines; the
//! backend-independent pipeline counters (candidate set, intermediate
//! filter hits, result count, R-tree node tests) therefore must also be
//! bit-identical across the three modes. Geometry-test counters
//! (hw_tests vs software_tests) legitimately differ — that is the whole
//! point of planning — and are not compared.

use hwa_core::service::{
    PlannerConfig, PlannerMode, QueryEngine, QueryRequest, ServiceConfig, ServiceSnapshot,
};
use hwa_core::{
    CostBreakdown, DeviceKind, EngineConfig, FaultKind, FaultPlan, FaultTrigger, HwConfig,
    PreparedDataset,
};
use proptest::prelude::*;

fn snapshot(seed: u64) -> ServiceSnapshot {
    ServiceSnapshot::new()
        .with(PreparedDataset::new(
            "landc",
            spatial_datagen::landc(0.0015, seed).polygons,
        ))
        .with(PreparedDataset::new(
            "lando",
            spatial_datagen::lando(0.0015, seed).polygons,
        ))
}

/// The four pipelines as service requests against the snapshot above.
fn requests(seed: u64, d: f64) -> Vec<QueryRequest> {
    let queries = spatial_datagen::states50(seed);
    let q = queries.polygons[(seed % queries.polygons.len() as u64) as usize].clone();
    vec![
        QueryRequest::intersection_selection("landc", q.clone()),
        QueryRequest::containment_selection("landc", q),
        QueryRequest::intersection_join("landc", "lando"),
        QueryRequest::within_distance_join("landc", "lando", d),
    ]
}

const PIPELINES: [&str; 4] = ["isect_sel", "contain_sel", "isect_join", "within_join"];

/// Serves all four pipelines under one planner mode on a fresh engine;
/// returns rows (as pairs) + costs, after asserting the ledger balances.
fn serve_all(
    mode: PlannerMode,
    device: DeviceKind,
    seed: u64,
    d: f64,
) -> Vec<(Vec<(usize, usize)>, CostBreakdown)> {
    let config = ServiceConfig {
        base: EngineConfig {
            device,
            use_object_filters: true,
            ..EngineConfig::hardware(HwConfig::at_resolution(8).with_threshold(0))
        },
        planner: PlannerConfig {
            mode,
            ..PlannerConfig::default()
        },
        ..ServiceConfig::default()
    };
    let engine = QueryEngine::new(config, snapshot(seed));
    let mut priced = 0;
    let out = requests(seed, d)
        .iter()
        .map(|req| {
            let resp = engine.execute(req).expect("no budget set, must complete");
            // A zero-candidate query short-circuits to software without
            // a pricing pass (neither a plan-cache hit nor a miss).
            priced += u64::from(resp.candidates > 0);
            (resp.rows.as_pairs(), resp.cost)
        })
        .collect();
    let stats = engine.stats();
    assert!(stats.balanced(), "unbalanced ledger: {stats:?}");
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.planned_hw + stats.planned_sw, 4);
    match mode {
        PlannerMode::ForceSoftware => assert_eq!(stats.planned_sw, 4),
        PlannerMode::ForceHardware => assert_eq!(stats.planned_hw, 4),
        PlannerMode::Adaptive => {
            assert_eq!(stats.plan_cache_hits + stats.plan_cache_misses, priced)
        }
    }
    out
}

prop_compose! {
    fn arb_plan()(
        seed in 0u64..u64::MAX,
        kind_pick in 0usize..4,
        trigger_pick in 0usize..3,
        n in 0u64..5,
        k in 1u64..4,
    ) -> FaultPlan {
        let kind = match kind_pick {
            0 => FaultKind::ContextLost,
            1 => FaultKind::OutOfMemory,
            2 => FaultKind::Timeout,
            _ => FaultKind::ReadbackBitFlip,
        };
        let trigger = match trigger_pick {
            0 => FaultTrigger::OnExecute(n),
            1 => FaultTrigger::OnCommand(n * 5),
            _ => FaultTrigger::EveryK(k),
        };
        FaultPlan::new(seed, kind, trigger)
    }
}

/// Asserts invariant 13 across the three planner modes for one device.
fn assert_plan_invariant(device: DeviceKind, seed: u64, d: f64) -> Result<(), TestCaseError> {
    let adaptive = serve_all(PlannerMode::Adaptive, device, seed, d);
    let forced_sw = serve_all(PlannerMode::ForceSoftware, device, seed, d);
    let forced_hw = serve_all(PlannerMode::ForceHardware, device, seed, d);
    for (name, ((ad, sw), hw)) in PIPELINES
        .iter()
        .zip(adaptive.iter().zip(&forced_sw).zip(&forced_hw))
    {
        prop_assert_eq!(&ad.0, &sw.0, "{}: adaptive != forced-software rows", name);
        prop_assert_eq!(&ad.0, &hw.0, "{}: adaptive != forced-hardware rows", name);
        for (other, label) in [(sw, "software"), (hw, "hardware")] {
            prop_assert_eq!(ad.1.candidates, other.1.candidates, "{} vs {}", name, label);
            prop_assert_eq!(
                ad.1.filter_hits,
                other.1.filter_hits,
                "{} vs {}",
                name,
                label
            );
            prop_assert_eq!(ad.1.results, other.1.results, "{} vs {}", name, label);
            prop_assert_eq!(ad.1.node_tests, other.1.node_tests, "{} vs {}", name, label);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Clean devices: planner choice is invisible in rows and in every
    /// backend-independent counter.
    #[test]
    fn planner_choice_never_changes_results(seed in 1u64..500) {
        assert_plan_invariant(DeviceKind::Reference, seed, 0.02)?;
    }

    /// Fault-wrapped devices: the supervisor's exact software fallback
    /// keeps the invariant intact even while the hardware plans degrade.
    #[test]
    fn planner_choice_never_changes_results_under_faults(
        plan in arb_plan(),
        seed in 1u64..500,
    ) {
        assert_plan_invariant(DeviceKind::Reference.with_faults(plan), seed, 0.02)?;
    }
}

/// Deterministic spot-check that adaptive planning actually exercises
/// both sides of the crossover on a realistic workload mix: tiny
/// selections plan software, a dense join at threshold 0 plans
/// hardware. (The property tests above prove the choice is *safe*;
/// this pins that it is *live*.)
#[test]
fn adaptive_planner_uses_both_backends() {
    let square = |x: f64, y: f64| {
        spatial_geom::Polygon::from_coords(&[
            (x, y),
            (x + 2.0, y),
            (x + 2.0, y + 2.0),
            (x, y + 2.0),
        ])
    };
    let boxes: Vec<_> = (0..8).map(|i| square(i as f64 * 1.5, 0.0)).collect();
    let engine = QueryEngine::new(
        ServiceConfig {
            base: EngineConfig::hardware(HwConfig::at_resolution(8).with_threshold(0)),
            ..ServiceConfig::default()
        },
        ServiceSnapshot::new().with(PreparedDataset::new("boxes", boxes)),
    );
    // A selection over a handful of 4-vertex squares: the software
    // sweep estimate (~80 ns/pair) can never justify the fixed draw +
    // readback overhead, so the plan must be software.
    let window = square(1.0, 0.5);
    let sel = engine
        .execute(&QueryRequest::intersection_selection(
            "boxes",
            window.clone(),
        ))
        .unwrap();
    assert!(
        !sel.plan.is_hardware(),
        "tiny selection should plan software, got {:?}",
        sel.plan
    );
    // Repeat shape: second plan comes from the memo.
    let again = engine
        .execute(&QueryRequest::intersection_selection("boxes", window))
        .unwrap();
    assert!(again.plan_cached, "repeat shape should hit the plan memo");
    assert_eq!(again.plan, sel.plan);
    let stats = engine.stats();
    assert!(stats.balanced());
    assert_eq!(stats.plan_cache_hits, 1);

    // A join over dense many-vertex rings: the software sweep estimate
    // (~vertices × 10 ns per pair) dwarfs the modeled raster cost, so
    // the planner must cross over to hardware.
    let ring = |cx: f64, cy: f64, n: usize| {
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64 * std::f64::consts::TAU;
                (cx + 4.0 * t.cos(), cy + 4.0 * t.sin())
            })
            .collect();
        spatial_geom::Polygon::from_coords(&pts)
    };
    let dense_a: Vec<_> = (0..6).map(|i| ring(i as f64 * 0.5, 0.0, 400)).collect();
    let dense_b: Vec<_> = (0..6).map(|i| ring(i as f64 * 0.5, 1.0, 400)).collect();
    let dense = QueryEngine::new(
        ServiceConfig {
            base: EngineConfig::hardware(HwConfig::at_resolution(8).with_threshold(0)),
            ..ServiceConfig::default()
        },
        ServiceSnapshot::new()
            .with(PreparedDataset::new("rings-a", dense_a))
            .with(PreparedDataset::new("rings-b", dense_b)),
    );
    let join = dense
        .execute(&QueryRequest::intersection_join("rings-a", "rings-b"))
        .unwrap();
    assert!(
        join.plan.is_hardware(),
        "dense join should plan hardware, got {:?}",
        join.plan
    );
    assert!(dense.stats().balanced());
}

/// Unknown datasets are a counted, non-fatal outcome.
#[test]
fn unknown_dataset_is_accounted() {
    let engine = QueryEngine::new(ServiceConfig::default(), snapshot(7));
    let queries = spatial_datagen::states50(7);
    let err = engine
        .execute(&QueryRequest::intersection_selection(
            "no-such-dataset",
            queries.polygons[0].clone(),
        ))
        .unwrap_err();
    assert!(matches!(
        err,
        hwa_core::service::ServiceError::UnknownDataset(_)
    ));
    let stats = engine.stats();
    assert!(stats.balanced());
    assert_eq!(stats.unknown_dataset, 1);
    assert_eq!(stats.completed, 0);
}
