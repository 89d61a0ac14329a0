//! The serving layer answers exactly what the batch engine answers, from
//! one stage-1 pass: for every query kind and planner mode, a served
//! query's rows and filter-stage accounting equal the direct
//! `SpatialEngine` call's (DESIGN.md invariant 13), and refused queries
//! leave a balanced ledger.

use hwspatial::core::engine::{EngineConfig, PreparedDataset, SpatialEngine};
use hwspatial::core::service::{
    QueryBudget, QueryEngine, QueryKind, QueryRequest, QueryRows, ServiceConfig, ServiceError,
    ServiceSnapshot,
};
use hwspatial::core::{CostBreakdown, GeometryTest, HwConfig, PlannerConfig, PlannerMode};
use hwspatial::datagen;
use hwspatial::geom::Polygon;

const SCALE: f64 = 0.002;
const SEED: u64 = 7;
const RESOLUTION: usize = 16;

fn prepare(ds: datagen::Dataset) -> PreparedDataset {
    PreparedDataset::new(ds.name, ds.polygons)
}

/// Both intermediate filters on, so `filter_hits` has something to pin.
fn base_config() -> EngineConfig {
    EngineConfig {
        interior_filter_level: Some(4),
        use_object_filters: true,
        ..EngineConfig::hardware(HwConfig::at_resolution(8))
    }
}

fn service(mode: PlannerMode) -> QueryEngine {
    let snapshot = ServiceSnapshot::new()
        .with(prepare(datagen::landc(SCALE, SEED)))
        .with(prepare(datagen::lando(SCALE, SEED)));
    let config = ServiceConfig {
        base: base_config(),
        planner: PlannerConfig {
            mode,
            ..PlannerConfig::default()
        },
        ..ServiceConfig::default()
    };
    QueryEngine::new(config, snapshot)
}

/// The direct `SpatialEngine` answer for `kind`.
fn direct(
    kind: &QueryKind,
    a: &PreparedDataset,
    b: &PreparedDataset,
) -> (QueryRows, CostBreakdown) {
    let mut engine = SpatialEngine::new(EngineConfig {
        geometry_test: GeometryTest::Software,
        ..base_config()
    });
    match kind {
        QueryKind::IntersectionSelection { query, .. } => {
            let (rows, cost) = engine.intersection_selection(a, query);
            (QueryRows::Selection(rows), cost)
        }
        QueryKind::ContainmentSelection { query, .. } => {
            let (rows, cost) = engine.containment_selection(a, query);
            (QueryRows::Selection(rows), cost)
        }
        QueryKind::IntersectionJoin { .. } => {
            let (rows, cost) = engine.intersection_join(a, b);
            (QueryRows::Join(rows), cost)
        }
        QueryKind::WithinDistanceJoin { distance, .. } => {
            let (rows, cost) = engine.within_distance_join(a, b, *distance);
            (QueryRows::Join(rows), cost)
        }
        QueryKind::OverlapArea { resolution, .. } => {
            let (rows, cost) = engine.overlap_area_join(a, b, *resolution);
            (QueryRows::AreaJoin(rows), cost)
        }
    }
}

fn window() -> Polygon {
    datagen::states50(SEED).polygons[0].clone()
}

fn requests() -> Vec<QueryRequest> {
    let d =
        0.5 * datagen::base_distance(&datagen::landc(SCALE, SEED), &datagen::lando(SCALE, SEED));
    vec![
        QueryRequest::intersection_selection("LANDC", window()),
        QueryRequest::containment_selection("LANDC", window()),
        QueryRequest::intersection_join("LANDC", "LANDO"),
        QueryRequest::within_distance_join("LANDC", "LANDO", d),
        QueryRequest::overlap_area_join("LANDC", "LANDO", RESOLUTION),
    ]
}

#[test]
fn served_rows_and_filter_accounting_equal_the_direct_call() {
    let a = prepare(datagen::landc(SCALE, SEED));
    let b = prepare(datagen::lando(SCALE, SEED));
    let mut nonempty = 0;
    for mode in [
        PlannerMode::Adaptive,
        PlannerMode::ForceSoftware,
        PlannerMode::ForceHardware,
    ] {
        let engine = service(mode);
        for req in requests() {
            let tag = format!("{mode:?} {}", req.kind.name());
            let (rows, cost) = direct(&req.kind, &a, &b);
            let resp = engine.execute(&req).expect("no budget set, must complete");
            assert_eq!(resp.rows, rows, "{tag}");
            if let (QueryRows::AreaJoin(got), QueryRows::AreaJoin(want)) = (&resp.rows, &rows) {
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(
                        g.2.to_bits(),
                        w.2.to_bits(),
                        "{tag}: area of {:?}",
                        (g.0, g.1)
                    );
                }
            }
            // One pass, the same pass: what the budget and the planner
            // saw is what the executor consumed, and it is what the
            // batch engine enumerates.
            assert_eq!(resp.candidates, resp.cost.candidates, "{tag}");
            assert_eq!(resp.cost.candidates, cost.candidates, "{tag}");
            assert_eq!(resp.cost.node_tests, cost.node_tests, "{tag}");
            assert_eq!(resp.cost.filter_hits, cost.filter_hits, "{tag}");
            assert_eq!(resp.cost.results, cost.results, "{tag}");
            nonempty += usize::from(!rows.is_empty());
        }
        let stats = engine.stats();
        assert!(stats.balanced(), "{mode:?}: {stats:?}");
        assert_eq!(stats.completed, 5, "{mode:?}");
    }
    assert!(nonempty >= 9, "the fixtures must exercise the pipelines");
}

#[test]
fn refused_queries_return_typed_errors_with_a_balanced_ledger() {
    let engine = service(PlannerMode::Adaptive);
    let err = engine
        .execute(&QueryRequest::intersection_join("LANDC", "nowhere"))
        .unwrap_err();
    assert_eq!(err, ServiceError::UnknownDataset("nowhere".into()));
    let over_budget = QueryRequest::intersection_join("LANDC", "LANDO").with_budget(QueryBudget {
        deadline: None,
        max_candidates: Some(0),
    });
    let err = engine.execute(&over_budget).unwrap_err();
    assert!(
        matches!(
            err,
            ServiceError::CandidateBudgetExceeded { candidates, max_candidates: 0 } if candidates > 0
        ),
        "unexpected error: {err:?}"
    );
    let err = engine
        .execute(&QueryRequest::overlap_area_join("LANDC", "LANDO", 0))
        .unwrap_err();
    assert!(matches!(err, ServiceError::InvalidQuery { .. }), "{err:?}");
    assert_eq!(engine.in_flight(), 0);
    let stats = engine.stats();
    assert!(stats.balanced(), "{stats:?}");
    assert_eq!(
        (
            stats.unknown_dataset,
            stats.budget_aborts,
            stats.invalid_queries
        ),
        (1, 1, 1)
    );
    assert!(engine
        .execute(&QueryRequest::intersection_join("LANDC", "LANDO"))
        .is_ok());
    assert!(engine.stats().balanced());
}
