//! One tester path: on a small LANDC ⋈ LANDO candidate set the per-pair
//! and atlas-batched submissions of `HwTester` decide every predicate
//! identically, a reused tester decides and charges exactly what a fresh
//! tester per pair does (device purity, a slice of DESIGN.md invariant 8),
//! and the within-distance join returns the software rows at every
//! distance a caller can spell — zero, denormal-small, overflow-large and
//! infinite — while the service refuses what is not a distance at all,
//! and the hardware and software tests answer that no pair is within it.

use hwspatial::core::engine::{EngineConfig, PreparedDataset, SpatialEngine};
use hwspatial::core::service::{
    PlannerConfig, PlannerMode, QueryEngine, QueryRequest, QueryRows, ServiceConfig, ServiceError,
    ServiceSnapshot,
};
use hwspatial::core::{
    hw_within_distance, CostBreakdown, HwConfig, HwTester, Predicate, TestStats,
};
use hwspatial::datagen;
use hwspatial::geom::{within_distance, Polygon};
use hwspatial::index::{join_within_distance_with, FilterConfig, FilterStats};

const SCALE: f64 = 0.002;
const SEED: u64 = 7;

fn prepare(ds: datagen::Dataset) -> PreparedDataset {
    PreparedDataset::new(ds.name, ds.polygons)
}

fn corpus() -> (PreparedDataset, PreparedDataset, f64) {
    let (a, b) = (datagen::landc(SCALE, SEED), datagen::lando(SCALE, SEED));
    let base_d = datagen::base_distance(&a, &b);
    (prepare(a), prepare(b), base_d)
}

/// The stage-1 candidates of the within-`d` join, as polygon pairs.
fn candidates<'a>(
    a: &'a PreparedDataset,
    b: &'a PreparedDataset,
    d: f64,
) -> Vec<(&'a Polygon, &'a Polygon)> {
    let (cfg, mut stats) = (FilterConfig::default(), FilterStats::default());
    join_within_distance_with(&a.tree, &b.tree, d, &cfg, &mut stats)
        .into_iter()
        .map(|(i, j)| (a.polygon(*i), b.polygon(*j)))
        .collect()
}

/// Threshold 0 sends every pair the prologue cannot decide to the device.
fn hw_config() -> HwConfig {
    HwConfig::at_resolution(8)
}

fn predicates(base_d: f64) -> [Predicate; 3] {
    [
        Predicate::Intersects,
        Predicate::ContainedIn,
        Predicate::WithinDistance(0.5 * base_d),
    ]
}

#[test]
fn per_pair_and_batched_submission_decide_identically() {
    let (a, b, base_d) = corpus();
    let pairs = candidates(&a, &b, 0.5 * base_d);
    for pred in predicates(base_d) {
        let (mut sp, mut sb) = (TestStats::default(), TestStats::default());
        let mut tester = HwTester::new(hw_config());
        let per_pair: Vec<bool> = pairs
            .iter()
            .map(|&(p, q)| tester.test(pred, p, q, &mut sp))
            .collect();
        let batched: Vec<bool> = pairs
            .chunks(32)
            .flat_map(|group| tester.test_batch(pred, group, &mut sb))
            .collect();
        assert_eq!(per_pair, batched, "{pred:?}");
        assert_eq!(sp.decided_by_pip, sb.decided_by_pip, "{pred:?}");
        assert_eq!(sp.rejected_by_hw, sb.rejected_by_hw, "{pred:?}");
        assert_eq!(sp.software_tests, sb.software_tests, "{pred:?}");
        assert_eq!(sp.hw_tests, sb.hw_tests, "{pred:?}");
        assert!(sp.hw_tests > 0, "{pred:?} must reach the device: {sp:?}");
        assert!(sb.hw_batches > 0 && sb.hw_batches < sb.hw_tests, "{sb:?}");
    }
}

#[test]
fn a_reused_tester_changes_no_row_and_no_charged_counter() {
    let (a, b, base_d) = corpus();
    let pairs = candidates(&a, &b, 0.5 * base_d);
    for pred in predicates(base_d) {
        let (mut sr, mut sf) = (TestStats::default(), TestStats::default());
        let mut reused = HwTester::new(hw_config());
        for &(p, q) in &pairs {
            let fresh = HwTester::new(hw_config()).test(pred, p, q, &mut sf);
            assert_eq!(reused.test(pred, p, q, &mut sr), fresh, "{pred:?}");
        }
        assert_eq!(sr.hw, sf.hw, "{pred:?}: all seven HwStats counters");
        assert_eq!(sr.gpu_modeled, sf.gpu_modeled, "{pred:?}");
        assert_eq!(sr.hw_tests, sf.hw_tests, "{pred:?}");
        assert_eq!(sr.rejected_by_hw, sf.rejected_by_hw, "{pred:?}");
        assert_eq!(sr.software_tests, sf.software_tests, "{pred:?}");
        assert!(sr.hw_tests > 0, "{pred:?} must reach the device: {sr:?}");
    }
}

fn within_rows(
    cfg: EngineConfig,
    a: &PreparedDataset,
    b: &PreparedDataset,
    d: f64,
) -> (Vec<(usize, usize)>, CostBreakdown) {
    SpatialEngine::new(cfg).within_distance_join(a, b, d)
}

/// The first `n` polygons of `ds`, re-indexed.
fn head(ds: &PreparedDataset, n: usize) -> PreparedDataset {
    PreparedDataset::new(ds.name.clone(), ds.polygons[..n].to_vec())
}

#[test]
fn every_spellable_distance_returns_the_software_rows() {
    let (a, b, base_d) = corpus();
    // At an overflow-large finite distance every pair reaches the device
    // over a window its whole corpus collapses into; a corner of the
    // corpus keeps that simulation inside tier-1's budget.
    let (a_head, b_head) = (head(&a, 4), head(&b, 8));
    let hardware = |hw_batch| EngineConfig {
        hw_batch,
        ..EngineConfig::hardware(hw_config())
    };
    for d in [0.0, 1e-300, base_d, 1e300, f64::MAX, f64::INFINITY] {
        let (a, b) = if d.is_finite() && d > base_d {
            (&a_head, &b_head)
        } else {
            (&a, &b)
        };
        let (expected, _) = within_rows(EngineConfig::software(), a, b, d);
        if d > base_d {
            assert_eq!(expected.len(), a.len() * b.len(), "d = {d:e}: every pair");
        }
        for hw_batch in [1, 32] {
            let (rows, cost) = within_rows(hardware(hw_batch), a, b, d);
            assert_eq!(
                rows.len(),
                expected.len(),
                "d = {d:e}, hw_batch = {hw_batch}"
            );
            assert_eq!(rows, expected, "d = {d:e}, hw_batch = {hw_batch}");
            if d.is_infinite() {
                // No window can project an unbounded region: the device
                // sees nothing, the exact software test answers.
                assert_eq!(cost.tests.hw_tests, 0, "hw_batch = {hw_batch}");
                assert!(cost.tests.width_limit_fallbacks > 0);
            } else {
                assert!(cost.tests.hw_tests > 0, "d = {d:e}: {:?}", cost.tests);
            }
        }
    }
}

#[test]
fn the_service_serves_infinity_and_refuses_what_is_not_a_distance() {
    let (a, b, _) = corpus();
    let (expected, _) = within_rows(EngineConfig::software(), &a, &b, f64::INFINITY);
    let config = ServiceConfig {
        base: EngineConfig::hardware(hw_config()),
        planner: PlannerConfig {
            mode: PlannerMode::ForceHardware,
            ..PlannerConfig::default()
        },
        ..ServiceConfig::default()
    };
    let engine = QueryEngine::new(config, ServiceSnapshot::new().with(a).with(b));
    let join = |d| engine.execute(&QueryRequest::within_distance_join("LANDC", "LANDO", d));

    let served = join(f64::INFINITY).expect("+inf is a legal distance");
    assert!(served.plan.is_hardware());
    assert_eq!(served.rows.len(), expected.len());
    assert_eq!(served.rows, QueryRows::Join(expected));

    for d in [f64::NAN, -1.0] {
        let err = join(d).expect_err("not a distance");
        assert!(
            matches!(err, ServiceError::InvalidQuery { .. }),
            "d = {d}: {err}"
        );
    }
    let stats = engine.stats();
    assert_eq!((stats.completed, stats.invalid_queries), (1, 2));
    assert!(stats.balanced(), "{stats:?}");
}

fn square(x: f64, y: f64, side: f64) -> Polygon {
    Polygon::from_coords(&[(x, y), (x + side, y), (x + side, y + side), (x, y + side)])
}

/// No pair is within a NaN or a negative distance — not even one square
/// inside another, which point-in-polygon would otherwise answer — and
/// `-0.0` is zero: squares that share a side are within it.
#[test]
fn no_pair_is_within_a_distance_that_is_not_one() {
    let (outer, inner) = (square(0.0, 0.0, 4.0), square(1.0, 1.0, 1.0));
    let (left, right) = (square(0.0, 0.0, 1.0), square(1.0, 0.0, 1.0));
    let cases = [
        (&outer, &inner, f64::NAN, false),
        (&outer, &inner, -1.0, false),
        (&outer, &inner, -f64::MIN_POSITIVE, false),
        (&left, &right, f64::NAN, false),
        (&left, &right, -0.0, true),
    ];
    for (p, q, d, expected) in cases {
        assert_eq!(within_distance(p, q, d), expected, "software, d = {d:e}");
        for cfg in [HwConfig::recommended(), hw_config()] {
            assert_eq!(
                hw_within_distance(p, q, d, cfg),
                expected,
                "hardware {cfg:?}, d = {d:e}"
            );
        }
    }
}
