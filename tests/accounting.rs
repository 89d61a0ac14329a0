//! Integration tests for the cost accounting: candidate conservation, the
//! refinement routing invariants, and the simulated-hardware cost model.

use hwspatial::core::engine::{EngineConfig, PreparedDataset, SpatialEngine};
use hwspatial::core::HwConfig;
use hwspatial::datagen;
use hwspatial::raster::{HwCostModel, HwStats};

const SCALE: f64 = 0.004;

fn prepare(ds: datagen::Dataset) -> PreparedDataset {
    PreparedDataset::new(ds.name, ds.polygons)
}

/// Every MBR candidate of a hardware join — intersection and within
/// distance — is routed to exactly one fate: decided by point-in-polygon,
/// decided by the run boxes, skipped to software by the threshold, a width
/// fallback, or a device test; and every device test the device does not
/// reject runs the software step 3 once.
#[test]
fn candidate_routing_conserves() {
    let a = prepare(datagen::landc(SCALE, 21));
    let b = prepare(datagen::lando(SCALE, 21));
    let base_d = datagen::base_distance(&datagen::landc(SCALE, 21), &datagen::lando(SCALE, 21));
    let mut hw = SpatialEngine::new(EngineConfig::hardware(
        HwConfig::at_resolution(8).with_threshold(200),
    ));
    let (_, ij) = hw.intersection_join(&a, &b);
    let (_, dj) = hw.within_distance_join(&a, &b, base_d);
    for (name, cost) in [("intersection", ij), ("within distance", dj)] {
        let t = &cost.tests;
        assert_eq!(
            t.decided_by_pip
                + t.decided_by_runs
                + t.skipped_by_threshold
                + t.width_limit_fallbacks
                + t.hw_tests,
            cost.candidates,
            "{name}: {t:?}"
        );
        assert_eq!(
            t.hw_tests + t.skipped_by_threshold + t.width_limit_fallbacks,
            t.rejected_by_hw + t.software_tests,
            "{name}: {t:?}"
        );
        assert!(
            t.hw_tests > 0 && t.skipped_by_threshold > 0,
            "{name}: {t:?}"
        );
        assert!(cost.results <= cost.candidates);
    }
}

/// The software engine and a hardware engine that sends every pair its
/// prologue leaves undecided to software (`sw_threshold = usize::MAX`)
/// return the same rows and count the same point-in-polygon exits, on all
/// four boolean query kinds: intersection and containment selections,
/// intersection and within-distance joins.
#[test]
fn software_and_all_software_hardware_count_the_same_pip_exits() {
    const SMALL: f64 = 0.002;
    let water = prepare(datagen::water(SMALL, 3));
    let (landc, lando) = (datagen::landc(SMALL, 3), datagen::lando(SMALL, 3));
    let base_d = datagen::base_distance(&landc, &lando);
    let (landc, lando) = (prepare(landc), prepare(lando));
    let queries = datagen::states50(3);
    let mut sw = SpatialEngine::new(EngineConfig::software());
    let mut hw = SpatialEngine::new(EngineConfig::hardware(
        HwConfig::at_resolution(8).with_threshold(usize::MAX),
    ));
    let mut pips = [0usize; 4];
    for q in queries.polygons.iter().take(10) {
        let (rows, s) = sw.intersection_selection(&water, q);
        let (hw_rows, h) = hw.intersection_selection(&water, q);
        assert_eq!(
            (rows, s.tests.decided_by_pip),
            (hw_rows, h.tests.decided_by_pip)
        );
        pips[0] += s.tests.decided_by_pip;
        let (rows, s) = sw.containment_selection(&water, q);
        let (hw_rows, h) = hw.containment_selection(&water, q);
        assert_eq!(
            (rows, s.tests.decided_by_pip),
            (hw_rows, h.tests.decided_by_pip)
        );
        pips[1] += s.tests.decided_by_pip;
    }
    let (rows, s) = sw.intersection_join(&landc, &lando);
    let (hw_rows, h) = hw.intersection_join(&landc, &lando);
    assert_eq!(
        (rows, s.tests.decided_by_pip),
        (hw_rows, h.tests.decided_by_pip)
    );
    pips[2] += s.tests.decided_by_pip;
    let (rows, s) = sw.within_distance_join(&landc, &lando, base_d);
    let (hw_rows, h) = hw.within_distance_join(&landc, &lando, base_d);
    assert_eq!(
        (rows, s.tests.decided_by_pip),
        (hw_rows, h.tests.decided_by_pip)
    );
    pips[3] += s.tests.decided_by_pip;
    assert!(pips.iter().all(|&n| n > 0), "{pips:?}");
}

/// Hardware work counters grow monotonically with window resolution for
/// the per-pixel terms (scans), and the modeled GPU time reflects that.
#[test]
fn pixel_work_grows_with_resolution() {
    let a = prepare(datagen::water(SCALE, 22));
    let b = prepare(datagen::prism(SCALE, 22));
    let mut prev_scanned = 0usize;
    for res in [2usize, 8, 32] {
        let mut hw = SpatialEngine::new(EngineConfig::hardware(HwConfig::at_resolution(res)));
        let (_, cost) = hw.intersection_join(&a, &b);
        assert!(
            cost.tests.hw.pixels_scanned > prev_scanned,
            "scanned pixels must grow with resolution"
        );
        prev_scanned = cost.tests.hw.pixels_scanned;
    }
}

/// The cost model is linear in its counters and respects the speed-up knob.
#[test]
fn cost_model_linear_and_scalable() {
    let model = HwCostModel::default();
    let s1 = HwStats {
        pixels_written: 10,
        fragments_tested: 100,
        pixels_scanned: 200,
        primitives: 50,
        draw_calls: 2,
        minmax_queries: 1,
        batches: 1,
    };
    let mut s2 = s1;
    s2.add(&s1);
    let t1 = model.time(&s1);
    let t2 = model.time(&s2);
    let ratio = t2.as_nanos() as f64 / t1.as_nanos() as f64;
    assert!(
        (ratio - 2.0).abs() < 0.01,
        "doubling work doubles time: {ratio}"
    );

    let slow = HwCostModel::with_speedup(10.0);
    let fast = HwCostModel::with_speedup(100.0);
    assert!(slow.time(&s1) > fast.time(&s1));
}

/// The software engine must never touch simulated hardware.
#[test]
fn software_engine_uses_no_hardware() {
    let ds = prepare(datagen::water(SCALE, 23));
    let queries = datagen::states50(23);
    let mut sw = SpatialEngine::new(EngineConfig::software());
    let (_, cost) = sw.intersection_selection(&ds, &queries.polygons[0]);
    assert_eq!(cost.tests.hw_tests, 0);
    assert_eq!(cost.tests.hw.pixels_scanned, 0);
    assert_eq!(cost.tests.gpu_modeled, std::time::Duration::ZERO);
}

/// Reported geometry time uses the model: it equals measured wall time
/// minus simulation time plus modeled GPU time, so it must always be at
/// least the modeled GPU share.
#[test]
fn reported_time_includes_modeled_gpu() {
    let a = prepare(datagen::landc(SCALE, 24));
    let b = prepare(datagen::lando(SCALE, 24));
    let mut hw = SpatialEngine::new(EngineConfig::hardware(HwConfig::at_resolution(16)));
    let (_, cost) = hw.intersection_join(&a, &b);
    assert!(
        cost.tests.hw_tests > 0,
        "workload must exercise the hardware"
    );
    assert!(cost.geometry_comparison >= cost.tests.gpu_modeled);
    assert!(cost.tests.sim_wall > std::time::Duration::ZERO);
}

/// Dataset statistics honour the Table 2 contract at any scale.
#[test]
fn table2_contract() {
    for (ds, max) in [
        (datagen::landc(SCALE, 25), 4_397usize),
        (datagen::lando(SCALE, 25), 8_807),
        (datagen::prism(SCALE, 25), 29_556),
        (datagen::water(SCALE, 25), 39_360),
    ] {
        let s = ds.stats();
        assert_eq!(s.max_vertices, max, "{}", ds.name);
        assert!(s.min_vertices >= 3);
        assert!(s.n >= 12);
    }
    assert_eq!(datagen::states50(25).stats().n, 31);
}
