//! The fault injector around the one raster executor and the per-shard
//! device pool are transparent: a seeded fault plan and a dead shard 0
//! that every submission is aimed at each return exactly the clean,
//! single-device rows (areas bit-for-bit), and every hardware test the
//! clean run made is accounted for — executed on some shard or re-run by
//! the exact software fallback (DESIGN.md invariants 9 and 14).

use hwspatial::core::engine::{EngineConfig, PreparedDataset, SpatialEngine};
use hwspatial::core::{CostBreakdown, DeviceKind, FaultKind, FaultPlan, FaultTrigger, HwConfig};
use hwspatial::datagen;

const SCALE: f64 = 0.002;
const SEED: u64 = 7;
const RESOLUTION: usize = 16;

/// `(i, j, area bits)` — boolean joins carry 0 in the third slot, so one
/// comparison covers all three kinds and areas compare bit-for-bit.
type Rows = Vec<(usize, usize, u64)>;

fn prepare(ds: datagen::Dataset) -> PreparedDataset {
    PreparedDataset::new(ds.name, ds.polygons)
}

/// Threshold 0 sends every undecided pair to the hardware.
fn base() -> EngineConfig {
    EngineConfig {
        use_object_filters: true,
        ..EngineConfig::hardware(HwConfig::at_resolution(8).with_threshold(0))
    }
}

/// Intersection, within-distance and overlap-area joins under one engine
/// configuration.
fn run_joins(config: EngineConfig) -> [(Rows, CostBreakdown); 3] {
    let landc = datagen::landc(SCALE, SEED);
    let lando = datagen::lando(SCALE, SEED);
    let d = datagen::base_distance(&landc, &lando);
    let (a, b) = (prepare(landc), prepare(lando));
    let mut engine = SpatialEngine::new(config);
    let flags = |(rows, cost): (Vec<(usize, usize)>, CostBreakdown)| {
        (rows.into_iter().map(|(i, j)| (i, j, 0)).collect(), cost)
    };
    let (areas, area_cost) = engine.overlap_area_join(&a, &b, RESOLUTION);
    [
        flags(engine.intersection_join(&a, &b)),
        flags(engine.within_distance_join(&a, &b, d)),
        (
            areas
                .into_iter()
                .map(|(i, j, area)| (i, j, area.to_bits()))
                .collect(),
            area_cost,
        ),
    ]
}

#[test]
fn fault_and_shard_wrappers_never_change_rows_and_balance_the_ledger() {
    let transient = FaultPlan::new(11, FaultKind::ContextLost, FaultTrigger::EveryK(3));
    // Every submission is aimed at shard 0, so the pool's second device
    // serves only what fails over to it.
    let dead_first = FaultPlan::new(92, FaultKind::Timeout, FaultTrigger::EveryK(1)).on_shard(0);

    let wrapped = |device, shards| {
        let config = EngineConfig {
            device,
            shards,
            ..base()
        };
        run_joins(config)
    };
    let clean = wrapped(DeviceKind::Reference, 1);
    let variants = [
        (
            "seeded faults",
            wrapped(DeviceKind::Reference.with_faults(transient), 1),
        ),
        (
            "shards 2, dead shard 0",
            wrapped(DeviceKind::Reference.with_faults(dead_first), 2),
        ),
    ];

    let mut faults = [0usize; 2];
    let mut failovers = [0usize; 2];
    for (v, (variant, runs)) in variants.iter().enumerate() {
        for (kind, ((rows, cost), (clean_rows, clean_cost))) in
            ["intersection", "within-distance", "overlap-area"]
                .iter()
                .zip(runs.iter().zip(&clean))
        {
            assert!(
                clean_cost.tests.hw_tests > 0,
                "{kind}: nothing reached the device"
            );
            assert_eq!(rows, clean_rows, "{kind} rows changed under {variant}");
            assert_eq!(
                cost.tests.hw_tests + cost.tests.fallback_tests,
                clean_cost.tests.hw_tests,
                "{kind} ledger leaks under {variant}"
            );
            faults[v] += cost.tests.device_faults;
            failovers[v] += cost.tests.shard_failovers;
        }
    }
    // Each wrapper was actually exercised, not merely configured.
    assert!(faults[0] > 0, "the seeded plan never fired");
    assert!(faults[1] > 0, "the dead shard 0 never faulted");
    assert!(
        failovers[1] > 0,
        "work aimed at the dead shard 0 never failed over"
    );
}
