//! The wrappers around the one raster executor are transparent: a seeded
//! fault injector, a sharded partition grid and a permanently dead shard
//! each return exactly the clean, unsharded rows (areas bit-for-bit), and
//! every hardware test the clean run made is accounted for — executed on
//! some shard or re-run by the exact software fallback (DESIGN.md
//! invariants 9, 12 and 14).

use hwspatial::core::engine::{EngineConfig, PreparedDataset, SpatialEngine};
use hwspatial::core::{
    CostBreakdown, DeviceKind, FaultKind, FaultPlan, FaultTrigger, HwConfig, PartitionConfig,
};
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

/// Intersection, within-distance and overlap-area joins under one engine
/// configuration. Threshold 0 sends every undecided pair to the hardware.
fn run_joins(device: DeviceKind, partition: PartitionConfig) -> [(Rows, CostBreakdown); 3] {
    let landc = datagen::landc(SCALE, SEED);
    let lando = datagen::lando(SCALE, SEED);
    let d = datagen::base_distance(&landc, &lando);
    let (a, b) = (prepare(landc), prepare(lando));
    let mut engine = SpatialEngine::new(EngineConfig {
        device,
        partition,
        use_object_filters: true,
        ..EngineConfig::hardware(HwConfig::at_resolution(8).with_threshold(0))
    });
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
    let flat = PartitionConfig::default();
    let sharded = PartitionConfig::grid(2).with_shards(2);
    let transient = FaultPlan::new(11, FaultKind::ContextLost, FaultTrigger::EveryK(3));
    let dead_shard = FaultPlan::new(91, FaultKind::Timeout, FaultTrigger::EveryK(1)).on_shard(1);

    let clean = run_joins(DeviceKind::Reference, flat);
    let variants = [
        (
            "seeded faults",
            run_joins(DeviceKind::Reference.with_faults(transient), flat),
        ),
        (
            "grid 2 × shards 2",
            run_joins(DeviceKind::Reference, sharded),
        ),
        (
            "dead shard 1",
            run_joins(DeviceKind::Reference.with_faults(dead_shard), sharded),
        ),
    ];

    let mut faults = [0usize; 3];
    let mut failovers = 0;
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
            failovers += cost.tests.shard_failovers;
        }
    }
    // Each wrapper was actually exercised, not merely configured.
    assert!(faults[0] > 0, "the seeded plan never fired");
    assert_eq!(faults[1], 0, "clean shards must not fault");
    assert!(faults[2] > 0, "the dead shard never faulted");
    assert!(
        failovers > 0,
        "work aimed at the dead shard never failed over"
    );
}
