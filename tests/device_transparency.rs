//! The fault injector around the one raster executor and the per-shard
//! device pool are transparent: a seeded fault plan and a dead shard 0
//! that every submission is aimed at each return exactly the clean,
//! single-device rows (areas bit-for-bit), and every hardware test the
//! clean run made is accounted for — executed on some shard or re-run by
//! the exact software fallback (DESIGN.md invariants 9 and 14). The
//! stage-1 filter's thread count is transparent the same way: one thread
//! or four, the filter emits the same candidates from the same node tests
//! (invariant 11).

use hwspatial::core::engine::{EngineConfig, PreparedDataset, SpatialEngine};
use hwspatial::core::{CostBreakdown, DeviceKind, FaultKind, FaultPlan, FaultTrigger, HwConfig};
use hwspatial::datagen;

const SCALE: f64 = 0.002;
/// Large enough that the tree join dispenses several page-pair work units,
/// so four filter threads really do split the traversal.
const FILTER_SCALE: f64 = 0.02;
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
fn run_joins(scale: f64, config: EngineConfig) -> [(Rows, CostBreakdown); 3] {
    let landc = datagen::landc(scale, SEED);
    let lando = datagen::lando(scale, SEED);
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
        run_joins(SCALE, config)
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
    // Invariant 11, against the shipped knobs (one filter thread) —
    // on the clean device and with the seeded plan firing underneath: the
    // filter is upstream of the device, so recovery sees the same stream.
    let emitted = |c: &CostBreakdown| {
        (
            c.candidates,
            c.node_tests,
            c.tests.hw_tests,
            c.tests.fallback_tests,
        )
    };
    for device in [
        DeviceKind::Reference,
        DeviceKind::Reference.with_faults(transient),
    ] {
        let on_device = EngineConfig { device, ..base() };
        let shipped = run_joins(FILTER_SCALE, on_device.clone());
        let config = EngineConfig {
            filter_threads: 4,
            ..on_device.clone()
        };
        let knobs = format!("filter_threads 4 on {:?}", on_device.device);
        for ((rows, cost), (shipped_rows, shipped_cost)) in
            run_joins(FILTER_SCALE, config).iter().zip(&shipped)
        {
            assert!(
                cost.filter_work_units > 1,
                "one work unit: nothing for threads to split"
            );
            assert_eq!(rows, shipped_rows, "rows changed under {knobs}");
            assert_eq!(
                emitted(cost),
                emitted(shipped_cost),
                "stage 1, or the recovery under it, moved under {knobs}"
            );
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
