//! Cross-crate integration tests: every hardware-assisted pipeline must
//! produce exactly the software pipeline's results, over freshly generated
//! workloads with multiple seeds, resolutions, thresholds and strategies.

use hwspatial::core::engine::{EngineConfig, PreparedDataset, SpatialEngine};
use hwspatial::core::HwConfig;
use hwspatial::datagen;
use hwspatial::raster::OverlapStrategy;

const SCALE: f64 = 0.004;

fn prepare(ds: datagen::Dataset) -> PreparedDataset {
    PreparedDataset::new(ds.name, ds.polygons)
}

#[test]
fn selection_equivalence_across_seeds_and_resolutions() {
    for seed in [1u64, 2, 3] {
        let ds = prepare(datagen::water(SCALE, seed));
        let queries = datagen::states50(seed);
        let mut sw = SpatialEngine::new(EngineConfig::software());
        for res in [1usize, 4, 16] {
            let mut hw = SpatialEngine::new(EngineConfig::hardware(
                HwConfig::at_resolution(res).with_threshold(300),
            ));
            for q in queries.polygons.iter().take(6) {
                let (a, _) = sw.intersection_selection(&ds, q);
                let (b, _) = hw.intersection_selection(&ds, q);
                assert_eq!(a, b, "intersection: seed {seed} res {res}");
                let (a, _) = sw.containment_selection(&ds, q);
                let (b, _) = hw.containment_selection(&ds, q);
                assert_eq!(a, b, "containment: seed {seed} res {res}");
            }
        }
    }
}

#[test]
fn join_equivalence_across_strategies() {
    let a = prepare(datagen::landc(SCALE, 5));
    let b = prepare(datagen::lando(SCALE, 5));
    let mut sw = SpatialEngine::new(EngineConfig::software());
    let (expected, cost) = sw.intersection_join(&a, &b);
    assert!(cost.candidates >= expected.len());
    for strategy in [
        OverlapStrategy::Accumulation,
        OverlapStrategy::Blending,
        OverlapStrategy::Stencil,
    ] {
        let mut hw = SpatialEngine::new(EngineConfig::hardware(HwConfig {
            strategy,
            ..HwConfig::at_resolution(8)
        }));
        let (got, _) = hw.intersection_join(&a, &b);
        assert_eq!(got, expected, "{strategy:?}");
    }
}

#[test]
fn within_distance_equivalence_across_distances() {
    let a = prepare(datagen::water(SCALE, 7));
    let b = prepare(datagen::prism(SCALE, 7));
    let base = {
        let wa = datagen::water(SCALE, 7);
        let pb = datagen::prism(SCALE, 7);
        datagen::base_distance(&wa, &pb)
    };
    for f in [0.1, 1.0, 4.0] {
        let d = f * base;
        let mut sw = SpatialEngine::new(EngineConfig {
            use_object_filters: true,
            ..EngineConfig::software()
        });
        let mut hw = SpatialEngine::new(EngineConfig {
            use_object_filters: true,
            ..EngineConfig::hardware(HwConfig::recommended())
        });
        let (rs, _) = sw.within_distance_join(&a, &b, d);
        let (rh, _) = hw.within_distance_join(&a, &b, d);
        assert_eq!(rs, rh, "D = {f} × BaseD");
    }
}

#[test]
fn filters_are_result_invariant() {
    let ds = prepare(datagen::prism(SCALE, 9));
    let queries = datagen::states50(9);
    let q = &queries.polygons[2];

    let mut bare = SpatialEngine::new(EngineConfig::software());
    let mut filtered = SpatialEngine::new(EngineConfig {
        interior_filter_level: Some(5),
        ..EngineConfig::software()
    });
    let (a, _) = bare.intersection_selection(&ds, q);
    let (b, _) = filtered.intersection_selection(&ds, q);
    assert_eq!(a, b);
    let (a, _) = bare.containment_selection(&ds, q);
    let (b, _) = filtered.containment_selection(&ds, q);
    assert_eq!(a, b);
}

#[test]
fn containment_is_subset_of_intersection() {
    let ds = prepare(datagen::lando(SCALE, 11));
    let queries = datagen::states50(11);
    let mut e = SpatialEngine::new(EngineConfig::hardware(HwConfig::recommended()));
    for q in queries.polygons.iter().take(8) {
        let (inter, _) = e.intersection_selection(&ds, q);
        let (cont, _) = e.containment_selection(&ds, q);
        for i in &cont {
            assert!(
                inter.contains(i),
                "contained object {i} missing from intersection"
            );
        }
    }
}

#[test]
fn generation_is_deterministic_end_to_end() {
    let r1 = {
        let a = prepare(datagen::landc(SCALE, 13));
        let b = prepare(datagen::lando(SCALE, 13));
        let mut e = SpatialEngine::new(EngineConfig::hardware(HwConfig::recommended()));
        e.intersection_join(&a, &b).0
    };
    let r2 = {
        let a = prepare(datagen::landc(SCALE, 13));
        let b = prepare(datagen::lando(SCALE, 13));
        let mut e = SpatialEngine::new(EngineConfig::hardware(HwConfig::recommended()));
        e.intersection_join(&a, &b).0
    };
    assert_eq!(r1, r2);
}
