//! End-to-end verification (not a paper figure): runs the five query
//! kinds in software and hardware-assisted mode over the generated
//! workload at any `--scale` / `--seed` / `--queries` and requires
//! identical rows — "the hardware path is a pure optimization", checked
//! at workload scale. Exits 1 on any disagreement.
//!
//! Everything else that may not change a row (batching, threads, filter
//! knobs, faults, shards, partitions, the planner, brownouts) is stated
//! by the test suites at a fixed small scale: `cargo test --workspace`.

use hwa_core::engine::GeometryTest;
use hwa_core::HwConfig;
use spatial_bench::{engine_with, header, software_engine, BenchOpts, Workloads};
use spatial_raster::OverlapStrategy;

fn main() {
    let opts = BenchOpts::from_args();
    header(
        "Verify",
        "software vs hardware result equality across all pipelines",
        opts,
    );
    let w = Workloads::generate(opts);
    let mut failures = 0usize;
    let mut check = |same: bool, what: String| {
        if !same {
            println!("FAIL {what}");
            failures += 1;
        }
    };

    // Selections (intersection + containment) over both datasets.
    for ds in [&w.water, &w.prism] {
        let mut sw = software_engine();
        for (res, threshold) in [(1, 0), (8, 500), (32, 0)] {
            let mut hw = engine_with(
                GeometryTest::Hardware,
                HwConfig::at_resolution(res).with_threshold(threshold),
                Some(4),
                false,
            );
            for q in w.states50.polygons.iter().take(opts.queries) {
                check(
                    sw.intersection_selection(ds, q).0 == hw.intersection_selection(ds, q).0,
                    format!("intersection_selection {} res {res}", ds.name),
                );
                check(
                    sw.containment_selection(ds, q).0 == hw.containment_selection(ds, q).0,
                    format!("containment_selection {} res {res}", ds.name),
                );
            }
        }
        println!("selections over {} checked", ds.name);
    }

    // Intersection joins under every overlap strategy at the recommended
    // operating point.
    for (a, b) in [(&w.landc, &w.lando), (&w.water, &w.prism)] {
        let (expected, _) = software_engine().intersection_join(a, b);
        for strategy in [
            OverlapStrategy::Accumulation,
            OverlapStrategy::Blending,
            OverlapStrategy::Stencil,
        ] {
            let hw = HwConfig {
                strategy,
                ..HwConfig::recommended()
            };
            let (got, _) =
                engine_with(GeometryTest::Hardware, hw, None, false).intersection_join(a, b);
            check(
                got == expected,
                format!("intersection_join {} ⋈ {} {strategy:?}", a.name, b.name),
            );
        }
        println!(
            "intersection join {} ⋈ {} checked ({} results)",
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
        let mut sw = engine_with(GeometryTest::Software, HwConfig::recommended(), None, true);
        let mut hw = engine_with(
            GeometryTest::Hardware,
            HwConfig::at_resolution(8).with_threshold(500),
            None,
            true,
        );
        for f in [0.1, 1.0, 4.0] {
            check(
                sw.within_distance_join(a, b, f * base).0
                    == hw.within_distance_join(a, b, f * base).0,
                format!("within_distance_join {} ⋈ {} D={f}×BaseD", a.name, b.name),
            );
        }
        println!("within-distance join {} ⋈ {} checked", a.name, b.name);
    }

    // Area-of-overlap joins: a measurement, so the quantized areas must
    // agree bit for bit, not just the pairs.
    let bits = |rows: Vec<(usize, usize, f64)>| -> Vec<(usize, usize, u64)> {
        rows.into_iter()
            .map(|(i, j, area)| (i, j, area.to_bits()))
            .collect()
    };
    for (a, b) in [(&w.landc, &w.lando), (&w.water, &w.prism)] {
        let mut sw = software_engine();
        let mut hw = engine_with(
            GeometryTest::Hardware,
            HwConfig::at_resolution(8).with_threshold(0),
            None,
            true,
        );
        for res in [4, 16, 48] {
            check(
                bits(sw.overlap_area_join(a, b, res).0) == bits(hw.overlap_area_join(a, b, res).0),
                format!("overlap_area_join {} ⋈ {} res {res}", a.name, b.name),
            );
        }
        println!("overlap-area join {} ⋈ {} checked", a.name, b.name);
    }

    if failures == 0 {
        println!("\nALL PIPELINES VERIFIED: hardware assistance never changes results.");
    } else {
        println!("\n{failures} FAILURES");
        std::process::exit(1);
    }
}
