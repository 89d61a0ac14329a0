//! Figure 16: within-distance join performance as a function of the query
//! distance D, hardware at 8×8 with `sw_threshold = 500` step-3 edges vs
//! software, joins (a) LANDC ⋈ LANDO and (b) WATER ⋈ PRISM.
//!
//! Expected shape: the hardware margin narrows as D grows — wider lines
//! cost more to render, and once Eq. 1 exceeds the 10-pixel line-width
//! limit pairs revert to software, collapsing the margin (the paper: from
//! 43% to ≈0 on LANDC ⋈ LANDO, from 83% to 74% on WATER ⋈ PRISM).

use hwa_core::engine::{GeometryTest, PreparedDataset};
use hwa_core::HwConfig;
use spatial_bench::{engine_with, header, ms, BenchOpts, Workloads, DISTANCE_FACTORS};

fn run(a: &PreparedDataset, b: &PreparedDataset, base_d: f64) {
    println!(
        "\n--- join {} ⋈dist {} | window 8x8, sw_threshold 500 step-3 edges | geometry cost (ms total) ---",
        a.name, b.name
    );
    println!(
        "{:>7} {:>11} {:>11} {:>8} {:>11} {:>8} {:>10} {:>8}",
        "D/BaseD", "sw ms", "hw ms", "vs sw", "hw rejects", "by runs", "wid.fall", "results"
    );
    for f in DISTANCE_FACTORS {
        let d = f * base_d;
        let mut sw = engine_with(GeometryTest::Software, HwConfig::recommended(), None, true);
        let (sw_results, sw_cost) = sw.within_distance_join(a, b, d);
        let mut hw = engine_with(
            GeometryTest::Hardware,
            HwConfig::at_resolution(8).with_threshold(500),
            None,
            true,
        );
        let (hw_results, hw_cost) = hw.within_distance_join(a, b, d);
        assert_eq!(sw_results, hw_results);
        let (s, h) = (
            ms(sw_cost.geometry_comparison),
            ms(hw_cost.geometry_comparison),
        );
        println!(
            "{:>7.1} {:>11.1} {:>11.1} {:>7.0}% {:>11} {:>8} {:>10} {:>8}",
            f,
            s,
            h,
            100.0 * h / s,
            hw_cost.tests.rejected_by_hw,
            hw_cost.tests.decided_by_runs,
            hw_cost.tests.width_limit_fallbacks,
            hw_results.len(),
        );
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    header(
        "Figure 16",
        "within-distance join vs query distance (hardware 8x8, threshold 500 step-3 edges)",
        opts,
    );
    let w = Workloads::generate(opts);
    run(&w.landc, &w.lando, w.base_d_landc_lando);
    run(&w.water, &w.prism, w.base_d_water_prism);
}
