//! Figure 15: within-distance join geometry-comparison cost, software vs
//! hardware-assisted vs window resolution, D = 1 × BaseD,
//! `sw_threshold = 0`, joins (a) LANDC ⋈ LANDO and (b) WATER ⋈ PRISM.
//!
//! Expected shape: like the intersection sweeps, cost falls then rises
//! with resolution; widened lines are pricier to render than unit-width
//! ones, so the hardware "barely outperforms" software on the simpler
//! LANDC ⋈ LANDO but saves 60–81% on WATER ⋈ PRISM. Width-limit
//! fallbacks (Eq. 1 > 10 px) are reported — they revert pairs to software.

use hwa_core::engine::{GeometryTest, PreparedDataset};
use hwa_core::HwConfig;
use spatial_bench::{engine_with, header, ms, BenchOpts, Workloads, RESOLUTIONS};

fn run(a: &PreparedDataset, b: &PreparedDataset, base_d: f64) {
    let d = base_d;
    println!(
        "\n--- join {} ⋈dist {} | D = 1×BaseD = {:.1} | geometry cost (ms total) ---",
        a.name, b.name, d
    );
    let mut sw = engine_with(GeometryTest::Software, HwConfig::recommended(), None, true);
    let (sw_results, sw_cost) = sw.within_distance_join(a, b, d);
    let sw_ms = ms(sw_cost.geometry_comparison);
    println!(
        "software: {:>10.1} ms | candidates {} results {}",
        sw_ms,
        sw_cost.candidates,
        sw_results.len()
    );
    println!(
        "{:>6} {:>12} {:>9} {:>11} {:>8} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "res",
        "hw ms",
        "vs sw",
        "hw rejects",
        "by runs",
        "sw tests",
        "wid.fall",
        "hw tests",
        "gpu ms",
        "sim ms"
    );
    for res in RESOLUTIONS {
        let mut hw = engine_with(
            GeometryTest::Hardware,
            HwConfig::at_resolution(res),
            None,
            true,
        );
        let (results, cost) = hw.within_distance_join(a, b, d);
        assert_eq!(results, sw_results, "hardware must not change results");
        let hw_ms = ms(cost.geometry_comparison);
        println!(
            "{:>4}x{:<2} {:>12.1} {:>8.0}% {:>11} {:>8} {:>10} {:>10} {:>10} {:>9.1} {:>9.1}",
            res,
            res,
            hw_ms,
            100.0 * hw_ms / sw_ms,
            cost.tests.rejected_by_hw,
            cost.tests.decided_by_runs,
            cost.tests.software_tests,
            cost.tests.width_limit_fallbacks,
            cost.tests.hw_tests,
            ms(cost.tests.gpu_modeled),
            ms(cost.tests.sim_wall),
        );
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    header(
        "Figure 15",
        "within-distance geometry cost: software vs hardware vs resolution (D = BaseD)",
        opts,
    );
    let w = Workloads::generate(opts);
    run(&w.landc, &w.lando, w.base_d_landc_lando);
    run(&w.water, &w.prism, w.base_d_water_prism);
}
