//! Figure 12: intersection-join geometry-comparison cost, software vs
//! hardware-assisted vs window resolution, joins (a) LANDC ⋈ LANDO and
//! (b) WATER ⋈ PRISM, `sw_threshold = 0`.
//!
//! Expected shape: 68–80% savings on WATER ⋈ PRISM; up to 38% on
//! LANDC ⋈ LANDO, where at high resolutions the hardware becomes *slower*
//! than software (simple geometry can't amortize the per-pixel overhead)
//! — the observation that motivates the `sw_threshold` of Figure 13.

use hwa_core::engine::PreparedDataset;
use spatial_bench::{
    hardware_engine, header, ms, software_engine, BenchOpts, Workloads, RESOLUTIONS,
};

fn run_join(a: &PreparedDataset, b: &PreparedDataset, opts: BenchOpts) {
    println!(
        "\n--- join {} ⋈ {} | geometry-comparison cost (ms total) ---",
        a.name, b.name
    );
    let mut sw = software_engine();
    let (sw_results, sw_cost) = sw.intersection_join(a, b);
    let sw_ms = ms(sw_cost.geometry_comparison);
    println!(
        "software: {:>10.1} ms | candidates {} results {}",
        sw_ms,
        sw_cost.candidates,
        sw_results.len()
    );
    println!(
        "{:>6} {:>12} {:>9} {:>12} {:>9} {:>12} {:>14}",
        "res", "hw ms", "vs sw", "hw rejects", "by runs", "sw tests", "pix scanned"
    );
    for res in RESOLUTIONS {
        let mut hw = hardware_engine(res, 0);
        let (hw_results, cost) = hw.intersection_join(a, b);
        assert_eq!(hw_results, sw_results, "hardware must not change results");
        let hw_ms = ms(cost.geometry_comparison);
        println!(
            "{:>4}x{:<2} {:>12.1} {:>8.0}% {:>12} {:>9} {:>12} {:>14}",
            res,
            res,
            hw_ms,
            100.0 * hw_ms / sw_ms,
            cost.tests.rejected_by_hw,
            cost.tests.decided_by_runs,
            cost.tests.software_tests,
            cost.tests.hw.pixels_scanned,
        );
    }
    let _ = opts;
}

fn main() {
    let opts = BenchOpts::from_args();
    header(
        "Figure 12",
        "intersection-join geometry-comparison cost: software vs hardware vs resolution",
        opts,
    );
    let w = Workloads::generate(opts);
    run_join(&w.landc, &w.lando, opts);
    run_join(&w.water, &w.prism, opts);
}
