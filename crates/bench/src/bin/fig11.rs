//! Figure 11: intersection-selection geometry-comparison cost, software
//! vs hardware-assisted, as a function of window resolution (1×1 … 32×32),
//! `sw_threshold = 0`, datasets (a) WATER and (b) PRISM.
//!
//! Expected shape: the hardware cost first falls with resolution (more
//! near-miss candidates rejected without a sweep), then rises (per-pixel
//! overhead); the paper reports 42–56% savings on WATER and 46–64% on
//! PRISM with the best window at 16×16, and notes the hardware wins even
//! at 1×1 thanks to the MBR-intersection-region projection.

use spatial_bench::{
    hardware_engine, header, ms, run_selection_set, software_engine, BenchOpts, Workloads,
    RESOLUTIONS,
};

fn main() {
    let opts = BenchOpts::from_args();
    header(
        "Figure 11",
        "selection geometry-comparison cost: software vs hardware vs resolution",
        opts,
    );
    let w = Workloads::generate(opts);

    for ds in [&w.water, &w.prism] {
        println!(
            "\n--- dataset {} | queries STATES50, avg geometry cost per query (ms) ---",
            ds.name
        );
        let mut sw = software_engine();
        let (n, sw_cost, sw_results) = run_selection_set(&mut sw, ds, &w.states50, opts.queries);
        let nq = n as f64;
        let sw_ms = ms(sw_cost.geometry_comparison) / nq;
        println!("software: {sw_ms:>10.3} ms/query ({sw_results} results)");
        println!(
            "{:>6} {:>12} {:>9} {:>12} {:>9} {:>12} {:>12}",
            "res", "hw ms/query", "vs sw", "hw rejects", "by runs", "sw tests", "pix scanned"
        );
        for res in RESOLUTIONS {
            let mut hw = hardware_engine(res, 0);
            let (_, cost, results) = run_selection_set(&mut hw, ds, &w.states50, opts.queries);
            assert_eq!(results, sw_results, "hardware must not change results");
            let hw_ms = ms(cost.geometry_comparison) / nq;
            println!(
                "{:>4}x{:<2} {:>12.3} {:>8.0}% {:>12} {:>9} {:>12} {:>12}",
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
    }
}
