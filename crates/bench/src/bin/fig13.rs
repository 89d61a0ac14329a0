//! Figure 13: effect of the software threshold on the LANDC ⋈ LANDO
//! intersection join at 8×8 and 16×16 windows.
//!
//! Expected shape: cost falls from threshold 0 to an optimum (the paper
//! finds ≈300 at 8×8 and ≈900 at 16×16 — finer windows carry more
//! per-test overhead, so more pairs are worth keeping in software), then
//! degrades slowly toward the pure-software cost as the threshold routes
//! everything away from the hardware. A wide range of thresholds is within
//! ~12% of optimal — the knob is forgiving.
//!
//! The paper's threshold counts the `n + m` vertices its plane sweep
//! visits; this one counts the edges the software step 3 searches — those
//! in the runs that reach the run-box region R, from the prologue's one
//! run-box walk (`hwa_core::hw_intersect::submitted_edges`) — the work a
//! hardware rejection can save.

use spatial_bench::{hardware_engine, header, ms, software_engine, BenchOpts, Workloads};

const THRESHOLDS: [usize; 9] = [0, 100, 200, 300, 500, 700, 900, 1400, 2000];

fn main() {
    let opts = BenchOpts::from_args();
    header(
        "Figure 13",
        "effect of sw_threshold (step-3 edges) on LANDC ⋈ LANDO at 8x8 and 16x16",
        opts,
    );
    let w = Workloads::generate(opts);
    let (a, b) = (&w.landc, &w.lando);

    let mut sw = software_engine();
    let (sw_results, sw_cost) = sw.intersection_join(a, b);
    println!(
        "software baseline: {:.1} ms ({} results)\n",
        ms(sw_cost.geometry_comparison),
        sw_results.len()
    );

    for res in [8usize, 16] {
        println!("--- window {res}x{res} | geometry-comparison cost (ms total) ---");
        println!(
            "{:>12} {:>12} {:>12} {:>12} {:>12} {:>9}",
            "step-3 edges", "hw ms", "hw tests", "skipped", "hw rejects", "by runs"
        );
        for t in THRESHOLDS {
            let mut hw = hardware_engine(res, t);
            let (results, cost) = hw.intersection_join(a, b);
            assert_eq!(results, sw_results);
            println!(
                "{:>12} {:>12.1} {:>12} {:>12} {:>12} {:>9}",
                t,
                ms(cost.geometry_comparison),
                cost.tests.hw_tests,
                cost.tests.skipped_by_threshold,
                cost.tests.rejected_by_hw,
                cost.tests.decided_by_runs,
            );
        }
        println!();
    }
}
