//! §5 headline numbers: best-case speedups of the hardware-assisted
//! refinement over the software baseline — the paper reports up to 4.8×
//! for intersection joins and 5.9× for within-distance joins at the 8×8
//! operating point (with threshold tuning).

use hwa_core::engine::{GeometryTest, PreparedDataset};
use hwa_core::HwConfig;
use spatial_bench::{
    engine_with, hardware_engine, header, ms, software_engine, BenchOpts, Workloads,
};

fn best_intersection_speedup(a: &PreparedDataset, b: &PreparedDataset) -> (f64, usize, usize) {
    let mut sw = software_engine();
    let (_, sw_cost) = sw.intersection_join(a, b);
    let sw_ms = ms(sw_cost.geometry_comparison);
    let mut best = (0.0f64, 0usize, 0usize);
    for res in [4usize, 8, 16] {
        for t in [0usize, 300, 500, 900] {
            let mut hw = hardware_engine(res, t);
            let (_, cost) = hw.intersection_join(a, b);
            let speedup = sw_ms / ms(cost.geometry_comparison);
            if speedup > best.0 {
                best = (speedup, res, t);
            }
        }
    }
    best
}

fn best_distance_speedup(a: &PreparedDataset, b: &PreparedDataset, d: f64) -> (f64, usize, usize) {
    let mut sw = engine_with(GeometryTest::Software, HwConfig::recommended(), None, true);
    let (_, sw_cost) = sw.within_distance_join(a, b, d);
    let sw_ms = ms(sw_cost.geometry_comparison);
    let mut best = (0.0f64, 0usize, 0usize);
    for res in [4usize, 8, 16] {
        for t in [0usize, 500] {
            let mut hw = engine_with(
                GeometryTest::Hardware,
                HwConfig::at_resolution(res).with_threshold(t),
                None,
                true,
            );
            let (_, cost) = hw.within_distance_join(a, b, d);
            let speedup = sw_ms / ms(cost.geometry_comparison);
            if speedup > best.0 {
                best = (speedup, res, t);
            }
        }
    }
    best
}

/// One best-operating-point row, shared by the text and JSON outputs.
struct Row {
    kind: &'static str,
    left: String,
    right: String,
    speedup: f64,
    resolution: usize,
    threshold: usize,
}

impl Row {
    fn to_json(&self) -> String {
        format!(
            "{{\"kind\": \"{}\", \"left\": \"{}\", \"right\": \"{}\", \
             \"speedup\": {:.4}, \"resolution\": {}, \"threshold\": {}}}",
            self.kind, self.left, self.right, self.speedup, self.resolution, self.threshold
        )
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    header(
        "Summary (§5)",
        "best-case hardware speedups over the software baseline",
        opts,
    );
    let w = Workloads::generate(opts);
    let mut rows: Vec<Row> = Vec::new();

    println!("\nintersection joins (paper: up to 4.8x):");
    for (a, b) in [(&w.landc, &w.lando), (&w.water, &w.prism)] {
        let (s, res, t) = best_intersection_speedup(a, b);
        println!(
            "  {} ⋈ {}: {:.2}x  (window {}x{}, threshold {} step-3 edges)",
            a.name, b.name, s, res, res, t
        );
        rows.push(Row {
            kind: "intersection",
            left: a.name.clone(),
            right: b.name.clone(),
            speedup: s,
            resolution: res,
            threshold: t,
        });
    }

    println!("\nwithin-distance joins at D = 0.5×BaseD (paper: up to 5.9x):");
    for (a, b, d) in [
        (&w.landc, &w.lando, 0.5 * w.base_d_landc_lando),
        (&w.water, &w.prism, 0.5 * w.base_d_water_prism),
    ] {
        let (s, res, t) = best_distance_speedup(a, b, d);
        println!(
            "  {} ⋈dist {}: {:.2}x  (window {}x{}, threshold {} step-3 edges)",
            a.name, b.name, s, res, res, t
        );
        rows.push(Row {
            kind: "within_distance",
            left: a.name.clone(),
            right: b.name.clone(),
            speedup: s,
            resolution: res,
            threshold: t,
        });
    }

    if opts.json {
        let body: Vec<String> = rows
            .iter()
            .map(|r| format!("    {}", r.to_json()))
            .collect();
        let doc = format!(
            "{{\n  \"bench\": \"summary\",\n  \"scale\": {},\n  \"seed\": {},\n  \"joins\": [\n{}\n  ]\n}}\n",
            opts.scale,
            opts.seed,
            body.join(",\n")
        );
        let path = "BENCH_summary.json";
        std::fs::write(path, doc).expect("write JSON output");
        println!("\nwrote {path}");
    }
}
