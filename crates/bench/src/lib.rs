//! Shared experiment harness: every `src/bin/fig*.rs` binary regenerates
//! one table or figure of the paper's §4 evaluation through this module,
//! so workloads, scaling and reporting are identical across experiments.
//!
//! All binaries accept:
//!
//! * `--scale <f64>` — dataset size factor (default 0.05 ≈ 1/20 of the
//!   paper's object counts; `--scale 1` reproduces full sizes);
//! * `--seed <u64>` — generator seed (default 42);
//! * `--queries <n>` — cap on selection queries (default: all 31).
//!
//! The command line is strict: an unknown flag, a missing or unparseable
//! value, a scale that is not finite and positive, or zero queries prints
//! the usage text and exits 2.
//!
//! Reported wall-clock numbers are averages over the workload, like the
//! paper's "average cost per query". Hardware counters (pixels written,
//! fragments, scans) are printed alongside: they are deterministic and
//! host-independent, and they are what the resolution/overhead trade-off
//! arguments of §4.2–4.4 are really about.

#![forbid(unsafe_code)]

use hwa_core::engine::{EngineConfig, GeometryTest, PreparedDataset, SpatialEngine};
use hwa_core::{CostBreakdown, HwConfig};
use spatial_datagen::Dataset;
use std::time::Duration;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct BenchOpts {
    pub scale: f64,
    pub seed: u64,
    pub queries: usize,
    /// `--json`: additionally write the results as `BENCH_<bin>.json`
    /// (summary binary only).
    pub json: bool,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts {
            scale: 0.05,
            seed: 42,
            queries: usize::MAX,
            json: false,
        }
    }
}

const USAGE: &str = "usage: [--scale <f64>] [--seed <u64>] [--queries <n>] [--json]";

impl BenchOpts {
    /// Parses `std::env::args`; on a malformed command line prints the
    /// reason and the usage text and exits 2, so a typo'd flag can never
    /// silently run the (slow) defaults.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        Self::parse(&args).unwrap_or_else(|reason| {
            eprintln!("{reason}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parses `--scale` (finite, > 0), `--seed`, `--queries` (≥ 1) — each
    /// followed by its value — and the `--json` switch. Anything else is
    /// an error.
    pub fn parse(args: &[&str]) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(flag: &str, raw: Option<&&str>) -> Result<T, String> {
            let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
            raw.parse()
                .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
        }
        let mut opts = BenchOpts::default();
        let mut args = args.iter();
        while let Some(&flag) = args.next() {
            match flag {
                "--scale" => opts.scale = value(flag, args.next())?,
                "--seed" => opts.seed = value(flag, args.next())?,
                "--queries" => opts.queries = value(flag, args.next())?,
                "--json" => opts.json = true,
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if !(opts.scale.is_finite() && opts.scale > 0.0) {
            return Err(format!(
                "--scale: {} is not a finite factor > 0",
                opts.scale
            ));
        }
        if opts.queries == 0 {
            return Err("--queries: at least 1".to_string());
        }
        Ok(opts)
    }
}

/// Converts a generated dataset into an engine-ready one.
pub fn prepare(ds: Dataset) -> PreparedDataset {
    PreparedDataset::new(ds.name, ds.polygons)
}

/// The standard workload bundle most figures draw from.
pub struct Workloads {
    pub landc: PreparedDataset,
    pub lando: PreparedDataset,
    pub water: PreparedDataset,
    pub prism: PreparedDataset,
    pub states50: Dataset,
    /// Eq. 2 BaseD for LANDC ⋈ LANDO.
    pub base_d_landc_lando: f64,
    /// Eq. 2 BaseD for WATER ⋈ PRISM.
    pub base_d_water_prism: f64,
}

impl Workloads {
    pub fn generate(opts: BenchOpts) -> Self {
        let landc = spatial_datagen::landc(opts.scale, opts.seed);
        let lando = spatial_datagen::lando(opts.scale, opts.seed);
        let water = spatial_datagen::water(opts.scale, opts.seed);
        let prism = spatial_datagen::prism(opts.scale, opts.seed);
        let states50 = spatial_datagen::states50(opts.seed);
        let base_d_landc_lando = spatial_datagen::base_distance(&landc, &lando);
        let base_d_water_prism = spatial_datagen::base_distance(&water, &prism);
        Workloads {
            landc: prepare(landc),
            lando: prepare(lando),
            water: prepare(water),
            prism: prepare(prism),
            states50,
            base_d_landc_lando,
            base_d_water_prism,
        }
    }
}

/// Milliseconds with two decimals (the paper reports milliseconds/seconds).
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1_000.0
}

/// Runs the full STATES50 query set as intersection selections and returns
/// the summed cost breakdown plus total result count.
pub fn run_selection_set(
    engine: &mut SpatialEngine,
    ds: &PreparedDataset,
    queries: &Dataset,
    limit: usize,
) -> (usize, CostBreakdown, usize) {
    let mut total = CostBreakdown::default();
    let mut results = 0usize;
    let n = queries.polygons.len().min(limit);
    for q in queries.polygons.iter().take(n) {
        let (r, cost) = engine.intersection_selection(ds, q);
        results += r.len();
        total.add(&cost);
    }
    (n, total, results)
}

/// Builds a software-refinement engine.
pub fn software_engine() -> SpatialEngine {
    SpatialEngine::new(EngineConfig::software())
}

/// Builds a hardware-refinement engine at the given resolution/threshold.
pub fn hardware_engine(resolution: usize, sw_threshold: usize) -> SpatialEngine {
    SpatialEngine::new(EngineConfig::hardware(
        HwConfig::at_resolution(resolution).with_threshold(sw_threshold),
    ))
}

/// Builds an engine with explicit settings (used by the distance benches).
pub fn engine_with(
    test: GeometryTest,
    hw: HwConfig,
    interior_level: Option<u32>,
    object_filters: bool,
) -> SpatialEngine {
    SpatialEngine::new(EngineConfig {
        geometry_test: test,
        hw,
        interior_filter_level: interior_level,
        use_object_filters: object_filters,
        ..EngineConfig::default()
    })
}

/// Prints a standard experiment header.
pub fn header(figure: &str, what: &str, opts: BenchOpts) {
    println!("==================================================================");
    println!("{figure}: {what}");
    println!(
        "scale {} | seed {} | paper: SIGMOD'03 Hardware Acceleration for Spatial Selections and Joins",
        opts.scale, opts.seed
    );
    println!("==================================================================");
}

/// The resolutions the paper sweeps in Figures 11, 12 and 15.
pub const RESOLUTIONS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The distance multipliers of Figures 14 and 16.
pub const DISTANCE_FACTORS: [f64; 5] = [0.1, 0.5, 1.0, 2.0, 4.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opts_default() {
        let o = BenchOpts::default();
        assert_eq!(o.scale, 0.05);
        assert_eq!(o.seed, 42);
    }

    #[test]
    fn parse_accepts_the_documented_flags() {
        let o = BenchOpts::parse(&["--scale", "0.01", "--queries", "5", "--json"])
            .expect("valid command line");
        assert_eq!((o.scale, o.queries, o.seed), (0.01, 5, 42));
        assert!(o.json);
    }

    /// A malformed command line is an error, never a silent fall-back
    /// to the slow defaults.
    #[test]
    fn parse_rejects_typos_and_bad_values() {
        for (args, needle) in [
            (&["--scal", "0.01"][..], "unknown argument \"--scal\""),
            (&["--scale", "x"][..], "--scale: cannot parse \"x\""),
            (&["--queries", "5", "--seed"][..], "--seed needs a value"),
            (&["0.01"][..], "unknown argument"),
            (&["--chaos"][..], "unknown argument \"--chaos\""),
            (&["--scale", "nan"][..], "--scale: NaN is not"),
            (&["--scale", "0"][..], "--scale: 0 is not"),
            (&["--scale", "-1"][..], "--scale: -1 is not"),
            (&["--scale", "inf"][..], "--scale: inf is not"),
            (&["--queries", "0"][..], "--queries: at least 1"),
        ] {
            let err = BenchOpts::parse(args).expect_err("must be rejected");
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn workloads_generate_at_tiny_scale() {
        let opts = BenchOpts {
            scale: 0.002,
            seed: 1,
            queries: 2,
            ..BenchOpts::default()
        };
        let w = Workloads::generate(opts);
        assert!(w.landc.len() >= 12);
        assert!(w.base_d_landc_lando > 0.0);
        assert_eq!(w.states50.polygons.len(), 31);
    }

    #[test]
    fn selection_set_runs() {
        let opts = BenchOpts {
            scale: 0.002,
            seed: 1,
            queries: 2,
            ..BenchOpts::default()
        };
        let w = Workloads::generate(opts);
        let mut e = software_engine();
        let (n, cost, _) = run_selection_set(&mut e, &w.water, &w.states50, 2);
        assert_eq!(n, 2);
        assert!(cost.total() > Duration::ZERO);
    }
}
