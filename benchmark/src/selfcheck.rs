//! `--selfcheck`: the A/A test. Two sets of runs of the *same* build must
//! agree within every end-to-end bound, and every exact counter must be
//! bit-identical across all of them — otherwise the benchmark cannot tell
//! a regression from its own noise, and the bounds are wrong.

use crate::cli::Opts;
use crate::json::{self, Json};
use crate::spec::{MetricSpec, Source, WorkloadId, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};
use crate::{emit, run_child};
use std::io;

const RUNS_PER_SET: usize = 3;
/// The extra run that shows the harness is not tuned to one seed.
const OTHER_SEED: u64 = 7;

/// `name -> value` of one metric set in a child's `--out` document.
fn metric(doc: &Json, set: &str, name: &str) -> Option<f64> {
    doc.get(set)?.get(name)?.get("value")?.as_f64()
}

/// One child run's `--out` document, `None` if its gate failed.
fn one_run(id: WorkloadId, opts: &Opts, seed: u64) -> io::Result<Option<Json>> {
    let child = run_child(
        id,
        &Opts {
            seed,
            trace: false,
            out: None,
            ..opts.clone()
        },
    )?;
    Ok(json::parse(&child.doc).ok().filter(|_| child.ok))
}

/// How far apart the two sets' medians are, as a share of the better one:
/// whichever set ran second, the other would have read as this much worse.
fn disagreement(m: &MetricSpec, a: f64, b: f64) -> f64 {
    m.better.worsening(a, b).max(m.better.worsening(b, a))
}

pub fn run(opts: &Opts) -> io::Result<bool> {
    let mut ok = true;
    let mut table = String::new();
    let workloads: Vec<_> = WORKLOADS
        .iter()
        .filter(|w| opts.workload.is_none_or(|id| id == w.id))
        .collect();
    for w in &workloads {
        let mut sets: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for _ in 0..RUNS_PER_SET {
                match one_run(w.id, opts, opts.seed)? {
                    Some(run) => set.push(run),
                    None => {
                        table.push_str(&format!(
                            "{:<13} a run failed its correctness gate\n",
                            w.name
                        ));
                        ok = false;
                    }
                }
            }
        }
        if sets.iter().any(|s| s.len() < RUNS_PER_SET) {
            continue;
        }
        for m in END_TO_END {
            let values = |set: &[Json]| -> Vec<f64> {
                set.iter()
                    .map(|r| {
                        metric(r, "end_to_end", m.name)
                            .expect("children report every end-to-end metric")
                    })
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            let diff = disagreement(m, ma, mb);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let verdict = if diff <= bound { "ok" } else { "OVER" };
            ok &= diff <= bound;
            table.push_str(&format!(
                "{:<13} {:<16} A {:>12.4}  B {:>12.4} {:<4} diff {:>6.2} %  spread A {:>6.2} % B {:>6.2} %  bound {:>4.0} %  {verdict}\n",
                w.name, m.name, ma, mb, m.unit,
                diff * 100.0, spread(&a) * 100.0, spread(&b) * 100.0, bound * 100.0,
            ));
        }
        let all: Vec<&Json> = sets.iter().flatten().collect();
        let mut drifted = Vec::new();
        for m in PER_LAYER.iter().filter(|m| m.source == Source::Exact) {
            let bits: Vec<u64> = all
                .iter()
                .map(|r| {
                    metric(r, "per_layer", m.name)
                        .expect("children report every exact metric")
                        .to_bits()
                })
                .collect();
            if bits.iter().any(|&b| b != bits[0]) {
                drifted.push(m.name);
            }
        }
        let exact = PER_LAYER
            .iter()
            .filter(|m| m.source == Source::Exact)
            .count();
        if drifted.is_empty() {
            table.push_str(&format!(
                "{:<13} {exact} exact counters bit-identical across {} runs\n",
                w.name,
                all.len()
            ));
        } else {
            table.push_str(&format!(
                "{:<13} exact counters DRIFTED: {}\n",
                w.name,
                drifted.join(", ")
            ));
            ok = false;
        }
    }
    // Not tuned to the default seed: the gate must also pass elsewhere.
    if let Some(w) = workloads.first() {
        let passed = one_run(w.id, opts, OTHER_SEED)?.is_some();
        table.push_str(&format!(
            "{:<13} seed {OTHER_SEED}: gate {}\n",
            w.name,
            if passed { "passed" } else { "FAILED" }
        ));
        ok &= passed;
    }
    emit(&format!(
        "## selfcheck (A/A): {RUNS_PER_SET} runs per set, seed {}, {} s per run\n{table}## selfcheck {}\n",
        opts.seed,
        opts.seconds,
        if ok { "passed" } else { "FAILED" }
    ))?;
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::find;

    #[test]
    fn disagreement_is_symmetric_in_the_worse_direction() {
        let lower = find("wall_ms_p50").unwrap();
        assert!((disagreement(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((disagreement(lower, 11.0, 10.0) - 0.1).abs() < 1e-12);
        let higher = find("ops_per_s").unwrap();
        assert!((disagreement(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((disagreement(higher, 90.0, 100.0) - 0.1).abs() < 1e-12);
        assert_eq!(disagreement(lower, 5.0, 5.0), 0.0);
    }

    #[test]
    fn metrics_are_read_from_a_child_document() {
        let doc = json::parse(
            r#"{"end_to_end": {"setup_s": {"value": 2.5, "unit": "s"}}, "per_layer": {}}"#,
        )
        .unwrap();
        assert_eq!(metric(&doc, "end_to_end", "setup_s"), Some(2.5));
        assert_eq!(metric(&doc, "per_layer", "setup_s"), None);
    }
}
