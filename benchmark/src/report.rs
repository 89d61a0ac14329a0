//! What a run prints: a header saying where and on what it was measured,
//! every metric by name with its unit, and — last — the one-line JSON
//! object the driver reads.

use crate::host::Host;
use crate::json::quote;
use crate::run::Report;
use crate::spec::{MetricSpec, Source, END_TO_END, PER_LAYER, WORKLOADS};
use crate::trace::self_times;
use std::fmt::Write;

fn header_pairs(r: &Report, host: &Host) -> Vec<(&'static str, String)> {
    vec![
        ("workload", quote(r.workload.name())),
        ("seed", r.seed.to_string()),
        ("ops", r.ops.to_string()),
        ("rounds", r.rounds.to_string()),
        ("sequence_hash", quote(&format!("{:016x}", r.sequence_hash))),
        ("nproc", host.nproc.to_string()),
        ("cpu", quote(&host.cpu)),
        ("rustc", quote(&host.rustc)),
        ("git_head", quote(&host.git_head)),
    ]
}

fn metrics_json(metrics: &[(&MetricSpec, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                quote(m.name),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`
/// — the end-to-end metrics, or with `--trace 1` the per-layer ones.
pub fn driver_line(r: &Report) -> String {
    let table = if r.spans.is_some() {
        PER_LAYER
    } else {
        END_TO_END
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(&r.metrics(table))
    )
}

/// The `--out` document: header plus both metric sets.
pub fn full_json(r: &Report, host: &Host) -> String {
    let header: Vec<String> = header_pairs(r, host)
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!(
        "{{\"header\": {{{}}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"end_to_end\": {}, \"per_layer\": {}}}\n",
        header.join(", "),
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(&r.metrics(END_TO_END)),
        metrics_json(&r.metrics(PER_LAYER)),
    )
}

fn source_tag(m: &MetricSpec) -> &'static str {
    match m.source {
        Source::Timed => "",
        Source::Exact => "exact",
        Source::Trace => "trace",
    }
}

pub fn human(r: &Report, host: &Host) -> String {
    let mut s = String::new();
    let header: Vec<String> = header_pairs(r, host)
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    writeln!(s, "# {}", header.join(" ")).unwrap();
    for (title, table) in [("end to end", END_TO_END), ("per layer", PER_LAYER)] {
        writeln!(s, "## {title}").unwrap();
        for (m, v) in r.metrics(table) {
            let bound = m.bound.map_or(String::new(), |b| format!("  bound {b}"));
            writeln!(
                s,
                "{:<34} {:>16.6} {:<6} {:<6} {}{bound}",
                m.name,
                v,
                m.unit,
                m.better.as_str(),
                source_tag(m)
            )
            .unwrap();
        }
    }
    if let Some(tr) = &r.spans {
        writeln!(s, "## traced round: self time per span name").unwrap();
        let totals = self_times(tr.spans());
        let all: u64 = totals.values().map(|t| t.self_ns).sum();
        for (name, t) in &totals {
            writeln!(
                s,
                "{:<24} spans {:>6}  count {:>8}  self {:>10.3} ms  {:>5.1} %  {:>10.3} us/count",
                name,
                t.spans,
                t.count,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / all.max(1) as f64,
                t.us_per_count()
            )
            .unwrap();
        }
    }
    writeln!(
        s,
        "## gate: attempted {} failed {} correct {}",
        r.attempted,
        r.failed,
        r.correct()
    )
    .unwrap();
    for p in &r.problems {
        writeln!(s, "problem: {p}").unwrap();
    }
    s
}

/// `--list`: every workload with its why, every metric with unit,
/// direction and bound.
pub fn list() -> String {
    let mut s = String::new();
    writeln!(s, "workloads").unwrap();
    for w in &WORKLOADS {
        writeln!(s, "  {:<14} {}", w.name, w.why).unwrap();
    }
    for (title, table) in [
        ("end-to-end metrics", END_TO_END),
        ("per-layer metrics", PER_LAYER),
    ] {
        writeln!(s, "{title}").unwrap();
        for m in table {
            let bound = m.bound.map_or("-".to_string(), |b| b.to_string());
            writeln!(
                s,
                "  {:<34} {:<6} {:<6} bound {:<5} {}",
                m.name,
                m.unit,
                m.better.as_str(),
                bound,
                m.what
            )
            .unwrap();
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::spec::WorkloadId;

    fn report(traced: bool) -> Report {
        let mut values = std::collections::BTreeMap::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            if traced || m.source != Source::Trace {
                values.insert(m.name, 1.5);
            }
        }
        Report {
            workload: WorkloadId::JoinSw,
            seed: 42,
            ops: 108,
            rounds: 2,
            sequence_hash: 0xabc,
            attempted: 216,
            failed: 0,
            problems: Vec::new(),
            values,
            spans: traced.then(crate::trace::Tracer::new),
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let line = driver_line(&report(traced));
            assert!(!line.contains('\n'));
            let doc = json::parse(&line).unwrap();
            let keys: Vec<_> = doc.as_obj().unwrap().keys().cloned().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
            let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
            assert_eq!(metrics.len(), table.len());
            for m in table {
                let entry = &metrics[m.name];
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
                assert_eq!(entry.get("value").and_then(Json::as_f64), Some(1.5));
            }
        }
    }

    #[test]
    fn a_failed_execution_or_a_problem_makes_the_run_incorrect() {
        let mut r = report(false);
        r.failed = 1;
        assert!(driver_line(&r).contains("\"correct\": false"));
        let mut r = report(false);
        r.problems.push("ServiceStats::balanced() is false".into());
        assert!(!r.correct());
    }

    #[test]
    fn full_json_parses_and_list_names_everything() {
        let host = Host {
            nproc: 2,
            cpu: "Some \"CPU\"".into(),
            rustc: "rustc 1.95.0".into(),
            git_head: "unknown".into(),
        };
        let doc = json::parse(&full_json(&report(false), &host)).unwrap();
        assert_eq!(
            doc.get("header").unwrap().get("cpu").and_then(Json::as_str),
            Some("Some \"CPU\"")
        );
        assert_eq!(
            doc.get("end_to_end").and_then(Json::as_obj).unwrap().len(),
            END_TO_END.len()
        );
        let listing = list();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(listing.contains(m.name));
        }
        for w in &WORKLOADS {
            assert!(listing.contains(w.why));
        }
        assert!(human(&report(true), &host).contains("wall_ms_p50"));
    }
}
