//! One workload, start to finish: generate the seeded inputs, compute the
//! reference answers, spend `--seconds` on set-up cycles (set up, one cold
//! round, warm rounds) of the fixed op sequence, optionally add a traced
//! round, and turn the ledgers into named metrics.

use crate::host;
use crate::spec::{self, Source, WorkloadId};
use crate::stats::{median, percentile, sorted, MinOverRounds};
use crate::trace::{self_times, Tracer};
use crate::workload::{fingerprint, Inputs, Instance, OpKind, Outcome, Reference, ServiceRound};
use crate::{join, select};
use hwspatial::core::CostBreakdown;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up cycles per run. Each cycle prepares every dataset, builds every
/// engine and runs one cold round of every op — together one `setup_s`
/// sample, reported as the median — then spends its share of `--seconds`
/// on warm rounds. The cold round is where plan memos, recording caches
/// and anything else built on first use gets paid, so lazy work cannot
/// hide behind the warm rounds' minima; spreading the cycles over the run
/// also spreads the set-up samples over the machine's fast and slow spells.
const CYCLES: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// One set-up (a cold and a warm round) of the first tenth of the
    /// sequence, gate on.
    pub smoke: bool,
    /// Flip op 0's reference hash: the gate must then fail the run.
    pub corrupt_reference: bool,
}

pub struct Report {
    pub workload: WorkloadId,
    pub seed: u64,
    pub ops: usize,
    pub rounds: usize,
    pub sequence_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct (empty when it is).
    pub problems: Vec<String>,
    /// Every metric this run could measure, by name.
    pub values: BTreeMap<&'static str, f64>,
    /// The traced round's spans (`--trace 1` only).
    pub spans: Option<Tracer>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

pub fn generate(id: WorkloadId, seed: u64) -> Box<dyn Inputs> {
    match id {
        WorkloadId::SelectWarm => Box::new(select::select_warm(seed)),
        WorkloadId::SelectSmall => Box::new(select::select_small(seed)),
        WorkloadId::JoinHw => Box::new(join::join_hw(seed)),
        WorkloadId::JoinSw => Box::new(join::join_sw(seed)),
    }
}

/// The correctness gate: an execution fails when the call returned `Err`,
/// when its rows differ from the other refinement path's, or when its rows
/// or deterministic counters differ from the op's first execution.
struct Gate {
    reference: Vec<Option<Reference>>,
    first: Vec<Option<(u64, u64)>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    fn new(reference: Vec<Option<Reference>>) -> Self {
        Gate {
            first: vec![None; reference.len()],
            reference,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn check(&mut self, op: usize, out: &Outcome) {
        self.attempted += 1;
        let verdict = match out.rows {
            None => Err("returned an error"),
            Some(rows) => {
                let seen = (rows, fingerprint(&out.cost));
                let first = *self.first[op].get_or_insert(seen);
                if self.reference[op].is_some_and(|r| r.rows != rows) {
                    Err("rows differ from the reference path")
                } else if first.0 != rows {
                    Err("rows differ between rounds")
                } else if first.1 != seen.1 {
                    Err("deterministic counters differ between rounds")
                } else {
                    Ok(())
                }
            }
        };
        if let Err(why) = verdict {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(format!("op {op}: {why}"));
            }
        }
    }

    fn check_service(&mut self, round: &Option<ServiceRound>, ops: usize) {
        if let Some(s) = round {
            if !s.balanced {
                self.problems
                    .push("ServiceStats::balanced() is false".into());
            }
            if s.submitted != ops as u64 {
                self.problems.push(format!(
                    "service saw {} submissions for {ops} ops",
                    s.submitted
                ));
            }
        }
    }
}

/// Everything the untraced rounds add up.
struct Ledger {
    /// Per-op minima over every round, cold ones included (a cold sample
    /// is a valid execution; it is just never the minimum).
    min_wall: MinOverRounds,
    min_paper: MinOverRounds,
    /// Every warm call, all rounds pooled (for the ungated p99).
    pooled_wall: Vec<f64>,
    /// Summed over the first warm round: the exact counters.
    first: CostBreakdown,
    /// Summed over every warm round: the stage timings.
    warm: CostBreakdown,
    warm_wall: Duration,
    warm_executions: u64,
    warm_rounds: usize,
    service_first: Option<ServiceRound>,
    service_warm: ServiceRound,
}

impl Ledger {
    fn new(ops: usize) -> Self {
        Ledger {
            min_wall: MinOverRounds::new(ops),
            min_paper: MinOverRounds::new(ops),
            pooled_wall: Vec::new(),
            first: CostBreakdown::default(),
            warm: CostBreakdown::default(),
            warm_wall: Duration::ZERO,
            warm_executions: 0,
            warm_rounds: 0,
            service_first: None,
            service_warm: ServiceRound::default(),
        }
    }

    fn sample(&mut self, op: usize, out: &Outcome) {
        self.min_wall.record(op, out.wall.as_nanos() as u64);
        self.min_paper
            .record(op, out.cost.total().as_nanos() as u64);
    }

    fn warm_sample(&mut self, op: usize, out: &Outcome) {
        self.sample(op, out);
        self.pooled_wall.push(out.wall.as_secs_f64() * 1e3);
        if self.warm_rounds == 0 {
            self.first.add(&out.cost);
        }
        self.warm.add(&out.cost);
        self.warm_wall += out.wall;
        self.warm_executions += 1;
    }

    fn end_warm_round(&mut self, service: Option<ServiceRound>) {
        if let Some(s) = service {
            self.service_first.get_or_insert(s);
            let a = &mut self.service_warm;
            a.filter_ns += s.filter_ns;
            a.plan_ns += s.plan_ns;
            a.refine_ns += s.refine_ns;
            a.reloads += s.reloads;
            a.reload_ns += s.reload_ns;
        }
        self.warm_rounds += 1;
    }
}

fn run_round(
    inst: &mut dyn Instance,
    ops: usize,
    mut each: impl FnMut(usize, Outcome),
) -> Option<ServiceRound> {
    inst.begin_round();
    for op in 0..ops {
        each(op, inst.run_op(op));
    }
    inst.end_round()
}

pub fn run(id: WorkloadId, opts: RunOpts) -> Report {
    let t = Instant::now();
    let mut inputs = generate(id, opts.seed);
    if opts.smoke {
        inputs.truncate(inputs.ops().div_ceil(10));
    }
    let datagen = t.elapsed();
    let ops = inputs.ops();

    let cycles = if opts.smoke { 1 } else { CYCLES };
    let budget = if opts.smoke {
        Duration::ZERO
    } else {
        Duration::from_secs(opts.seconds)
    };
    let mut setups = Vec::new();
    let mut bulk_loads = Vec::new();
    let mut ledger = Ledger::new(ops);
    let mut gate: Option<Gate> = None;
    let mut instance: Option<Box<dyn Instance + '_>> = None;
    let mut started = Instant::now();
    for cycle in 0..cycles {
        // Release the previous set-up first: two live copies would double
        // the resident set and say nothing about the product.
        drop(instance.take());
        let t = Instant::now();
        let (mut inst, bulk_load) = inputs.set_up();
        let prepared = t.elapsed();
        bulk_loads.push(bulk_load.as_secs_f64() * 1e3);

        if gate.is_none() {
            // The other path's answers: computed once, on no clock.
            let t = Instant::now();
            let mut reference = inst.references();
            if opts.corrupt_reference {
                if let Some(r) = reference[0].as_mut() {
                    r.rows ^= 1;
                }
            }
            gate = Some(Gate::new(reference));
            started += t.elapsed();
        }
        let gate = gate.as_mut().expect("set just above");

        let t = Instant::now();
        let service = run_round(inst.as_mut(), ops, |op, out| {
            gate.check(op, &out);
            ledger.sample(op, &out);
        });
        setups.push((prepared + t.elapsed()).as_secs_f64());
        gate.check_service(&service, ops);

        let share = budget * (cycle as u32 + 1) / cycles as u32;
        loop {
            let service = run_round(inst.as_mut(), ops, |op, out| {
                gate.check(op, &out);
                ledger.warm_sample(op, &out);
            });
            gate.check_service(&service, ops);
            ledger.end_warm_round(service);
            if started.elapsed() >= share {
                break;
            }
        }
        instance = Some(inst);
    }
    let mut inst = instance.expect("at least one cycle ran");
    let mut gate = gate.expect("at least one cycle ran");
    let rounds = ledger.warm_rounds + cycles;

    let mut values = BTreeMap::new();
    let kinds: Vec<OpKind> = (0..ops).map(|op| inst.kind(op)).collect();
    untraced_metrics(&mut values, id, &ledger, &gate, &kinds, rounds);
    values.insert("setup_s", median(&setups));
    values.insert("index.bulk_load_ms", median(&bulk_loads));
    values.insert("datagen.generate_s", datagen.as_secs_f64());

    let spans = opts.trace.then(|| {
        let mut tr = Tracer::new();
        let mut traced_wall = Vec::with_capacity(ops);
        inst.begin_round();
        for op in 0..ops {
            tr.span("op", op as u32, |tr| {
                let out = tr.span("call", op as u32, |_| (inst.run_op(op), 1));
                gate.check(op, &out);
                traced_wall.push(out.wall.as_secs_f64() * 1e3);
                inst.replay_layers(op, tr);
                ((), 1)
            });
        }
        let service = inst.end_round();
        gate.check_service(&service, ops);
        let untraced = percentile(&sorted(ledger.pooled_wall.clone()), 0.5);
        traced_metrics(&mut values, &tr, &traced_wall, untraced);
        tr
    });
    drop(inst);

    values.insert(
        "failed_share",
        gate.failed as f64 / gate.attempted.max(1) as f64,
    );
    values.insert("peak_rss_mb", host::peak_rss_mb());
    Report {
        workload: id,
        seed: opts.seed,
        ops,
        rounds,
        sequence_hash: inputs.sequence_hash(),
        attempted: gate.attempted,
        failed: gate.failed,
        problems: gate.problems,
        values,
        spans,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn untraced_metrics(
    v: &mut BTreeMap<&'static str, f64>,
    id: WorkloadId,
    l: &Ledger,
    gate: &Gate,
    kinds: &[OpKind],
    rounds: usize,
) {
    let ops = kinds.len() as f64;
    let execs = l.warm_executions as f64;
    let wall = l.min_wall.millis();
    let by_wall = sorted(wall.clone());
    let paper = l.min_paper.millis();

    v.insert("wall_ms_p50", percentile(&by_wall, 0.5));
    v.insert("wall_ms_p90", percentile(&by_wall, 0.9));
    v.insert("ops_per_s", ops / (wall.iter().sum::<f64>() / 1e3));
    v.insert("paper_ms_per_op", paper.iter().sum::<f64>() / ops);
    v.insert("harness.ops", ops);
    v.insert("harness.rounds", rounds as f64);

    // Exact counters: the first warm round, a pure function of the seed.
    let (c, t) = (&l.first, &l.first.tests);
    v.insert("gpu_modeled_ms_per_op", ms(t.gpu_modeled) / ops);
    v.insert("index.node_tests_per_op", c.node_tests as f64 / ops);
    v.insert("index.candidates_per_op", c.candidates as f64 / ops);
    v.insert(
        "filters.hit_ratio",
        ratio(c.filter_hits as f64, c.candidates as f64),
    );
    v.insert("geom.software_tests_per_op", t.software_tests as f64 / ops);
    v.insert("geom.pip_decided_per_op", t.decided_by_pip as f64 / ops);
    v.insert("raster.draw_calls_per_op", t.hw.draw_calls as f64 / ops);
    v.insert(
        "raster.fragments_per_op",
        t.hw.fragments_tested as f64 / ops,
    );
    v.insert(
        "raster.pixels_written_per_op",
        t.hw.pixels_written as f64 / ops,
    );
    v.insert(
        "raster.pixels_scanned_per_op",
        t.hw.pixels_scanned as f64 / ops,
    );
    v.insert("raster.minmax_per_op", t.hw.minmax_queries as f64 / ops);
    v.insert("raster.submissions_per_op", t.hw.submissions() as f64 / ops);
    v.insert("testers.hw_tests_per_op", t.hw_tests as f64 / ops);
    v.insert(
        "testers.hw_reject_ratio",
        ratio(t.rejected_by_hw as f64, t.hw_tests as f64),
    );
    v.insert("testers.hw_batches_per_op", t.hw_batches as f64 / ops);
    v.insert(
        "testers.width_fallbacks_per_op",
        t.width_limit_fallbacks as f64 / ops,
    );
    v.insert(
        "testers.cache_hit_ratio",
        ratio(t.cache_hits as f64, (t.cache_hits + t.cache_misses) as f64),
    );
    v.insert(
        "testers.commands_elided_per_op",
        t.commands_elided as f64 / ops,
    );
    v.insert(
        "pipeline.fallback_tests_per_op",
        t.fallback_tests as f64 / ops,
    );
    v.insert(
        "pipeline.device_faults_per_op",
        t.device_faults as f64 / ops,
    );

    // Stage timings: means over every warm execution.
    let (c, t) = (&l.warm, &l.warm.tests);
    let stage1 = ms(c.mbr_filter) / execs;
    let stage2 = ms(c.intermediate_filter) / execs;
    let refine = (ms(c.geometry_comparison) + ms(t.sim_wall) - ms(t.gpu_modeled)) / execs;
    let call = ms(l.warm_wall) / execs;
    v.insert("index.stage1_ms_per_op", stage1);
    v.insert("filters.stage2_ms_per_op", stage2);
    v.insert("raster.sim_wall_ms_per_op", ms(t.sim_wall) / execs);
    v.insert(
        "raster.ns_per_fragment",
        ratio(t.sim_wall.as_nanos() as f64, t.hw.fragments_tested as f64),
    );
    v.insert("pipeline.refine_wall_ms_per_op", refine);

    // The serving layer, where there is one; its `refine` latency is the
    // pipeline call (engine construction included).
    let served = l.service_first.is_some();
    let s = l.service_first.unwrap_or_default();
    let a = &l.service_warm;
    let per_exec = |ns: u128| ns as f64 / 1e6 / execs;
    let (probe, plan, svc_refine) = (
        per_exec(a.filter_ns),
        per_exec(a.plan_ns),
        per_exec(a.refine_ns),
    );
    let pipeline_call = if served { svc_refine } else { call };
    v.insert("service.probe_ms_per_op", probe);
    v.insert("service.plan_ms_per_op", plan);
    v.insert("service.refine_ms_per_op", svc_refine);
    v.insert(
        "service.self_ms_per_op",
        if served {
            call - probe - plan - svc_refine
        } else {
            0.0
        },
    );
    v.insert(
        "service.memo_hit_ratio",
        ratio(s.memo_hits as f64, (s.memo_hits + s.memo_misses) as f64),
    );
    v.insert(
        "service.planned_hw_share",
        ratio(s.planned_hw as f64, (s.planned_hw + s.planned_sw) as f64),
    );
    v.insert("service.refused_per_op", s.refused as f64 / ops);
    v.insert(
        "service.p99_ms",
        if served {
            percentile(&sorted(l.pooled_wall.clone()), 0.99)
        } else {
            0.0
        },
    );
    v.insert(
        "service.reload_us",
        ratio(a.reload_ns as f64 / 1e3, a.reloads as f64),
    );
    v.insert(
        "pipeline.self_ms_per_op",
        pipeline_call - stage1 - stage2 - refine,
    );

    // Per join kind, and the paper's headline ratio on join-hw.
    for (name, kind) in [
        ("engine.ij_ms", OpKind::IntersectionJoin),
        ("engine.dj_ms", OpKind::DistanceJoin),
        ("engine.oa_ms", OpKind::OverlapArea),
    ] {
        let of_kind: Vec<f64> = kinds
            .iter()
            .zip(&wall)
            .filter(|(k, _)| **k == kind)
            .map(|(_, w)| *w)
            .collect();
        v.insert(
            name,
            if of_kind.is_empty() {
                0.0
            } else {
                median(&of_kind)
            },
        );
    }
    let mut speedup = 0.0;
    if id == WorkloadId::JoinHw {
        let (mut reference_ms, mut hardware_ms) = (0.0, 0.0);
        for (op, kind) in kinds.iter().enumerate() {
            if let (true, Some(r)) = (*kind != OpKind::OverlapArea, gate.reference[op]) {
                reference_ms += ms(r.paper);
                hardware_ms += paper[op];
            }
        }
        speedup = ratio(reference_ms, hardware_ms);
    }
    v.insert("pipeline.paper_speedup", speedup);
}

/// `untraced_p50` is the median of every warm call, rounds pooled: like the
/// traced round's calls, single samples and not minima over rounds.
fn traced_metrics(
    v: &mut BTreeMap<&'static str, f64>,
    tr: &Tracer,
    traced_wall: &[f64],
    untraced_p50: f64,
) {
    let totals = self_times(tr.spans());
    let per_count = |span: &str| totals.get(span).map_or(0.0, |t| t.us_per_count());
    v.insert("index.search_us_per_call", per_count("index.stage1"));
    v.insert(
        "filters.interior_build_us",
        per_count("filters.interior_build"),
    );
    v.insert("geom.sweep_us_per_pair", per_count("geom.sweep"));
    v.insert("geom.mindist_us_per_pair", per_count("geom.mindist"));
    v.insert("raster.execute_us_per_list", per_count("raster.execute"));
    v.insert(
        "raster.replay_cost_us_per_list",
        per_count("raster.replay_cost"),
    );
    v.insert("testers.record_us_per_list", per_count("testers.record"));
    let traced_p50 = percentile(&sorted(traced_wall.to_vec()), 0.5);
    v.insert(
        "trace.overhead_pct",
        (traced_p50 / untraced_p50 - 1.0) * 100.0,
    );
}

impl Report {
    /// The metrics of `table` this run measured, in table order. Panics
    /// if one that should be known is missing — a bug in this file.
    pub fn metrics(
        &self,
        table: &'static [spec::MetricSpec],
    ) -> Vec<(&'static spec::MetricSpec, f64)> {
        table
            .iter()
            .filter_map(|m| match self.values.get(m.name) {
                Some(&value) => Some((m, value)),
                None if m.source == Source::Trace && self.spans.is_none() => None,
                None => panic!("metric {} was never computed", m.name),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn outcome(rows: Option<u64>, candidates: usize) -> Outcome {
        Outcome {
            wall: Duration::from_millis(1),
            rows,
            cost: CostBreakdown {
                candidates,
                ..CostBreakdown::default()
            },
        }
    }

    fn reference(rows: u64) -> Option<Reference> {
        Some(Reference {
            rows,
            paper: Duration::ZERO,
        })
    }

    #[test]
    fn the_gate_fails_errors_mismatches_and_drifting_counters() {
        let mut gate = Gate::new(vec![reference(7), None]);
        gate.check(0, &outcome(Some(7), 3));
        gate.check(1, &outcome(Some(9), 3));
        assert_eq!((gate.attempted, gate.failed), (2, 0));

        gate.check(0, &outcome(None, 3)); // returned Err
        gate.check(0, &outcome(Some(8), 3)); // differs from the reference
        gate.check(1, &outcome(Some(10), 3)); // no reference: differs from round one
        gate.check(1, &outcome(Some(9), 4)); // same rows, different counters
        gate.check(1, &outcome(Some(9), 3)); // fine again
        assert_eq!((gate.attempted, gate.failed), (7, 4));
        assert_eq!(gate.problems.len(), 4);
    }

    #[test]
    fn an_unbalanced_or_short_service_ledger_is_a_problem() {
        let mut gate = Gate::new(vec![None]);
        let good = ServiceRound {
            submitted: 10,
            balanced: true,
            ..ServiceRound::default()
        };
        gate.check_service(&Some(good), 10);
        gate.check_service(&None, 10);
        assert!(gate.problems.is_empty());
        gate.check_service(
            &Some(ServiceRound {
                balanced: false,
                ..good
            }),
            10,
        );
        gate.check_service(&Some(good), 11);
        assert_eq!(gate.problems.len(), 2);
    }

    #[test]
    fn op_sequences_are_a_function_of_the_seed() {
        for w in &WORKLOADS {
            let hash = |seed| generate(w.id, seed).sequence_hash();
            assert_eq!(hash(42), hash(42), "{}", w.name);
            assert_ne!(hash(42), hash(43), "{}", w.name);
        }
    }

    #[test]
    fn a_smoke_run_passes_its_gate_and_a_corrupted_reference_fails_it() {
        let opts = RunOpts {
            seed: 7,
            seconds: 0,
            trace: true,
            smoke: true,
            corrupt_reference: false,
        };
        let r = run(WorkloadId::JoinSw, opts);
        assert!(r.correct(), "{:?}", r.problems);
        assert_eq!(r.ops, 11);
        // Cold, warm and traced round: every op three times.
        assert_eq!((r.attempted, r.failed), (33, 0));
        assert_eq!(r.metrics(spec::PER_LAYER).len(), spec::PER_LAYER.len());
        assert_eq!(r.metrics(spec::END_TO_END).len(), spec::END_TO_END.len());

        let r = run(
            WorkloadId::JoinSw,
            RunOpts {
                trace: false,
                corrupt_reference: true,
                ..opts
            },
        );
        assert!(!r.correct());
        // Op 0 fails in the cold and in the warm round.
        assert_eq!(r.failed, 2);
        assert!(r.problems[0].contains("reference"));
    }
}
