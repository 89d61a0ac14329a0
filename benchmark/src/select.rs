//! The two served-selection workloads: `QueryEngine::execute` under the
//! shipped `ServiceConfig::default()` (adaptive planner), one closed-loop
//! client.

use crate::layers::{replay_refinement, HwPlan, Predicate, SAMPLE};
use crate::trace::Tracer;
use crate::workload::{
    hash_rows, sample_positions, Fnv, Inputs, Instance, OpKind, Outcome, Reference, ServiceRound,
    SplitMix64, CORPUS_SEED, SHIFT,
};
use hwspatial::core::service::{
    LatencyHistogram, QueryEngine, QueryKind, QueryRequest, QueryRows, ServiceConfig,
    ServiceSnapshot, ServiceStats,
};
use hwspatial::core::{EngineConfig, FilterStats, PreparedDataset, SpatialEngine};
use hwspatial::datagen::{self, Dataset, DATA_EXTENT};
use hwspatial::filters::InteriorFilter;
use hwspatial::geom::Polygon;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tiling level of the replayed interior filter (Figure 10 sweeps 0–6; the
/// shipped selection pipeline runs with the filter off).
const INTERIOR_LEVEL: u32 = 4;

pub struct SelectInputs {
    datasets: Vec<Dataset>,
    requests: Vec<QueryRequest>,
    /// `Some(n)`: memo-cold serving — a fresh engine every round and a
    /// `reload()` of an identical snapshot before every `n`th op.
    reload_every: Option<usize>,
}

/// `select-warm`: the 31 STATES50 polygons, each displaced by a seeded
/// offset, against four datasets, both selection predicates — 248 shapes,
/// the same every round, so the plan memo (256 entries) holds them all.
/// The order is fixed: a seeded shuffle left the work alone but moved
/// `peak_rss_mb` by 5 % seed to seed.
pub fn select_warm(seed: u64) -> SelectInputs {
    const SCALE: f64 = 0.05;
    let datasets = vec![
        datagen::landc(SCALE, CORPUS_SEED),
        datagen::lando(SCALE, CORPUS_SEED),
        datagen::water(SCALE, CORPUS_SEED),
        datagen::prism(SCALE, CORPUS_SEED),
    ];
    let mut rng = SplitMix64(seed ^ 0x5e1e_c7aa);
    let windows: Vec<Polygon> = datagen::states50(CORPUS_SEED)
        .polygons
        .iter()
        .map(|w| w.translated(rng.symmetric(SHIFT), rng.symmetric(SHIFT)))
        .collect();
    let mut requests = Vec::new();
    for ds in &datasets {
        for contain in [false, true] {
            for w in &windows {
                requests.push(selection(ds.name, w.clone(), contain));
            }
        }
    }
    SelectInputs {
        datasets,
        requests,
        reload_every: None,
    }
}

/// `select-small`: 3000 never-repeating seeded square windows, 3–8× the
/// mean object extent on a side, over the full-size LANDO.
pub fn select_small(seed: u64) -> SelectInputs {
    const OPS: usize = 3000;
    let lando = datagen::lando(1.0, CORPUS_SEED);
    let extent = lando
        .polygons
        .iter()
        .map(|p| (p.mbr().width() * p.mbr().height()).sqrt())
        .sum::<f64>()
        / lando.polygons.len() as f64;
    let mut rng = SplitMix64(seed ^ 0x5e1e_c75a);
    let requests = (0..OPS)
        .map(|i| {
            let half = extent * (3.0 + 5.0 * rng.next_f64()) / 2.0;
            let (cx, cy) = (rng.next_f64() * DATA_EXTENT, rng.next_f64() * DATA_EXTENT);
            let window = Polygon::from_coords(&[
                (cx - half, cy - half),
                (cx + half, cy - half),
                (cx + half, cy + half),
                (cx - half, cy + half),
            ]);
            selection(lando.name, window, i % 2 == 1)
        })
        .collect();
    SelectInputs {
        datasets: vec![lando],
        requests,
        reload_every: Some(500),
    }
}

fn selection(dataset: &str, window: Polygon, contain: bool) -> QueryRequest {
    if contain {
        QueryRequest::containment_selection(dataset, window)
    } else {
        QueryRequest::intersection_selection(dataset, window)
    }
}

/// `(dataset, window, containment?)` of a selection request.
fn parts(req: &QueryRequest) -> (&str, &Polygon, bool) {
    match &req.kind {
        QueryKind::IntersectionSelection { dataset, query } => (dataset, query, false),
        QueryKind::ContainmentSelection { dataset, query } => (dataset, query, true),
        other => unreachable!(
            "selection workloads only build selections, not {}",
            other.name()
        ),
    }
}

impl Inputs for SelectInputs {
    fn ops(&self) -> usize {
        self.requests.len()
    }

    fn sequence_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for ds in &self.datasets {
            ds.polygons.iter().for_each(|p| h.polygon(p));
        }
        for req in &self.requests {
            let (dataset, window, contain) = parts(req);
            dataset.bytes().for_each(|b| h.word(u64::from(b)));
            h.word(u64::from(contain));
            h.polygon(window);
        }
        h.0
    }

    fn truncate(&mut self, ops: usize) {
        self.requests.truncate(ops);
    }

    fn set_up(&self) -> (Box<dyn Instance + '_>, Duration) {
        // The copy stands in for data arriving from storage; it is not
        // part of what the product does to prepare it.
        let raw: Vec<(&str, Vec<Polygon>)> = self
            .datasets
            .iter()
            .map(|d| (d.name, d.polygons.clone()))
            .collect();
        let t = Instant::now();
        let shared: Vec<Arc<PreparedDataset>> = raw
            .into_iter()
            .map(|(name, polys)| Arc::new(PreparedDataset::new(name, polys)))
            .collect();
        let bulk_load = t.elapsed();
        let engine = QueryEngine::new(ServiceConfig::default(), snapshot(&shared));
        let instance = SelectInstance {
            inputs: self,
            shared,
            engine,
            base: ServiceStats::default(),
            reloads: 0,
            reload_ns: 0,
        };
        (Box::new(instance), bulk_load)
    }
}

fn snapshot(shared: &[Arc<PreparedDataset>]) -> ServiceSnapshot {
    let mut snap = ServiceSnapshot::new();
    for ds in shared {
        snap.insert_shared(Arc::clone(ds));
    }
    snap
}

struct SelectInstance<'a> {
    inputs: &'a SelectInputs,
    shared: Vec<Arc<PreparedDataset>>,
    engine: QueryEngine,
    /// The engine's ledger when the current round began.
    base: ServiceStats,
    reloads: u64,
    reload_ns: u128,
}

impl SelectInstance<'_> {
    fn dataset(&self, name: &str) -> &PreparedDataset {
        self.shared
            .iter()
            .find(|d| d.name == name)
            .expect("requests name generated datasets")
    }
}

/// The histogram keeps a count and a mean (truncated to ns), not the sum.
fn total_ns(h: &LatencyHistogram) -> u128 {
    h.mean().as_nanos() * u128::from(h.count())
}

impl Instance for SelectInstance<'_> {
    fn kind(&self, _op: usize) -> OpKind {
        OpKind::Selection
    }

    fn begin_round(&mut self) {
        if self.inputs.reload_every.is_some() {
            self.engine = QueryEngine::new(ServiceConfig::default(), snapshot(&self.shared));
        }
        self.base = self.engine.stats();
        self.reloads = 0;
        self.reload_ns = 0;
    }

    fn run_op(&mut self, op: usize) -> Outcome {
        if self
            .inputs
            .reload_every
            .is_some_and(|n| op > 0 && op.is_multiple_of(n))
        {
            let snap = snapshot(&self.shared);
            let t = Instant::now();
            self.engine.reload(snap);
            self.reload_ns += t.elapsed().as_nanos();
            self.reloads += 1;
        }
        let request = &self.inputs.requests[op];
        let t = Instant::now();
        let result = self.engine.execute(request);
        let wall = t.elapsed();
        match result {
            Ok(resp) => Outcome {
                wall,
                rows: Some(hash_rows(&resp.rows)),
                cost: resp.cost,
            },
            Err(_) => Outcome {
                wall,
                rows: None,
                cost: Default::default(),
            },
        }
    }

    fn end_round(&mut self) -> Option<ServiceRound> {
        let (now, base) = (self.engine.stats(), &self.base);
        let aborts = |s: &ServiceStats| {
            s.rejected + s.overload_sheds + s.deadline_aborts + s.budget_aborts + s.unknown_dataset
        };
        Some(ServiceRound {
            submitted: now.submitted - base.submitted,
            refused: aborts(&now) - aborts(base),
            planned_hw: now.planned_hw - base.planned_hw,
            planned_sw: now.planned_sw - base.planned_sw,
            memo_hits: now.plan_cache_hits - base.plan_cache_hits,
            memo_misses: now.plan_cache_misses - base.plan_cache_misses,
            balanced: now.balanced(),
            filter_ns: total_ns(&now.latencies.filter) - total_ns(&base.latencies.filter),
            plan_ns: total_ns(&now.latencies.plan) - total_ns(&base.latencies.plan),
            refine_ns: total_ns(&now.latencies.refine) - total_ns(&base.latencies.refine),
            reloads: self.reloads,
            reload_ns: self.reload_ns,
        })
    }

    fn references(&mut self) -> Vec<Option<Reference>> {
        let mut software = SpatialEngine::new(EngineConfig::software());
        self.inputs
            .requests
            .iter()
            .map(|req| {
                let (name, window, contain) = parts(req);
                let ds = self.dataset(name);
                let (rows, cost) = if contain {
                    software.containment_selection(ds, window)
                } else {
                    software.intersection_selection(ds, window)
                };
                Some(Reference {
                    rows: hash_rows(&QueryRows::Selection(rows)),
                    paper: cost.total(),
                })
            })
            .collect()
    }

    fn replay_layers(&mut self, op: usize, tr: &mut Tracer) {
        let (name, window, contain) = parts(&self.inputs.requests[op]);
        let ds = self.dataset(name);
        let op = op as u32;
        let qmbr = window.mbr();
        let candidates: Vec<usize> = tr.span("index.stage1", op, |_| {
            let mut fs = FilterStats::default();
            let hits = ds.tree.search_intersects_stats(&qmbr, true, &mut fs);
            let c = hits
                .into_iter()
                .copied()
                .filter(|&i| !contain || qmbr.contains_rect(&ds.polygon(i).mbr()))
                .collect();
            (c, 1)
        });
        let sampled: Vec<usize> = sample_positions(candidates.len(), SAMPLE)
            .map(|k| candidates[k])
            .collect();
        let filter = tr.span("filters.interior_build", op, |_| {
            (InteriorFilter::build(window, INTERIOR_LEVEL), 1)
        });
        tr.span("filters.stage2", op, |_| {
            for &i in &sampled {
                black_box(filter.covers(&ds.polygon(i).mbr()));
            }
            ((), sampled.len() as u64)
        });
        let pairs: Vec<(&Polygon, &Polygon)> = sampled
            .iter()
            .map(|&i| {
                if contain {
                    (ds.polygon(i), window)
                } else {
                    (window, ds.polygon(i))
                }
            })
            .collect();
        let base = ServiceConfig::default().base;
        let (pred, plan) = (
            if contain {
                Predicate::ContainedIn
            } else {
                Predicate::Intersects
            },
            Some(HwPlan {
                resolution: base.hw.resolution,
                batch: base.hw_batch,
            }),
        );
        replay_refinement(tr, op, &pairs, pred, plan);
    }
}
