//! The two batch-join workloads: `SpatialEngine` join methods under
//! `EngineConfig::hardware(..)` and `EngineConfig::software()`.

use crate::layers::{replay_refinement, HwPlan, Predicate, SAMPLE};
use crate::trace::Tracer;
use crate::workload::{
    hash_rows, sample_positions, Fnv, Inputs, Instance, OpKind, Outcome, Reference, ServiceRound,
    SplitMix64, CORPUS_SEED,
};
use hwspatial::core::pipeline::{CandidateFilter, ObjectFilterStage};
use hwspatial::core::service::QueryRows;
use hwspatial::core::{
    CostBreakdown, EngineConfig, FilterConfig, FilterStats, GeometryTest, HwConfig,
    PreparedDataset, SpatialEngine,
};
use hwspatial::datagen::{self, base_distance, Dataset};
use hwspatial::geom::Polygon;
use hwspatial::index::{join_intersecting_with, join_within_distance_with};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The paper's within-distance sweep: D as a multiple of BaseD (Eq. 2).
const DISTANCE_FACTORS: [f64; 5] = [0.1, 0.5, 1.0, 2.0, 4.0];

#[derive(Debug, Clone, Copy, PartialEq)]
enum JoinKind {
    Intersect,
    Within(f64),
    Area(usize),
}

#[derive(Debug, Clone, Copy)]
struct JoinOp {
    /// Indices into the dataset list.
    a: usize,
    b: usize,
    /// Index into the engine list.
    engine: usize,
    kind: JoinKind,
}

pub struct JoinInputs {
    datasets: Vec<Dataset>,
    engines: Vec<EngineConfig>,
    ops: Vec<JoinOp>,
    /// The other refinement path, and how many leading ops it answers.
    reference: fn(JoinKind) -> EngineConfig,
    reference_ops: usize,
}

fn with_object_filters(cfg: EngineConfig) -> EngineConfig {
    EngineConfig {
        use_object_filters: true,
        ..cfg
    }
}

/// Generates LANDC⋈LANDO and WATER⋈PRISM for `draws` corpus draws and
/// hands each `(a, b, BaseD)` pair to `ops_for`.
fn corpus_pairs(
    draws: u64,
    scale: f64,
    mut ops_for: impl FnMut(usize, usize, f64),
) -> Vec<Dataset> {
    let mut datasets = Vec::new();
    for s in CORPUS_SEED..CORPUS_SEED + draws {
        let base = datasets.len();
        datasets.extend([
            datagen::landc(scale, s),
            datagen::lando(scale, s),
            datagen::water(scale, s),
            datagen::prism(scale, s),
        ]);
        for (a, b) in [(base, base + 1), (base + 2, base + 3)] {
            ops_for(a, b, base_distance(&datasets[a], &datasets[b]));
        }
    }
    datasets
}

/// The five query distances of one pair, each moved by up to ±2 % by the
/// seed. The joins take nothing else from `--seed`: shuffling the ops or
/// shifting one layer against the other kept the work steady but moved
/// `peak_rss_mb` by ±20 % seed to seed — the high-water mark follows the
/// order in which the few huge transient buffers are allocated.
fn distances(rng: &mut SplitMix64, base_d: f64) -> impl Iterator<Item = f64> + '_ {
    DISTANCE_FACTORS
        .iter()
        .map(move |f| f * base_d * (1.0 + rng.symmetric(0.02)))
}

/// `join-hw`: the Figure 12/15/16 sweeps plus the §14 aggregation, per
/// corpus draw and pair — intersection join at r ∈ {4,8,16} × batch ∈
/// {1,32}, within-distance join at r = 8 over the five D, overlap-area
/// join at res ∈ {8,16,32}. One engine per configuration.
pub fn join_hw(seed: u64) -> JoinInputs {
    let mut engines = Vec::new();
    for res in [4, 8, 16] {
        for batch in [1, 32] {
            engines.push(EngineConfig {
                hw_batch: batch,
                ..EngineConfig::hardware(HwConfig::at_resolution(res))
            });
        }
    }
    let ij_engines = engines.len();
    engines.push(with_object_filters(EngineConfig::hardware(
        HwConfig::at_resolution(8),
    )));
    engines.push(EngineConfig::hardware(HwConfig::at_resolution(8)));
    let (dj_engine, oa_engine) = (ij_engines, ij_engines + 1);

    let mut rng = SplitMix64(seed ^ 0x7019_4a11);
    let mut ops = Vec::new();
    let datasets = corpus_pairs(4, 0.005, |a, b, base_d| {
        let mut op = |engine, kind| ops.push(JoinOp { a, b, engine, kind });
        (0..ij_engines).for_each(|e| op(e, JoinKind::Intersect));
        distances(&mut rng, base_d).for_each(|d| op(dj_engine, JoinKind::Within(d)));
        [8, 16, 32]
            .iter()
            .for_each(|&res| op(oa_engine, JoinKind::Area(res)));
    });
    let reference_ops = ops.len();
    JoinInputs {
        datasets,
        engines,
        ops,
        reference: |kind| match kind {
            JoinKind::Within(_) => with_object_filters(EngineConfig::software()),
            _ => EngineConfig::software(),
        },
        reference_ops,
    }
}

/// `join-sw`: intersection join plus the five within-distance joins
/// (object filters on), per corpus draw and pair, all in software.
pub fn join_sw(seed: u64) -> JoinInputs {
    let engines = vec![
        EngineConfig::software(),
        with_object_filters(EngineConfig::software()),
    ];
    let mut rng = SplitMix64(seed ^ 0x7019_50f7);
    let mut ops = Vec::new();
    let datasets = corpus_pairs(9, 0.02, |a, b, base_d| {
        ops.push(JoinOp {
            a,
            b,
            engine: 0,
            kind: JoinKind::Intersect,
        });
        ops.extend(distances(&mut rng, base_d).map(|d| JoinOp {
            a,
            b,
            engine: 1,
            kind: JoinKind::Within(d),
        }));
    });
    JoinInputs {
        datasets,
        engines,
        ops,
        reference: |kind| {
            let hw = EngineConfig::hardware(HwConfig::recommended());
            match kind {
                JoinKind::Within(_) => with_object_filters(hw),
                _ => hw,
            }
        },
        // The first corpus draw's two pairs: 2 × (1 ij + 5 dj).
        reference_ops: 12,
    }
}

impl Inputs for JoinInputs {
    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn sequence_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for ds in &self.datasets {
            ds.polygons.iter().for_each(|p| h.polygon(p));
        }
        for op in &self.ops {
            [op.a, op.b, op.engine]
                .iter()
                .for_each(|&w| h.word(w as u64));
            match op.kind {
                JoinKind::Intersect => h.word(0),
                JoinKind::Within(d) => h.word(d.to_bits()),
                JoinKind::Area(res) => h.word(res as u64),
            }
        }
        h.0
    }

    fn truncate(&mut self, ops: usize) {
        self.ops.truncate(ops);
        self.reference_ops = self.reference_ops.min(ops);
    }

    fn set_up(&self) -> (Box<dyn Instance + '_>, Duration) {
        let raw: Vec<(&str, Vec<Polygon>)> = self
            .datasets
            .iter()
            .map(|d| (d.name, d.polygons.clone()))
            .collect();
        let t = Instant::now();
        let prepared: Vec<PreparedDataset> = raw
            .into_iter()
            .map(|(name, polys)| PreparedDataset::new(name, polys))
            .collect();
        let bulk_load = t.elapsed();
        let engines = self
            .engines
            .iter()
            .map(|cfg| SpatialEngine::new(cfg.clone()))
            .collect();
        let instance = JoinInstance {
            inputs: self,
            prepared,
            engines,
        };
        (Box::new(instance), bulk_load)
    }
}

struct JoinInstance<'a> {
    inputs: &'a JoinInputs,
    prepared: Vec<PreparedDataset>,
    engines: Vec<SpatialEngine>,
}

/// Runs one join on `engine`, timing the join method alone.
fn run_join(
    engine: &mut SpatialEngine,
    a: &PreparedDataset,
    b: &PreparedDataset,
    kind: JoinKind,
) -> (Duration, QueryRows, CostBreakdown) {
    let t = Instant::now();
    match kind {
        JoinKind::Intersect => {
            let (rows, cost) = engine.intersection_join(a, b);
            (t.elapsed(), QueryRows::Join(rows), cost)
        }
        JoinKind::Within(d) => {
            let (rows, cost) = engine.within_distance_join(a, b, d);
            (t.elapsed(), QueryRows::Join(rows), cost)
        }
        JoinKind::Area(res) => {
            let (rows, cost) = engine.overlap_area_join(a, b, res);
            (t.elapsed(), QueryRows::AreaJoin(rows), cost)
        }
    }
}

impl Instance for JoinInstance<'_> {
    fn kind(&self, op: usize) -> OpKind {
        match self.inputs.ops[op].kind {
            JoinKind::Intersect => OpKind::IntersectionJoin,
            JoinKind::Within(_) => OpKind::DistanceJoin,
            JoinKind::Area(_) => OpKind::OverlapArea,
        }
    }

    fn begin_round(&mut self) {}

    fn run_op(&mut self, op: usize) -> Outcome {
        let op = self.inputs.ops[op];
        let (wall, rows, cost) = run_join(
            &mut self.engines[op.engine],
            &self.prepared[op.a],
            &self.prepared[op.b],
            op.kind,
        );
        Outcome {
            wall,
            rows: Some(hash_rows(&rows)),
            cost,
        }
    }

    fn end_round(&mut self) -> Option<ServiceRound> {
        None
    }

    fn references(&mut self) -> Vec<Option<Reference>> {
        // Ops that differ only in the engine under test share one answer.
        let mut memo: BTreeMap<(usize, usize, u64, u64), Reference> = BTreeMap::new();
        let inputs = self.inputs;
        inputs
            .ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                (i < inputs.reference_ops).then(|| {
                    let key = match op.kind {
                        JoinKind::Intersect => (op.a, op.b, 0, 0),
                        JoinKind::Within(d) => (op.a, op.b, 1, d.to_bits()),
                        JoinKind::Area(res) => (op.a, op.b, 2, res as u64),
                    };
                    *memo.entry(key).or_insert_with(|| {
                        let mut engine = SpatialEngine::new((inputs.reference)(op.kind));
                        let (_, rows, cost) = run_join(
                            &mut engine,
                            &self.prepared[op.a],
                            &self.prepared[op.b],
                            op.kind,
                        );
                        Reference {
                            rows: hash_rows(&rows),
                            paper: cost.total(),
                        }
                    })
                })
            })
            .collect()
    }

    fn replay_layers(&mut self, op: usize, tr: &mut Tracer) {
        let JoinOp { a, b, engine, kind } = self.inputs.ops[op];
        let (a, b) = (&self.prepared[a], &self.prepared[b]);
        let cfg = &self.inputs.engines[engine];
        let op = op as u32;
        let candidates: Vec<(usize, usize)> = tr.span("index.stage1", op, |_| {
            let (fcfg, mut fs) = (FilterConfig::default(), FilterStats::default());
            let hits = match kind {
                JoinKind::Within(d) => {
                    join_within_distance_with(&a.tree, &b.tree, d, &fcfg, &mut fs)
                }
                _ => join_intersecting_with(&a.tree, &b.tree, &fcfg, &mut fs),
            };
            (hits.into_iter().map(|(i, j)| (*i, *j)).collect(), 1)
        });
        let sampled: Vec<(usize, usize)> = sample_positions(candidates.len(), SAMPLE)
            .map(|k| candidates[k])
            .collect();
        if let JoinKind::Within(d) = kind {
            tr.span("filters.stage2", op, |_| {
                let mut stage = ObjectFilterStage::new(a, b, d);
                for pair in &sampled {
                    black_box(stage.examine(pair));
                }
                ((), sampled.len() as u64)
            });
        }
        let pairs: Vec<(&Polygon, &Polygon)> = sampled
            .iter()
            .map(|&(i, j)| (a.polygon(i), b.polygon(j)))
            .collect();
        let pred = match kind {
            JoinKind::Intersect => Predicate::Intersects,
            JoinKind::Within(d) => Predicate::Within(d),
            JoinKind::Area(res) => Predicate::OverlapArea(res),
        };
        let plan = (cfg.geometry_test != GeometryTest::Software).then_some(HwPlan {
            resolution: cfg.hw.resolution,
            batch: cfg.hw_batch,
        });
        replay_refinement(tr, op, &pairs, pred, plan);
    }
}
