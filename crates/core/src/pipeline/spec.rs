//! One description of a query: the five query kinds as plain data.
//!
//! Fig. 8 is one pipeline that selections, joins and aggregations all
//! instantiate. A [`QuerySpec`] names the instantiation — a left side
//! (one window polygon or a whole dataset), a right dataset and a
//! [`RefineOp`] — and its methods are the only place that knows how a
//! query kind enumerates stage-1 candidates, which intermediate filters
//! apply, how a candidate resolves to a polygon pair and which PBSM
//! partition owns it. `SpatialEngine` and the query service both build a
//! spec and run it; neither re-spells a kind.

use super::executor::{Stage1, StagedExecutor, Verdict};
use super::filter::{CandidateFilter, InteriorFilterStage, ObjectFilterStage};
use super::{Predicate, RefineOp, RefinementBackend};
use crate::engine::{EngineConfig, PreparedDataset};
use crate::stats::CostBreakdown;
use spatial_geom::{Polygon, Rect};
use spatial_index::{
    join_intersecting_with, join_within_distance_with, FilterConfig, FilterStats, SpatialGrid,
};
use std::time::Instant;

/// A stage-1 candidate: `(left index, right index)`. A selection has a
/// single left object — its window — so its candidates are `(0, j)`.
pub type Cand = (usize, usize);

#[derive(Debug, Clone, Copy)]
enum Left<'a> {
    /// A selection window (candidate left index 0).
    One(&'a Polygon),
    /// The left dataset of a join.
    Many(&'a PreparedDataset),
}

impl<'a> Left<'a> {
    fn polygon(self, i: usize) -> &'a Polygon {
        match self {
            Left::One(query) => query,
            Left::Many(a) => a.polygon(i),
        }
    }
}

/// A query over `right`, fully described. The constructors are the five
/// query kinds; the fields stay private so only those five combinations
/// exist.
#[derive(Debug, Clone, Copy)]
pub struct QuerySpec<'a> {
    left: Left<'a>,
    right: &'a PreparedDataset,
    op: RefineOp,
}

impl<'a> QuerySpec<'a> {
    /// All objects of `ds` intersecting `query`.
    pub fn intersection_selection(ds: &'a PreparedDataset, query: &'a Polygon) -> Self {
        Self::new(Left::One(query), ds, RefineOp::Test(Predicate::Intersects))
    }

    /// All objects of `ds` strictly inside `query`.
    pub fn containment_selection(ds: &'a PreparedDataset, query: &'a Polygon) -> Self {
        Self::new(Left::One(query), ds, RefineOp::Test(Predicate::ContainedIn))
    }

    /// All pairs `(i, j)` with `a[i]` intersecting `b[j]`.
    pub fn intersection_join(a: &'a PreparedDataset, b: &'a PreparedDataset) -> Self {
        Self::new(Left::Many(a), b, RefineOp::Test(Predicate::Intersects))
    }

    /// All pairs within distance `d`.
    pub fn within_distance_join(a: &'a PreparedDataset, b: &'a PreparedDataset, d: f64) -> Self {
        Self::new(
            Left::Many(a),
            b,
            RefineOp::Test(Predicate::WithinDistance(d)),
        )
    }

    /// All overlapping pairs with their area of overlap at `resolution`
    /// (≥ 1). Same candidates as the intersection join — only
    /// MBR-overlapping pairs can have nonzero area.
    pub fn overlap_area_join(
        a: &'a PreparedDataset,
        b: &'a PreparedDataset,
        resolution: usize,
    ) -> Self {
        Self::new(Left::Many(a), b, RefineOp::Measure { resolution })
    }

    fn new(left: Left<'a>, right: &'a PreparedDataset, op: RefineOp) -> Self {
        QuerySpec { left, right, op }
    }

    pub fn op(&self) -> RefineOp {
        self.op
    }

    /// Stage 1: the MBR filter, run and timed once. `elapsed` covers the
    /// traversal alone.
    pub fn stage1(&self, cfg: &FilterConfig) -> Stage1<Cand> {
        let right = self.right;
        let mut stats = FilterStats::default();
        let t0 = Instant::now();
        let candidates = match self.left {
            Left::One(query) => {
                let qmbr = query.mbr();
                // Containment: only objects whose MBR lies inside the
                // query MBR can qualify.
                let inside_only = self.op == RefineOp::Test(Predicate::ContainedIn);
                let hits = right
                    .tree
                    .search_intersects_stats(&qmbr, cfg.simd, &mut stats);
                hits.into_iter()
                    .filter(|&&j| !inside_only || qmbr.contains_rect(&right.polygon(j).mbr()))
                    .map(|&j| (0, j))
                    .collect()
            }
            Left::Many(a) => {
                let pairs = match self.op {
                    RefineOp::Test(Predicate::WithinDistance(d)) => {
                        join_within_distance_with(&a.tree, &right.tree, d, cfg, &mut stats)
                    }
                    _ => join_intersecting_with(&a.tree, &right.tree, cfg, &mut stats),
                };
                pairs.into_iter().map(|(i, j)| (*i, *j)).collect()
            }
        };
        Stage1 {
            candidates,
            stats,
            elapsed: t0.elapsed(),
        }
    }

    /// Stage 2: the interior filter for selections (it confirms for the
    /// intersection and containment predicates alike — Table 1), the
    /// 0/1-object filters for within-distance joins. A boolean filter
    /// cannot settle an area, so measurements have none.
    fn filters(&self, config: &EngineConfig) -> Vec<Box<dyn CandidateFilter<Cand> + 'a>> {
        match (self.left, self.op) {
            (Left::One(query), _) => match config.interior_filter_level {
                Some(level) => vec![Box::new(InteriorFilterStage::new(query, level, self.right))],
                None => Vec::new(),
            },
            (Left::Many(a), RefineOp::Test(Predicate::WithinDistance(d)))
                if config.use_object_filters =>
            {
                vec![Box::new(ObjectFilterStage::new(a, self.right, d))]
            }
            _ => Vec::new(),
        }
    }

    /// The polygon pair stage 3 refines for a candidate, in the
    /// predicate's argument order: containment asks whether the *object*
    /// lies inside the window.
    pub fn resolve(&self, (i, j): Cand) -> (&'a Polygon, &'a Polygon) {
        let (left, right) = (self.left.polygon(i), self.right.polygon(j));
        if self.op == RefineOp::Test(Predicate::ContainedIn) {
            (right, left)
        } else {
            (left, right)
        }
    }

    /// The PBSM grid's universe: the joint extent of both sides.
    fn universe(&self) -> Rect {
        let left = match self.left {
            Left::One(query) => query.mbr(),
            Left::Many(a) => a.tree.mbr(),
        };
        left.union(&self.right.tree.mbr())
    }

    /// The partition owning a candidate under the reference-point rule
    /// (shifted by the distance for within-distance joins).
    fn assign(&self, grid: &SpatialGrid, &(i, j): &Cand) -> usize {
        let (left, right) = (self.left.polygon(i).mbr(), self.right.polygon(j).mbr());
        match self.op {
            RefineOp::Test(Predicate::WithinDistance(d)) => {
                grid.assign_pair_within(&left, &right, d)
            }
            _ => grid.assign_pair(&left, &right),
        }
    }

    /// Stages 2 and 3 over `stage1` (this spec's own [`stage1`]
    /// output) under `config`'s filter, batching, threading and
    /// partitioning knobs. `O` is the operation's [`Verdict`]: `()` for
    /// the four boolean kinds, `f64` for the overlap-area join.
    ///
    /// [`stage1`]: QuerySpec::stage1
    pub fn execute<O: Verdict>(
        &self,
        config: &EngineConfig,
        backend: &mut dyn RefinementBackend,
        stage1: Stage1<Cand>,
    ) -> (Vec<(Cand, O)>, CostBreakdown) {
        let n = config.partition.grid.max(1);
        let grid = SpatialGrid::new(n, self.universe());
        let executor = StagedExecutor {
            batch: config.hw_batch,
            threads: config.refine_threads,
            partitions: n * n,
        };
        executor.run(
            backend,
            self.op,
            stage1,
            self.filters(config),
            |c| self.assign(&grid, c),
            |c| self.resolve(c),
        )
    }
}

/// Selection rows: the right-side indices of the kept candidates.
pub fn selection_rows(kept: Vec<(Cand, ())>) -> Vec<usize> {
    kept.into_iter().map(|((_, j), ())| j).collect()
}

/// Join rows: the kept index pairs.
pub fn join_rows(kept: Vec<(Cand, ())>) -> Vec<Cand> {
    kept.into_iter().map(|(c, ())| c).collect()
}

/// Aggregation rows: the kept index pairs with their areas.
pub fn area_rows(kept: Vec<(Cand, f64)>) -> Vec<(usize, usize, f64)> {
    kept.into_iter()
        .map(|((i, j), area)| (i, j, area))
        .collect()
}
