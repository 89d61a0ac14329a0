//! Query requests, budgets, responses and service errors — the wire
//! types of the serving layer.

use crate::service::planner::PlanChoice;
use crate::stats::CostBreakdown;
use spatial_geom::Polygon;
use std::fmt;
use std::time::Duration;

/// One of the five query pipelines, addressed by dataset name against
/// the engine's current snapshot.
#[derive(Debug, Clone)]
pub enum QueryKind {
    /// All objects of `dataset` intersecting `query`.
    IntersectionSelection { dataset: String, query: Polygon },
    /// All objects of `dataset` strictly inside `query`.
    ContainmentSelection { dataset: String, query: Polygon },
    /// All pairs `(i, j)` with `left[i]` intersecting `right[j]`.
    IntersectionJoin { left: String, right: String },
    /// All pairs within distance `distance` (buffer query).
    WithinDistanceJoin {
        left: String,
        right: String,
        distance: f64,
    },
    /// All overlapping pairs with their area of overlap, quantized to a
    /// `resolution × resolution` grid over each pair's shared MBR
    /// (DESIGN.md §14). The resolution is part of the query contract:
    /// planner routing, brownouts and fault fallback never change the
    /// reported areas, only where the counting runs.
    OverlapArea {
        left: String,
        right: String,
        resolution: usize,
    },
}

impl QueryKind {
    /// Pipeline name for stats/log lines.
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::IntersectionSelection { .. } => "intersection_selection",
            QueryKind::ContainmentSelection { .. } => "containment_selection",
            QueryKind::IntersectionJoin { .. } => "intersection_join",
            QueryKind::WithinDistanceJoin { .. } => "within_distance_join",
            QueryKind::OverlapArea { .. } => "overlap_area",
        }
    }

    /// Dense code used in the planner's memo key.
    pub(crate) fn code(&self) -> u8 {
        match self {
            QueryKind::IntersectionSelection { .. } => 0,
            QueryKind::ContainmentSelection { .. } => 1,
            QueryKind::IntersectionJoin { .. } => 2,
            QueryKind::WithinDistanceJoin { .. } => 3,
            QueryKind::OverlapArea { .. } => 4,
        }
    }
}

/// Per-query limits, enforced between pipeline stages (never mid-stage,
/// so an admitted stage always runs to completion and stays
/// deterministic). `None` fields fall back to the engine's
/// `ServiceConfig::default_budget`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryBudget {
    /// Wall-clock deadline, measured from admission. Checked after the
    /// filter stage and again after planning; a query past its deadline
    /// aborts with [`ServiceError::DeadlineExceeded`] instead of
    /// entering the next stage.
    pub deadline: Option<Duration>,
    /// Upper bound on the candidate set the filter stage may hand to
    /// refinement; larger sets abort with
    /// [`ServiceError::CandidateBudgetExceeded`].
    pub max_candidates: Option<usize>,
}

impl QueryBudget {
    /// Fills unset fields from `default` (request wins field-by-field).
    pub(crate) fn or(self, default: QueryBudget) -> QueryBudget {
        QueryBudget {
            deadline: self.deadline.or(default.deadline),
            max_candidates: self.max_candidates.or(default.max_candidates),
        }
    }
}

/// A query plus its (optional) budget.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    pub kind: QueryKind,
    pub budget: QueryBudget,
}

impl QueryRequest {
    pub fn new(kind: QueryKind) -> Self {
        QueryRequest {
            kind,
            budget: QueryBudget::default(),
        }
    }

    pub fn intersection_selection(dataset: impl Into<String>, query: Polygon) -> Self {
        Self::new(QueryKind::IntersectionSelection {
            dataset: dataset.into(),
            query,
        })
    }

    pub fn containment_selection(dataset: impl Into<String>, query: Polygon) -> Self {
        Self::new(QueryKind::ContainmentSelection {
            dataset: dataset.into(),
            query,
        })
    }

    pub fn intersection_join(left: impl Into<String>, right: impl Into<String>) -> Self {
        Self::new(QueryKind::IntersectionJoin {
            left: left.into(),
            right: right.into(),
        })
    }

    pub fn within_distance_join(
        left: impl Into<String>,
        right: impl Into<String>,
        distance: f64,
    ) -> Self {
        Self::new(QueryKind::WithinDistanceJoin {
            left: left.into(),
            right: right.into(),
            distance,
        })
    }

    /// An area-of-overlap aggregation join at the given grid resolution
    /// (it defines the quantization of every reported area, see
    /// [`QueryKind::OverlapArea`]; a zero resolution is refused at
    /// `execute` with [`ServiceError::InvalidQuery`]).
    pub fn overlap_area_join(
        left: impl Into<String>,
        right: impl Into<String>,
        resolution: usize,
    ) -> Self {
        Self::new(QueryKind::OverlapArea {
            left: left.into(),
            right: right.into(),
            resolution,
        })
    }

    /// Replaces the request's budget.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Result rows: dataset indices for selections, index pairs for joins,
/// index pairs with their quantized overlap area for aggregations.
///
/// Areas are `f64`, so `QueryRows` is `PartialEq` but not `Eq`; the
/// aggregation contract still makes `==` meaningful — every backend,
/// shard count and fault plan reports bit-identical areas (DESIGN.md
/// §14), so invariant-13 tests compare responses with plain equality.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryRows {
    Selection(Vec<usize>),
    Join(Vec<(usize, usize)>),
    AreaJoin(Vec<(usize, usize, f64)>),
}

impl QueryRows {
    pub fn len(&self) -> usize {
        match self {
            QueryRows::Selection(v) => v.len(),
            QueryRows::Join(v) => v.len(),
            QueryRows::AreaJoin(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Uniform pair view (selections lift index `i` to `(i, i)`,
    /// aggregations drop their area column), handy for comparing all
    /// the pipelines with one code path.
    pub fn as_pairs(&self) -> Vec<(usize, usize)> {
        match self {
            QueryRows::Selection(v) => v.iter().map(|&i| (i, i)).collect(),
            QueryRows::Join(v) => v.clone(),
            QueryRows::AreaJoin(v) => v.iter().map(|&(i, j, _)| (i, j)).collect(),
        }
    }
}

/// A completed query: rows plus full provenance — which snapshot epoch
/// answered, which plan the planner picked, and the pipeline's cost
/// ledger.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    pub rows: QueryRows,
    /// The backend the planner selected (invariant 13: this choice never
    /// changes `rows`).
    pub plan: PlanChoice,
    /// Whether the plan came from the planner's memo instead of a fresh
    /// pricing pass.
    pub plan_cached: bool,
    /// Snapshot epoch the query executed against; every row refers to
    /// this generation of the data.
    pub epoch: u64,
    /// Candidate count the filter stage produced (what the planner
    /// priced and `max_candidates` was checked against).
    pub candidates: usize,
    pub cost: CostBreakdown,
}

/// The pipeline stage a query was *about to enter* when its deadline
/// was found expired (budgets are checked between stages, never
/// mid-stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Before the MBR filter stage (candidate generation).
    Filter,
    /// Before replay-cost planning.
    Plan,
    /// Before refinement under the chosen plan.
    Refine,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Filter => "filter",
            Stage::Plan => "plan",
            Stage::Refine => "refine",
        })
    }
}

/// Why a request produced no rows.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Admission control turned the query away at the door: `in_flight`
    /// queries already held the `capacity` slots.
    Rejected { in_flight: usize, capacity: usize },
    /// The named dataset is not in the current snapshot.
    UnknownDataset(String),
    /// The query's own parameters describe nothing executable; `reason`
    /// names the parameter and the value it held.
    InvalidQuery { reason: &'static str },
    /// The deadline expired before the named stage could start.
    DeadlineExceeded { stage: Stage, elapsed: Duration },
    /// The filter stage produced more candidates than the budget allows.
    CandidateBudgetExceeded {
        candidates: usize,
        max_candidates: usize,
    },
    /// The brownout controller's shed rung refused the query before it
    /// reached admission. `retry_after_queries` is the number of
    /// submissions until the controller re-evaluates at its next window
    /// boundary — the earliest point at which shedding can stop.
    Overloaded { retry_after_queries: u32 },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Rejected {
                in_flight,
                capacity,
            } => write!(
                f,
                "admission rejected: {in_flight} queries in flight at capacity {capacity}"
            ),
            ServiceError::UnknownDataset(name) => {
                write!(f, "unknown dataset {name:?} in current snapshot")
            }
            ServiceError::InvalidQuery { reason } => write!(f, "invalid query: {reason}"),
            ServiceError::DeadlineExceeded { stage, elapsed } => write!(
                f,
                "deadline exceeded before {stage} stage ({elapsed:?} elapsed)"
            ),
            ServiceError::CandidateBudgetExceeded {
                candidates,
                max_candidates,
            } => write!(
                f,
                "candidate budget exceeded: filter produced {candidates} candidates, \
                 budget allows {max_candidates}"
            ),
            ServiceError::Overloaded {
                retry_after_queries,
            } => write!(
                f,
                "service overloaded: shedding load, retry after {retry_after_queries} queries"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}
