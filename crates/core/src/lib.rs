//! The paper's primary contribution: hardware-assisted refinement for
//! spatial selections and joins.
//!
//! * [`hw_intersect`] — **Algorithm 3.1**: software point-in-polygon, then
//!   a hardware segment-intersection *filter* (anti-aliased boundary
//!   rendering + accumulation + Minmax), then the software step 3
//!   (`spatial_geom::intersect::boundaries_meet`) only for pairs the
//!   hardware could not reject;
//! * `hw_distance` — the §3.1 distance extension: boundaries widened by
//!   `D` via Equation (1), wide points covering the vertex caps, with the
//!   software fallback when the required width exceeds the hardware line
//!   width limit;
//! * `choreography` (crate-private) — the one place that decides what
//!   the device runs for a pair: software prologue, §3.2 projection
//!   window, command list, epilogue. The per-pair tester, the atlas
//!   batcher (`hw_batch`) and the service planner all call it;
//! * `config` — window resolution and `sw_threshold` (§4.3);
//! * [`engine`] — the three-stage query pipelines of Fig. 8 (MBR filter →
//!   intermediate filter → geometry comparison) for intersection and
//!   containment selections, intersection, within-distance and
//!   area-of-overlap joins, with per-stage wall-clock and
//!   hardware-counter breakdowns;
//! * [`ablation`] — the filled-polygon variant (Hoff et al.) that the
//!   paper rejects: requires triangulation and is *not* exact; kept to
//!   quantify that design decision;
//! * [`service`] — the always-on serving layer: snapshot epochs,
//!   admission control, per-query budgets and the online replay-cost
//!   planner (the paper's Figure 13 break-even analysis, per query).
//!
//! The "hardware" is the simulated rasterizer from `spatial-raster`, which
//! implements the OpenGL rasterization rules the correctness argument
//! depends on — see DESIGN.md for why this substitution preserves both the
//! accuracy guarantee and the cost-model shape.

#![forbid(unsafe_code)]

pub mod ablation;
pub(crate) mod choreography;
pub(crate) mod config;
pub mod engine;
pub(crate) mod hw_batch;
pub(crate) mod hw_distance;
pub mod hw_intersect;
pub mod hw_overlap;
pub mod pipeline;
pub mod service;
pub(crate) mod stats;

pub use config::HwConfig;
pub use engine::{ConfigError, EngineConfig, GeometryTest, PreparedDataset, SpatialEngine};
pub use hw_distance::hw_within_distance;
pub use hw_intersect::HwTester;
pub use hw_overlap::overlap_cell_area;
pub use pipeline::{
    CandidateFilter, Decision, Predicate, QuerySpec, RecoveryPolicy, RefineOp, RefinementBackend,
    Stage1, StagedExecutor,
};
pub use service::{
    BrownoutConfig, BrownoutRung, PlanChoice, PlannerConfig, PlannerMode, QueryBudget, QueryEngine,
    QueryRequest, QueryResponse, ServiceConfig, ServiceSnapshot, ServiceStats,
};
pub use spatial_index::{FilterConfig, FilterStats};
pub use spatial_raster::{DeviceError, DeviceKind, FaultKind, FaultPlan, FaultTrigger};
pub use stats::{CostBreakdown, TestStats};
