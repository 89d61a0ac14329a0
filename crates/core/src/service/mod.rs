//! The serving layer: a long-lived, concurrently shared query engine
//! with snapshot epochs, admission control, per-query budgets and
//! online replay-cost planning (DESIGN.md §12).
//!
//! The batch engine ([`SpatialEngine`](crate::SpatialEngine)) answers
//! one query at a time against datasets the caller holds. A service
//! answers *streams* of queries from many clients against datasets that
//! occasionally reload, and has to decide — per query, under latency
//! bounds — whether hardware refinement pays off. This module packages
//! those concerns:
//!
//! * **Snapshots** — [`QueryEngine`] owns named datasets + R-trees
//!   behind an epoch-stamped
//!   [`SnapshotHandle`](spatial_index::SnapshotHandle). A query pins
//!   one epoch for its whole
//!   lifetime; [`QueryEngine::reload`] publishes a replacement with one
//!   pointer swap and never blocks readers.
//! * **Admission** — a bounded slot counter caps concurrent queries;
//!   the excess is rejected immediately ([`ServiceError::Rejected`])
//!   instead of queueing invisibly.
//! * **Budgets** — each request carries an optional deadline and
//!   candidate cap ([`QueryBudget`]), checked *between* pipeline stages
//!   so stages stay deterministic.
//! * **Planning** — the paper's Figure 13 break-even analysis run
//!   online, per sampled pair: software costs the pair's step 3, priced
//!   from the edges its run boxes leave step 3 to visit; hardware costs
//!   the modeled GPU time of the pair's list — replayed at a few
//!   resolutions on a private reference device of the pricing pass,
//!   off the query's own ledger — plus that step 3 whenever the
//!   replayed scan does not reject the pair. The cheapest of
//!   {software, per-pair hardware, batched hardware} wins. Invariant
//!   13: the choice never changes results — every backend is exact, so
//!   planning is purely a latency decision.
//! * **Brownouts** — under sustained overload a deterministic
//!   controller ([`BrownoutConfig`]) steps a degradation ladder —
//!   coarser plans → forced software → typed shedding
//!   ([`ServiceError::Overloaded`]) — and walks back down as windows
//!   come back clean (DESIGN.md §13). Rows never change on any rung.
//! * **Accounting** — [`ServiceStats`] balances exactly:
//!   `submitted == admitted + rejected + overload_sheds` and
//!   `admitted == completed + deadline_aborts + budget_aborts +
//!   unknown_dataset + invalid_queries`, with per-stage latency
//!   histograms.
//!
//! # Example
//!
//! ```
//! use hwa_core::service::{QueryEngine, QueryRequest, ServiceConfig, ServiceSnapshot};
//! use hwa_core::PreparedDataset;
//! use spatial_geom::Polygon;
//!
//! let boxes = vec![
//!     Polygon::from_coords(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)]),
//!     Polygon::from_coords(&[(10.0, 10.0), (14.0, 10.0), (14.0, 14.0), (10.0, 14.0)]),
//! ];
//! let engine = QueryEngine::new(
//!     ServiceConfig::default(),
//!     ServiceSnapshot::new().with(PreparedDataset::new("boxes", boxes)),
//! );
//!
//! let window = Polygon::from_coords(&[(1.0, 1.0), (6.0, 1.0), (6.0, 6.0), (1.0, 6.0)]);
//! let resp = engine
//!     .execute(&QueryRequest::intersection_selection("boxes", window))
//!     .unwrap();
//! assert_eq!(resp.rows.as_pairs(), vec![(0, 0)]); // only the first box
//! assert_eq!(resp.epoch, 0);
//! assert!(engine.stats().balanced());
//! ```

mod admission;
mod brownout;
mod engine;
mod planner;
mod request;
mod stats;

pub use brownout::{BrownoutConfig, BrownoutRung};
pub use engine::{QueryEngine, ServiceConfig, ServiceSnapshot};
pub use planner::{PlanChoice, PlannerConfig, PlannerMode, STEP3_FIXED_NS, STEP3_NS_PER_EDGE};
pub use request::{
    QueryBudget, QueryKind, QueryRequest, QueryResponse, QueryRows, ServiceError, Stage,
};
pub use stats::{LatencyHistogram, ServiceStats, StageLatencies};
