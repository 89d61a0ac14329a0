//! The unified staged query executor.
//!
//! Fig. 8's three-stage pipeline — **MBR filtering → intermediate
//! filtering → geometry comparison** — is the same loop for every query
//! the paper evaluates; only three things vary:
//!
//! * the *predicate* being refined ([`Predicate`]: intersects, strict
//!   containment, within-distance);
//! * the *intermediate filters* in front of refinement ([`CandidateFilter`]:
//!   the interior/tiling filter for selections, the 0/1-object filters for
//!   distance joins);
//! * the *refinement backend* deciding survivors ([`RefinementBackend`]:
//!   pure software, or hardware-assisted Algorithm 3.1 with the
//!   `sw_threshold` mix of §4.3).
//!
//! [`StagedExecutor`] owns the loop once: stage timing, the
//! [`CostBreakdown`](crate::stats::CostBreakdown) accounting, batched
//! hardware submission (`hw_batch` pairs per rendering round) and parallel
//! candidate refinement (`refine_threads` workers over deterministic,
//! batch-aligned partitions — results and merged counters are bit-identical
//! to the sequential run). [`QuerySpec`] describes each of the five query
//! kinds as data — the one place that knows how a kind enumerates
//! candidates, which filters apply, how a candidate resolves to a polygon
//! pair and which partition owns it — and `SpatialEngine` and the query
//! service both execute that description.

pub mod backend;
pub mod executor;
pub mod filter;
pub mod recovery;
pub mod spec;

pub use backend::{RefinementBackend, SoftwareBackend};
pub use executor::{Stage1, StagedExecutor, Verdict};
pub use filter::{CandidateFilter, Decision, InteriorFilterStage, ObjectFilterStage};
pub use recovery::RecoveryPolicy;
pub use spec::{Cand, QuerySpec};

/// The spatial predicate a pipeline refines. Carried by value into the
/// backend so one backend serves every pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// Closed polygon intersection (Algorithm 3.1).
    Intersects,
    /// Strict containment: first polygon entirely inside the second.
    ContainedIn,
    /// `dist(P, Q) ≤ d` (§3.1 distance test).
    WithinDistance(f64),
}

/// What stage 3 computes for each candidate the filters left undecided:
/// a boolean [`Predicate`] (the candidate is kept when it holds) or the
/// area-of-overlap measurement of DESIGN.md §14 (kept when positive).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefineOp {
    Test(Predicate),
    /// Area of `P ∩ Q` quantized to a `resolution × resolution` grid over
    /// the pair's shared MBR.
    Measure {
        resolution: usize,
    },
}
