//! The unified staged query executor.
//!
//! Fig. 8's three-stage pipeline — **MBR filtering → intermediate
//! filtering → geometry comparison** — is the same loop for every query
//! the paper evaluates; only three things vary:
//!
//! * the *predicate* being refined ([`Predicate`]: intersects, strict
//!   containment, within-distance — `spatial_geom`'s, whose software test
//!   both backends share);
//! * the *intermediate filters* in front of refinement ([`CandidateFilter`]:
//!   the interior/tiling filter for selections, the 0/1-object filters for
//!   distance joins);
//! * the *refinement backend* deciding survivors ([`RefinementBackend`]:
//!   pure software, or hardware-assisted Algorithm 3.1 with the
//!   `sw_threshold` mix of §4.3).
//!
//! [`StagedExecutor`] owns the loop once: stage timing, the
//! [`CostBreakdown`](crate::stats::CostBreakdown) accounting and batched
//! hardware submission (`hw_batch` pairs per rendering round — results
//! are bit-identical to per-pair submission). [`QuerySpec`] describes each of the five query
//! kinds as data — the one place that knows how a kind enumerates
//! candidates, which filters apply and how a candidate resolves to a
//! polygon pair — and `SpatialEngine` and the query service both execute
//! that description.

pub(crate) mod backend;
pub(crate) mod executor;
pub(crate) mod filter;
pub(crate) mod recovery;
pub(crate) mod spec;

pub use backend::RefinementBackend;
pub(crate) use backend::SoftwareBackend;
pub use executor::{Stage1, StagedExecutor, Verdict};
pub use filter::{CandidateFilter, Decision, ObjectFilterStage};
pub use recovery::RecoveryPolicy;
/// The spatial predicate a pipeline refines, carried by value into the
/// backend so one backend serves every pipeline. Its software test lives
/// in `spatial_geom`, where both refinement paths call it.
pub use spatial_geom::Predicate;
pub(crate) use spec::Cand;
pub use spec::QuerySpec;

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
