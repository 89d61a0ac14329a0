//! The runtime intermediate filters the paper implements for its baseline
//! pipelines (§4.1.1) — the middle stage of Fig. 8:
//!
//! * `interior` — the **interior filter** for intersection selections: a
//!   `2^l × 2^l` tiling of the query polygon whose fully-interior tiles
//!   identify *positive* candidates without geometry comparison (Fig. 9(a),
//!   swept over `l` in Figure 10);
//! * [`object_filters`] — the **0-object** and **1-object** filters for
//!   within-distance joins: cheap upper bounds on the object distance that
//!   confirm positive pairs early (Fig. 14's breakdown).
//!
//! Both are *runtime* filters: they need only MBRs and (for the 1-object
//! filter) one actual geometry — no pre-processing, matching the paper's
//! constraint that nothing about storage or indexes may change.
//!
//! Soundness contracts (property-tested):
//! * every candidate the interior filter accepts truly intersects the query
//!   polygon (it may accept fewer than possible, never wrong ones);
//! * the 0/1-object bounds are true upper bounds on the polygon distance.

#![forbid(unsafe_code)]

pub(crate) mod interior;
pub mod object_filters;

pub use interior::InteriorFilter;
pub use object_filters::{
    one_object_upper_bound, one_object_within, one_object_within_with, zero_object_upper_bound,
    OneObjectStats, Sample,
};
