//! R-tree spatial index — the MBR filtering stage of the paper's query
//! pipeline (Fig. 8).
//!
//! The paper deliberately leaves indexing untouched ("does not require ...
//! changes to existing storage and index structures"), so this crate
//! provides a textbook Guttman R-tree: quadratic-split insertion,
//! Sort-Tile-Recursive bulk loading, window queries for selections, and a
//! synchronized-traversal spatial join producing the candidate pairs for
//! intersection and within-distance joins.
//!
//! The MBR filter's cost is reported separately by the engine (it is the
//! flat-near-zero curve of Figure 10); candidates are identified by opaque
//! payloads (dataset indices in the engine).
//!
//! Since the filter-stage rework, every node carries a struct-of-arrays
//! mirror of its children's MBRs and traversals run lane-generic kernels
//! over whole nodes ([`soa`]); the tree join schedules fixed-size page-pair
//! work units across `FilterConfig::threads` workers with an ordered merge
//! that keeps the candidate sequence bit-identical to the sequential
//! traversal.

#![forbid(unsafe_code)]

pub mod join;
pub mod partition;
pub mod rtree;
pub mod snapshot;
pub mod soa;

pub use join::{
    join_intersecting, join_intersecting_with, join_within_distance, join_within_distance_with,
};
pub use partition::SpatialGrid;
pub use rtree::RTree;
pub use snapshot::{Snapshot, SnapshotHandle};
pub use soa::{
    ChildMbrs, FilterConfig, FilterStats, Intersects, MbrPredicate, WithinDist, DEFAULT_UNIT_PAIRS,
    SIMD_LANES,
};
