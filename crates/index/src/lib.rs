//! R-tree spatial index — the MBR filtering stage of the paper's query
//! pipeline (Fig. 8).
//!
//! The paper deliberately leaves indexing untouched ("does not require ...
//! changes to existing storage and index structures"), so this crate
//! provides a textbook R-tree: Sort-Tile-Recursive bulk loading (every
//! dataset is indexed once; a reload builds a new tree), window queries for
//! selections, and a synchronized-traversal spatial join producing the
//! candidate pairs for intersection and within-distance joins.
//!
//! The MBR filter's cost is reported separately by the engine (it is the
//! flat-near-zero curve of Figure 10); candidates are identified by opaque
//! payloads (dataset indices in the engine).
//!
//! Every node holds its children's MBRs in struct-of-arrays lanes, their
//! only copy, and traversals run one kernel per predicate over whole nodes
//! (`soa`); the tree join descends both trees in lock-step on the calling
//! thread.

#![forbid(unsafe_code)]

pub(crate) mod join;
pub(crate) mod rtree;
pub(crate) mod snapshot;
pub(crate) mod soa;

pub use join::{
    join_intersecting, join_intersecting_with, join_within_distance, join_within_distance_with,
};
pub use rtree::RTree;
pub use snapshot::{Snapshot, SnapshotHandle};
pub use soa::{FilterConfig, FilterStats, Intersects};
