//! Seeded synthetic stand-ins for the paper's five real-world datasets
//! (Table 2). The originals — Wyoming land cover / ownership, US state
//! boundaries, PRISM precipitation and hydrography polygons — are not
//! redistributable, so we generate polygon sets that match the statistics
//! the experiments actually depend on:
//!
//! * object counts and the min / avg / max vertex-count columns of
//!   Table 2 (complexity drives refinement cost and `sw_threshold`);
//! * shape character: concave, irregular boundaries (Fig. 1), elongated
//!   hydrography features, banded precipitation isohyets, patch-like
//!   state/parcel outlines;
//! * coverage-style spatial distribution, so MBR joins produce realistic
//!   candidate mixes of true positives and near-miss negatives — the
//!   near-misses are precisely what the hardware filter earns its keep on.
//!
//! Everything is deterministic given the seed; `scale` shrinks object
//! counts (default 1/20 in the benches) without touching per-object
//! complexity, so join workloads shrink quadratically while the
//! refinement-cost *shape* is preserved.

#![forbid(unsafe_code)]

pub mod datasets;
pub mod shapes;
pub mod vertex_dist;

pub use datasets::{
    base_distance, landc, lando, prism, states50, water, Dataset, DatasetStats, DATA_EXTENT,
};
pub use vertex_dist::VertexDist;
