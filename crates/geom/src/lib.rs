//! Computational-geometry kernel for the SIGMOD 2003 "Hardware Acceleration
//! for Spatial Selections and Joins" reproduction.
//!
//! This crate contains every *software* geometric primitive and algorithm the
//! paper uses or compares against:
//!
//! * primitives: [`Point`], [`Segment`], [`Rect`] (MBRs) and [`Polygon`]
//!   (simple, possibly concave polygons — the data type of all five
//!   evaluation datasets);
//! * robust orientation / incidence predicates ([`predicates`]);
//! * the ray-crossing point-in-polygon test (§3.1 step 1 of the paper,
//!   [`pip`]);
//! * red/blue segment-intersection *detection* over the
//!   restricted search space of Brinkhoff et al. (§4.1.1): a block-box
//!   search that stops at the first crossing, with the paper's plane sweep
//!   as its bounded fallback ([`intersect`] and [`sweep`]);
//! * the `minDist` within-distance machinery after Chan, with the paper's
//!   two additional optimizations — early exit at distance ≤ D and frontier
//!   chains clipped to MBRs extended by D ([`chains`], [`mindist`]);
//! * supporting algorithms used by other crates: convex hull ([`hull`]),
//!   ear-clipping triangulation ([`triangulate`], needed only by the
//!   filled-polygon ablation in `hwa-core`), and WKT I/O ([`wkt`]).
//!
//! Everything here is exact (up to `f64`), deterministic and free of
//! graphics-hardware concerns; the simulated GPU lives in `spatial-raster`.

#![forbid(unsafe_code)]

pub mod chains;
pub mod clip;
pub mod distance;
pub mod hull;
pub mod intersect;
pub mod mindist;
pub mod pip;
pub mod point;
pub mod polygon;
pub mod predicates;
pub mod rect;
pub mod segment;
pub mod sweep;
pub mod triangulate;
pub mod wkt;

pub use clip::{convex_clip, convex_overlap_area, overlap_area_exact};
pub use intersect::{
    polygon_contained_in, polygons_intersect, polygons_intersect_brute, IntersectStats,
};
pub use mindist::{min_dist, min_dist_brute, within_distance, within_distance_sweep, MinDistStats};
pub use pip::point_in_polygon;
pub use point::Point;
pub use polygon::Polygon;
pub use rect::Rect;
pub use segment::Segment;
