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
//!   restricted search space of Brinkhoff et al. (§4.1.1), narrowed to the
//!   run-box region R ([`reach`]): a block-box search that stops at the
//!   first crossing, with the paper's plane sweep as its bounded fallback
//!   ([`intersect`] and [`sweep`]);
//! * the `minDist` within-distance machinery after Chan, with the paper's
//!   two additional optimizations — early exit at distance ≤ D and frontier
//!   chains clipped to MBRs extended by D ([`chains`], [`mindist`]);
//! * the one software refinement test per [`Predicate`] ([`refine`]): the
//!   MBR gate, point-in-polygon, the verdict on boundaries proven apart
//!   and step 3, written once — the hardware-assisted path in `hwa-core`
//!   calls the same pieces around its filter;
//! * supporting algorithms used by other crates: ear-clipping
//!   triangulation ([`triangulate`], needed only by the filled-polygon
//!   ablation in `hwa-core`) and WKT I/O ([`wkt`]).
//!
//! Everything here is exact (up to `f64`), deterministic and free of
//! graphics-hardware concerns; the simulated GPU lives in `spatial-raster`.

#![forbid(unsafe_code)]

pub mod chains;
pub(crate) mod clip;
pub mod distance;
pub mod intersect;
pub mod mindist;
pub mod pip;
pub mod point;
pub(crate) mod polygon;
pub mod predicates;
pub mod reach;
pub(crate) mod rect;
pub mod refine;
pub(crate) mod segment;
pub mod sweep;
pub mod triangulate;
pub mod wkt;

pub use clip::overlap_area_exact;
pub use intersect::{polygon_contained_in, polygons_intersect, polygons_intersect_brute};
pub use mindist::{min_dist, min_dist_brute, within_distance};
pub use pip::point_in_polygon;
pub use point::Point;
pub use polygon::{Polygon, PolygonError};
pub use rect::Rect;
pub use refine::{Predicate, RefineStats};
pub use segment::Segment;

use std::cell::RefCell;

/// The buffers a software refinement test fills per pair — its run-box
/// walk, the two edge sets it narrows the boundaries to and the boxes it
/// unions them into —
/// kept per thread and reused from pair to pair, so a join allocates them
/// once, not once per candidate. Every user replaces what it reads.
#[derive(Default)]
pub(crate) struct Scratch {
    pub ep: Vec<Segment>,
    pub eq: Vec<Segment>,
    pub boxes: Vec<Rect>,
    pub reach: reach::Reach,
}

/// The most elements a [`Scratch`] buffer keeps between pairs: a buffer
/// that grew past it is freed after use, as a per-pair `Vec` was, so a
/// thread holds at most ≈ 100 KB and a huge pair's edges do not stay
/// resident for the rest of the run.
const SCRATCH_KEEP: usize = 1024;

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Runs `f` on this thread's [`Scratch`]; `f` must not call back in.
pub(crate) fn with_scratch<T>(f: impl FnOnce(&mut Scratch) -> T) -> T {
    SCRATCH.with_borrow_mut(|s| {
        let out = f(s);
        fn release<T>(v: &mut Vec<T>) {
            if v.capacity() > SCRATCH_KEEP {
                *v = Vec::new();
            }
        }
        release(&mut s.ep);
        release(&mut s.eq);
        release(&mut s.boxes);
        s.reach.near.iter_mut().for_each(release);
        out
    })
}
