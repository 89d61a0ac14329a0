//! # hwspatial — Hardware Acceleration for Spatial Selections and Joins
//!
//! A from-scratch Rust reproduction of Sun, Agrawal & El Abbadi,
//! *Hardware Acceleration for Spatial Selections and Joins*, SIGMOD 2003:
//! a spatial query engine whose refinement step uses graphics-hardware
//! rasterization as an exact-by-construction conservative filter.
//!
//! This façade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`geom`] | `spatial-geom` | polygons, plane sweep, point-in-polygon, minDist |
//! | [`raster`] | `spatial-raster` | simulated OpenGL rasterizer, buffers, cost model |
//! | [`index`] | `spatial-index` | R-tree, window queries, spatial joins |
//! | [`filters`] | `spatial-filters` | interior filter, 0/1-object filters |
//! | [`core`] | `hwa-core` | Algorithm 3.1, distance test, query engine, serving layer |
//! | [`datagen`] | `spatial-datagen` | Table 2 dataset stand-ins |
//!
//! ## Sixty-second tour
//!
//! ```
//! use hwspatial::core::hw_intersect::HwTester;
//! use hwspatial::core::{HwConfig, TestStats};
//! use hwspatial::geom::Polygon;
//!
//! // Two interlocking slabs: MBRs overlap, polygons don't.
//! let a = Polygon::from_coords(&[(0.0, 0.0), (2.0, 0.0), (10.0, 8.0), (8.0, 8.0)]);
//! let b = Polygon::from_coords(&[(5.0, 0.0), (7.0, 0.0), (15.0, 8.0), (13.0, 8.0)]);
//!
//! let mut tester = HwTester::new(HwConfig::recommended());
//! let mut stats = TestStats::default();
//! assert!(!tester.intersects(&a, &b, &mut stats)); // exact, hardware-filtered
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! paper-to-code inventory and `EXPERIMENTS.md` for the reproduced
//! evaluation.

#![forbid(unsafe_code)]

pub use hwa_core as core;
pub use spatial_datagen as datagen;
pub use spatial_filters as filters;
pub use spatial_geom as geom;
pub use spatial_index as index;
pub use spatial_raster as raster;
