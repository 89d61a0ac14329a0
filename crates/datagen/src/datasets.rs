//! The five evaluation-dataset stand-ins and their Table 2 statistics.
//!
//! | Dataset  | N      | min | max    | avg  | character                |
//! |----------|--------|-----|--------|------|--------------------------|
//! | LANDC    | 14,731 | 3   | 4,397  | 192  | land-cover blobs         |
//! | LANDO    | 33,860 | 3   | 8,807  | 20   | ownership parcels        |
//! | STATES50 | 31     | 4   | 10,744 | 1380¹| state-boundary patches   |
//! | PRISM    | 6,243  | 3   | 29,556 | 68   | precipitation bands      |
//! | WATER    | 21,866 | 3   | 39,360 | 91   | elongated hydrography    |
//!
//! ¹ The paper's Table 2 prints "138" for STATES50, which is inconsistent
//! with its own maximum (10,744 over 31 objects forces an average ≥ 347);
//! we assume a dropped digit and use 1,380.
//!
//! `scale` multiplies the object count `N` (floored at a small minimum) and
//! leaves the per-object vertex statistics untouched: join candidate
//! counts shrink ~quadratically while each geometry comparison stays as
//! expensive as the paper's, preserving the cost *shape* of every figure.

use crate::shapes::{band, harmonic_star};
use crate::vertex_dist::VertexDist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spatial_geom::{Point, Polygon};

/// Side length of the square data space. Chosen ≈ 100,000 so that, like
/// the paper's 4–6-digit GIS coordinates (§3), the data resolution vastly
/// exceeds any rendering-window resolution.
pub const DATA_EXTENT: f64 = 100_000.0;

/// A generated dataset: named polygons plus cached MBRs.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub name: &'static str,
    pub polygons: Vec<Polygon>,
}

/// The Table 2 row of a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetStats {
    pub n: usize,
    pub min_vertices: usize,
    pub max_vertices: usize,
    pub avg_vertices: f64,
    pub avg_mbr_width: f64,
    pub avg_mbr_height: f64,
}

impl Dataset {
    /// Computes the dataset's Table 2 row.
    pub fn stats(&self) -> DatasetStats {
        let n = self.polygons.len();
        let mut min_v = usize::MAX;
        let mut max_v = 0;
        let mut sum_v = 0usize;
        let mut sum_w = 0.0;
        let mut sum_h = 0.0;
        for p in &self.polygons {
            let v = p.vertex_count();
            min_v = min_v.min(v);
            max_v = max_v.max(v);
            sum_v += v;
            sum_w += p.mbr().width();
            sum_h += p.mbr().height();
        }
        DatasetStats {
            n,
            min_vertices: min_v,
            max_vertices: max_v,
            avg_vertices: sum_v as f64 / n as f64,
            avg_mbr_width: sum_w / n as f64,
            avg_mbr_height: sum_h / n as f64,
        }
    }
}

/// Equation (2) of the paper: the base query distance for within-distance
/// joins, from the average MBR extents of the two datasets.
pub fn base_distance(a: &Dataset, b: &Dataset) -> f64 {
    let sa = a.stats();
    let sb = b.stats();
    ((sa.avg_mbr_width * sa.avg_mbr_height).sqrt() + (sb.avg_mbr_width * sb.avg_mbr_height).sqrt())
        / 2.0
}

fn scaled_n(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(12)
}

/// Blob-style coverage dataset (LANDC / LANDO / WATER share this skeleton).
#[allow(clippy::too_many_arguments)]
fn blob_dataset(
    name: &'static str,
    n: usize,
    vdist: VertexDist,
    coverage: f64,
    roughness: f64,
    detail: f64,
    aspect_range: (f64, f64),
    rotation_range: (f64, f64),
    seed: u64,
) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let counts = vdist.sample_n(n, &mut rng);
    // Vertex counts in digitized GIS data scale with boundary *length*,
    // and perimeter scales like sqrt(area) for a fixed shape family — so
    // area grows ~quadratically with the vertex count. This puts the heavy
    // tail in charge: the handful of maximum-complexity polygons cover a
    // large part of the space and participate in most candidate pairs,
    // exactly like the paper's state-sized land-cover and river polygons.
    // Areas are normalized so the dataset's total covers `coverage` of the
    // data space, with a per-object cap keeping any one polygon in frame.
    let total_area = coverage * DATA_EXTENT * DATA_EXTENT;
    let cap = 0.18 * total_area;
    let weights: Vec<f64> = counts
        .iter()
        .map(|&v| {
            let w = (v as f64).max(3.0);
            w * w
        })
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    let polygons = counts
        .iter()
        .zip(weights.iter())
        .map(|(&v, &w)| {
            let area = (total_area * w / weight_sum)
                .min(cap)
                .max(total_area * 1e-6);
            let aspect = rng.gen_range(aspect_range.0..=aspect_range.1);
            let radius = (area / (std::f64::consts::PI * aspect)).sqrt();
            let radius = radius.min(DATA_EXTENT / 3.0);
            let center = Point::new(
                rng.gen_range(0.0..DATA_EXTENT),
                rng.gen_range(0.0..DATA_EXTENT),
            );
            let rotation = rng.gen_range(rotation_range.0..=rotation_range.1);
            harmonic_star(
                center, radius, v, roughness, detail, aspect, rotation, &mut rng,
            )
        })
        .collect();
    Dataset { name, polygons }
}

/// LANDC — Wyoming land cover: moderately complex concave blobs.
pub fn landc(scale: f64, seed: u64) -> Dataset {
    blob_dataset(
        "LANDC",
        scaled_n(14_731, scale),
        VertexDist::new(3, 192, 4_397),
        0.9,
        0.5,
        0.35,
        (1.0, 3.0),
        (0.0, std::f64::consts::TAU),
        seed ^ 0x1a9dc,
    )
}

/// LANDO — Wyoming land ownership: many small simple parcels, rare huge
/// ones (heavy tail).
pub fn lando(scale: f64, seed: u64) -> Dataset {
    blob_dataset(
        "LANDO",
        scaled_n(33_860, scale),
        VertexDist::new(3, 20, 8_807),
        0.9,
        0.45,
        0.3,
        (1.0, 1.8),
        (0.0, std::f64::consts::TAU),
        seed ^ 0x1a9d0,
    )
}

/// WATER — hydrography polygons: elongated, wiggly, sparser coverage.
pub fn water(scale: f64, seed: u64) -> Dataset {
    blob_dataset(
        "WATER",
        scaled_n(21_866, scale),
        VertexDist::new(3, 91, 39_360),
        0.25,
        0.5,
        0.35,
        (3.0, 8.0),
        // Hydrography in one basin trends one way; mild rotation keeps the
        // MBRs visibly elongated (and the dataset anisotropic like the real
        // one) instead of isotropizing them.
        (-0.4, 0.4),
        seed ^ 0x7a7e6,
    )
}

/// PRISM — precipitation bands: x-elongated strips tiling the space in
/// rows, heavy-tailed vertex counts.
pub fn prism(scale: f64, seed: u64) -> Dataset {
    let n = scaled_n(6_243, scale);
    let vdist = VertexDist::new(3, 68, 29_556);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9815);
    let counts = vdist.sample_n(n, &mut rng);
    // Tile the space into R rows × C columns of band segments with a
    // roughly 5:1 aspect ratio per segment.
    let cols = ((n as f64 / 5.0).sqrt().round() as usize).max(1);
    let rows = n.div_ceil(cols);
    let cell_w = DATA_EXTENT / cols as f64;
    let cell_h = DATA_EXTENT / rows as f64;
    let polygons = counts
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let r = i / cols;
            let c = i % cols;
            let x0 = c as f64 * cell_w;
            let y0 = r as f64 * cell_h;
            // Vertical jitter lets neighbouring bands interleave, creating
            // the near-miss candidates the refinement stage sweats over.
            let jitter = rng.gen_range(-0.25..0.25) * cell_h;
            band(
                x0,
                x0 + cell_w,
                y0 + jitter + cell_h * 0.15,
                y0 + jitter + cell_h * 0.85,
                v.max(4),
                cell_h * 0.9,
                &mut rng,
            )
        })
        .collect();
    Dataset {
        name: "PRISM",
        polygons,
    }
}

/// STATES50 — the selection query set: 31 large state-boundary patches on
/// a jittered grid covering the data space. Not affected by `scale` (the
/// paper always uses all of them and reports per-query averages).
pub fn states50(seed: u64) -> Dataset {
    let n = 31;
    let vdist = VertexDist::new(4, 1_380, 10_744);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57a7e);
    let counts = vdist.sample_n(n, &mut rng);
    // 6 × 6 grid, first 31 cells.
    let grid = 6usize;
    let cell = DATA_EXTENT / grid as f64;
    let polygons = counts
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let r = i / grid;
            let c = i % grid;
            let center = Point::new(
                (c as f64 + 0.5) * cell + rng.gen_range(-0.1..0.1) * cell,
                (r as f64 + 0.5) * cell + rng.gen_range(-0.1..0.1) * cell,
            );
            harmonic_star(
                center,
                cell * 0.62,
                v.max(4),
                0.35,
                0.25,
                1.0,
                0.0,
                &mut rng,
            )
        })
        .collect();
    Dataset {
        name: "STATES50",
        polygons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_geom::Rect;

    const TEST_SCALE: f64 = 0.01;

    #[test]
    fn table2_columns_match() {
        for (ds, min, max, avg) in [
            (landc(TEST_SCALE, 1), 3usize, 4_397usize, 192.0f64),
            (lando(TEST_SCALE, 1), 3, 8_807, 20.0),
            (prism(TEST_SCALE, 1), 3, 29_556, 68.0),
            (water(TEST_SCALE, 1), 3, 39_360, 91.0),
        ] {
            let s = ds.stats();
            assert_eq!(
                s.min_vertices,
                min.max(if ds.name == "PRISM" { 4 } else { min }),
                "{}",
                ds.name
            );
            assert_eq!(s.max_vertices, max, "{}", ds.name);
            // Judge the average with the single pinned-max polygon
            // excluded: at test scale (tens of objects) that one outlier
            // legitimately dominates the mean — at bench scale it doesn't.
            let mut counts: Vec<usize> = ds.polygons.iter().map(|p| p.vertex_count()).collect();
            counts.sort_unstable();
            counts.pop();
            let trimmed = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
            assert!(
                trimmed > avg * 0.3 && trimmed < avg * 3.0,
                "{}: trimmed avg {} vs target {}",
                ds.name,
                trimmed,
                avg
            );
        }
    }

    #[test]
    fn states50_row() {
        let s = states50(1).stats();
        assert_eq!(s.n, 31);
        assert_eq!(s.min_vertices, 4);
        assert_eq!(s.max_vertices, 10_744);
    }

    #[test]
    fn all_polygons_are_simple_at_small_scale() {
        for ds in [
            landc(TEST_SCALE, 2),
            lando(TEST_SCALE, 2),
            prism(TEST_SCALE, 2),
        ] {
            for (i, p) in ds.polygons.iter().enumerate() {
                assert!(p.is_simple(), "{} polygon {i} not simple", ds.name);
            }
        }
    }

    #[test]
    fn datasets_cover_the_space() {
        let ds = landc(TEST_SCALE, 3);
        let bbox = ds
            .polygons
            .iter()
            .fold(Rect::EMPTY, |r, p| r.union(&p.mbr()));
        assert!(bbox.width() > DATA_EXTENT * 0.7);
        assert!(bbox.height() > DATA_EXTENT * 0.7);
    }

    #[test]
    fn determinism() {
        let a = water(TEST_SCALE, 9);
        let b = water(TEST_SCALE, 9);
        assert_eq!(a.polygons.len(), b.polygons.len());
        assert_eq!(a.polygons[0], b.polygons[0]);
        let c = water(TEST_SCALE, 10);
        assert_ne!(a.polygons[2], c.polygons[2], "different seeds differ");
    }

    #[test]
    fn base_distance_is_positive_and_sane() {
        let a = landc(TEST_SCALE, 4);
        let b = lando(TEST_SCALE, 4);
        let d = base_distance(&a, &b);
        assert!(d > 0.0);
        assert!(d < DATA_EXTENT, "BaseD {d} larger than the data space");
    }

    #[test]
    fn scale_changes_n_not_complexity() {
        let small = landc(0.005, 5);
        let bigger = landc(0.02, 5);
        assert!(bigger.polygons.len() > 2 * small.polygons.len());
        assert_eq!(small.stats().max_vertices, bigger.stats().max_vertices);
    }

    #[test]
    fn water_is_elongated() {
        let ds = water(TEST_SCALE, 7);
        let s = ds.stats();
        assert!(
            s.avg_mbr_width > 1.5 * s.avg_mbr_height,
            "width {} vs height {}",
            s.avg_mbr_width,
            s.avg_mbr_height
        );
    }
}
