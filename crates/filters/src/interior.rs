//! The interior filter (§4.1.1, Fig. 9(a)).
//!
//! "The interior filter partitions the query polygon into 2^l × 2^l tiles,
//! and keeps the tiles that are completely inside the query polygon as an
//! approximation of the polygon interior. Given an object, the interior
//! filter identifies the object as a positive result if the MBR of the
//! object is completely covered by the interior tiles."
//!
//! The filter can only *confirm* intersections (a covered MBR implies the
//! object is inside the polygon); candidates it does not confirm still go
//! to geometry comparison. Figure 10 shows why its payoff is limited: the
//! positives it finds are exactly the containment cases that the cheap
//! point-in-polygon step would resolve anyway.
//!
//! Construction is conservative: a tile is marked interior only when its
//! center is inside the polygon *and* no polygon edge's MBR overlaps the
//! tile. Over-marking boundary tiles can only shrink the interior
//! approximation, never break soundness.

use spatial_geom::pip::point_strictly_in_polygon;
use spatial_geom::{Polygon, Rect};

/// A tiling-based interior approximation of one query polygon.
#[derive(Debug, Clone)]
pub struct InteriorFilter {
    mbr: Rect,
    tiles_per_side: usize,
    /// Row-major interior bitmap.
    interior: Vec<bool>,
    /// Interior tiles found; with none, `covers` answers at once.
    interior_count: usize,
}

impl InteriorFilter {
    /// Builds the filter for `query` at tiling level `level` (`2^level`
    /// tiles per side). Level 0 is a single tile — interior only for
    /// rectangle-filling polygons — matching the left edge of Figure 10.
    ///
    /// Cost is O(edges + 4^level), amortized over all objects the filter
    /// screens (the paper's footnote 2).
    pub fn build(query: &Polygon, level: u32) -> Self {
        assert!(level <= 12, "4^{level} tiles would be absurd");
        let mbr = query.mbr();
        let n = 1usize << level;
        let mut boundary = vec![false; n * n];
        let w = mbr.width().max(f64::MIN_POSITIVE);
        let h = mbr.height().max(f64::MIN_POSITIVE);
        let tw = w / n as f64;
        let th = h / n as f64;

        // Mark every tile overlapped by an edge MBR as boundary.
        for e in query.edges() {
            let em = e.mbr();
            let c0 = (((em.xmin - mbr.xmin) / tw).floor() as i64).clamp(0, n as i64 - 1);
            let c1 = (((em.xmax - mbr.xmin) / tw).floor() as i64).clamp(0, n as i64 - 1);
            let r0 = (((em.ymin - mbr.ymin) / th).floor() as i64).clamp(0, n as i64 - 1);
            let r1 = (((em.ymax - mbr.ymin) / th).floor() as i64).clamp(0, n as i64 - 1);
            for r in r0..=r1 {
                for c in c0..=c1 {
                    boundary[r as usize * n + c as usize] = true;
                }
            }
        }

        // Non-boundary tiles are uniformly inside or outside; classify by
        // their center.
        let mut interior = vec![false; n * n];
        let mut interior_count = 0;
        for r in 0..n {
            for c in 0..n {
                if boundary[r * n + c] {
                    continue;
                }
                let cx = mbr.xmin + (c as f64 + 0.5) * tw;
                let cy = mbr.ymin + (r as f64 + 0.5) * th;
                if point_strictly_in_polygon(spatial_geom::Point::new(cx, cy), query) {
                    interior[r * n + c] = true;
                    interior_count += 1;
                }
            }
        }
        InteriorFilter {
            mbr,
            tiles_per_side: n,
            interior,
            interior_count,
        }
    }

    /// True when `candidate_mbr` is completely covered by interior tiles —
    /// a guaranteed-positive intersection (the object lies inside the query
    /// polygon).
    pub fn covers(&self, candidate_mbr: &Rect) -> bool {
        if self.interior_count == 0 {
            return false;
        }
        if !self.mbr.contains_rect(candidate_mbr) {
            return false;
        }
        let n = self.tiles_per_side;
        let tw = self.mbr.width().max(f64::MIN_POSITIVE) / n as f64;
        let th = self.mbr.height().max(f64::MIN_POSITIVE) / n as f64;
        // Every tile the candidate MBR overlaps must be interior.
        let c0 =
            (((candidate_mbr.xmin - self.mbr.xmin) / tw).floor() as i64).clamp(0, n as i64 - 1);
        let c1 =
            (((candidate_mbr.xmax - self.mbr.xmin) / tw).floor() as i64).clamp(0, n as i64 - 1);
        let r0 =
            (((candidate_mbr.ymin - self.mbr.ymin) / th).floor() as i64).clamp(0, n as i64 - 1);
        let r1 =
            (((candidate_mbr.ymax - self.mbr.ymin) / th).floor() as i64).clamp(0, n as i64 - 1);
        for r in r0..=r1 {
            for c in c0..=c1 {
                if !self.interior[r as usize * n + c as usize] {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_geom::Polygon;

    fn big_square() -> Polygon {
        Polygon::from_coords(&[(0.0, 0.0), (16.0, 0.0), (16.0, 16.0), (0.0, 16.0)])
    }

    #[test]
    fn level_zero_has_no_interior_tiles() {
        // The single tile equals the MBR, and the boundary edges overlap it.
        let f = InteriorFilter::build(&big_square(), 0);
        assert_eq!(f.interior_count, 0);
        assert!(!f.covers(&Rect::new(4.0, 4.0, 5.0, 5.0)));
    }

    #[test]
    fn square_interior_grows_with_level() {
        let mut prev = 0.0;
        for level in 1..=5 {
            let f = InteriorFilter::build(&big_square(), level);
            let frac = f.interior_count as f64 / ((1usize << (2 * level)) as f64);
            assert!(
                frac >= prev,
                "interior fraction should not shrink: {frac} < {prev} at level {level}"
            );
            prev = frac;
        }
        // At level 5 a square's interior fraction approaches (30/32)^2.
        assert!(prev > 0.8, "interior fraction {prev}");
    }

    #[test]
    fn deep_interior_candidate_is_confirmed() {
        let f = InteriorFilter::build(&big_square(), 4);
        assert!(f.covers(&Rect::new(6.0, 6.0, 10.0, 10.0)));
    }

    #[test]
    fn boundary_straddling_candidate_is_not_confirmed() {
        let f = InteriorFilter::build(&big_square(), 4);
        assert!(!f.covers(&Rect::new(-1.0, 6.0, 3.0, 10.0)), "sticks out");
        assert!(
            !f.covers(&Rect::new(0.1, 0.1, 2.0, 2.0)),
            "touches boundary tiles"
        );
    }

    #[test]
    fn concave_pocket_is_not_interior() {
        // C-shape: the pocket is inside the MBR but outside the polygon.
        let c = Polygon::from_coords(&[
            (0.0, 0.0),
            (16.0, 0.0),
            (16.0, 4.0),
            (4.0, 4.0),
            (4.0, 12.0),
            (16.0, 12.0),
            (16.0, 16.0),
            (0.0, 16.0),
        ]);
        let f = InteriorFilter::build(&c, 5);
        // Candidate wholly in the pocket must NOT be confirmed.
        assert!(!f.covers(&Rect::new(8.0, 6.0, 12.0, 10.0)));
        // Candidate in the spine is confirmed at this resolution.
        assert!(f.covers(&Rect::new(1.0, 6.0, 2.5, 10.0)));
    }

    #[test]
    fn soundness_on_sampled_candidates() {
        // Every confirmed candidate must truly intersect the polygon.
        let c = Polygon::from_coords(&[
            (0.0, 0.0),
            (16.0, 0.0),
            (16.0, 4.0),
            (4.0, 4.0),
            (4.0, 12.0),
            (16.0, 12.0),
            (16.0, 16.0),
            (0.0, 16.0),
        ]);
        let f = InteriorFilter::build(&c, 4);
        let mut confirmed = 0;
        for i in 0..40 {
            for j in 0..40 {
                let x = i as f64 * 0.45;
                let y = j as f64 * 0.45;
                let cand = Rect::new(x, y, x + 1.2, y + 1.2);
                if f.covers(&cand) {
                    confirmed += 1;
                    // The candidate rect corners are all inside the polygon.
                    for corner in cand.corners() {
                        assert!(
                            spatial_geom::point_in_polygon(corner, &c),
                            "confirmed candidate {cand:?} leaks outside"
                        );
                    }
                }
            }
        }
        assert!(confirmed > 0, "filter should confirm something");
    }

    #[test]
    fn degenerate_flat_polygon() {
        // A sliver triangle with (near) zero area: no interior tiles, no
        // confirmations, no panics.
        let sliver = Polygon::from_coords(&[(0.0, 0.0), (10.0, 0.001), (20.0, 0.0)]);
        let f = InteriorFilter::build(&sliver, 3);
        assert_eq!(f.interior_count, 0);
        assert!(!f.covers(&Rect::new(5.0, 0.0, 6.0, 0.0005)));
    }
}
