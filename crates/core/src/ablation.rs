//! The filled-polygon alternative (Hoff et al., reference 13 of the paper) that §3 of the paper
//! argues *against* — implemented to quantify the argument.
//!
//! Strategy: triangulate both polygons in software (hardware only fills
//! convex primitives), render the filled interiors at half intensity,
//! accumulate, and look for white. Two documented defects versus
//! Algorithm 3.1:
//!
//! 1. **Triangulation cost.** Ear clipping is O(n²); even linear-time
//!    algorithms are "far more complicated" than the O(n)
//!    point-in-polygon test boundary rendering needs.
//! 2. **Not exact.** Polygon fill uses the pixel-center rule, which is
//!    *not* conservative: a sliver intersection thinner than a pixel can
//!    miss every pixel center and report disjoint. The function is
//!    therefore `_approx` and must not back a correctness-critical path.

use crate::config::HwConfig;
use crate::hw_intersect::record_accumulation;
use crate::stats::TestStats;
use spatial_geom::triangulate::triangulate;
use spatial_geom::Polygon;
use spatial_raster::aa_line::DIAGONAL_WIDTH;
use spatial_raster::{RasterDevice, ReferenceDevice, Viewport};

/// Outcome of the filled-polygon test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilledResult {
    /// Some pixel center was covered by both interiors.
    OverlapFound,
    /// No pixel center covered by both — **approximately** disjoint.
    NoOverlap,
    /// A polygon failed to triangulate (non-simple input).
    TriangulationFailed,
}

/// The filled-polygon intersection test, approximate by design.
pub fn filled_intersects_approx(
    p: &Polygon,
    q: &Polygon,
    cfg: HwConfig,
    stats: &mut TestStats,
) -> FilledResult {
    let region = match p.mbr().intersection(&q.mbr()) {
        Some(r) => r,
        None => return FilledResult::NoOverlap,
    };
    // Ear clipping silently produces garbage on self-intersecting input,
    // so the preprocessing (like any real triangulation pipeline) must
    // validate simplicity first — yet more software cost.
    if !p.is_simple() || !q.is_simple() {
        return FilledResult::TriangulationFailed;
    }
    // Software triangulation — the cost Algorithm 3.1 exists to avoid.
    let tp = match triangulate(p) {
        Some(t) => t,
        None => return FilledResult::TriangulationFailed,
    };
    let tq = match triangulate(q) {
        Some(t) => t,
        None => return FilledResult::TriangulationFailed,
    };

    // Algorithm 3.1's accumulation with each boundary's draw replaced by
    // its triangle fills (the line width and point size draw nothing).
    let (vp, vq) = (p.vertices(), q.vertices());
    let (list, slot) = record_accumulation(
        Viewport::new(region, cfg.resolution, cfg.resolution),
        DIAGONAL_WIDTH,
        1.0,
        |rec| {
            tp.iter()
                .try_for_each(|t| rec.fill_polygon(t.map(|i| vp[i])))
        },
        |rec| {
            tq.iter()
                .try_for_each(|t| rec.fill_polygon(t.map(|i| vq[i])))
        },
    );
    let exec = ReferenceDevice::new()
        .execute(&list)
        .expect("the reference device never faults");
    stats.hw_tests += 1;
    stats.hw.add(&exec.stats);
    let overlap = exec.max_red(slot).expect("the list records its Minmax") >= 1.0;

    if overlap {
        FilledResult::OverlapFound
    } else {
        FilledResult::NoOverlap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_raster::HwStats;

    fn square(x: f64, y: f64, s: f64) -> Polygon {
        Polygon::from_coords(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
    }

    #[test]
    fn detects_solid_overlap() {
        let a = square(0.0, 0.0, 4.0);
        let b = square(2.0, 2.0, 4.0);
        let mut st = TestStats::default();
        assert_eq!(
            filled_intersects_approx(&a, &b, HwConfig::at_resolution(16), &mut st),
            FilledResult::OverlapFound
        );
    }

    #[test]
    fn reports_disjoint_mbrs() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(5.0, 5.0, 1.0);
        let mut st = TestStats::default();
        assert_eq!(
            filled_intersects_approx(&a, &b, HwConfig::at_resolution(16), &mut st),
            FilledResult::NoOverlap
        );
    }

    #[test]
    fn concave_polygons_triangulate_and_test() {
        let c = Polygon::from_coords(&[
            (0.0, 0.0),
            (8.0, 0.0),
            (8.0, 2.0),
            (2.0, 2.0),
            (2.0, 6.0),
            (8.0, 6.0),
            (8.0, 8.0),
            (0.0, 8.0),
        ]);
        // In the pocket: interiors disjoint.
        let pocket = square(4.0, 3.0, 2.0);
        let mut st = TestStats::default();
        assert_eq!(
            filled_intersects_approx(&c, &pocket, HwConfig::at_resolution(32), &mut st),
            FilledResult::NoOverlap
        );
        // Overlapping the spine.
        let spine = square(0.5, 3.0, 1.0);
        assert_eq!(
            filled_intersects_approx(&c, &spine, HwConfig::at_resolution(32), &mut st),
            FilledResult::OverlapFound
        );
    }

    #[test]
    fn demonstrates_the_false_negative_defect() {
        // Two thin diagonal bands crossing in an X at (50, 50). Their MBRs
        // are both ≈ [0,100]², so the window is not zoomed into the tiny
        // true intersection, and at 4×4 no pixel *center* is covered by
        // both interiors. Boundary rendering (Algorithm 3.1) must catch
        // the crossing; pixel-center fill misses it.
        let a = Polygon::from_coords(&[(0.0, -0.01), (100.0, 99.99), (100.0, 100.01), (0.0, 0.01)]);
        let b = Polygon::from_coords(&[(0.0, 99.99), (100.0, -0.01), (100.0, 0.01), (0.0, 100.01)]);
        assert!(spatial_geom::polygons_intersect_brute(&a, &b));
        let mut st = TestStats::default();
        let filled = filled_intersects_approx(&a, &b, HwConfig::at_resolution(4), &mut st);
        assert_eq!(
            filled,
            FilledResult::NoOverlap,
            "the sliver should slip between pixel centers (that is the point)"
        );
        // The paper's algorithm gets it right at the same resolution.
        let mut tester = crate::HwTester::new(HwConfig::at_resolution(4));
        assert!(tester.intersects(&a, &b, &mut TestStats::default()));
    }

    /// The verdict and every counter of each pair above, by value: the
    /// triangle fills of both polygons (one draw call and one primitive
    /// each), four whole-window passes and one Minmax scan.
    #[test]
    fn every_pair_charges_the_pinned_counters() {
        let c = Polygon::from_coords(&[
            (0.0, 0.0),
            (8.0, 0.0),
            (8.0, 2.0),
            (2.0, 2.0),
            (2.0, 6.0),
            (8.0, 6.0),
            (8.0, 8.0),
            (0.0, 8.0),
        ]);
        let a = Polygon::from_coords(&[(0.0, -0.01), (100.0, 99.99), (100.0, 100.01), (0.0, 0.01)]);
        let b = Polygon::from_coords(&[(0.0, 99.99), (100.0, -0.01), (100.0, 0.01), (0.0, 100.01)]);
        let bowtie = Polygon::from_coords(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]);
        let hw = |calls, written, scanned| HwStats {
            pixels_written: written,
            fragments_tested: written,
            pixels_scanned: scanned,
            primitives: calls,
            draw_calls: calls,
            minmax_queries: 1,
            batches: 0,
        };
        use FilledResult::*;
        let cases = [
            (
                square(0.0, 0.0, 4.0),
                square(2.0, 2.0, 4.0),
                16,
                OverlapFound,
                hw(4, 512, 1792),
            ),
            (
                square(0.0, 0.0, 1.0),
                square(5.0, 5.0, 1.0),
                16,
                NoOverlap,
                HwStats::default(),
            ),
            (
                c.clone(),
                square(4.0, 3.0, 2.0),
                32,
                NoOverlap,
                hw(8, 1024, 7168),
            ),
            (
                c,
                square(0.5, 3.0, 1.0),
                32,
                OverlapFound,
                hw(8, 2048, 7168),
            ),
            (a, b, 4, NoOverlap, hw(4, 8, 112)),
            (
                bowtie,
                square(0.0, 0.0, 1.0),
                8,
                TriangulationFailed,
                HwStats::default(),
            ),
        ];
        for (p, q, resolution, verdict, counters) in cases {
            let mut st = TestStats::default();
            let got =
                filled_intersects_approx(&p, &q, HwConfig::at_resolution(resolution), &mut st);
            assert_eq!((got, st.hw), (verdict, counters), "{p:?} {q:?}");
            assert_eq!(st.hw_tests, usize::from(counters.draw_calls > 0));
        }
    }

    #[test]
    fn non_simple_input_is_reported() {
        let bowtie = Polygon::from_coords(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]);
        let b = square(0.0, 0.0, 1.0);
        let mut st = TestStats::default();
        assert_eq!(
            filled_intersects_approx(&bowtie, &b, HwConfig::at_resolution(8), &mut st),
            FilledResult::TriangulationFailed
        );
    }
}
