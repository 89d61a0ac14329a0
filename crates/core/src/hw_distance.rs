//! The hardware-assisted within-distance test (§3.1, Figures 5(b)/6).
//!
//! To decide whether `dist(P, Q) ≤ D`, each boundary is expanded by `D/2`:
//! the expansions intersect iff the polygons are within `D`. In hardware,
//! "calculating a new set of vertices for an expanded polygon is expensive
//! in software, but performing this operation with graphics hardware is
//! very efficient using anti-aliased line segments": edges are rendered
//! with the Equation (1) line width and the vertices with equally wide
//! smooth points (the discs supply the round caps the line rectangles
//! miss), so the rendered footprint *contains* the true Minkowski
//! expansion — conservative, like the intersection filter.
//!
//! When the required width exceeds the hardware limit (10 px on the
//! paper's GeForce4), the test "reverts back to the software algorithm"
//! (§3.1) — the behaviour behind the Figure 16 margin collapse at large D.
//!
//! Projection (§3.2): the expanded MBR of the *smaller* object, uniformly
//! scaled (Equation (1) presumes an aspect-preserving projection).

use crate::hw_intersect::HwTester;
use crate::pipeline::Predicate;
use crate::stats::TestStats;
use spatial_geom::{Point, Polygon, Rect, Segment};
use spatial_raster::framebuffer::HALF_GRAY;
use spatial_raster::{CommandList, OverlapStrategy, Recorder, Viewport, WriteMode};

impl HwTester {
    /// Records the §3.1 expanded-boundary choreography for one pair: both
    /// boundaries rendered as `width`-pixel anti-aliased lines plus
    /// equally wide smooth points (the round vertex caps), under the
    /// uniform-scale projection Equation (1) presumes. Returns the command
    /// list and the verdict readback slot. `width` must already satisfy
    /// the `MAX_AA_LINE_WIDTH` limit — the caller routes wider tests to
    /// software before recording anything.
    pub fn record_distance_test(
        region: Rect,
        resolution: usize,
        strategy: OverlapStrategy,
        width: f64,
        first: &Polygon,
        second: &Polygon,
    ) -> (CommandList, usize) {
        Self::record_expanded_boundaries(
            region,
            resolution,
            strategy,
            width,
            (first.edges(), first.vertices().iter().copied()),
            (second.edges(), second.vertices().iter().copied()),
        )
    }

    /// [`HwTester::record_distance_test`] over explicit lists: each
    /// boundary is the `(edges, vertex caps)` to draw, which for a pair's
    /// projection window are those of its live runs only.
    pub(crate) fn record_expanded_boundaries<S, P>(
        region: Rect,
        resolution: usize,
        strategy: OverlapStrategy,
        width: f64,
        first: (S, P),
        second: (S, P),
    ) -> (CommandList, usize)
    where
        S: IntoIterator<Item = Segment>,
        P: IntoIterator<Item = Point>,
    {
        let mut rec = Recorder::new(resolution, resolution);
        rec.set_viewport(Viewport::uniform(region, resolution, resolution))
            .expect("window dimensions match the viewport resolution");
        rec.set_color(HALF_GRAY)
            .expect("half gray is a valid intensity");
        rec.set_line_width(width)
            .expect("caller pre-validates the Equation (1) width");
        rec.set_point_size(width)
            .expect("caller pre-validates the Equation (1) width");
        let draw_expanded = |rec: &mut Recorder, (edges, caps): (S, P)| {
            rec.draw_segments(edges).expect("viewport recorded above");
            rec.draw_points(caps).expect("viewport recorded above");
        };
        let slot = match strategy {
            OverlapStrategy::Accumulation | OverlapStrategy::Blending => {
                // An expanded boundary needs two primitive batches (wide
                // lines + wide points) per object, and additive blending
                // would double-count where the two batches overlap — so the
                // Blending strategy also uses the accumulation choreography
                // here, exactly as the paper's implementation does.
                rec.set_write_mode(WriteMode::Overwrite);
                rec.clear_color();
                rec.clear_accum();
                draw_expanded(&mut rec, first);
                rec.accum_load();
                rec.clear_color();
                draw_expanded(&mut rec, second);
                rec.accum_add();
                rec.accum_return();
                rec.minmax()
            }
            OverlapStrategy::Stencil => {
                rec.clear_stencil();
                rec.set_write_mode(WriteMode::StencilReplace(1));
                draw_expanded(&mut rec, first);
                rec.set_write_mode(WriteMode::StencilIncrIfEq(1));
                draw_expanded(&mut rec, second);
                rec.stencil_max()
            }
        };
        (rec.finish(), slot)
    }

    /// Hardware-assisted within-distance test: true iff `dist(P, Q) ≤ d`.
    pub fn within_distance(
        &mut self,
        p: &Polygon,
        q: &Polygon,
        d: f64,
        stats: &mut TestStats,
    ) -> bool {
        self.test(Predicate::WithinDistance(d), p, q, stats)
    }
}

/// One-shot convenience wrapper around [`HwTester::within_distance`].
pub fn hw_within_distance(p: &Polygon, q: &Polygon, d: f64, cfg: crate::HwConfig) -> bool {
    HwTester::new(cfg).within_distance(p, q, d, &mut TestStats::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HwConfig;
    use spatial_geom::mindist::clipped_chains_within;
    use spatial_geom::{min_dist_brute, MinDistStats};

    fn square(x: f64, y: f64, s: f64) -> Polygon {
        Polygon::from_coords(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
    }

    #[test]
    fn agrees_with_oracle_at_various_resolutions_and_distances() {
        let a = square(0.0, 0.0, 2.0);
        let cases = [
            square(5.0, 0.0, 2.0), // distance 3
            square(5.0, 5.0, 2.0), // distance sqrt(18)
            square(1.0, 1.0, 2.0), // intersecting
            square(2.5, 0.0, 1.0), // distance 0.5
        ];
        for res in [1usize, 4, 8, 16] {
            let mut t = HwTester::new(HwConfig::at_resolution(res));
            for b in &cases {
                let true_d = min_dist_brute(&a, b);
                for d in [0.1, 0.5, 3.0, 4.3, 10.0] {
                    let mut st = TestStats::default();
                    assert_eq!(
                        t.within_distance(&a, b, d, &mut st),
                        true_d <= d,
                        "res {res}, true {true_d}, d {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn hardware_rejects_far_pairs() {
        // Distance 30 apart, query d = 5, but MBR-expanded regions still
        // overlap? No: MBR distance (30) > d, so this rejects at the MBR
        // level. Use a case where MBR distance ≤ d but true distance > d:
        // L-shaped arrangement.
        let l = Polygon::from_coords(&[
            (0.0, 0.0),
            (20.0, 0.0),
            (20.0, 2.0),
            (2.0, 2.0),
            (2.0, 20.0),
            (0.0, 20.0),
        ]);
        let b = square(15.0, 15.0, 2.0); // MBRs overlap; true dist ≈ 11.3
        assert!(l.mbr().min_dist(&b.mbr()) == 0.0);
        let true_d = min_dist_brute(&l, &b);
        assert!(true_d > 8.0);
        let mut t = HwTester::new(HwConfig::at_resolution(32));
        let mut st = TestStats::default();
        assert!(!t.within_distance(&l, &b, 2.0, &mut st));
        assert!(
            st.rejected_by_hw == 1 || st.width_limit_fallbacks == 1,
            "expected hardware rejection or explicit fallback, got {st:?}"
        );
    }

    #[test]
    fn width_limit_forces_software_fallback() {
        // Tiny window + huge distance relative to the region: Equation (1)
        // exceeds 10 pixels → software.
        let a = square(0.0, 0.0, 1.0);
        let b = square(1.5, 0.0, 1.0);
        let mut t = HwTester::new(HwConfig::at_resolution(32));
        let mut st = TestStats::default();
        // Region ≈ 4 units wide at 32 px → 8 px/unit; d = 2 → 16 px > 10.
        let r = t.within_distance(&a, &b, 2.0, &mut st);
        assert!(r, "true distance 0.5 <= 2");
        assert_eq!(st.width_limit_fallbacks, 1, "{st:?}");
        assert_eq!(st.hw_tests, 0);
    }

    #[test]
    fn within_zero_matches_intersection_semantics() {
        let a = square(0.0, 0.0, 2.0);
        let touching = square(2.0, 0.0, 2.0);
        let apart = square(2.1, 0.0, 2.0);
        let mut t = HwTester::new(HwConfig::at_resolution(8));
        let mut st = TestStats::default();
        assert!(t.within_distance(&a, &touching, 0.0, &mut st));
        assert!(!t.within_distance(&a, &apart, 0.0, &mut st));
    }

    #[test]
    fn containment_short_circuits() {
        let outer = square(0.0, 0.0, 10.0);
        let inner = square(4.0, 4.0, 1.0);
        let mut t = HwTester::new(HwConfig::recommended());
        let mut st = TestStats::default();
        assert!(t.within_distance(&outer, &inner, 0.0, &mut st));
        assert_eq!(st.decided_by_pip, 1);
    }

    #[test]
    fn threshold_skips_hardware() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(3.0, 0.0, 1.0);
        let mut t = HwTester::new(HwConfig::at_resolution(8).with_threshold(50));
        let mut st = TestStats::default();
        assert!(t.within_distance(&a, &b, 2.5, &mut st));
        assert_eq!(st.hw_tests, 0);
        assert_eq!(st.skipped_by_threshold, 1);
    }

    /// Two squares whose horizontal gap rounds to exactly the query
    /// distance: `min_dist` returns `d` bit-for-bit (the MBR gate
    /// passes), but `xmax + d/2` rounds below `xmin - d/2`, so the
    /// half-expanded MBRs fail to intersect and no projection window
    /// exists. This used to hit an `unreachable!`; it must fall back to
    /// software, charge the fallback, and return what the shared
    /// rounded `min_dist` kernel says (`true` here: the pairwise edge
    /// distance rounds to exactly `d`, and every layer — MBR gate,
    /// frontier clip, pairwise kernel — rounds the same way).
    #[test]
    fn exact_touch_distance_falls_back_instead_of_panicking() {
        let x1b = f64::from_bits(0x400522e6a9308d77); // p's right edge
        let x2a = f64::from_bits(0x40201f1ae6c2a9d5); // q's left edge
        let d = f64::from_bits(0x4015acc278ed0cee); // fl(x2a - x1b)
        let p = Polygon::from_coords(&[(x1b - 2.0, 0.0), (x1b, 0.0), (x1b, 2.0), (x1b - 2.0, 2.0)]);
        let q = Polygon::from_coords(&[(x2a, 0.0), (x2a + 2.0, 0.0), (x2a + 2.0, 2.0), (x2a, 2.0)]);
        // Pin the hazard: the gate passes yet the expansions miss.
        assert_eq!(p.mbr().min_dist(&q.mbr()), d);
        let half = d / 2.0;
        assert!(
            p.mbr()
                .expanded(half)
                .intersection(&q.mbr().expanded(half))
                .is_none(),
            "the one-ulp rounding this regression test exists for"
        );

        let mut t = HwTester::new(HwConfig::at_resolution(8));
        let mut st = TestStats::default();
        let got = t.within_distance(&p, &q, d, &mut st);
        assert_eq!(
            got,
            clipped_chains_within(&p, &q, d, &mut MinDistStats::default())
        );
        assert!(got, "the rounded pairwise distance is exactly d");
        assert_eq!(st.width_limit_fallbacks, 1, "charged as a fallback: {st:?}");
        assert_eq!(st.software_tests, 1);
        assert_eq!(st.hw_tests, 0);

        // A d one ulp down must flip the verdict (sanity that the pair
        // really straddles the boundary): the MBR gate itself rejects.
        let d_down = f64::from_bits(d.to_bits() - 1);
        let mut st = TestStats::default();
        assert!(!t.within_distance(&p, &q, d_down, &mut st));

        // The batched path shares the prologue and the fix.
        let mut st = TestStats::default();
        let flags = t.test_batch(Predicate::WithinDistance(d), &[(&p, &q)], &mut st);
        assert_eq!(flags, vec![true]);
        assert_eq!(st.width_limit_fallbacks, 1, "{st:?}");
    }

    /// Two squares of side `s`, `2 s` apart, within `2.5 s` at every
    /// magnitude: past `s ≈ 6.7e153` the squared gap used to overflow, and
    /// the stage-1 lanes and the hardware prologue's MBR gate dropped the
    /// pair before any refinement. The index join, the engine's software
    /// and hardware joins and the one-shot hardware test now keep it; the
    /// hardware may fall back to software, never reject it.
    #[test]
    fn within_distance_survives_overflowing_squares() {
        use crate::engine::{EngineConfig, PreparedDataset, SpatialEngine};
        for s in [1.0, 1e150, 1e153, 1e154, 1e155, 1e200, 1e300] {
            let (a, b) = (square(0.0, 0.0, s), square(3.0 * s, 0.0, s));
            let (da, db) = (
                PreparedDataset::new("a", vec![a.clone()]),
                PreparedDataset::new("b", vec![b.clone()]),
            );
            for (d, within) in [(2.5 * s, true), (1.5 * s, false)] {
                let candidates = spatial_index::join_within_distance(&da.tree, &db.tree, d);
                assert_eq!(candidates.len(), usize::from(within), "s = {s}, d = {d}");
                let mut st = TestStats::default();
                let mut t = HwTester::new(HwConfig::at_resolution(8));
                assert_eq!(t.within_distance(&a, &b, d, &mut st), within, "s = {s}");
                assert_eq!(st.rejected_by_hw, 0, "s = {s}: {st:?}");
                assert_eq!(
                    hw_within_distance(&b, &a, d, HwConfig::at_resolution(8)),
                    within
                );
                for config in [
                    EngineConfig::software(),
                    EngineConfig::hardware(HwConfig::at_resolution(8)),
                ] {
                    let (rows, _) = SpatialEngine::new(config).within_distance_join(&da, &db, d);
                    assert_eq!(rows.len(), usize::from(within), "s = {s}, d = {d}");
                }
            }
        }
    }

    /// A reused tester's distance tests agree with a fresh tester's,
    /// counter for counter: no device history leaks into a test.
    #[test]
    fn a_reused_tester_preserves_distance_results_and_charged_counters() {
        let a = square(0.0, 0.0, 2.0);
        let cases = [
            square(5.0, 0.0, 2.0),
            square(5.0, 5.0, 2.0),
            square(2.5, 0.0, 1.0),
        ];
        let mut reused = HwTester::new(HwConfig::at_resolution(8));
        for b in &cases {
            for d in [0.5, 3.0, 4.3] {
                let mut fresh = HwTester::new(HwConfig::at_resolution(8));
                let (mut s1, mut s2) = (TestStats::default(), TestStats::default());
                assert_eq!(
                    reused.within_distance(&a, b, d, &mut s1),
                    fresh.within_distance(&a, b, d, &mut s2)
                );
                assert_eq!(s1.hw_tests, s2.hw_tests);
                assert_eq!(s1.rejected_by_hw, s2.rejected_by_hw);
                assert_eq!(s1.software_tests, s2.software_tests);
                assert_eq!(s1.hw.pixels_written, s2.hw.pixels_written);
                assert_eq!(s1.hw.pixels_scanned, s2.hw.pixels_scanned);
                assert_eq!(s1.hw.fragments_tested, s2.hw.fragments_tested);
                assert_eq!(s1.hw.draw_calls, s2.hw.draw_calls);
                assert_eq!(s1.gpu_modeled, s2.gpu_modeled);
            }
        }
    }
}
