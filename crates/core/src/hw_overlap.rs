//! Area-of-overlap aggregation — the fragment-counting choreography.
//!
//! §3.3 of the paper sketches how the rasterizer answers *aggregations*,
//! not just predicates: render the interiors of both polygons into the
//! stencil buffer and count the pixels covered twice. Scaled by the
//! per-pixel world area of the projected region, that count *is* the
//! area of `P ∩ Q`, quantized to the pixel grid:
//!
//! ```text
//! 1. clear the stencil buffer
//! 2. fill P's interior with stencil-replace(1)
//! 3. fill Q's interior with stencil-incr-if-eq(1)   (overlap pixels → 2)
//! 4. count pixels with stencil ≥ 2
//! 5. area ≈ count × (region.width / res) × (region.height / res)
//! ```
//!
//! Unlike the boolean filters, the hardware answer here is the *final*
//! answer — there is no software refinement step to absorb quantization.
//! The contract is therefore explicitly resolution-quantized: the fill
//! rule emits a pixel iff its center lies inside (half-open crossing
//! rule), so a cell contributes its full area or nothing, and the result
//! can differ from the exact area only on cells the boundary of `P ∩ Q`
//! passes through:
//!
//! ```text
//! |hw_area − exact_area| ≤ (#boundary-crossed cells) × cell_area
//!                        ≤ perimeter-cell count × cell_area → 0 as res → ∞
//! ```
//!
//! The exact area comes from the Sutherland–Hodgman clipping oracle
//! (`spatial_geom::overlap_area_exact`); the property tests in
//! `aggregate_props.rs` pin the hardware answer inside that envelope at
//! every supported resolution, on stars and on generated rows
//! (DESIGN.md §14).
//!
//! Determinism: the count is a pure function of the recorded command
//! list, and every device backend is bit-identical by the device
//! contract. When the supervised submission faults out, the fallback is
//! the software execution ([`sw_overlap_area`]): the same choreography
//! replayed on a fresh reference executor — the identical count — so
//! seeded fault plans, shard failover and brownout never change a
//! reported area, only which ledger (hardware vs fallback) paid for it.

use crate::choreography::{list, window, Tape, Window};
use crate::hw_intersect::HwTester;
use crate::pipeline::RefineOp;
use crate::stats::TestStats;
use spatial_geom::{Point, Polygon, Rect};
use spatial_raster::{CommandList, DeviceKind, OverlapStrategy, Recorder, Viewport, WriteMode};

/// The world-space area of one pixel of `region` projected onto a
/// `resolution × resolution` window — the quantization unit of the
/// hardware answer and the scale factor of the error bound.
pub fn overlap_cell_area(region: Rect, resolution: usize) -> f64 {
    (region.width() / resolution as f64) * (region.height() / resolution as f64)
}

/// Replays `list` on a fresh reference executor and returns the covered
/// count in `slot`: execution is a pure function of the list, so this is
/// exactly the count any device produces for it.
pub(crate) fn replay_overlap_count(list: &CommandList, slot: usize) -> u64 {
    let mut device = DeviceKind::Reference.build();
    let exec = device
        .execute(list)
        .expect("reference replay of a recorded list is infallible");
    exec.stencil_count(slot)
        .expect("slot recorded by record_overlap_area")
}

/// The shared-MBR region an overlap measurement projects, or `None` when
/// the pair's intersection is empty or degenerate (edge/corner contact:
/// zero interior, and the viewport transform would have to inflate a
/// zero extent). Every execution path measures through this guard, so
/// "did we measure" — and every counter hanging off it — is
/// backend-independent.
pub(crate) fn overlap_region(p: &Polygon, q: &Polygon) -> Option<Rect> {
    let region = p.mbr().intersection(&q.mbr())?;
    if region.width() <= 0.0 || region.height() <= 0.0 {
        return None;
    }
    Some(region)
}

/// The software execution of the overlap aggregation: record the same
/// choreography and replay it on a local reference executor. Answers the
/// *identical* quantized area as the hardware path — the aggregation
/// contract is the count at the requested resolution, so routing a query
/// to software (planner choice, fault fallback, brownout) never changes
/// its result, exactly like the boolean predicates.
pub fn sw_overlap_area(p: &Polygon, q: &Polygon, resolution: usize) -> f64 {
    let Some(w) = overlap_window(p, q, resolution) else {
        return 0.0;
    };
    let (commands, slot) = list(Tape::Pair(&w));
    replay_overlap_count(&commands, slot) as f64 * overlap_cell_area(w.region, resolution)
}

/// The vertices the overlap count submits for `(p, q)` at `resolution` —
/// each polygon's fill ring over the pair's window, first and second fill
/// — or `None` where nothing is measured. For diagnostics: the device only
/// ever reports a fill as one primitive.
pub fn fill_rings(p: &Polygon, q: &Polygon, resolution: usize) -> Option<[Vec<Point>; 2]> {
    let w = overlap_window(p, q, resolution)?;
    Some([false, true].map(|second| w.points(second).collect()))
}

/// The overlap count's projection window (the tape has one shape per
/// resolution: no overlap strategy enters it).
fn overlap_window<'a>(p: &'a Polygon, q: &'a Polygon, resolution: usize) -> Option<Window<'a>> {
    let op = RefineOp::Measure { resolution };
    window(op, p, q, resolution, OverlapStrategy::default())
}

impl HwTester {
    /// Records the area-of-overlap choreography for one pair over
    /// `region` at `resolution`×`resolution`. Returns the command list
    /// and the readback slot holding the covered-pixel count. Pure
    /// function of its arguments — golden-stream tests snapshot its
    /// serialization.
    pub fn record_overlap_area(
        region: Rect,
        resolution: usize,
        first: impl IntoIterator<Item = Point>,
        second: impl IntoIterator<Item = Point>,
    ) -> (CommandList, usize) {
        let mut rec = Recorder::new(resolution, resolution);
        rec.set_viewport(Viewport::new(region, resolution, resolution))
            .expect("window dimensions match the viewport resolution");
        rec.clear_stencil();
        rec.set_write_mode(WriteMode::StencilReplace(1));
        rec.fill_polygon(first).expect("viewport recorded above");
        rec.set_write_mode(WriteMode::StencilIncrIfEq(1));
        rec.fill_polygon(second).expect("viewport recorded above");
        let slot = rec.stencil_count(2);
        (rec.finish(), slot)
    }

    /// The area of `P ∩ Q`, quantized to a `resolution × resolution`
    /// grid over the pair's shared MBR (see the module docs for the
    /// contract and error bound). Disjoint or degenerate (zero-extent)
    /// shared MBRs answer `0.0` without touching the hardware.
    ///
    /// The query's resolution is its own parameter — the configured
    /// filter resolution tunes the *boolean* choreographies and plays no
    /// role here.
    pub fn overlap_area(
        &mut self,
        p: &Polygon,
        q: &Polygon,
        resolution: usize,
        stats: &mut TestStats,
    ) -> f64 {
        let Some(w) = overlap_window(p, q, resolution) else {
            return 0.0;
        };
        stats.overlap_tests += 1;
        match self.submit(Tape::Pair(&w), stats, |exec, slot| exec.stencil_count(slot)) {
            Some(count) => {
                stats.hw_tests += 1;
                count as f64 * overlap_cell_area(w.region, resolution)
            }
            // Supervision gave up: the software execution answers the
            // identical area, charged to the fallback ledger (the
            // invariant-14 sum stays balanced).
            None => {
                stats.fallback_tests += 1;
                sw_overlap_area(p, q, resolution)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HwConfig;
    use spatial_geom::overlap_area_exact;
    use spatial_raster::DeviceKind;

    fn square(x: f64, y: f64, s: f64) -> Polygon {
        Polygon::from_coords(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
    }

    fn l_shape() -> Polygon {
        Polygon::from_coords(&[
            (0.0, 0.0),
            (8.0, 0.0),
            (8.0, 2.0),
            (2.0, 2.0),
            (2.0, 8.0),
            (0.0, 8.0),
        ])
    }

    #[test]
    fn identical_squares_cover_everything() {
        // P = Q = the projected region: every pixel is covered twice, so
        // the quantized area is exact at any resolution.
        let p = square(0.0, 0.0, 4.0);
        for res in [1usize, 2, 8, 32] {
            let mut t = HwTester::new(HwConfig::recommended());
            let mut st = TestStats::default();
            assert_eq!(t.overlap_area(&p, &p, res, &mut st), 16.0, "res {res}");
            assert_eq!(st.overlap_tests, 1);
            assert_eq!(st.hw_tests, 1);
        }
    }

    #[test]
    fn disjoint_and_touching_pairs_are_free() {
        let mut t = HwTester::new(HwConfig::recommended());
        let mut st = TestStats::default();
        // Disjoint MBRs.
        assert_eq!(
            t.overlap_area(&square(0.0, 0.0, 1.0), &square(5.0, 5.0, 1.0), 16, &mut st),
            0.0
        );
        // Edge contact: shared MBR has zero width.
        assert_eq!(
            t.overlap_area(&square(0.0, 0.0, 2.0), &square(2.0, 0.0, 2.0), 16, &mut st),
            0.0
        );
        // Corner contact: zero width and height.
        assert_eq!(
            t.overlap_area(&square(0.0, 0.0, 2.0), &square(2.0, 2.0, 2.0), 16, &mut st),
            0.0
        );
        assert_eq!(st.overlap_tests, 0, "no hardware for empty regions");
        assert_eq!(st.hw_tests, 0);
    }

    /// The contractual envelope: |hw − exact| ≤ boundary cells × cell
    /// area. The `P ∩ Q` boundary crosses at most ~4·(res+1) cells of a
    /// res×res grid for these convex/L-shaped cases; a generous perimeter
    /// bound keeps the test robust while still proving convergence.
    fn assert_within_envelope(p: &Polygon, q: &Polygon, res: usize, hw: f64) {
        let exact = overlap_area_exact(p, q).expect("test polygons are simple");
        let region = p.mbr().intersection(&q.mbr()).unwrap();
        let cell = overlap_cell_area(region, res);
        let boundary_cells = 4.0 * (res as f64 + 1.0);
        assert!(
            (hw - exact).abs() <= boundary_cells * cell,
            "res {res}: hw {hw} exact {exact} cell {cell}"
        );
    }

    #[test]
    fn agrees_with_exact_oracle_within_quantization() {
        let cases = [
            (square(0.0, 0.0, 4.0), square(2.0, 2.0, 4.0)),
            (square(0.0, 0.0, 10.0), square(3.0, 3.0, 2.0)), // containment
            (l_shape(), square(1.0, 1.0, 4.0)),              // concave
            (
                Polygon::from_coords(&[(0.0, 0.0), (6.0, 0.0), (3.0, 6.0)]),
                Polygon::from_coords(&[(0.0, 4.0), (6.0, 4.0), (3.0, -2.0)]),
            ),
        ];
        for (p, q) in &cases {
            for res in [4usize, 16, 64, 128] {
                let mut t = HwTester::new(HwConfig::recommended());
                let mut st = TestStats::default();
                let hw = t.overlap_area(p, q, res, &mut st);
                assert_within_envelope(p, q, res, hw);
            }
        }
    }

    #[test]
    fn aligned_overlap_is_exact_at_matching_resolution() {
        // A 4×4 shared region on a 4×4 grid with integer-aligned overlap:
        // no cell is boundary-crossed, so the count is exact.
        let p = square(0.0, 0.0, 6.0);
        let q = square(2.0, 2.0, 6.0);
        let mut t = HwTester::new(HwConfig::recommended());
        let mut st = TestStats::default();
        assert_eq!(t.overlap_area(&p, &q, 4, &mut st), 16.0);
        assert_eq!(t.overlap_area(&p, &q, 16, &mut st), 16.0);
    }

    #[test]
    fn sharded_wrapper_agrees_bit_for_bit() {
        let p = l_shape();
        let q = square(1.0, 1.0, 5.0);
        let mut reference = None;
        for (shards, aim) in [(1, 0), (3, 2)] {
            let mut t = HwTester::with_device_and_policy(
                HwConfig::recommended(),
                DeviceKind::Reference,
                shards,
                Default::default(),
            );
            t.select_shard(aim);
            let mut st = TestStats::default();
            let area = t.overlap_area(&p, &q, 32, &mut st);
            let hw = st.hw;
            match &reference {
                None => reference = Some((area, hw)),
                Some((ra, rhw)) => {
                    assert_eq!(area.to_bits(), ra.to_bits(), "shard {aim} of {shards}");
                    assert_eq!(hw, *rhw, "shard {aim} of {shards} charged differently");
                }
            }
        }
    }

    #[test]
    fn software_execution_matches_hardware_bit_for_bit() {
        let cases = [
            (square(0.0, 0.0, 4.0), square(2.0, 2.0, 4.0)),
            (l_shape(), square(1.0, 1.0, 4.0)),
            (square(0.0, 0.0, 1.0), square(5.0, 5.0, 1.0)), // disjoint
        ];
        for (p, q) in &cases {
            for res in [1usize, 8, 32] {
                let mut t = HwTester::new(HwConfig::recommended());
                let hw = t.overlap_area(p, q, res, &mut TestStats::default());
                let sw = sw_overlap_area(p, q, res);
                assert_eq!(hw.to_bits(), sw.to_bits(), "res {res}");
            }
        }
    }

    #[test]
    fn fault_fallback_returns_the_identical_area() {
        use spatial_raster::{FaultKind, FaultPlan, FaultTrigger};
        let p = l_shape();
        let q = square(0.5, 0.5, 5.0);
        let clean = {
            let mut t = HwTester::new(HwConfig::recommended());
            t.overlap_area(&p, &q, 32, &mut TestStats::default())
        };
        for kind in [
            FaultKind::ContextLost,
            FaultKind::Timeout,
            FaultKind::ReadbackBitFlip,
        ] {
            let plan = FaultPlan::new(7, kind, FaultTrigger::EveryK(1));
            let mut t = HwTester::with_device_and_policy(
                HwConfig::recommended(),
                DeviceKind::Reference.with_faults(plan),
                1,
                Default::default(),
            );
            let mut st = TestStats::default();
            let area = t.overlap_area(&p, &q, 32, &mut st);
            assert_eq!(area.to_bits(), clean.to_bits(), "{kind:?}");
            assert_eq!(st.fallback_tests, 1, "{kind:?}: {st:?}");
            assert_eq!(st.hw_tests, 0, "{kind:?}");
            assert_eq!(st.overlap_tests, 1);
        }
    }
}
