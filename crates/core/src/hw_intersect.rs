//! Algorithm 3.1 — the hardware-assisted intersection test.
//!
//! ```text
//! Given P and Q, return true iff P and Q intersect
//! 1. Software Point-in-Polygon Test; return true if it succeeds.
//! 2. Hardware Segment Intersection Test
//!    2.1 enable anti-aliasing
//!    2.2 clear the color buffer and the accumulation buffer
//!    2.3 render the edges of the first polygon with color (.5, .5, .5)
//!    2.4 copy the color buffer into the accumulation buffer
//!    2.5 render the edges of the second polygon with color (.5, .5, .5)
//!    2.6 copy the color buffer into the accumulation buffer
//!    2.7 load the accumulation buffer back into the color buffer
//!    2.8 return false if color (1, 1, 1) is not found
//! 3. Software Segment Intersection Test
//! ```
//!
//! One pipeline nuance the paper leaves implicit: for step 2.6's addition
//! to mark *overlapping* pixels only, step 2.5 must render into a cleared
//! color buffer — otherwise the first polygon's pixels would double and
//! every P pixel would read full white. We clear between the passes (a
//! per-pixel cost that is charged to the hardware side of the ledger).
//!
//! The test is exact: step 2 can only produce false *hits* (two boundaries
//! sharing a pixel without touching — more common at coarse resolutions),
//! never false rejections, because the anti-aliased rasterizer colors
//! every pixel a segment passes through. Step 3 removes the false hits.

use crate::choreography::{framing, list, route, settle, Routed, Tape, Window};
use crate::config::HwConfig;
use crate::pipeline::recovery::{RecoveryPolicy, Supervisor};
use crate::pipeline::{Predicate, RefineOp};
use crate::stats::TestStats;
use spatial_geom::{Polygon, Rect, Segment};
use spatial_raster::aa_line::DIAGONAL_WIDTH;
use spatial_raster::framebuffer::HALF_GRAY;
use spatial_raster::{
    CommandList, DeviceError, DeviceKind, Execution, HwCostModel, OverlapStrategy, RasterDevice,
    RecordError, Recorder, Viewport, WriteMode,
};
use std::time::Instant;

/// A reusable hardware tester: records each test as a command list and
/// owns the executing [`RasterDevice`]s — one per device shard — so
/// repeated tests (thousands per join) reuse each device's window
/// allocation.
///
/// Every submission is aimed at shard 0 and runs under a `Supervisor`:
/// validated, retried per [`RecoveryPolicy`] with modeled backoff, failed
/// over to the lowest-index healthy shard and quarantined behind per-shard circuit breakers after repeated
/// faults. When the supervisor gives up, the tester answers the affected
/// pair with the exact software test and charges `fallback_tests` —
/// results never change, only where they were computed.
#[derive(Debug)]
pub struct HwTester {
    cfg: HwConfig,
    /// The shard pool: device `i` is built from `device_kind.for_shard(i)`.
    devices: Vec<Box<dyn RasterDevice>>,
    model: HwCostModel,
    supervisor: Supervisor,
}

impl HwTester {
    pub fn new(cfg: HwConfig) -> Self {
        Self::with_device_and_policy(cfg, DeviceKind::default(), 1, RecoveryPolicy::default())
    }

    /// A tester executing on `shards` independent devices of the selected
    /// kind (at least one) under an explicit retry/quarantine policy.
    /// Every device returns bit-identical results and counters (the device
    /// contract); faults and failover only move recovery counters and
    /// modeled recovery time.
    pub fn with_device_and_policy(
        cfg: HwConfig,
        device_kind: DeviceKind,
        shards: usize,
        policy: RecoveryPolicy,
    ) -> Self {
        let devices: Vec<_> = (0..shards.max(1))
            .map(|i| device_kind.for_shard(i).build())
            .collect();
        HwTester {
            cfg,
            supervisor: Supervisor::new(policy, devices.len()),
            devices,
            model: HwCostModel::default(),
        }
    }

    pub fn config(&self) -> HwConfig {
        self.cfg
    }

    /// Renders `tape` under supervision and reads its verdict with
    /// `read(execution, slot)`; `None` means the supervisor gave up.
    ///
    /// The submission is validated, retried, failed over across healthy
    /// shards and quarantined per the [`RecoveryPolicy`]. Failed attempts
    /// charge only the recovery counters in `stats` — never hardware
    /// work. A successful execution charges its counters and modeled GPU
    /// time, and advances the supervisor's modeled clock by that time,
    /// which is what ripens probation cool-downs (DESIGN.md §13) without
    /// ever consulting the wall clock.
    ///
    /// Everything in here is the simulated hardware — building the
    /// command list stands in for the driver streaming the vertex arrays
    /// (charged via the per-primitive model cost) — so the whole section
    /// is wall-excluded (`sim_wall`) and re-charged from the replay
    /// counters.
    pub(crate) fn submit<T>(
        &mut self,
        tape: Tape<'_, '_>,
        stats: &mut TestStats,
        read: impl FnOnce(&Execution, usize) -> Result<T, DeviceError>,
    ) -> Option<T> {
        let wall = Instant::now();
        let (commands, slot) = list(tape);
        let verdict = self
            .supervisor
            .submit(&mut self.devices, &commands, stats)
            .and_then(|exec| {
                let modeled = self.model.time(&exec.stats);
                self.supervisor.advance(modeled.as_nanos() as u64);
                let verdict = read(&exec, slot)?;
                stats.hw.add(&exec.stats);
                stats.gpu_modeled += modeled;
                Ok(verdict)
            });
        stats.sim_wall += wall.elapsed();
        verdict.ok()
    }

    /// Records the hardware segment-intersection choreography for one pair
    /// over `region` at `resolution`×`resolution`. Returns the command
    /// list and the Minmax readback slot holding the overlap verdict. Pure
    /// function of its arguments — golden-stream tests snapshot its
    /// serialization. Accumulation is the only [`OverlapStrategy`], so
    /// `_strategy` changes nothing.
    pub fn record_segment_test(
        region: Rect,
        resolution: usize,
        _strategy: OverlapStrategy,
        first: impl IntoIterator<Item = Segment>,
        second: impl IntoIterator<Item = Segment>,
    ) -> (CommandList, usize) {
        record_accumulation(
            Viewport::new(region, resolution, resolution),
            DIAGONAL_WIDTH,
            1.0,
            |rec| rec.draw_segments(first),
            |rec| rec.draw_segments(second),
        )
    }

    /// Decides `pred` on one pair, exactly: the software prologue
    /// (`choreography::route`), then for a pair it could not
    /// decide the hardware filter over the pair's projection window, then
    /// the software step 3 for what the filter could not reject. For
    /// [`Predicate::ContainedIn`] the pair is `(inner, outer)`.
    pub fn test(
        &mut self,
        pred: Predicate,
        p: &Polygon,
        q: &Polygon,
        stats: &mut TestStats,
    ) -> bool {
        match route(pred, p, q, &self.cfg, stats) {
            Routed::Done(verdict) => verdict,
            Routed::Hw(window) => self.decide(pred, p, q, &window, stats),
        }
    }

    /// The hardware filter over `window` alone, then the software step 3
    /// for what it could not reject.
    pub(crate) fn decide(
        &mut self,
        pred: Predicate,
        p: &Polygon,
        q: &Polygon,
        window: &Window,
        stats: &mut TestStats,
    ) -> bool {
        let overlap = self.submit(Tape::Pair(window), stats, |exec, slot| {
            Ok(exec.max_red(slot)? >= 1.0)
        });
        settle(pred, p, q, window, overlap, stats)
    }

    /// Algorithm 3.1. Exact closed intersection test.
    pub fn intersects(&mut self, p: &Polygon, q: &Polygon, stats: &mut TestStats) -> bool {
        self.test(Predicate::Intersects, p, q, stats)
    }
}

/// Algorithm 3.1 steps 2.2–2.8 over `viewport`, the one overlap
/// choreography of the boundary tests: `first` and `second` each draw one
/// boundary at half gray, the first is loaded into the accumulation
/// buffer, the second added to it, and the sum is returned to the color
/// buffer for one Minmax. Returns the list and the Minmax slot: full white
/// there means the boundaries share a pixel. The line width and point
/// size must be within the hardware limit.
pub(crate) fn record_accumulation(
    viewport: Viewport,
    line_width: f64,
    point_size: f64,
    first: impl FnOnce(&mut Recorder) -> Result<(), RecordError>,
    second: impl FnOnce(&mut Recorder) -> Result<(), RecordError>,
) -> (CommandList, usize) {
    let mut rec = Recorder::new(viewport.width(), viewport.height())
        .expect("the caller keeps the window within the card's sides");
    rec.set_viewport(viewport)
        .expect("the window is the viewport's");
    rec.set_color(HALF_GRAY)
        .expect("half gray is a valid intensity");
    rec.set_line_width(line_width)
        .expect("the caller keeps the line width within the hardware limit");
    rec.set_point_size(point_size)
        .expect("the caller keeps the point size within the hardware limit");
    rec.set_write_mode(WriteMode::Overwrite);
    rec.clear_color();
    rec.clear_accum();
    first(&mut rec).expect("viewport recorded, overwrite mode set");
    rec.accum_load();
    rec.clear_color();
    second(&mut rec).expect("viewport recorded, overwrite mode set");
    rec.accum_add();
    rec.accum_return();
    let slot = rec.minmax();
    (rec.finish(), slot)
}

/// What the hardware prologue of `pred` on `(p, q)` at `resolution` counts
/// past its MBR gate and point-in-polygon step: the step-3 edges it routes
/// `sw_threshold` by, and the edges each boundary submits in render order,
/// `None` where the run boxes decide the pair or it has no window. For
/// diagnostics: it walks and pairs, and renders nothing.
pub fn submitted_edges(
    pred: Predicate,
    p: &Polygon,
    q: &Polygon,
    resolution: usize,
) -> (usize, Option<[usize; 2]>) {
    let framing = framing(RefineOp::Test(pred), p, q);
    let w = framing.window(resolution).ok();
    let submitted = w.map(|w| [false, true].map(|second| w.segments(second).len()));
    (framing.routed_edges(), submitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_geom::polygons_intersect_brute;
    use spatial_raster::{DeviceError, DeviceKind, Execution};
    use std::sync::{Arc, Mutex};

    impl HwTester {
        /// Swaps the executing device of a one-shard tester for a reference
        /// device that also keeps the serialization of every list it is
        /// handed, and returns that record, so a test can observe
        /// submissions.
        pub(crate) fn spy(&mut self) -> Arc<Mutex<Vec<String>>> {
            let seen = Arc::default();
            self.install(Box::new(Spy {
                inner: DeviceKind::Reference.build(),
                seen: Arc::clone(&seen),
            }));
            seen
        }

        /// Makes `device` the executing device of a one-shard tester.
        pub(crate) fn install(&mut self, device: Box<dyn RasterDevice>) {
            self.devices = vec![device];
        }
    }

    #[derive(Debug)]
    struct Spy {
        inner: Box<dyn RasterDevice>,
        seen: Arc<Mutex<Vec<String>>>,
    }

    impl RasterDevice for Spy {
        fn execute(&mut self, list: &CommandList) -> Result<Execution, DeviceError> {
            self.seen.lock().unwrap().push(list.serialize());
            self.inner.execute(list)
        }

        fn snapshot(&self) -> Option<spatial_raster::FrameBuffer> {
            self.inner.snapshot()
        }
    }

    fn square(x: f64, y: f64, s: f64) -> Polygon {
        Polygon::from_coords(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
    }

    fn c_shape() -> Polygon {
        Polygon::from_coords(&[
            (0.0, 0.0),
            (16.0, 0.0),
            (16.0, 4.0),
            (4.0, 4.0),
            (4.0, 12.0),
            (16.0, 12.0),
            (16.0, 16.0),
            (0.0, 16.0),
        ])
    }

    #[test]
    fn agrees_with_oracle_on_basic_cases() {
        let cases = [
            (square(0.0, 0.0, 2.0), square(1.0, 1.0, 2.0)),
            (square(0.0, 0.0, 1.0), square(5.0, 5.0, 1.0)),
            (square(0.0, 0.0, 10.0), square(4.0, 4.0, 1.0)),
            (c_shape(), square(6.0, 6.0, 3.0)), // pocket: MBRs overlap, disjoint
            (c_shape(), square(0.5, 6.0, 3.0)), // spine: true intersection
        ];
        for res in [1usize, 2, 8, 32] {
            let mut t = HwTester::new(HwConfig::at_resolution(res));
            for (p, q) in &cases {
                let mut st = TestStats::default();
                assert_eq!(
                    t.intersects(p, q, &mut st),
                    polygons_intersect_brute(p, q),
                    "res {res}"
                );
            }
        }
    }

    /// Two parallel diagonal slabs whose MBRs overlap heavily and whose
    /// edges cross the shared region without touching — the "closely
    /// located but not intersecting" pairs the hardware filter exists for
    /// (§4.2). The restricted-search-space filter cannot reject them.
    fn parallel_slabs() -> (Polygon, Polygon) {
        let a = Polygon::from_coords(&[(0.0, 0.0), (2.0, 0.0), (10.0, 8.0), (8.0, 8.0)]);
        let b = Polygon::from_coords(&[(5.0, 0.0), (7.0, 0.0), (15.0, 8.0), (13.0, 8.0)]);
        (a, b)
    }

    #[test]
    fn slab_rejection_happens_in_hardware_at_fine_resolution() {
        // At 32×32 the slabs are many pixels apart inside the shared
        // region, so the hardware filter rejects without a sweep.
        let (a, b) = parallel_slabs();
        assert!(!polygons_intersect_brute(&a, &b));
        let mut t = HwTester::new(HwConfig::at_resolution(32));
        let mut st = TestStats::default();
        assert!(!t.intersects(&a, &b, &mut st));
        assert_eq!(st.rejected_by_hw, 1, "{st:?}");
        assert_eq!(st.software_tests, 0);
    }

    #[test]
    fn false_hits_fall_through_to_software() {
        // At 1×1 everything in the shared region overlaps: the hardware
        // cannot reject, software must decide.
        let (a, b) = parallel_slabs();
        let mut t = HwTester::new(HwConfig::at_resolution(1));
        let mut st = TestStats::default();
        assert!(!t.intersects(&a, &b, &mut st));
        assert_eq!(st.rejected_by_hw, 0);
        assert_eq!(st.software_tests, 1, "{st:?}");
    }

    #[test]
    fn containment_short_circuits() {
        let mut t = HwTester::new(HwConfig::recommended());
        let mut st = TestStats::default();
        assert!(t.intersects(&square(0.0, 0.0, 10.0), &square(4.0, 4.0, 1.0), &mut st));
        assert_eq!(st.decided_by_pip, 1);
        assert_eq!(st.hw_tests, 0);
    }

    #[test]
    fn threshold_skips_hardware() {
        // A plus-sign crossing: boundaries intersect but neither first
        // vertex is contained, so the test reaches the threshold branch.
        let horiz = Polygon::from_coords(&[(0.0, 2.0), (6.0, 2.0), (6.0, 4.0), (0.0, 4.0)]);
        let vert = Polygon::from_coords(&[(2.0, 0.0), (4.0, 0.0), (4.0, 6.0), (2.0, 6.0)]);
        let mut t = HwTester::new(HwConfig::at_resolution(8).with_threshold(100));
        let mut st = TestStats::default();
        // 4 + 4 = 8 vertices <= 100: no hardware.
        assert!(t.intersects(&horiz, &vert, &mut st));
        assert_eq!(st.hw_tests, 0);
        assert_eq!(st.skipped_by_threshold, 1, "{st:?}");
    }

    #[test]
    fn hardware_work_is_accounted() {
        let (a, b) = parallel_slabs();
        let mut t = HwTester::new(HwConfig::at_resolution(8));
        let mut st = TestStats::default();
        t.intersects(&a, &b, &mut st);
        assert_eq!(st.hw_tests, 1);
        assert!(
            st.hw.pixels_scanned > 0,
            "clears/accum/minmax must be charged"
        );
        assert!(st.hw.primitives > 0);
    }

    /// Regression: `Polygon::new` accepts a bowtie, and step 3 used to
    /// answer from the tree sweep alone, whose simple-boundary precondition
    /// then failed silently — a false negative after the raster passed the
    /// pair on, and on the threshold route alike. The pair below, then
    /// random 3–14-vertex rings on a 15 × 15 grid, mostly self-crossing.
    #[test]
    fn self_crossing_boundaries_answer_like_brute_force_on_every_route() {
        let mut pairs = vec![(
            Polygon::from_coords(&[(0.0, 10.0), (7.0, 6.0), (2.0, 2.0), (7.0, 1.0)]),
            Polygon::from_coords(&[(14.0, 10.0), (8.0, 9.0), (6.0, 2.0)]),
        )];
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            // xorshift64*: deterministic, no dependency.
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33
        };
        let mut ring = || {
            let n = 3 + next() as usize % 12;
            let vertices = (0..n).map(|_| ((next() % 15) as f64, (next() % 15) as f64).into());
            Polygon::new(vertices.collect()).ok()
        };
        while pairs.len() < 2_000 {
            if let (Some(p), Some(q)) = (ring(), ring()) {
                pairs.push((p, q));
            }
        }
        for threshold in [0, 500, usize::MAX] {
            let mut t = HwTester::new(HwConfig::at_resolution(8).with_threshold(threshold));
            let mut st = TestStats::default();
            for (p, q) in &pairs {
                assert_eq!(
                    t.intersects(p, q, &mut st),
                    polygons_intersect_brute(p, q),
                    "threshold {threshold}: {p:?} {q:?}"
                );
            }
            assert_eq!(st.hw_tests > 0, threshold == 0, "{st:?}");
        }
    }

    #[test]
    fn disjoint_mbrs_cost_nothing() {
        let mut t = HwTester::new(HwConfig::recommended());
        let mut st = TestStats::default();
        assert!(!t.intersects(&square(0.0, 0.0, 1.0), &square(9.0, 9.0, 1.0), &mut st));
        assert_eq!(st.hw_tests, 0);
        assert_eq!(st.software_tests, 0);
    }
}
