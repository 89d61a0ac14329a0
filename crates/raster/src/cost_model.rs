//! The simulated-hardware cost model: converts [`HwStats`] work counters
//! into GPU time.
//!
//! # Why a model instead of the rasterizer's wall-clock
//!
//! The paper's economics rest on a ~10–50× throughput gap between a
//! GeForce4-class GPU and an AthlonXP-class CPU for rasterization work.
//! Simulating the GPU *on* the CPU erases that gap: every simulated
//! fragment costs about as much as a plane-sweep event, so wall-clock
//! timing of the simulation would systematically understate the hardware
//! side — a simulation artifact, not a property of the approach. We
//! therefore charge the hardware side from its deterministic work counters
//! with per-operation costs taken from the paper's platform, uniformly
//! rescaled by the CPU speed-up factor between that platform and a modern
//! host. Dividing *both* sides of the comparison by the same hardware
//! generation preserves exactly what the paper's figures measure: the
//! hardware/software cost *ratio* and where the curves cross.
//!
//! # Constants (documented estimates for the paper's platform)
//!
//! | op | 2003 cost | why |
//! |---|---|---|
//! | draw-call submit | 10 µs | AGP command buffer + state validation |
//! | minmax query | 30 µs | pipeline flush + 2-color readback latency |
//! | batch round | 20 µs | viewport/scissor grid setup + command-buffer flush for one atlas submission |
//! | buffer-scan pixel | 16 ns | `GL_ACCUM` ops ran in the driver, not the GPU, on consumer boards of that era |
//! | fragment | 4 ns | AA-line coverage evaluation (fill-rate bound) |
//! | primitive | 8 ns | vertex transform + setup at ~136 M vertices/s |
//!
//! The speed-up factor defaults to 40×: the ratio between the paper's
//! AthlonXP 1800+ and a present-day core on pointer-chasing geometry code
//! (measured against our plane-sweep at the paper's `sw_threshold`
//! calibration points — the paper observed the 8×8 hardware test to break
//! even with a ~300-vertex software sweep and the 16×16 one with ~900
//! vertices; the defaults land in that neighbourhood without further
//! tuning).

use crate::stats::HwStats;
use std::time::Duration;

/// Per-operation GPU costs, in nanoseconds, already divided by the
/// CPU-generation speed-up factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwCostModel {
    pub draw_call_ns: f64,
    pub minmax_ns: f64,
    pub scanned_pixel_ns: f64,
    pub fragment_ns: f64,
    pub primitive_ns: f64,
    /// Fixed cost of one batched (atlas) submission round, on top of its
    /// draw calls: per-cell viewport/scissor setup and the command-buffer
    /// flush. Paid once per batch, amortized over every pair in it.
    pub batch_ns: f64,
}

/// The CPU-generation rescaling the default model applies to the 2003
/// constants.
const CPU_SPEEDUP_FACTOR: f64 = 40.0;

impl Default for HwCostModel {
    fn default() -> Self {
        HwCostModel::with_speedup(CPU_SPEEDUP_FACTOR)
    }
}

impl HwCostModel {
    /// A model with all 2003-era costs divided by a custom speed-up factor
    /// (sensitivity analyses sweep this).
    pub fn with_speedup(factor: f64) -> Self {
        assert!(factor > 0.0);
        HwCostModel {
            draw_call_ns: 10_000.0 / factor,
            minmax_ns: 30_000.0 / factor,
            scanned_pixel_ns: 16.0 / factor,
            fragment_ns: 4.0 / factor,
            primitive_ns: 8.0 / factor,
            batch_ns: 20_000.0 / factor,
        }
    }

    /// Modeled GPU time of a recorded command stream: replays `list` on a
    /// private [`crate::device::ReferenceDevice`] and prices the charged
    /// counters. The list *is* executed — the call costs one execution's
    /// wall-clock (a clip compare per submitted primitive plus the
    /// rasterization of the few that touch the window) — only no caller's
    /// device or ledger sees it. Because replay is a pure function of the
    /// list, so is the returned time — the same stream costs the same
    /// whichever shard executed it for real.
    pub fn replay_cost(&self, list: &crate::device::CommandList) -> Duration {
        let mut device = crate::device::ReferenceDevice::new();
        let exec = crate::device::RasterDevice::execute(&mut device, list)
            .expect("the reference replay is infallible");
        self.time(&exec.stats)
    }

    /// Modeled GPU time for a batch of counted work.
    pub fn time(&self, stats: &HwStats) -> Duration {
        let ns = self.draw_call_ns * stats.draw_calls as f64
            + self.minmax_ns * stats.minmax_queries as f64
            + self.scanned_pixel_ns * stats.pixels_scanned as f64
            + self.fragment_ns * stats.fragments_tested as f64
            + self.primitive_ns * stats.primitives as f64
            + self.batch_ns * stats.batches as f64;
        Duration::from_nanos(ns.max(0.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(
        draw_calls: usize,
        minmax: usize,
        scanned: usize,
        frags: usize,
        prims: usize,
    ) -> HwStats {
        HwStats {
            pixels_written: 0,
            fragments_tested: frags,
            pixels_scanned: scanned,
            primitives: prims,
            draw_calls,
            minmax_queries: minmax,
            batches: 0,
        }
    }

    #[test]
    fn batching_beats_per_pair_fixed_costs() {
        // k pairs per-pair: k × (2 draws + 1 minmax). Batched: 2 draws +
        // 1 minmax + 1 batch round for all k. The batch round costs less
        // than one per-pair test's fixed overhead, so batching wins from
        // k = 2 and the gap grows linearly.
        let m = HwCostModel::default();
        for k in [2usize, 8, 64] {
            let per_pair = m.time(&stats(2 * k, k, 0, 0, 0));
            let mut batched_stats = stats(2, 1, 0, 0, 0);
            batched_stats.batches = 1;
            let batched = m.time(&batched_stats);
            assert!(batched < per_pair, "k={k}: {batched:?} !< {per_pair:?}");
        }
    }

    #[test]
    fn zero_work_is_zero_time() {
        let m = HwCostModel::default();
        assert_eq!(m.time(&HwStats::default()), Duration::ZERO);
    }

    #[test]
    fn fixed_costs_dominate_tiny_windows() {
        // One 8×8 test: 2 draws + 1 minmax + ~6 scans of 64 px.
        let m = HwCostModel::default();
        let t = m.time(&stats(2, 1, 384, 400, 200));
        // 2×250 + 750 + 384×0.4 + 400×0.1 + 200×0.2 ≈ 1.5 µs.
        assert!(
            t > Duration::from_nanos(1_200) && t < Duration::from_nanos(2_000),
            "{t:?}"
        );
    }

    #[test]
    fn per_pixel_term_grows_with_resolution() {
        let m = HwCostModel::default();
        let at8 = m.time(&stats(2, 1, 6 * 64, 0, 0));
        let at32 = m.time(&stats(2, 1, 6 * 1024, 0, 0));
        assert!(at32 > at8);
        let growth = (at32 - at8).as_nanos() as f64;
        // 6 × 960 extra pixels at 0.4 ns each.
        assert!((growth - 6.0 * 960.0 * 0.4).abs() < 100.0, "{growth}");
    }

    #[test]
    fn replay_cost_is_a_pure_function_of_the_list() {
        use crate::device::{DeviceKind, Recorder};
        use crate::viewport::Viewport;
        use spatial_geom::{Point, Rect, Segment};
        let mut r = Recorder::new(8, 8).unwrap();
        r.set_viewport(Viewport::new(Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8))
            .unwrap();
        r.clear_color();
        r.clear_accum();
        r.draw_segments([Segment::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0))])
            .unwrap();
        r.accum_load();
        r.clear_color();
        r.draw_segments([Segment::new(Point::new(0.0, 8.0), Point::new(8.0, 0.0))])
            .unwrap();
        r.accum_add();
        r.accum_return();
        r.minmax();
        let list = r.finish();
        let m = HwCostModel::default();
        assert_eq!(m.replay_cost(&list), m.replay_cost(&list));
        // Pricing an execution's counters and pricing the list by replay
        // are the same number.
        let mut device = DeviceKind::default().build();
        assert_eq!(
            m.time(&device.execute(&list).unwrap().stats),
            m.replay_cost(&list)
        );
        assert!(m.replay_cost(&list) > Duration::ZERO);
    }

    #[test]
    fn speedup_factor_scales_linearly() {
        let base = HwCostModel::with_speedup(1.0);
        let fast = HwCostModel::with_speedup(10.0);
        let s = stats(3, 2, 1000, 500, 100);
        let tb = base.time(&s).as_nanos() as f64;
        let tf = fast.time(&s).as_nanos() as f64;
        assert!((tb / tf - 10.0).abs() < 0.01);
    }

    #[test]
    fn calibration_anchor_sw_threshold() {
        // The paper's Figure 13 anchor: the 8×8 hardware test should cost
        // about as much as a software sweep of a ~300-vertex pair, and the
        // 16×16 one about a ~900-vertex pair. With sweep throughput of
        // roughly 10 ns/vertex on a modern host, that is ~3 µs and ~9 µs.
        let m = HwCostModel::default();
        // A 300-vertex pair at 8×8: ~300 primitives, ~900 fragments,
        // 6×64 scanned, 2 draws + 1 minmax.
        let t8 = m.time(&stats(2, 1, 384, 900, 300));
        assert!(
            t8 > Duration::from_nanos(1_000) && t8 < Duration::from_nanos(4_000),
            "{t8:?}"
        );
        // At 16×16 the scans quadruple and fragments roughly double.
        let t16 = m.time(&stats(2, 1, 1536, 1800, 300));
        assert!(t16 > t8);
    }
}
