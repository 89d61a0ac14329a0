//! Batched hardware submission for Algorithm 3.1 and the §3.1 distance
//! test: many candidate pairs per rendering round.
//!
//! The per-pair choreography pays two draw calls and one Minmax query per
//! candidate — fixed costs that dominate at the paper's recommended 8×8
//! window (§4.3). [`HwTester::test_batch`] runs the same software
//! prologue per pair as [`HwTester::test`], collects every pair that
//! actually needs the hardware filter, and renders them all as cells of
//! one atlas command list (`spatial_raster::atlas::record_batch`) —
//! batching is just a longer command list: two draw calls, one reduction
//! scan, one submission to the tester's device for the whole group. A
//! group whose atlas would have a side over `MAX_WINDOW_SIDE` is split
//! into rounds of at most `spatial_raster::atlas::capacity` cells, and a
//! cell too large for any atlas is submitted per pair. Pairs the batch
//! cannot reject run the same software step 3.
//!
//! Results are bit-identical to the per-pair path: the atlas rasterizes
//! each cell through the same cell-local window the per-pair test uses, so
//! every per-cell verdict equals the per-pair verdict (see
//! `spatial_raster::atlas`). Counters differ only in the submission
//! figures — `draw_calls`, `minmax_queries`, `pixels_scanned` (the atlas
//! clears, accumulates and scans its gutters too, which is why a one-cell
//! atlas is *not* the per-pair test and both recordings exist) and
//! `batches`/`hw_batches` — and are a pure function of the batch
//! contents.
//!
//! Batches use the accumulation-buffer choreography of the per-pair
//! path (the paper's).

use crate::choreography::{route, settle, Routed, Tape, Window};
use crate::hw_intersect::HwTester;
use crate::pipeline::Predicate;
use crate::stats::TestStats;
use spatial_geom::Polygon;
use spatial_raster::atlas;

impl HwTester {
    /// Decides `pred` on every pair — the same booleans as
    /// [`HwTester::test`] per pair — with one atlas round, instead of
    /// per-pair submissions, for the pairs that reach the hardware.
    pub fn test_batch(
        &mut self,
        pred: Predicate,
        pairs: &[(&Polygon, &Polygon)],
        stats: &mut TestStats,
    ) -> Vec<bool> {
        let cfg = self.config();
        let mut results = vec![false; pairs.len()];
        let mut hw: Vec<(usize, Window)> = Vec::new();
        for (k, &(p, q)) in pairs.iter().enumerate() {
            match route(pred, p, q, &cfg, stats) {
                Routed::Done(verdict) => results[k] = verdict,
                Routed::Hw(window) => hw.push((k, *window)),
            }
        }

        // One atlas per distinct line width (one draw call renders at one
        // width), in ascending width order, split into rounds whose atlas
        // fits the card's window sides — a deterministic grouping that
        // depends only on the batch contents. Equation (1) widths are whole
        // pixels in [1, 10] and the segment tests share one constant, so
        // the number of rounds is tiny (usually one). A window too large
        // for any atlas is submitted per pair.
        let mut widths: Vec<u64> = hw.iter().map(|(_, w)| w.width.to_bits()).collect();
        widths.sort_unstable();
        widths.dedup();
        for width in widths {
            let group: Vec<(usize, &Window)> = hw
                .iter()
                .filter(|(_, w)| w.width.to_bits() == width)
                .map(|(k, w)| (*k, w))
                .collect();
            let capacity = atlas::capacity(cfg.resolution, f64::from_bits(width));
            if capacity == 0 {
                for (k, w) in group {
                    let (p, q) = pairs[k];
                    results[k] = self.decide(pred, p, q, w, stats);
                }
                continue;
            }
            for round in group.chunks(capacity) {
                let cells: Vec<&Window> = round.iter().map(|&(_, w)| w).collect();
                let flags = self.submit(Tape::Atlas(&cells), stats, |exec, slot| {
                    Ok(exec
                        .cell_max(slot)?
                        .iter()
                        .map(|&max| max >= 1.0)
                        .collect::<Vec<bool>>())
                });
                stats.hw_batches += usize::from(flags.is_some());
                // A faulted round settles every one of its pairs as a
                // fallback, never as a hardware test.
                for (cell, &(k, w)) in round.iter().enumerate() {
                    let (p, q) = pairs[k];
                    let overlap = flags.as_ref().map(|flags| flags[cell]);
                    results[k] = settle(pred, p, q, w, overlap, stats);
                }
            }
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HwConfig;
    use crate::pipeline::recovery::RecoveryPolicy;
    use spatial_raster::{
        CommandList, DeviceError, DeviceKind, Execution, FrameBuffer, RasterDevice, MAX_WINDOW_SIDE,
    };
    use std::sync::{Arc, Mutex};

    /// The `(width, height)` of every list a [`Sizer`] was handed.
    type Windows = Arc<Mutex<Vec<(usize, usize)>>>;

    /// A device that notes the window of every list it is handed and
    /// fails it without rendering a pixel.
    #[derive(Debug, Default)]
    struct Sizer {
        windows: Windows,
    }

    impl RasterDevice for Sizer {
        fn execute(&mut self, list: &CommandList) -> Result<Execution, DeviceError> {
            let text = list.serialize();
            let header = text.lines().next().and_then(|l| l.strip_prefix("window "));
            let (w, h) = header.and_then(|wh| wh.split_once('x')).unwrap();
            let side = |s: &str| s.parse::<usize>().unwrap();
            self.windows.lock().unwrap().push((side(w), side(h)));
            Err(DeviceError::OutOfMemory)
        }

        fn snapshot(&self) -> Option<FrameBuffer> {
            None
        }
    }

    /// `n` pairs of thin bands crossing like an X, each pair apart from
    /// the others: every pair reaches the device.
    fn crossings(n: usize) -> Vec<(Polygon, Polygon)> {
        (0..n)
            .map(|i| {
                let x = 200.0 * i as f64;
                let band = |y0: f64, y1: f64| {
                    Polygon::from_coords(&[
                        (x, y0 - 0.01),
                        (x + 100.0, y1 - 0.01),
                        (x + 100.0, y1 + 0.01),
                        (x, y0 + 0.01),
                    ])
                };
                (band(0.0, 100.0), band(100.0, 0.0))
            })
            .collect()
    }

    /// A tester at `resolution` whose every submission the supervisor
    /// hands to a [`Sizer`] once and then settles in software.
    fn sized_tester(resolution: usize) -> (HwTester, Windows) {
        let policy = RecoveryPolicy {
            max_retries: 0,
            quarantine_after: 0,
            ..RecoveryPolicy::default()
        };
        let cfg = HwConfig::at_resolution(resolution);
        let mut tester = HwTester::with_device_and_policy(cfg, DeviceKind::Reference, 1, policy);
        let sizer = Sizer::default();
        let windows = Arc::clone(&sizer.windows);
        tester.install(Box::new(sizer));
        (tester, windows)
    }

    /// However large the cells and the batch, no list asks the card for a
    /// side over `MAX_WINDOW_SIDE`: an atlas is split into rounds that
    /// fit, and a cell no atlas fits is submitted per pair. Nothing is
    /// rendered: the lists are sized, refused, and settled in software.
    #[test]
    fn no_submission_exceeds_the_window_limit() {
        for resolution in [512, 1024, 4096] {
            for n in [2, 32] {
                let pairs = crossings(n);
                let refs: Vec<(&Polygon, &Polygon)> = pairs.iter().map(|(p, q)| (p, q)).collect();
                let (mut tester, windows) = sized_tester(resolution);
                let mut stats = TestStats::default();
                let verdicts = tester.test_batch(Predicate::Intersects, &refs, &mut stats);
                assert_eq!(verdicts, vec![true; n], "{resolution} x {n}");
                assert_eq!(stats.fallback_tests, n, "{resolution} x {n}: {stats:?}");
                let windows = windows.lock().unwrap();
                let cap = atlas::capacity(resolution, spatial_raster::aa_line::DIAGONAL_WIDTH);
                let lists = if cap == 0 { n } else { n.div_ceil(cap) };
                assert_eq!(windows.len(), lists, "{resolution} x {n}");
                for &(w, h) in windows.iter() {
                    assert!(w.max(h) <= MAX_WINDOW_SIDE, "{resolution} x {n}: {w}x{h}");
                }
            }
        }
    }

    /// Where the batch is split into rounds, the rounds give the per-pair
    /// verdicts: at 2 048 pixels a side an atlas holds one cell.
    #[test]
    fn split_rounds_decide_like_per_pair_tests() {
        let resolution = 2048;
        assert_eq!(
            atlas::capacity(resolution, spatial_raster::aa_line::DIAGONAL_WIDTH),
            1
        );
        let mut pairs = crossings(2);
        // A second pair whose bands miss each other.
        let (p, _) = crossings(1).remove(0);
        let apart = Polygon::from_coords(&[(30.0, 0.0), (40.0, 0.0), (40.0, 9.0), (30.0, 9.0)]);
        pairs[1] = (p, apart);
        let refs: Vec<(&Polygon, &Polygon)> = pairs.iter().map(|(p, q)| (p, q)).collect();
        let mut batched = HwTester::new(HwConfig::at_resolution(resolution));
        let mut stats = TestStats::default();
        let verdicts = batched.test_batch(Predicate::Intersects, &refs, &mut stats);
        let mut single = HwTester::new(HwConfig::at_resolution(resolution));
        let expected: Vec<bool> = refs
            .iter()
            .map(|&(p, q)| single.intersects(p, q, &mut TestStats::default()))
            .collect();
        assert_eq!(expected, vec![true, false]);
        assert_eq!(verdicts, expected);
        assert_eq!(
            (stats.hw_tests, stats.hw_batches),
            (2, 2),
            "two rounds of one cell: {stats:?}"
        );
    }
}
