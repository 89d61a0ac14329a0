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
//! scan, one submission to the tester's device for the whole group. Pairs
//! the batch cannot reject run the same software step 3.
//!
//! Results are bit-identical to the per-pair path: the atlas rasterizes
//! each cell through the same cell-local window the per-pair test uses, so
//! every per-cell verdict equals the per-pair verdict (see
//! `spatial_raster::atlas`). Counters differ only in the submission
//! figures — `draw_calls`, `minmax_queries`, `pixels_scanned` (the atlas
//! clears, accumulates and scans its gutters too, which is why a one-cell
//! atlas is *not* the per-pair test and both recordings exist) and
//! `batches`/`hw_batches` — and are a pure function of the batch
//! contents, which is what makes the parallel refinement's merged
//! statistics independent of the thread count.
//!
//! Batches always use the accumulation-buffer choreography (the paper's
//! strategy); the per-pair path remains the place where the
//! blending/stencil ablations run.

use crate::choreography::{route, settle, Routed, Tape, Window};
use crate::hw_intersect::HwTester;
use crate::pipeline::Predicate;
use crate::stats::TestStats;
use spatial_geom::Polygon;

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
                Routed::Hw(window) => hw.push((k, window)),
            }
        }

        // One atlas round per distinct line width (one draw call renders
        // at one width), in ascending width order — a deterministic
        // grouping that depends only on the batch contents. Equation (1)
        // widths are whole pixels in [1, 10] and the segment tests share
        // one constant, so the number of rounds is tiny (usually one).
        let mut widths: Vec<u64> = hw.iter().map(|(_, w)| w.width.to_bits()).collect();
        widths.sort_unstable();
        widths.dedup();
        for width in widths {
            let (ks, group): (Vec<usize>, Vec<&Window>) = hw
                .iter()
                .filter(|(_, w)| w.width.to_bits() == width)
                .map(|(k, w)| (*k, w))
                .unzip();
            let flags = self.submit(Tape::Atlas(&group), stats, |exec, slot| {
                Ok(exec
                    .cell_max(slot)?
                    .iter()
                    .map(|&max| max >= 1.0)
                    .collect::<Vec<bool>>())
            });
            stats.hw_batches += usize::from(flags.is_some());
            // A faulted round settles every one of its pairs as a
            // fallback, never as a hardware test.
            for (cell, k) in ks.into_iter().enumerate() {
                let (p, q) = pairs[k];
                let overlap = flags.as_ref().map(|flags| flags[cell]);
                results[k] = settle(pred, p, q, overlap, stats);
            }
        }
        results
    }
}
