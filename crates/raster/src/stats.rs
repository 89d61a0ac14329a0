//! Deterministic hardware work counters.
//!
//! Wall-clock time of the simulated rasterizer depends on the host CPU; the
//! counters below do not. They measure exactly the quantities the paper's
//! analysis reasons about — "the finer the window resolution, the more
//! pixels have to be searched, which leads to a larger overhead" (§4.3) —
//! so the resolution/overhead trade-off can be asserted in tests and
//! reported next to wall-clock numbers in the benches.

/// The work one execution of a [`crate::CommandList`] charged
/// ([`crate::Execution::stats`]), or the sum of many.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HwStats {
    /// Fragments written to the color buffer.
    pub pixels_written: usize,
    /// Candidate fragments examined by the rasterizers (including ones that
    /// failed a coverage test).
    pub fragments_tested: usize,
    /// Pixels scanned by whole-buffer operations: clears, accumulation
    /// copies and Minmax queries. The per-test fixed overhead that grows
    /// with window resolution.
    pub pixels_scanned: usize,
    /// Primitives submitted (lines, points, polygons).
    pub primitives: usize,
    /// Draw calls (begin/end batches).
    pub draw_calls: usize,
    /// Minmax queries executed.
    pub minmax_queries: usize,
    /// Batched submission rounds (atlas batches): state setup + command
    /// buffer flush amortized over many candidate pairs.
    pub batches: usize,
}

impl HwStats {
    /// Accumulates another snapshot into this one.
    pub fn add(&mut self, other: &HwStats) {
        self.pixels_written += other.pixels_written;
        self.fragments_tested += other.fragments_tested;
        self.pixels_scanned += other.pixels_scanned;
        self.primitives += other.primitives;
        self.draw_calls += other.draw_calls;
        self.minmax_queries += other.minmax_queries;
        self.batches += other.batches;
    }

    /// Submission-overhead events: the quantity batching exists to shrink.
    /// Each draw call and each Minmax query is one host↔device round of
    /// fixed cost; each batch adds one state-setup round of its own.
    pub fn submissions(&self) -> usize {
        self.draw_calls + self.minmax_queries + self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sums_every_counter() {
        let a = HwStats {
            pixels_written: 10,
            fragments_tested: 20,
            pixels_scanned: 30,
            primitives: 4,
            draw_calls: 2,
            minmax_queries: 1,
            batches: 1,
        };
        let mut b = a;
        b.add(&HwStats {
            pixels_written: 1,
            fragments_tested: 2,
            pixels_scanned: 3,
            primitives: 1,
            draw_calls: 1,
            minmax_queries: 0,
            batches: 1,
        });
        let sum = HwStats {
            pixels_written: 11,
            fragments_tested: 22,
            pixels_scanned: 33,
            primitives: 5,
            draw_calls: 3,
            minmax_queries: 1,
            batches: 2,
        };
        assert_eq!(b, sum);
    }

    #[test]
    fn submissions_counts_fixed_cost_rounds() {
        let s = HwStats {
            draw_calls: 2,
            minmax_queries: 1,
            batches: 1,
            ..HwStats::default()
        };
        assert_eq!(s.submissions(), 4);
    }
}
