//! Tuning knobs of the hardware-assisted tests.

/// Configuration for [`HwTester`](crate::HwTester) and
/// [`crate::hw_within_distance`].
#[derive(Debug, Clone, Copy)]
pub struct HwConfig {
    /// Rendering window resolution (`resolution × resolution` pixels). The
    /// paper sweeps 1–32 (Figures 11, 12, 15) and recommends 8 or 16.
    pub resolution: usize,
    /// §4.3: a pair whose software step 3 can visit at most this many
    /// edges skips the hardware test — a rejection could save no more than
    /// that step 3. The paper counts the `n + m` vertices its plane sweep
    /// visits; this counts the edges in the runs the prologue's run-box
    /// walk kept: those that reach the run-box region R for intersection
    /// and containment, those within `d` of the other MBR for distance
    /// ([`crate::hw_intersect::submitted_edges`]). 0 disables it.
    pub sw_threshold: usize,
}

impl HwConfig {
    /// The paper's recommended operating point: 8×8 window, threshold 500
    /// (§4.4, §5).
    pub fn recommended() -> Self {
        HwConfig {
            resolution: 8,
            sw_threshold: 500,
        }
    }

    /// A configuration at the given resolution with no software threshold —
    /// the raw-hardware curves of Figures 11/12/15.
    pub fn at_resolution(resolution: usize) -> Self {
        HwConfig {
            resolution,
            sw_threshold: 0,
        }
    }

    /// Returns `self` with a different software threshold (Figure 13).
    pub fn with_threshold(mut self, t: usize) -> Self {
        self.sw_threshold = t;
        self
    }
}

impl Default for HwConfig {
    fn default() -> Self {
        HwConfig::recommended()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_matches_paper() {
        let c = HwConfig::recommended();
        assert_eq!(c.resolution, 8);
        assert_eq!(c.sw_threshold, 500);
    }

    #[test]
    fn builders() {
        let c = HwConfig::at_resolution(16).with_threshold(900);
        assert_eq!(c.resolution, 16);
        assert_eq!(c.sw_threshold, 900);
    }
}
