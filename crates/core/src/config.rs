//! Tuning knobs of the hardware-assisted tests.

use spatial_raster::OverlapStrategy;

/// Configuration for [`crate::hw_intersects`] and
/// [`crate::hw_within_distance`].
#[derive(Debug, Clone, Copy)]
pub struct HwConfig {
    /// Rendering window resolution (`resolution × resolution` pixels). The
    /// paper sweeps 1–32 (Figures 11, 12, 15) and recommends 8 or 16.
    pub resolution: usize,
    /// §4.3: pairs with `n + m <=` this many vertices skip the hardware
    /// test — simple geometry is cheaper to sweep in software than to
    /// rasterize-and-scan. 0 disables the shortcut.
    pub sw_threshold: usize,
    /// Overlap-detection implementation (paper: accumulation buffer).
    pub strategy: OverlapStrategy,
}

impl HwConfig {
    /// The paper's recommended operating point: 8×8 window, threshold 500
    /// (§4.4, §5).
    pub fn recommended() -> Self {
        HwConfig {
            resolution: 8,
            sw_threshold: 500,
            strategy: OverlapStrategy::Accumulation,
        }
    }

    /// A configuration at the given resolution with no software threshold —
    /// the raw-hardware curves of Figures 11/12/15.
    pub fn at_resolution(resolution: usize) -> Self {
        HwConfig {
            resolution,
            sw_threshold: 0,
            strategy: OverlapStrategy::Accumulation,
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
        assert_eq!(c.strategy, OverlapStrategy::Accumulation);
    }

    #[test]
    fn builders() {
        let c = HwConfig::at_resolution(16).with_threshold(900);
        assert_eq!(c.resolution, 16);
        assert_eq!(c.sw_threshold, 900);
    }
}
