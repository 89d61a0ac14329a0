//! Lane-friendly node layout and lane-generic MBR kernels — the SIMD side
//! of the filter stage.
//!
//! The R-tree's pointer structure is good for maintenance but hostile to
//! vectorization: each overlap test loads an interleaved `(Rect, child)`
//! entry. Following the SIMD-ified R-tree literature, every node therefore
//! carries a struct-of-arrays mirror of its children's MBRs
//! ([`ChildMbrs`]: `min_x[] / min_y[] / max_x[] / max_y[]`, padded to the
//! lane width with [`Rect::EMPTY`] sentinels), rebuilt whenever the node's
//! entry list changes. Queries and joins test a probe rectangle against a
//! whole node with one lane-generic kernel call instead of a per-child
//! branch.
//!
//! The kernels follow the same idiom as `spatial_raster::aa_line`: one
//! implementation, generic over `const LANES`, whose per-lane math is
//! identical expression-for-expression to the scalar [`Rect`] predicates —
//! `LANES = 1` *is* the scalar path and `LANES = 8` autovectorizes. Rust
//! float semantics are strict IEEE at every vector width, so every lane
//! count produces the same mask bit for bit; the knob only moves wall-clock
//! time.
//!
//! # Example
//!
//! ```
//! use spatial_geom::Rect;
//! use spatial_index::{ChildMbrs, FilterStats, Intersects};
//!
//! // A node holding two children, mirrored into SoA form.
//! let children = [Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(5.0, 5.0, 6.0, 6.0)];
//! let node = ChildMbrs::from_rects(&children);
//!
//! // One kernel call tests the probe against every child slot at once.
//! let probe = Rect::new(0.5, 0.5, 2.0, 2.0);
//! let mut stats = FilterStats::default();
//! let scalar = node.mask(&Intersects, &probe, false, &mut stats);
//! let simd = node.mask(&Intersects, &probe, true, &mut stats);
//!
//! assert_eq!(scalar, 0b01); // only the first child overlaps the probe
//! assert_eq!(scalar, simd); // lane width never changes the mask...
//! assert_eq!(stats.node_tests, 4); // ...or the per-call charge (2 real lanes each)
//! ```

use crate::rtree::MAX_ENTRIES;
use spatial_geom::point::{hypot, OVERFLOW_ROOT};
use spatial_geom::Rect;

/// Lanes the vectorized kernels advance per step (f64 × 8 = two 256-bit
/// registers, the same width the raster device's band kernels use).
pub const SIMD_LANES: usize = 8;

/// Padded width of a node's SoA arrays: `MAX_ENTRIES` rounded up to a
/// whole number of lanes, so kernels never need a scalar tail loop.
pub const SOA_WIDTH: usize = MAX_ENTRIES.next_multiple_of(SIMD_LANES);

/// A node's children's MBRs in struct-of-arrays form, lane-width padded.
///
/// Slots `len..SOA_WIDTH` hold [`Rect::EMPTY`] (`min = +∞`, `max = −∞`),
/// which no finite probe can intersect and which lies at infinite distance
/// from every finite rectangle — padding lanes therefore evaluate the real
/// kernels and always come out empty, no masking required.
#[derive(Debug, Clone)]
pub struct ChildMbrs {
    len: usize,
    min_x: [f64; SOA_WIDTH],
    min_y: [f64; SOA_WIDTH],
    max_x: [f64; SOA_WIDTH],
    max_y: [f64; SOA_WIDTH],
}

impl Default for ChildMbrs {
    fn default() -> Self {
        ChildMbrs {
            len: 0,
            min_x: [f64::INFINITY; SOA_WIDTH],
            min_y: [f64::INFINITY; SOA_WIDTH],
            max_x: [f64::NEG_INFINITY; SOA_WIDTH],
            max_y: [f64::NEG_INFINITY; SOA_WIDTH],
        }
    }
}

impl ChildMbrs {
    /// Builds the SoA mirror of `rects` (at most [`MAX_ENTRIES`] of them).
    pub fn from_rects<'r>(rects: impl IntoIterator<Item = &'r Rect>) -> Self {
        let mut soa = ChildMbrs::default();
        for r in rects {
            let i = soa.len;
            assert!(i < SOA_WIDTH, "node exceeds SoA capacity");
            soa.min_x[i] = r.xmin;
            soa.min_y[i] = r.ymin;
            soa.max_x[i] = r.xmax;
            soa.max_y[i] = r.ymax;
            soa.len = i + 1;
        }
        soa
    }

    /// Number of real (non-padding) child slots.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reassembles slot `i` as a [`Rect`] (padding slots come back as
    /// [`Rect::EMPTY`]) — the invariant checker uses this to assert the
    /// mirror matches the node structure bit for bit.
    pub fn rect(&self, i: usize) -> Rect {
        Rect::new(self.min_x[i], self.min_y[i], self.max_x[i], self.max_y[i])
    }

    /// Tests `probe` against every child slot with the lane-generic kernel
    /// and returns the hit bitmask (bit `i` = slot `i` passes `pred`).
    ///
    /// `simd` selects the vectorized instantiation (`LANES =`
    /// [`SIMD_LANES`]) over the scalar one (`LANES = 1`); the mask is
    /// bit-identical either way. Charges
    /// `len` node tests to `stats` — all real lanes are evaluated, never
    /// short-circuited, so the count is a pure function of the tree and
    /// the probe, independent of `simd`, thread count or unit size.
    #[inline]
    pub fn mask<P: MbrPredicate>(
        &self,
        pred: &P,
        probe: &Rect,
        simd: bool,
        stats: &mut FilterStats,
    ) -> u32 {
        stats.node_tests += self.len;
        if simd {
            stats.simd_node_tests += self.len;
            self.mask_lanes::<P, SIMD_LANES>(pred, probe)
        } else {
            self.mask_lanes::<P, 1>(pred, probe)
        }
    }

    /// The raw lane-generic kernel at an explicit lane count — exposed so
    /// tests can pin `LANES = 1` against `LANES = 8` per node.
    #[inline]
    pub fn mask_lanes<P: MbrPredicate, const LANES: usize>(&self, pred: &P, probe: &Rect) -> u32 {
        let mut mask = 0u32;
        let end = self.len.next_multiple_of(LANES.max(1));
        let mut i = 0;
        while i < end {
            let keep = pred.keep_chunk::<LANES>(self, i, probe);
            for (k, &hit) in keep.iter().enumerate() {
                mask |= (hit as u32) << (i + k);
            }
            i += LANES;
        }
        mask
    }
}

/// A monotone MBR predicate the filter stage can evaluate a node at a
/// time: true for child rectangles must imply true for their covering
/// parents, or tree pruning would lose candidates (both implementations
/// are monotone).
///
/// `test` is the scalar pair form; `keep_chunk` is the lane-generic node
/// form. Implementations must keep the two expression-identical so a
/// scalar traversal and a vectorized one agree bit for bit.
pub trait MbrPredicate: Copy + Send + Sync {
    /// Scalar pair test (the form the engine's refinement oracle uses).
    fn test(&self, a: &Rect, b: &Rect) -> bool;

    /// Tests `probe` against child slots `i..i + LANES` of `soa`.
    fn keep_chunk<const LANES: usize>(
        &self,
        soa: &ChildMbrs,
        i: usize,
        probe: &Rect,
    ) -> [bool; LANES];
}

/// MBR intersection — the candidate predicate of selections and
/// intersection joins (closed: touching boundaries intersect).
#[derive(Debug, Clone, Copy)]
pub struct Intersects;

impl MbrPredicate for Intersects {
    #[inline(always)]
    fn test(&self, a: &Rect, b: &Rect) -> bool {
        a.intersects(b)
    }

    #[inline(always)]
    fn keep_chunk<const LANES: usize>(
        &self,
        soa: &ChildMbrs,
        i: usize,
        probe: &Rect,
    ) -> [bool; LANES] {
        let mut keep = [false; LANES];
        for (k, keep) in keep.iter_mut().enumerate() {
            let j = i + k;
            // Expression-identical to `Rect::intersects(child, probe)`.
            *keep = soa.min_x[j] <= probe.xmax
                && probe.xmin <= soa.max_x[j]
                && soa.min_y[j] <= probe.ymax
                && probe.ymin <= soa.max_y[j];
        }
        keep
    }
}

/// MBR distance at most `d` — the candidate predicate of within-distance
/// queries and joins (the MBR distance lower-bounds the object distance).
#[derive(Debug, Clone, Copy)]
pub struct WithinDist(pub f64);

impl MbrPredicate for WithinDist {
    #[inline(always)]
    fn test(&self, a: &Rect, b: &Rect) -> bool {
        a.min_dist(b) <= self.0
    }

    #[inline(always)]
    fn keep_chunk<const LANES: usize>(
        &self,
        soa: &ChildMbrs,
        i: usize,
        probe: &Rect,
    ) -> [bool; LANES] {
        // Below `OVERFLOW_ROOT` a `hypot` past its overflow line exceeds `d`
        // as the plain root's `∞` does, so the plain root decides alike —
        // in a loop the compiler packs, which `hypot`'s cold call is not.
        if self.0 < OVERFLOW_ROOT {
            self.lanes(soa, i, probe, |dx, dy| (dx * dx + dy * dy).sqrt())
        } else {
            self.lanes(soa, i, probe, hypot)
        }
    }
}

impl WithinDist {
    /// `Rect::min_dist(child, probe) <= d` per lane, with `root` for
    /// [`hypot`].
    #[inline(always)]
    fn lanes<const LANES: usize>(
        &self,
        soa: &ChildMbrs,
        i: usize,
        probe: &Rect,
        root: impl Fn(f64, f64) -> f64,
    ) -> [bool; LANES] {
        let mut keep = [false; LANES];
        for (k, keep) in keep.iter_mut().enumerate() {
            let j = i + k;
            // Expression-identical to `Rect::min_dist(child, probe) <= d`
            // (min_dist is exactly symmetric in its operands: both axis
            // gaps are a max over the same three terms).
            let dx = (probe.xmin - soa.max_x[j])
                .max(soa.min_x[j] - probe.xmax)
                .max(0.0);
            let dy = (probe.ymin - soa.max_y[j])
                .max(soa.min_y[j] - probe.ymax)
                .max(0.0);
            *keep = root(dx, dy) <= self.0;
        }
        keep
    }
}

/// Filter-stage tuning knobs, shared by tree searches and the join
/// scheduler. All combinations produce bit-identical candidate sequences;
/// the knobs only move wall-clock time (and the diagnostic
/// `simd_node_tests` / `work_units` counters that make the routing
/// visible).
#[derive(Debug, Clone, Copy)]
pub struct FilterConfig {
    /// Worker threads pulling page-pair work units during tree joins
    /// (`1` = sequential; searches are single-probe and always run on the
    /// calling thread).
    pub threads: usize,
    /// Evaluate node kernels at [`SIMD_LANES`] lanes (AVX2 where
    /// available) instead of `LANES = 1`.
    pub simd: bool,
    /// Page pairs per work unit. Smaller units balance better, larger
    /// units amortize queue traffic; the candidate sequence is identical
    /// for every value.
    pub unit_pairs: usize,
}

/// Default page pairs per join work unit.
pub const DEFAULT_UNIT_PAIRS: usize = 64;

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            threads: 1,
            simd: true,
            unit_pairs: DEFAULT_UNIT_PAIRS,
        }
    }
}

impl FilterConfig {
    /// Sequential scalar traversal — the seed behaviour, for baselines.
    pub fn scalar() -> Self {
        FilterConfig {
            threads: 1,
            simd: false,
            unit_pairs: DEFAULT_UNIT_PAIRS,
        }
    }
}

/// Work counters of the MBR filter stage.
///
/// `node_tests` is deterministic across every [`FilterConfig`]: kernels
/// evaluate all real lanes of a node (no short-circuiting), so the count
/// is a pure function of the trees and the probe/predicate.
/// `simd_node_tests` and `work_units` are routing diagnostics — they
/// describe *how* the same work was executed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Child-slot MBR tests evaluated (padding lanes excluded).
    pub node_tests: usize,
    /// The subset of `node_tests` evaluated through the vectorized
    /// (`LANES > 1`) kernel instantiation.
    pub simd_node_tests: usize,
    /// Page-pair work units the join scheduler dispensed (0 for
    /// single-probe searches).
    pub work_units: usize,
}

impl FilterStats {
    pub fn add(&mut self, o: &FilterStats) {
        self.node_tests += o.node_tests;
        self.simd_node_tests += o.simd_node_tests;
        self.work_units += o.work_units;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rect(x: f64, y: f64, w: f64, h: f64) -> Rect {
        Rect::new(x, y, x + w, y + h)
    }

    #[test]
    fn padding_slots_never_match() {
        let soa = ChildMbrs::from_rects([rect(0.0, 0.0, 1.0, 1.0)].iter());
        let everything = Rect::new(-1e9, -1e9, 1e9, 1e9);
        let mut stats = FilterStats::default();
        assert_eq!(soa.mask(&Intersects, &everything, true, &mut stats), 0b1);
        assert_eq!(
            soa.mask(&WithinDist(1e12), &everything, false, &mut stats),
            0b1
        );
        assert_eq!(stats.node_tests, 2);
        assert_eq!(stats.simd_node_tests, 1);
    }

    #[test]
    fn mask_matches_scalar_rect_predicates() {
        let rects = [
            rect(0.0, 0.0, 2.0, 2.0),
            rect(5.0, 5.0, 1.0, 1.0),
            rect(-3.0, 1.0, 0.5, 4.0),
        ];
        let soa = ChildMbrs::from_rects(rects.iter());
        let probe = rect(1.0, 1.0, 3.0, 3.0);
        for (i, r) in rects.iter().enumerate() {
            let bit = (soa.mask_lanes::<_, 1>(&Intersects, &probe) >> i) & 1;
            assert_eq!(bit == 1, r.intersects(&probe), "slot {i}");
            let bit = (soa.mask_lanes::<_, 1>(&WithinDist(2.0), &probe) >> i) & 1;
            assert_eq!(bit == 1, r.min_dist(&probe) <= 2.0, "slot {i}");
        }
    }

    /// Gaps whose squares overflow: the lanes keep a child at `2.5 s` from
    /// a probe `2 s` away at every magnitude, and agree with the scalar
    /// `Rect::min_dist` at every lane width — on both sides of
    /// `OVERFLOW_ROOT`, where they switch from the plain root to `hypot`.
    #[test]
    fn within_dist_lanes_survive_overflowing_gaps() {
        for s in [1.0, 1e150, 1e153, 1e154, 1e155, 1e200, 1e300] {
            let rects = [rect(0.0, 0.0, s, s), rect(0.0, 3.0 * s, s, s)];
            let soa = ChildMbrs::from_rects(rects.iter());
            let probe = rect(3.0 * s, 0.0, s, s);
            // `3 s - s` as the coordinates round it: `2 s` to an ulp.
            assert_eq!(rects[0].min_dist(&probe), probe.xmin - s);
            let around = [OVERFLOW_ROOT.next_down(), OVERFLOW_ROOT];
            for d in [2.5 * s, 1.5 * s].into_iter().chain(around) {
                let expected = rects.iter().enumerate().fold(0u32, |m, (i, r)| {
                    m | (((r.min_dist(&probe) <= d) as u32) << i)
                });
                assert_eq!(expected & 1, u32::from(d > 2.0 * s), "s = {s}, d = {d}");
                assert_eq!(soa.mask_lanes::<_, 1>(&WithinDist(d), &probe), expected);
                assert_eq!(
                    soa.mask_lanes::<_, SIMD_LANES>(&WithinDist(d), &probe),
                    expected
                );
            }
        }
    }

    prop_compose! {
        fn arb_rect()(
            x in -100.0f64..100.0,
            y in -100.0f64..100.0,
            w in 0.0f64..40.0,
            h in 0.0f64..40.0,
        ) -> Rect {
            Rect::new(x, y, x + w, y + h)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Scalar, 8-lane and runtime-dispatched (AVX2 when built and
        /// available) kernels produce bit-identical masks per node, for
        /// both predicates, and agree with the scalar `Rect` oracles.
        #[test]
        fn kernels_bit_identical_across_lane_widths(
            rects in prop::collection::vec(arb_rect(), 0..=MAX_ENTRIES),
            probe in arb_rect(),
            d in 0.0f64..120.0,
        ) {
            let soa = ChildMbrs::from_rects(rects.iter());
            let mut stats = FilterStats::default();
            for mask in [
                soa.mask_lanes::<_, 1>(&Intersects, &probe),
                soa.mask_lanes::<_, SIMD_LANES>(&Intersects, &probe),
                soa.mask(&Intersects, &probe, true, &mut stats),
                soa.mask(&Intersects, &probe, false, &mut stats),
            ] {
                let expected = rects.iter().enumerate().fold(0u32, |m, (i, r)| {
                    m | ((r.intersects(&probe) as u32) << i)
                });
                prop_assert_eq!(mask, expected);
            }
            for mask in [
                soa.mask_lanes::<_, 1>(&WithinDist(d), &probe),
                soa.mask_lanes::<_, SIMD_LANES>(&WithinDist(d), &probe),
                soa.mask(&WithinDist(d), &probe, true, &mut stats),
                soa.mask(&WithinDist(d), &probe, false, &mut stats),
            ] {
                let expected = rects.iter().enumerate().fold(0u32, |m, (i, r)| {
                    m | (((r.min_dist(&probe) <= d) as u32) << i)
                });
                prop_assert_eq!(mask, expected);
            }
            // Every mask call charged exactly the real slot count.
            prop_assert_eq!(stats.node_tests, 4 * rects.len());
            prop_assert_eq!(stats.simd_node_tests, 2 * rects.len());
        }
    }
}
