//! Lane-friendly node layout and vectorizable MBR kernels — the SIMD
//! side of the filter stage.
//!
//! Following the SIMD-ified R-tree literature, every node keeps its
//! children's MBRs in struct-of-arrays form ([`ChildMbrs`]: `min_x[] /
//! min_y[] / max_x[] / max_y[]`, padded to the lane width with
//! [`Rect::EMPTY`] sentinels) and nowhere else: the node's payload or child
//! list holds no rectangles. Queries and joins test a probe rectangle
//! against a whole node with one kernel call instead of a per-child branch.
//!
//! Each predicate has one kernel body, [`SIMD_LANES`] slots per step,
//! whose per-slot math is identical expression-for-expression to the
//! scalar [`Rect`] predicate it mirrors (`MbrPredicate::test`); the
//! fixed-width loop autovectorizes. Rust float semantics are strict IEEE
//! at every vector width, so bit `i` of a node's mask is exactly the
//! scalar predicate on child `i`.

use crate::rtree::MAX_ENTRIES;
use spatial_geom::point::{hypot, OVERFLOW_ROOT};
use spatial_geom::Rect;
use std::borrow::Borrow;

/// Slots the node kernels advance per step (f64 × 8 = two 256-bit
/// registers).
pub(crate) const SIMD_LANES: usize = 8;

/// Padded width of a node's SoA arrays: `MAX_ENTRIES` rounded up to a
/// whole number of lanes, so kernels never need a scalar tail loop.
pub(crate) const SOA_WIDTH: usize = MAX_ENTRIES.next_multiple_of(SIMD_LANES);

/// A node's children's MBRs in struct-of-arrays form, lane-width padded.
///
/// Slots `len..SOA_WIDTH` hold [`Rect::EMPTY`] (`min = +∞`, `max = −∞`),
/// which no finite probe can intersect and which lies at infinite distance
/// from every finite rectangle — padding lanes therefore evaluate the real
/// kernels and always come out empty, no masking required.
#[derive(Debug, Clone)]
pub(crate) struct ChildMbrs {
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
    /// Lays `rects` (at most [`MAX_ENTRIES`] of them) out in lanes, slot
    /// `i` holding the `i`-th.
    pub(crate) fn from_rects(rects: impl IntoIterator<Item = impl Borrow<Rect>>) -> Self {
        let mut soa = ChildMbrs::default();
        for r in rects {
            let (r, i) = (r.borrow(), soa.len);
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
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Reassembles slot `i` as a [`Rect`] (padding slots come back as
    /// [`Rect::EMPTY`]).
    pub(crate) fn rect(&self, i: usize) -> Rect {
        Rect::new(self.min_x[i], self.min_y[i], self.max_x[i], self.max_y[i])
    }

    /// The real slots' rectangles in slot order — the join's probe
    /// rectangles and the tree's node MBRs are read this way.
    #[inline]
    pub(crate) fn rects(&self) -> impl Iterator<Item = Rect> + '_ {
        let n = self.len;
        (self.min_x[..n].iter().zip(&self.min_y[..n]))
            .zip(self.max_x[..n].iter().zip(&self.max_y[..n]))
            .map(|((&xmin, &ymin), (&xmax, &ymax))| Rect::new(xmin, ymin, xmax, ymax))
    }

    /// Tests `probe` against every child slot and returns the hit bitmask
    /// (bit `i` = slot `i` passes `pred`). Charges `len` node tests to
    /// `stats` — all real lanes are evaluated, never short-circuited, so
    /// the count is a pure function of the tree and the probe.
    #[inline]
    pub(crate) fn mask<P: MbrPredicate>(
        &self,
        pred: &P,
        probe: &Rect,
        stats: &mut FilterStats,
    ) -> u32 {
        stats.node_tests += self.len;
        let mut mask = 0u32;
        let mut i = 0;
        while i < self.len {
            let keep = pred.keep_chunk(self, i, probe);
            for (k, &hit) in keep.iter().enumerate() {
                mask |= (hit as u32) << (i + k);
            }
            i += SIMD_LANES;
        }
        mask
    }
}

/// A monotone MBR predicate the filter stage can evaluate a node at a
/// time: true for child rectangles must imply true for their covering
/// parents, or tree pruning would lose candidates (both implementations
/// are monotone).
///
/// `test` is the scalar pair form, the tests' oracle; `keep_chunk` is the
/// node form. Implementations must keep the two expression-identical, so
/// bit `i` of [`ChildMbrs::mask`] is `test(&soa.rect(i), probe)`.
pub(crate) trait MbrPredicate: Copy + Send + Sync {
    /// Scalar pair test.
    #[cfg(test)]
    fn test(&self, a: &Rect, b: &Rect) -> bool;

    /// Tests `probe` against child slots `i..i + SIMD_LANES` of `soa`.
    fn keep_chunk(&self, soa: &ChildMbrs, i: usize, probe: &Rect) -> [bool; SIMD_LANES];
}

/// MBR intersection — the candidate predicate of selections and
/// intersection joins (closed: touching boundaries intersect).
#[derive(Debug, Clone, Copy)]
pub struct Intersects;

impl MbrPredicate for Intersects {
    #[cfg(test)]
    fn test(&self, a: &Rect, b: &Rect) -> bool {
        a.intersects(b)
    }

    #[inline(always)]
    fn keep_chunk(&self, soa: &ChildMbrs, i: usize, probe: &Rect) -> [bool; SIMD_LANES] {
        let mut keep = [false; SIMD_LANES];
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
pub(crate) struct WithinDist(pub f64);

impl MbrPredicate for WithinDist {
    #[cfg(test)]
    fn test(&self, a: &Rect, b: &Rect) -> bool {
        a.min_dist(b) <= self.0
    }

    #[inline(always)]
    fn keep_chunk(&self, soa: &ChildMbrs, i: usize, probe: &Rect) -> [bool; SIMD_LANES] {
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
    fn lanes(
        &self,
        soa: &ChildMbrs,
        i: usize,
        probe: &Rect,
        root: impl Fn(f64, f64) -> f64,
    ) -> [bool; SIMD_LANES] {
        let mut keep = [false; SIMD_LANES];
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

/// The filter stage has no knobs. The type stays, field-less, only because
/// the benchmark harness passes it to the `join_*_with` functions (like
/// `_simd` on [`crate::RTree::search_intersects_stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FilterConfig {}

/// Work counters of the MBR filter stage.
///
/// Kernels evaluate all real lanes of a node (no short-circuiting), so
/// `node_tests` is a pure function of the trees and the probe/predicate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Child-slot MBR tests evaluated (padding lanes excluded).
    pub node_tests: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One kernel call tests the probe against every child slot at once
    /// and charges one node test per real slot.
    #[test]
    fn one_call_tests_every_slot() {
        let children = [Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(5.0, 5.0, 6.0, 6.0)];
        let node = ChildMbrs::from_rects(children);
        let mut stats = FilterStats::default();
        let mask = node.mask(&Intersects, &Rect::new(0.5, 0.5, 2.0, 2.0), &mut stats);
        assert_eq!(mask, 0b01, "only the first child overlaps the probe");
        assert_eq!(stats.node_tests, 2);
    }

    fn rect(x: f64, y: f64, w: f64, h: f64) -> Rect {
        Rect::new(x, y, x + w, y + h)
    }

    /// The mask the scalar oracle gives: bit `i` is `pred.test(slot i,
    /// probe)` over every slot, padding included.
    fn oracle<P: MbrPredicate>(soa: &ChildMbrs, pred: &P, probe: &Rect) -> u32 {
        (0..SOA_WIDTH).fold(0, |m, i| m | ((pred.test(&soa.rect(i), probe) as u32) << i))
    }

    #[test]
    fn padding_slots_never_match() {
        let soa = ChildMbrs::from_rects([rect(0.0, 0.0, 1.0, 1.0)].iter());
        let everything = Rect::new(-1e9, -1e9, 1e9, 1e9);
        let mut stats = FilterStats::default();
        assert_eq!(soa.mask(&Intersects, &everything, &mut stats), 0b1);
        assert_eq!(soa.mask(&WithinDist(1e12), &everything, &mut stats), 0b1);
        assert_eq!(stats.node_tests, 2);
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
        let mut stats = FilterStats::default();
        let hits = soa.mask(&Intersects, &probe, &mut stats);
        let near = soa.mask(&WithinDist(2.0), &probe, &mut stats);
        for (i, r) in rects.iter().enumerate() {
            assert_eq!((hits >> i) & 1 == 1, r.intersects(&probe), "slot {i}");
            assert_eq!((near >> i) & 1 == 1, r.min_dist(&probe) <= 2.0, "slot {i}");
        }
        assert_eq!(hits, 0b001);
        assert_eq!(near, 0b011);
    }

    /// Gaps whose squares overflow: the kernel keeps a child at `2.5 s`
    /// from a probe `2 s` away at every magnitude, and agrees with
    /// `Rect::min_dist` slot for slot — on both sides of `OVERFLOW_ROOT`,
    /// where it switches from the plain root to `hypot`.
    #[test]
    fn within_dist_kernel_survives_overflowing_gaps() {
        for s in [1.0, 1e150, 1e153, 1e154, 1e155, 1e200, 1e300] {
            let rects = [rect(0.0, 0.0, s, s), rect(0.0, 3.0 * s, s, s)];
            let soa = ChildMbrs::from_rects(rects.iter());
            let probe = rect(3.0 * s, 0.0, s, s);
            // `3 s - s` as the coordinates round it: `2 s` to an ulp.
            assert_eq!(rects[0].min_dist(&probe), probe.xmin - s);
            let around = [OVERFLOW_ROOT.next_down(), OVERFLOW_ROOT];
            for d in [2.5 * s, 1.5 * s].into_iter().chain(around) {
                let mask = soa.mask(&WithinDist(d), &probe, &mut FilterStats::default());
                assert_eq!(
                    mask,
                    oracle(&soa, &WithinDist(d), &probe),
                    "s = {s}, d = {d}"
                );
                let expected = rects.iter().enumerate().fold(0u32, |m, (i, r)| {
                    m | (((r.min_dist(&probe) <= d) as u32) << i)
                });
                assert_eq!(mask, expected, "s = {s}, d = {d}");
                assert_eq!(mask & 1, u32::from(d > 2.0 * s), "s = {s}, d = {d}");
            }
        }
    }

    prop_compose! {
        /// Small integer boxes: edges touch and gaps repeat exactly.
        fn arb_grid_rect()(
            x in -6i32..6,
            y in -6i32..6,
            w in 0i32..4,
            h in 0i32..4,
        ) -> Rect {
            rect(x as f64, y as f64, w as f64, h as f64)
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

        /// Bit `i` of a node's mask is the scalar predicate on slot `i`,
        /// for both predicates and every slot, and every call charges
        /// exactly the real slot count.
        #[test]
        fn kernels_agree_with_the_scalar_predicates(
            rects in prop::collection::vec(arb_rect(), 0..=MAX_ENTRIES),
            probe in arb_rect(),
            d in 0.0f64..120.0,
        ) {
            let soa = ChildMbrs::from_rects(rects.iter());
            let mut stats = FilterStats::default();
            let hits = soa.mask(&Intersects, &probe, &mut stats);
            prop_assert_eq!(hits, oracle(&soa, &Intersects, &probe));
            let near = soa.mask(&WithinDist(d), &probe, &mut stats);
            prop_assert_eq!(near, oracle(&soa, &WithinDist(d), &probe));
            for (i, r) in rects.iter().enumerate() {
                prop_assert_eq!((hits >> i) & 1 == 1, r.intersects(&probe));
                prop_assert_eq!((near >> i) & 1 == 1, r.min_dist(&probe) <= d);
            }
            prop_assert_eq!(stats.node_tests, 2 * rects.len());
        }

        /// The same on integer boxes, where the closed comparisons decide:
        /// shared edges and corners, and gaps of exactly `d`.
        #[test]
        fn kernels_agree_with_the_scalar_predicates_on_touching_boxes(
            rects in prop::collection::vec(arb_grid_rect(), 0..=MAX_ENTRIES),
            probe in arb_grid_rect(),
            d in 0i32..5,
        ) {
            let d = d as f64;
            let soa = ChildMbrs::from_rects(rects.iter());
            let mut stats = FilterStats::default();
            let hits = soa.mask(&Intersects, &probe, &mut stats);
            prop_assert_eq!(hits, oracle(&soa, &Intersects, &probe));
            let near = soa.mask(&WithinDist(d), &probe, &mut stats);
            prop_assert_eq!(near, oracle(&soa, &WithinDist(d), &probe));
        }
    }
}
