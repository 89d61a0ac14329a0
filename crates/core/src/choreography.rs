//! One hardware choreography: what the device runs for a pair is decided
//! here, once.
//!
//! The paper has two hardware procedures — Algorithm 3.1 and its §3.1
//! distance variant — and both are the same five steps: a software
//! prologue, a projected region, two rendered boundaries, a scan, and a
//! software step 3 for whatever the scan could not reject. The §14
//! overlap count shares the middle three. This module owns each step's
//! *decision*; the per-pair tester, the atlas batcher and the planner all
//! call it instead of re-deriving it:
//!
//! * [`route`] — the software prologue of a predicate (MBR gate,
//!   point-in-polygon, `sw_threshold`, no-window fallback): the pair is
//!   either [`Routed::Done`] or needs the hardware over a [`Window`];
//! * [`window`] — the §3.2 projection: region, anisotropic vs uniform
//!   scaling, the Equation (1) line width, which polygon renders first,
//!   and which recording the resulting tape is;
//! * [`list`] — the command list for a [`Tape`] (one window, or an atlas
//!   of windows sharing a line width), recorded per submission and
//!   executed verbatim. The only product caller of the `record_*`
//!   functions;
//! * [`settle`] — the reject / confirm / fault-fallback epilogue over the
//!   scan's verdict, with [`confirm`] as the per-predicate software
//!   step 3.
//!
//! Supervised execution and the hardware-ledger charge are
//! `HwTester::submit`, the one place that owns a device.

use crate::config::HwConfig;
use crate::hw_distance::software_distance_test;
use crate::hw_intersect::HwTester;
use crate::hw_overlap::overlap_region;
use crate::pipeline::{Predicate, RefineOp};
use crate::stats::TestStats;
use spatial_geom::intersect::restricted_edges;
use spatial_geom::pip::point_in_polygon;
use spatial_geom::sweep::{tree_sweep_intersects_stats, SweepStats};
use spatial_geom::{Point, Polygon, Rect, Segment};
use spatial_raster::aa_line::DIAGONAL_WIDTH;
use spatial_raster::atlas::record_batch;
use spatial_raster::{AtlasCell, CommandList, OverlapStrategy, Viewport, MAX_AA_LINE_WIDTH};

/// Which `record_*` function draws a window's tape.
#[derive(Debug, Clone, Copy)]
enum Recording {
    Segment(OverlapStrategy),
    Distance(OverlapStrategy),
    Overlap,
}

/// The projection window of one pair's hardware test, and everything
/// that follows from it.
#[derive(Debug)]
pub(crate) struct Window<'a> {
    /// The projected data-space region, as the `record_*` functions take
    /// it (before `Viewport`'s degenerate-extent inflation).
    pub region: Rect,
    /// `region` on the `resolution × resolution` window: anisotropic for
    /// the segment test and the overlap count, uniform for the distance
    /// test (Equation (1) presumes it).
    pub viewport: Viewport,
    /// Line width in pixels: [`DIAGONAL_WIDTH`] for the segment test,
    /// the Equation (1) width — also the vertex-cap point size — for the
    /// distance test. The overlap count fills interiors and ignores it.
    pub width: f64,
    /// Rendered first / second. The distance test renders the smaller
    /// object first (§3.2); the others keep the predicate's order.
    pub first: &'a Polygon,
    pub second: &'a Polygon,
    recording: Recording,
}

/// The hardware projection for `op` on `(p, q)` at `resolution`, or
/// `None` when the device cannot take the pair: no shared region, a
/// degenerate one (overlap count), or an Equation (1) width that is over
/// the hardware limit or not a width at all.
pub(crate) fn window<'a>(
    op: RefineOp,
    p: &'a Polygon,
    q: &'a Polygon,
    resolution: usize,
    strategy: OverlapStrategy,
) -> Option<Window<'a>> {
    let RefineOp::Test(Predicate::WithinDistance(d)) = op else {
        // §3.2: the segment tests project the MBR intersection — for
        // containment that *is* the inner MBR once the MBR gate passed.
        // The overlap count projects it too, but needs it to have
        // interior.
        let (region, recording) = match op {
            RefineOp::Measure { .. } => (overlap_region(p, q)?, Recording::Overlap),
            RefineOp::Test(_) => (
                p.mbr().intersection(&q.mbr())?,
                Recording::Segment(strategy),
            ),
        };
        return Some(Window {
            region,
            viewport: Viewport::new(region, resolution, resolution),
            width: DIAGONAL_WIDTH,
            first: p,
            second: q,
            recording,
        });
    };

    // §3.2: project the expanded MBR of the smaller object — intersected
    // with the other's expansion, since overlap can only appear where
    // both expanded boundaries are — onto a uniform-scale window.
    let (small, large) = if p.mbr().area() <= q.mbr().area() {
        (p, q)
    } else {
        (q, p)
    };
    let half = d / 2.0;
    // MBR distance ≤ d *mathematically* guarantees the half-expansions
    // meet, but not in f64: when the gap equals d exactly, `min_dist`'s
    // rounding can pass the gate while `xmin + d/2` rounds below
    // `xmax - d/2`, leaving an empty intersection.
    let region = small
        .mbr()
        .expanded(half)
        .intersection(&large.mbr().expanded(half))?;
    // An unbounded region (d = ∞) projects at scale 0, where Equation (1)
    // evaluates `(∞·0).ceil().max(1.0)` to a "valid" one-pixel width and
    // the filter would reject true positives.
    if !(region.width().is_finite() && region.height().is_finite()) {
        return None;
    }
    let viewport = Viewport::uniform(region, resolution, resolution);
    // Equation (1): the pixel width that covers data-space distance d.
    // Over the hardware limit the test reverts to software (§3.1).
    let width = viewport.line_width_for_distance(d.max(f64::MIN_POSITIVE));
    if width.is_nan() || width > MAX_AA_LINE_WIDTH {
        return None;
    }
    Some(Window {
        region,
        viewport,
        width,
        first: small,
        second: large,
        recording: Recording::Distance(strategy),
    })
}

impl Window<'_> {
    /// This window's tape and its verdict slot.
    fn record(&self) -> (CommandList, usize) {
        let (first, second) = (self.first, self.second);
        let resolution = self.viewport.width();
        match self.recording {
            Recording::Segment(strategy) => HwTester::record_segment_test(
                self.region,
                resolution,
                strategy,
                first.edges(),
                second.edges(),
            ),
            Recording::Distance(strategy) => HwTester::record_distance_test(
                self.region,
                resolution,
                strategy,
                self.width,
                first,
                second,
            ),
            Recording::Overlap => HwTester::record_overlap_area(
                self.region,
                resolution,
                first.vertices().iter().copied(),
                second.vertices().iter().copied(),
            ),
        }
    }

    /// The polygon rendered first or second.
    fn side(&self, second: bool) -> &Polygon {
        if second {
            self.second
        } else {
            self.first
        }
    }
}

/// A window is its own atlas cell: its edges stream from the polygons
/// into the list's arena, never through a per-cell copy.
impl AtlasCell for &Window<'_> {
    fn viewport(&self) -> Viewport {
        self.viewport
    }

    fn segments(&self, second: bool) -> impl ExactSizeIterator<Item = Segment> {
        self.side(second).edges()
    }

    fn points(&self, second: bool) -> impl ExactSizeIterator<Item = Point> {
        // The distance test draws vertex caps (smooth points) on top of
        // the edges.
        let caps: &[Point] = match self.recording {
            Recording::Distance(_) => self.side(second).vertices(),
            _ => &[],
        };
        caps.iter().copied()
    }
}

/// What one submission renders.
#[derive(Debug)]
pub(crate) enum Tape<'a> {
    /// The per-pair choreography of one window.
    Pair(&'a Window<'a>),
    /// One atlas round: every window a cell, all at one line width (one
    /// draw call renders at one width) and one cell resolution. Always
    /// the accumulation choreography; the Blending / Stencil ablations
    /// live on the per-pair path. Must be non-empty.
    Atlas(&'a [&'a Window<'a>]),
}

/// The command list for `tape` and its verdict readback slot, recorded
/// from scratch: a tape is a dozen pushes plus one copy of the edge
/// lists, which no cache beats (DESIGN.md §9). The device executes the
/// list as returned.
pub(crate) fn list(tape: Tape<'_>) -> (CommandList, usize) {
    match tape {
        Tape::Pair(w) => w.record(),
        Tape::Atlas(windows) => {
            let width = windows[0].width;
            record_batch(windows, width, width)
        }
    }
}

/// What the software prologue decided for one pair.
#[derive(Debug)]
pub(crate) enum Routed<'a> {
    /// Decided without hardware.
    Done(bool),
    /// Needs the hardware filter over this window.
    Hw(Window<'a>),
}

/// The software prologue of Algorithm 3.1 and its variants, for `pred`
/// on `(p, q)` (containment pairs are `(inner, outer)`).
pub(crate) fn route<'a>(
    pred: Predicate,
    p: &'a Polygon,
    q: &'a Polygon,
    cfg: &HwConfig,
    stats: &mut TestStats,
) -> Routed<'a> {
    // The MBR gate: the cheapest bound on each predicate.
    let apart = match pred {
        Predicate::Intersects => !p.mbr().intersects(&q.mbr()),
        Predicate::ContainedIn => !q.mbr().contains_rect(&p.mbr()),
        Predicate::WithinDistance(d) => {
            debug_assert!(d >= 0.0);
            p.mbr().min_dist(&q.mbr()) > d
        }
    };
    if apart {
        return Routed::Done(false);
    }

    // Step 1: software point-in-polygon. Containment either way settles
    // intersection and distance (distance 0); a vertex of `inner` outside
    // `outer` settles strict containment (closed semantics: this also
    // catches boundary-on-boundary conservatively).
    let first_inside = point_in_polygon(p.vertices()[0], q);
    let decided = match pred {
        Predicate::ContainedIn => (!first_inside).then_some(false),
        _ => (first_inside || point_in_polygon(q.vertices()[0], p)).then_some(true),
    };
    if let Some(verdict) = decided {
        stats.decided_by_pip += 1;
        return Routed::Done(verdict);
    }

    // §4.3: simple pairs skip the hardware filter and run the whole
    // software test.
    if p.vertex_count() + q.vertex_count() <= cfg.sw_threshold {
        stats.skipped_by_threshold += 1;
        stats.software_tests += 1;
        return Routed::Done(confirm(pred, p, q));
    }

    // Step 2 runs in hardware. ALL edges are submitted; clipping to the
    // projected region happens in the pipeline ("the parts of geometries
    // that are outside the viewing area are clipped", §2.1) at vertex
    // rate, so the hardware also rejects pairs whose boundaries never
    // reach the window — without the O(n+m) software scan the restricted
    // search space costs. This is why Figure 11 finds the hardware ahead
    // even at a 1×1 window.
    match window(RefineOp::Test(pred), p, q, cfg.resolution, cfg.strategy) {
        Some(w) => Routed::Hw(w),
        // No projection window: a capability limit, answered exactly in
        // software and charged to the fallback ledger.
        None => {
            stats.width_limit_fallbacks += 1;
            stats.software_tests += 1;
            Routed::Done(confirm(pred, p, q))
        }
    }
}

/// The software step 3: exact on its own for a pair that passed the MBR
/// gate and that point-in-polygon did not decide.
fn confirm(pred: Predicate, p: &Polygon, q: &Polygon) -> bool {
    match pred {
        Predicate::Intersects => boundaries_meet(p, q),
        // For connected polygons, strict containment is "one vertex
        // inside + boundaries disjoint"; the prologue saw the vertex.
        Predicate::ContainedIn => !boundaries_meet(p, q),
        Predicate::WithinDistance(d) => software_distance_test(p, q, d),
    }
}

/// Whether the two boundaries intersect (closed): restricted search
/// space over the shared MBR — boundaries can only meet inside it —
/// plus the tree sweep.
fn boundaries_meet(p: &Polygon, q: &Polygon) -> bool {
    let Some(region) = p.mbr().intersection(&q.mbr()) else {
        return false;
    };
    let ep = restricted_edges(p, &region);
    let eq = restricted_edges(q, &region);
    if ep.is_empty() || eq.is_empty() {
        return false;
    }
    tree_sweep_intersects_stats(&ep, &eq, &mut SweepStats::default())
}

/// The epilogue of one hardware-routed pair. `overlap` is the scan's
/// verdict — did the two rendered boundaries share a pixel — or `None`
/// when the supervised submission gave up. The filter only ever
/// pre-rejects: no shared pixel proves the boundaries apart, which
/// answers intersection and distance `false` and — with the vertex the
/// prologue saw inside — containment `true`. Anything else is decided
/// by [`confirm`], so a faulted submission moves the pair from the
/// hardware ledger to the fallback ledger and never changes its answer;
/// `hw_tests + fallback_tests` stays equal to the clean run's `hw_tests`.
pub(crate) fn settle(
    pred: Predicate,
    p: &Polygon,
    q: &Polygon,
    overlap: Option<bool>,
    stats: &mut TestStats,
) -> bool {
    match overlap {
        Some(false) => {
            stats.hw_tests += 1;
            stats.rejected_by_hw += 1;
            pred == Predicate::ContainedIn
        }
        Some(true) => {
            stats.hw_tests += 1;
            stats.software_tests += 1;
            confirm(pred, p, q)
        }
        None => {
            stats.fallback_tests += 1;
            confirm(pred, p, q)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The d = ∞ defect: an unbounded region has no projection window.
    #[test]
    fn non_finite_regions_have_no_window() {
        let p = Polygon::from_coords(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]);
        let q = Polygon::from_coords(&[(5.0, 0.0), (7.0, 0.0), (7.0, 2.0), (5.0, 2.0)]);
        let within = |d| RefineOp::Test(Predicate::WithinDistance(d));
        let strategy = OverlapStrategy::Accumulation;
        assert!(window(within(4.0), &p, &q, 8, strategy).is_some());
        assert!(window(within(f64::INFINITY), &p, &q, 8, strategy).is_none());
        let mut stats = TestStats::default();
        let cfg = HwConfig::at_resolution(8);
        let routed = route(
            Predicate::WithinDistance(f64::INFINITY),
            &p,
            &q,
            &cfg,
            &mut stats,
        );
        assert!(matches!(routed, Routed::Done(true)), "{routed:?}");
        assert_eq!((stats.width_limit_fallbacks, stats.software_tests), (1, 1));
    }
}
