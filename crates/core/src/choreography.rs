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
//!   which recording the resulting tape is, and — an extension of
//!   Algorithm 3.1 — which runs of each boundary can reach the window at
//!   all ([`LiveRuns`]: the live edges of a boundary test, the fill ring
//!   of an overlap count);
//! * [`list`] — the command list for a [`Tape`] (one window, or an atlas
//!   of windows sharing a line width), recorded per submission from the
//!   window's live runs and executed verbatim. The only product caller
//!   of the `record_*` functions;
//! * [`settle`] — the reject / confirm / fault-fallback epilogue over the
//!   scan's verdict, with [`confirm`] as the per-predicate software
//!   step 3.
//!
//! Supervised execution and the hardware-ledger charge are
//! `HwTester::submit`, the one place that owns a device.

use crate::config::HwConfig;
use crate::hw_intersect::HwTester;
use crate::hw_overlap::overlap_region;
use crate::pipeline::{Predicate, RefineOp};
use crate::stats::TestStats;
use spatial_geom::intersect::boundaries_meet;
use spatial_geom::mindist::clipped_chains_within;
use spatial_geom::pip::point_in_polygon;
use spatial_geom::sweep::SweepStats;
use spatial_geom::{MinDistStats, Point, Polygon, Rect, Segment};
use spatial_raster::aa_line::{aa_line_outside_window, DIAGONAL_WIDTH};
use spatial_raster::atlas::record_batch;
use spatial_raster::{AtlasCell, CommandList, OverlapStrategy, Viewport, MAX_AA_LINE_WIDTH};
use std::ops::Range;

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
    /// What of `first` and `second` is submitted.
    live: [LiveRuns; 2],
}

/// The part of one boundary a window submits: the runs of consecutive
/// edges ([`Polygon::runs_where`]) whose box the rasterizer's clip compare
/// could not reject, as edge-index ranges in boundary order — never a copy
/// of the edges — and how many edges they hold. For an overlap count, the
/// fill ring ([`LiveRuns::ring`]) in the same shape.
///
/// Algorithm 3.1 renders whole boundaries and lets the pipeline clip; on
/// real polygons 81–99 % of those segments never reach the window, and the
/// simulated card still copies, projects and compares every one of them on
/// every execute and every pricing replay. Dropping a run here costs one
/// box compare per 32 edges on the CPU clock (the prologue's, outside
/// `sim_wall`) and is invisible to the device: [`Viewport::to_window`] is
/// monotone per axis, so the projected box corners bound every projected
/// end point of the run, and what [`aa_line_outside_window`] rejects for
/// the corners at the window's line width it rejects for each edge of the
/// run — and, at half that width, for the distance test's cap on each of
/// their vertices. Every skipped primitive is one the clip stage would
/// have discarded before any setup: pixels, fragments, readbacks and rows
/// are unchanged, only `primitives` (and the modeled time that prices it)
/// falls.
#[derive(Debug, Default)]
struct LiveRuns {
    runs: Vec<Range<usize>>,
    edges: usize,
}

impl LiveRuns {
    /// The live runs of the boundary rendered first and of the second.
    fn pair(first: &Polygon, second: &Polygon, viewport: &Viewport, width: f64) -> [LiveRuns; 2] {
        [first, second].map(|poly| LiveRuns::of(poly, viewport, width))
    }

    fn of(poly: &Polygon, viewport: &Viewport, width: f64) -> LiveRuns {
        let (w, h) = (viewport.width(), viewport.height());
        let runs: Vec<Range<usize>> = poly
            .runs_where(|run| {
                let lo = viewport.to_window(Point::new(run.xmin, run.ymin));
                let hi = viewport.to_window(Point::new(run.xmax, run.ymax));
                !aa_line_outside_window(lo, hi, width, w, h)
            })
            .collect();
        let edges = runs.iter().map(Range::len).sum();
        LiveRuns { runs, edges }
    }

    /// The *fill ring* of `poly` for the overlap count's window: the
    /// vertices a fill over `viewport` needs, as vertex-index ranges. A run
    /// of 32 edges whose projected box lies at or below the first scanline
    /// center, above the last, or more than a pixel left or right of the
    /// window keeps its first vertex and loses the others — it is replaced
    /// by its chord.
    ///
    /// The half-open fill colors a pixel iff an odd number of boundary
    /// crossings of its scanline lie at or left of its center. Run and
    /// chord join the same two vertices inside the run's box, so on every
    /// scanline they cross with the same parity, and ([`Viewport::to_window`]
    /// being monotone per axis) where the box is, so is every crossing of
    /// either: none at all for a box above or below every scanline center,
    /// all at or left of the first pixel center, or all right of the last,
    /// for a box on one side — the pixel of margin is for the rounding of
    /// the interpolated crossing, which stays far below it while the
    /// coordinates stay below `EXACT`. The crossing count at or left of
    /// any center changes by an even number or not at all: the fill is
    /// the whole boundary's, pixel for pixel. It is still one primitive —
    /// what shrinks is the list the simulated card copies, projects and
    /// scans per fill, on real polygons to the 5–20 % of the boundary the
    /// window can see. As with the live runs of the boundary tests this is
    /// an extension of the §14 choreography, which fills whole interiors
    /// and lets the pipeline clip.
    fn ring(poly: &Polygon, viewport: &Viewport) -> LiveRuns {
        /// Window coordinates below this interpolate a crossing to within
        /// a thousandth of a pixel.
        const EXACT: f64 = (1u64 << 40) as f64;
        let (w, h) = (viewport.width() as f64, viewport.height() as f64);
        let mut ring = LiveRuns::default();
        let mut keep = |vertices: Range<usize>| {
            ring.edges += vertices.len();
            match ring.runs.last_mut() {
                Some(last) if last.end == vertices.start => last.end = vertices.end,
                _ => ring.runs.push(vertices),
            }
        };
        let dead = |bounds: &Rect| {
            let lo = viewport.to_window(Point::new(bounds.xmin, bounds.ymin));
            let hi = viewport.to_window(Point::new(bounds.xmax, bounds.ymax));
            hi.y <= 0.5
                || lo.y > h - 0.5
                || (hi.x < -1.0 && lo.x > -EXACT)
                || (lo.x > w + 1.0 && hi.x < EXACT)
        };
        // From three runs up, so that a ring keeps three vertices and is a
        // polygon; below that (and unboxed) the whole boundary.
        if poly.runs().len() < 3 {
            keep(0..poly.vertex_count());
        } else {
            for (run, bounds) in poly.runs() {
                keep(if dead(bounds) {
                    run.start..run.start + 1
                } else {
                    run
                });
            }
        }
        debug_assert!(ring.edges >= 3, "a ring of {} vertices", ring.edges);
        ring
    }
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
        let viewport = Viewport::new(region, resolution, resolution);
        return Some(Window {
            region,
            viewport,
            width: DIAGONAL_WIDTH,
            first: p,
            second: q,
            recording,
            live: match recording {
                Recording::Overlap => [p, q].map(|poly| LiveRuns::ring(poly, &viewport)),
                _ => LiveRuns::pair(p, q, &viewport, DIAGONAL_WIDTH),
            },
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
        live: LiveRuns::pair(small, large, &viewport, width),
    })
}

impl Window<'_> {
    /// This window's tape and its verdict slot.
    fn record(&self) -> (CommandList, usize) {
        let resolution = self.viewport.width();
        match self.recording {
            Recording::Segment(strategy) => HwTester::record_segment_test(
                self.region,
                resolution,
                strategy,
                self.segments(false),
                self.segments(true),
            ),
            Recording::Distance(strategy) => HwTester::record_expanded_boundaries(
                self.region,
                resolution,
                strategy,
                self.width,
                (self.segments(false), self.points(false)),
                (self.segments(true), self.points(true)),
            ),
            Recording::Overlap => HwTester::record_overlap_area(
                self.region,
                resolution,
                self.points(false),
                self.points(true),
            ),
        }
    }

    /// The polygon rendered first or second and its live runs.
    fn side(&self, second: bool) -> (&Polygon, &LiveRuns) {
        if second {
            (self.second, &self.live[1])
        } else {
            (self.first, &self.live[0])
        }
    }

    /// One boundary's live edges, streamed from the polygon into a list's
    /// arena, never through a per-window copy.
    pub(crate) fn segments(&self, second: bool) -> impl ExactSizeIterator<Item = Segment> + '_ {
        let (poly, live) = self.side(second);
        let runs = live.runs.iter();
        counted(live.edges, runs.flat_map(|run| poly.edges_in(run.clone())))
    }

    /// The vertices one side submits, streamed like its edges. The distance
    /// test draws vertex caps (smooth points) on top of the edges: the
    /// start vertex of every live edge — a live run's last end point
    /// starts the next run, live too, or clipped with its box. The overlap
    /// count fills the polygon these are: its fill ring. The segment test
    /// submits none.
    pub(crate) fn points(&self, second: bool) -> impl ExactSizeIterator<Item = Point> + '_ {
        let (poly, live) = self.side(second);
        let caps = match self.recording {
            Recording::Segment(_) => 0,
            Recording::Distance(_) | Recording::Overlap => live.edges,
        };
        let runs = live.runs.iter();
        counted(
            caps,
            runs.flat_map(|run| poly.vertices()[run.clone()].iter().copied()),
        )
    }
}

/// The first `total` of `items` as a stream that knows its length — the
/// atlas sizes its arena from it before filling it. `items` must hold at
/// least that many.
fn counted<'a, T>(
    total: usize,
    mut items: impl Iterator<Item = T> + 'a,
) -> impl ExactSizeIterator<Item = T> + 'a {
    (0..total).map(move |_| items.next().expect("`total` counts the items"))
}

/// A window is its own atlas cell.
impl AtlasCell for &Window<'_> {
    fn viewport(&self) -> Viewport {
        self.viewport
    }

    fn segments(&self, second: bool) -> impl ExactSizeIterator<Item = Segment> {
        Window::segments(self, second)
    }

    fn points(&self, second: bool) -> impl ExactSizeIterator<Item = Point> {
        Window::points(self, second)
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

    // Step 2 runs in hardware. Algorithm 3.1 submits ALL edges and lets
    // the pipeline clip to the projected region ("the parts of geometries
    // that are outside the viewing area are clipped", §2.1) at vertex
    // rate, so the hardware also rejects pairs whose boundaries never
    // reach the window without the O(n+m) software scan the restricted
    // search space costs — which is how Figure 11 finds the hardware
    // ahead even at a 1×1 window. `window` keeps that, minus the runs of
    // 32 edges whose cached box the clip compare rejects wholesale
    // (`LiveRuns`): n/32 box compares, not a scan.
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
    let meet = || boundaries_meet(p, q, &mut SweepStats::default());
    match pred {
        Predicate::Intersects => meet(),
        // For connected polygons, strict containment is "one vertex
        // inside + boundaries disjoint"; the prologue saw the vertex.
        Predicate::ContainedIn => !meet(),
        // The MBR and point-in-polygon prologue has already run (`route`):
        // repeating it would bill the hardware path twice for the same work.
        Predicate::WithinDistance(d) => {
            clipped_chains_within(p, q, d, &mut MinDistStats::default())
        }
    }
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
    use spatial_raster::{AtlasJob, DeviceKind, FrameBuffer, HwStats, Readback};

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

    /// What executing `list` leaves behind and charges.
    fn execute(list: &CommandList) -> (FrameBuffer, Vec<Readback>, HwStats) {
        let mut device = DeviceKind::Reference.build();
        let exec = device.execute(list).expect("the reference device");
        let frame = device.snapshot().expect("a frame after an execution");
        (frame, exec.readbacks, exec.stats)
    }

    /// The whole-boundary list Algorithm 3.1 writes for `w`, from the
    /// public recorders `tests/golden.rs` pins.
    fn whole_boundaries(w: &Window) -> CommandList {
        let resolution = w.viewport.width();
        match w.recording {
            Recording::Segment(strategy) => HwTester::record_segment_test(
                w.region,
                resolution,
                strategy,
                w.first.edges(),
                w.second.edges(),
            ),
            Recording::Distance(strategy) => HwTester::record_distance_test(
                w.region, resolution, strategy, w.width, w.first, w.second,
            ),
            Recording::Overlap => unreachable!("the overlap count submits fills"),
        }
        .0
    }

    /// `w` as an atlas cell that owns every edge and, for the distance
    /// test, every vertex of both polygons.
    fn whole_job(w: &Window) -> AtlasJob {
        let caps = |poly: &Polygon| match w.recording {
            Recording::Distance(_) => poly.vertices().to_vec(),
            _ => Vec::new(),
        };
        AtlasJob {
            viewport: w.viewport,
            first_segments: w.first.edges().collect(),
            first_points: caps(w.first),
            second_segments: w.second.edges().collect(),
            second_points: caps(w.second),
        }
    }

    /// Draw calls an atlas pass structure opens: one per side per
    /// primitive kind with anything in it ("an empty pass opens no draw
    /// call", `record_batch`).
    fn opened_passes(lens: impl Fn(bool) -> (usize, usize)) -> usize {
        [false, true]
            .into_iter()
            .map(|second| {
                let (segments, points) = lens(second);
                usize::from(segments > 0) + usize::from(points > 0)
            })
            .sum()
    }

    /// Large-boundary pairs of a small LANDC ⋈ LANDO draw — what carries
    /// run boxes — plus one STATES50 window over both datasets.
    fn corpus() -> (Vec<(Polygon, Polygon)>, f64) {
        let landc = spatial_datagen::landc(0.002, 7);
        let lando = spatial_datagen::lando(0.002, 7);
        let base_d = spatial_datagen::base_distance(&landc, &lando);
        let state = spatial_datagen::states50(7).polygons[10].clone();
        let mut pairs = Vec::new();
        for p in &landc.polygons {
            for q in lando.polygons.iter().chain([&state]) {
                let large = p.vertex_count().max(q.vertex_count()) >= 64;
                if large && p.mbr().min_dist(&q.mbr()) <= base_d {
                    pairs.push((p.clone(), q.clone()));
                }
            }
        }
        // Strided: enough pairs to mix cells, few enough for a debug run.
        let step = pairs.len().div_ceil(20);
        (pairs.into_iter().step_by(step).collect(), base_d)
    }

    /// Submitting only a window's live runs is invisible to the device:
    /// for segment, containment and within-distance windows at every
    /// resolution, every Equation (1) width up to the 10 px limit and all
    /// three overlap strategies, the list `window` records and the
    /// whole-boundary list of the public recorders execute to the same
    /// frame, the same readbacks and the same counters but `primitives` —
    /// per pair, and as an atlas of mixed cells, where `draw_calls` may
    /// also fall by exactly the passes the cull emptied.
    #[test]
    fn live_runs_execute_like_whole_boundaries() {
        let (pairs, base_d) = corpus();
        assert!(pairs.len() >= 12, "only {} pairs", pairs.len());
        let mut ops = vec![
            RefineOp::Test(Predicate::Intersects),
            RefineOp::Test(Predicate::ContainedIn),
        ];
        ops.extend((-6..=8).map(|k| {
            RefineOp::Test(Predicate::WithinDistance(
                base_d * 2f64.powf(0.5 * k as f64),
            ))
        }));
        let strategies = [
            OverlapStrategy::Accumulation,
            OverlapStrategy::Blending,
            OverlapStrategy::Stencil,
        ];
        let (mut submitted, mut whole, mut fewer_draws) = (0usize, 0usize, 0usize);
        let mut widths = std::collections::BTreeSet::new();
        for resolution in [1usize, 4, 8, 16, 32] {
            for &op in &ops {
                let windows: Vec<Window> = pairs
                    .iter()
                    .filter_map(|(p, q)| window(op, p, q, resolution, strategies[0]))
                    .collect();
                for w in &windows {
                    widths.insert(w.width as u64);
                    for strategy in strategies {
                        let (p, q) = (w.first, w.second);
                        let w = window(op, p, q, resolution, strategy).expect("as above");
                        let (frame, readbacks, stats) = execute(&list(Tape::Pair(&w)).0);
                        let (full_frame, full_readbacks, full) = execute(&whole_boundaries(&w));
                        assert!(frame == full_frame, "{op:?} at {resolution}, {strategy:?}");
                        assert_eq!(readbacks, full_readbacks, "{op:?} at {resolution}");
                        assert!(stats.primitives <= full.primitives);
                        let primitives = full.primitives;
                        assert_eq!(
                            HwStats {
                                primitives,
                                ..stats
                            },
                            full,
                            "{op:?} at {resolution}"
                        );
                        submitted += stats.primitives;
                        whole += full.primitives;
                    }
                }

                // The same windows as atlas rounds, one per line width.
                let mut cells: Vec<&Window> = windows.iter().collect();
                cells.sort_by(|a, b| a.width.total_cmp(&b.width));
                for round in cells.chunk_by(|a, b| a.width == b.width) {
                    let width = round[0].width;
                    let (frame, readbacks, stats) = execute(&list(Tape::Atlas(round)).0);
                    let jobs: Vec<AtlasJob> = round.iter().map(|w| whole_job(w)).collect();
                    let (full_frame, full_readbacks, full) =
                        execute(&record_batch(&jobs, width, width).0);
                    assert!(frame == full_frame, "{op:?} atlas at {resolution}");
                    assert_eq!(readbacks, full_readbacks, "{op:?} atlas at {resolution}");
                    let total = |len: fn(&Window, bool) -> usize, second: bool| -> usize {
                        round.iter().map(|w| len(w, second)).sum()
                    };
                    let draw_calls = opened_passes(|second| {
                        (
                            total(|w, s| w.segments(s).len(), second),
                            total(|w, s| w.points(s).len(), second),
                        )
                    });
                    assert_eq!(stats.draw_calls, draw_calls, "{op:?} atlas at {resolution}");
                    assert!(draw_calls <= full.draw_calls && stats.primitives <= full.primitives);
                    fewer_draws += full.draw_calls - draw_calls;
                    let expected = HwStats {
                        primitives: stats.primitives,
                        draw_calls,
                        ..full
                    };
                    assert_eq!(stats, expected, "{op:?} atlas at {resolution}");
                }
            }
        }
        assert!(
            widths.contains(&1) && widths.contains(&10) && widths.len() >= 6,
            "{widths:?}"
        );
        assert!(2 * submitted < whole, "{submitted} of {whole} primitives");
        // Some round lost a whole pass to the cull, most did not.
        assert!(fewer_draws > 0, "no atlas pass was emptied");
    }

    /// Submitting each polygon's fill ring is invisible to the device: for
    /// the same corpus at every resolution, the list `window` records for
    /// the overlap count and the whole-vertex list of the public recorder
    /// execute to the same frame, the same readbacks and the same
    /// `HwStats`, whole — a fill is one primitive however many vertices it
    /// has — from under half the vertices.
    #[test]
    fn fill_rings_execute_like_whole_polygons() {
        let (pairs, _) = corpus();
        let (mut submitted, mut whole, mut covered) = (0usize, 0usize, 0u64);
        for resolution in [1usize, 4, 8, 16, 32] {
            let op = RefineOp::Measure { resolution };
            for (p, q) in &pairs {
                for (p, q) in [(p, q), (q, p)] {
                    let Some(w) = window(op, p, q, resolution, OverlapStrategy::default()) else {
                        continue;
                    };
                    covered += assert_ring_fills_like_whole(&w);
                    submitted += w.points(false).len() + w.points(true).len();
                    whole += p.vertex_count() + q.vertex_count();
                }
            }
        }
        assert!(covered > 0, "no pair overlaps");
        assert!(2 * submitted < whole, "{submitted} of {whole} vertices");
    }

    /// Executes `w`'s ring list and the whole-vertex list of the same
    /// window side by side; returns the covered-pixel count.
    fn assert_ring_fills_like_whole(w: &Window) -> u64 {
        let resolution = w.viewport.width();
        let (ring, slot) = list(Tape::Pair(w));
        let (whole, whole_slot) = HwTester::record_overlap_area(
            w.region,
            resolution,
            w.first.vertices().iter().copied(),
            w.second.vertices().iter().copied(),
        );
        assert_eq!(slot, whole_slot);
        let (frame, readbacks, stats) = execute(&ring);
        let (whole_frame, whole_readbacks, whole_stats) = execute(&whole);
        assert!(frame == whole_frame, "at {resolution}: {:?}", w.region);
        assert_eq!(readbacks, whole_readbacks, "at {resolution}");
        assert_eq!(stats, whole_stats, "at {resolution}");
        match readbacks[slot] {
            Readback::StencilCount(count) => count,
            ref other => panic!("{other:?} in the overlap count's slot"),
        }
    }

    /// A 128-vertex frame three pixels outside the window `[0, 8]²`, 32
    /// vertices — one run — a side, every other vertex of a side pulled
    /// towards the window: the bottom side's up to `y = bottom`, the right
    /// side's left to `x = right`, the top side's down to `y = top`, the
    /// left side's right to `x = left`. Pulled far enough the spikes cross
    /// each other: a fill has a parity rule, not a simplicity requirement.
    fn spiked_frame(bottom: f64, right: f64, top: f64, left: f64) -> Polygon {
        let step = |k: usize| 14.0 * k as f64 / 32.0;
        let pulled = |k: usize, to: f64, from: f64| if k % 2 == 1 { to } else { from };
        let side = |vertex: &dyn Fn(usize) -> (f64, f64)| (0..32).map(vertex).collect::<Vec<_>>();
        let coords = [
            side(&|k| (-3.0 + step(k), pulled(k, bottom, -3.0))),
            side(&|k| (pulled(k, right, 11.0), -3.0 + step(k))),
            side(&|k| (11.0 - step(k), pulled(k, top, 11.0))),
            side(&|k| (pulled(k, left, -3.0), 11.0 - step(k))),
        ]
        .concat();
        Polygon::from_coords(&coords)
    }

    /// The ring's four compares at their boundaries, on an identity
    /// projection (the window is `[0, 8]²` at 8×8): a run whose box ends
    /// exactly on the first scanline center is dropped, one that starts
    /// exactly on the last is kept (a center is owned from above), one
    /// exactly a pixel outside a side is kept, a hair further dropped —
    /// and kept or dropped, the fill is the whole polygon's. A frame with
    /// no live run at all still fills: its ring is the four chords.
    #[test]
    fn fill_ring_boundaries_are_exact() {
        let square = Polygon::from_coords(&[(0.0, 0.0), (8.0, 0.0), (8.0, 8.0), (0.0, 8.0)]);
        let hair = 1e-9;
        // (bottom, right, top, left) and the vertices the ring keeps.
        let frames = [
            ((-3.0, 11.0, 11.0, -3.0), 4),
            ((0.5, 11.0, 11.0, -3.0), 4),
            ((0.5 + hair, 11.0, 11.0, -3.0), 35),
            ((-3.0, 11.0, 7.5, -3.0), 35),
            ((-3.0, 11.0, 7.5 + hair, -3.0), 4),
            ((-3.0, 9.0, 11.0, -3.0), 35),
            ((-3.0, 9.0 + hair, 11.0, -3.0), 4),
            ((-3.0, 11.0, 11.0, -1.0), 35),
            ((-3.0, 11.0, 11.0, -1.0 - hair), 4),
            ((0.5, 9.0 + hair, 7.5 + hair, -1.0 - hair), 4),
            ((2.3, 6.2, 5.1, 3.3), 128),
            ((2.3, 11.0, 11.0, 3.3), 66),
        ];
        for ((bottom, right, top, left), kept) in frames {
            let frame = spiked_frame(bottom, right, top, left);
            assert_eq!(frame.runs().len(), 4);
            for resolution in [1usize, 4, 8, 16, 32] {
                let op = RefineOp::Measure { resolution };
                let w = window(op, &frame, &square, resolution, OverlapStrategy::default())
                    .expect("the square lies inside the frame");
                assert_eq!(w.region, square.mbr());
                let covered = assert_ring_fills_like_whole(&w);
                if resolution == 8 {
                    let what = format!("{:?}", (bottom, right, top, left));
                    assert_eq!(w.points(false).len(), kept, "{what}");
                    assert_eq!(w.points(true).len(), 4, "the square has no runs");
                    if kept == 4 {
                        assert_eq!(covered, 64, "{what}: four chords around the window");
                    }
                }
            }
        }
    }
}
