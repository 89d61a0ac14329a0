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
//! * [`framing`] — a pair's window before its resolution: for a boolean
//!   test the one walk over both boundaries' run boxes
//!   (`spatial_geom::reach::walk`), which every later step reads, and the
//!   region it projects ([`projection`] of the run-box region R: an empty
//!   R decides the pair without the device);
//! * [`route`] — the software prologue of a predicate: the software
//!   test's own opening (`Predicate::opening`: MBR gate, point-in-polygon),
//!   then run boxes apart (answered by `Predicate::verdict`),
//!   `sw_threshold` over [`Framing::routed_edges`] and the no-window
//!   fallback (both `Predicate::step3`): the pair is either
//!   [`Routed::Done`] or needs the hardware over a [`Window`];
//! * [`window`] — the §3.2 projection at a resolution: scaling, the
//!   Equation (1) line width, the recording, and — extensions of Algorithm
//!   3.1 — which runs of each boundary a test submits ([`LiveRuns`]: for a
//!   boundary test the walk's runs that pair with a run of the other
//!   boundary — none on a side decides the pair too; for an overlap count
//!   the fill ring);
//! * [`list`] — the command list for a [`Tape`] (one window, or an atlas
//!   of windows sharing a line width), recorded per submission from the
//!   window's live runs and executed verbatim. The only product caller
//!   of the `record_*` functions;
//! * [`settle`] — the reject / confirm / fault-fallback epilogue over the
//!   scan's verdict: a rejection is `Predicate::verdict` on boundaries
//!   apart, anything else `spatial_geom`'s step 3 (`Predicate::step3`),
//!   which searches the edges of the runs the walk kept.
//!
//! Supervised execution and the hardware-ledger charge are
//! `HwTester::submit`, the one place that owns a device.

use crate::config::HwConfig;
use crate::hw_intersect::HwTester;
use crate::hw_overlap::overlap_region;
use crate::pipeline::{Predicate, RefineOp};
use crate::stats::TestStats;
use spatial_geom::reach::{walk, Reach};
use spatial_geom::{Point, Polygon, Rect, RefineStats, Segment};
use spatial_raster::aa_line::DIAGONAL_WIDTH;
use spatial_raster::atlas::record_batch;
use spatial_raster::{
    AtlasCell, CommandList, OverlapStrategy, Viewport, MAX_AA_LINE_WIDTH, MAX_WINDOW_SIDE,
};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::ops::Range;

/// Which `record_*` function draws a window's tape; a distance test's
/// carries its `d`.
#[derive(Debug, Clone, Copy)]
enum Recording {
    Segment,
    Distance(f64),
    Overlap,
}

/// The projection window of one pair's hardware test: its [`Framing`] —
/// borrowed by a pricing pass, owned by a pair routed to the device — at
/// one resolution.
#[derive(Debug)]
pub(crate) struct Window<'a> {
    framing: Cow<'a, Framing<'a>>,
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
    /// The overlap count's fill rings over `viewport`; a boolean test
    /// submits its framing's paired runs instead ([`Framing::paired`]).
    rings: [LiveRuns; 2],
}

/// The part of one boundary a window submits: for a boolean test the runs
/// of 32 consecutive edges that pair with a run of the other boundary, as
/// edge-index ranges in boundary order — never a copy of the edges — and
/// how many edges they hold. For an overlap count, the fill ring
/// ([`LiveRuns::ring`]) in the same shape.
///
/// Algorithm 3.1 renders whole boundaries and lets the pipeline clip; on
/// real polygons 81–99 % of those segments never reach the window, and the
/// simulated card still copies, projects and compares every one of them on
/// every execute and every pricing replay. The pairing step
/// ([`Framing::paired`]) submits, of each side, the runs whose box, grown
/// by `d/2` (0 for the segment tests), meets R and the grown box of such a
/// run of the other boundary (`spatial_geom::reach::Reach::paired`): a
/// blocked pairing of the few runs near R that the walk already holds, on
/// the CPU clock (the prologue's, outside `sim_wall`). Algorithm 3.1 and its distance
/// variant only reject; a meeting is found at the pixel of its meeting
/// point, drawn by the primitives that carry the meeting, and the runs of
/// those pair (DESIGN.md §5, invariant 5). Overlap pixels only disappear:
/// the hardware may reject a pair the whole boundaries would not have let
/// it reject, never one whose boundaries meet.
///
/// A run that pairs lies within `d/2` of the window, and Equation (1)
/// makes the line at least `d` wide in data space (the segment tests draw
/// at [`DIAGONAL_WIDTH`]), so the rasterizer's clip compare keeps its box
/// but for a window a few ulps wide — where the clip stage drops the
/// extra run before setup, moving `primitives` and nothing else
/// (DESIGN.md §5, invariant 5).
#[derive(Debug, Clone, Default)]
struct LiveRuns {
    runs: Vec<Range<usize>>,
    edges: usize,
}

impl LiveRuns {
    /// `runs`, in boundary order, as one live set.
    fn of(runs: impl IntoIterator<Item = Range<usize>>) -> LiveRuns {
        let mut live = LiveRuns::default();
        for run in runs {
            live.push(run);
        }
        live
    }

    /// Appends `run`, joined to the last range where they touch.
    fn push(&mut self, run: Range<usize>) {
        self.edges += run.len();
        match self.runs.last_mut() {
            Some(last) if last.end == run.start => last.end = run.end,
            _ => self.runs.push(run),
        }
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
            ring.push(0..poly.vertex_count());
        } else {
            for (run, bounds) in poly.runs() {
                ring.push(if dead(bounds) {
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

/// Why a pair has no projection window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NoWindow {
    /// The run boxes prove the boundaries of a boolean test apart — for a
    /// distance test, farther than `d` apart: the projection region is
    /// empty ([`projection`]), or no run of one boundary pairs with a run
    /// of the other ([`Framing::paired`]). The prologue answers the pair
    /// without the device.
    Apart,
    /// The device cannot take the pair: no shared region, a degenerate one
    /// (overlap count), an Equation (1) width that is over the hardware
    /// limit or not a width at all, or a boolean test at a resolution
    /// outside `1..=MAX_WINDOW_SIDE`.
    Unfit,
}

/// The hardware projection for `op` on `(p, q)` at `resolution`, or why
/// there is none.
pub(crate) fn window<'a>(
    op: RefineOp,
    p: &'a Polygon,
    q: &'a Polygon,
    resolution: usize,
) -> Result<Window<'a>, NoWindow> {
    let framing = framing(op, p, q);
    let fit = framing.fit(resolution)?;
    Ok(Window::new(Cow::Owned(framing), fit))
}

/// What a window is before its resolution: the region it projects, the
/// one walk over the run boxes, the polygons in render order and the
/// recording — what [`route`] needs before it decides between the device
/// and software. A pricing pass takes a window from it at each resolution
/// it prices.
#[derive(Debug, Clone)]
pub(crate) struct Framing<'a> {
    /// What a window projects ([`projection`]; for the overlap count the
    /// MBR intersection), or why no resolution gives the pair a window.
    region: Result<Rect, NoWindow>,
    /// The walk over the run boxes of a boolean test, rendered first as
    /// side 0; empty for the overlap count, which reads no run box.
    reach: Reach,
    first: &'a Polygon,
    second: &'a Polygon,
    recording: Recording,
    /// The runs each side of a boolean test submits, paired the first time
    /// a window asks for them ([`Framing::paired`]).
    paired: OnceCell<[LiveRuns; 2]>,
}

/// The framing of `op` on `(p, q)`.
pub(crate) fn framing<'a>(op: RefineOp, p: &'a Polygon, q: &'a Polygon) -> Framing<'a> {
    let ((region, reach), first, second, recording) = match op {
        // The overlap count's grid is part of its answer: it projects the
        // MBR intersection, and needs it to have interior.
        RefineOp::Measure { .. } => {
            let region = overlap_region(p, q).ok_or(NoWindow::Unfit);
            ((region, Reach::default()), p, q, Recording::Overlap)
        }
        // §3.2: the distance test renders the smaller object first.
        RefineOp::Test(pred @ Predicate::WithinDistance(d)) => {
            let (small, large) = if p.mbr().area() <= q.mbr().area() {
                (p, q)
            } else {
                (q, p)
            };
            let regions = projection(pred, small, large);
            (regions, small, large, Recording::Distance(d))
        }
        // The segment tests project `projection`'s region.
        RefineOp::Test(pred) => (projection(pred, p, q), p, q, Recording::Segment),
    };
    Framing {
        region,
        reach,
        first,
        second,
        recording,
        paired: OnceCell::new(),
    }
}

impl<'a> Framing<'a> {
    /// The window over this framing at `resolution`.
    pub(crate) fn window(&self, resolution: usize) -> Result<Window<'_>, NoWindow> {
        Ok(Window::new(Cow::Borrowed(self), self.fit(resolution)?))
    }

    /// Whether the run boxes prove the boundaries of this boolean test
    /// apart before any pairing: R is empty.
    pub(crate) fn apart(&self) -> bool {
        self.region == Err(NoWindow::Apart)
    }

    /// The edges a software step 3 of this boolean test can visit — the
    /// work a hardware rejection saves, which the prologue routes
    /// `sw_threshold` by and the planner prices — from the walk's lists:
    /// for intersection and containment the runs that reach R, which their
    /// step 3 searches; for a distance test the runs within `d` of the
    /// other MBR, which its step 3 clips to, not to R.
    pub(crate) fn routed_edges(&self) -> usize {
        match self.recording {
            Recording::Distance(_) => self.reach.clip_edges,
            Recording::Segment | Recording::Overlap => self.reach.edges(),
        }
    }

    /// The runs each side of a boolean test submits: those of the walk
    /// whose box, grown by `d/2` (0 for the segment tests), meets R and
    /// the grown box of such a run of the other boundary. Every point the
    /// boundaries share, and for distance the midpoint of any two boundary
    /// points within `d`, lies in R and in the grown box of each run that
    /// carries one of the two points — a vertex cap in the boxes of both
    /// runs the vertex joins — so the primitives that draw it are all
    /// submitted. Where a side keeps no run, no pair of runs can meet. The
    /// pairing depends on no resolution: it runs once per framing, the
    /// first time a window asks.
    fn paired(&self) -> &[LiveRuns; 2] {
        self.paired
            .get_or_init(|| [0, 1].map(|side| LiveRuns::of(self.reach.paired(side))))
    }

    /// The region, viewport and line width of this framing's window at
    /// `resolution`, or why it has none: no region, a boolean test whose
    /// runs pair nowhere ([`NoWindow::Apart`], before any resolution is
    /// looked at), or a viewport the device cannot take.
    fn fit(&self, resolution: usize) -> Result<(Rect, Viewport, f64), NoWindow> {
        let region = self.region?;
        let boolean = !matches!(self.recording, Recording::Overlap);
        if boolean && self.paired().iter().any(|side| side.edges == 0) {
            return Err(NoWindow::Apart);
        }
        // The overlap count's resolution is part of its answer, bounded
        // where the request is validated; a boolean test outside
        // `1..=MAX_WINDOW_SIDE` has no window: the device has no such
        // frame.
        if boolean && !(1..=MAX_WINDOW_SIDE).contains(&resolution) {
            return Err(NoWindow::Unfit);
        }
        match self.recording {
            Recording::Distance(d) => {
                let viewport = Viewport::uniform(region, resolution, resolution);
                // Equation (1): the pixel width that covers data-space
                // distance d. Over the hardware limit the test reverts to
                // software (§3.1).
                let width = viewport.line_width_for_distance(d.max(f64::MIN_POSITIVE));
                if width.is_nan() || width > MAX_AA_LINE_WIDTH {
                    return Err(NoWindow::Unfit);
                }
                Ok((region, viewport, width))
            }
            Recording::Segment | Recording::Overlap => Ok((
                region,
                Viewport::new(region, resolution, resolution),
                DIAGONAL_WIDTH,
            )),
        }
    }
}

/// The run-box walk of a boolean test of `pred` whose window renders
/// `first` first, and the region the window projects: R ∩ R₀, or why
/// there is none.
///
/// §3.2 projects R₀, the MBR intersection — for containment that *is* the
/// inner MBR once the MBR gate passed — or for a distance test the
/// intersection of both MBRs expanded by `d/2`, since overlap can only
/// appear where both expanded boundaries are. R is the run-box region of
/// the walk (`spatial_geom::reach::walk`, each box expanded by `d/2` for
/// distance), which holds every point the two boundaries share and for
/// distance the midpoint of any two boundary points at most `d` apart
/// (DESIGN.md §5, invariant 5): an empty R proves the boundaries apart
/// ([`NoWindow::Apart`]), and a window over R sees everything a window
/// over R₀ would have to. The region projected is R ∩ R₀, which is R₀
/// itself for polygons without boxes.
fn projection(
    pred: Predicate,
    first: &Polygon,
    second: &Polygon,
) -> (Result<Rect, NoWindow>, Reach) {
    let half = match pred {
        Predicate::WithinDistance(d) => d / 2.0,
        Predicate::Intersects | Predicate::ContainedIn => 0.0,
    };
    let reach = walk(first, second, half);
    // MBR distance ≤ d *mathematically* guarantees the half-expansions
    // meet, but not in f64: when the gap equals d exactly, `min_dist`'s
    // rounding can pass the gate while `xmin + d/2` rounds below
    // `xmax - d/2`, leaving an empty intersection.
    let r0 = first
        .mbr()
        .expanded(half)
        .intersection(&second.mbr().expanded(half));
    let region = match (r0, reach.region) {
        // An unbounded region (d = ∞) projects at scale 0, where Equation
        // (1) evaluates `(∞·0).ceil().max(1.0)` to a "valid" one-pixel
        // width and the filter would reject true positives.
        (Some(r0), _) if !(r0.width().is_finite() && r0.height().is_finite()) => {
            Err(NoWindow::Unfit)
        }
        (None, _) => Err(NoWindow::Unfit),
        // The grown MBRs hold R₀, so they meet: an empty R is the fold's.
        (Some(_), None) => Err(NoWindow::Apart),
        (Some(r0), Some(r)) => r.intersection(&r0).ok_or(NoWindow::Unfit),
    };
    (region, reach)
}

impl<'a> Window<'a> {
    /// The window over `framing` with the region, viewport and line width
    /// [`Framing::fit`] gave it.
    fn new(
        framing: Cow<'a, Framing<'a>>,
        (region, viewport, width): (Rect, Viewport, f64),
    ) -> Self {
        let rings = match framing.recording {
            Recording::Overlap => {
                [framing.first, framing.second].map(|poly| LiveRuns::ring(poly, &viewport))
            }
            Recording::Segment | Recording::Distance(_) => Default::default(),
        };
        Window {
            framing,
            region,
            viewport,
            width,
            rings,
        }
    }
}

impl Window<'_> {
    /// This window's tape and its verdict slot.
    fn record(&self) -> (CommandList, usize) {
        let resolution = self.viewport.width();
        match self.framing.recording {
            Recording::Segment => HwTester::record_segment_test(
                self.region,
                resolution,
                OverlapStrategy::Accumulation,
                self.segments(false),
                self.segments(true),
            ),
            Recording::Distance(_) => HwTester::record_expanded_boundaries(
                self.region,
                resolution,
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
        let framing = &*self.framing;
        let live = match framing.recording {
            Recording::Overlap => &self.rings,
            Recording::Segment | Recording::Distance(_) => framing.paired(),
        };
        if second {
            (framing.second, &live[1])
        } else {
            (framing.first, &live[0])
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
        let caps = match self.framing.recording {
            Recording::Segment => 0,
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
pub(crate) enum Tape<'t, 'a> {
    /// The per-pair choreography of one window.
    Pair(&'t Window<'a>),
    /// One atlas round: every window a cell, all at one line width (one
    /// draw call renders at one width) and one cell resolution, in the
    /// accumulation choreography of the per-pair tape. Must be non-empty.
    Atlas(&'t [&'t Window<'a>]),
}

/// The command list for `tape` and its verdict readback slot, recorded
/// from scratch: a tape is a dozen pushes plus one copy of the edge
/// lists, which no cache beats (DESIGN.md §9). The device executes the
/// list as returned.
pub(crate) fn list(tape: Tape<'_, '_>) -> (CommandList, usize) {
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
    /// Needs the hardware filter over this window, which owns its
    /// framing.
    Hw(Box<Window<'a>>),
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
    // The MBR gate and step 1, point-in-polygon: the software test's own
    // opening.
    if let Some(verdict) = pred.opening(p, q, &mut stats.decided_by_pip) {
        return Routed::Done(verdict);
    }

    // The run boxes bound the region the boundaries can meet in
    // (`projection`); where it is empty — or, once the threshold has
    // passed the pair on, where no run of one boundary pairs with a run of
    // the other (`Framing::paired`) — the pair is answered as a hardware
    // rejection would, with no submission.
    let by_runs = |stats: &mut TestStats| {
        stats.decided_by_runs += 1;
        Routed::Done(pred.verdict(false))
    };
    let framing = framing(RefineOp::Test(pred), p, q);
    if framing.apart() {
        return by_runs(stats);
    }

    // §4.3: a pair whose software step 3 is cheap skips the hardware
    // filter and runs it. The paper counts the n + m vertices its plane
    // sweep visits; step 3 here visits only the edges the walk kept,
    // which is all a hardware rejection could save.
    if cfg.sw_threshold > 0 && framing.routed_edges() <= cfg.sw_threshold {
        stats.skipped_by_threshold += 1;
        stats.software_tests += 1;
        return Routed::Done(pred.step3(p, q, Some(&framing.reach), &mut RefineStats::default()));
    }

    // Step 2 runs in hardware. Algorithm 3.1 submits ALL edges and lets
    // the pipeline clip to the projected region ("the parts of geometries
    // that are outside the viewing area are clipped", §2.1) at vertex
    // rate, so the hardware also rejects pairs whose boundaries never
    // reach the window without the O(n+m) software scan the restricted
    // search space costs — which is how Figure 11 finds the hardware
    // ahead even at a 1×1 window. The window keeps that, minus the runs
    // of 32 edges whose box pairs with no run of the other boundary near
    // R (`LiveRuns`): a blocked pairing of the runs the walk kept, not a
    // scan, before the resolution is looked at.
    match framing.fit(cfg.resolution) {
        Ok(fit) => Routed::Hw(Box::new(Window::new(Cow::Owned(framing), fit))),
        Err(NoWindow::Apart) => by_runs(stats),
        // No projection window: a capability limit, answered exactly in
        // software and charged to the fallback ledger.
        Err(NoWindow::Unfit) => {
            stats.width_limit_fallbacks += 1;
            stats.software_tests += 1;
            Routed::Done(pred.step3(p, q, Some(&framing.reach), &mut RefineStats::default()))
        }
    }
}

/// The epilogue of one hardware-routed pair over its window `w`. `overlap`
/// is the scan's verdict — did the two rendered boundaries share a pixel —
/// or `None` when the supervised submission gave up. The filter only ever
/// pre-rejects: no shared pixel proves the boundaries apart, which
/// answers the pair (`Predicate::verdict`). Anything else is decided by
/// the software step 3 (`Predicate::step3`) over the walk the window
/// holds, so a faulted submission moves the pair from the
/// hardware ledger to the fallback ledger and never changes its answer;
/// `hw_tests + fallback_tests` stays equal to the clean run's `hw_tests`.
pub(crate) fn settle(
    pred: Predicate,
    p: &Polygon,
    q: &Polygon,
    w: &Window,
    overlap: Option<bool>,
    stats: &mut TestStats,
) -> bool {
    match overlap {
        Some(false) => {
            stats.hw_tests += 1;
            stats.rejected_by_hw += 1;
            return pred.verdict(false);
        }
        Some(true) => {
            stats.hw_tests += 1;
            stats.software_tests += 1;
        }
        None => stats.fallback_tests += 1,
    }
    pred.step3(p, q, Some(&w.framing.reach), &mut RefineStats::default())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use spatial_raster::aa_line::aa_line_outside_window;
    use spatial_raster::{DeviceKind, FrameBuffer, HwStats, Readback};

    /// The d = ∞ defect: an unbounded region has no projection window.
    #[test]
    fn non_finite_regions_have_no_window() {
        let p = Polygon::from_coords(&[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]);
        let q = Polygon::from_coords(&[(5.0, 0.0), (7.0, 0.0), (7.0, 2.0), (5.0, 2.0)]);
        let within = |d| RefineOp::Test(Predicate::WithinDistance(d));
        assert!(window(within(4.0), &p, &q, 8).is_ok());
        assert!(matches!(
            window(within(f64::INFINITY), &p, &q, 8),
            Err(NoWindow::Unfit)
        ));
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
        let (first, second) = (w.framing.first, w.framing.second);
        match w.framing.recording {
            Recording::Segment => HwTester::record_segment_test(
                w.region,
                resolution,
                OverlapStrategy::Accumulation,
                first.edges(),
                second.edges(),
            ),
            Recording::Distance(_) => HwTester::record_distance_test(
                w.region,
                resolution,
                OverlapStrategy::Accumulation,
                w.width,
                first,
                second,
            ),
            Recording::Overlap => unreachable!("the overlap count submits fills"),
        }
        .0
    }

    /// Large-boundary pairs of a small LANDC ⋈ LANDO draw — what carries
    /// run boxes — plus one STATES50 window over both datasets.
    pub(crate) fn corpus() -> (Vec<(Polygon, Polygon)>, f64) {
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

    /// The pairs of `tests/large_coordinates.rs` at base `b`: squares of 4
    /// and 400 vertices against rectangles that touch their right side and
    /// their top from outside, and the 400-vertex square against squares
    /// inside it, touching its right side, its top, or clear of it.
    fn far_from_the_origin(b: f64) -> Vec<(Predicate, Polygon, Polygon)> {
        let at =
            |coords: [(f64, f64); 4]| Polygon::from_coords(&coords.map(|(x, y)| (b + x, b + y)));
        let outside = [
            at([(20.0, 3.0), (20.0, 7.0), (10.0, 7.0), (10.0, 3.0)]),
            at([(3.0, 20.0), (3.0, 10.0), (7.0, 10.0), (7.0, 20.0)]),
        ];
        let inside = [
            at([(6.0, 3.0), (10.0, 3.0), (10.0, 7.0), (6.0, 7.0)]),
            at([(3.0, 6.0), (7.0, 6.0), (7.0, 10.0), (3.0, 10.0)]),
            at([(3.0, 3.0), (7.0, 3.0), (7.0, 7.0), (3.0, 7.0)]),
        ];
        let mut cases = Vec::new();
        for q in outside {
            for per_side in [1, 100] {
                cases.push((
                    Predicate::Intersects,
                    square(b, b, 10.0, per_side),
                    q.clone(),
                ));
            }
        }
        let outer = square(b, b, 10.0, 100);
        for inner in inside {
            cases.push((Predicate::ContainedIn, inner.clone(), outer.clone()));
            cases.push((Predicate::Intersects, inner, outer.clone()));
        }
        cases
    }

    /// Asserts that the rasterizer's clip compare at `w`'s viewport and
    /// line width keeps the box of every run `w` submits; returns the
    /// primitives `w` submits.
    fn assert_submitted_runs_survive_the_clip_compare(w: &Window) -> usize {
        let (width, height) = (w.viewport.width(), w.viewport.height());
        for second in [false, true] {
            let (poly, live) = w.side(second);
            // Every run box lies in the polygon's MBR: all the runs, boxes
            // as they are (an unboxed polygon's one run with its MBR).
            let unboxed = (poly.runs().len() == 0).then(|| (0..poly.vertex_count(), poly.mbr()));
            let boxed = poly.runs().map(|(edges, run)| (edges, *run));
            for (edges, run) in unboxed.into_iter().chain(boxed) {
                let submitted = live
                    .runs
                    .iter()
                    .any(|live| live.start <= edges.start && edges.end <= live.end);
                let lo = w.viewport.to_window(Point::new(run.xmin, run.ymin));
                let hi = w.viewport.to_window(Point::new(run.xmax, run.ymax));
                assert!(
                    !submitted || !aa_line_outside_window(lo, hi, w.width, width, height),
                    "{:?} at {width}, width {}: run {edges:?} in {run:?} outside {:?}",
                    w.framing.recording,
                    w.width,
                    w.region
                );
            }
        }
        [false, true]
            .map(|second| w.segments(second).len() + w.points(second).len())
            .iter()
            .sum()
    }

    /// The pairing implies the rasterizer's clip compare, so the prologue
    /// runs no compare of its own: for segment, containment and
    /// within-distance windows at every resolution and every Equation (1)
    /// width up to the 10 px limit, every run a window submits has a box
    /// `aa_line_outside_window` keeps at the window's viewport and width —
    /// on the corpus, where the windows submit under half the primitives
    /// of whole boundaries, and on touching pairs far from the origin,
    /// whose windows are degenerate.
    #[test]
    fn every_submitted_run_survives_the_clip_compare() {
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
        let (mut submitted, mut whole) = (0usize, 0usize);
        let mut widths = std::collections::BTreeSet::new();
        for resolution in [1usize, 4, 8, 16, 32] {
            for &op in &ops {
                for (p, q) in &pairs {
                    let Ok(w) = window(op, p, q, resolution) else {
                        continue;
                    };
                    widths.insert(w.width as u64);
                    submitted += assert_submitted_runs_survive_the_clip_compare(&w);
                    let per_vertex = match w.framing.recording {
                        Recording::Distance(_) => 2,
                        _ => 1,
                    };
                    whole += per_vertex * (p.vertex_count() + q.vertex_count());
                }
            }
        }
        assert!(
            widths.contains(&1) && widths.contains(&10) && widths.len() >= 6,
            "{widths:?}"
        );
        assert!(2 * submitted < whole, "{submitted} of {whole} primitives");

        let mut far = 0;
        for b in [16_383.0, 2e4, 1e5, 5e5, 1e7] {
            for (pred, p, q) in far_from_the_origin(b) {
                for resolution in [1usize, 4, 8, 16, 32] {
                    if let Ok(w) = window(RefineOp::Test(pred), &p, &q, resolution) {
                        assert_submitted_runs_survive_the_clip_compare(&w);
                        far += 1;
                    }
                }
            }
        }
        assert!(far >= 100, "{far} windows far from the origin");
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
                    let Ok(w) = window(op, p, q, resolution) else {
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
            w.framing.first.vertices().iter().copied(),
            w.framing.second.vertices().iter().copied(),
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
                let w = window(op, &frame, &square, resolution)
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

    /// A closed ring of `radii.len()` vertices around `(cx, cy)`.
    fn ring(cx: f64, cy: f64, radii: &[f64]) -> Polygon {
        let n = radii.len() as f64;
        let coords: Vec<(f64, f64)> = radii
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let t = i as f64 / n * std::f64::consts::TAU;
                (cx + r * t.cos(), cy + r * t.sin())
            })
            .collect();
        Polygon::from_coords(&coords)
    }

    /// The square `[x, x + side] × [y, y + side]`, each side cut into
    /// `per_side` edges: from 16 a side it carries run boxes.
    fn square(x: f64, y: f64, side: f64, per_side: usize) -> Polygon {
        let t = |k: usize| side * k as f64 / per_side as f64;
        let coords: Vec<(f64, f64)> = (0..per_side)
            .map(|k| (x + t(k), y))
            .chain((0..per_side).map(|k| (x + side, y + t(k))))
            .chain((0..per_side).map(|k| (x + side - t(k), y + side)))
            .chain((0..per_side).map(|k| (x, y + side - t(k))))
            .collect();
        Polygon::from_coords(&coords)
    }

    /// A C-shaped polygon, each of its eight sides cut into 80 edges, and a
    /// 600-vertex ring in its pocket 2.5 from its boundary: their MBRs
    /// overlap, neither holds the other's first vertex, and no run box of
    /// either comes within 0.75 of the other's MBR.
    pub(crate) fn pocket() -> (Polygon, Polygon) {
        pocket_of(80, 600)
    }

    /// [`pocket`] with `per_side` edges a side (from 40 a run spans less
    /// than a side, and no box reaches the ring) and a ring of `ring_n`.
    fn pocket_of(per_side: usize, ring_n: usize) -> (Polygon, Polygon) {
        let corners = [
            (0.0, 0.0),
            (16.0, 0.0),
            (16.0, 4.0),
            (4.0, 4.0),
            (4.0, 12.0),
            (16.0, 12.0),
            (16.0, 16.0),
            (0.0, 16.0),
        ];
        let coords: Vec<(f64, f64)> = (0..8)
            .flat_map(|k| {
                let ((x0, y0), (x1, y1)) = (corners[k], corners[(k + 1) % 8]);
                (0..per_side).map(move |i| {
                    let t = i as f64 / per_side as f64;
                    (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
                })
            })
            .collect();
        (
            Polygon::from_coords(&coords),
            ring(12.0, 8.0, &vec![1.5; ring_n]),
        )
    }

    /// Two 600-vertex rings, one nested in the other 2.0 inside it.
    pub(crate) fn nested() -> (Polygon, Polygon) {
        (ring(5.0, 5.0, &[4.0; 600]), ring(5.0, 5.0, &[2.0; 600]))
    }

    /// A closest pair of points of the closed segments `e` and `f`: their
    /// crossing when they cross properly, otherwise an end point of one
    /// and its closest point on the other.
    fn closest_points(e: &Segment, f: &Segment) -> (Point, Point) {
        if e.intersects_properly(f) {
            if let Some(x) =
                spatial_geom::predicates::segment_intersection_point(e.a, e.b, f.a, f.b)
            {
                return (x, x);
            }
        }
        [
            (e.a, f.closest_point(e.a)),
            (e.b, f.closest_point(e.b)),
            (e.closest_point(f.a), f.a),
            (e.closest_point(f.b), f.b),
        ]
        .into_iter()
        .min_by(|(a, b), (c, d)| a.dist(*b).total_cmp(&c.dist(*d)))
        .expect("four candidates")
    }

    /// Where the boundaries of `p` and `q` meet, as this test constructs
    /// it: for every pair of edges that intersect (`reach` 0) or come
    /// within `reach` of each other, the midpoint of a closest pair of
    /// their points — the shared point itself where they meet.
    fn meeting_points(p: &Polygon, q: &Polygon, reach: f64) -> Vec<Point> {
        let mut points = Vec::new();
        for e in p.edges() {
            for f in q.edges().filter(|f| e.mbr().min_dist(&f.mbr()) <= reach) {
                let (a, b) = closest_points(&e, &f);
                let meets = if reach == 0.0 {
                    e.intersects(&f)
                } else {
                    a.dist(b) <= reach
                };
                if meets {
                    points.push(a.lerp(b, 0.5));
                }
            }
        }
        points
    }

    /// The software oracle of `pred` on `(p, q)`.
    fn oracle(pred: Predicate, p: &Polygon, q: &Polygon) -> bool {
        match pred {
            Predicate::Intersects => spatial_geom::polygons_intersect_brute(p, q),
            Predicate::ContainedIn => spatial_geom::intersect::polygon_contained_in(p, q),
            Predicate::WithinDistance(d) => spatial_geom::within_distance(p, q, d),
        }
    }

    /// `pred` on `(p, q)` at every resolution: the tester's verdict is the
    /// oracle's, every meeting point lies in the projection region (to a
    /// rounding of its coordinates), and an empty region leaves none.
    /// Returns how often the run boxes decided the pair.
    fn assert_region_holds_meetings(pred: Predicate, p: &Polygon, q: &Polygon) -> usize {
        let reach = match pred {
            Predicate::WithinDistance(d) => d,
            Predicate::Intersects | Predicate::ContainedIn => 0.0,
        };
        let points = meeting_points(p, q, reach);
        let slack = |x: f64| 1e-9 * (1.0 + x.abs() + reach);
        let mut decided = 0;
        for resolution in [1, 4, 8, 16] {
            let what = format!("{pred:?} at {resolution}: {:?} {:?}", p.mbr(), q.mbr());
            let mut stats = TestStats::default();
            let got =
                HwTester::new(HwConfig::at_resolution(resolution)).test(pred, p, q, &mut stats);
            assert_eq!(got, oracle(pred, p, q), "{what}");
            decided += stats.decided_by_runs;
            match window(RefineOp::Test(pred), p, q, resolution) {
                Ok(w) => {
                    let r = w.region;
                    for m in &points {
                        assert!(
                            r.xmin - slack(m.x) <= m.x
                                && m.x <= r.xmax + slack(m.x)
                                && r.ymin - slack(m.y) <= m.y
                                && m.y <= r.ymax + slack(m.y),
                            "{what}: {m:?} outside {r:?}"
                        );
                    }
                }
                Err(NoWindow::Apart) => {
                    // Apart proves the boundaries apart: a meeting point
                    // this test found can only be a rounding at `reach`.
                    let gap = p
                        .edges()
                        .flat_map(|e| q.edges().map(move |f| e.dist_segment(&f)))
                        .fold(f64::INFINITY, f64::min);
                    assert!(
                        points.is_empty() || (reach > 0.0 && gap > reach - slack(reach)),
                        "{what}: decided apart at a gap of {gap}"
                    );
                }
                Err(NoWindow::Unfit) => {}
            }
        }
        decided
    }

    /// Every predicate on `(p, q)` — containment both ways — and within
    /// each distance of `ds`; returns how often the run boxes decided.
    fn assert_every_predicate(p: &Polygon, q: &Polygon, ds: &[f64]) -> usize {
        let mut decided = assert_region_holds_meetings(Predicate::Intersects, p, q);
        decided += assert_region_holds_meetings(Predicate::ContainedIn, p, q);
        decided += assert_region_holds_meetings(Predicate::ContainedIn, q, p);
        for &d in ds {
            decided += assert_region_holds_meetings(Predicate::WithinDistance(d), p, q);
        }
        decided
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// The projection region R holds every point two random boundaries
        /// share and every midpoint of two boundary points within `d`, and
        /// the hardware over R answers like the oracle — on rings from 64
        /// to 300 vertices, which carry run boxes, against rings that do or
        /// do not, overlapping, nested and apart.
        #[test]
        fn the_projection_region_holds_every_meeting_point(
            (px, py) in (-10.0f64..10.0, -10.0f64..10.0),
            p_radii in proptest::collection::vec(9.0f64..10.0, 64..300),
            (qx, qy) in (-22.0f64..22.0, -22.0f64..22.0),
            q_scale in 0.05f64..1.2,
            q_radii in proptest::collection::vec(9.0f64..10.0, 3..300),
            d in 0.0f64..6.0,
        ) {
            let q_radii: Vec<f64> = q_radii.iter().map(|r| r * q_scale).collect();
            let (p, q) = (ring(px, py, &p_radii), ring(px + qx * q_scale.min(1.0), py + qy, &q_radii));
            assert_every_predicate(&p, &q, &[0.0, d, d / 16.0]);
        }
    }

    /// The same on the corpus's large-boundary pairs at the Figure 14/16
    /// distances, on rings nested far enough that the run boxes decide
    /// every predicate, and on the exact-touch family of `hw_distance`:
    /// subdivided squares whose gap rounds to exactly `d`, and squares
    /// that share part of a side or a corner.
    #[test]
    fn the_projection_region_holds_every_meeting_point_on_the_corpus_and_exact_touches() {
        let (pairs, base_d) = corpus();
        let ds: Vec<f64> = [0.25, 0.5, 1.0, 2.0, 4.0].map(|f| f * base_d).to_vec();
        let mut decided = 0;
        for (p, q) in pairs
            .iter()
            .filter(|(p, q)| p.vertex_count() * q.vertex_count() <= 200_000)
        {
            decided += assert_every_predicate(p, q, &ds);
        }
        assert!(decided > 0, "the run boxes decided no corpus pair");

        // The run boxes decide intersection and both distances of the
        // pocket pair (containment fails point-in-polygon or the MBR gate)
        // and the nested rings' containment (point-in-polygon decides the
        // rest), at every resolution.
        let (c, ring) = pocket();
        assert_eq!(assert_every_predicate(&c, &ring, &[0.0, 1.5]), 3 * 4);
        let (outer, inner) = nested();
        assert_eq!(assert_every_predicate(&outer, &inner, &[0.0, 1.5]), 4);

        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..12 {
            let x1b = 1.0 + 8.0 * next();
            let x2a = x1b + 0.5 + 4.0 * next();
            let d = x2a - x1b;
            let (p, q) = (
                square(x1b - 2.0, 0.0, 2.0, 25),
                square(x2a, 3.0 * next(), 2.0, 25),
            );
            let below = f64::from_bits(d.to_bits() - 1);
            assert_every_predicate(&p, &q, &[d, below, d.next_up()]);
        }
        let p = square(0.0, 0.0, 8.0, 20);
        for q in [
            square(8.0, 3.0, 8.0, 20),
            square(8.0, 8.0, 8.0, 20),
            square(3.0, 8.0, 2.0, 1),
        ] {
            assert_every_predicate(&p, &q, &[0.0, 0.5]);
        }
    }

    /// A pair whose run boxes cannot meet is answered without a submission
    /// — per pair and batched — and counted once a test in
    /// `decided_by_runs`:
    /// intersection and distance `false`, containment `true`.
    #[test]
    fn an_apart_pair_is_answered_without_a_submission() {
        let ((c, ring), (outer, inner)) = (pocket(), nested());
        let cases = [
            (Predicate::Intersects, &c, &ring, false),
            (Predicate::ContainedIn, &inner, &outer, true),
            (Predicate::WithinDistance(1.5), &c, &ring, false),
        ];
        for (pred, p, q, expected) in cases {
            let mut tester = HwTester::new(HwConfig::at_resolution(8));
            let seen = tester.spy();
            let mut stats = TestStats::default();
            assert_eq!(tester.test(pred, p, q, &mut stats), expected, "{pred:?}");
            assert_eq!(
                tester.test_batch(pred, &[(p, q)], &mut stats),
                vec![expected]
            );
            assert!(seen.lock().unwrap().is_empty(), "{pred:?}");
            assert_eq!(stats.decided_by_runs, 2, "{pred:?}: {stats:?}");
            assert_eq!(
                (stats.hw_tests, stats.software_tests, stats.hw_batches),
                (0, 0, 0),
                "{pred:?}: {stats:?}"
            );
        }
    }

    /// Two 600-vertex rings of radius 10 whose boundaries cross near
    /// `(0, 10)`: neither holds the other's first vertex, and only the runs
    /// near the lens reach the other's MBR.
    fn lens() -> (Polygon, Polygon) {
        (ring(0.0, 0.0, &[10.0; 600]), ring(0.0, 20.0, &[10.5; 600]))
    }

    /// What `route` decides for `pred` on `(p, q)` under `cfg`, and what it
    /// counted.
    fn routed(pred: Predicate, p: &Polygon, q: &Polygon, cfg: HwConfig) -> (bool, TestStats) {
        let mut stats = TestStats::default();
        let to_device = matches!(route(pred, p, q, &cfg, &mut stats), Routed::Hw(_));
        (to_device, stats)
    }

    /// The threshold counts the edges step 3 searches, not the vertices of
    /// the pair: 1 200 vertices whose runs reach the run-box region R in
    /// under 500 edges run in software at the recommended configuration,
    /// and reach the device with one edge less of threshold. The count is
    /// the walk's: the edges of the runs whose box meets R, never more than
    /// those of the runs whose box meets the MBR region R₀.
    #[test]
    fn a_pair_with_few_step3_edges_is_skipped_however_many_vertices_it_has() {
        let (p, q) = lens();
        let framing = framing(RefineOp::Test(Predicate::Intersects), &p, &q);
        let edges = framing.routed_edges();
        let r = framing.reach.region.expect("the lens boundaries meet");
        let reaching_r = |poly: &Polygon| -> usize {
            let runs = poly.runs().filter(|(_, run)| run.intersects(&r));
            runs.map(|(edges, _)| edges.len()).sum()
        };
        assert_eq!(edges, reaching_r(&p) + reaching_r(&q));
        assert!(edges <= framing.reach.clip_edges, "{edges} step-3 edges");
        assert!(p.vertex_count() + q.vertex_count() > 500);
        assert!((64..=500).contains(&edges), "{edges} step-3 edges");
        let cfg = HwConfig::recommended();
        let (to_device, stats) = routed(Predicate::Intersects, &p, &q, cfg);
        assert!(!to_device);
        assert_eq!(
            (
                stats.skipped_by_threshold,
                stats.software_tests,
                stats.hw_tests
            ),
            (1, 1, 0),
            "{stats:?}"
        );
        let mut tester = HwTester::new(cfg);
        assert!(tester.test(Predicate::Intersects, &p, &q, &mut TestStats::default()));
        let (to_device, stats) =
            routed(Predicate::Intersects, &p, &q, cfg.with_threshold(edges - 1));
        assert!(to_device, "{stats:?}");
        assert_eq!(stats.skipped_by_threshold, 0);
    }

    /// The run boxes answer before the threshold: a pair of 420 vertices
    /// whose boxes cannot meet is decided by runs, not sent to step 3.
    #[test]
    fn a_small_pair_the_run_boxes_prove_apart_is_decided_by_runs() {
        let (c, ring) = pocket_of(40, 100);
        assert!(c.vertex_count() + ring.vertex_count() <= 500);
        let (to_device, stats) = routed(Predicate::Intersects, &c, &ring, HwConfig::recommended());
        assert!(!to_device);
        assert_eq!(
            (
                stats.decided_by_runs,
                stats.skipped_by_threshold,
                stats.software_tests
            ),
            (1, 0, 0),
            "{stats:?}"
        );
    }

    /// Threshold 0 sends every pair that reaches the threshold step — the
    /// pairs an unbounded threshold skips — to the device when it has a
    /// window, and to the fallback ledger when it has none; every other
    /// pair is decided and counted alike under both thresholds.
    #[test]
    fn threshold_zero_sends_every_undecided_pair_with_a_window_to_the_device() {
        let (mut pairs, base_d) = corpus();
        pairs.extend([lens(), pocket_of(40, 100), pocket()]);
        let mut to_device = 0;
        for (p, q) in &pairs {
            for pred in [
                Predicate::Intersects,
                Predicate::ContainedIn,
                Predicate::WithinDistance(base_d),
            ] {
                let every = HwConfig::at_resolution(8);
                let (hw, stats) = routed(pred, p, q, every);
                let (_, all_sw) = routed(pred, p, q, every.with_threshold(usize::MAX));
                assert_eq!(stats.skipped_by_threshold, 0);
                if all_sw.skipped_by_threshold == 0 {
                    assert!(!hw, "{pred:?}");
                    assert_eq!(format!("{stats:?}"), format!("{all_sw:?}"), "{pred:?}");
                    continue;
                }
                match window(RefineOp::Test(pred), p, q, 8) {
                    Ok(_) => {
                        assert!(hw, "{pred:?}: {stats:?}");
                        to_device += 1;
                    }
                    Err(NoWindow::Unfit) => {
                        assert!(!hw && stats.width_limit_fallbacks == 1, "{pred:?}");
                    }
                    Err(NoWindow::Apart) => panic!("{pred:?}: an apart pair reached the threshold"),
                }
            }
        }
        assert!(to_device >= 10, "{to_device} pairs reached the device");
    }

    /// The pixels `list` leaves white — drawn by both boundaries.
    fn overlap_pixels(list: &CommandList) -> Vec<bool> {
        let (frame, _, _) = execute(list);
        let (width, height) = (frame.width(), frame.height());
        (0..height)
            .flat_map(|y| (0..width).map(move |x| (x, y)))
            .map(|(x, y)| frame.read_pixel(x, y) >= 1.0)
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The pairing step changes what a boolean test draws but never
        /// the verdict a meeting needs: on random rings at resolutions 1 to
        /// 32 and Equation (1) widths up to the 10 px limit, every pixel
        /// the paired list leaves white the whole-boundary list of the same
        /// window leaves white too, and no pair whose boundaries meet — or
        /// come within `d` — is decided apart or loses its last white
        /// pixel.
        #[test]
        fn pairing_only_removes_overlap_pixels_and_never_a_meeting(
            (px, py) in (-10.0f64..10.0, -10.0f64..10.0),
            p_radii in proptest::collection::vec(9.0f64..10.0, 64..300),
            (qx, qy) in (-22.0f64..22.0, -22.0f64..22.0),
            q_scale in 0.05f64..1.2,
            q_radii in proptest::collection::vec(9.0f64..10.0, 3..300),
            resolution in 1usize..=32,
            d in 0.0f64..6.0,
        ) {
            let q_radii: Vec<f64> = q_radii.iter().map(|r| r * q_scale).collect();
            let (p, q) = (ring(px, py, &p_radii), ring(px + qx * q_scale.min(1.0), py + qy, &q_radii));
            let gap = p
                .edges()
                .flat_map(|e| q.edges().map(move |f| (e.intersects(&f), e.dist_segment(&f))))
                .fold((false, f64::INFINITY), |(cross, gap), (x, g)| (cross || x, gap.min(g)));
            for pred in [
                Predicate::Intersects,
                Predicate::WithinDistance(d),
                Predicate::WithinDistance(d / 8.0),
            ] {
                let op = RefineOp::Test(pred);
                let meets = match pred {
                    Predicate::WithinDistance(d) => gap.1 <= d,
                    _ => gap.0,
                };
                let what = format!("{pred:?} at {resolution}");
                let paired = match window(op, &p, &q, resolution) {
                    Ok(w) => {
                        proptest::prop_assert!(w.width <= MAX_AA_LINE_WIDTH);
                        let paired = overlap_pixels(&list(Tape::Pair(&w)).0);
                        let whole = overlap_pixels(&whole_boundaries(&w));
                        for (k, &white) in paired.iter().enumerate() {
                            proptest::prop_assert!(!white || whole[k], "{}: pixel {}", what, k);
                        }
                        paired
                    }
                    Err(NoWindow::Apart) => Vec::new(),
                    Err(NoWindow::Unfit) => continue,
                };
                proptest::prop_assert!(!meets || paired.contains(&true), "{} rejected a meeting", what);
            }
        }
    }

    /// Two 642-vertex bands 0.5 wide along `y = x`, one shifted 4 to the
    /// right of the other: their MBRs overlap, neither holds the other's
    /// first vertex, and the projection region R is not empty — but each
    /// run box spans about 1.4 of a band, so none comes within 0.5 of a
    /// box of the other band.
    fn bands() -> (Polygon, Polygon) {
        let band = |dx: f64| {
            let along = |k: usize| 10.0 * k as f64 / 320.0;
            let (nx, ny) = (0.5 / 2f64.sqrt(), -0.5 / 2f64.sqrt());
            let coords: Vec<(f64, f64)> = (0..=320)
                .map(|k| (dx + along(k), along(k)))
                .chain((0..=320).rev().map(|k| (dx + along(k) + nx, along(k) + ny)))
                .collect();
            Polygon::from_coords(&coords)
        };
        (band(0.0), band(4.0))
    }

    /// A pair whose run boxes leave R non-empty but pair up nowhere is
    /// answered like an empty R: with no submission, per pair and batched,
    /// counted once a test in `decided_by_runs` — at every resolution,
    /// those the device has no frame for too: the pairing answers before
    /// the resolution is looked at, so no such pair is a width fallback.
    #[test]
    fn a_pair_whose_runs_pair_up_nowhere_is_answered_without_a_submission() {
        let (a, b) = bands();
        for pred in [Predicate::Intersects, Predicate::WithinDistance(0.5)] {
            assert!(!oracle(pred, &a, &b), "{pred:?}");
            let op = RefineOp::Test(pred);
            assert!(!framing(op, &a, &b).apart(), "{pred:?}: R is not empty");
            for resolution in [0, 1, 8, 32, MAX_WINDOW_SIDE + 1] {
                let w = window(op, &a, &b, resolution);
                assert!(matches!(w, Err(NoWindow::Apart)), "{pred:?}: {w:?}");
                let mut tester = HwTester::new(HwConfig::at_resolution(resolution));
                let seen = tester.spy();
                let mut stats = TestStats::default();
                assert!(!tester.test(pred, &a, &b, &mut stats), "{pred:?}");
                assert_eq!(
                    tester.test_batch(pred, &[(&a, &b)], &mut stats),
                    vec![false]
                );
                assert!(seen.lock().unwrap().is_empty(), "{pred:?}");
                assert_eq!(
                    (
                        stats.decided_by_runs,
                        stats.hw_tests,
                        stats.software_tests,
                        stats.width_limit_fallbacks
                    ),
                    (2, 0, 0, 0),
                    "{pred:?} at {resolution}: {stats:?}"
                );
            }
        }
    }

    /// A boolean test at a resolution the device has no frame for — 0, or
    /// over `MAX_WINDOW_SIDE` — has no window: the tester answers it in
    /// software on the fallback ledger instead of panicking. Only windows
    /// are built at the oversized resolution, never a frame.
    #[test]
    fn boolean_tests_outside_the_window_sides_the_device_has_are_unfit() {
        let (p, q) = lens();
        let (c, pocket_ring) = pocket();
        for pred in [
            Predicate::Intersects,
            Predicate::ContainedIn,
            Predicate::WithinDistance(1e-3),
        ] {
            let op = RefineOp::Test(pred);
            assert!(window(op, &p, &q, MAX_WINDOW_SIDE).is_ok(), "{pred:?}");
            for resolution in [0, MAX_WINDOW_SIDE + 1] {
                let w = window(op, &p, &q, resolution);
                assert!(matches!(w, Err(NoWindow::Unfit)), "{pred:?}: {w:?}");
            }
            // The lens fails containment's MBR gate, and the pocket pair
            // its point-in-polygon step: the tester decides both before
            // any window.
            if pred == Predicate::ContainedIn {
                continue;
            }
            // An empty R answers before the resolution.
            let w = window(op, &c, &pocket_ring, 0);
            assert!(matches!(w, Err(NoWindow::Apart)), "{pred:?}: {w:?}");
            let mut stats = TestStats::default();
            let mut tester = HwTester::new(HwConfig::at_resolution(0));
            assert_eq!(tester.test(pred, &p, &q, &mut stats), oracle(pred, &p, &q));
            assert_eq!(
                (stats.width_limit_fallbacks, stats.hw_tests),
                (1, 0),
                "{pred:?}: {stats:?}"
            );
        }
        assert!(HwTester::new(HwConfig::at_resolution(0)).intersects(
            &p,
            &q,
            &mut TestStats::default()
        ));
        assert!(crate::hw_distance::hw_within_distance(
            &p,
            &q,
            1e-3,
            HwConfig::at_resolution(0)
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// The threshold only routes: a batch of up to 32 random ring pairs
        /// — overlapping, nested and apart, from 3 to 300 vertices — gets
        /// the same rows for every predicate at thresholds 0, 134, 500 and
        /// unbounded, per pair and as one atlas batch.
        #[test]
        fn rows_are_identical_across_thresholds(
            shapes in proptest::collection::vec(
                (
                    (-12.0f64..12.0, -12.0f64..12.0),
                    proptest::collection::vec(9.0f64..10.0, 3..300),
                    0.05f64..1.2,
                    proptest::collection::vec(9.0f64..10.0, 3..300),
                ),
                1..33,
            ),
            d in 0.0f64..4.0,
        ) {
            let pairs: Vec<(Polygon, Polygon)> = shapes
                .iter()
                .map(|((x, y), p_radii, scale, q_radii)| {
                    let q_radii: Vec<f64> = q_radii.iter().map(|r| r * scale).collect();
                    (ring(0.0, 0.0, p_radii), ring(x * scale.min(1.0), *y, &q_radii))
                })
                .collect();
            for pred in [Predicate::Intersects, Predicate::ContainedIn, Predicate::WithinDistance(d)] {
                let refs: Vec<(&Polygon, &Polygon)> = pairs
                    .iter()
                    .map(|(p, q)| if pred == Predicate::ContainedIn { (q, p) } else { (p, q) })
                    .collect();
                let expected: Vec<bool> = refs.iter().map(|(p, q)| oracle(pred, p, q)).collect();
                for threshold in [0, 134, 500, usize::MAX] {
                    let mut tester = HwTester::new(HwConfig::at_resolution(8).with_threshold(threshold));
                    let mut stats = TestStats::default();
                    let per_pair: Vec<bool> =
                        refs.iter().map(|(p, q)| tester.test(pred, p, q, &mut stats)).collect();
                    proptest::prop_assert_eq!(&per_pair, &expected, "{:?} at {}", pred, threshold);
                    let batched = tester.test_batch(pred, &refs, &mut stats);
                    proptest::prop_assert_eq!(&batched, &expected, "{:?} batched at {}", pred, threshold);
                }
            }
        }
    }
}
