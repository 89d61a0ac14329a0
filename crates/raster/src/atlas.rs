//! Batched hardware submission: many segment-overlap tests rendered into
//! one frame buffer as a grid of cells ("texture atlas" style), sharing
//! the per-submission fixed costs.
//!
//! The per-pair choreography (Algorithm 3.1) pays two draw calls and one
//! Minmax query per candidate pair — fixed costs that dominate at small
//! window resolutions (§4.3: the 8×8 window's cost is almost entirely
//! submission overhead). A batch of `k` pairs rendered as `k` cells of one
//! window needs **two draw calls and one Minmax scan for the whole batch**:
//! all first-polygon boundaries in one submission, one whole-buffer
//! accumulation round, all second-polygon boundaries in a second
//! submission, then a single scan that reduces each cell to its own max.
//!
//! Exactness is inherited, not re-proved: every cell is rasterized through
//! its **own cell-local window** — the same `res × res` coordinate system
//! the per-pair test uses — and fragments are scissored to that cell, so
//! the pixels colored inside a cell are *bit-identical* to the per-pair
//! rendering of the same pair. A cell's max therefore equals the per-pair
//! max, and the batched test returns exactly the per-pair booleans. Cells
//! are additionally separated by a gutter at least as wide as the line
//! footprint's bleed radius (`width/2 + 1`), so even geometry drawn at the
//! very edge of a cell cannot reach a neighbouring cell's pixels.
//!
//! Cost accounting stays honest both ways: per-primitive and per-fragment
//! work is identical to the per-pair path (same windows, same rasterizer),
//! while the whole-buffer operations (clears, accumulation, the scan) are
//! charged over the *atlas* area — which includes the gutters, so batching
//! pays a real per-pixel overhead in exchange for the amortized fixed
//! costs. All counters are a pure function of the batch contents, never of
//! which thread or in which order batches run.

use crate::context::PixelRect;
use crate::device::{CommandList, Recorder};
use crate::framebuffer::HALF_GRAY;
use crate::viewport::Viewport;
use spatial_geom::{Point, Segment};

/// One candidate pair's rendering work within a batch, as
/// [`record_batch`] reads it; `second` picks the boundary rendered
/// second. The geometry goes from these iterators straight into the
/// command list's arenas — the one copy a recording needs — so a cell
/// that can stream its edges (a polygon pair) never materializes them. A
/// round of 32 cells against a 10 000-edge query window is 10 MB of
/// segments; a second copy beside the list would be the largest buffer
/// of the process.
pub trait AtlasCell {
    /// Cell-local projection: data space onto a `cell × cell` window. Must
    /// match the atlas cell resolution.
    fn viewport(&self) -> Viewport;
    /// One boundary's wide anti-aliased segments.
    fn segments(&self, second: bool) -> impl ExactSizeIterator<Item = Segment>;
    /// The same boundary's smooth vertex points (the distance test's
    /// Minkowski expansion). Intersection tests have none.
    fn points(&self, second: bool) -> impl ExactSizeIterator<Item = Point>;
}

/// An [`AtlasCell`] that owns its geometry.
#[derive(Debug, Clone)]
pub struct AtlasJob {
    /// See [`AtlasCell::viewport`].
    pub viewport: Viewport,
    /// First boundary: wide anti-aliased segments plus (for the distance
    /// test's Minkowski expansion) smooth vertex points. Intersection
    /// tests leave the point lists empty.
    pub first_segments: Vec<Segment>,
    pub first_points: Vec<Point>,
    /// Second boundary.
    pub second_segments: Vec<Segment>,
    pub second_points: Vec<Point>,
}

impl AtlasCell for AtlasJob {
    fn viewport(&self) -> Viewport {
        self.viewport
    }

    fn segments(&self, second: bool) -> impl ExactSizeIterator<Item = Segment> {
        let run = if second {
            &self.second_segments
        } else {
            &self.first_segments
        };
        run.iter().copied()
    }

    fn points(&self, second: bool) -> impl ExactSizeIterator<Item = Point> {
        let run = if second {
            &self.second_points
        } else {
            &self.first_points
        };
        run.iter().copied()
    }
}

/// Geometry of one batch's grid layout.
#[derive(Debug, Clone, Copy)]
struct Layout {
    cell: usize,
    gutter: usize,
    grid: usize,
    rows: usize,
}

impl Layout {
    fn new(cell: usize, jobs: usize, max_width: f64) -> Layout {
        // Gutter ≥ the widened line's bleed radius: geometry at a cell
        // edge stays out of the neighbouring cell even without the
        // scissor. (The scissor makes this a second line of defense.)
        let gutter = (max_width / 2.0).ceil() as usize + 1;
        let grid = (jobs as f64).sqrt().ceil() as usize;
        // Only as many rows as the jobs fill: a square `grid × grid`
        // window would charge whole rows of clears/accumulation/scans for
        // cells no job occupies (5 jobs on a 3×3 grid is one empty row of
        // `pixels_scanned` over-charged).
        let rows = jobs.div_ceil(grid.max(1));
        Layout {
            cell,
            gutter,
            grid,
            rows,
        }
    }

    /// Pixel origin of cell `i` (row-major).
    fn origin(&self, i: usize) -> (usize, usize) {
        let pitch = self.cell + self.gutter;
        let (row, col) = (i / self.grid, i % self.grid);
        (self.gutter + col * pitch, self.gutter + row * pitch)
    }

    /// Atlas width in pixels (`grid` columns plus gutters).
    fn width(&self) -> usize {
        self.grid * (self.cell + self.gutter) + self.gutter
    }

    /// Atlas height in pixels — only the occupied rows, so whole-buffer
    /// operations are charged over pixels a job can actually touch.
    fn height(&self) -> usize {
        self.rows * (self.cell + self.gutter) + self.gutter
    }
}

/// Records one batched accumulation round over `jobs` as a command
/// stream; returns the list plus the readback slot of its per-cell
/// reduction (a cell's flag is `max ≥ 1.0`, the "full white found" signal
/// of Algorithm 3.1). All jobs must share one square cell resolution, and
/// `line_width`/`point_size` must respect the hardware limits — callers
/// take the software fallback before batching, exactly like the per-pair
/// path.
pub fn record_batch<C: AtlasCell>(
    jobs: &[C],
    line_width: f64,
    point_size: f64,
) -> (CommandList, usize) {
    assert!(!jobs.is_empty(), "cannot record an empty batch");
    let cell = jobs[0].viewport().width();
    for job in jobs {
        assert_eq!(
            (job.viewport().width(), job.viewport().height()),
            (cell, cell),
            "all jobs must share one square cell resolution"
        );
    }
    let layout = Layout::new(cell, jobs.len(), line_width.max(point_size));
    let mut rec = Recorder::new(layout.width(), layout.height());
    // One exact allocation per arena instead of a chain of doublings that
    // ends up to twice the size: the arenas are the largest transient
    // buffers of a served query.
    let total =
        |len: fn(&C, bool) -> usize| jobs.iter().map(|j| len(j, false) + len(j, true)).sum();
    rec.reserve(
        total(|j, second| j.segments(second).len()),
        total(|j, second| j.points(second).len()),
    );
    rec.begin_batch();
    rec.set_color(HALF_GRAY)
        .expect("half gray is a valid intensity");
    rec.set_line_width(line_width)
        .expect("caller pre-validates the line width");
    rec.set_point_size(point_size)
        .expect("caller pre-validates the point size");

    // Algorithm 3.1 choreography, whole-buffer ops over the atlas.
    rec.clear_color();
    rec.clear_accum();
    record_pass(&mut rec, jobs, &layout, false);
    rec.accum_load();
    rec.clear_color();
    record_pass(&mut rec, jobs, &layout, true);
    rec.accum_add();
    rec.accum_return();

    // One scan reduces every cell to its own maximum — the batched
    // stand-in for per-pair Minmax queries (a histogram/reduction pass
    // over the full buffer).
    let slot = rec
        .cell_max(jobs.iter().enumerate().map(|(i, _)| cell_rect(&layout, i)))
        .expect("cells lie inside the atlas");
    (rec.finish(), slot)
}

fn cell_rect(layout: &Layout, i: usize) -> PixelRect {
    let (x, y) = layout.origin(i);
    PixelRect {
        x,
        y,
        w: layout.cell,
        h: layout.cell,
    }
}

/// Records one side of every job as (at most) two draw calls: all segment
/// lists in one merged submission, all point lists in another. Each job
/// renders through its own cell-local window — scissor plus cell-sized
/// viewport — so its fragments are identical to the per-pair path's.
///
/// Cells with no geometry in a loop are skipped entirely: their
/// scissor/viewport churn (and an empty extend-draw) is state no draw
/// observes and nothing charges. The first *non-empty* job opens each
/// loop's draw call — one `draw_calls` charge per loop with work in it.
fn record_pass<C: AtlasCell>(rec: &mut Recorder, jobs: &[C], layout: &Layout, second: bool) {
    let mut opened = false;
    for (i, job) in jobs.iter().enumerate() {
        let segments = job.segments(second);
        if segments.len() == 0 {
            continue;
        }
        rec.set_scissor(Some(cell_rect(layout, i)))
            .expect("cells lie inside the atlas");
        rec.set_viewport(job.viewport())
            .expect("job viewport matches the cell");
        let recorded = if opened {
            rec.extend_draw_segments(segments)
        } else {
            opened = true;
            rec.draw_segments(segments)
        };
        recorded.expect("viewport recorded above");
    }

    let mut opened = false;
    for (i, job) in jobs.iter().enumerate() {
        let points = job.points(second);
        if points.len() == 0 {
            continue;
        }
        rec.set_scissor(Some(cell_rect(layout, i)))
            .expect("cells lie inside the atlas");
        rec.set_viewport(job.viewport())
            .expect("job viewport matches the cell");
        let recorded = if opened {
            rec.extend_draw_points(points)
        } else {
            opened = true;
            rec.draw_points(points)
        };
        recorded.expect("viewport recorded above");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aa_line::DIAGONAL_WIDTH;
    use crate::context::GlContext;
    use crate::device::{DeviceKind, RasterDevice};
    use crate::stats::HwStats;
    use spatial_geom::Rect;

    /// Records `jobs` as one batch, executes it on `device` and returns the
    /// per-cell overlap flags plus the work charged.
    fn run_batch_on(
        device: &mut dyn RasterDevice,
        jobs: &[AtlasJob],
        line_width: f64,
        point_size: f64,
    ) -> (Vec<bool>, HwStats) {
        let (list, slot) = record_batch(jobs, line_width, point_size);
        let exec = device.execute(&list).expect("clean devices never fault");
        let flags = exec
            .cell_max(slot)
            .expect("record_batch returns its own cell-readback slot")
            .iter()
            .map(|&m| m >= 1.0)
            .collect();
        (flags, exec.stats)
    }

    /// [`run_batch_on`] a fresh default device.
    fn run_batch(jobs: &[AtlasJob], line_width: f64, point_size: f64) -> (Vec<bool>, HwStats) {
        run_batch_on(
            &mut *DeviceKind::default().build(),
            jobs,
            line_width,
            point_size,
        )
    }

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    fn job(region: Rect, res: usize, first: Vec<Segment>, second: Vec<Segment>) -> AtlasJob {
        AtlasJob {
            viewport: Viewport::new(region, res, res),
            first_segments: first,
            first_points: Vec::new(),
            second_segments: second,
            second_points: Vec::new(),
        }
    }

    /// The per-pair reference: the exact GlContext accumulation
    /// choreography of Algorithm 3.1.
    fn per_pair_overlap(j: &AtlasJob, width: f64) -> bool {
        let mut gl = GlContext::new(j.viewport);
        gl.set_color(HALF_GRAY);
        gl.set_line_width(width);
        gl.set_point_size(width);
        gl.clear_color_buffer();
        gl.clear_accum_buffer();
        gl.draw_segments(&j.first_segments);
        if !j.first_points.is_empty() {
            gl.draw_points(&j.first_points);
        }
        gl.accum_load();
        gl.clear_color_buffer();
        gl.draw_segments(&j.second_segments);
        if !j.second_points.is_empty() {
            gl.draw_points(&j.second_points);
        }
        gl.accum_add();
        gl.accum_return();
        gl.max_value() >= 1.0
    }

    fn mixed_jobs(res: usize) -> Vec<AtlasJob> {
        let r = Rect::new(0.0, 0.0, 8.0, 8.0);
        vec![
            // Crossing diagonals: overlap.
            job(
                r,
                res,
                vec![seg(0.0, 0.0, 8.0, 8.0)],
                vec![seg(0.0, 8.0, 8.0, 0.0)],
            ),
            // Far-apart verticals: no overlap (at fine resolutions).
            job(
                r,
                res,
                vec![seg(0.5, 0.5, 0.5, 7.5)],
                vec![seg(7.5, 0.5, 7.5, 7.5)],
            ),
            // Touching at a corner.
            job(
                r,
                res,
                vec![seg(0.0, 0.0, 4.0, 4.0)],
                vec![seg(4.0, 4.0, 8.0, 8.0)],
            ),
            // Parallel and close.
            job(
                r,
                res,
                vec![seg(1.0, 0.0, 1.0, 8.0)],
                vec![seg(1.6, 0.0, 1.6, 8.0)],
            ),
        ]
    }

    #[test]
    fn batched_flags_equal_per_pair_flags() {
        for res in [1usize, 4, 8, 32] {
            let jobs = mixed_jobs(res);
            let (flags, _) = run_batch(&jobs, DIAGONAL_WIDTH, 1.0);
            for (i, j) in jobs.iter().enumerate() {
                assert_eq!(
                    flags[i],
                    per_pair_overlap(j, DIAGONAL_WIDTH),
                    "job {i} at res {res}"
                );
            }
        }
    }

    #[test]
    fn wide_lines_and_points_match_per_pair() {
        let r = Rect::new(0.0, 0.0, 16.0, 16.0);
        let res = 16;
        let mk =
            |first: Vec<Segment>, fp: Vec<Point>, second: Vec<Segment>, sp: Vec<Point>| AtlasJob {
                viewport: Viewport::uniform(r, res, res),
                first_segments: first,
                first_points: fp,
                second_segments: second,
                second_points: sp,
            };
        let jobs = vec![
            mk(
                vec![seg(2.0, 2.0, 2.0, 14.0)],
                vec![Point::new(2.0, 2.0), Point::new(2.0, 14.0)],
                vec![seg(6.0, 2.0, 6.0, 14.0)],
                vec![Point::new(6.0, 2.0), Point::new(6.0, 14.0)],
            ),
            mk(
                vec![seg(2.0, 2.0, 2.0, 14.0)],
                vec![Point::new(2.0, 2.0)],
                vec![seg(13.0, 2.0, 13.0, 14.0)],
                vec![Point::new(13.0, 2.0)],
            ),
        ];
        for width in [2.0, 4.0, 6.0] {
            let (flags, _) = run_batch(&jobs, width, width);
            for (i, j) in jobs.iter().enumerate() {
                assert_eq!(
                    flags[i],
                    per_pair_overlap(j, width),
                    "job {i} width {width}"
                );
            }
        }
    }

    #[test]
    fn cells_do_not_contaminate_each_other() {
        // Two jobs with geometry hugging the cell edges: job 0 overlaps,
        // job 1 is empty on one side and must stay non-overlapping no
        // matter what its neighbours drew.
        let r = Rect::new(0.0, 0.0, 8.0, 8.0);
        let jobs = vec![
            job(
                r,
                8,
                vec![seg(0.0, 0.0, 8.0, 8.0)],
                vec![seg(0.0, 8.0, 8.0, 0.0)],
            ),
            job(r, 8, vec![seg(7.9, 0.0, 7.9, 8.0)], vec![]),
            job(r, 8, vec![], vec![seg(0.1, 0.0, 0.1, 8.0)]),
            job(
                r,
                8,
                vec![seg(0.0, 7.9, 8.0, 7.9)],
                vec![seg(0.0, 0.1, 8.0, 0.1)],
            ),
        ];
        let (flags, _) = run_batch(&jobs, 10.0, 10.0); // maximum width: worst bleed
        assert!(flags[0]);
        assert!(!flags[1], "one-sided cell faked an overlap");
        assert!(!flags[2], "one-sided cell faked an overlap");
        // Job 3's wide lines genuinely overlap inside the cell; the point
        // is that the batched answer matches per-pair exactly.
        assert_eq!(flags[3], per_pair_overlap(&jobs[3], 10.0));
    }

    #[test]
    fn batch_amortizes_draw_calls_and_minmax() {
        let jobs = mixed_jobs(8);
        let (_, s) = run_batch(&jobs, DIAGONAL_WIDTH, 1.0);
        assert_eq!(s.batches, 1);
        assert_eq!(s.draw_calls, 2, "one submission per pass, not per pair");
        assert_eq!(s.minmax_queries, 1, "one reduction scan per batch");
        // Per-pair would be 2 draw calls + 1 minmax per job.
        assert!(s.draw_calls + s.minmax_queries < 3 * jobs.len());
    }

    #[test]
    fn per_fragment_work_matches_per_pair() {
        // Batching amortizes submissions; it must not change the rasterized
        // work. Fragments and primitives are counted per cell-local window,
        // so they equal the per-pair totals exactly.
        let jobs = mixed_jobs(8);
        let (_, batched) = run_batch(&jobs, DIAGONAL_WIDTH, 1.0);
        let mut per_pair = HwStats::default();
        for j in &jobs {
            let mut gl = GlContext::new(j.viewport);
            gl.set_color(HALF_GRAY);
            gl.set_line_width(DIAGONAL_WIDTH);
            gl.clear_color_buffer();
            gl.clear_accum_buffer();
            gl.draw_segments(&j.first_segments);
            gl.accum_load();
            gl.clear_color_buffer();
            gl.draw_segments(&j.second_segments);
            gl.accum_add();
            gl.accum_return();
            gl.max_value();
            per_pair.add(&gl.stats());
        }
        assert_eq!(batched.fragments_tested, per_pair.fragments_tested);
        assert_eq!(batched.primitives, per_pair.primitives);
        assert_eq!(batched.pixels_written, per_pair.pixels_written);
    }

    #[test]
    fn buffer_is_reused_across_same_shape_batches() {
        let jobs = mixed_jobs(8);
        let mut device = DeviceKind::default().build();
        let (f1, s1) = run_batch_on(&mut *device, &jobs, DIAGONAL_WIDTH, 1.0);
        let (f2, s2) = run_batch_on(&mut *device, &jobs, DIAGONAL_WIDTH, 1.0);
        assert_eq!(f1, f2, "stale pixels leaked between batches");
        assert_eq!(s1.batches + s2.batches, 2);
    }

    #[test]
    #[should_panic(expected = "cannot record an empty batch")]
    fn empty_batch_is_rejected_at_record_time() {
        let _ = record_batch::<AtlasJob>(&[], 1.0, 1.0);
    }

    #[test]
    fn partial_last_row_is_not_charged() {
        // 5 jobs → a 3-column grid needs only 2 rows; a square 3×3 atlas
        // would charge a whole unused row of clears/accumulation/scans.
        let r = Rect::new(0.0, 0.0, 8.0, 8.0);
        let five: Vec<AtlasJob> = (0..5)
            .map(|i| {
                job(
                    r,
                    8,
                    vec![seg(0.0, i as f64, 8.0, 8.0)],
                    vec![seg(0.0, 8.0, 8.0, i as f64)],
                )
            })
            .collect();
        let (list, _) = record_batch(&five, DIAGONAL_WIDTH, 1.0);
        assert!(
            list.height() < list.width(),
            "5 jobs over 3 columns occupy 2 rows, not 3 ({}x{})",
            list.width(),
            list.height()
        );
        let layout = Layout::new(8, 5, DIAGONAL_WIDTH);
        assert_eq!(layout.grid, 3);
        assert_eq!(layout.rows, 2);
        // Every cell must still fit.
        for i in 0..5 {
            let c = cell_rect(&layout, i);
            assert!(c.x + c.w <= list.width() && c.y + c.h <= list.height());
        }
        // The flags are unchanged by the tighter window.
        let (flags, _) = run_batch(&five, DIAGONAL_WIDTH, 1.0);
        for (i, j) in five.iter().enumerate() {
            assert_eq!(flags[i], per_pair_overlap(j, DIAGONAL_WIDTH), "job {i}");
        }
    }

    #[test]
    fn skipping_empty_cells_preserves_counters_and_flags() {
        // The one-sided jobs of the contamination test, re-checked for
        // counter identity: skipping a cell elides only uncharged state.
        let r = Rect::new(0.0, 0.0, 8.0, 8.0);
        let jobs = vec![
            job(
                r,
                8,
                vec![seg(0.0, 0.0, 8.0, 8.0)],
                vec![seg(0.0, 8.0, 8.0, 0.0)],
            ),
            job(r, 8, vec![seg(7.9, 0.0, 7.9, 8.0)], vec![]),
            job(r, 8, vec![], vec![seg(0.1, 0.0, 0.1, 8.0)]),
        ];
        let (flags, s) = run_batch(&jobs, DIAGONAL_WIDTH, 1.0);
        assert_eq!(flags, vec![true, false, false]);
        assert_eq!(s.draw_calls, 2, "each pass still opens exactly one call");
        assert_eq!(s.minmax_queries, 1);
    }

    #[test]
    fn counters_are_a_pure_function_of_batch_content() {
        let jobs = mixed_jobs(16);
        let (_, a) = run_batch(&jobs, DIAGONAL_WIDTH, 1.0);
        let (_, b) = run_batch(&jobs, DIAGONAL_WIDTH, 1.0);
        assert_eq!(a, b);
    }
}
