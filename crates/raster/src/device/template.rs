//! Cached recording skeletons: a recorded (typically fused) command tape
//! with its per-pair geometry stripped, re-instantiated by splicing fresh
//! viewports and geometry runs.
//!
//! The per-pair and atlas choreographies re-record a near-identical
//! command tape for every candidate pair: the state setters, clears,
//! accumulation transfers and readback queries depend only on the
//! *strategy*, *resolution*, *line state* and *batch shape* — everything
//! pair-specific lives in the `SetViewport` values and the draw commands'
//! geometry runs. A [`ListTemplate`] captures that split: it keeps the
//! tape (plus the shape-determined polygon-vertex and cell arenas) and
//! drops the segment/point arenas; [`ListTemplate::instantiate`] then
//! walks the tape once, substituting the `i`-th viewport and appending the
//! `i`-th geometry run, skipping the recorder's per-call validation and
//! the fusion analysis entirely.
//!
//! Correctness is positional: the caller must splice runs for the *same
//! choreography shape* the template was recorded from (same number and
//! order of viewport slots and draw runs). The recording cache in
//! `hwa-core` guarantees that by keying templates on exactly the inputs
//! that determine the shape.

use super::command::{Command, CommandList};
use crate::context::PixelRect;
use crate::viewport::Viewport;
use spatial_geom::{Point, Segment};

/// A reusable command-tape skeleton; see the module docs.
#[derive(Debug, Clone)]
pub struct ListTemplate {
    width: usize,
    height: usize,
    commands: Vec<Command>,
    polys: Vec<Point>,
    cells: Vec<PixelRect>,
    readbacks: usize,
    viewport_slots: usize,
    segment_slots: usize,
    point_slots: usize,
    poly_slots: usize,
}

impl ListTemplate {
    /// Builds a template from a recorded list, keeping the command tape
    /// and the shape-determined arenas (polygon vertices, cell rectangles)
    /// and dropping the spliced-per-instantiation segment/point geometry.
    pub fn new(list: &CommandList) -> ListTemplate {
        let mut viewport_slots = 0;
        let mut segment_slots = 0;
        let mut point_slots = 0;
        let mut poly_slots = 0;
        for cmd in list.commands() {
            match cmd {
                Command::SetViewport(_) => viewport_slots += 1,
                Command::DrawSegments { .. } => segment_slots += 1,
                Command::DrawPoints { .. } => point_slots += 1,
                Command::FillPolygon { .. } => poly_slots += 1,
                _ => {}
            }
        }
        ListTemplate {
            width: list.width(),
            height: list.height(),
            commands: list.commands().to_vec(),
            polys: list.polys_arena().to_vec(),
            cells: list.cells_arena().to_vec(),
            readbacks: list.readback_count(),
            viewport_slots,
            segment_slots,
            point_slots,
            poly_slots,
        }
    }

    /// Number of `SetViewport` commands in the tape — the length
    /// [`ListTemplate::instantiate`] requires of its `viewports` slice.
    #[inline]
    pub fn viewport_slots(&self) -> usize {
        self.viewport_slots
    }

    /// Number of segment-draw runs the tape splices.
    #[inline]
    pub fn segment_slots(&self) -> usize {
        self.segment_slots
    }

    /// Number of point-draw runs the tape splices.
    #[inline]
    pub fn point_slots(&self) -> usize {
        self.point_slots
    }

    /// Number of filled-polygon draws in the tape — the run count
    /// [`ListTemplate::instantiate_with_polys`] splices. Plain
    /// [`ListTemplate::instantiate`] keeps these runs verbatim (their
    /// geometry is shape-determined for the segment-based choreographies).
    #[inline]
    pub fn poly_slots(&self) -> usize {
        self.poly_slots
    }

    /// Re-instantiates the skeleton into an executable [`CommandList`]:
    /// the `i`-th `SetViewport` takes `viewports[i]`, the `i`-th
    /// segment/point draw's run is whatever `fill_segments(i, arena)` /
    /// `fill_points(i, arena)` append (draw-call flags are the
    /// skeleton's). Geometry arrives through closures so callers splice
    /// straight from their own storage without intermediate allocations.
    ///
    /// Panics if `viewports` does not match
    /// [`ListTemplate::viewport_slots`] — a shape mismatch is a cache-key
    /// bug, not a runtime condition.
    pub fn instantiate(
        &self,
        viewports: &[Viewport],
        fill_segments: impl FnMut(usize, &mut Vec<Segment>),
        fill_points: impl FnMut(usize, &mut Vec<Point>),
    ) -> CommandList {
        self.splice(
            viewports,
            fill_segments,
            fill_points,
            None::<fn(usize, &mut Vec<Point>)>,
        )
    }

    /// [`ListTemplate::instantiate`] that *also* splices the `i`-th
    /// filled-polygon draw's vertex run from `fill_polys(i, arena)` — the
    /// area-of-overlap choreography's per-pair geometry. The template's
    /// own polygon arena is discarded; every `FillPolygon` run is rebuilt
    /// from the closure.
    pub fn instantiate_with_polys(
        &self,
        viewports: &[Viewport],
        fill_segments: impl FnMut(usize, &mut Vec<Segment>),
        fill_points: impl FnMut(usize, &mut Vec<Point>),
        fill_polys: impl FnMut(usize, &mut Vec<Point>),
    ) -> CommandList {
        self.splice(viewports, fill_segments, fill_points, Some(fill_polys))
    }

    fn splice(
        &self,
        viewports: &[Viewport],
        mut fill_segments: impl FnMut(usize, &mut Vec<Segment>),
        mut fill_points: impl FnMut(usize, &mut Vec<Point>),
        mut fill_polys: Option<impl FnMut(usize, &mut Vec<Point>)>,
    ) -> CommandList {
        assert_eq!(
            viewports.len(),
            self.viewport_slots,
            "viewport splice does not match the template shape"
        );
        let mut commands = Vec::with_capacity(self.commands.len());
        let mut segments: Vec<Segment> = Vec::new();
        let mut points: Vec<Point> = Vec::new();
        let mut polys: Vec<Point> = Vec::new();
        let (mut vi, mut si, mut pi, mut fi) = (0usize, 0usize, 0usize, 0usize);
        for cmd in &self.commands {
            match *cmd {
                Command::SetViewport(_) => {
                    commands.push(Command::SetViewport(viewports[vi]));
                    vi += 1;
                }
                Command::DrawSegments { new_call, .. } => {
                    let start = segments.len();
                    fill_segments(si, &mut segments);
                    si += 1;
                    commands.push(Command::DrawSegments {
                        start,
                        len: segments.len() - start,
                        new_call,
                    });
                }
                Command::DrawPoints { new_call, .. } => {
                    let start = points.len();
                    fill_points(pi, &mut points);
                    pi += 1;
                    commands.push(Command::DrawPoints {
                        start,
                        len: points.len() - start,
                        new_call,
                    });
                }
                Command::FillPolygon { start, len } => match fill_polys.as_mut() {
                    Some(fill) => {
                        let new_start = polys.len();
                        fill(fi, &mut polys);
                        fi += 1;
                        commands.push(Command::FillPolygon {
                            start: new_start,
                            len: polys.len() - new_start,
                        });
                    }
                    // Shape-determined polygon geometry: keep the run and
                    // its arena slice verbatim.
                    None => commands.push(Command::FillPolygon { start, len }),
                },
                ref other => commands.push(other.clone()),
            }
        }
        if fill_polys.is_none() {
            polys = self.polys.clone();
        }
        CommandList::from_parts(
            self.width,
            self.height,
            commands,
            segments,
            points,
            polys,
            self.cells.clone(),
            self.readbacks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceKind, Recorder};
    use crate::framebuffer::HALF_GRAY;
    use spatial_geom::Rect;

    fn record_pair(first: &[Segment], second: &[Segment], region: Rect) -> CommandList {
        let mut r = Recorder::new(8, 8);
        r.set_viewport(Viewport::new(region, 8, 8)).unwrap();
        r.set_color(HALF_GRAY).unwrap();
        r.clear_color();
        r.clear_accum();
        r.draw_segments(first.iter().copied()).unwrap();
        r.accum_load();
        r.clear_color();
        r.draw_segments(second.iter().copied()).unwrap();
        r.accum_add();
        r.accum_return();
        r.minmax();
        r.finish()
    }

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn instantiation_equals_cold_recording() {
        let region_a = Rect::new(0.0, 0.0, 8.0, 8.0);
        let region_b = Rect::new(2.0, 2.0, 6.0, 6.0);
        let a1 = [seg(0.0, 0.0, 8.0, 8.0)];
        let a2 = [seg(0.0, 8.0, 8.0, 0.0)];
        let b1 = [seg(2.0, 2.0, 6.0, 6.0), seg(2.0, 6.0, 6.0, 2.0)];
        let b2 = [seg(2.0, 4.0, 6.0, 4.0)];

        let cold_a = record_pair(&a1, &a2, region_a);
        let template = ListTemplate::new(&cold_a);
        assert_eq!(template.viewport_slots(), 1);
        assert_eq!(template.segment_slots(), 2);
        assert_eq!(template.point_slots(), 0);

        // Splicing a *different* pair into the skeleton must equal the
        // cold recording of that pair, command for command.
        let spliced = template.instantiate(
            &[Viewport::new(region_b, 8, 8)],
            |i, out| out.extend_from_slice(if i == 0 { &b1 } else { &b2 }),
            |_, _| {},
        );
        let cold_b = record_pair(&b1, &b2, region_b);
        assert_eq!(spliced, cold_b);

        // And it executes identically.
        let mut dev = DeviceKind::Reference.build();
        assert_eq!(
            dev.execute(&spliced).unwrap(),
            dev.execute(&cold_b).unwrap()
        );
    }

    #[test]
    fn templates_survive_fusion() {
        // Template of a fused list: elided no-ops stay elided, splice
        // slots line up with the fused tape.
        let region = Rect::new(0.0, 0.0, 8.0, 8.0);
        let mut r = Recorder::new(8, 8);
        r.set_viewport(Viewport::new(region, 8, 8)).unwrap();
        r.set_color(HALF_GRAY).unwrap();
        r.set_color(HALF_GRAY).unwrap(); // fused away
        r.draw_segments([seg(0.0, 0.0, 8.0, 8.0)]).unwrap();
        r.extend_draw_points(std::iter::empty()).unwrap(); // fused away
        r.minmax();
        let (fused, elided) = r.finish().fuse();
        assert_eq!(elided, 2);
        let t = ListTemplate::new(&fused);
        assert_eq!((t.segment_slots(), t.point_slots()), (1, 0));
        let run = [seg(1.0, 1.0, 7.0, 7.0)];
        let inst = t.instantiate(
            &[Viewport::new(region, 8, 8)],
            |_, out| out.extend_from_slice(&run),
            |_, _| {},
        );
        assert_eq!(inst.commands().len(), fused.commands().len());
    }

    #[test]
    #[should_panic(expected = "viewport splice does not match")]
    fn viewport_count_mismatch_panics() {
        let list = record_pair(
            &[seg(0.0, 0.0, 1.0, 1.0)],
            &[],
            Rect::new(0.0, 0.0, 8.0, 8.0),
        );
        ListTemplate::new(&list).instantiate(&[], |_, _| {}, |_, _| {});
    }
}
