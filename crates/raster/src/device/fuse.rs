//! Set-preserving command-stream fusion.
//!
//! Recorded choreography carries state changes that no draw ever observes:
//! a scissor/viewport pair recorded for a cell whose geometry run turned
//! out empty, a write-mode reset at the end of a strategy block, a repeated
//! `set_line_width` with the value already in effect. None of that state is
//! charged — `HwStats` counts draws, clears, scans and queries, and the
//! whole-buffer operations (clears, accumulation transfers, Minmax /
//! stencil-max / cell-max queries) do not observe the scissor, viewport,
//! color or line state at all; only draw commands do. [`CommandList::fuse`]
//! exploits exactly that charging discipline: it elides
//!
//! 1. **dead state** — a setter overwritten by another setter of the same
//!    kind before any draw executes, or never followed by a draw at all
//!    (the `SetScissor`/`SetViewport` churn of a geometry-free atlas cell);
//! 2. **no-op repeats** — a setter whose value equals the value already in
//!    effect in the fused stream (known either from an earlier kept setter
//!    or from the executor's deterministic reset state for write mode and
//!    scissor);
//! 3. **empty extend-draws** — `DrawSegments`/`DrawPoints` runs with
//!    `len == 0 && new_call == false`, which rasterize nothing and charge
//!    nothing (an empty draw with `new_call == true` still charges one
//!    draw call and is always kept).
//!
//! The pass is *set-preserving*: the fused list produces a bit-identical
//! frame buffer, identical readbacks and identical charged `HwStats` on
//! every backend (property-tested in `device_props`), so replay-driven
//! cost accounting is unchanged. Viewports are only ever elided as dead
//! state, never by value comparison — a cached skeleton
//! ([`super::ListTemplate`]) splices fresh viewports into the fused tape,
//! so the elision pattern must not depend on the viewport values
//! themselves.

use super::command::{Command, CommandList};
use crate::context::WriteMode;

/// The state-setter kinds the pass tracks, densely indexed.
const KINDS: usize = 6;

#[inline]
fn kind_of(cmd: &Command) -> Option<usize> {
    match cmd {
        Command::SetColor(_) => Some(0),
        Command::SetLineWidth(_) => Some(1),
        Command::SetPointSize(_) => Some(2),
        Command::SetWriteMode(_) => Some(3),
        Command::SetViewport(_) => Some(4),
        Command::SetScissor(_) => Some(5),
        _ => None,
    }
}

/// Only viewports are exempt from value-based no-op elision: cached
/// skeletons splice fresh viewport values into the fused tape, so the
/// tape's shape must not depend on them.
const KIND_VIEWPORT: usize = 4;

#[inline]
fn is_draw(cmd: &Command) -> bool {
    matches!(
        cmd,
        Command::DrawSegments { .. } | Command::DrawPoints { .. } | Command::FillPolygon { .. }
    )
}

impl CommandList {
    /// Returns a fused copy of this list plus the number of commands
    /// elided. See the module docs for the three elision rules; clears,
    /// accumulation ops, batch markers and every readback command are
    /// always kept, so readback slots keep their recorded indices and all
    /// charged counters are preserved bit for bit.
    pub fn fuse(&self) -> (CommandList, usize) {
        let cmds = self.commands();
        let n = cmds.len();

        // Empty extend-draws rasterize nothing and charge nothing; decide
        // them first so the observation scan below ignores them.
        let mut keep = vec![true; n];
        for (i, cmd) in cmds.iter().enumerate() {
            if let Command::DrawSegments {
                len: 0,
                new_call: false,
                ..
            }
            | Command::DrawPoints {
                len: 0,
                new_call: false,
                ..
            } = cmd
            {
                keep[i] = false;
            }
        }

        // Backward scan: for each setter, whether any kept draw executes
        // before the next setter of the same kind (or the end of the
        // stream). `observed[k]` answers that for the current position.
        let mut observed_here = vec![false; n];
        let mut observed = [false; KINDS];
        for i in (0..n).rev() {
            if keep[i] && is_draw(&cmds[i]) {
                observed = [true; KINDS];
            } else if let Some(k) = kind_of(&cmds[i]) {
                observed_here[i] = observed[k];
                observed[k] = false;
            }
        }

        // Forward scan: drop unobserved setters and observed-but-no-op
        // repeats. `known` tracks the value in effect in the *fused*
        // stream; write mode and scissor start from the executors'
        // deterministic reset state, everything else starts unknown.
        let mut known: [Option<Command>; KINDS] = [
            None,
            None,
            None,
            Some(Command::SetWriteMode(WriteMode::Overwrite)),
            None,
            Some(Command::SetScissor(None)),
        ];
        for (i, cmd) in cmds.iter().enumerate() {
            let Some(k) = kind_of(cmd) else { continue };
            if !observed_here[i] {
                keep[i] = false;
                continue;
            }
            if k != KIND_VIEWPORT && known[k].as_ref() == Some(cmd) {
                keep[i] = false;
                continue;
            }
            known[k] = Some(cmd.clone());
        }

        let fused: Vec<Command> = cmds
            .iter()
            .zip(&keep)
            .filter(|&(_, &k)| k)
            .map(|(c, _)| c.clone())
            .collect();
        let elided = n - fused.len();
        (self.with_commands(fused), elided)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::PixelRect;
    use crate::device::{DeviceKind, Recorder};
    use crate::framebuffer::HALF_GRAY;
    use crate::viewport::Viewport;
    use spatial_geom::{Point, Rect, Segment};

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    fn vp(w: usize, h: usize) -> Viewport {
        Viewport::new(Rect::new(0.0, 0.0, w as f64, h as f64), w, h)
    }

    #[test]
    fn dead_scissor_viewport_pairs_are_elided() {
        // The pre-fix atlas shape: scissor+viewport recorded for a cell,
        // then immediately re-set for the next cell with no draw between.
        let mut r = Recorder::new(16, 16);
        let dead = PixelRect {
            x: 0,
            y: 0,
            w: 4,
            h: 4,
        };
        let live = PixelRect {
            x: 8,
            y: 8,
            w: 4,
            h: 4,
        };
        r.set_scissor(Some(dead)).unwrap();
        r.set_viewport(vp(4, 4)).unwrap();
        r.set_scissor(Some(live)).unwrap();
        r.set_viewport(vp(4, 4)).unwrap();
        r.draw_segments([seg(0.0, 0.0, 4.0, 4.0)]).unwrap();
        r.set_scissor(None).unwrap(); // trailing: nothing observes it
        r.minmax();
        let (fused, elided) = r.finish().fuse();
        assert_eq!(elided, 3, "dead scissor, dead viewport, trailing lift");
        assert_eq!(
            fused.commands().len(),
            4,
            "scissor, viewport, draw, minmax survive: {fused:?}"
        );
    }

    #[test]
    fn no_op_repeats_are_elided_but_viewports_never_by_value() {
        let mut r = Recorder::new(8, 8);
        r.set_write_mode(crate::context::WriteMode::Overwrite); // reset-state no-op
        r.set_color(HALF_GRAY).unwrap();
        r.set_line_width(2.0).unwrap();
        r.set_viewport(vp(8, 8)).unwrap();
        r.draw_segments([seg(0.0, 0.0, 8.0, 8.0)]).unwrap();
        r.set_color(HALF_GRAY).unwrap(); // repeat
        r.set_line_width(2.0).unwrap(); // repeat
        r.set_viewport(vp(8, 8)).unwrap(); // same value, but observed: kept
        r.draw_segments([seg(8.0, 0.0, 0.0, 8.0)]).unwrap();
        r.minmax();
        let (fused, elided) = r.finish().fuse();
        assert_eq!(elided, 3, "write-mode no-op + two repeats: {fused:?}");
        let viewports = fused
            .commands()
            .iter()
            .filter(|c| matches!(c, Command::SetViewport(_)))
            .count();
        assert_eq!(viewports, 2, "viewport values are never fused");
    }

    #[test]
    fn empty_extends_are_elided_but_empty_draw_calls_are_kept() {
        let mut r = Recorder::new(8, 8);
        r.set_viewport(vp(8, 8)).unwrap();
        r.draw_segments(std::iter::empty()).unwrap(); // charges a draw call
        r.extend_draw_segments(std::iter::empty()).unwrap(); // charges nothing
        r.extend_draw_points(std::iter::empty()).unwrap(); // charges nothing
        r.minmax();
        let (fused, elided) = r.finish().fuse();
        assert_eq!(elided, 2);
        assert!(fused
            .commands()
            .iter()
            .any(|c| matches!(c, Command::DrawSegments { new_call: true, .. })));
    }

    #[test]
    fn fusion_preserves_execution_bit_for_bit() {
        // A list exercising every elision rule at once, checked on the
        // reference device (the cross-backend sweep lives in the
        // device_props property tests).
        let mut r = Recorder::new(16, 16);
        r.set_color(HALF_GRAY).unwrap();
        r.set_color(HALF_GRAY).unwrap();
        r.set_line_width(3.0).unwrap();
        r.clear_color();
        r.clear_accum();
        r.set_scissor(Some(PixelRect {
            x: 0,
            y: 0,
            w: 8,
            h: 8,
        }))
        .unwrap();
        r.set_viewport(vp(8, 8)).unwrap();
        r.set_scissor(Some(PixelRect {
            x: 8,
            y: 8,
            w: 8,
            h: 8,
        }))
        .unwrap();
        r.set_viewport(vp(8, 8)).unwrap();
        r.draw_segments([seg(0.0, 0.0, 8.0, 8.0)]).unwrap();
        r.extend_draw_segments(std::iter::empty()).unwrap();
        r.accum_load();
        r.clear_color();
        r.draw_segments([seg(8.0, 0.0, 0.0, 8.0)]).unwrap();
        r.accum_add();
        r.accum_return();
        r.minmax();
        r.cell_max([PixelRect {
            x: 8,
            y: 8,
            w: 8,
            h: 8,
        }])
        .unwrap();
        r.set_scissor(None).unwrap();
        let list = r.finish();
        let (fused, elided) = list.fuse();
        assert!(elided >= 4, "{elided}");
        assert_eq!(fused.readback_count(), list.readback_count());

        let mut reference = DeviceKind::Reference.build();
        let a = reference.execute(&list).unwrap();
        let b = reference.execute(&fused).unwrap();
        assert_eq!(a.stats, b.stats, "charged counters must be preserved");
        assert_eq!(a.readbacks, b.readbacks);
        assert_eq!(reference.execute(&list).unwrap().readbacks, a.readbacks);
    }

    #[test]
    fn fusing_twice_is_idempotent() {
        let mut r = Recorder::new(8, 8);
        r.set_viewport(vp(8, 8)).unwrap();
        r.set_color(HALF_GRAY).unwrap();
        r.set_color(HALF_GRAY).unwrap();
        r.draw_segments([seg(0.0, 0.0, 8.0, 8.0)]).unwrap();
        r.minmax();
        let (once, elided) = r.finish().fuse();
        assert_eq!(elided, 1);
        let (twice, again) = once.fuse();
        assert_eq!(again, 0, "a fused list has nothing left to elide");
        assert_eq!(once, twice);
    }
}
