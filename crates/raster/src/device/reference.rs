//! The executor: verbatim replay of a [`CommandList`].
//!
//! In the record→validate→execute→replay-cost lifecycle this is the
//! *execute* station: one [`GlContext`] step per recorded command, nothing
//! reordered, nothing fused. A future backend's obligation (see
//! [`crate::device`]) is defined against this replay.

use super::command::CommandList;
use super::{DeviceError, Execution, RasterDevice};
use crate::context::GlContext;
use crate::framebuffer::FrameBuffer;

/// Replays command lists into a frame buffer that is kept across
/// executions and reused whenever the window size repeats: a
/// per-candidate-pair allocation would dominate at small resolutions.
#[derive(Debug, Default)]
pub struct ReferenceDevice {
    fb: Option<FrameBuffer>,
}

impl ReferenceDevice {
    /// A fresh device; the frame buffer is allocated on first execute.
    pub fn new() -> Self {
        ReferenceDevice { fb: None }
    }
}

impl RasterDevice for ReferenceDevice {
    fn execute(&mut self, list: &CommandList) -> Result<Execution, DeviceError> {
        let (w, h) = (list.width(), list.height());
        // The one reset per execute, uncharged: the list's own recorded
        // clears pay for clearing, so the charged stats are a pure
        // function of the list.
        let fb = match &mut self.fb {
            Some(fb) if (fb.width(), fb.height()) == (w, h) => {
                fb.reset();
                fb
            }
            slot => slot.insert(FrameBuffer::new(w, h)),
        };
        Ok(GlContext::new(fb).execute(list))
    }

    fn snapshot(&self) -> Option<FrameBuffer> {
        self.fb.clone()
    }
}
