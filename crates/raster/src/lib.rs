//! Software simulation of the graphics hardware the paper runs on.
//!
//! The paper's accuracy guarantee (§2.2) rests entirely on the *OpenGL
//! specification rasterization rules*, not on any particular GPU:
//!
//! * **smooth point rasterization** — every pixel the diameter-`w` disc
//!   touches receives the point color ([`point_raster`]);
//! * **anti-aliased line rasterization** — a width-`w` bounding rectangle;
//!   with blending disabled, every pixel the rectangle touches receives the
//!   full line color ([`aa_line`]). This is the load-bearing rule: it makes
//!   the hardware segment test conservative (no false "disjoint" answers);
//! * **polygon rasterization** — pixel-center rule with shared edges
//!   rendered exactly once ([`polygon_raster`]);
//! * **frame buffers** — one-intensity color and accumulation planes and
//!   a stencil plane (9 bytes per pixel) with the operations Hoff et al.
//!   enumerate for overlap detection, plus the Minmax query the paper uses
//!   to avoid pixel readback (§3.2) ([`framebuffer`]).
//!
//! [`context::GlContext`] is a stateful OpenGL-style façade over all of the
//! above, so the hardware-assisted algorithms in `hwa-core` read like the
//! paper's pseudo-code. [`stats::HwStats`] counts pixels written, fragments
//! tested and buffer scans — the deterministic cost model that stands in
//! for GPU time and makes the resolution/overhead trade-off of Figures
//! 11–13 reproducible on any host.

#![forbid(unsafe_code)]

pub mod aa_line;
pub mod atlas;
pub mod context;
pub mod cost_model;
pub(crate) mod cover;
pub mod device;
pub mod framebuffer;
pub mod point_raster;
pub mod polygon_raster;
pub mod ppm;
pub(crate) mod scan;
pub mod stats;
pub mod viewport;

pub use atlas::{AtlasCell, AtlasJob};
pub use context::{
    GlContext, OverlapStrategy, PixelRect, WriteMode, MAX_AA_LINE_WIDTH, MAX_POINT_SIZE,
};
pub use cost_model::HwCostModel;
pub use device::{
    Command, CommandList, DeviceError, DeviceKind, Execution, FaultDevice, FaultKind, FaultPlan,
    FaultTrigger, RasterDevice, Readback, RecordError, Recorder, ReferenceDevice,
};
pub use framebuffer::FrameBuffer;
pub use stats::HwStats;
pub use viewport::Viewport;
