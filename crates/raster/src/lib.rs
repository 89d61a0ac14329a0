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
//!   a stencil plane (9 bytes per pixel) with the accumulation operations
//!   of Algorithm 3.1, the stencil writes and count of the overlap-area
//!   query, and the Minmax query the paper uses to avoid pixel readback
//!   (§3.2) ([`framebuffer`]).
//!
//! Callers drive all of the above one way: a [`Recorder`] records the
//! steps of a choreography — set color, render edges, accumulate, minmax —
//! into a validated [`CommandList`], and a [`RasterDevice`] executes it
//! ([`ReferenceDevice`] replays it command by command). [`HwStats`] counts
//! pixels written, fragments tested and buffer scans — the deterministic
//! cost model that stands in for GPU time and makes the
//! resolution/overhead trade-off of Figures 11–13 reproducible on any
//! host.

#![forbid(unsafe_code)]

pub mod aa_line;
pub mod atlas;
pub(crate) mod context;
pub(crate) mod cost_model;
pub(crate) mod cover;
pub(crate) mod device;
pub mod framebuffer;
pub mod point_raster;
pub mod polygon_raster;
pub mod ppm;
pub(crate) mod scan;
pub(crate) mod stats;
pub(crate) mod viewport;

pub use atlas::{AtlasCell, AtlasJob};
pub use context::{OverlapStrategy, PixelRect, WriteMode, MAX_AA_LINE_WIDTH, MAX_WINDOW_SIDE};
pub use cost_model::HwCostModel;
pub use device::{
    Command, CommandList, DeviceError, DeviceKind, Execution, FaultDevice, FaultKind, FaultPlan,
    FaultTrigger, RasterDevice, Readback, RecordError, Recorder, ReferenceDevice,
};
pub use framebuffer::FrameBuffer;
pub use stats::HwStats;
pub use viewport::Viewport;
