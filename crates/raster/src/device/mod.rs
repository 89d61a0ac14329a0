//! The retained device layer: record → validate → execute → replay-cost.
//!
//! Real GPU stacks decouple *recording* work from *executing* it via
//! command buffers; this module gives the simulated hardware the same
//! shape. The lifecycle has four stations:
//!
//! 1. **Record.** A [`Recorder`] captures one submission — state changes,
//!    draws, readback queries — into flat geometry arenas and a typed
//!    command tape.
//! 2. **Validate.** Every recording call checks its arguments *up front*
//!    (window sides, viewport before draws, color, width and size limits,
//!    in-bounds scissors and cells) and returns [`RecordError`] on violation, so a finished
//!    [`CommandList`] is valid by construction and executors never
//!    re-validate on the hot path.
//! 3. **Execute.** Any [`RasterDevice`] runs the immutable list and
//!    returns an [`Execution`] — the deterministic work counters
//!    ([`HwStats`]) plus the stream's readback results, in recorded
//!    order.
//! 4. **Replay-cost.** Because execution is a pure function of the list,
//!    modeled GPU time is too: [`crate::HwCostModel::replay_cost`] prices
//!    a `CommandList` by replaying it, independent of which device (or
//!    shard) ran it for real.
//!
//! Nothing sits between the recorder and the device: the list a caller
//! records is the list an executor runs, command for command.
//!
//! One executor ships: [`ReferenceDevice`] replays the list verbatim, one
//! step of its private pipeline state per command, from a cleared window
//! and zeroed counters. It is the only code that interprets a [`Command`]
//! stream into pixels, and recording a list is the only way to have it
//! draw.
//!
//! One wrapper composes around it and must be *transparent* — same rows,
//! same counters, same readbacks as the bare executor: [`FaultDevice`]
//! injects seeded, deterministic failures ([`FaultPlan`]) so the recovery
//! ladder in `core` (retry → failover → software fallback → quarantine)
//! can be property-tested without real hardware.
//!
//! A [`DeviceKind`] describes *one* device. Shards are not a device
//! property: `core`'s hardware tester owns a pool of independent devices,
//! shard `i` built from [`DeviceKind::for_shard`], and its supervisor
//! picks which one executes each submission.
//!
//! Execution is fallible end to end — [`RasterDevice::execute`] returns
//! `Result<Execution, DeviceError>` and callers must treat any `Err` as
//! "nothing happened": no counters charged, no readbacks usable.
//!
//! **The backend contract.** [`RasterDevice`] is the seam a real backend
//! plugs into. Any implementation must be *pure* (an [`Execution`] is a
//! function of the list alone — no device history leaks in), must charge
//! [`HwStats`] by the two-level discipline documented on the trait, and
//! must produce readbacks that pass [`Execution::validate`]. Purity and
//! wrapper transparency are property-tested in
//! `crates/raster/tests/device_props.rs`; the counters and readbacks of
//! three fixed streams are pinned by value in `crates/core/tests/golden.rs`.
//! See DESIGN.md §7.

#![warn(missing_docs)]

pub(crate) mod command;
pub(crate) mod fault;
mod reference;

pub use command::{Command, CommandList, RecordError, Recorder};
pub use fault::{FaultDevice, FaultKind, FaultPlan, FaultTrigger};
pub use reference::ReferenceDevice;

use crate::framebuffer::FrameBuffer;
use crate::stats::HwStats;

/// A typed device-execution failure — the errors a real command-buffer
/// backend (driver reset, VRAM pressure, watchdog, DMA corruption) can
/// surface, and the vocabulary the supervisor in `core` recovers from.
///
/// Every variant means "this execution produced nothing usable": no
/// counter of a failed submission may be charged, and the caller either
/// retries, falls back to the exact software test, or quarantines the
/// device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceError {
    /// The rendering context was lost mid-submission (driver reset,
    /// device removal). Nothing of the execution survives.
    ContextLost,
    /// The device could not allocate the buffers the list needs.
    OutOfMemory,
    /// A readback came home malformed: missing slot, wrong slot kind,
    /// wrong cell count, or values outside the range any valid execution
    /// of the list could produce.
    ReadbackCorrupt {
        /// The readback slot where the corruption was detected.
        slot: usize,
    },
    /// The submission did not complete within the watchdog budget.
    Timeout,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::ContextLost => write!(f, "rendering context lost"),
            DeviceError::OutOfMemory => write!(f, "device out of memory"),
            DeviceError::ReadbackCorrupt { slot } => {
                write!(f, "corrupt readback in slot {slot}")
            }
            DeviceError::Timeout => write!(f, "device execution timed out"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// One readback result, in the order the queries were recorded.
#[derive(Debug, Clone, PartialEq)]
pub enum Readback {
    /// (min, max) of the color buffer.
    Minmax(f32, f32),
    /// Number of pixels whose stencil value reached the recorded
    /// threshold — the fragment count the area-of-overlap aggregation
    /// scales to world-space area.
    StencilCount(u64),
    /// Per-cell maximum values, one per recorded rectangle.
    CellMax(Vec<f32>),
}

/// What executing a [`CommandList`] produced: the hardware work charged
/// and every readback slot, indexed by the slot numbers the [`Recorder`]
/// handed out.
#[derive(Debug, Clone, PartialEq)]
pub struct Execution {
    /// The deterministic work counters this execution charged — a pure
    /// function of the list.
    pub stats: HwStats,
    /// Readback results, one per recorded query, in recording order.
    pub readbacks: Vec<Readback>,
}

impl Execution {
    /// The maximum of the Minmax readback in `slot`, or
    /// [`DeviceError::ReadbackCorrupt`] when the slot is missing or holds
    /// a different readback kind.
    pub fn max_red(&self, slot: usize) -> Result<f32, DeviceError> {
        match self.readbacks.get(slot) {
            Some(Readback::Minmax(_, mx)) => Ok(*mx),
            _ => Err(DeviceError::ReadbackCorrupt { slot }),
        }
    }

    /// The stencil-count readback in `slot`, or
    /// [`DeviceError::ReadbackCorrupt`] when the slot is missing or holds
    /// a different readback kind.
    pub fn stencil_count(&self, slot: usize) -> Result<u64, DeviceError> {
        match self.readbacks.get(slot) {
            Some(Readback::StencilCount(n)) => Ok(*n),
            _ => Err(DeviceError::ReadbackCorrupt { slot }),
        }
    }

    /// The per-cell maxima of the cell-reduction readback in `slot`, or
    /// [`DeviceError::ReadbackCorrupt`] when the slot is missing or holds
    /// a different readback kind.
    pub fn cell_max(&self, slot: usize) -> Result<&[f32], DeviceError> {
        match self.readbacks.get(slot) {
            Some(Readback::CellMax(v)) => Ok(v),
            _ => Err(DeviceError::ReadbackCorrupt { slot }),
        }
    }

    /// Post-execution sanity validation against the list that produced
    /// this execution. Checks what a caller can check without re-executing:
    ///
    /// * the readback count matches the recorded query count (a cell
    ///   readback's value count matches its recorded cell count);
    /// * every slot holds the readback kind its query recorded;
    /// * every color value lies in `[0, 1]`, the range a valid execution
    ///   can produce — clears write black, the accumulation return clamps
    ///   at 1.0, and overwrite writes recorded colors, which the
    ///   [`Recorder`] refuses outside that range;
    /// * no stencil count exceeds the window's pixel count.
    ///
    /// This is how the supervisor catches corrupted readbacks (bit-flips
    /// on the readback path) that a `Result`-returning `execute` alone
    /// cannot see.
    pub fn validate(&self, list: &CommandList) -> Result<(), DeviceError> {
        if self.readbacks.len() != list.readback_count() {
            return Err(DeviceError::ReadbackCorrupt {
                slot: self.readbacks.len().min(list.readback_count()),
            });
        }
        let in_range = |v: f32| (0.0..=1.0).contains(&v);
        let mut slot = 0usize;
        for cmd in list.commands() {
            let ok = match *cmd {
                Command::Minmax => match &self.readbacks[slot] {
                    Readback::Minmax(mn, mx) => in_range(*mn) && in_range(*mx) && mn <= mx,
                    _ => false,
                },
                Command::StencilCount { .. } => match &self.readbacks[slot] {
                    // No valid execution can count more covered pixels
                    // than the window holds.
                    Readback::StencilCount(n) => *n <= (list.width() * list.height()) as u64,
                    _ => false,
                },
                Command::CellMax { len, .. } => match &self.readbacks[slot] {
                    Readback::CellMax(vals) => {
                        vals.len() == len && vals.iter().all(|&v| in_range(v))
                    }
                    _ => false,
                },
                _ => continue,
            };
            if !ok {
                return Err(DeviceError::ReadbackCorrupt { slot });
            }
            slot += 1;
        }
        Ok(())
    }
}

/// An executor for recorded command streams.
///
/// The contract, in full (see also the module docs):
///
/// * [`RasterDevice::execute`] starts from a cleared window — device
///   history must never leak into results (purity: executing the same
///   list twice yields equal [`Execution`]s);
/// * the wrapper ([`FaultDevice`]) is **transparent** off its fault
///   schedule: every readback, every [`HwStats`] counter and the
///   [`RasterDevice::snapshot`] framebuffer equal the wrapped device's;
/// * counters follow the two-level charging discipline: command-level
///   work (`draw_calls`, `primitives`, `minmax_queries`, `batches`) is
///   charged once per list, fragment-level work (`fragments_tested`,
///   `pixels_written`, `pixels_scanned`) once per fragment or scanned
///   pixel, exactly as [`ReferenceDevice`] charges it.
pub trait RasterDevice: Send + std::fmt::Debug {
    /// Executes `list` from a cleared window and returns the work charged
    /// plus all readbacks. Counters are a pure function of the list:
    /// executing the same list twice yields equal [`Execution`]s.
    ///
    /// An `Err` means the execution produced nothing usable — none of its
    /// work may be charged, and a later `execute` on the same device must
    /// still start from a cleared window (failures never leak state into
    /// subsequent results). The simulated executor is infallible; the
    /// fallible signature is the seam real backends (and the fault
    /// injector) plug into.
    fn execute(&mut self, list: &CommandList) -> Result<Execution, DeviceError>;

    /// The final framebuffer of the most recent [`RasterDevice::execute`],
    /// if any — for equivalence tests and debugging dumps, not for the
    /// query hot path (readback is what Minmax exists to avoid).
    fn snapshot(&self) -> Option<FrameBuffer>;
}

/// A buildable selection for *one* device — the configuration-level knob
/// `core`'s engine exposes (`EngineConfig.device`). How many devices a
/// query fans out to is the engine's `EngineConfig::shards`, never a
/// property of the kind: the hardware tester builds its per-shard pool
/// from [`DeviceKind::for_shard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceKind {
    /// The executor: [`ReferenceDevice`] replay.
    #[default]
    Reference,
    /// [`FaultDevice`]: the reference executor behind a seeded,
    /// deterministic fault injector. Carried through `EngineConfig.device`
    /// into every shard of the hardware tester's pool
    /// ([`DeviceKind::for_shard`]).
    Fault(FaultPlan),
}

impl DeviceKind {
    /// Instantiates the selected executor.
    pub fn build(self) -> Box<dyn RasterDevice> {
        let reference = Box::new(ReferenceDevice::new());
        match self {
            DeviceKind::Reference => reference,
            DeviceKind::Fault(plan) => Box::new(FaultDevice::new(reference, plan)),
        }
    }

    /// The reference executor under the fault schedule `plan` — a
    /// [`DeviceKind::Fault`]. A kind describes one injector, so a plan
    /// `self` already carried is replaced.
    pub fn with_faults(self, plan: FaultPlan) -> DeviceKind {
        DeviceKind::Fault(plan)
    }

    /// The kind shard `shard` of a device pool instantiates: a fault plan
    /// targeted at a *different* shard ([`FaultPlan::on_shard`]) is
    /// stripped, and any other plan keeps its trigger schedule but gets a
    /// shard-salted seed (`FaultPlan::salted`) so each shard's injector
    /// draws independent per-fault choices. Shard 0 keeps an untargeted
    /// plan verbatim, so a one-shard pool faults exactly like the flat
    /// device.
    pub fn for_shard(self, shard: usize) -> DeviceKind {
        match self {
            DeviceKind::Fault(plan) if plan.shard.is_none_or(|target| target == shard) => {
                DeviceKind::Fault(plan.salted(shard))
            }
            _ => DeviceKind::Reference,
        }
    }
}
