//! Sharded execution: K independent inner backends behind one device.
//!
//! The partitioned query path (DESIGN.md §11) splits a join into grid
//! cells and dispatches each partition's command lists to its own device
//! instance — its own board, machine, or simulated backend.
//! [`ShardedDevice`] is that fan-out point: it owns `K` inner executors
//! built from one [`DeviceKind`] (any kind, including `Fault`-wrapped
//! ones, so every shard gets its own deterministically seeded injector —
//! see [`DeviceKind::for_shard`] — and the whole ensemble stays
//! deterministic), and routes each submission to the shard selected by
//! the most recent [`RasterDevice::route`] call.
//!
//! Routing is state the *caller* owns: partition `p` routes to shard
//! `p % K`, a pure function of the partition index, never of thread
//! timing. So is shard *health*: the supervisor in `core` keeps one
//! breaker per shard, rehashes a submission aimed at an open one over the
//! usable set with [`failover_route`] — still a pure function of (index,
//! mask), so failover is exactly as deterministic as the happy path
//! (DESIGN.md §13) — and routes to the result; this device lands a route
//! where it is told. Each shard is an ordinary [`RasterDevice`] and
//! keeps the purity contract (same list → same [`Execution`]), so the
//! ensemble is as deterministic as its parts.
//!
//! Cross-shard results are combined with [`ShardedDevice::merge`], which
//! folds a sequence of per-partition executions *in the order given* —
//! counters summed, readbacks concatenated: a fixed walk order makes the
//! merged stats independent of which shard finished first. The staged executor in `core` merges per-partition
//! `TestStats`/`CostBreakdown` the same way, in ascending partition
//! order (invariant 12).
//!
//! # Example
//!
//! ```
//! use spatial_raster::device::{DeviceKind, RasterDevice, Recorder, ShardedDevice};
//!
//! // Record once; execute on whichever shard the partition routes to.
//! let mut rec = Recorder::new(4, 4);
//! rec.clear_color();
//! rec.minmax();
//! let list = rec.finish();
//!
//! let mut dev = ShardedDevice::new(&DeviceKind::Reference, 2);
//! dev.route(3); // partition 3 → shard 3 % 2 = 1, a pure function of the index
//! assert_eq!(dev.active(), 1);
//!
//! let exec = dev.execute(&list).unwrap();
//! assert_eq!(exec.readbacks.len(), 1);
//!
//! // Per-partition executions merge in the order given (ascending
//! // partition order in the engine), so stats are completion-order-free.
//! let merged = ShardedDevice::merge([exec]);
//! assert_eq!(merged.stats.minmax_queries, 1);
//! ```

use super::command::CommandList;
use super::{DeviceError, DeviceKind, Execution, RasterDevice};
use crate::framebuffer::FrameBuffer;
use crate::stats::HwStats;

/// The stable rehash the failover tier routes by: starting at `desired`,
/// walk shard indices in order (wrapping) and return the first healthy
/// one, or `None` when no shard is healthy. A pure function of its
/// arguments — the same desired shard and health mask always pick the
/// same physical shard, so failover never depends on submission history
/// or thread timing, and a fully healthy mask is the identity
/// (`desired % len`).
pub fn failover_route(desired: usize, healthy: &[bool]) -> Option<usize> {
    let n = healthy.len();
    if n == 0 {
        return None;
    }
    (0..n)
        .map(|step| (desired + step) % n)
        .find(|&s| healthy[s])
}

/// K independent inner backends behind one [`RasterDevice`] front.
///
/// Submissions execute on the *active* shard — shard 0 until the first
/// [`RasterDevice::route`] call. Shards share nothing: each has its own
/// framebuffer, its own fault-injection schedule when the inner kind is
/// `Fault`-wrapped, and its own submission history. Shard `i` is built
/// from [`DeviceKind::for_shard`], so an untargeted fault plan salts its
/// per-fault seed per shard and a [`super::FaultPlan::on_shard`] plan
/// faults exactly one shard.
#[derive(Debug)]
pub struct ShardedDevice {
    shards: Vec<Box<dyn RasterDevice>>,
    active: usize,
}

impl ShardedDevice {
    /// Builds `shards` independent instances of `inner` (clamped to at
    /// least one).
    pub fn new(inner: &DeviceKind, shards: usize) -> Self {
        let n = shards.max(1);
        ShardedDevice {
            shards: (0..n).map(|i| inner.for_shard(i).build()).collect(),
            active: 0,
        }
    }

    /// How many inner backends this device owns.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index submissions currently execute on.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Folds per-partition executions into one, **in the order given**:
    /// [`HwStats`] counters are summed and readbacks concatenated.
    /// Callers merging partitions must iterate in ascending partition
    /// order so the result is independent of shard completion timing.
    pub fn merge(executions: impl IntoIterator<Item = Execution>) -> Execution {
        let mut merged = Execution {
            stats: HwStats::default(),
            readbacks: Vec::new(),
        };
        for exec in executions {
            merged.stats.add(&exec.stats);
            merged.readbacks.extend(exec.readbacks);
        }
        merged
    }
}

impl RasterDevice for ShardedDevice {
    fn name(&self) -> &'static str {
        "sharded"
    }

    fn execute(&mut self, list: &CommandList) -> Result<Execution, DeviceError> {
        self.shards[self.active].execute(list)
    }

    fn route(&mut self, shard: usize) {
        self.active = shard % self.shards.len();
    }

    fn shards(&self) -> usize {
        self.shards.len()
    }

    fn snapshot(&self) -> Option<FrameBuffer> {
        self.shards[self.active].snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::super::Recorder;
    use super::*;
    use crate::framebuffer::HALF_GRAY;
    use crate::viewport::Viewport;
    use spatial_geom::{Rect, Segment};

    fn minmax_list() -> CommandList {
        let mut rec = Recorder::new(8, 8);
        rec.set_viewport(Viewport::new(Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8))
            .unwrap();
        rec.set_color(HALF_GRAY).unwrap();
        rec.clear_color();
        rec.draw_segments([Segment::new((1.0, 1.0).into(), (7.0, 7.0).into())])
            .unwrap();
        rec.minmax();
        rec.finish()
    }

    #[test]
    fn every_shard_matches_the_reference() {
        let list = minmax_list();
        let reference = DeviceKind::Reference.build().execute(&list).unwrap();
        let mut dev = ShardedDevice::new(&DeviceKind::Reference, 3);
        for shard in 0..7 {
            dev.route(shard);
            assert_eq!(dev.active(), shard % 3);
            assert_eq!(dev.execute(&list).unwrap(), reference, "shard {shard}");
        }
    }

    #[test]
    fn shards_have_independent_fault_schedules() {
        use super::super::{FaultKind, FaultPlan, FaultTrigger};
        let plan = FaultPlan::new(11, FaultKind::ContextLost, FaultTrigger::OnExecute(0));
        let kind = DeviceKind::Reference.with_faults(plan);
        let mut dev = ShardedDevice::new(&kind, 2);
        let list = minmax_list();
        // Each shard's injector counts its own submissions: the first
        // execute on *each* shard faults, the second succeeds.
        for shard in 0..2 {
            dev.route(shard);
            assert_eq!(dev.execute(&list), Err(DeviceError::ContextLost));
            assert!(dev.execute(&list).is_ok(), "shard {shard} retry");
        }
    }

    #[test]
    fn merge_sums_counters_and_concatenates_readbacks_in_order() {
        let list = minmax_list();
        let one = DeviceKind::Reference.build().execute(&list).unwrap();
        let merged = ShardedDevice::merge([one.clone(), one.clone(), one.clone()]);
        assert_eq!(merged.readbacks.len(), 3 * one.readbacks.len());
        assert_eq!(merged.stats.draw_calls, 3 * one.stats.draw_calls);
        assert_eq!(merged.readbacks[0], one.readbacks[0]);
    }

    #[test]
    fn zero_shard_request_clamps_to_one() {
        let dev = ShardedDevice::new(&DeviceKind::Reference, 0);
        assert_eq!(dev.shards(), 1);
    }

    #[test]
    fn failover_route_is_a_stable_rehash() {
        assert_eq!(failover_route(2, &[true, true, true, true]), Some(2));
        assert_eq!(failover_route(2, &[true, true, false, true]), Some(3));
        assert_eq!(failover_route(3, &[true, false, false, false]), Some(0));
        assert_eq!(failover_route(1, &[false, false]), None);
        assert_eq!(failover_route(0, &[]), None);
        // Indices past the mask length wrap like route() does.
        assert_eq!(failover_route(6, &[true, false, true]), Some(0));
    }

    #[test]
    fn targeted_plans_fault_only_their_shard() {
        use super::super::{FaultKind, FaultPlan, FaultTrigger};
        let plan = FaultPlan::new(5, FaultKind::Timeout, FaultTrigger::EveryK(1)).on_shard(1);
        let kind = DeviceKind::Reference.with_faults(plan);
        let mut dev = ShardedDevice::new(&kind, 3);
        let list = minmax_list();
        for shard in 0..3 {
            dev.route(shard);
            let r = dev.execute(&list);
            assert_eq!(r.is_err(), shard == 1, "shard {shard}");
        }
    }

    #[test]
    fn sharded_kind_builds_and_routes() {
        let kind = DeviceKind::Reference.sharded(4);
        let mut dev = kind.build();
        assert_eq!(dev.name(), "sharded");
        let list = minmax_list();
        dev.route(3);
        let reference = DeviceKind::Reference.build().execute(&list).unwrap();
        assert_eq!(dev.execute(&list).unwrap(), reference);
    }
}
