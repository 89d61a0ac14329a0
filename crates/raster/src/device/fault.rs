//! Deterministic fault injection: any inner device, a seeded schedule.
//!
//! A real GPU behind [`RasterDevice`] will eventually lose its context,
//! run out of memory, trip the watchdog, or hand back a corrupted
//! readback. [`FaultDevice`] manufactures exactly those failures on a
//! schedule that is a pure function of a [`FaultPlan`] and the submission
//! history — never of wall clock, thread timing, or randomness drawn at
//! execution time — so a test that injects faults is as reproducible as
//! one that doesn't.
//!
//! Two failure shapes exist:
//!
//! * **submission failures** ([`FaultKind::ContextLost`],
//!   [`FaultKind::OutOfMemory`], [`FaultKind::Timeout`]) return `Err`
//!   *without executing* the inner device — the canonical "nothing
//!   happened" failure the supervisor retries;
//! * **readback corruption** ([`FaultKind::ReadbackBitFlip`]) executes
//!   the inner device, then flips the sign and exponent bits of one
//!   float readback chosen by a seeded hash. The execution *looks*
//!   successful; only [`super::Execution::validate`] catches it — which
//!   is precisely the hole that validation exists to close. The flip
//!   turns any valid value (a number in `[0, 1]`) negative or
//!   non-finite, so every injected flip is detectable.
//!
//! Faults scheduled onto a list with no float readbacks (the overlap
//! count's stencil-count streams) surface as an immediate
//! [`DeviceError::ReadbackCorrupt`] instead of silently not firing, so a
//! plan's fault count never depends on the readback kind.

use super::command::CommandList;
use super::{DeviceError, Execution, RasterDevice, Readback};
use crate::framebuffer::FrameBuffer;

/// Which failure a scheduled fault manifests as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The submission fails with [`DeviceError::ContextLost`].
    ContextLost,
    /// The submission fails with [`DeviceError::OutOfMemory`].
    OutOfMemory,
    /// The submission fails with [`DeviceError::Timeout`].
    Timeout,
    /// The submission "succeeds" but one readback float comes back with
    /// flipped sign/exponent bits — detectable only by
    /// [`super::Execution::validate`].
    ReadbackBitFlip,
}

/// When a plan's fault fires, counted over this device's submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTrigger {
    /// Fault the `n`-th execute (0-based), once; retries (which are later
    /// executes) succeed.
    OnExecute(u64),
    /// Fault the execute during which the cumulative replayed command
    /// count crosses `n`, once.
    OnCommand(u64),
    /// Fault every `k`-th execute (`k ≥ 1`), forever — the schedule that
    /// drives retries into the circuit breaker when `k = 1`.
    EveryK(u64),
}

/// A seeded, deterministic fault schedule: what fails, when, and the seed
/// that picks *which* float a bit-flip corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed for the per-fault choices (corrupted-float selection).
    pub seed: u64,
    /// The failure every scheduled fault manifests as.
    pub kind: FaultKind,
    /// When faults fire.
    pub trigger: FaultTrigger,
    /// Restricts the schedule to one shard of a device pool: when
    /// [`super::DeviceKind::for_shard`] builds shard `i`, a plan targeting
    /// `Some(s)` with `s != i` is stripped entirely, so only shard `s`
    /// faults. `None` (the default) schedules faults on every shard.
    pub shard: Option<usize>,
}

impl FaultPlan {
    /// A plan faulting as `kind` whenever `trigger` fires, seeded for the
    /// per-fault choices, on every shard it is instantiated for.
    pub fn new(seed: u64, kind: FaultKind, trigger: FaultTrigger) -> Self {
        FaultPlan {
            seed,
            kind,
            trigger,
            shard: None,
        }
    }

    /// The same plan restricted to shard `shard` of a device pool —
    /// the chaos-test shape "exactly one shard is sick".
    pub fn on_shard(self, shard: usize) -> Self {
        FaultPlan {
            shard: Some(shard),
            ..self
        }
    }

    /// The same schedule with the per-fault choices (which float a
    /// bit-flip corrupts) decorrelated for shard `shard`. The trigger is
    /// untouched — *when* faults fire stays identical across shards —
    /// and shard 0 keeps the original seed, so a one-shard pool replays
    /// the flat plan bit for bit.
    pub(crate) fn salted(self, shard: usize) -> Self {
        FaultPlan {
            seed: self.seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..self
        }
    }
}

/// SplitMix64 — the standard 64-bit finalizer; enough to decorrelate the
/// corrupted-float choice from the seed and submission index.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Flips the sign and exponent bits of the `target`-th float across the
/// execution's Minmax/CellMax readbacks. Returns `false` when the
/// execution has no float readbacks to corrupt.
fn flip_float(readbacks: &mut [Readback], mut target: u64) -> bool {
    let floats: u64 = readbacks
        .iter()
        .map(|r| match r {
            Readback::Minmax(..) => 2u64,
            Readback::CellMax(v) => v.len() as u64,
            // Integer readbacks carry no floats: scheduled flips on a
            // stencil-only stream surface as ReadbackCorrupt instead.
            Readback::StencilCount(_) => 0,
        })
        .sum();
    if floats == 0 {
        return false;
    }
    target %= floats;
    let corrupt = |v: &mut f32| *v = f32::from_bits(v.to_bits() ^ 0xFF80_0000);
    for r in readbacks.iter_mut() {
        match r {
            Readback::Minmax(mn, mx) => {
                if target < 2 {
                    corrupt(if target == 0 { mn } else { mx });
                    return true;
                }
                target -= 2;
            }
            Readback::CellMax(vals) => {
                if (target as usize) < vals.len() {
                    corrupt(&mut vals[target as usize]);
                    return true;
                }
                target -= vals.len() as u64;
            }
            Readback::StencilCount(_) => {}
        }
    }
    unreachable!("target reduced modulo the total float count")
}

/// A [`RasterDevice`] wrapper that injects the faults its [`FaultPlan`]
/// schedules and otherwise delegates to the inner device verbatim.
///
/// Submission-failure faults never reach the inner device, so a failed
/// execute charges nothing and leaks nothing — the purity contract of
/// [`RasterDevice::execute`] holds across failures by construction.
#[derive(Debug)]
pub struct FaultDevice {
    inner: Box<dyn RasterDevice>,
    plan: FaultPlan,
    /// Executes attempted so far (faulted ones included).
    executes: u64,
    /// Cumulative command count across attempted executes.
    commands: u64,
}

impl FaultDevice {
    /// Wraps `inner` under the given schedule.
    pub fn new(inner: Box<dyn RasterDevice>, plan: FaultPlan) -> Self {
        FaultDevice {
            inner,
            plan,
            executes: 0,
            commands: 0,
        }
    }
}

impl RasterDevice for FaultDevice {
    fn execute(&mut self, list: &CommandList) -> Result<Execution, DeviceError> {
        let index = self.executes;
        let before = self.commands;
        self.executes += 1;
        self.commands += list.commands().len() as u64;
        let fires = match self.plan.trigger {
            FaultTrigger::OnExecute(n) => index == n,
            FaultTrigger::OnCommand(n) => before <= n && n < self.commands,
            FaultTrigger::EveryK(k) => k > 0 && (index + 1).is_multiple_of(k),
        };
        if !fires {
            return self.inner.execute(list);
        }
        match self.plan.kind {
            FaultKind::ContextLost => Err(DeviceError::ContextLost),
            FaultKind::OutOfMemory => Err(DeviceError::OutOfMemory),
            FaultKind::Timeout => Err(DeviceError::Timeout),
            FaultKind::ReadbackBitFlip => {
                let mut exec = self.inner.execute(list)?;
                let target = splitmix64(self.plan.seed ^ index.wrapping_mul(0x2545_F491_4F6C_DD1D));
                if flip_float(&mut exec.readbacks, target) {
                    Ok(exec)
                } else {
                    // No float readbacks to corrupt: surface the scheduled
                    // fault as detected-at-readback instead of skipping it.
                    Err(DeviceError::ReadbackCorrupt { slot: 0 })
                }
            }
        }
    }

    fn snapshot(&self) -> Option<FrameBuffer> {
        self.inner.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{DeviceKind, Recorder};
    use super::*;
    use crate::framebuffer::HALF_GRAY;
    use crate::viewport::Viewport;
    use spatial_geom::{Rect, Segment};

    fn minmax_list() -> (CommandList, usize) {
        let mut rec = Recorder::new(8, 8).unwrap();
        rec.set_viewport(Viewport::new(Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8))
            .unwrap();
        rec.set_color(HALF_GRAY).unwrap();
        rec.clear_color();
        rec.draw_segments([Segment::new((1.0, 1.0).into(), (7.0, 7.0).into())])
            .unwrap();
        let slot = rec.minmax();
        (rec.finish(), slot)
    }

    #[test]
    fn submission_faults_fire_on_schedule_and_clear() {
        let plan = FaultPlan::new(7, FaultKind::ContextLost, FaultTrigger::OnExecute(1));
        let mut dev = FaultDevice::new(DeviceKind::Reference.build(), plan);
        let (list, _) = minmax_list();
        let first = dev.execute(&list).expect("execute 0 is clean");
        assert_eq!(dev.execute(&list), Err(DeviceError::ContextLost));
        let third = dev.execute(&list).expect("faults do not stick");
        assert_eq!(first, third, "failed executes must not leak state");
    }

    #[test]
    fn every_k_faults_repeat() {
        let plan = FaultPlan::new(0, FaultKind::OutOfMemory, FaultTrigger::EveryK(2));
        let mut dev = FaultDevice::new(DeviceKind::Reference.build(), plan);
        let (list, _) = minmax_list();
        for i in 0..6u64 {
            let r = dev.execute(&list);
            assert_eq!(r.is_err(), i % 2 == 1, "execute {i}");
        }
    }

    #[test]
    fn bit_flips_are_caught_by_validation_for_any_seed() {
        let (list, slot) = minmax_list();
        let clean = DeviceKind::Reference
            .build()
            .execute(&list)
            .expect("reference is infallible");
        clean.validate(&list).expect("clean run validates");
        for seed in 0..64u64 {
            let plan = FaultPlan::new(seed, FaultKind::ReadbackBitFlip, FaultTrigger::OnExecute(0));
            let mut dev = FaultDevice::new(DeviceKind::Reference.build(), plan);
            let exec = dev.execute(&list).expect("bit-flip looks successful");
            assert!(
                exec.validate(&list).is_err(),
                "seed {seed}: corrupted execution must not validate"
            );
            // The corrupted value is unusable, but the slot still holds a
            // Minmax readback, so the typed accessor itself succeeds.
            let _ = exec.max_red(slot);
        }
    }

    #[test]
    fn accessors_return_typed_errors_on_kind_mismatch() {
        let (list, slot) = minmax_list();
        let exec = DeviceKind::Reference.build().execute(&list).unwrap();
        assert!(exec.max_red(slot).is_ok());
        assert_eq!(
            exec.stencil_count(slot),
            Err(DeviceError::ReadbackCorrupt { slot })
        );
        assert_eq!(
            exec.cell_max(slot),
            Err(DeviceError::ReadbackCorrupt { slot })
        );
        assert_eq!(
            exec.max_red(slot + 5),
            Err(DeviceError::ReadbackCorrupt { slot: slot + 5 })
        );
    }

    #[test]
    fn fault_device_kind_builds_an_injector() {
        let plan = FaultPlan::new(3, FaultKind::Timeout, FaultTrigger::EveryK(1));
        let kind = DeviceKind::Reference.with_faults(plan);
        assert_eq!(kind, DeviceKind::Fault(plan));
        let mut dev = kind.build();
        let (list, _) = minmax_list();
        assert_eq!(dev.execute(&list), Err(DeviceError::Timeout));
    }

    #[test]
    fn every_shard_matches_the_reference() {
        let (list, _) = minmax_list();
        let reference = DeviceKind::Reference.build().execute(&list).unwrap();
        for shard in 0..3 {
            let mut dev = DeviceKind::Reference.for_shard(shard).build();
            assert_eq!(dev.execute(&list).unwrap(), reference, "shard {shard}");
        }
    }

    #[test]
    fn shards_have_independent_fault_schedules() {
        let plan = FaultPlan::new(11, FaultKind::ContextLost, FaultTrigger::OnExecute(0));
        let kind = DeviceKind::Reference.with_faults(plan);
        let (list, _) = minmax_list();
        // Each shard's injector counts its own submissions: the first
        // execute on *each* shard faults, the second succeeds.
        let mut pool: Vec<_> = (0..2).map(|i| kind.for_shard(i).build()).collect();
        for (shard, dev) in pool.iter_mut().enumerate() {
            assert_eq!(dev.execute(&list), Err(DeviceError::ContextLost));
            assert!(dev.execute(&list).is_ok(), "shard {shard} retry");
        }
    }

    #[test]
    fn targeted_plans_fault_only_their_shard() {
        let plan = FaultPlan::new(5, FaultKind::Timeout, FaultTrigger::EveryK(1)).on_shard(1);
        let kind = DeviceKind::Reference.with_faults(plan);
        let (list, _) = minmax_list();
        for shard in 0..3 {
            let r = kind.for_shard(shard).build().execute(&list);
            assert_eq!(r.is_err(), shard == 1, "shard {shard}");
        }
    }
}
