//! Supervised device submission: bounded retry, modeled backoff, per-shard
//! circuit breakers with failover, and half-open probation — the middle
//! rungs of the degradation ladder.
//!
//! The ladder (DESIGN.md §8, §13) runs: **submit → validate → retry (with
//! modeled backoff) → shard failover → probation → quarantine → software
//! fallback**. This module owns every rung but the last; the callers in
//! `hw_intersect`, `hw_distance` and `hw_batch` own that one, because only
//! they know the exact software test that answers the pair the device
//! could not.
//!
//! The supervisor keeps one breaker *per device shard* — per entry of the
//! tester's device pool, one device per `EngineConfig::shards` — and
//! picks the device each submission executes on: every submission is
//! aimed at shard 0, and runs there while its breaker is closed,
//! otherwise on the lowest-index healthy shard (`failover_route`) instead
//! of falling straight to software; only when *every* breaker is open are
//! submissions refused.
//! With [`RecoveryPolicy::probation_ns`] set, an open breaker ripens after
//! a charged cool-down on the supervisor's modeled clock, and the next
//! submission that reaches that shard is let through as a half-open
//! *probe*: success closes the breaker, failure re-opens it for another
//! cool-down.
//!
//! Three properties the whole fault-tolerance story rests on:
//!
//! * **No wall-clock sleeps.** Retry backoff and probation cool-downs are
//!   *charged*, not slept: each adds to `recovery_ns` in [`TestStats`],
//!   and the executor folds that into reported geometry time exactly like
//!   `gpu_modeled`. The probation clock advances on *modeled* time
//!   (charged backoffs plus modeled execution time), so runs stay
//!   deterministic and fast while the accounting still shows what
//!   recovery would have cost.
//! * **Failed submissions charge nothing else.** A faulted execute adds no
//!   hardware counters, so a retry-recovered run is bit-identical to a
//!   clean run everywhere except the recovery counters themselves — the
//!   headline property `fault_props` pins across all four pipelines.
//! * **Failover moves work, never results.** Every shard computes the
//!   same [`Execution`] for the same list (the bit-identity invariant),
//!   so rerouting changes only the routing counters — the invariant-14
//!   ledger `hw_tests + fallback_tests == clean hw_tests` balances under
//!   any schedule (`chaos_props`).

use crate::stats::TestStats;
use spatial_raster::{CommandList, DeviceError, Execution, RasterDevice};

/// Retry/quarantine/probation policy for supervised submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Resubmissions attempted after the first fault of a submission
    /// (so a submission touches the device at most `1 + max_retries`
    /// times).
    pub max_retries: u32,
    /// Modeled backoff before the first retry, in nanoseconds; doubles per
    /// subsequent retry of the same submission (saturating). Charged to
    /// [`TestStats::recovery_ns`], never slept.
    pub backoff_ns: u64,
    /// Consecutive faulted *submissions* (retries exhausted) after which
    /// a shard's breaker opens and submissions stop touching that shard.
    /// `0` disables the breaker.
    pub quarantine_after: u32,
    /// Half-open probation: the modeled cool-down, in nanoseconds, after
    /// which an open breaker ripens and one probe submission may try to
    /// re-admit the shard. The cool-down is charged to
    /// [`TestStats::recovery_ns`] when the breaker opens — never slept —
    /// and elapses on the supervisor's modeled clock. `None` disables
    /// probation (an open breaker stays open, the pre-probation
    /// behavior); `Some(0)` is rejected by `EngineConfig::validate`
    /// (`ConfigError::ZeroProbationNs`).
    pub probation_ns: Option<u64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            backoff_ns: 50_000,
            quarantine_after: 8,
            probation_ns: None,
        }
    }
}

/// One shard's breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    Closed,
    /// Open since some modeled instant; `ripe_at` is when probation lets a
    /// probe through (`u64::MAX` when probation is disabled). `err` is
    /// replayed for every refused submission so the caller's fallback
    /// reason stays stable.
    Open {
        err: DeviceError,
        ripe_at: u64,
    },
}

/// Per-shard retry/breaker bookkeeping.
#[derive(Debug, Clone, Copy)]
struct ShardHealth {
    /// Submissions (not attempts) that ended in a fault since the shard's
    /// last success.
    consecutive_faults: u32,
    breaker: Breaker,
}

impl Default for ShardHealth {
    fn default() -> Self {
        ShardHealth {
            consecutive_faults: 0,
            breaker: Breaker::Closed,
        }
    }
}

/// The shard the failover tier routes to: the lowest-index `usable` one
/// of the `n` shards, or `None` when no shard is usable. A pure function
/// of the health mask, so failover never depends on submission history,
/// and a usable shard 0 — where every submission is
/// aimed — is kept.
pub(crate) fn failover_route(n: usize, usable: impl Fn(usize) -> bool) -> Option<usize> {
    (0..n).find(|&s| usable(s))
}

/// The retry/failover/quarantine state machine over a pool of device
/// shards. One supervisor lives inside each `HwTester`, beside the pool it
/// indexes.
#[derive(Debug)]
pub(crate) struct Supervisor {
    policy: RecoveryPolicy,
    /// The modeled clock probation ripens on, in nanoseconds: advanced by
    /// charged retry backoffs and by the modeled GPU time of successful
    /// executions (`HwTester::submit`). Never wall clock.
    now_ns: u64,
    /// One entry per device shard of the pool.
    shards: Vec<ShardHealth>,
}

impl Supervisor {
    /// A supervisor for a pool of `shards` devices, every breaker closed.
    pub(crate) fn new(policy: RecoveryPolicy, shards: usize) -> Self {
        Supervisor {
            policy,
            now_ns: 0,
            shards: vec![ShardHealth::default(); shards],
        }
    }

    /// Advances the modeled clock (charged backoff advances it internally;
    /// callers add the modeled GPU time of successful executions).
    pub(crate) fn advance(&mut self, ns: u64) {
        self.now_ns = self.now_ns.saturating_add(ns);
    }

    /// Submits `list` aimed at `devices[0]` (one device per shard),
    /// validating the execution against what was recorded, retrying per
    /// policy, failing over to the lowest-index healthy shard when shard
    /// 0's breaker is open, probing ripe breakers, and keeping the fault
    /// counters in `stats`.
    ///
    /// On `Err` the caller must answer its pairs in exact software and
    /// charge `fallback_tests`; it must *not* charge any hardware counters
    /// for the failed submission.
    pub(crate) fn submit(
        &mut self,
        devices: &mut [Box<dyn RasterDevice>],
        list: &CommandList,
        stats: &mut TestStats,
    ) -> Result<Execution, DeviceError> {
        debug_assert_eq!(devices.len(), self.shards.len(), "one breaker per shard");
        let Some((target, probing)) = self.resolve(stats) else {
            // Every breaker is open and none is ripe: refuse without
            // touching a device, replaying the aimed shard's error.
            stats.quarantined += 1;
            return Err(self.open_error());
        };
        let device = &mut devices[target];
        let mut backoff = self.policy.backoff_ns;
        let mut last = DeviceError::ContextLost;
        for attempt in 0..=self.policy.max_retries {
            let outcome = device
                .execute(list)
                .and_then(|exec| exec.validate(list).map(|()| exec));
            match outcome {
                Ok(exec) => {
                    let health = &mut self.shards[target];
                    health.consecutive_faults = 0;
                    if probing {
                        health.breaker = Breaker::Closed;
                        stats.probe_reinstates += 1;
                    }
                    return Ok(exec);
                }
                Err(err) => {
                    stats.device_faults += 1;
                    last = err;
                    if attempt < self.policy.max_retries {
                        stats.retries += 1;
                        stats.recovery_ns = stats.recovery_ns.saturating_add(backoff);
                        self.now_ns = self.now_ns.saturating_add(backoff);
                        backoff = backoff.saturating_mul(2);
                    }
                }
            }
        }
        // Retries exhausted: the submission failed on `target`.
        self.shards[target].consecutive_faults += 1;
        let opens = probing
            || (self.policy.quarantine_after > 0
                && self.shards[target].consecutive_faults >= self.policy.quarantine_after);
        if opens {
            let ripe_at = self
                .policy
                .probation_ns
                .map_or(u64::MAX, |p| self.now_ns.saturating_add(p));
            let was_open = matches!(self.shards[target].breaker, Breaker::Open { .. });
            self.shards[target].breaker = Breaker::Open { err: last, ripe_at };
            if !was_open {
                // First opening of this breaker (a failed probe re-opens,
                // counted once at the original opening).
                stats.shard_quarantined += 1;
            }
            if let Some(p) = self.policy.probation_ns {
                // Each cool-down period is charged up front, never slept.
                stats.recovery_ns = stats.recovery_ns.saturating_add(p);
            }
        }
        Err(last)
    }

    /// Picks the physical shard a submission executes on: the
    /// lowest-index shard whose breaker is closed (or open-and-ripe, which
    /// makes the submission a probe). `None` when every breaker is open
    /// and unripe.
    fn resolve(&self, stats: &mut TestStats) -> Option<(usize, bool)> {
        let target = failover_route(self.shards.len(), |s| match self.shards[s].breaker {
            Breaker::Closed => true,
            Breaker::Open { ripe_at, .. } => {
                self.policy.probation_ns.is_some() && self.now_ns >= ripe_at
            }
        })?;
        if target != 0 {
            stats.shard_failovers += 1;
        }
        let probing = matches!(self.shards[target].breaker, Breaker::Open { .. });
        if probing {
            stats.probes += 1;
        }
        Some((target, probing))
    }

    /// The error stored when the lowest-index open breaker opened — shard
    /// 0's, the aimed shard, whenever every shard is open.
    fn open_error(&self) -> DeviceError {
        self.shards
            .iter()
            .find_map(|h| match h.breaker {
                Breaker::Open { err, .. } => Some(err),
                Breaker::Closed => None,
            })
            .unwrap_or(DeviceError::ContextLost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spatial_geom::{Point, Rect, Segment};
    use spatial_raster::{
        DeviceKind, FaultDevice, FaultKind, FaultPlan, FaultTrigger, Recorder, Viewport,
    };

    impl Supervisor {
        /// Whether every shard's circuit breaker has opened — the state in
        /// which submissions are refused outright and the caller serves
        /// everything from exact software.
        fn is_quarantined(&self) -> bool {
            self.shards
                .iter()
                .all(|h| matches!(h.breaker, Breaker::Open { .. }))
        }

        /// How many shards currently sit behind an open breaker.
        fn open_shards(&self) -> usize {
            self.shards
                .iter()
                .filter(|h| matches!(h.breaker, Breaker::Open { .. }))
                .count()
        }
    }

    fn list() -> CommandList {
        let mut r = Recorder::new(8, 8).unwrap();
        r.set_viewport(Viewport::new(Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8))
            .unwrap();
        r.clear_color();
        r.draw_segments([Segment::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0))])
            .unwrap();
        r.minmax();
        r.finish()
    }

    /// A pool of `n` shards of `kind`, built the way `HwTester` builds one.
    fn pool(kind: DeviceKind, n: usize) -> Vec<Box<dyn RasterDevice>> {
        (0..n).map(|i| kind.for_shard(i).build()).collect()
    }

    fn faulty(trigger: FaultTrigger, kind: FaultKind) -> Box<dyn RasterDevice> {
        Box::new(FaultDevice::new(
            DeviceKind::Reference.build(),
            FaultPlan::new(7, kind, trigger),
        ))
    }

    #[test]
    fn clean_submissions_charge_nothing() {
        let mut sup = Supervisor::new(RecoveryPolicy::default(), 1);
        let mut dev = [DeviceKind::Reference.build()];
        let mut stats = TestStats::default();
        let exec = sup.submit(&mut dev, &list(), &mut stats).unwrap();
        assert_eq!(exec.readbacks.len(), 1);
        assert_eq!(stats.device_faults, 0);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.recovery_ns, 0);
    }

    #[test]
    fn one_fault_is_retried_and_charged() {
        let mut sup = Supervisor::new(RecoveryPolicy::default(), 1);
        let mut dev = [faulty(FaultTrigger::OnExecute(0), FaultKind::Timeout)];
        let mut stats = TestStats::default();
        let exec = sup.submit(&mut dev, &list(), &mut stats);
        assert!(exec.is_ok(), "second attempt is clean");
        assert_eq!(stats.device_faults, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.recovery_ns, 50_000);
        assert!(!sup.is_quarantined());
    }

    #[test]
    fn corrupted_readbacks_fail_validation_and_retry() {
        let mut sup = Supervisor::new(RecoveryPolicy::default(), 1);
        let mut dev = [faulty(
            FaultTrigger::OnExecute(0),
            FaultKind::ReadbackBitFlip,
        )];
        let mut stats = TestStats::default();
        let exec = sup.submit(&mut dev, &list(), &mut stats);
        assert!(exec.is_ok());
        assert_eq!(stats.device_faults, 1);
        assert_eq!(stats.retries, 1);
    }

    #[test]
    fn exhausted_retries_report_the_last_error_with_exponential_backoff() {
        let mut sup = Supervisor::new(
            RecoveryPolicy {
                max_retries: 2,
                backoff_ns: 100,
                quarantine_after: 0,
                probation_ns: None,
            },
            1,
        );
        let mut dev = [faulty(FaultTrigger::EveryK(1), FaultKind::OutOfMemory)];
        let mut stats = TestStats::default();
        assert_eq!(
            sup.submit(&mut dev, &list(), &mut stats),
            Err(DeviceError::OutOfMemory)
        );
        assert_eq!(stats.device_faults, 3, "initial attempt + 2 retries");
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.recovery_ns, 100 + 200);
        assert_eq!(stats.quarantined, 0);
    }

    #[test]
    fn breaker_opens_after_consecutive_faulted_submissions() {
        let mut sup = Supervisor::new(
            RecoveryPolicy {
                max_retries: 0,
                backoff_ns: 1,
                quarantine_after: 2,
                probation_ns: None,
            },
            1,
        );
        let mut dev = [faulty(FaultTrigger::EveryK(1), FaultKind::ContextLost)];
        let mut stats = TestStats::default();
        let l = list();
        assert!(sup.submit(&mut dev, &l, &mut stats).is_err());
        assert!(!sup.is_quarantined());
        assert!(sup.submit(&mut dev, &l, &mut stats).is_err());
        assert!(sup.is_quarantined());
        // Refused without touching the device: fault count stays put.
        assert_eq!(stats.device_faults, 2);
        assert_eq!(
            sup.submit(&mut dev, &l, &mut stats),
            Err(DeviceError::ContextLost)
        );
        assert_eq!(stats.device_faults, 2);
        assert_eq!(stats.quarantined, 1);
    }

    #[test]
    fn open_breaker_fails_over_to_the_next_healthy_shard() {
        let mut sup = Supervisor::new(
            RecoveryPolicy {
                max_retries: 0,
                backoff_ns: 1,
                quarantine_after: 1,
                probation_ns: None,
            },
            2,
        );
        // Only shard 0 is sick, permanently.
        let plan = FaultPlan::new(3, FaultKind::Timeout, FaultTrigger::EveryK(1)).on_shard(0);
        let mut dev = pool(DeviceKind::Reference.with_faults(plan), 2);
        let mut stats = TestStats::default();
        let l = list();
        // First submission pays the fault and opens shard 0's breaker.
        assert!(sup.submit(&mut dev, &l, &mut stats).is_err());
        assert_eq!(stats.shard_quarantined, 1);
        assert!(!sup.is_quarantined(), "shard 1 still serves");
        // Later submissions aimed at shard 0 fail over to shard 1.
        for _ in 0..3 {
            assert!(sup.submit(&mut dev, &l, &mut stats).is_ok());
        }
        assert_eq!(stats.shard_failovers, 3);
        assert_eq!(stats.quarantined, 0, "failover, not refusal");
    }

    #[test]
    fn ripe_breaker_is_probed_and_a_clean_probe_reinstates() {
        let mut sup = Supervisor::new(
            RecoveryPolicy {
                max_retries: 0,
                backoff_ns: 1,
                quarantine_after: 1,
                probation_ns: Some(1_000),
            },
            2,
        );
        // Shard 0 faults exactly once (its first execute), then recovers.
        let plan =
            FaultPlan::new(3, FaultKind::ContextLost, FaultTrigger::OnExecute(0)).on_shard(0);
        let mut dev = pool(DeviceKind::Reference.with_faults(plan), 2);
        let mut stats = TestStats::default();
        let l = list();
        assert!(sup.submit(&mut dev, &l, &mut stats).is_err());
        assert_eq!(stats.shard_quarantined, 1);
        assert_eq!(stats.recovery_ns, 1_000, "cool-down charged at opening");
        // Cool-down not yet elapsed on the modeled clock: fail over.
        assert!(sup.submit(&mut dev, &l, &mut stats).is_ok());
        assert_eq!(stats.shard_failovers, 1);
        assert_eq!(stats.probes, 0);
        // Modeled work elapses the cool-down; the next aim is a probe.
        sup.advance(2_000);
        assert!(sup.submit(&mut dev, &l, &mut stats).is_ok());
        assert_eq!(stats.probes, 1);
        assert_eq!(stats.probe_reinstates, 1);
        // Reinstated: no further failover or probing.
        assert!(sup.submit(&mut dev, &l, &mut stats).is_ok());
        assert_eq!(stats.shard_failovers, 1);
        assert_eq!(stats.probes, 1);
    }

    #[test]
    fn failed_probe_reopens_for_another_charged_cooldown() {
        let mut sup = Supervisor::new(
            RecoveryPolicy {
                max_retries: 0,
                backoff_ns: 1,
                quarantine_after: 1,
                probation_ns: Some(500),
            },
            2,
        );
        let plan = FaultPlan::new(3, FaultKind::Timeout, FaultTrigger::EveryK(1)).on_shard(0);
        let mut dev = pool(DeviceKind::Reference.with_faults(plan), 2);
        let mut stats = TestStats::default();
        let l = list();
        assert!(sup.submit(&mut dev, &l, &mut stats).is_err());
        sup.advance(1_000);
        // Ripe: the probe runs, faults again, and re-opens the breaker.
        assert!(sup.submit(&mut dev, &l, &mut stats).is_err());
        assert_eq!(stats.probes, 1);
        assert_eq!(stats.probe_reinstates, 0);
        assert_eq!(
            stats.shard_quarantined, 1,
            "re-opening is not a new opening"
        );
        assert_eq!(stats.recovery_ns, 2 * 500, "each cool-down period charged");
        // Unripe again: back to failover.
        assert!(sup.submit(&mut dev, &l, &mut stats).is_ok());
        assert_eq!(stats.shard_failovers, 1);
    }

    #[test]
    fn all_shards_open_refuses_without_touching_the_device() {
        let mut sup = Supervisor::new(
            RecoveryPolicy {
                max_retries: 0,
                backoff_ns: 1,
                quarantine_after: 1,
                probation_ns: None,
            },
            2,
        );
        let plan = FaultPlan::new(3, FaultKind::OutOfMemory, FaultTrigger::EveryK(1));
        let mut dev = pool(DeviceKind::Reference.with_faults(plan), 2);
        let mut stats = TestStats::default();
        let l = list();
        assert!(sup.submit(&mut dev, &l, &mut stats).is_err());
        // Failover reaches shard 1, which is just as sick.
        assert!(sup.submit(&mut dev, &l, &mut stats).is_err());
        assert_eq!(stats.shard_failovers, 1);
        assert_eq!(stats.shard_quarantined, 2);
        assert!(sup.is_quarantined());
        assert_eq!(sup.open_shards(), 2);
        let faults_before = stats.device_faults;
        assert_eq!(
            sup.submit(&mut dev, &l, &mut stats),
            Err(DeviceError::OutOfMemory)
        );
        assert_eq!(stats.device_faults, faults_before, "device untouched");
        assert_eq!(stats.quarantined, 1);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut sup = Supervisor::new(
            RecoveryPolicy {
                max_retries: 0,
                backoff_ns: 1,
                quarantine_after: 2,
                probation_ns: None,
            },
            1,
        );
        // Faults on every second execute — never two submissions in a row.
        let mut dev = [faulty(FaultTrigger::EveryK(2), FaultKind::Timeout)];
        let mut stats = TestStats::default();
        let l = list();
        for _ in 0..6 {
            let _ = sup.submit(&mut dev, &l, &mut stats);
        }
        assert!(!sup.is_quarantined());
        assert_eq!(stats.quarantined, 0);
    }

    #[test]
    fn failover_route_picks_the_lowest_usable_shard() {
        let route = |mask: &[bool]| failover_route(mask.len(), |s| mask[s]);
        assert_eq!(route(&[true, true, true, true]), Some(0));
        assert_eq!(route(&[true, false, false, true]), Some(0));
        assert_eq!(route(&[false, true, false, true]), Some(1));
        assert_eq!(route(&[false, false, false, true]), Some(3));
        assert_eq!(route(&[false, false]), None);
        assert_eq!(route(&[]), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `failover_route` keeps shard 0 — where every submission is
        /// aimed — while it is healthy, otherwise picks the lowest-index
        /// healthy shard, and is `None` exactly when no shard is healthy.
        /// Pure function of the mask — calling it twice can never
        /// disagree.
        #[test]
        fn failover_route_is_shard_0_or_the_lowest_healthy_shard(
            // 0/1 per shard (the vendored proptest has no `any::<bool>()`).
            health_bits in prop::collection::vec(0usize..2, 0..8),
        ) {
            let healthy: Vec<bool> = health_bits.into_iter().map(|b| b == 1).collect();
            let n = healthy.len();
            let got = failover_route(n, |s| healthy[s]);
            prop_assert_eq!(got, failover_route(n, |s| healthy[s]), "must be pure");
            match got {
                None => prop_assert!(healthy.iter().all(|&h| !h)),
                Some(s) => {
                    prop_assert!(healthy[s], "routed to an unhealthy shard");
                    if healthy[0] {
                        prop_assert_eq!(s, 0, "a healthy shard 0 must be kept");
                    }
                    // No healthy shard sits below the pick.
                    prop_assert!(healthy[..s].iter().all(|&h| !h));
                }
            }
        }
    }
}
