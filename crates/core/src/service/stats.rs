//! The `ServiceStats` ledger: admission, outcome and planner counters
//! plus per-stage latency totals.
//!
//! The ledger extends the balanced-accounting discipline of the fault
//! model (DESIGN.md §8) to the serving layer: every submitted query is
//! accounted exactly once at every level, and [`ServiceStats::balanced`]
//! states the closed-form identity the property tests pin:
//!
//! ```text
//! submitted == admitted + rejected + overload_sheds
//! admitted  == completed + deadline_aborts + budget_aborts + unknown_dataset
//!              + invalid_queries
//! ```
//!
//! `overload_sheds` counts queries the brownout controller (DESIGN.md
//! §13) refused before admission; the brownout and failover counters
//! below make tier-2 degradation and tier-1 shard failover observable
//! from the serving layer without breaking either identity.

use std::time::Duration;

/// The latencies one stage of the served queries recorded: how many and
/// their total, hence their mean.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    count: u64,
    total_ns: u128,
}

impl LatencyHistogram {
    /// Records one observation.
    pub(crate) fn record(&mut self, d: Duration) {
        self.count += 1;
        self.total_ns += d.as_nanos();
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            Duration::from_nanos((self.total_ns / self.count as u128) as u64)
        }
    }
}

/// One latency total per pipeline stage of a served query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageLatencies {
    /// Spec construction plus the MBR filter stage (candidate
    /// generation).
    pub filter: LatencyHistogram,
    /// Replay-cost planning (including memo hits, which record ~0).
    pub plan: LatencyHistogram,
    /// Full pipeline execution under the chosen plan.
    pub refine: LatencyHistogram,
}

/// The serving ledger. Cloned out of the engine under a lock by
/// `QueryEngine::stats`, so a reader always sees a consistent cut.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Every call to `QueryEngine::execute`.
    pub submitted: u64,
    /// Queries that won an admission slot.
    pub admitted: u64,
    /// Queries turned away by admission control.
    pub rejected: u64,
    /// Admitted queries that returned rows.
    pub completed: u64,
    /// Admitted queries aborted between stages by their deadline.
    pub deadline_aborts: u64,
    /// Admitted queries aborted by `max_candidates`.
    pub budget_aborts: u64,
    /// Admitted queries naming a dataset absent from the snapshot.
    pub unknown_dataset: u64,
    /// Admitted queries whose own parameters were unexecutable (typed
    /// `ServiceError::InvalidQuery`).
    pub invalid_queries: u64,
    /// Queries the planner sent to a hardware backend.
    pub planned_hw: u64,
    /// Queries the planner sent to the software backend.
    pub planned_sw: u64,
    /// Plans answered from the planner's memo.
    pub plan_cache_hits: u64,
    /// Plans that ran a fresh pricing pass.
    pub plan_cache_misses: u64,
    /// Queries refused by the brownout controller's shed rung before
    /// admission (typed `ServiceError::Overloaded`).
    pub overload_sheds: u64,
    /// Brownout ladder steps toward shedding (one per breached window).
    pub brownout_steps: u64,
    /// Brownout ladder steps back toward normal (one per clean window).
    pub brownout_recoveries: u64,
    /// Shard failovers observed by completed queries, summed from their
    /// pipelines' `TestStats::shard_failovers` — the serving-layer view
    /// of tier-1 resilience.
    pub shard_failovers: u64,
    /// Quarantined-shard probe reinstatements observed by completed
    /// queries (summed from `TestStats::probe_reinstates`).
    pub probe_reinstates: u64,
    /// Snapshot swaps (`QueryEngine::reload`).
    pub reloads: u64,
    /// Per-stage latency histograms for admitted queries.
    pub latencies: StageLatencies,
}

impl ServiceStats {
    /// The ledger identity: every submission is accounted exactly once
    /// — admitted, rejected at the door, or shed by the brownout
    /// controller before admission.
    pub fn balanced(&self) -> bool {
        self.submitted == self.admitted + self.rejected + self.overload_sheds
            && self.admitted
                == self.completed
                    + self.deadline_aborts
                    + self.budget_aborts
                    + self.unknown_dataset
                    + self.invalid_queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_averages() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_nanos(3));
        h.record(Duration::from_nanos(1024));
        assert_eq!(h.count(), 3);
        assert_eq!(h.mean(), Duration::from_nanos((1 + 3 + 1024) / 3));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn balance_identity() {
        let mut s = ServiceStats {
            submitted: 10,
            admitted: 8,
            rejected: 2,
            completed: 5,
            deadline_aborts: 1,
            budget_aborts: 1,
            unknown_dataset: 1,
            ..ServiceStats::default()
        };
        assert!(s.balanced());
        s.completed = 6;
        assert!(!s.balanced());
    }

    /// Sheds sit outside admission: they balance against `submitted`
    /// directly, not against the admitted-outcome identity.
    #[test]
    fn balance_identity_with_sheds() {
        let mut s = ServiceStats {
            submitted: 12,
            admitted: 8,
            rejected: 2,
            overload_sheds: 2,
            completed: 8,
            ..ServiceStats::default()
        };
        assert!(s.balanced());
        s.overload_sheds = 3;
        assert!(!s.balanced());
    }
}
