//! The `ServiceStats` ledger: admission, outcome and planner counters
//! plus per-stage latency histograms.
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

/// Power-of-two latency histogram over nanoseconds: bucket `i` counts
/// observations in `[2^i, 2^(i+1))` ns (bucket 0 also takes 0 ns).
/// 40 buckets cover up to ~18 minutes — far past any query budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; Self::BUCKETS],
    count: u64,
    total_ns: u128,
}

impl LatencyHistogram {
    const BUCKETS: usize = 40;

    /// Records one observation.
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos().max(1) as u64;
        let bucket = (63 - ns.leading_zeros() as usize).min(Self::BUCKETS - 1);
        self.buckets[bucket] += 1;
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

    /// The raw buckets; bucket `i` covers `[2^i, 2^(i+1))` ns.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Upper-bound latency such that at least `q` of the observations
    /// fall at or below it — bucket-granular, so it over-reports by at
    /// most 2×.
    ///
    /// Edge semantics (pinned by tests): an empty histogram reports
    /// `Duration::ZERO` for every `q`; on a non-empty histogram the
    /// result is always a recorded bucket's upper bound, never zero.
    /// `q` is clamped into `[0, 1]` — `q <= 0` reports the smallest
    /// recorded bucket, `q >= 1` the largest — and a NaN rank reports
    /// the conservative upper bound (`q = 1`), not the minimum a
    /// NaN-to-zero cast would silently pick.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Duration::from_nanos(1u64 << (i + 1).min(63));
            }
        }
        // count == Σ buckets by construction, so the loop always
        // returns; keep a conservative bound rather than panicking.
        Duration::from_nanos(u64::MAX)
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; Self::BUCKETS],
            count: 0,
            total_ns: 0,
        }
    }
}

/// One histogram per pipeline stage of a served query.
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
    fn histogram_buckets_by_power_of_two() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_nanos(3));
        h.record(Duration::from_nanos(1024));
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(h.mean(), Duration::from_nanos((1 + 3 + 1024) / 3));
        // p100 of the data sits in bucket 10 → bound 2^11.
        assert_eq!(h.quantile(1.0), Duration::from_nanos(2048));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        // Every rank, including degenerate ones, reports zero on empty.
        assert_eq!(h.quantile(-1.0), Duration::ZERO);
        assert_eq!(h.quantile(2.0), Duration::ZERO);
        assert_eq!(h.quantile(f64::NAN), Duration::ZERO);
    }

    /// One sample: every rank reports that sample's bucket bound, never
    /// zero.
    #[test]
    fn one_sample_quantiles_report_its_bucket() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_nanos(100)); // bucket 6 → bound 2^7
        let bound = Duration::from_nanos(128);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), bound, "q = {q}");
        }
        assert_ne!(h.quantile(1.0), Duration::ZERO);
    }

    /// Out-of-range and NaN ranks clamp to defined endpoints: `q <= 0`
    /// is the smallest recorded bucket, `q >= 1` the largest, and NaN
    /// takes the conservative upper bound.
    #[test]
    fn degenerate_ranks_clamp_to_the_recorded_extremes() {
        let mut h = LatencyHistogram::default();
        h.record(Duration::from_nanos(1)); // bucket 0 → bound 2
        h.record(Duration::from_nanos(1024)); // bucket 10 → bound 2048
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(0.0), Duration::from_nanos(2));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
        assert_eq!(h.quantile(1.0), Duration::from_nanos(2048));
        assert_eq!(
            h.quantile(f64::NAN),
            Duration::from_nanos(2048),
            "NaN must report the conservative bound, not the minimum"
        );
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
