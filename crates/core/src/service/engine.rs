//! The long-lived [`QueryEngine`]: snapshot store, admission control,
//! per-query budgets and planner orchestration.
//!
//! One `QueryEngine` is shared (by `&self`) across any number of client
//! threads. Each query pins exactly one snapshot epoch for its whole
//! lifetime, is admitted through a bounded slot counter, described once
//! as a [`QuerySpec`], filtered once, budgeted and priced on that
//! candidate stream, and refined on the chosen backend from the same
//! stream. The [`ServiceStats`] ledger accounts every submission exactly
//! once.

use crate::engine::{build_backend, ConfigError, EngineConfig, GeometryTest, PreparedDataset};
use crate::pipeline::spec::{area_rows, join_rows, selection_rows};
use crate::pipeline::QuerySpec;
use crate::service::admission::AdmissionQueue;
use crate::service::brownout::{Brownout, BrownoutConfig, BrownoutRung};
use crate::service::planner::{PlanChoice, Planned, Planner, PlannerConfig, PlannerMode};
use crate::service::request::{
    QueryBudget, QueryKind, QueryRequest, QueryResponse, QueryRows, ServiceError, Stage,
};
use crate::service::stats::ServiceStats;
use spatial_geom::Polygon;
use spatial_index::SnapshotHandle;
use spatial_raster::MAX_WINDOW_SIDE;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Serving-layer configuration: the per-query [`EngineConfig`] template
/// plus planner, admission and default-budget knobs.
///
/// `base.geometry_test` is a placeholder — the planner overwrites it per
/// query with its [`PlanChoice`] (software, or hardware at the chosen
/// resolution/batch). Every other `base` field (device, recovery,
/// filters, shards) applies to served queries unchanged.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Template for the per-query engine; see the struct docs for how
    /// `geometry_test`, `hw.resolution` and `hw_batch` interact with
    /// the planner.
    pub base: EngineConfig,
    /// Replay-cost planner knobs (mode, priced resolutions, sample).
    pub planner: PlannerConfig,
    /// Admission slots: at most this many queries execute concurrently;
    /// the rest are rejected immediately.
    pub admission_capacity: usize,
    /// Budget applied to requests that don't carry their own (field by
    /// field — a request may set only a deadline and inherit the
    /// default candidate cap).
    pub default_budget: QueryBudget,
    /// Graceful-degradation controller (DESIGN.md §13 tier 2); `None`
    /// disables brownouts entirely — the engine then only rejects at
    /// the admission door.
    pub brownout: Option<BrownoutConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            base: EngineConfig::hardware(crate::HwConfig::recommended()),
            planner: PlannerConfig::default(),
            admission_capacity: 64,
            default_budget: QueryBudget::default(),
            brownout: None,
        }
    }
}

impl ServiceConfig {
    /// Structural validation, run by [`QueryEngine::new`] /
    /// [`QueryEngine::try_new`] — same philosophy as
    /// [`EngineConfig::validate`]: impossible knob values are
    /// construction errors, not values to clamp quietly.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        self.base.validate()?;
        if self.admission_capacity == 0 {
            return Err(ConfigError::ZeroAdmissionCapacity);
        }
        let res = &self.planner.resolutions;
        if res.is_empty() || res.iter().any(|r| !(1..=MAX_WINDOW_SIDE).contains(r)) {
            return Err(ConfigError::BadPlannerResolutions);
        }
        if self.planner.sample == 0 {
            return Err(ConfigError::ZeroPlannerSample);
        }
        if self.planner.batch == 0 {
            return Err(ConfigError::ZeroPlannerBatch);
        }
        if self.planner.memo_entries == 0 {
            return Err(ConfigError::ZeroPlanMemo);
        }
        if let Some(b) = &self.brownout {
            if b.window == 0 {
                return Err(ConfigError::ZeroBrownoutWindow);
            }
            if !(1..=100).contains(&b.abort_pct) {
                return Err(ConfigError::BadBrownoutAbortPct(b.abort_pct));
            }
            if !(1..=100).contains(&b.reject_pct) {
                return Err(ConfigError::BadBrownoutRejectPct(b.reject_pct));
            }
        }
        Ok(())
    }
}

/// An immutable named-dataset catalog — the unit of atomic reload.
/// Datasets are held behind `Arc` so a rebuilt snapshot can carry
/// unchanged datasets over without copying polygons or trees.
#[derive(Debug, Default)]
pub struct ServiceSnapshot {
    datasets: BTreeMap<String, Arc<PreparedDataset>>,
}

impl ServiceSnapshot {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style insert (keyed on `dataset.name`).
    pub fn with(mut self, dataset: PreparedDataset) -> Self {
        self.insert(dataset);
        self
    }

    /// Adds or replaces a dataset under its own name.
    pub(crate) fn insert(&mut self, dataset: PreparedDataset) {
        self.datasets
            .insert(dataset.name.clone(), Arc::new(dataset));
    }

    /// Adds or replaces a dataset shared with another snapshot.
    pub fn insert_shared(&mut self, dataset: Arc<PreparedDataset>) {
        self.datasets.insert(dataset.name.clone(), dataset);
    }

    pub(crate) fn get(&self, name: &str) -> Option<&Arc<PreparedDataset>> {
        self.datasets.get(name)
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.datasets.keys().map(String::as_str)
    }
}

/// The always-on query service (DESIGN.md §12).
///
/// All methods take `&self`; wrap the engine in an `Arc` and share it
/// freely across threads. See the [module docs](crate::service) for a
/// complete example.
#[derive(Debug)]
pub struct QueryEngine {
    config: ServiceConfig,
    snapshot: SnapshotHandle<ServiceSnapshot>,
    admission: AdmissionQueue,
    planner: Mutex<Planner>,
    stats: Mutex<ServiceStats>,
    brownout: Option<Mutex<Brownout>>,
}

impl QueryEngine {
    /// Builds the engine, panicking on an invalid configuration (use
    /// [`try_new`](Self::try_new) to handle the error).
    pub fn new(config: ServiceConfig, snapshot: ServiceSnapshot) -> Self {
        Self::try_new(config, snapshot).expect("invalid ServiceConfig")
    }

    pub fn try_new(config: ServiceConfig, snapshot: ServiceSnapshot) -> Result<Self, ConfigError> {
        config.validate()?;
        let planner = Planner::new(config.planner.clone());
        let admission = AdmissionQueue::new(config.admission_capacity);
        let brownout = config.brownout.map(|cfg| Mutex::new(Brownout::new(cfg)));
        Ok(QueryEngine {
            config,
            snapshot: SnapshotHandle::new(snapshot),
            admission,
            planner: Mutex::new(planner),
            stats: Mutex::new(ServiceStats::default()),
            brownout,
        })
    }

    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Atomically publishes a new snapshot; queries already in flight
    /// keep the epoch they loaded. Returns the new epoch.
    pub fn reload(&self, snapshot: ServiceSnapshot) -> u64 {
        let epoch = self.snapshot.swap(snapshot);
        self.lock_stats().reloads += 1;
        epoch
    }

    /// A consistent copy of the serving ledger.
    pub fn stats(&self) -> ServiceStats {
        self.lock_stats().clone()
    }

    /// Queries currently holding admission slots (advisory snapshot).
    pub fn in_flight(&self) -> usize {
        self.admission.in_flight()
    }

    fn lock_stats(&self) -> MutexGuard<'_, ServiceStats> {
        self.stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The brownout ladder rung the *next* submission will run under
    /// (`Normal` when brownouts are disabled).
    pub fn brownout_rung(&self) -> BrownoutRung {
        self.brownout.as_ref().map_or(BrownoutRung::Normal, |b| {
            b.lock().unwrap_or_else(|p| p.into_inner()).rung()
        })
    }

    fn note_brownout(&self, f: impl FnOnce(&mut Brownout)) {
        if let Some(b) = &self.brownout {
            f(&mut b.lock().unwrap_or_else(|p| p.into_inner()));
        }
    }

    /// Serves one query: brownout gate → admission → snapshot pin →
    /// spec → stage 1 (once) → budget checks → plan → refine. Every call is
    /// accounted exactly once in [`ServiceStats`] (the `balanced`
    /// identity); the brownout controller sees every submission and
    /// every rejection/deadline-abort signal.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse, ServiceError> {
        self.lock_stats().submitted += 1;
        let mut rung = BrownoutRung::Normal;
        if let Some(b) = &self.brownout {
            let decision = b.lock().unwrap_or_else(|p| p.into_inner()).on_submit();
            let mut s = self.lock_stats();
            if decision.stepped_up {
                s.brownout_steps += 1;
            }
            if decision.stepped_down {
                s.brownout_recoveries += 1;
            }
            if decision.rung == BrownoutRung::Shed {
                s.overload_sheds += 1;
                return Err(ServiceError::Overloaded {
                    retry_after_queries: decision.retry_after_queries,
                });
            }
            rung = decision.rung;
        }
        let permit = match self.admission.try_enter() {
            Ok(p) => p,
            Err(in_flight) => {
                self.lock_stats().rejected += 1;
                self.note_brownout(Brownout::note_rejected);
                return Err(ServiceError::Rejected {
                    in_flight,
                    capacity: self.admission.capacity(),
                });
            }
        };
        self.lock_stats().admitted += 1;
        let result = self.run(request, rung);
        drop(permit);
        let mut s = self.lock_stats();
        match &result {
            Ok(resp) => {
                s.completed += 1;
                // Surface tier-1 resilience in the serving ledger.
                s.shard_failovers += resp.cost.tests.shard_failovers as u64;
                s.probe_reinstates += resp.cost.tests.probe_reinstates as u64;
            }
            Err(ServiceError::UnknownDataset(_)) => s.unknown_dataset += 1,
            Err(ServiceError::InvalidQuery { .. }) => s.invalid_queries += 1,
            Err(ServiceError::DeadlineExceeded { .. }) => {
                s.deadline_aborts += 1;
                drop(s);
                self.note_brownout(Brownout::note_deadline_abort);
            }
            Err(ServiceError::CandidateBudgetExceeded { .. }) => s.budget_aborts += 1,
            // `run` never rejects or sheds; both happen before admission.
            Err(ServiceError::Rejected { .. } | ServiceError::Overloaded { .. }) => {
                unreachable!("run() cannot reject or shed")
            }
        }
        result
    }

    fn run(
        &self,
        request: &QueryRequest,
        rung: BrownoutRung,
    ) -> Result<QueryResponse, ServiceError> {
        let start = Instant::now();
        let budget = request.budget.or(self.config.default_budget);
        // One load; the query never sees another epoch.
        let snap = self.snapshot.load();
        let epoch = snap.epoch();

        check_deadline(&budget, start, Stage::Filter)?;
        let filter_t = Instant::now();
        let spec = query_spec(&request.kind, &snap)?;
        let stage1 = spec.stage1();
        self.lock_stats()
            .latencies
            .filter
            .record(filter_t.elapsed());

        let candidates = stage1.candidates.len();
        if let Some(max) = budget.max_candidates {
            if candidates > max {
                return Err(ServiceError::CandidateBudgetExceeded {
                    candidates,
                    max_candidates: max,
                });
            }
        }
        check_deadline(&budget, start, Stage::Plan)?;

        let plan_t = Instant::now();
        // The brownout ladder outranks the configured planner mode:
        // `ForceSoftware` and above shed all device pressure (exactness
        // is backend-independent, so rows cannot change — invariant
        // 13), `CoarsePlans` caps adaptive pricing to the coarsest
        // window.
        let planned = match self.config.planner.mode {
            _ if rung >= BrownoutRung::ForceSoftware => Planned::unpriced(PlanChoice::Software),
            PlannerMode::ForceSoftware => Planned::unpriced(PlanChoice::Software),
            PlannerMode::ForceHardware => Planned::unpriced(PlanChoice::Hardware {
                resolution: self.config.base.hw.resolution,
                batch: self.config.base.hw_batch,
            }),
            PlannerMode::Adaptive => {
                let res_limit = if rung == BrownoutRung::CoarsePlans {
                    1
                } else {
                    usize::MAX
                };
                // The leading candidate pairs, in the filter's
                // deterministic order, are the pricing sample.
                let sample: Vec<(&Polygon, &Polygon)> = stage1
                    .candidates
                    .iter()
                    .take(self.config.planner.sample)
                    .map(|&c| spec.resolve(c))
                    .collect();
                let mut planner = self.planner.lock().unwrap_or_else(|p| p.into_inner());
                planner.plan_limited(
                    request.kind.code(),
                    spec.op(),
                    candidates,
                    &sample,
                    res_limit,
                )
            }
        };
        {
            let mut s = self.lock_stats();
            if planned.choice.is_hardware() {
                s.planned_hw += 1;
            } else {
                s.planned_sw += 1;
            }
            // Only real pricing passes move the plan-cache counters: the
            // planner's zero-candidate short-circuit (and the forced
            // modes) never consult the memo, so they are neither hits
            // nor misses.
            if planned.priced {
                if planned.memo_hit {
                    s.plan_cache_hits += 1;
                } else {
                    s.plan_cache_misses += 1;
                }
            }
            s.latencies.plan.record(plan_t.elapsed());
        }
        check_deadline(&budget, start, Stage::Refine)?;

        let refine_t = Instant::now();
        let mut cfg = self.config.base.clone();
        match planned.choice {
            PlanChoice::Software => cfg.geometry_test = GeometryTest::Software,
            PlanChoice::Hardware { resolution, batch } => {
                cfg.geometry_test = GeometryTest::Hardware;
                cfg.hw.resolution = resolution;
                cfg.hw_batch = batch;
            }
        }
        let mut backend = build_backend(&cfg);
        // An aggregation's resolution is the request's contract; the
        // plan only moves the fragment counting between backends (both
        // answer the identical quantized area — §14).
        let (rows, cost) = match &request.kind {
            QueryKind::IntersectionSelection { .. } | QueryKind::ContainmentSelection { .. } => {
                let (kept, cost) = spec.execute(&cfg, backend.as_mut(), stage1);
                (QueryRows::Selection(selection_rows(kept)), cost)
            }
            QueryKind::IntersectionJoin { .. } | QueryKind::WithinDistanceJoin { .. } => {
                let (kept, cost) = spec.execute(&cfg, backend.as_mut(), stage1);
                (QueryRows::Join(join_rows(kept)), cost)
            }
            QueryKind::OverlapArea { .. } => {
                let (kept, cost) = spec.execute(&cfg, backend.as_mut(), stage1);
                (QueryRows::AreaJoin(area_rows(kept)), cost)
            }
        };
        self.lock_stats()
            .latencies
            .refine
            .record(refine_t.elapsed());

        Ok(QueryResponse {
            rows,
            plan: planned.choice,
            plan_cached: planned.memo_hit,
            epoch,
            candidates,
            cost,
        })
    }
}

/// Describes `kind` against the pinned snapshot — the one place a
/// request's names are resolved and its parameters validated.
fn query_spec<'a>(
    kind: &'a QueryKind,
    snap: &'a ServiceSnapshot,
) -> Result<QuerySpec<'a>, ServiceError> {
    let dataset = |name: &str| -> Result<&'a PreparedDataset, ServiceError> {
        snap.get(name)
            .map(|ds| &**ds)
            .ok_or_else(|| ServiceError::UnknownDataset(name.to_string()))
    };
    Ok(match kind {
        QueryKind::IntersectionSelection { dataset: ds, query } => {
            QuerySpec::intersection_selection(dataset(ds)?, query)
        }
        QueryKind::ContainmentSelection { dataset: ds, query } => {
            QuerySpec::containment_selection(dataset(ds)?, query)
        }
        QueryKind::IntersectionJoin { left, right } => {
            QuerySpec::intersection_join(dataset(left)?, dataset(right)?)
        }
        QueryKind::WithinDistanceJoin {
            left,
            right,
            distance,
        } => {
            // +∞ is a legal distance (every pair qualifies); NaN and
            // negatives are not distances at all.
            if distance.is_nan() || *distance < 0.0 {
                return Err(ServiceError::InvalidQuery {
                    reason: "within-distance join distance is NaN or negative (must be ≥ 0)",
                });
            }
            QuerySpec::within_distance_join(dataset(left)?, dataset(right)?, *distance)
        }
        QueryKind::OverlapArea {
            left,
            right,
            resolution,
        } => {
            if *resolution == 0 {
                return Err(ServiceError::InvalidQuery {
                    reason: "overlap resolution = 0 (the area grid needs ≥ 1 cell per side)",
                });
            }
            // The planner replays sampled pairs at exactly this
            // resolution, in a frame of `resolution²` pixels.
            if *resolution > MAX_WINDOW_SIDE {
                return Err(ServiceError::InvalidQuery {
                    reason: "overlap resolution > MAX_WINDOW_SIDE (4096 pixels a side)",
                });
            }
            QuerySpec::overlap_area_join(dataset(left)?, dataset(right)?, *resolution)
        }
    })
}

fn check_deadline(budget: &QueryBudget, start: Instant, stage: Stage) -> Result<(), ServiceError> {
    if let Some(deadline) = budget.deadline {
        let elapsed = start.elapsed();
        if elapsed >= deadline {
            return Err(ServiceError::DeadlineExceeded { stage, elapsed });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_geom::Polygon;
    use std::time::Duration;

    fn square(x: f64, y: f64, s: f64) -> Polygon {
        Polygon::from_coords(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
    }

    fn tiny_engine(config: ServiceConfig) -> QueryEngine {
        let data = vec![square(0.0, 0.0, 4.0), square(10.0, 10.0, 4.0)];
        QueryEngine::new(
            config,
            ServiceSnapshot::new().with(PreparedDataset::new("boxes", data)),
        )
    }

    fn selection() -> QueryRequest {
        QueryRequest::intersection_selection("boxes", square(1.0, 1.0, 5.0))
    }

    /// Admission rejection is deterministic: with every slot occupied
    /// (held directly through the internal queue), the next query is
    /// turned away and accounted as rejected — and the slot count
    /// recovers once the permits drop.
    #[test]
    fn admission_rejection_is_accounted() {
        let engine = tiny_engine(ServiceConfig {
            admission_capacity: 2,
            ..ServiceConfig::default()
        });
        let _a = engine.admission.try_enter().expect("slot 1");
        let _b = engine.admission.try_enter().expect("slot 2");
        let err = engine.execute(&selection()).unwrap_err();
        assert_eq!(
            err,
            ServiceError::Rejected {
                in_flight: 2,
                capacity: 2
            }
        );
        let stats = engine.stats();
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!((stats.submitted, stats.rejected, stats.admitted), (1, 1, 0));
        drop(_a);
        drop(_b);
        assert!(engine.execute(&selection()).is_ok());
        let stats = engine.stats();
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(stats.completed, 1);
    }

    /// A zero deadline trips the very first between-stage check, before
    /// the filter stage, and lands in `deadline_aborts`.
    #[test]
    fn deadline_abort_is_accounted() {
        let engine = tiny_engine(ServiceConfig::default());
        let req = selection().with_budget(QueryBudget {
            deadline: Some(Duration::ZERO),
            max_candidates: None,
        });
        let err = engine.execute(&req).unwrap_err();
        assert!(
            matches!(
                err,
                ServiceError::DeadlineExceeded {
                    stage: Stage::Filter,
                    ..
                }
            ),
            "unexpected error: {err:?}"
        );
        let stats = engine.stats();
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(stats.deadline_aborts, 1);
        assert_eq!(stats.completed, 0);
        // The slot was released despite the abort.
        assert_eq!(engine.in_flight(), 0);
    }

    /// `max_candidates = 0` aborts after the filter stage with exact
    /// candidate accounting.
    #[test]
    fn candidate_budget_abort_is_accounted() {
        let engine = tiny_engine(ServiceConfig::default());
        let req = selection().with_budget(QueryBudget {
            deadline: None,
            max_candidates: Some(0),
        });
        let err = engine.execute(&req).unwrap_err();
        assert_eq!(
            err,
            ServiceError::CandidateBudgetExceeded {
                candidates: 1,
                max_candidates: 0
            }
        );
        let stats = engine.stats();
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(stats.budget_aborts, 1);
    }

    /// Regression: a zero overlap resolution used to panic inside the
    /// planner (`Viewport::new`) after `admitted += 1` with no terminal
    /// counter — the ledger stayed unbalanced for the engine's life — or,
    /// through the convenience constructor, in the constructor itself.
    #[test]
    fn zero_overlap_resolution_is_a_typed_error() {
        let engine = tiny_engine(ServiceConfig::default());
        for bad in [
            QueryRequest::overlap_area_join("boxes", "boxes", 0),
            QueryRequest::new(QueryKind::OverlapArea {
                left: "boxes".into(),
                right: "boxes".into(),
                resolution: 0,
            }),
        ] {
            let err = engine.execute(&bad).unwrap_err();
            assert!(
                matches!(err, ServiceError::InvalidQuery { .. }),
                "unexpected error: {err:?}"
            );
            assert!(err.to_string().contains("resolution = 0"), "{err}");
        }
        assert_eq!(engine.in_flight(), 0);
        let stats = engine.stats();
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!((stats.admitted, stats.invalid_queries), (2, 2));
        // The engine keeps serving.
        assert!(engine.execute(&selection()).is_ok());
        let stats = engine.stats();
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(stats.completed, 1);
    }

    /// An overlap resolution past the window limit is refused before it
    /// is priced: the planner would otherwise replay sampled pairs in a
    /// `resolution²` frame (38.6 GB at 65 536) shared by every client.
    #[test]
    fn an_overlap_resolution_past_the_window_limit_is_a_typed_error() {
        let engine = tiny_engine(ServiceConfig::default());
        let bad = QueryRequest::overlap_area_join("boxes", "boxes", MAX_WINDOW_SIDE + 1);
        let err = engine.execute(&bad).unwrap_err();
        assert!(
            matches!(err, ServiceError::InvalidQuery { .. }),
            "unexpected error: {err:?}"
        );
        assert!(err.to_string().contains("MAX_WINDOW_SIDE"), "{err}");
        assert_eq!(engine.in_flight(), 0);
        let stats = engine.stats();
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!((stats.admitted, stats.invalid_queries), (1, 1));
        assert_eq!(stats.plan_cache_misses, 0, "the refused query was priced");
    }

    /// The default budget applies field-by-field when a request carries
    /// none.
    #[test]
    fn default_budget_applies() {
        let engine = tiny_engine(ServiceConfig {
            default_budget: QueryBudget {
                deadline: None,
                max_candidates: Some(0),
            },
            ..ServiceConfig::default()
        });
        let err = engine.execute(&selection()).unwrap_err();
        assert!(matches!(err, ServiceError::CandidateBudgetExceeded { .. }));
    }

    /// Service config validation rejects impossible knobs with errors
    /// naming the field.
    #[test]
    fn service_config_validation() {
        let bad = [
            ServiceConfig {
                admission_capacity: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                planner: PlannerConfig {
                    resolutions: vec![],
                    ..PlannerConfig::default()
                },
                ..ServiceConfig::default()
            },
            ServiceConfig {
                planner: PlannerConfig {
                    resolutions: vec![8, 0],
                    ..PlannerConfig::default()
                },
                ..ServiceConfig::default()
            },
            ServiceConfig {
                planner: PlannerConfig {
                    resolutions: vec![8, MAX_WINDOW_SIDE + 1],
                    ..PlannerConfig::default()
                },
                ..ServiceConfig::default()
            },
            ServiceConfig {
                planner: PlannerConfig {
                    sample: 0,
                    ..PlannerConfig::default()
                },
                ..ServiceConfig::default()
            },
            ServiceConfig {
                planner: PlannerConfig {
                    batch: 0,
                    ..PlannerConfig::default()
                },
                ..ServiceConfig::default()
            },
            ServiceConfig {
                brownout: Some(BrownoutConfig {
                    window: 0,
                    ..BrownoutConfig::default()
                }),
                ..ServiceConfig::default()
            },
        ];
        for cfg in bad {
            let err = cfg.validate().expect_err("must be rejected");
            assert!(err.to_string().starts_with("invalid ServiceConfig"));
        }
        assert!(ServiceConfig::default().validate().is_ok());
        assert!(ServiceConfig {
            brownout: Some(BrownoutConfig::default()),
            ..ServiceConfig::default()
        }
        .validate()
        .is_ok());
    }

    /// A zero window resolution is refused at construction. Served, it
    /// used to panic inside the first hardware query (a window needs a
    /// pixel) and leave the ledger with an admitted query that never
    /// completed.
    #[test]
    fn zero_resolution_is_refused_at_construction() {
        let mut config = ServiceConfig {
            planner: PlannerConfig {
                mode: PlannerMode::ForceHardware,
                ..PlannerConfig::default()
            },
            ..ServiceConfig::default()
        };
        config.base.hw.resolution = 0;
        config.base.hw.sw_threshold = 0;
        let engine = QueryEngine::try_new(config, ServiceSnapshot::new());
        assert_eq!(engine.err(), Some(ConfigError::ZeroResolution));
    }

    /// A brownout percentage of 0 read every window as a breach — one
    /// with no abort and no rejection is `0 >= 0` — so a healthy service
    /// was shed from its third window on; one above 100 can never be
    /// reached. Both are refused at construction, and the bounds 1 and 100
    /// serve a healthy stream without leaving `Normal`.
    #[test]
    fn brownout_percentages_outside_one_to_a_hundred_are_refused() {
        let brownout = |abort_pct, reject_pct| ServiceConfig {
            brownout: Some(BrownoutConfig {
                window: 4,
                abort_pct,
                reject_pct,
            }),
            ..ServiceConfig::default()
        };
        for (config, expected) in [
            (brownout(0, 50), ConfigError::BadBrownoutAbortPct(0)),
            (brownout(101, 50), ConfigError::BadBrownoutAbortPct(101)),
            (brownout(25, 0), ConfigError::BadBrownoutRejectPct(0)),
            (brownout(25, 255), ConfigError::BadBrownoutRejectPct(255)),
        ] {
            let engine = QueryEngine::try_new(config, ServiceSnapshot::new());
            assert_eq!(engine.err(), Some(expected));
        }
        for pct in [1, 100] {
            let engine = tiny_engine(brownout(pct, pct));
            for _ in 0..20 {
                engine
                    .execute(&selection())
                    .expect("a healthy service sheds nothing");
            }
            assert_eq!(engine.brownout_rung(), BrownoutRung::Normal);
        }
    }

    /// A plan memo of no entries is refused: it used to keep one plan,
    /// because a full memo is cleared before the insert.
    #[test]
    fn an_empty_plan_memo_is_refused() {
        let config = ServiceConfig {
            planner: PlannerConfig {
                memo_entries: 0,
                ..PlannerConfig::default()
            },
            ..ServiceConfig::default()
        };
        let engine = QueryEngine::try_new(config, ServiceSnapshot::new());
        assert_eq!(engine.err(), Some(ConfigError::ZeroPlanMemo));
    }

    /// A stage-1 pass that finds zero candidates short-circuits to
    /// software without a pricing pass: no choreography is recorded and
    /// the plan-cache counters do not move (satellite fix: this used to count a spurious
    /// `plan_cache_misses` per empty query under the adaptive planner).
    #[test]
    fn zero_candidate_probe_skips_plan_cache_accounting() {
        let engine = tiny_engine(ServiceConfig::default());
        // Far away from both dataset squares: the MBR filter returns
        // nothing.
        let req = QueryRequest::intersection_selection("boxes", square(500.0, 500.0, 1.0));
        for _ in 0..3 {
            let resp = engine.execute(&req).expect("empty queries complete");
            assert!(resp.rows.is_empty());
            assert_eq!(resp.plan, PlanChoice::Software);
            assert!(!resp.plan_cached);
        }
        let stats = engine.stats();
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.planned_sw, 3);
        assert_eq!(stats.plan_cache_hits, 0);
        assert_eq!(
            stats.plan_cache_misses, 0,
            "zero-candidate plans are not pricing passes"
        );
    }

    /// The overlap-area aggregation serves end-to-end, and the planner's
    /// routing never changes the reported areas: forced-software and
    /// forced-hardware services answer bit-identical `AreaJoin` rows
    /// (invariant 13 extended to aggregations — DESIGN.md §14).
    #[test]
    fn overlap_area_rows_are_identical_across_forced_backends() {
        let data_a = vec![square(0.0, 0.0, 4.0), square(10.0, 10.0, 4.0)];
        let data_b = vec![square(2.0, 2.0, 4.0), square(11.0, 9.0, 4.0)];
        let snap = || {
            ServiceSnapshot::new()
                .with(PreparedDataset::new("a", data_a.clone()))
                .with(PreparedDataset::new("b", data_b.clone()))
        };
        let make = |mode: PlannerMode| {
            QueryEngine::new(
                ServiceConfig {
                    planner: PlannerConfig {
                        mode,
                        ..PlannerConfig::default()
                    },
                    ..ServiceConfig::default()
                },
                snap(),
            )
        };
        let req = QueryRequest::overlap_area_join("a", "b", 32);
        let sw = make(PlannerMode::ForceSoftware).execute(&req).unwrap();
        let hw = make(PlannerMode::ForceHardware).execute(&req).unwrap();
        let ad = make(PlannerMode::Adaptive).execute(&req).unwrap();
        assert_eq!(sw.rows, hw.rows, "routing must not change quantized areas");
        assert_eq!(sw.rows, ad.rows);
        match &sw.rows {
            QueryRows::AreaJoin(rows) => {
                assert!(!rows.is_empty(), "the constructed pairs overlap");
                assert!(rows.iter().all(|&(_, _, area)| area > 0.0));
            }
            other => panic!("expected AreaJoin rows, got {other:?}"),
        }
        assert_eq!(sw.cost.tests.overlap_tests, hw.cost.tests.overlap_tests);
    }

    /// Sustained deadline aborts climb the brownout ladder one rung per
    /// window until the service sheds, with every step and shed
    /// accounted and the ledger still balanced.
    #[test]
    fn brownout_climbs_to_shed_under_sustained_deadline_aborts() {
        let engine = tiny_engine(ServiceConfig {
            brownout: Some(BrownoutConfig {
                window: 2,
                ..BrownoutConfig::default()
            }),
            ..ServiceConfig::default()
        });
        let doomed = selection().with_budget(QueryBudget {
            deadline: Some(Duration::ZERO),
            max_candidates: None,
        });
        // Windows of 2: submissions 1-6 abort on their deadline and
        // breach three consecutive windows (Normal → CoarsePlans →
        // ForceSoftware → Shed); submission 7 is shed at the door.
        for _ in 0..6 {
            assert!(matches!(
                engine.execute(&doomed).unwrap_err(),
                ServiceError::DeadlineExceeded { .. }
            ));
        }
        assert_eq!(engine.brownout_rung(), BrownoutRung::ForceSoftware);
        let err = engine.execute(&doomed).unwrap_err();
        assert_eq!(
            err,
            ServiceError::Overloaded {
                retry_after_queries: 2
            }
        );
        assert_eq!(engine.brownout_rung(), BrownoutRung::Shed);
        let stats = engine.stats();
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(stats.brownout_steps, 3);
        assert_eq!(stats.overload_sheds, 1);
        assert_eq!(stats.deadline_aborts, 6);
        assert_eq!(stats.completed, 0);
    }

    /// Clean windows walk the ladder back down one rung at a time, and
    /// the queries that complete on the way down — selections and joins —
    /// return exactly the rows an undegraded engine returns (invariant 13).
    #[test]
    fn brownout_recovers_on_clean_windows_with_identical_rows() {
        let engine = tiny_engine(ServiceConfig {
            brownout: Some(BrownoutConfig {
                window: 2,
                ..BrownoutConfig::default()
            }),
            ..ServiceConfig::default()
        });
        let doomed = selection().with_budget(QueryBudget {
            deadline: Some(Duration::ZERO),
            max_candidates: None,
        });
        for _ in 0..7 {
            let _ = engine.execute(&doomed);
        }
        assert_eq!(engine.brownout_rung(), BrownoutRung::Shed);
        let kinds = [
            selection(),
            QueryRequest::containment_selection("boxes", square(-1.0, -1.0, 6.0)),
            QueryRequest::intersection_join("boxes", "boxes"),
            QueryRequest::within_distance_join("boxes", "boxes", 9.0),
        ];
        let reference = tiny_engine(ServiceConfig::default());
        let clean_rows = kinds
            .each_ref()
            .map(|req| reference.execute(req).expect("reference completes").rows);
        // One more shed fills the all-shed (hence clean) window; the
        // following submissions step down a rung per clean window and
        // complete with undegraded rows.
        assert!(matches!(
            engine.execute(&selection()).unwrap_err(),
            ServiceError::Overloaded { .. }
        ));
        let mut completions = 0;
        for k in 0..6 {
            let kind = k % kinds.len();
            if let Ok(resp) = engine.execute(&kinds[kind]) {
                assert_eq!(resp.rows, clean_rows[kind], "brownout must not change rows");
                completions += 1;
            }
        }
        assert_eq!(engine.brownout_rung(), BrownoutRung::Normal);
        let stats = engine.stats();
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(stats.brownout_recoveries, 3);
        assert_eq!(stats.completed, completions);
        assert!(completions > 0, "recovery must let queries through");
    }

    /// With brownouts disabled (the default) nothing sheds and the new
    /// counters stay zero, whatever the outcome mix.
    #[test]
    fn disabled_brownout_never_sheds() {
        let engine = tiny_engine(ServiceConfig::default());
        let doomed = selection().with_budget(QueryBudget {
            deadline: Some(Duration::ZERO),
            max_candidates: None,
        });
        for _ in 0..20 {
            assert!(matches!(
                engine.execute(&doomed).unwrap_err(),
                ServiceError::DeadlineExceeded { .. }
            ));
        }
        assert_eq!(engine.brownout_rung(), BrownoutRung::Normal);
        let stats = engine.stats();
        assert!(stats.balanced(), "{stats:?}");
        assert_eq!(stats.overload_sheds, 0);
        assert_eq!(stats.brownout_steps, 0);
        assert_eq!(stats.brownout_recoveries, 0);
    }
}
