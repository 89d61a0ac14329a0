//! The query engine: a thin wrapper that runs the unified staged executor
//! for each of the five pipelines — intersection selection, containment
//! selection, intersection join, within-distance join, area-of-overlap
//! join (Fig. 8's **MBR filtering → intermediate filtering → geometry
//! comparison**, with per-stage cost accounting).
//!
//! The engine's job is declarative: name the query as a
//! [`QuerySpec`] — which owns the stage-1 candidate enumeration, the
//! intermediate filter chain and the predicate — execute it, shape the
//! rows. The refinement backend (software sweep, or hardware
//! Algorithm 3.1 with its software threshold) and batched hardware
//! submission live behind [`crate::pipeline`]; the benches drive each figure of §4 by sweeping
//! one [`EngineConfig`] knob.

use crate::config::HwConfig;
use crate::hw_intersect::HwTester;
use crate::pipeline::spec::{area_rows, join_rows, selection_rows};
use crate::pipeline::{
    Cand, QuerySpec, RecoveryPolicy, RefinementBackend, SoftwareBackend, Verdict,
};
use crate::stats::CostBreakdown;
use spatial_geom::Polygon;
use spatial_index::RTree;
use spatial_raster::{DeviceKind, MAX_WINDOW_SIDE};
use std::fmt;

/// How the geometry-comparison stage decides candidate pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GeometryTest {
    /// Pure software: plane sweep / modified minDist (the paper's
    /// baseline curves).
    #[default]
    Software,
    /// Hardware-assisted (Algorithm 3.1 / §3.1 distance test), honoring
    /// the `sw_threshold` of the engine's [`HwConfig`] (§4.3): pairs whose
    /// software step 3 visits ≤ the threshold edges of the prologue's
    /// run-box walk take the software test, the rest the hardware filter.
    Hardware,
}

/// Engine configuration: which refinement path, the filters in front of
/// it, and how stage 3 is scheduled.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    pub geometry_test: GeometryTest,
    pub hw: HwConfig,
    /// Interior-filter tiling level for selections; `None` disables the
    /// intermediate filter stage (Figure 10 sweeps `Some(0..=6)`).
    pub interior_filter_level: Option<u32>,
    /// Enable the 0/1-object filters for within-distance joins (Fig. 14).
    pub use_object_filters: bool,
    /// Candidate pairs per hardware submission round. `1` (the default)
    /// is the paper-faithful per-pair choreography; larger values render
    /// many pairs as cells of one atlas batch, amortizing the per-pair
    /// draw-call and Minmax fixed costs without changing any result.
    pub hw_batch: usize,
    /// Which raster device each shard executes the recorded command lists
    /// on. [`DeviceKind::Reference`] (the default) is the one executor;
    /// [`DeviceKind::Fault`] wraps it in a seeded deterministic fault
    /// injector, which never changes results (supervised retry, failover
    /// and exact software fallback) — only the recovery counters and the
    /// modeled recovery time move.
    pub device: DeviceKind,
    /// Retry/quarantine policy for supervised device submission (see
    /// [`RecoveryPolicy`]). Only consulted by hardware-using geometry
    /// tests.
    pub recovery: RecoveryPolicy,
    /// Independent devices in the hardware tester's pool, each built from
    /// [`EngineConfig::device`]. Every submission is aimed at shard 0; the
    /// others serve only what fails over to them when shard 0's breaker
    /// opens (lowest-index healthy shard first). `1` (the default) is the
    /// single device. The only place a shard count is set.
    pub shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            geometry_test: GeometryTest::Software,
            hw: HwConfig::recommended(),
            interior_filter_level: None,
            use_object_filters: false,
            hw_batch: 1,
            device: DeviceKind::Reference,
            recovery: RecoveryPolicy::default(),
            shards: 1,
        }
    }
}

/// A structurally invalid [`EngineConfig`], caught at engine construction
/// instead of panicking (or silently clamping) somewhere inside a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `hw.resolution` is 0: a hardware test would have no pixel to draw
    /// into.
    ZeroResolution,
    /// `hw.resolution` exceeds `spatial_raster::MAX_WINDOW_SIDE`: the
    /// first hardware test would allocate a frame of 9 bytes per pixel
    /// of its square.
    ResolutionTooLarge,
    /// `hw_batch` is 0: the executor could never submit anything.
    ZeroBatch,
    /// `shards` is 0: no shard could ever execute a submission.
    ZeroShards,
    /// `ServiceConfig::admission_capacity` is 0: every query would be
    /// rejected at the door.
    ZeroAdmissionCapacity,
    /// `PlannerConfig::resolutions` is empty, contains a zero or an entry
    /// over `spatial_raster::MAX_WINDOW_SIDE`: the planner would have no
    /// usable hardware plan to price, or would price one whose frame
    /// cannot be allocated.
    BadPlannerResolutions,
    /// `PlannerConfig::sample` is 0: the planner could never price a
    /// candidate pair.
    ZeroPlannerSample,
    /// `PlannerConfig::batch` is 0: the batched hardware plan could
    /// never submit anything.
    ZeroPlannerBatch,
    /// `PlannerConfig::memo_entries` is 0: a memo of no entries would
    /// still hold the last plan, since a full memo is cleared before the
    /// insert.
    ZeroPlanMemo,
    /// `RecoveryPolicy::probation_ns` is `Some(0)`: every breaker would
    /// be ripe the instant it opened, so each submission would probe a
    /// known-bad shard (spell "no probation" as `None`).
    ZeroProbationNs,
    /// `BrownoutConfig::window` is 0: the controller would evaluate an
    /// empty window on every submission and the ladder could never
    /// settle.
    ZeroBrownoutWindow,
    /// `BrownoutConfig::abort_pct` is 0 or above 100. At 0 every window
    /// breaches — one without a deadline abort reads `0 >= 0` — so a
    /// healthy service climbs the ladder to shedding; above 100 no window
    /// can ever breach.
    BadBrownoutAbortPct(u8),
    /// `BrownoutConfig::reject_pct` is 0 or above 100, the same fault for
    /// admission rejections.
    BadBrownoutRejectPct(u8),
}

impl fmt::Display for ConfigError {
    /// Each message names the offending field and the value it held, so a
    /// rejected configuration is diagnosable from the error alone.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroResolution => write!(
                f,
                "invalid EngineConfig: hw.resolution = 0 (a window needs ≥ 1 pixel)"
            ),
            ConfigError::ResolutionTooLarge => write!(
                f,
                "invalid EngineConfig: hw.resolution > {MAX_WINDOW_SIDE} (MAX_WINDOW_SIDE, the \
                 largest window side a device allocates)"
            ),
            ConfigError::ZeroBatch => write!(f, "invalid EngineConfig: hw_batch = 0 (must be ≥ 1)"),
            ConfigError::ZeroShards => {
                write!(f, "invalid EngineConfig: shards = 0 (must be ≥ 1)")
            }
            ConfigError::ZeroAdmissionCapacity => write!(
                f,
                "invalid ServiceConfig: admission_capacity = 0 (no query could ever be admitted)"
            ),
            ConfigError::BadPlannerResolutions => write!(
                f,
                "invalid ServiceConfig: planner.resolutions is empty or contains 0 or an entry > \
                 {MAX_WINDOW_SIDE} (the planner needs ≥ 1 window resolution in \
                 1..=MAX_WINDOW_SIDE to price)"
            ),
            ConfigError::ZeroPlannerSample => {
                write!(f, "invalid ServiceConfig: planner.sample = 0 (must be ≥ 1)")
            }
            ConfigError::ZeroPlannerBatch => {
                write!(f, "invalid ServiceConfig: planner.batch = 0 (must be ≥ 1)")
            }
            ConfigError::ZeroPlanMemo => write!(
                f,
                "invalid ServiceConfig: planner.memo_entries = 0 (must be ≥ 1)"
            ),
            ConfigError::ZeroProbationNs => write!(
                f,
                "invalid EngineConfig: recovery.probation_ns = Some(0) (a zero cool-down would \
                 probe a known-bad shard on every submission; spell \"no probation\" as None)"
            ),
            ConfigError::ZeroBrownoutWindow => write!(
                f,
                "invalid ServiceConfig: brownout.window = 0 (the controller needs ≥ 1 submission \
                 per evaluation window)"
            ),
            ConfigError::BadBrownoutAbortPct(pct) => write!(
                f,
                "invalid ServiceConfig: brownout.abort_pct = {pct} (a breach threshold is a \
                 percentage of the window in 1..=100)"
            ),
            ConfigError::BadBrownoutRejectPct(pct) => write!(
                f,
                "invalid ServiceConfig: brownout.reject_pct = {pct} (a breach threshold is a \
                 percentage of the window in 1..=100)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl EngineConfig {
    pub fn software() -> Self {
        Self::default()
    }

    pub fn hardware(hw: HwConfig) -> Self {
        EngineConfig {
            geometry_test: GeometryTest::Hardware,
            hw,
            ..Self::default()
        }
    }

    /// Structural validation, run by [`SpatialEngine::new`] /
    /// [`SpatialEngine::try_new`] before any backend is built: a window
    /// resolution outside `1..=MAX_WINDOW_SIDE`, a zero batch size, a zero
    /// shard count and a zero probation cool-down are configuration bugs,
    /// not values to clamp quietly.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.hw.resolution == 0 {
            return Err(ConfigError::ZeroResolution);
        }
        if self.hw.resolution > MAX_WINDOW_SIDE {
            return Err(ConfigError::ResolutionTooLarge);
        }
        if self.hw_batch == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.recovery.probation_ns == Some(0) {
            return Err(ConfigError::ZeroProbationNs);
        }
        Ok(())
    }
}

/// A polygon collection plus its bulk-loaded R-tree — built once, queried
/// many times. The engine is agnostic of where the polygons came from (the
/// benches feed it `spatial-datagen` datasets, the examples WKT files).
#[derive(Debug)]
pub struct PreparedDataset {
    pub name: String,
    pub polygons: Vec<Polygon>,
    pub tree: RTree<usize>,
}

impl PreparedDataset {
    pub fn new(name: impl Into<String>, polygons: Vec<Polygon>) -> Self {
        let entries = polygons
            .iter()
            .enumerate()
            .map(|(i, p)| (p.mbr(), i))
            .collect();
        PreparedDataset {
            name: name.into(),
            polygons,
            tree: RTree::bulk_load(entries),
        }
    }

    #[inline]
    pub fn polygon(&self, i: usize) -> &Polygon {
        &self.polygons[i]
    }

    pub fn len(&self) -> usize {
        self.polygons.len()
    }

    pub fn is_empty(&self) -> bool {
        self.polygons.is_empty()
    }
}

pub(crate) fn build_backend(config: &EngineConfig) -> Box<dyn RefinementBackend> {
    if config.geometry_test == GeometryTest::Software {
        return Box::new(SoftwareBackend);
    }
    Box::new(HwTester::with_device_and_policy(
        config.hw,
        config.device,
        config.shards,
        config.recovery,
    ))
}

/// The query engine.
#[derive(Debug)]
pub struct SpatialEngine {
    config: EngineConfig,
    backend: Box<dyn RefinementBackend>,
}

impl SpatialEngine {
    /// Builds an engine, panicking on a structurally invalid configuration
    /// (see `EngineConfig::validate`); use [`SpatialEngine::try_new`] to
    /// handle the error instead.
    pub fn new(config: EngineConfig) -> Self {
        Self::try_new(config).expect("invalid engine configuration")
    }

    /// Builds an engine, rejecting invalid configurations with a typed
    /// error.
    pub fn try_new(config: EngineConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let backend = build_backend(&config);
        Ok(SpatialEngine { config, backend })
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Reconfigures in place: the backend is rebuilt to match (knob
    /// sweeps flip the same engine through configurations). Panics on an
    /// invalid configuration, like [`SpatialEngine::new`].
    pub fn set_config(&mut self, config: EngineConfig) {
        config.validate().expect("invalid engine configuration");
        self.backend = build_backend(&config);
        self.config = config;
    }

    /// Runs `spec` end to end: stage 1 once, then stages 2–3 on it.
    fn execute<O: Verdict>(&mut self, spec: QuerySpec<'_>) -> (Vec<(Cand, O)>, CostBreakdown) {
        let stage1 = spec.stage1();
        spec.execute(&self.config, self.backend.as_mut(), stage1)
    }

    /// Intersection selection: all objects of `ds` intersecting `query`.
    pub fn intersection_selection(
        &mut self,
        ds: &PreparedDataset,
        query: &Polygon,
    ) -> (Vec<usize>, CostBreakdown) {
        let (kept, cost) = self.execute(QuerySpec::intersection_selection(ds, query));
        (selection_rows(kept), cost)
    }

    /// Containment selection: all objects of `ds` lying strictly inside
    /// `query` (no boundary contact). The interior filter, when enabled,
    /// confirms positives before any geometry comparison — this predicate
    /// is where Table 1 says it pulls double duty.
    pub fn containment_selection(
        &mut self,
        ds: &PreparedDataset,
        query: &Polygon,
    ) -> (Vec<usize>, CostBreakdown) {
        let (kept, cost) = self.execute(QuerySpec::containment_selection(ds, query));
        (selection_rows(kept), cost)
    }

    /// Intersection join: all pairs `(i, j)` with `a[i]` intersecting `b[j]`.
    pub fn intersection_join(
        &mut self,
        a: &PreparedDataset,
        b: &PreparedDataset,
    ) -> (Vec<(usize, usize)>, CostBreakdown) {
        let (kept, cost) = self.execute(QuerySpec::intersection_join(a, b));
        (join_rows(kept), cost)
    }

    /// Within-distance join (buffer query): pairs within distance `d`.
    pub fn within_distance_join(
        &mut self,
        a: &PreparedDataset,
        b: &PreparedDataset,
        d: f64,
    ) -> (Vec<(usize, usize)>, CostBreakdown) {
        let (kept, cost) = self.execute(QuerySpec::within_distance_join(a, b, d));
        (join_rows(kept), cost)
    }

    /// Area-of-overlap aggregation join: every pair `(i, j)` whose
    /// interiors share area, with the area of `a[i] ∩ b[j]` quantized to
    /// a `resolution × resolution` grid over the pair's shared MBR — the
    /// recorded fragment-counting choreography of DESIGN.md §14. Pairs
    /// measuring zero are dropped; rows come back sorted by `(i, j)`.
    ///
    /// The query's resolution is its own parameter (it sets the
    /// quantization of the *answer*, not of a filter); the configured
    /// `hw.resolution` keeps tuning only the boolean choreographies.
    /// Rows and areas are bit-identical across backends, devices, shards
    /// and seeded fault plans.
    pub fn overlap_area_join(
        &mut self,
        a: &PreparedDataset,
        b: &PreparedDataset,
        resolution: usize,
    ) -> (Vec<(usize, usize, f64)>, CostBreakdown) {
        let (kept, cost) = self.execute(QuerySpec::overlap_area_join(a, b, resolution));
        (area_rows(kept), cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_geom::{min_dist_brute, polygons_intersect_brute};

    /// Mean sqrt(MBR area) — a BaseD-like scale for test distances.
    fn avg_extent(ds: &PreparedDataset) -> f64 {
        let s: f64 = ds
            .polygons
            .iter()
            .map(|p| (p.mbr().width() * p.mbr().height()).sqrt())
            .sum();
        s / ds.len() as f64
    }

    fn prepare(ds: spatial_datagen::Dataset) -> PreparedDataset {
        PreparedDataset::new(ds.name, ds.polygons)
    }

    fn tiny_pair() -> (PreparedDataset, PreparedDataset) {
        let a = prepare(spatial_datagen::landc(0.002, 7));
        let b = prepare(spatial_datagen::lando(0.002, 7));
        (a, b)
    }

    #[test]
    fn selection_software_vs_hardware_agree() {
        let ds = prepare(spatial_datagen::water(0.002, 3));
        let queries = spatial_datagen::states50(3);
        let mut sw = SpatialEngine::new(EngineConfig::software());
        let mut hw = SpatialEngine::new(EngineConfig::hardware(HwConfig::at_resolution(8)));
        for q in queries.polygons.iter().take(5) {
            let (rs, _) = sw.intersection_selection(&ds, q);
            let (rh, _) = hw.intersection_selection(&ds, q);
            assert_eq!(rs, rh);
        }
    }

    #[test]
    fn selection_matches_brute_force() {
        let ds = prepare(spatial_datagen::water(0.002, 4));
        let queries = spatial_datagen::states50(4);
        let q = &queries.polygons[0];
        let mut sw = SpatialEngine::new(EngineConfig::software());
        let (rs, cost) = sw.intersection_selection(&ds, q);
        let expected: Vec<usize> = ds
            .polygons
            .iter()
            .enumerate()
            .filter(|(_, p)| polygons_intersect_brute(q, p))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(rs, expected);
        assert!(cost.candidates >= rs.len());
    }

    #[test]
    fn interior_filter_does_not_change_results() {
        let ds = prepare(spatial_datagen::water(0.002, 5));
        let queries = spatial_datagen::states50(5);
        let mut plain = SpatialEngine::new(EngineConfig::software());
        let mut filtered = SpatialEngine::new(EngineConfig {
            interior_filter_level: Some(4),
            ..EngineConfig::software()
        });
        for q in queries.polygons.iter().take(4) {
            let (r1, _) = plain.intersection_selection(&ds, q);
            let (r2, c2) = filtered.intersection_selection(&ds, q);
            assert_eq!(r1, r2);
            let _ = c2.filter_hits; // may be zero; correctness is the point
        }
    }

    #[test]
    fn join_software_vs_hardware_agree() {
        let (a, b) = tiny_pair();
        let mut sw = SpatialEngine::new(EngineConfig::software());
        let mut hw = SpatialEngine::new(EngineConfig::hardware(HwConfig::at_resolution(8)));
        let (rs, cs) = sw.intersection_join(&a, &b);
        let (rh, ch) = hw.intersection_join(&a, &b);
        assert_eq!(rs, rh);
        assert_eq!(cs.candidates, ch.candidates);
        assert!(!rs.is_empty(), "coverage datasets must join non-trivially");
    }

    #[test]
    fn within_join_agrees_with_oracle_and_hw() {
        let (a, b) = tiny_pair();
        let d = avg_extent(&a).min(avg_extent(&b)) * 0.5;
        let mut sw = SpatialEngine::new(EngineConfig {
            use_object_filters: true,
            ..EngineConfig::software()
        });
        let mut hw = SpatialEngine::new(EngineConfig {
            use_object_filters: true,
            ..EngineConfig::hardware(HwConfig::at_resolution(8))
        });
        let (rs, cost_s) = sw.within_distance_join(&a, &b, d);
        let (rh, _) = hw.within_distance_join(&a, &b, d);
        assert_eq!(rs, rh);
        // Oracle spot-check on a subset of candidate pairs.
        for (i, j) in rs.iter().take(20) {
            assert!(min_dist_brute(a.polygon(*i), b.polygon(*j)) <= d + 1e-9);
        }
        assert!(cost_s.filter_hits + cost_s.tests.software_tests > 0);
    }

    #[test]
    fn overlap_join_is_identical_across_backends_and_bounded_by_oracle() {
        let (a, b) = tiny_pair();
        let res = 32usize;
        let mut sw = SpatialEngine::new(EngineConfig::software());
        let mut hw = SpatialEngine::new(EngineConfig::hardware(HwConfig::at_resolution(8)));
        let (rs, cost_s) = sw.overlap_area_join(&a, &b, res);
        let (rh, cost_h) = hw.overlap_area_join(&a, &b, res);
        assert!(!rs.is_empty(), "coverage datasets must overlap somewhere");
        assert_eq!(rs.len(), rh.len());
        for ((i, j, sa), (hi, hj, ha)) in rs.iter().zip(&rh) {
            assert_eq!((i, j), (hi, hj));
            assert_eq!(sa.to_bits(), ha.to_bits(), "pair ({i},{j})");
        }
        assert_eq!(cost_s.tests.overlap_tests, cost_h.tests.overlap_tests);
        // Error bound spot-check: within the §14 envelope of the exact
        // clipped area (boundary-crossed cells × cell area, bounded
        // generously by a perimeter estimate).
        for (i, j, area) in rs.iter().take(20) {
            let (p, q) = (a.polygon(*i), b.polygon(*j));
            if let Some(exact) = spatial_geom::overlap_area_exact(p, q) {
                let region = p.mbr().intersection(&q.mbr()).unwrap();
                let cell = crate::hw_overlap::overlap_cell_area(region, res);
                let envelope = (p.vertex_count() + q.vertex_count() + 4 * res) as f64 * 2.0 * cell;
                assert!(
                    (area - exact).abs() <= envelope,
                    "pair ({i},{j}): hw {area} exact {exact} envelope {envelope}"
                );
            }
        }
    }

    #[test]
    fn overlap_join_is_invariant_across_shards() {
        let (a, b) = tiny_pair();
        let base_cfg = EngineConfig::hardware(HwConfig::at_resolution(8));
        let mut base_engine = SpatialEngine::new(base_cfg.clone());
        let (base, base_cost) = base_engine.overlap_area_join(&a, &b, 16);
        assert!(!base.is_empty());
        for shards in [2, 3] {
            let mut e = SpatialEngine::new(EngineConfig {
                shards,
                ..base_cfg.clone()
            });
            let (rows, cost) = e.overlap_area_join(&a, &b, 16);
            assert_eq!(rows.len(), base.len(), "s{shards}");
            for ((i, j, ar), (bi, bj, br)) in rows.iter().zip(&base) {
                assert_eq!((i, j), (bi, bj));
                assert_eq!(ar.to_bits(), br.to_bits(), "pair ({i},{j}) drifted");
            }
            assert_eq!(cost.tests.overlap_tests, base_cost.tests.overlap_tests);
            assert_eq!(cost.tests.hw, base_cost.tests.hw);
        }
    }

    #[test]
    fn object_filters_do_not_change_results() {
        let (a, b) = tiny_pair();
        let d = avg_extent(&a).max(avg_extent(&b));
        let mut plain = SpatialEngine::new(EngineConfig::software());
        let mut filtered = SpatialEngine::new(EngineConfig {
            use_object_filters: true,
            ..EngineConfig::software()
        });
        let (r1, _) = plain.within_distance_join(&a, &b, d);
        let (r2, c2) = filtered.within_distance_join(&a, &b, d);
        assert_eq!(r1, r2);
        assert!(
            c2.filter_hits > 0,
            "BaseD-scale joins should confirm pairs early"
        );
    }

    #[test]
    fn containment_selection_sw_hw_agree_and_match_oracle() {
        let ds = prepare(spatial_datagen::lando(0.002, 8));
        let queries = spatial_datagen::states50(8);
        let mut sw = SpatialEngine::new(EngineConfig::software());
        let mut hw = SpatialEngine::new(EngineConfig::hardware(HwConfig::at_resolution(8)));
        for q in queries.polygons.iter().take(4) {
            let (rs, _) = sw.containment_selection(&ds, q);
            let (rh, _) = hw.containment_selection(&ds, q);
            assert_eq!(rs, rh);
            // Oracle: strictly contained = vertex inside + boundaries
            // disjoint (brute force).
            for &i in &rs {
                let p = ds.polygon(i);
                assert!(spatial_geom::point_in_polygon(p.vertices()[0], q));
                for ep in p.edges() {
                    for eq in q.edges() {
                        assert!(!ep.intersects(&eq), "boundaries touch for result {i}");
                    }
                }
            }
            // Containment results are a subset of intersection results.
            let (ri, _) = sw.intersection_selection(&ds, q);
            for &i in &rs {
                assert!(ri.contains(&i));
            }
        }
    }

    #[test]
    fn containment_with_interior_filter_is_unchanged() {
        let ds = prepare(spatial_datagen::lando(0.002, 9));
        let queries = spatial_datagen::states50(9);
        let mut plain = SpatialEngine::new(EngineConfig::software());
        let mut filtered = SpatialEngine::new(EngineConfig {
            interior_filter_level: Some(4),
            ..EngineConfig::software()
        });
        for q in queries.polygons.iter().take(3) {
            let (r1, _) = plain.containment_selection(&ds, q);
            let (r2, _) = filtered.containment_selection(&ds, q);
            assert_eq!(r1, r2);
        }
    }

    #[test]
    fn reconfiguring_an_engine_reuses_it_correctly() {
        let ds = prepare(spatial_datagen::water(0.002, 12));
        let queries = spatial_datagen::states50(12);
        let q = &queries.polygons[1];
        let mut e = SpatialEngine::new(EngineConfig::software());
        let (expected, _) = e.intersection_selection(&ds, q);
        // Flip the same engine through hardware configs and back.
        for res in [1usize, 8, 32] {
            e.set_config(EngineConfig::hardware(HwConfig::at_resolution(res)));
            let (got, _) = e.intersection_selection(&ds, q);
            assert_eq!(got, expected, "res {res}");
        }
        e.set_config(EngineConfig::software());
        let (again, _) = e.intersection_selection(&ds, q);
        assert_eq!(again, expected);
    }

    #[test]
    fn cost_breakdown_is_populated() {
        let (a, b) = tiny_pair();
        let mut hw = SpatialEngine::new(EngineConfig::hardware(HwConfig::at_resolution(8)));
        let (_, cost) = hw.intersection_join(&a, &b);
        assert!(cost.candidates > 0);
        assert!(cost.geometry_comparison.as_nanos() > 0);
        assert!(cost.tests.hw_tests + cost.tests.software_tests + cost.tests.decided_by_pip > 0);
    }

    /// Every pipeline, every backend, batched: identical results to the
    /// paper-faithful per-pair engine.
    #[test]
    fn batched_engine_matches_default_on_all_pipelines() {
        let (a, b) = tiny_pair();
        let queries = spatial_datagen::states50(13);
        let q = &queries.polygons[0];
        let d = avg_extent(&a).min(avg_extent(&b)) * 0.5;
        for base in [
            EngineConfig::software(),
            EngineConfig::hardware(HwConfig::at_resolution(8)),
            EngineConfig::hardware(HwConfig::at_resolution(8).with_threshold(40)),
        ] {
            let mut plain = SpatialEngine::new(base.clone());
            let mut tuned = SpatialEngine::new(EngineConfig {
                hw_batch: 32,
                ..base
            });
            let (s1, _) = plain.intersection_selection(&a, q);
            let (s2, _) = tuned.intersection_selection(&a, q);
            assert_eq!(s1, s2);
            let (c1, _) = plain.containment_selection(&a, q);
            let (c2, _) = tuned.containment_selection(&a, q);
            assert_eq!(c1, c2);
            let (j1, cost1) = plain.intersection_join(&a, &b);
            let (j2, cost2) = tuned.intersection_join(&a, &b);
            assert_eq!(j1, j2);
            assert_eq!(cost1.tests.hw_tests, cost2.tests.hw_tests);
            assert_eq!(cost1.tests.software_tests, cost2.tests.software_tests);
            let (w1, _) = plain.within_distance_join(&a, &b, d);
            let (w2, _) = tuned.within_distance_join(&a, &b, d);
            assert_eq!(w1, w2);
        }
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        let zero_resolution = EngineConfig::hardware(HwConfig::at_resolution(0));
        assert_eq!(
            SpatialEngine::try_new(zero_resolution).err(),
            Some(ConfigError::ZeroResolution)
        );
        let zero_batch = EngineConfig {
            hw_batch: 0,
            ..EngineConfig::software()
        };
        assert_eq!(
            SpatialEngine::try_new(zero_batch).err(),
            Some(ConfigError::ZeroBatch)
        );
        let zero_shards = EngineConfig {
            shards: 0,
            ..EngineConfig::software()
        };
        assert_eq!(zero_shards.validate(), Err(ConfigError::ZeroShards));
        // A zero probation cool-down is an error; `None` is the valid
        // "no probation" spelling (and the default).
        let zero_probation = EngineConfig {
            recovery: crate::RecoveryPolicy {
                probation_ns: Some(0),
                ..crate::RecoveryPolicy::default()
            },
            ..EngineConfig::software()
        };
        assert_eq!(zero_probation.validate(), Err(ConfigError::ZeroProbationNs));
        let some_probation = EngineConfig {
            recovery: crate::RecoveryPolicy {
                probation_ns: Some(1_000),
                ..crate::RecoveryPolicy::default()
            },
            ..EngineConfig::software()
        };
        assert!(some_probation.validate().is_ok());
        assert!(EngineConfig::software().validate().is_ok());
    }

    /// Every `ConfigError` message names the offending field (and the
    /// value it held) so a rejected config is diagnosable from the error
    /// alone — one assertion per variant.
    #[test]
    fn config_error_messages_name_the_offending_field() {
        let cases = [
            (ConfigError::ZeroResolution, "hw.resolution = 0"),
            (ConfigError::ResolutionTooLarge, "hw.resolution > 4096"),
            (ConfigError::ZeroBatch, "hw_batch = 0"),
            (ConfigError::ZeroShards, "shards = 0"),
            (ConfigError::ZeroAdmissionCapacity, "admission_capacity = 0"),
            (ConfigError::BadPlannerResolutions, "planner.resolutions"),
            (ConfigError::ZeroPlannerSample, "planner.sample = 0"),
            (ConfigError::ZeroPlannerBatch, "planner.batch = 0"),
            (ConfigError::ZeroPlanMemo, "planner.memo_entries = 0"),
            (
                ConfigError::ZeroProbationNs,
                "recovery.probation_ns = Some(0)",
            ),
            (ConfigError::ZeroBrownoutWindow, "brownout.window = 0"),
            (
                ConfigError::BadBrownoutAbortPct(0),
                "brownout.abort_pct = 0",
            ),
            (
                ConfigError::BadBrownoutRejectPct(101),
                "brownout.reject_pct = 101",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(
                msg.contains(needle) && msg.starts_with("invalid "),
                "{err:?} renders {msg:?}, expected it to mention {needle:?}"
            );
        }
    }

    /// The hardware backend sweeps the §4.3 threshold spectrum without
    /// changing any result.
    #[test]
    fn hardware_engine_is_exact_across_thresholds() {
        let (a, b) = tiny_pair();
        let mut sw = SpatialEngine::new(EngineConfig::software());
        let (expected, _) = sw.intersection_join(&a, &b);
        let mut e = SpatialEngine::new(EngineConfig::software());
        for t in [0, 40, 500, usize::MAX] {
            e.set_config(EngineConfig::hardware(
                HwConfig::at_resolution(8).with_threshold(t),
            ));
            let (got, cost) = e.intersection_join(&a, &b);
            assert_eq!(got, expected, "threshold {t}");
            if t == usize::MAX {
                assert_eq!(cost.tests.hw_tests, 0);
            }
        }
    }
}
