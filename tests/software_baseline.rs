//! The software refinement path answers from facts a `Polygon` caches at
//! construction — its MBR, its four extreme vertices and, from 64 vertices
//! up, the box of every run of 32 edges. On a small LANDC ⋈ LANDO candidate
//! set: a polygon derived by any method that moves or reorders vertices
//! answers exactly like a polygon rebuilt from the same vertices (the caches
//! never go stale), the paper's within-distance kernel, its sweep variant
//! and the brute-force distance agree, the 0/1-object filters change no row
//! of a software distance join while every candidate is accounted for as a
//! filter hit or a refinement, a hardware join that submits only each
//! window's live boundary runs returns the software join's rows, and the
//! intersection and containment tests answer like the exhaustive forward
//! sweep over whole boundaries. Stage 1 emits a pinned candidate sequence.

use hwspatial::core::engine::{EngineConfig, PreparedDataset, SpatialEngine};
use hwspatial::core::{HwConfig, QuerySpec};
use hwspatial::datagen;
use hwspatial::geom::chains::frontier_clipped;
use hwspatial::geom::intersect::restricted_edges;
use hwspatial::geom::sweep::forward_sweep_intersects;
use hwspatial::geom::{
    min_dist_brute, point_in_polygon, polygon_contained_in, polygons_intersect, within_distance,
    Polygon, Segment,
};
use hwspatial::index::{join_intersecting, join_within_distance_with, FilterConfig, FilterStats};

const SCALE: f64 = 0.002;
const SEED: u64 = 7;

fn corpus() -> (PreparedDataset, PreparedDataset, f64) {
    let (a, b) = (datagen::landc(SCALE, SEED), datagen::lando(SCALE, SEED));
    let base_d = datagen::base_distance(&a, &b);
    let prepare = |ds: datagen::Dataset| PreparedDataset::new(ds.name, ds.polygons);
    (prepare(a), prepare(b), base_d)
}

/// The stage-1 candidates of the within-`d` join, as polygon pairs.
fn candidates<'a>(
    a: &'a PreparedDataset,
    b: &'a PreparedDataset,
    d: f64,
) -> Vec<(&'a Polygon, &'a Polygon)> {
    let (cfg, mut stats) = (FilterConfig::default(), FilterStats::default());
    join_within_distance_with(&a.tree, &b.tree, d, &cfg, &mut stats)
        .into_iter()
        .map(|(i, j)| (a.polygon(*i), b.polygon(*j)))
        .collect()
}

fn distances(base_d: f64) -> [f64; 3] {
    [0.5 * base_d, base_d, 2.0 * base_d]
}

/// `p` through every `Polygon` method that yields a polygon with moved or
/// reordered vertices (and the plain copy). One of `p` and its reversal
/// winds clockwise, so one of the two `ccw` calls really reverses.
fn derived(p: &Polygon, shift: f64) -> [Polygon; 5] {
    let reversed = Polygon::new(p.vertices().iter().rev().copied().collect())
        .expect("a reversed valid ring is valid");
    let half_turn = p
        .scaled_about(p.mbr().center(), -1.0)
        .expect("a half-turn keeps vertices finite and distinct");
    [
        p.clone(),
        p.clone().ccw(),
        reversed.ccw(),
        p.translated(shift, -0.5 * shift),
        half_turn,
    ]
}

#[test]
fn derived_polygons_answer_like_freshly_built_ones() {
    let (a, b, base_d) = corpus();
    let pairs = candidates(&a, &b, 2.0 * base_d);
    assert!(pairs.len() > 100, "only {} candidates", pairs.len());
    let (mut chains, mut positives) = (0usize, 0usize);
    // Derived polygons that carry run boxes (64 vertices up) and ones that
    // are scanned whole; restricted edges kept and dropped.
    let (mut boxed, mut unboxed, mut kept, mut dropped) = (0usize, 0usize, 0usize, 0usize);
    // Both ways round: LANDC's polygons are mostly large, LANDO's small.
    for (p, q) in pairs.iter().flat_map(|&(p, q)| [(p, q), (q, p)]) {
        if p.vertex_count() >= 64 {
            boxed += 1;
        } else {
            unboxed += 1;
        }
        for dp in derived(p, 0.25 * base_d) {
            let fresh = Polygon::new(dp.vertices().to_vec()).expect("derived from a valid polygon");
            assert_eq!(dp, fresh, "MBR, extremes and run boxes follow the vertices");
            for probe in [q.vertices()[0], q.mbr().center(), dp.mbr().center()] {
                assert_eq!(
                    point_in_polygon(probe, &dp),
                    point_in_polygon(probe, &fresh)
                );
            }
            // A moved polygon no longer shares `q`'s neighbourhood exactly;
            // any region it still reaches will do.
            let region = q.mbr().expanded(base_d);
            let restricted = restricted_edges(&dp, &region);
            assert_eq!(restricted, restricted_edges(&fresh, &region));
            kept += restricted.len();
            dropped += dp.vertex_count() - restricted.len();
            for d in distances(base_d) {
                let chain = frontier_clipped(&dp, &q.mbr(), d);
                assert_eq!(chain, frontier_clipped(&fresh, &q.mbr(), d));
                chains += usize::from(chain.len() < dp.vertex_count());
                let within = within_distance(&dp, q, d);
                assert_eq!(within, within_distance(&fresh, q, d));
                assert_eq!(within, within_distance(q, &dp, d), "symmetric");
                positives += usize::from(within);
            }
        }
    }
    assert!(
        chains > 0 && positives > 0,
        "{chains} chains, {positives} positives"
    );
    assert!(
        boxed > 20 && unboxed > 20,
        "{boxed} polygons with run boxes, {unboxed} without"
    );
    assert!(kept > 0 && dropped > 0, "{kept} kept, {dropped} dropped");
}

/// With `sw_threshold = 0` every pair point-in-polygon leaves undecided
/// goes to the device, as the live boundary runs of its window only: the
/// hardware intersection join returns the software join's rows.
#[test]
fn a_hardware_join_over_live_runs_returns_the_software_rows() {
    let (a, b, _) = corpus();
    let (software, _) = SpatialEngine::new(EngineConfig::software()).intersection_join(&a, &b);
    for hw_batch in [1, 32] {
        let config = EngineConfig {
            hw_batch,
            ..EngineConfig::hardware(HwConfig::at_resolution(8).with_threshold(0))
        };
        let (rows, cost) = SpatialEngine::new(config).intersection_join(&a, &b);
        assert_eq!(rows, software, "hw_batch = {hw_batch}");
        assert!(cost.tests.hw_tests > 0 && cost.tests.skipped_by_threshold == 0);
        // Fewer segments submitted than the tested pairs have edges: two
        // whole boundaries of the corpus's large polygons are thousands.
        assert!(cost.tests.hw.primitives < 500 * cost.tests.hw_tests);
    }
}

/// Step 3 of the intersection and containment tests — the block search
/// over the restricted edges — answers like the exhaustive forward sweep
/// over the whole boundaries, on every intersection candidate both ways
/// round.
#[test]
fn intersection_and_containment_agree_with_the_oracle() {
    let (a, b, _) = corpus();
    let (mut crossings, mut apart, mut contained) = (0usize, 0usize, 0usize);
    for (&i, &j) in join_intersecting(&a.tree, &b.tree) {
        let (p, q) = (a.polygon(i), b.polygon(j));
        for (p, q) in [(p, q), (q, p)] {
            let edges = |poly: &Polygon| poly.edges().collect::<Vec<Segment>>();
            let cross = forward_sweep_intersects(&edges(p), &edges(q));
            let inside = point_in_polygon(p.vertices()[0], q);
            let pip = inside || point_in_polygon(q.vertices()[0], p);
            assert_eq!(polygons_intersect(p, q), cross || pip);
            let within = q.mbr().contains_rect(&p.mbr()) && inside && !cross;
            assert_eq!(polygon_contained_in(p, q), within);
            crossings += usize::from(cross && !pip);
            apart += usize::from(!cross && !pip);
            contained += usize::from(within);
        }
    }
    assert!(
        crossings > 0 && apart > 0 && contained > 0,
        "{crossings} decided by a crossing, {apart} apart, {contained} contained"
    );
}

#[test]
fn pairwise_sweep_and_brute_force_distance_tests_agree() {
    let (a, b, base_d) = corpus();
    let pairs = candidates(&a, &b, 2.0 * base_d);
    // The brute-force oracle is quadratic: a strided sample of pairs small
    // enough to keep this test in seconds.
    let sample: Vec<_> = pairs
        .iter()
        .filter(|(p, q)| p.vertex_count() * q.vertex_count() <= 40_000)
        .step_by(pairs.len().div_ceil(64))
        .collect();
    assert!(sample.len() >= 32, "only {} sampled pairs", sample.len());
    let (mut within, mut beyond) = (0usize, 0usize);
    for &&(p, q) in &sample {
        let exact = min_dist_brute(p, q);
        for d in distances(base_d) {
            assert_eq!(
                within_distance(p, q, d),
                exact <= d,
                "d = {d}, dist = {exact}"
            );
            if exact <= d {
                within += 1;
            } else {
                beyond += 1;
            }
        }
    }
    assert!(within > 0 && beyond > 0, "{within} within, {beyond} beyond");
}

#[test]
fn object_filters_change_no_row_and_account_for_every_candidate() {
    let (a, b, base_d) = corpus();
    for d in distances(base_d) {
        let join = |use_object_filters| {
            SpatialEngine::new(EngineConfig {
                use_object_filters,
                ..EngineConfig::software()
            })
            .within_distance_join(&a, &b, d)
        };
        let (bare_rows, bare) = join(false);
        let (rows, cost) = join(true);
        assert_eq!(rows, bare_rows, "d = {d}");
        assert_eq!(bare.filter_hits, 0);
        assert_eq!(bare.tests.software_tests, bare.candidates);
        assert_eq!(cost.candidates, bare.candidates);
        assert!(cost.filter_hits > 0, "the filters must confirm something");
        assert_eq!(
            cost.filter_hits + cost.tests.software_tests,
            cost.candidates
        );
    }
}

/// What stage 1 of a query is pinned to: the candidate count, an FNV-1a
/// fold of the candidate sequence in emission order and the MBR tests it
/// charged.
fn stage1_pin(spec: QuerySpec<'_>) -> (usize, u64, usize) {
    let stage1 = spec.stage1();
    let hash = stage1
        .candidates
        .iter()
        .flat_map(|&(i, j)| [i as u64, j as u64])
        .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
        });
    (stage1.candidates.len(), hash, stage1.stats.node_tests)
}

/// Rows are sorted after stage 3, so only this sees candidate *order*:
/// the planner's pricing sample and the object-filter cache follow the
/// stage-1 sequence, which is the synchronized descent's visit order.
#[test]
fn stage1_emits_the_pinned_candidate_sequence() {
    let (a, b, base_d) = corpus();
    let states = datagen::states50(SEED).polygons;
    // `states[0]` descends one leaf of `b`'s tree; `states[19]` four.
    let (window, wide) = (&states[0], &states[19]);
    let got = [
        stage1_pin(QuerySpec::intersection_join(&a, &b)),
        stage1_pin(QuerySpec::within_distance_join(&a, &b, base_d)),
        stage1_pin(QuerySpec::intersection_selection(&b, window)),
        stage1_pin(QuerySpec::containment_selection(&b, wide)),
        stage1_pin(QuerySpec::intersection_selection(&b, wide)),
    ];
    assert_eq!(
        got,
        [
            (34, 14_101_616_692_928_981_595, 1332),
            (67, 10_477_293_287_080_647_393, 1332),
            (6, 7_270_046_635_401_972_344, 22),
            (6, 11_480_206_910_829_613_896, 52),
            (7, 7_524_328_202_177_271_920, 52),
        ]
    );
}
