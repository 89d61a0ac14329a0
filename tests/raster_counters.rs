//! The simulated rasterizer's ledger is pinned: on a small LANDC ⋈ LANDO
//! join every hardware choreography (per-pair and atlas-batched
//! intersection, within-distance, overlap-area) charges exactly these
//! `HwStats`, models exactly this GPU time and returns exactly these rows
//! — so a simulator-only speed-up (a clip stage, a faster kernel) shows up
//! here the moment it moves a counter or a pixel — and every overlap area
//! stays inside the DESIGN.md §14 quantization envelope of exact clipping
//! (a slice of invariants 6, 8 and 15).

use hwspatial::core::engine::{EngineConfig, PreparedDataset, SpatialEngine};
use hwspatial::core::hw_overlap::overlap_cell_area;
use hwspatial::core::{CostBreakdown, HwConfig};
use hwspatial::datagen;
use hwspatial::geom::overlap_area_exact;
use hwspatial::raster::HwStats;

const SCALE: f64 = 0.002;
const SEED: u64 = 7;
const RESOLUTION: usize = 16;
/// The exact-clipping oracle triangulates both polygons (quadratic); the
/// corpus's two multi-thousand-vertex polygons would take 12 s of it.
const ORACLE_MAX_VERTICES: usize = 512;

/// What one join is pinned to: row count, an FNV-1a fold of the rows
/// (`i`, `j`, area bits — 0 for the boolean joins), the seven `HwStats`
/// counters and the modeled GPU nanoseconds.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    rows: usize,
    row_hash: u64,
    hw: HwStats,
    gpu_modeled_ns: u128,
}

fn pinned(
    rows: impl ExactSizeIterator<Item = (usize, usize, u64)>,
    cost: &CostBreakdown,
) -> Pinned {
    let n = rows.len();
    let row_hash = rows
        .flat_map(|(i, j, bits)| [i as u64, j as u64, bits])
        .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
        });
    Pinned {
        rows: n,
        row_hash,
        hw: cost.tests.hw,
        gpu_modeled_ns: cost.tests.gpu_modeled.as_nanos(),
    }
}

/// `hw` in `HwStats` field order: pixels written, fragments tested, pixels
/// scanned, primitives, draw calls, minmax queries, batches.
fn expect(rows: usize, row_hash: u64, hw: [usize; 7], gpu_modeled_ns: u128) -> Pinned {
    let [pixels_written, fragments_tested, pixels_scanned, primitives, draw_calls, minmax_queries, batches] =
        hw;
    Pinned {
        rows,
        row_hash,
        hw: HwStats {
            pixels_written,
            fragments_tested,
            pixels_scanned,
            primitives,
            draw_calls,
            minmax_queries,
            batches,
        },
        gpu_modeled_ns,
    }
}

fn prepare(ds: datagen::Dataset) -> PreparedDataset {
    PreparedDataset::new(ds.name, ds.polygons)
}

/// Threshold 0 sends every undecided pair to the hardware.
fn engine(hw_batch: usize) -> SpatialEngine {
    SpatialEngine::new(EngineConfig {
        hw_batch,
        use_object_filters: true,
        ..EngineConfig::hardware(HwConfig::at_resolution(8).with_threshold(0))
    })
}

#[test]
fn hardware_joins_charge_exactly_the_pinned_ledger() {
    let landc = datagen::landc(SCALE, SEED);
    let lando = datagen::lando(SCALE, SEED);
    let d = datagen::base_distance(&landc, &lando);
    let (a, b) = (prepare(landc), prepare(lando));
    let flags = |rows: Vec<(usize, usize)>| rows.into_iter().map(|(i, j)| (i, j, 0u64));

    let (ij, ij_cost) = engine(1).intersection_join(&a, &b);
    let (ij32, ij32_cost) = engine(32).intersection_join(&a, &b);
    let (dj, dj_cost) = engine(1).within_distance_join(&a, &b, d);
    let (areas, oa_cost) = engine(1).overlap_area_join(&a, &b, RESOLUTION);
    let area_bits = areas.iter().map(|&(i, j, area)| (i, j, area.to_bits()));
    assert_eq!(
        [
            ("intersection, per pair", pinned(flags(ij), &ij_cost)),
            ("intersection, atlas of 32", pinned(flags(ij32), &ij32_cost)),
            ("within-distance", pinned(flags(dj), &dj_cost)),
            ("overlap-area", pinned(area_bits, &oa_cost)),
        ],
        // Taken from commit 28944a5, before the rasterizer had a clip
        // stage. Batching moves fixed costs only: same rows, pixels and
        // fragments, 34 draws and 17 readbacks folded into 4 and 2.
        //
        // Re-pinned once, deliberately, when the projection window began
        // to submit only the boundary runs its clip compare cannot reject
        // (`choreography::LiveRuns`): `primitives` 55 491 → 3 103 on both
        // intersection joins and 108 674 → 16 498 on the distance join,
        // and `gpu_modeled_ns`, which prices them, 36 025 → 25 549,
        // 20 578 → 10 101 and 55 680 → 37 246. Every other value —
        // rows, pixels, fragments, scans, draws, readbacks — is the one
        // pinned at 28944a5; the overlap count submits fills and did not
        // move.
        [
            (
                "intersection, per pair",
                expect(
                    21,
                    15094090820308535126,
                    [4474, 6380, 7616, 3103, 34, 17, 0],
                    25549
                )
            ),
            (
                "intersection, atlas of 32",
                expect(
                    21,
                    15094090820308535126,
                    [4474, 6380, 13356, 3103, 4, 2, 2],
                    10101
                )
            ),
            (
                "within-distance",
                expect(
                    59,
                    8698787990472492212,
                    [53632, 69421, 6272, 16498, 56, 14, 0],
                    37246
                )
            ),
            (
                "overlap-area",
                expect(
                    21,
                    14167026050534382391,
                    [8228, 8228, 17408, 68, 68, 34, 0],
                    50286
                )
            ),
        ]
    );

    // §14: the fill rule and exact clipping disagree only on cells the
    // clipped boundary crosses — at most `2·res + 3` cells for each of its
    // at most `2·(Vp + Vq)` segments.
    let mut checked = 0;
    for &(i, j, area) in &areas {
        let (p, q) = (a.polygon(i), b.polygon(j));
        if p.vertex_count().max(q.vertex_count()) > ORACLE_MAX_VERTICES {
            continue;
        }
        let Some(exact) = overlap_area_exact(p, q) else {
            continue;
        };
        let region = p.mbr().intersection(&q.mbr()).expect("measured pair");
        let segments = 2.0 * (p.vertex_count() + q.vertex_count()) as f64;
        let envelope =
            segments * (2.0 * RESOLUTION as f64 + 3.0) * overlap_cell_area(region, RESOLUTION);
        assert!(
            (area - exact).abs() <= envelope,
            "pair ({i}, {j}): hw {area} exact {exact} envelope {envelope}"
        );
        checked += 1;
    }
    assert!(checked >= 4, "only {checked} overlap rows had an oracle");
}
