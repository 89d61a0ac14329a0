//! Golden command-stream snapshots: the recorded choreography for a fixed
//! scene is part of the crate's contract. A change to the serialized
//! stream means the hardware submission pattern changed — deliberate
//! changes regenerate the files with `UPDATE_GOLDEN=1 cargo test -p
//! hwa-core --test golden`; accidental ones fail here.
//!
//! Each test also executes the stream and pins the full [`Execution`] by
//! value — every `HwStats` counter and every readback — so a stream that
//! still serializes identically but rasterizes or charges differently is
//! caught too. With one executor there is no second implementation to
//! agree with: these constants are the only pin on the counters every
//! modeled GPU time is computed from.

use hwa_core::HwTester;
use spatial_geom::{Polygon, Rect};
use spatial_raster::{
    CommandList, DeviceKind, Execution, HwCostModel, HwStats, OverlapStrategy, Readback,
};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `got` against the committed golden file, or rewrites the file
/// when `UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with UPDATE_GOLDEN=1", name));
    assert_eq!(
        got, want,
        "command stream for {name} changed; regenerate with UPDATE_GOLDEN=1 if deliberate"
    );
}

/// The fixed scene: two overlapping unit-ish squares in a 16×16 window.
/// Their boundaries cross, so every verdict is "overlap".
fn fixed_pair() -> (Polygon, Polygon, Rect) {
    let p = Polygon::from_coords(&[(2.0, 2.0), (10.0, 2.0), (10.0, 10.0), (2.0, 10.0)]);
    let q = Polygon::from_coords(&[(6.0, 6.0), (14.0, 6.0), (14.0, 14.0), (6.0, 14.0)]);
    let region = p.mbr().intersection(&q.mbr()).expect("MBRs overlap");
    (p, q, region)
}

/// Executes `list` and asserts the whole [`Execution`] equals `want`, and
/// that pricing the list by replay equals pricing the counters it charged.
fn assert_execution(list: &CommandList, want: &Execution) {
    let exec = DeviceKind::default()
        .build()
        .execute(list)
        .expect("clean devices never fault");
    assert_eq!(&exec, want);
    let model = HwCostModel::default();
    assert_eq!(model.replay_cost(list), model.time(&exec.stats));
}

/// The per-pair Algorithm 3.1 stream. The boundaries cross, so the
/// accumulation reaches exactly full white (0.5 + 0.5).
#[test]
fn accumulation_stream_is_stable() {
    let (p, q, region) = fixed_pair();
    let (list, slot) = HwTester::record_segment_test(
        region,
        16,
        OverlapStrategy::Accumulation,
        p.edges(),
        q.edges(),
    );
    assert_golden("segment_accumulation.txt", &list.serialize());
    assert_eq!(slot, 0, "the verdict is the stream's only readback");
    assert_execution(
        &list,
        &Execution {
            stats: HwStats {
                pixels_written: 64,
                fragments_tested: 64,
                pixels_scanned: 1792,
                primitives: 8,
                draw_calls: 2,
                minmax_queries: 1,
                batches: 0,
            },
            readbacks: vec![Readback::Minmax(0.0, 1.0)],
        },
    );
}

/// The per-pair §3.1 distance stream: both boundaries expanded by 2.5 px
/// wide lines and equally wide vertex caps over the fixed pair's window.
/// The boundaries cross, so the verdict is full white.
#[test]
fn distance_stream_is_stable() {
    let (p, q, region) = fixed_pair();
    let (list, slot) =
        HwTester::record_distance_test(region, 16, OverlapStrategy::Accumulation, 2.5, &p, &q);
    assert_golden("distance_accumulation.txt", &list.serialize());
    assert_eq!(slot, 0, "the verdict is the stream's only readback");
    assert_execution(
        &list,
        &Execution {
            stats: HwStats {
                pixels_written: 134,
                fragments_tested: 136,
                pixels_scanned: 1792,
                primitives: 16,
                draw_calls: 4,
                minmax_queries: 1,
                batches: 0,
            },
            readbacks: vec![Readback::Minmax(0.0, 1.0)],
        },
    );
}

/// The atlas batch stream: two pairs rendered as cells of one list. Pins
/// the scissor/viewport interleave, the merged draw calls and the single
/// cell-reduction readback.
#[test]
fn atlas_batch_stream_is_stable() {
    use spatial_raster::atlas::record_batch;
    use spatial_raster::{AtlasJob, Viewport};
    let (p, q, region) = fixed_pair();
    let far = Polygon::from_coords(&[(40.0, 40.0), (44.0, 40.0), (44.0, 44.0), (40.0, 44.0)]);
    let jobs: Vec<AtlasJob> = [(&p, &q), (&p, &far)]
        .iter()
        .map(|&(a, b)| AtlasJob {
            viewport: Viewport::new(region, 8, 8),
            first_segments: a.edges().collect(),
            first_points: Vec::new(),
            second_segments: b.edges().collect(),
            second_points: Vec::new(),
        })
        .collect();
    let (list, slot) = record_batch(&jobs, spatial_raster::aa_line::DIAGONAL_WIDTH, 1.0);
    assert_golden("atlas_batch.txt", &list.serialize());

    assert_eq!(slot, 0, "the cell reduction is the stream's only readback");
    // First cell overlaps (full white), second holds one boundary only.
    assert_execution(
        &list,
        &Execution {
            stats: HwStats {
                pixels_written: 48,
                fragments_tested: 48,
                pixels_scanned: 1848,
                primitives: 16,
                draw_calls: 2,
                minmax_queries: 1,
                batches: 1,
            },
            readbacks: vec![Readback::CellMax(vec![1.0, 0.5])],
        },
    );
}
