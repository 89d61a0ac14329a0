//! What a workload is to the runner: seeded inputs that can be set up any
//! number of times, and a set-up instance that executes its fixed op
//! sequence round after round.

use crate::trace::Tracer;
use hwspatial::core::service::QueryRows;
use hwspatial::core::CostBreakdown;
use hwspatial::geom::Polygon;
use std::time::Duration;

/// The datasets are the paper's Table 2 stand-ins generated at this one
/// seed: like the paper's own fixed real-world datasets, they are the
/// corpus, not the traffic. `--seed` drives what varies between runs —
/// the selection windows, the joins' query distances — so
/// every seed gives different inputs and answers while the cost
/// distribution stays put. Drawing the corpus itself from `--seed` moved
/// every timing by 20–25 % seed to seed (a few pinned maximum-complexity
/// polygons decide each dataset's cost), which no regression bound could
/// see through.
pub const CORPUS_SEED: u64 = 42;

/// Seeded displacement of each STATES50 window: up to 2 % of the data
/// space, a fraction of a window's extent — enough to change its candidate
/// set without changing what kind of query it is.
pub const SHIFT: f64 = 0.02 * hwspatial::datagen::DATA_EXTENT;

/// SplitMix64: the benchmark's own generator, so the op sequence depends
/// on `--seed` alone and not on the vendored `rand` stand-in.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-amplitude, amplitude)`.
    pub fn symmetric(&mut self, amplitude: f64) -> f64 {
        (self.next_f64() * 2.0 - 1.0) * amplitude
    }
}

/// FNV-1a over 64-bit words: row hashes, counter fingerprints and the
/// op-sequence hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn polygon(&mut self, p: &Polygon) {
        self.word(p.vertex_count() as u64);
        for v in p.vertices() {
            self.word(v.x.to_bits());
            self.word(v.y.to_bits());
        }
    }
}

/// Hash of an answer: every row, in order, areas bit for bit.
pub fn hash_rows(rows: &QueryRows) -> u64 {
    let mut h = Fnv::new();
    match rows {
        QueryRows::Selection(v) => {
            h.word(1);
            v.iter().for_each(|&i| h.word(i as u64));
        }
        QueryRows::Join(v) => {
            h.word(2);
            for &(i, j) in v {
                h.word(i as u64);
                h.word(j as u64);
            }
        }
        QueryRows::AreaJoin(v) => {
            h.word(3);
            for &(i, j, a) in v {
                h.word(i as u64);
                h.word(j as u64);
                h.word(a.to_bits());
            }
        }
    }
    h.0
}

/// Hash of the counters that are a pure function of the op: they must
/// repeat in every round. Diagnostic counters that depend on cache warmth
/// (`cache_hits`, `commands_elided`, `simd_node_tests`) stay out.
pub fn fingerprint(c: &CostBreakdown) -> u64 {
    let t = &c.tests;
    let mut h = Fnv::new();
    for w in [
        c.candidates,
        c.filter_hits,
        c.results,
        c.node_tests,
        t.decided_by_pip,
        t.rejected_by_hw,
        t.software_tests,
        t.skipped_by_threshold,
        t.width_limit_fallbacks,
        t.hw_tests,
        t.overlap_tests,
        t.hw_batches,
        t.fallback_tests,
        t.device_faults,
        t.hw.pixels_written,
        t.hw.fragments_tested,
        t.hw.pixels_scanned,
        t.hw.primitives,
        t.hw.draw_calls,
        t.hw.minmax_queries,
        t.hw.batches,
    ] {
        h.word(w as u64);
    }
    h.word(t.gpu_modeled.as_nanos() as u64);
    h.0
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Selection,
    IntersectionJoin,
    DistanceJoin,
    OverlapArea,
}

/// One execution of one op.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Wall time of the product call alone (`execute` / the join method).
    pub wall: Duration,
    /// `None` when the call returned `Err`.
    pub rows: Option<u64>,
    pub cost: CostBreakdown,
}

/// What the serving layer's own ledger says about one round.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceRound {
    pub submitted: u64,
    /// Rejected, shed or aborted submissions.
    pub refused: u64,
    pub planned_hw: u64,
    pub planned_sw: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    /// `ServiceStats::balanced()` at the end of the round.
    pub balanced: bool,
    pub filter_ns: u128,
    pub plan_ns: u128,
    pub refine_ns: u128,
    pub reloads: u64,
    pub reload_ns: u128,
}

/// The answer the *other* refinement path gave, computed once in set-up.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    pub rows: u64,
    /// The reference path's own paper clock for the op.
    pub paper: Duration,
}

/// Seeded inputs: everything `--seed` decides, nothing the product built.
pub trait Inputs {
    fn ops(&self) -> usize;
    /// Hash of the whole op sequence and the geometry it runs on.
    fn sequence_hash(&self) -> u64;
    /// Keeps only the first `ops` ops (`--smoke`).
    fn truncate(&mut self, ops: usize);
    /// `PreparedDataset::new` for every dataset plus engine construction.
    /// Returns the instance and the time spent bulk loading.
    fn set_up(&self) -> (Box<dyn Instance + '_>, Duration);
}

pub trait Instance {
    fn kind(&self, op: usize) -> OpKind;
    fn begin_round(&mut self);
    fn run_op(&mut self, op: usize) -> Outcome;
    /// `None` when no serving layer is in the path.
    fn end_round(&mut self) -> Option<ServiceRound>;
    /// Answers from the other refinement path, one per op (`None` where
    /// the workload checks round-to-round equality only).
    fn references(&mut self) -> Vec<Option<Reference>>;
    /// Re-invokes each layer's public function on the op's own inputs,
    /// one span per layer, beneath whichever span is open.
    fn replay_layers(&mut self, op: usize, tr: &mut Tracer);
}

/// Deterministic sample of at most `max` of `n` positions, evenly strided.
pub fn sample_positions(n: usize, max: usize) -> impl Iterator<Item = usize> {
    let take = n.min(max);
    (0..take).map(move |k| k * n / take.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_a_function_of_its_seed() {
        let draw = |seed| {
            let mut r = SplitMix64(seed);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        let mut r = SplitMix64(1);
        assert!((0..1000)
            .map(|_| r.next_f64())
            .all(|x| (0.0..1.0).contains(&x)));
        assert!((0..1000)
            .map(|_| r.symmetric(3.0))
            .all(|x| (-3.0..3.0).contains(&x)));
    }

    #[test]
    fn row_hash_sees_order_kind_and_area_bits() {
        let a = hash_rows(&QueryRows::Join(vec![(1, 2), (3, 4)]));
        assert_eq!(a, hash_rows(&QueryRows::Join(vec![(1, 2), (3, 4)])));
        assert_ne!(a, hash_rows(&QueryRows::Join(vec![(3, 4), (1, 2)])));
        assert_ne!(
            hash_rows(&QueryRows::Selection(vec![])),
            hash_rows(&QueryRows::Join(vec![]))
        );
        let area = |x: f64| hash_rows(&QueryRows::AreaJoin(vec![(0, 0, x)]));
        assert_ne!(area(1.0), area(1.0 + f64::EPSILON));
    }

    #[test]
    fn samples_are_strided_and_bounded() {
        assert_eq!(sample_positions(3, 64).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(sample_positions(0, 64).count(), 0);
        let s: Vec<_> = sample_positions(1000, 64).collect();
        assert_eq!(s.len(), 64);
        assert!(s.windows(2).all(|w| w[0] < w[1]) && s[63] < 1000);
    }
}
