//! The declarative intermediate-filter chain (stage 2 of Fig. 8).
//!
//! The paper uses two very different intermediate filters — the interior
//! (tiling) filter for selections (Table 1) and the 0/1-object distance
//! filters for within-distance joins (Fig. 14) — but both do the same job:
//! look at a candidate cheaply and either settle it or pass it on. The
//! [`CandidateFilter`] trait captures that contract; the executor runs
//! candidates through a chain of them, so pipelines declare their filters
//! instead of inlining filter loops.

use crate::engine::PreparedDataset;
use spatial_filters::object_filters::{MAX_SAMPLE_EDGES, SAMPLE_BLOCK};
use spatial_filters::{one_object_within, zero_object_upper_bound, InteriorFilter, Sample};
use spatial_geom::{Polygon, Rect};

/// What a filter concluded about one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Provably a result: skip refinement (a *filter hit*).
    Confirm,
    /// Provably not a result: drop without refinement.
    Reject,
    /// Undecided: pass to the next filter, ultimately to the backend.
    Refine,
}

/// One intermediate filter over candidates of type `C` (the pipelines
/// use `(left, right)` index pairs; a selection's left index is 0).
///
/// `examine` takes `&mut self` so a filter may keep state between
/// candidates; implementations must stay deterministic in candidate
/// order, which the executor keeps identical across configurations —
/// filtering runs sequentially over the stage-1 sequence, which is the
/// synchronized tree descent's visit order.
pub trait CandidateFilter<C> {
    fn examine(&mut self, candidate: &C) -> Decision;
}

/// The interior (tiling) filter as a chain stage: candidates whose MBR
/// lies in a fully-interior tile of the query are confirmed — for the
/// intersection *and* containment predicates alike (Table 1's double
/// duty). Never rejects: an MBR outside every interior tile proves
/// nothing.
pub(crate) struct InteriorFilterStage<'a> {
    filter: InteriorFilter,
    ds: &'a PreparedDataset,
}

impl<'a> InteriorFilterStage<'a> {
    pub(crate) fn new(query: &Polygon, level: u32, ds: &'a PreparedDataset) -> Self {
        InteriorFilterStage {
            filter: InteriorFilter::build(query, level),
            ds,
        }
    }
}

impl CandidateFilter<(usize, usize)> for InteriorFilterStage<'_> {
    fn examine(&mut self, &(_, j): &(usize, usize)) -> Decision {
        if self.filter.covers(&self.ds.polygon(j).mbr()) {
            Decision::Confirm
        } else {
            Decision::Refine
        }
    }
}

/// The 0-object and 1-object distance filters as one chain stage
/// (Fig. 14): upper-bound the pair distance from MBRs alone, then from
/// one object's (sampled) real boundary against the other's MBR; a bound
/// `≤ d` confirms the pair. Never rejects: these are upper bounds.
///
/// The 1-object step reads a polygon's sample through its block boxes.
/// They depend on the polygon alone, so each is built the first time its
/// polygon reaches that step and kept for the stage's life — one join.
pub struct ObjectFilterStage<'a> {
    a: &'a PreparedDataset,
    b: &'a PreparedDataset,
    d: f64,
    blocks: [BlockCache; 2],
}

/// The block boxes of one side's samples, built on first use: polygon
/// `i`'s start at `boxes[start[i]]` (`u32::MAX` until built), one per
/// [`SAMPLE_BLOCK`] sampled edges. Empty until the first 1-object call, so
/// a join the 0-object bound settles allocates nothing.
#[derive(Default)]
struct BlockCache {
    start: Vec<u32>,
    boxes: Vec<Rect>,
}

impl BlockCache {
    fn get(&mut self, ds: &PreparedDataset, i: usize, sample: Sample<'_>) -> &[Rect] {
        if self.start.is_empty() {
            self.start = vec![u32::MAX; ds.len()];
        }
        if self.start[i] == u32::MAX {
            self.start[i] = self.boxes.len() as u32;
            self.boxes.extend(sample.block_boxes());
        }
        let at = self.start[i] as usize;
        &self.boxes[at..at + sample.edge_count().div_ceil(SAMPLE_BLOCK)]
    }
}

impl<'a> ObjectFilterStage<'a> {
    pub fn new(a: &'a PreparedDataset, b: &'a PreparedDataset, d: f64) -> Self {
        ObjectFilterStage {
            a,
            b,
            d,
            blocks: Default::default(),
        }
    }

    /// Every `step`-th edge of `poly`, at most [`MAX_SAMPLE_EDGES`] (64) of
    /// them: the 1-object bound stays valid on any boundary *subset*
    /// (distances to fewer edges only grow), and an unsampled 39k-vertex
    /// river scanned once per candidate pair would cost more than the
    /// geometry comparison the filter is meant to avoid. Public so
    /// `--bin diag` replays the stage's own sample.
    pub fn sampled(poly: &Polygon) -> Sample<'_> {
        Sample::strided(poly, poly.vertex_count().div_ceil(MAX_SAMPLE_EDGES).max(1))
    }
}

impl CandidateFilter<(usize, usize)> for ObjectFilterStage<'_> {
    fn examine(&mut self, &(i, j): &(usize, usize)) -> Decision {
        let (pa, pb) = (self.a.polygon(i), self.b.polygon(j));
        let ub0 = zero_object_upper_bound(&pa.mbr(), &pb.mbr());
        if ub0 <= self.d {
            return Decision::Confirm;
        }
        // 1-object filter on the larger polygon of the pair. The 0-object
        // bound failed, so it confirms exactly where the 1-object bound
        // alone is `≤ d` — which `one_object_within` decides without
        // measuring what cannot change the answer.
        let (side, ds, k, other_mbr) = if pa.vertex_count() >= pb.vertex_count() {
            (0, self.a, i, pb.mbr())
        } else {
            (1, self.b, j, pa.mbr())
        };
        let sample = Self::sampled(ds.polygon(k));
        let blocks = self.blocks[side].get(ds, k, sample);
        if one_object_within(sample, blocks, &other_mbr, self.d) {
            Decision::Confirm
        } else {
            Decision::Refine
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(x: f64, y: f64, s: f64) -> Polygon {
        Polygon::from_coords(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
    }

    fn dataset(polys: Vec<Polygon>) -> PreparedDataset {
        PreparedDataset::new("test", polys)
    }

    #[test]
    fn interior_stage_confirms_deep_candidates() {
        let query = square(0.0, 0.0, 16.0);
        let ds = dataset(vec![square(7.0, 7.0, 1.0), square(-5.0, -5.0, 1.0)]);
        let mut stage = InteriorFilterStage::new(&query, 4, &ds);
        assert_eq!(
            stage.examine(&(0, 0)),
            Decision::Confirm,
            "deep-interior MBR"
        );
        assert_eq!(
            stage.examine(&(0, 1)),
            Decision::Refine,
            "outside MBR proves nothing"
        );
    }

    #[test]
    fn object_stage_confirms_close_pairs() {
        let a = dataset(vec![square(0.0, 0.0, 4.0)]);
        let b = dataset(vec![square(4.5, 0.0, 4.0), square(100.0, 0.0, 1.0)]);
        let mut stage = ObjectFilterStage::new(&a, &b, 10.0);
        // MBR diameters bound the close pair's distance below d.
        assert_eq!(stage.examine(&(0, 0)), Decision::Confirm);
        // The far pair cannot be confirmed by upper bounds at d=10.
        let far = stage.examine(&(0, 1));
        assert_eq!(far, Decision::Refine);
    }

    /// A ring of `n` vertices around `(cx, 0)`, radius alternating 10 / 4.
    fn star(n: usize, cx: f64) -> Polygon {
        let ring: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let (r, a) = (
                    if i % 2 == 0 { 10.0 } else { 4.0 },
                    i as f64 * std::f64::consts::TAU / n as f64,
                );
                (cx + r * a.cos(), r * a.sin())
            })
            .collect();
        Polygon::from_coords(&ring)
    }

    /// Each polygon's block boxes are built once and read back as its own:
    /// candidates visited twice, interleaved, with the larger object on
    /// either side and samples of 10 to 64 edges, confirm exactly where the
    /// 0- or 1-object bound of the stage's own sample is `≤ d`.
    #[test]
    fn object_stage_reads_each_polygons_own_cached_boxes() {
        let a = dataset(vec![star(10, 0.0), star(200, 40.0), star(70, 80.0)]);
        let b = dataset(vec![
            square(12.0, 6.0, 3.0),
            star(130, 25.0),
            square(61.0, -2.0, 2.0),
        ]);
        let (mut confirmed, mut refined) = (0, 0);
        for d in [4.0, 8.0, 12.0, 16.0, 24.0] {
            let mut stage = ObjectFilterStage::new(&a, &b, d);
            for _ in 0..2 {
                for (i, j) in (0..3).flat_map(|i| (0..3).map(move |j| (i, j))) {
                    let (pa, pb) = (a.polygon(i), b.polygon(j));
                    let ub0 = zero_object_upper_bound(&pa.mbr(), &pb.mbr());
                    let (big, r2) = if pa.vertex_count() >= pb.vertex_count() {
                        (pa, pb.mbr())
                    } else {
                        (pb, pa.mbr())
                    };
                    let edges = ObjectFilterStage::sampled(big).edges();
                    let within =
                        ub0 <= d || spatial_filters::one_object_upper_bound(edges, &r2, ub0) <= d;
                    let got = stage.examine(&(i, j));
                    assert_eq!(got == Decision::Confirm, within, "({i}, {j}) at d = {d}");
                    if ub0 > d {
                        *if within { &mut confirmed } else { &mut refined } += 1;
                    }
                }
            }
        }
        assert!(confirmed > 4 && refined > 4, "{confirmed} / {refined}");
    }
}
