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
use spatial_filters::{one_object_within, zero_object_upper_bound, InteriorFilter};
use spatial_geom::{Polygon, Segment};

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
/// filtering always runs sequentially, before candidates are partitioned
/// for parallel refinement. Stage 1 upholds its side of
/// the contract even when the MBR filter itself is threaded: the join
/// scheduler merges work-unit outputs in unit order, so the candidate
/// sequence reaching this chain is bit-identical to a sequential
/// traversal for every `filter_threads` / `filter_simd` setting.
pub trait CandidateFilter<C> {
    fn examine(&mut self, candidate: &C) -> Decision;
}

/// The interior (tiling) filter as a chain stage: candidates whose MBR
/// lies in a fully-interior tile of the query are confirmed — for the
/// intersection *and* containment predicates alike (Table 1's double
/// duty). Never rejects: an MBR outside every interior tile proves
/// nothing.
pub struct InteriorFilterStage<'a> {
    filter: InteriorFilter,
    ds: &'a PreparedDataset,
}

impl<'a> InteriorFilterStage<'a> {
    pub fn new(query: &Polygon, level: u32, ds: &'a PreparedDataset) -> Self {
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
pub struct ObjectFilterStage<'a> {
    a: &'a PreparedDataset,
    b: &'a PreparedDataset,
    d: f64,
}

/// The 1-object bound stays valid on any boundary *subset* (distances to
/// fewer edges only grow), so huge boundaries are sampled down — otherwise
/// the filter would scan a 39k-vertex river once per candidate pair and
/// cost more than the geometry comparison it is meant to avoid.
const MAX_FILTER_EDGES: usize = 64;

impl<'a> ObjectFilterStage<'a> {
    pub fn new(a: &'a PreparedDataset, b: &'a PreparedDataset, d: f64) -> Self {
        ObjectFilterStage { a, b, d }
    }

    /// Every `step`-th edge of `poly`, at most `MAX_FILTER_EDGES` (64) of
    /// them, read in place: the sample is a stride over the vertex array,
    /// and repeating it per candidate measured no slower than keeping the
    /// last one in a buffer (EXPERIMENTS.md "Honest software baseline").
    /// Public so `--bin diag` replays the stage's own sample.
    pub fn sampled(poly: &Polygon) -> impl Iterator<Item = Segment> + '_ {
        let n = poly.vertex_count();
        let step = n.div_ceil(MAX_FILTER_EDGES).max(1);
        (0..n).step_by(step).map(|i| poly.edge(i))
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
        let (big, other_mbr) = if pa.vertex_count() >= pb.vertex_count() {
            (pa, pb.mbr())
        } else {
            (pb, pa.mbr())
        };
        if one_object_within(Self::sampled(big), &other_mbr, self.d) {
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
}
