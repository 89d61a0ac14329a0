//! The run-box region R: where the boundaries of two polygons can meet, as
//! far as their cached run boxes ([`Polygon::runs`]) can tell.
//!
//! Brinkhoff et al.'s restricted search space is R₀, the intersection of
//! the two MBRs (for a distance test both MBRs expanded by `d/2`). R is R₀
//! shrunk to the bounding box of the run boxes of the first polygon that
//! meet it, then to the boxes of the second that meet what is left. Every
//! point the two boundaries share — and, with each box grown by `d/2`, the
//! midpoint of any two boundary points at most `d` apart — lies in a box
//! of each polygon that meets R₀, and so in R (DESIGN.md §5, invariant 5):
//! an empty R proves the boundaries apart, and a search for a meeting
//! needs only the edges whose MBR meets R, all in runs whose box meets R.
//! [`walk`] is the one walk over a pair's boxes; both refinement paths
//! read its [`Reach`].

use crate::polygon::Polygon;
use crate::rect::Rect;
use std::ops::Range;

/// One run of a boundary as the walk keeps it: its edge indices and its
/// box grown by the walk's `half`.
pub type Run = (Range<usize>, Rect);

/// What [`walk`] found for one pair.
#[derive(Debug, Clone, Default)]
pub struct Reach {
    /// R, or `None` where it is empty.
    pub region: Option<Rect>,
    /// Per side — `first`, then `second` — the runs whose grown box meets
    /// R, in boundary order.
    pub near: [Vec<Run>; 2],
    /// The edges in the runs of both sides whose box lies within `2·half`
    /// of the other side's MBR: what a distance test's step 3 clips to (at
    /// `half = 0`, the runs that meet R₀).
    pub clip_edges: usize,
}

/// The one walk over the run boxes of `first` and `second`, each grown by
/// `half` (0 for the boundary tests, `d/2` for distance): per side the
/// runs whose grown box meets R₀ — a polygon without boxes is one run
/// boxed by its MBR — from which R folds, then kept where they reach R;
/// on the way it counts the edges a distance test's clip reaches.
/// The boxes of `first` shrink the region first; either order holds every
/// meeting point. At `half = 0` R is exact (compares alone); above 0 the
/// expansions round outward (`grown`): an empty R is a proof.
pub fn walk(first: &Polygon, second: &Polygon, half: f64) -> Reach {
    let mut reach = Reach::default();
    walk_into(first, second, half, &mut reach);
    reach
}

/// [`walk`] into `reach`, whose lists it replaces and whose allocations it
/// keeps: the software step 3 walks into a per-thread buffer.
pub(crate) fn walk_into(first: &Polygon, second: &Polygon, half: f64, reach: &mut Reach) {
    let r0 = grown(&first.mbr(), half).intersection(&grown(&second.mbr(), half));
    reach.clip_edges = 0;
    let sides = [(first, second), (second, first)];
    for (near, (poly, other)) in reach.near.iter_mut().zip(sides) {
        let unboxed = (poly.runs().len() == 0).then(|| (0..poly.vertex_count(), poly.mbr()));
        let boxed = poly.runs().map(|(edges, run)| (edges, *run));
        near.clear();
        for (edges, run) in unboxed.into_iter().chain(boxed) {
            let grown_run = grown(&run, half);
            if !r0.is_some_and(|r0| grown_run.intersects(&r0)) {
                continue;
            }
            // A box that misses R₀ is more than `2·half` from the other
            // MBR along an axis; at `half = 0` meeting R₀ is the test.
            if half == 0.0 || run.min_dist(&other.mbr()) <= 2.0 * half {
                reach.clip_edges += edges.len();
            }
            near.push((edges, grown_run));
        }
    }
    let mut region = r0;
    for runs in &reach.near {
        region = region.and_then(|region| {
            let reaching = runs.iter().filter(|(_, run)| run.intersects(&region));
            region.intersection(&reaching.fold(Rect::EMPTY, |hull, (_, run)| hull.union(run)))
        });
    }
    for runs in &mut reach.near {
        runs.retain(|(_, run)| region.is_some_and(|region| run.intersects(&region)));
    }
    reach.region = region;
}

impl Reach {
    /// The edges in the runs of both sides that reach R.
    pub fn edges(&self) -> usize {
        self.near.iter().flatten().map(|(e, _)| e.len()).sum()
    }

    /// The runs of side `side` that *pair*: whose grown box meets the grown
    /// box of a run of the other side that reaches R, the other side's
    /// compared in blocks of eight under one hull compare each.
    pub fn paired(&self, side: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let other = &self.near[1 - side];
        let meets = |block: &[Run], run: &Rect| block.iter().any(|(_, near)| near.intersects(run));
        let hull = |block: &[Run]| block.iter().fold(Rect::EMPTY, |h, (_, run)| h.union(run));
        let hulls: Vec<Rect> = other.chunks(8).map(hull).collect();
        let paired = self.near[side].iter().filter(move |(_, run)| {
            let mut blocks = hulls.iter().zip(other.chunks(8));
            blocks.any(|(hull, block)| hull.intersects(run) && meets(block, run))
        });
        paired.map(|(edges, _)| edges.clone())
    }
}

/// `r` expanded by `half` on every side, rounded outward: it holds every
/// point within `half` of `r` along each axis, where [`Rect::expanded`]
/// may round a side inward.
fn grown(r: &Rect, half: f64) -> Rect {
    if half == 0.0 {
        return *r;
    }
    Rect::new(
        (r.xmin - half).next_down(),
        (r.ymin - half).next_down(),
        (r.xmax + half).next_up(),
        (r.ymax + half).next_up(),
    )
}
