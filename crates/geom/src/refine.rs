//! The one software refinement test of §3.1, per [`Predicate`]: the MBR
//! gate, the point-in-polygon step and step 3 — for intersection and
//! containment a search for a meeting of the two boundaries over the
//! restricted search space of the run-box region R ([`crate::reach`]), for
//! distance the clipped frontier chains of `minDist`.
//!
//! Algorithm 3.1 puts a hardware filter between the opening and step 3:
//! the hardware path calls the same three pieces —
//! [`Predicate::opening`], [`Predicate::verdict`] and [`Predicate::step3`]
//! — that [`Predicate::test`] chains, so both paths decide every pair by
//! one spelling of each.

use crate::intersect::meet_over;
use crate::mindist::clipped_chains_within;
use crate::pip::point_in_polygon;
use crate::polygon::Polygon;
use crate::reach::Reach;
use crate::sweep::SweepStats;

/// The spatial predicate a refinement decides. Carried by value, so one
/// test serves every query kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// Closed polygon intersection (Algorithm 3.1).
    Intersects,
    /// Strict containment: first polygon entirely inside the open interior
    /// of the second. For connected polygons that is one vertex inside plus
    /// disjoint boundaries, so Algorithm 3.1's boundary filter applies.
    ContainedIn,
    /// `dist(P, Q) ≤ d` (§3.1 distance test).
    WithinDistance(f64),
}

/// Work counters of the software test, summed over the pairs it decides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Pairs the point-in-polygon step decided.
    pub decided_by_pip: usize,
    /// Intersection and containment pairs step 3 answered with no edge
    /// collected, because their run-box region R is empty.
    pub decided_by_runs: usize,
    /// Step 3's boundary search ([`crate::intersect::edges_meet`]).
    pub sweep: SweepStats,
}

impl Predicate {
    /// The software test of this predicate on `(p, q)` — containment pairs
    /// are `(inner, outer)` — exactly as in §3.1: the opening, then step 3.
    pub fn test(self, p: &Polygon, q: &Polygon, stats: &mut RefineStats) -> bool {
        match self.opening(p, q, &mut stats.decided_by_pip) {
            Some(verdict) => verdict,
            None => self.step3(p, q, None, stats),
        }
    }

    /// The opening of the test: the MBR gate, the cheapest bound on each
    /// predicate, then point-in-polygon. `Some(verdict)` where they decide
    /// the pair — adding one to `decided_by_pip` where point-in-polygon
    /// did — and `None` where the boundaries must.
    pub fn opening(self, p: &Polygon, q: &Polygon, decided_by_pip: &mut usize) -> Option<bool> {
        let gate = match self {
            Predicate::Intersects => p.mbr().intersects(&q.mbr()),
            Predicate::ContainedIn => q.mbr().contains_rect(&p.mbr()),
            // False for a NaN `d`, and a negative one is below every
            // distance: no pair is within either.
            Predicate::WithinDistance(d) => p.mbr().min_dist(&q.mbr()) <= d,
        };
        if !gate {
            return Some(false);
        }
        // Any vertex serves; use the first. Containment either way settles
        // intersection and distance (distance 0); a vertex of `inner`
        // outside `outer` settles strict containment (closed semantics:
        // this also catches boundary-on-boundary conservatively).
        let first_inside = point_in_polygon(p.vertices()[0], q);
        let decided = match self {
            Predicate::ContainedIn => (!first_inside).then_some(false),
            _ => (first_inside || point_in_polygon(q.vertices()[0], p)).then_some(true),
        };
        *decided_by_pip += usize::from(decided.is_some());
        decided
    }

    /// The verdict on a pair the opening left undecided, given whether its
    /// boundaries meet — for distance, come within `d`: intersection and
    /// distance hold where they do, containment where they do not, the
    /// opening having seen a vertex of the inner polygon inside the outer
    /// one. It answers a pair whose boundaries the run boxes or the
    /// hardware filter prove apart.
    pub fn verdict(self, boundaries_meet: bool) -> bool {
        match self {
            Predicate::Intersects | Predicate::WithinDistance(_) => boundaries_meet,
            Predicate::ContainedIn => !boundaries_meet,
        }
    }

    /// Step 3, exact on its own for a pair the opening left undecided. For
    /// intersection and containment, the [`verdict`](Predicate::verdict) on
    /// whether an edge of one boundary meets an edge of the other over the
    /// restricted search space of R: `reach` is the walk of `(p, q)` at
    /// `half = 0` where the caller holds one, and without it the test walks
    /// into this thread's scratch; an empty R answers with no edge
    /// collected, counted in `decided_by_runs`. For distance, the frontier
    /// chains clipped to within `d` of the other MBR
    /// ([`clipped_chains_within`]), which read no walk.
    pub fn step3(
        self,
        p: &Polygon,
        q: &Polygon,
        reach: Option<&Reach>,
        stats: &mut RefineStats,
    ) -> bool {
        let met = match self {
            Predicate::WithinDistance(d) => return clipped_chains_within(p, q, d),
            Predicate::Intersects | Predicate::ContainedIn => {
                meet_over(p, q, reach, &mut stats.sweep)
            }
        };
        stats.decided_by_runs += usize::from(met.is_none());
        self.verdict(met.unwrap_or(false))
    }
}
