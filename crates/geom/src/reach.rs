//! The run-box region R: where the boundaries of two polygons can meet, as
//! far as their cached run boxes ([`Polygon::runs`]) can tell.
//!
//! Brinkhoff et al.'s restricted search space is R₀, the intersection of
//! the two MBRs (for a distance test both MBRs expanded by `d/2`). R is R₀
//! shrunk to the bounding box of the run boxes of the first polygon that
//! meet it, then to the boxes of the second that meet what is left
//! ([`run_region`]). Every point the two boundaries share — and, with each
//! box grown by `d/2`, the midpoint of any two boundary points at most `d`
//! apart — lies in a box of each polygon that meets R₀, and so in R
//! (DESIGN.md §3, invariant 5). An empty R proves the boundaries apart; a
//! search for a meeting needs only the edges whose MBR meets R.
//!
//! Both refinement paths read R from here: the software step 3
//! ([`crate::intersect::boundaries_meet`]) and the hardware prologue of
//! `hwa-core`'s `choreography`, which projects it.

use crate::polygon::Polygon;
use crate::rect::Rect;
use std::ops::Range;

/// The run-box region R of `first` and `second` with each box grown by
/// `half` (0 for the boundary tests, `d/2` for a distance test), or `None`
/// where it is empty: the grown MBRs miss each other, or no run box of one
/// polygon meets what the boxes of the other left. Not symmetric — the
/// boxes of `first` shrink the region first — but either order holds
/// every meeting point.
///
/// At `half = 0` R is computed with compares alone, so it holds every
/// shared point exactly; above 0 the expansions round outward
/// ([`grown`]), so that an empty R is a proof, not a rounding.
pub fn run_region(first: &Polygon, second: &Polygon, half: f64) -> Option<Rect> {
    let mut region = grown(&first.mbr(), half).intersection(&grown(&second.mbr(), half))?;
    for poly in [first, second] {
        let hull =
            reaching(poly, half, &region).fold(Rect::EMPTY, |hull, (_, run)| hull.union(&run));
        region = region.intersection(&hull)?;
    }
    Some(region)
}

/// The runs of `poly` that can reach `region`: in boundary order, each run
/// whose box grown by `half` ([`grown`]) meets `region`, with that grown
/// box. A polygon without run boxes is one run, all its edges, and its
/// box is its MBR.
pub fn reaching<'p>(
    poly: &'p Polygon,
    half: f64,
    region: &'p Rect,
) -> impl Iterator<Item = (Range<usize>, Rect)> + 'p {
    let unboxed = (poly.runs().len() == 0).then(|| (0..poly.vertex_count(), poly.mbr()));
    let boxed = poly.runs().map(|(edges, run)| (edges, *run));
    let grown_runs = unboxed
        .into_iter()
        .chain(boxed)
        .map(move |(edges, run)| (edges, grown(&run, half)));
    grown_runs.filter(move |(_, run)| run.intersects(region))
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
