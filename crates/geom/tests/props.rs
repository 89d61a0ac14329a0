//! Property-based tests for the geometry kernel: every optimized algorithm
//! must agree with its brute-force oracle on randomized concave polygons.

use proptest::prelude::*;
use spatial_geom::chains::frontier_clipped;
use spatial_geom::intersect::{boundaries_meet, restricted_edges};
use spatial_geom::pip::{locate_point, PointLocation};
use spatial_geom::reach::{walk, Run};
use spatial_geom::sweep::{forward_sweep_intersects, tree_sweep_intersects, SweepStats};
use spatial_geom::{
    min_dist, min_dist_brute, point_in_polygon, polygon_contained_in, polygons_intersect,
    polygons_intersect_brute, within_distance, Point, Polygon, Predicate, Rect, RefineStats,
    Segment,
};

/// Reference implementations for the differential tests: the frontier
/// extraction, the point-location loop and the restricted search space as
/// they were before the cached extremes, the one-pass clip, the two-compare
/// edge skip and the run boxes. Slow on purpose — three scans of every
/// vertex, two `% n` walks, three `Vec`s, an orientation product per edge,
/// every edge of the boundary visited — and independent of every cache.
mod reference {
    use spatial_geom::pip::PointLocation;
    use spatial_geom::predicates::on_segment;
    use spatial_geom::{Point, Polygon, Rect, Segment};

    /// Which way the chain was chosen; the tests count the arms they hit.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub enum Arm {
        BothAxesOverlap,
        Right,
        Left,
        Above,
        Below,
        DegenerateSplit,
    }

    fn classify(this: &Rect, other: &Rect) -> Arm {
        let mut best = (0.0, Arm::BothAxesOverlap);
        for (gap, arm) in [
            (other.xmin - this.xmax, Arm::Right),
            (this.xmin - other.xmax, Arm::Left),
            (other.ymin - this.ymax, Arm::Above),
            (this.ymin - other.ymax, Arm::Below),
        ] {
            if gap > best.0 {
                best = (gap, arm);
            }
        }
        best.1
    }

    fn extreme_index(poly: &Polygon, key: impl Fn(Point) -> f64) -> usize {
        let vs = poly.vertices();
        let mut best = 0;
        for i in 1..vs.len() {
            if key(vs[i]) > key(vs[best]) {
                best = i;
            }
        }
        best
    }

    fn chain_edge_indices(n: usize, from: usize, to: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut i = from;
        while i != to {
            out.push(i);
            i = (i + 1) % n;
        }
        out
    }

    fn strictly_inside_chain(n: usize, from: usize, to: usize, v: usize) -> bool {
        if from == to {
            return false;
        }
        let mut i = (from + 1) % n;
        while i != to {
            if i == v {
                return true;
            }
            i = (i + 1) % n;
        }
        false
    }

    pub fn frontier_edges(poly: &Polygon, other_mbr: &Rect) -> (Vec<Segment>, Arm) {
        let (indices, arm) = frontier_indices(poly, other_mbr);
        (indices.into_iter().map(|i| poly.edge(i)).collect(), arm)
    }

    /// The frontier's edge indices in walk order (a chain that wraps past
    /// vertex 0 descends once) and the arm that chose them.
    pub fn frontier_indices(poly: &Polygon, other_mbr: &Rect) -> (Vec<usize>, Arm) {
        let n = poly.vertex_count();
        let arm = classify(&poly.mbr(), other_mbr);
        let (split_a, split_b, facing) = match arm {
            Arm::Right | Arm::Left => (
                extreme_index(poly, |p| p.y),
                extreme_index(poly, |p| -p.y),
                if arm == Arm::Right {
                    extreme_index(poly, |p| p.x)
                } else {
                    extreme_index(poly, |p| -p.x)
                },
            ),
            Arm::Above | Arm::Below => (
                extreme_index(poly, |p| p.x),
                extreme_index(poly, |p| -p.x),
                if arm == Arm::Above {
                    extreme_index(poly, |p| p.y)
                } else {
                    extreme_index(poly, |p| -p.y)
                },
            ),
            _ => return ((0..n).collect(), arm),
        };
        if split_a == split_b || facing == split_a || facing == split_b {
            return ((0..n).collect(), Arm::DegenerateSplit);
        }
        let indices = if strictly_inside_chain(n, split_a, split_b, facing) {
            chain_edge_indices(n, split_a, split_b)
        } else {
            chain_edge_indices(n, split_b, split_a)
        };
        (indices, arm)
    }

    pub fn frontier_clipped(poly: &Polygon, other_mbr: &Rect, d: f64) -> Vec<Segment> {
        frontier_edges(poly, other_mbr)
            .0
            .into_iter()
            .filter(|e| e.mbr().min_dist(other_mbr) <= d)
            .collect()
    }

    pub fn restricted_edges(poly: &Polygon, region: &Rect) -> Vec<Segment> {
        poly.edges()
            .filter(|e| e.mbr().intersects(region))
            .collect()
    }

    pub fn locate_point(p: Point, poly: &Polygon) -> PointLocation {
        if !poly.mbr().contains_point(p) {
            return PointLocation::Outside;
        }
        let vs = poly.vertices();
        let n = vs.len();
        let mut inside = false;
        for i in 0..n {
            let a = vs[i];
            let b = vs[(i + 1) % n];
            if on_segment(a, b, p) {
                return PointLocation::OnBoundary;
            }
            if (a.y > p.y) != (b.y > p.y) {
                let t = (p.y - a.y) / (b.y - a.y);
                let x = a.x + t * (b.x - a.x);
                if x > p.x {
                    inside = !inside;
                }
            }
        }
        if inside {
            PointLocation::Inside
        } else {
            PointLocation::Outside
        }
    }
}

/// Every rotation and both windings of a vertex ring: the same point set
/// with the extreme ties broken at every possible index.
fn relabelings(ring: &[(f64, f64)]) -> Vec<Polygon> {
    let mut out = Vec::new();
    for start in 0..ring.len() {
        let mut r = ring.to_vec();
        r.rotate_left(start);
        out.push(Polygon::from_coords(&r));
        r.reverse();
        out.push(Polygon::from_coords(&r));
    }
    out
}

/// Grid-snapped shapes the continuous `arb_star` generator never produces:
/// axis-aligned rectangles (every extreme attained twice), a triangle whose
/// top vertex is also its rightmost (a degenerate split), shapes with
/// horizontal and vertical edges, collinear runs and a concave pocket.
fn grid_battery() -> Vec<Polygon> {
    let rings: [&[(f64, f64)]; 6] = [
        &[(0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (0.0, 2.0)],
        &[(0.0, 0.0), (3.0, 0.0), (3.0, 3.0)],
        &[(2.0, 0.0), (4.0, 2.0), (2.0, 4.0), (0.0, 2.0)],
        &[
            (0.0, 0.0),
            (2.0, 0.0),
            (4.0, 0.0),
            (4.0, 1.0),
            (1.0, 1.0),
            (1.0, 3.0),
            (4.0, 3.0),
            (4.0, 4.0),
            (0.0, 4.0),
            (0.0, 2.0),
        ],
        &[
            (0.0, 1.0),
            (1.0, 0.0),
            (3.0, 0.0),
            (4.0, 1.0),
            (3.0, 2.0),
            (1.0, 2.0),
        ],
        &[(0.0, 0.0), (4.0, 1.0), (1.0, 1.0), (2.0, 4.0)],
    ];
    rings.iter().flat_map(|r| relabelings(r)).collect()
}

/// Where the edge skip of `locate_point` could matter: every vertex of
/// `poly`, every edge midpoint, and the lattice of half-unit points over
/// `half_units` on both axes — so horizontal edges at the query's height,
/// rays through vertices and points on collinear runs are all queried.
fn probe_points(poly: &Polygon, half_units: std::ops::RangeInclusive<i32>) -> Vec<Point> {
    let mut out: Vec<Point> = poly.vertices().to_vec();
    out.extend(poly.edges().map(|e| e.midpoint()));
    for ix in half_units.clone() {
        for iy in half_units.clone() {
            out.push(Point::new(0.5 * ix as f64, 0.5 * iy as f64));
        }
    }
    out
}

/// The distances at which a clip decision can flip, plus the two ends.
fn clip_distances(p: &Polygon, other: &Rect) -> [f64; 4] {
    let gap = p.mbr().min_dist(other);
    [0.0, gap, gap + 1.0, 1e300]
}

/// The new walk against the reference on the grid battery × a lattice of
/// other-MBR placements (every `Separation` arm, the degenerate-split
/// fallback, touching and overlapping MBRs) × `d ∈ {0, exact gap, …, huge}`:
/// the same edges in the same order.
#[test]
fn frontier_walk_matches_three_pass_reference_on_grid_shapes() {
    let mut arms = std::collections::BTreeMap::new();
    for p in grid_battery() {
        for ox in -3..=3 {
            for oy in -3..=3 {
                let (x, y) = (3.0 * ox as f64, 3.0 * oy as f64);
                for other in [
                    Rect::new(x, y, x + 2.0, y + 1.0),
                    Rect::new(x, y, x, y), // a point MBR
                ] {
                    let (edges, arm) = reference::frontier_edges(&p, &other);
                    *arms.entry(arm).or_insert(0usize) += 1;
                    assert_eq!(
                        frontier_clipped(&p, &other, f64::INFINITY),
                        edges,
                        "{p:?} vs {other:?}"
                    );
                    for d in clip_distances(&p, &other) {
                        assert_eq!(
                            frontier_clipped(&p, &other, d),
                            reference::frontier_clipped(&p, &other, d),
                            "{p:?} vs {other:?} at d = {d}"
                        );
                    }
                }
            }
        }
    }
    assert_eq!(arms.len(), 6, "every arm must be exercised: {arms:?}");
}

/// The two-compare edge skip against the reference loop on the grid
/// battery, probed over each shape's MBR and a margin around it.
#[test]
fn point_location_matches_per_edge_reference_on_grid_shapes() {
    let mut seen = std::collections::BTreeMap::new();
    for poly in grid_battery() {
        for q in probe_points(&poly, -2..=10) {
            let expected = reference::locate_point(q, &poly);
            assert_eq!(locate_point(q, &poly), expected, "{q:?} in {poly:?}");
            *seen.entry(format!("{expected:?}")).or_insert(0usize) += 1;
        }
    }
    assert_eq!(
        seen.len(),
        3,
        "all three verdicts must be exercised: {seen:?}"
    );
}

/// Vertex counts on both sides of every run-box boundary: no boxes at 63,
/// exactly two full runs at 64, a closing edge alone in the last run at 65
/// and 97, a last run one edge short at 95, three full runs at 96.
const RUN_BOUNDARY_COUNTS: [usize; 6] = [63, 64, 65, 95, 96, 97];

/// The run boxes of `poly`, as [`Polygon::runs_where`] shows them to its
/// predicate (none for a polygon too small to carry any).
fn run_boxes(poly: &Polygon) -> Vec<Rect> {
    let mut boxes = Vec::new();
    let whole: Vec<_> = poly
        .runs_where(|run| {
            boxes.push(*run);
            false
        })
        .collect();
    assert_eq!(whole.len(), usize::from(boxes.is_empty()), "{whole:?}");
    boxes
}

/// An `n`-vertex grid-snapped ring: at least 34 collinear vertices along
/// `y = 0` — so the first run of 32 edges has a zero-height box — then a
/// vertical edge and a zigzag back over them between `y = 2` and `y = 3`.
/// Horizontal edges, collinear runs, rays through vertices at every height.
fn sawtooth(n: usize) -> Vec<(f64, f64)> {
    let bottom = n.div_ceil(2).max(34);
    (0..n)
        .map(|i| {
            if i < bottom {
                (i as f64, 0.0)
            } else {
                let j = i - bottom;
                ((bottom - 1 - j) as f64, 2.0 + (j % 2) as f64)
            }
        })
        .collect()
}

/// An `n`-vertex comb: every tooth edge runs from `y = 0` to `y = 8`, the
/// whole height of the MBR. (Closed by an edge along or across the teeth:
/// not simple, which a differential test does not need.) A bucketing of
/// edges by y-slab puts every one of these edges into every slab.
fn comb(n: usize) -> Vec<(f64, f64)> {
    (0..n).map(|i| (i as f64, 8.0 * (i % 2) as f64)).collect()
}

/// `ring` started at a few offsets around the run boundary, both windings.
fn run_relabelings(ring: &[(f64, f64)]) -> Vec<Polygon> {
    let mut out = Vec::new();
    for start in [0, 1, 31, 32, 33] {
        let mut r = ring.to_vec();
        r.rotate_left(start);
        out.push(Polygon::from_coords(&r));
        r.reverse();
        out.push(Polygon::from_coords(&r));
    }
    out
}

fn run_boundary_battery() -> Vec<Polygon> {
    RUN_BOUNDARY_COUNTS
        .iter()
        .flat_map(|&n| [sawtooth(n), comb(n)])
        .flat_map(|ring| run_relabelings(&ring))
        .collect()
}

/// Rectangles that meet `b` along one side only, at one corner only, not
/// quite, and squarely.
fn touching(b: &Rect) -> [Rect; 6] {
    [
        Rect::new(b.xmax, b.ymin, b.xmax + 1.0, b.ymax),
        Rect::new(b.xmin, b.ymax, b.xmax, b.ymax + 1.0),
        Rect::new(b.xmin - 1.0, b.ymin - 1.0, b.xmin, b.ymin),
        Rect::new(b.xmax, b.ymax, b.xmax, b.ymax),
        Rect::new(b.xmax + 0.5, b.ymin, b.xmax + 1.5, b.ymax),
        Rect::new(b.xmin + 0.25, b.ymin, b.xmin + 0.75, b.ymax + 0.5),
    ]
}

/// The structure behind the pruned scans: one box per run of 32 edges from
/// 64 vertices up, each bounding both ends of each of its edges; no edge
/// length or direction can add a box (the y-slab regression: a bucketed
/// edge list held every tooth of the comb once per slab); and a polygon
/// without boxes pays one thin pointer for the field.
#[test]
fn run_boxes_are_one_per_32_edges_whatever_the_edges() {
    assert!(std::mem::size_of::<Polygon>() <= 80);
    for n in RUN_BOUNDARY_COUNTS.into_iter().chain([3, 4, 1_000, 10_001]) {
        for ring in [sawtooth(n.max(40)), comb(n)] {
            let poly = Polygon::from_coords(&ring);
            let n = poly.vertex_count();
            let boxes = run_boxes(&poly);
            let expected = if n < 64 { 0 } else { n.div_ceil(32) };
            assert_eq!(boxes.len(), expected, "{n} vertices");
            assert_eq!(poly.runs().len(), expected);
            for ((k, b), (walked, walked_box)) in boxes.iter().enumerate().zip(poly.runs()) {
                let run = 32 * k..(32 * k + 32).min(n);
                assert_eq!((walked, walked_box), (run.clone(), b), "the per-run walk");
                let tight = run.fold(Rect::EMPTY, |r, i| r.union(&poly.edge(i).mbr()));
                assert_eq!(*b, tight, "run {k} of {n} vertices");
            }
            // Accepted runs come back as maximal stretches: everything is
            // one range, every other run is a range of its own.
            assert!(poly.runs_where(|_| true).eq(std::iter::once(0..n)));
            let mut k = 0;
            let odd: Vec<_> = poly
                .runs_where(|_| {
                    k += 1;
                    k % 2 == 0
                })
                .collect();
            if expected > 0 {
                let expected_odd = (1..expected)
                    .step_by(2)
                    .map(|k| 32 * k..(32 * k + 32).min(n));
                assert!(odd.iter().cloned().eq(expected_odd), "{odd:?}");
            }
            for run in odd.into_iter().chain([0..n, n..n, 0..0, n - 1..n]) {
                let edges = run.clone().map(|i| poly.edge(i));
                assert!(poly.edges_in(run).eq(edges));
            }
        }
    }
    // The first run of a sawtooth lies on `y = 0`.
    let flat = run_boxes(&Polygon::from_coords(&sawtooth(96)))[0];
    assert_eq!((flat.ymin, flat.ymax), (0.0, 0.0));
}

/// Point location over run boxes against the linear reference loop, on
/// both sides of every run boundary: at every vertex, every edge midpoint
/// and every half-unit lattice point of the MBR and a margin — so points
/// on horizontal edges, on collinear runs, on the ray through a vertex and
/// level with a zero-height run box are all asked.
#[test]
fn point_location_over_runs_matches_the_linear_reference() {
    let mut seen = std::collections::BTreeMap::new();
    for poly in run_boundary_battery() {
        let m = poly.mbr();
        let mut probes: Vec<Point> = poly.vertices().to_vec();
        probes.extend(poly.edges().map(|e| e.midpoint()));
        for ix in -2..=(2 * m.xmax as i32 + 2) {
            for iy in -2..=(2 * m.ymax as i32 + 2) {
                probes.push(Point::new(0.5 * ix as f64, 0.5 * iy as f64));
            }
        }
        for q in probes {
            let expected = reference::locate_point(q, &poly);
            assert_eq!(
                locate_point(q, &poly),
                expected,
                "{q:?} in {} vertices",
                poly.vertex_count()
            );
            *seen.entry(format!("{expected:?}")).or_insert(0usize) += 1;
        }
    }
    assert_eq!(seen.len(), 3, "all three verdicts: {seen:?}");
}

/// The restricted search space and the whole-boundary frontier clip over
/// run boxes return the linear references' edge *sequence*: for regions
/// that touch a run box along a side or at a corner only, miss it by half
/// a unit or cover part of it, and for `d ∈ {0, the exact gap to a run
/// box, ∞}` against MBRs that overlap the polygon's on both axes.
#[test]
fn restricted_search_and_boundary_clip_over_runs_match_the_linear_references() {
    let (mut kept, mut dropped) = (0usize, 0usize);
    for poly in run_boundary_battery() {
        let mut regions = vec![poly.mbr()];
        regions.extend(run_boxes(&poly).iter().flat_map(touching));
        regions.extend(touching(&poly.mbr()));
        for region in &regions {
            let edges = restricted_edges(&poly, region);
            assert_eq!(
                edges,
                reference::restricted_edges(&poly, region),
                "{region:?}"
            );
            kept += edges.len();
            dropped += poly.vertex_count() - edges.len();
        }
        // Inside the MBR on both axes: the whole-boundary arm of the clip.
        let m = poly.mbr();
        let others = [
            Rect::new(m.xmin + 1.0, m.ymin + 1.0, m.xmin + 1.5, m.ymin + 1.5),
            Rect::new(m.xmax - 0.5, m.ymin, m.xmax, m.ymin + 0.5),
            Rect::new(m.xmin, m.ymax, m.xmin, m.ymax),
        ];
        for other in &others {
            let (whole, arm) = reference::frontier_edges(&poly, other);
            assert_eq!(arm, reference::Arm::BothAxesOverlap);
            assert_eq!(whole.len(), poly.vertex_count());
            let gaps = run_boxes(&poly).into_iter().map(|b| b.min_dist(other));
            for d in gaps.chain([0.0, f64::INFINITY]) {
                assert_eq!(
                    frontier_clipped(&poly, other, d),
                    reference::frontier_clipped(&poly, other, d),
                    "{other:?} at d = {d}"
                );
            }
        }
    }
    assert!(kept > 0 && dropped > 0, "{kept} kept, {dropped} dropped");
}

/// A 3 × 2 box `gap` beyond `m` on `side` (0 right, 1 left, 2 above,
/// 3 below), its other axis placed at fraction `t` of `m`'s extent: the
/// frontier clip takes that side's chain arm.
fn beside(m: &Rect, side: usize, t: f64, gap: f64) -> Rect {
    let (x, y) = (m.xmin + t * m.width(), m.ymin + t * m.height());
    match side {
        0 => Rect::new(m.xmax + gap, y, m.xmax + gap + 3.0, y + 2.0),
        1 => Rect::new(m.xmin - gap - 3.0, y, m.xmin - gap, y + 2.0),
        2 => Rect::new(x, m.ymax + gap, x + 3.0, m.ymax + gap + 2.0),
        _ => Rect::new(x, m.ymin - gap - 2.0, x + 3.0, m.ymin - gap),
    }
}

/// Whether a chain's walk-order edge indices wrap past vertex 0.
fn wraps(indices: &[usize]) -> bool {
    indices.windows(2).any(|w| w[1] < w[0])
}

/// `frontier_clipped` against the linear reference at `d ∈ {0, the exact
/// gap to every run box, ∞}`; returns the reference's arm and whether its
/// chain wraps past vertex 0.
fn assert_clip_matches(poly: &Polygon, other: &Rect) -> (reference::Arm, bool) {
    let gaps = run_boxes(poly).into_iter().map(|b| b.min_dist(other));
    for d in gaps.chain([0.0, f64::INFINITY]) {
        assert_eq!(
            frontier_clipped(poly, other, d),
            reference::frontier_clipped(poly, other, d),
            "{} vertices vs {other:?} at d = {d}",
            poly.vertex_count()
        );
    }
    let (indices, arm) = reference::frontier_indices(poly, other);
    (arm, wraps(&indices))
}

/// The chain arm over run boxes returns the linear reference's edge
/// sequence for the other MBR right of, left of, above and below the
/// polygon's own, at three places along the other axis — chains that wrap
/// past vertex 0 (walked as `from..n` then `0..to`) included.
#[test]
fn chain_clip_over_runs_matches_the_linear_reference() {
    let (mut arms, mut wrapped) = (std::collections::BTreeMap::new(), 0usize);
    for poly in run_boundary_battery() {
        for side in 0..4 {
            for t in [0.0, 0.5, 0.9] {
                let (arm, wrap) = assert_clip_matches(&poly, &beside(&poly.mbr(), side, t, 1.5));
                *arms.entry(arm).or_insert(0usize) += 1;
                wrapped += usize::from(wrap);
            }
        }
    }
    use reference::Arm;
    for arm in [Arm::Right, Arm::Left, Arm::Above, Arm::Below] {
        assert!(arms.contains_key(&arm), "{arm:?} never taken: {arms:?}");
    }
    assert!(wrapped > 0, "no chain wrapped past vertex 0: {arms:?}");
}

/// `Polygon::runs_where_in` is `runs_where` clipped to the range, asking
/// only the boxes that bound an edge of it.
#[test]
fn runs_where_in_clips_the_stretches_and_asks_only_the_range() {
    for poly in run_boundary_battery() {
        let n = poly.vertex_count();
        let boxes = run_boxes(&poly);
        for range in [
            0..n,
            0..0,
            n..n,
            1..n,
            31..33,
            32..n.min(64),
            5..n - 1,
            n - 1..n,
        ] {
            // Accept every other run box, by index.
            let accept = |b: &Rect| {
                boxes
                    .iter()
                    .position(|r| r == b)
                    .is_some_and(|k| k % 2 == 0)
            };
            let mut asked = Vec::new();
            let got: Vec<_> = poly
                .runs_where_in(range.clone(), |b| {
                    asked.push(*b);
                    accept(b)
                })
                .collect();
            let expected: Vec<_> = poly
                .runs_where(accept)
                .map(|run| run.start.max(range.start)..run.end.min(range.end))
                .filter(|run| !run.is_empty())
                .collect();
            assert_eq!(got, expected, "{n} vertices, {range:?}");
            let bounding = boxes
                .iter()
                .enumerate()
                .filter(|&(k, _)| range.clone().any(|edge| edge / 32 == k))
                .map(|(_, b)| *b);
            assert!(
                asked.iter().copied().eq(bounding),
                "{n} vertices, {range:?}"
            );
        }
    }
}

/// What one `boundaries_meet(p, q)` call answered, and whether its search
/// ran out of budget and handed the edges to the tree sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Met {
    meet: bool,
    fell_back: bool,
}

/// The restricted edges of `p` and `q` over `region`, none for `None`.
fn restricted_pair(p: &Polygon, q: &Polygon, region: Option<Rect>) -> (Vec<Segment>, Vec<Segment>) {
    match region {
        Some(region) => (restricted_edges(p, &region), restricted_edges(q, &region)),
        None => (Vec::new(), Vec::new()),
    }
}

/// `boundaries_meet(p, q)` — a search over the restricted edges of the
/// run-box region R — against the all-pairs answer over the restricted
/// edges of the MBR intersection R₀ (the forward sweep) and over the whole
/// boundaries, and `polygons_intersect` against `polygons_intersect_brute`.
/// An empty R must leave nothing to find. Where the search ran out of
/// budget on a boundary that is not simple, the tree sweep's precondition
/// does not hold: there the answer must be the tree sweep's over the edges
/// it searched, R's.
fn check_boundaries_meet(p: &Polygon, q: &Polygon) -> Met {
    let (ep, eq) = restricted_pair(p, q, p.mbr().intersection(&q.mbr()));
    let all_pairs = p.edges().any(|e| q.edges().any(|f| e.intersects(&f)));
    assert_eq!(forward_sweep_intersects(&ep, &eq), all_pairs, "{p:?} {q:?}");
    let r = walk(p, q, 0.0).region;
    assert!(r.is_some() || !all_pairs, "{p:?} {q:?}: an empty R");
    let mut st = SweepStats::default();
    let meet = boundaries_meet(p, q, &mut st);
    let fell_back = st.events > 0;
    if !fell_back || (p.is_simple() && q.is_simple()) {
        assert_eq!(meet, all_pairs, "{p:?} {q:?}");
        assert_eq!(polygons_intersect(p, q), polygons_intersect_brute(p, q));
    } else {
        let (ep, eq) = restricted_pair(p, q, r);
        assert_eq!(meet, tree_sweep_intersects(&ep, &eq), "{p:?} {q:?}");
    }
    Met { meet, fell_back }
}

/// The run battery — sawtooths and self-crossing combs of 63–97 vertices,
/// relabelled — each against a partner from the battery placed on it, half
/// a unit off, beside it and on top of it: proper crossings, touching end
/// points, collinear overlaps and misses, searched and fallen back.
#[test]
fn boundaries_meet_matches_the_oracles_on_the_run_battery() {
    let battery = run_boundary_battery();
    let mut seen = std::collections::BTreeMap::new();
    for (i, p) in battery.iter().enumerate() {
        let partner = &battery[(7 * i + 3) % battery.len()];
        for (dx, dy) in [
            (0.0, 0.0),
            (0.5, 0.25),
            (0.0, 8.0),
            (2.0 * p.mbr().xmax, 0.5),
        ] {
            let q = partner.translated(dx, dy);
            *seen.entry(check_boundaries_meet(p, &q)).or_insert(0usize) += 1;
            check_boundaries_meet(&q, p);
        }
    }
    // A crossing found only past the budget is the unit tests' `teeth`.
    let keys = |meet, fell_back| seen.contains_key(&Met { meet, fell_back });
    assert!(
        keys(true, false) && keys(false, false) && keys(false, true),
        "{seen:?}"
    );
}

/// Two `4 · teeth`-vertex simple combs, teeth 0.4 wide: `P`'s stand on a
/// spine below, `Q`'s hang from one above, and the two sets interleave
/// 0.2 apart — or, `meshed`, each `Q` tooth straddles a `P` tooth's top.
fn comb_pair(teeth: usize, meshed: bool) -> (Polygon, Polygon) {
    let last = (teeth - 1) as f64;
    let mut p = Vec::with_capacity(4 * teeth);
    let mut q = Vec::with_capacity(4 * teeth);
    let shift = if meshed { 0.2 } else { 0.6 };
    for k in 0..teeth {
        let x = k as f64;
        let (p_foot, q_root) = match k {
            0 => (-1.0, 12.0),
            _ => (0.0, 11.0),
        };
        p.extend([(x, p_foot), (x, 10.0), (x + 0.4, 10.0), (x + 0.4, 0.0)]);
        q.extend([
            (x + shift, q_root),
            (x + shift, 1.0),
            (x + shift + 0.2, 1.0),
        ]);
        q.push((x + shift + 0.2, if k == teeth - 1 { 12.0 } else { 11.0 }));
    }
    p[4 * teeth - 1] = (last + 0.4, -1.0);
    (Polygon::from_coords(&p), Polygon::from_coords(&q))
}

/// The hostile pair of the search: interleaved combs whose MBRs overlap
/// almost wholly. Apart, a small pair is searched to the end and a large
/// one falls back once the budget is spent; meshed, the first crossing is
/// found long before that.
#[test]
fn combs_are_searched_within_budget_or_handed_to_the_tree_sweep() {
    for teeth in [2, 16, 128] {
        let (p, q) = comb_pair(teeth, false);
        assert!(p.is_simple() && q.is_simple(), "{teeth} teeth");
        let met = check_boundaries_meet(&p, &q);
        assert!(!met.meet);
        assert_eq!(met.fell_back, teeth > 16, "{teeth} teeth");
        assert!(!polygons_intersect(&p, &q));

        let (p, q) = comb_pair(teeth, true);
        assert_eq!(
            check_boundaries_meet(&p, &q),
            Met {
                meet: true,
                fell_back: false
            }
        );
    }
}

/// The rectangle `[x, x + w] × [y, y + h]`, each side cut into
/// `per_side` edges: from 16 a side it carries run boxes, each a stretch
/// of one or two of its sides — boxes of zero width or height.
fn cut_rect(x: f64, y: f64, w: f64, h: f64, per_side: usize) -> Polygon {
    let t = |k: usize, side: f64| side * k as f64 / per_side as f64;
    let coords: Vec<(f64, f64)> = (0..per_side)
        .map(|k| (x + t(k, w), y))
        .chain((0..per_side).map(|k| (x + w, y + t(k, h))))
        .chain((0..per_side).map(|k| (x + w - t(k, w), y + h)))
        .chain((0..per_side).map(|k| (x, y + h - t(k, h))))
        .collect();
    Polygon::from_coords(&coords)
}

/// How R came out for one pair: empty, a point, a segment, or with area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RShape {
    Empty,
    Point,
    Segment,
    Area,
}

fn r_shape(p: &Polygon, q: &Polygon) -> RShape {
    match walk(p, q, 0.0).region {
        None => RShape::Empty,
        Some(r) => match (r.width() == 0.0, r.height() == 0.0) {
            (true, true) => RShape::Point,
            (false, false) => RShape::Area,
            _ => RShape::Segment,
        },
    }
}

/// [`check_boundaries_meet`] both ways, and containment both ways against
/// its definition (a vertex inside, no boundary meeting); returns the
/// shape of R and whether the boundaries meet.
fn check_over_r(p: &Polygon, q: &Polygon) -> (RShape, bool) {
    let met = check_boundaries_meet(p, q);
    assert_eq!(check_boundaries_meet(q, p).meet, met.meet);
    for (inner, outer) in [(p, q), (q, p)] {
        let contained = outer.mbr().contains_rect(&inner.mbr())
            && point_in_polygon(inner.vertices()[0], outer)
            && !inner
                .edges()
                .any(|e| outer.edges().any(|f| e.intersects(&f)));
        assert_eq!(
            polygon_contained_in(inner, outer),
            contained,
            "{inner:?} {outer:?}"
        );
    }
    (r_shape(p, q), met.meet)
}

/// Boxed rectangles on the integer grid placed around a 4 × 4 one cut 16
/// to a side: their run boxes touch at a corner, along part of a side or
/// a whole side, cross, nest, or miss by a unit or by one unit in the last
/// place. Step 3 over R answers every pair like the forward sweep over
/// R₀'s restricted edges and like the brute-force oracle, and R comes out
/// empty, a point, a segment and a box.
#[test]
fn boundaries_meet_over_r_matches_the_oracles_where_run_boxes_touch() {
    let p = cut_rect(0.0, 0.0, 4.0, 4.0, 16);
    let mut seen = std::collections::BTreeMap::new();
    for (x, y) in (-5..=5).flat_map(|x| (-5..=5).map(move |y| (x as f64, y as f64))) {
        for (w, h) in [(1.0, 1.0), (2.0, 3.0), (4.0, 4.0), (6.0, 2.0)] {
            for per_side in [1, 16, 20] {
                let q = cut_rect(x, y, w, h, per_side);
                *seen.entry(check_over_r(&p, &q)).or_insert(0usize) += 1;
            }
        }
    }
    // One unit in the last place off a side or a corner.
    for q in [
        cut_rect(4f64.next_up(), 1.0, 2.0, 2.0, 16),
        cut_rect(4f64.next_up(), 4f64.next_up(), 2.0, 2.0, 16),
        cut_rect(-2.0, 4f64.next_up(), 8.0, 2.0, 16),
    ] {
        assert_eq!(check_over_r(&p, &q), (RShape::Empty, false));
    }
    for shape in [RShape::Point, RShape::Segment, RShape::Area] {
        assert!(seen.contains_key(&(shape, true)), "{shape:?}: {seen:?}");
    }
    assert!(seen.contains_key(&(RShape::Empty, false)), "{seen:?}");
    assert!(seen.contains_key(&(RShape::Area, false)), "{seen:?}");
}

/// `r` grown by `half` on every side, rounded outward, as the walk grows
/// each box.
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

/// Every run of `poly` with its box grown by `half`, in boundary order: one
/// run of all its edges, boxed by its MBR, for a polygon without boxes.
fn all_runs(poly: &Polygon, half: f64) -> Vec<Run> {
    if poly.runs().len() == 0 {
        return vec![(0..poly.vertex_count(), grown(&poly.mbr(), half))];
    }
    poly.runs()
        .map(|(edges, run)| (edges, grown(run, half)))
        .collect()
}

/// The oracle for R: the two-pass fold over every run box that computed it
/// before the walk kept its lists — R₀ cut to the hull of the grown boxes
/// of `first` that meet it, then to those of `second` that meet what is
/// left.
fn two_pass_region(first: &Polygon, second: &Polygon, half: f64) -> Option<Rect> {
    let mut region = grown(&first.mbr(), half).intersection(&grown(&second.mbr(), half))?;
    for poly in [first, second] {
        let hull = all_runs(poly, half)
            .into_iter()
            .filter(|(_, run)| run.intersects(&region))
            .fold(Rect::EMPTY, |hull, (_, run)| hull.union(&run));
        region = region.intersection(&hull)?;
    }
    Some(region)
}

/// The one walk over `(first, second)` at `half` against brute force over
/// every run: R is the two-pass fold's; each side keeps exactly the runs
/// whose grown box meets R; the clip count is that of the runs whose box
/// lies within `2·half` of the other MBR; a run pairs exactly when its box
/// meets a kept box of the other side; and at `half = 0` the kept runs are
/// the stretches of `runs_where` over R. Returns R's shape.
fn check_walk(first: &Polygon, second: &Polygon, half: f64) -> RShape {
    let what = format!("{first:?} {second:?} at {half}");
    let reach = walk(first, second, half);
    let region = two_pass_region(first, second, half);
    assert_eq!(reach.region, region, "{what}");
    let mut clip_edges = 0;
    for (side, poly) in [first, second].into_iter().enumerate() {
        let other = [second, first][side].mbr();
        clip_edges += all_runs(poly, 0.0)
            .iter()
            .filter(|(_, run)| run.min_dist(&other) <= 2.0 * half)
            .map(|(edges, _)| edges.len())
            .sum::<usize>();
        let runs = all_runs(poly, half);
        let meeting = |area: Option<Rect>| {
            let runs = runs
                .iter()
                .filter(move |(_, run)| area.is_some_and(|a| run.intersects(&a)));
            runs.cloned().collect::<Vec<_>>()
        };
        assert_eq!(
            reach.near[side],
            &meeting(region)[..],
            "{what}: side {side}"
        );
        let other = &reach.near[1 - side];
        let paired: Vec<_> = reach.near[side]
            .iter()
            .filter(|(_, run)| other.iter().any(|(_, o)| o.intersects(run)))
            .map(|(edges, _)| edges.clone())
            .collect();
        assert_eq!(
            reach.paired(side).collect::<Vec<_>>(),
            paired,
            "{what}: side {side}"
        );
        if let (0.0, Some(r)) = (half, region) {
            let mut stretches: Vec<std::ops::Range<usize>> = Vec::new();
            for (edges, _) in &reach.near[side] {
                match stretches.last_mut() {
                    Some(last) if last.end == edges.start => last.end = edges.end,
                    _ => stretches.push(edges.clone()),
                }
            }
            let runs_where: Vec<_> = poly.runs_where(|run| run.intersects(&r)).collect();
            assert_eq!(stretches, runs_where, "{what}: side {side}");
        }
    }
    assert_eq!(reach.clip_edges, clip_edges, "{what}");
    let kept = reach.near.iter().flatten();
    assert_eq!(
        reach.edges(),
        kept.map(|(edges, _)| edges.len()).sum::<usize>()
    );
    match region {
        None => RShape::Empty,
        Some(r) => match (r.width() == 0.0, r.height() == 0.0) {
            (true, true) => RShape::Point,
            (false, false) => RShape::Area,
            _ => RShape::Segment,
        },
    }
}

/// The walk on the boxed rectangles of
/// [`boundaries_meet_over_r_matches_the_oracles_where_run_boxes_touch`] —
/// run boxes touching at a corner, along a side, crossing and missing,
/// with and without boxes — at `half = 0`, where R comes out empty, a
/// point, a segment and a box, and at whole and fractional halves.
#[test]
fn the_walk_matches_brute_force_where_run_boxes_touch() {
    let p = cut_rect(0.0, 0.0, 4.0, 4.0, 16);
    let mut seen = std::collections::BTreeSet::new();
    for (x, y) in (-5..=5).flat_map(|x| (-5..=5).map(move |y| (x as f64, y as f64))) {
        for per_side in [1, 16, 20] {
            let q = cut_rect(x, y, 2.0, 3.0, per_side);
            for half in [0.0, 0.25, 0.5, 1.0] {
                seen.insert((half == 0.0, check_walk(&p, &q, half)));
                check_walk(&q, &p, half);
            }
        }
    }
    for shape in [RShape::Empty, RShape::Point, RShape::Segment, RShape::Area] {
        assert!(seen.contains(&(true, shape)), "{shape:?}: {seen:?}");
    }
}

/// Each predicate by its all-pairs definition: intersection is a vertex of
/// either polygon inside the other or any two edges meeting, strict
/// containment a vertex of the inner polygon inside the outer one and no
/// two edges meeting, distance the brute-force minimum distance against
/// `d` (never within a NaN or negative `d`).
fn definition(pred: Predicate, p: &Polygon, q: &Polygon) -> bool {
    match pred {
        Predicate::Intersects => polygons_intersect_brute(p, q),
        Predicate::ContainedIn => {
            point_in_polygon(p.vertices()[0], q)
                && !p.edges().any(|e| q.edges().any(|f| e.intersects(&f)))
        }
        Predicate::WithinDistance(d) => min_dist_brute(p, q) <= d,
    }
}

/// `pred`'s software test on `(p, q)` against its [`definition`], and the
/// same test split where the hardware path splits it — the opening, then
/// step 3 over a walk the caller holds — answering and counting alike.
fn check_predicate(pred: Predicate, p: &Polygon, q: &Polygon) -> bool {
    let mut whole = RefineStats::default();
    let verdict = pred.test(p, q, &mut whole);
    assert_eq!(verdict, definition(pred, p, q), "{pred:?} {p:?} {q:?}");
    let mut split = RefineStats::default();
    let held = match pred.opening(p, q, &mut split.decided_by_pip) {
        Some(verdict) => verdict,
        None => pred.step3(p, q, Some(&walk(p, q, 0.0)), &mut split),
    };
    assert_eq!((held, split), (verdict, whole), "{pred:?} {p:?} {q:?}");
    verdict
}

/// A star-shaped (hence simple) polygon around `(cx, cy)`: one vertex per
/// angular step at a radius drawn from `radii`. Star-shaped polygons can be
/// deeply concave, which is what exercises the pocket cases.
fn star_polygon(cx: f64, cy: f64, radii: &[f64]) -> Polygon {
    let n = radii.len();
    let vertices: Vec<Point> = radii
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let a = (i as f64) * std::f64::consts::TAU / (n as f64);
            Point::new(cx + r * a.cos(), cy + r * a.sin())
        })
        .collect();
    Polygon::new(vertices).expect("star polygons are structurally valid")
}

prop_compose! {
    /// Vertices drawn from a 9 × 9 integer grid, in any order: usually not
    /// simple, always full of extreme ties, axis-parallel edges and
    /// collinear runs. The differential tests compare two implementations
    /// of the same function, so simplicity is not needed. `None` when the
    /// draw repeats a vertex consecutively.
    fn arb_grid_ring()(
        pts in prop::collection::vec((-4i32..=4, -4i32..=4), 3..12),
    ) -> Option<Polygon> {
        Polygon::new(pts.iter().map(|&(x, y)| Point::new(x as f64, y as f64)).collect()).ok()
    }
}

prop_compose! {
    fn arb_grid_rect()(
        x in -12i32..=12,
        y in -12i32..=12,
        w in 0i32..=6,
        h in 0i32..=6,
    ) -> Rect {
        Rect::new(x as f64, y as f64, (x + w) as f64, (y + h) as f64)
    }
}

prop_compose! {
    /// A star with enough vertices to carry run boxes: a count from either
    /// side of a run boundary, or any count up to 400.
    fn arb_big_star()(
        cx in -50.0f64..50.0,
        cy in -50.0f64..50.0,
        pick in 0usize..12,
        radii in prop::collection::vec(0.5f64..20.0, 400..401),
    ) -> Polygon {
        let n = RUN_BOUNDARY_COUNTS.get(pick).copied().unwrap_or_else(|| 40 * pick - 80);
        star_polygon(cx, cy, &radii[..n])
    }
}

prop_compose! {
    /// A [`cut_rect`] with integer corners near the origin: from 16 edges a
    /// side it carries run boxes.
    fn arb_cut_rect()(
        (x, y) in (-6i32..=6, -6i32..=6),
        (w, h) in (1i32..=8, 1i32..=8),
        pick in 0usize..5,
    ) -> Polygon {
        let per_side = [1, 15, 16, 24, 40][pick];
        cut_rect(x as f64, y as f64, w as f64, h as f64, per_side)
    }
}

prop_compose! {
    fn arb_star()(
        cx in -50.0f64..50.0,
        cy in -50.0f64..50.0,
        radii in prop::collection::vec(0.5f64..20.0, 3..24),
    ) -> Polygon {
        star_polygon(cx, cy, &radii)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Step 3, the tree sweep and the forward sweep over the restricted
    /// edges, and the brute-force oracle return identical verdicts on
    /// simple polygons (DESIGN.md invariant 3); so does the software test
    /// of the predicate drawn — intersection, or containment either way —
    /// against its all-pairs definition, on the pair and on a star nested
    /// in a copy of itself grown about its center.
    #[test]
    fn intersection_implementations_agree(
        p in arb_star(),
        q in arb_star(),
        (cx, cy) in (-50.0f64..50.0, -50.0f64..50.0),
        radii in prop::collection::vec(0.5f64..20.0, 3..24),
        grow in 1.001f64..2.0,
        pick in 0usize..3,
    ) {
        check_boundaries_meet(&p, &q);
        if let Some(region) = p.mbr().intersection(&q.mbr()) {
            let (ep, eq) = (restricted_edges(&p, &region), restricted_edges(&q, &region));
            prop_assert_eq!(tree_sweep_intersects(&ep, &eq), forward_sweep_intersects(&ep, &eq));
        }
        let inner = star_polygon(cx, cy, &radii);
        let outer = inner.scaled_about(Point::new(cx, cy), grow).expect("a finite factor");
        let (pred, swap) = [
            (Predicate::Intersects, false),
            (Predicate::ContainedIn, false),
            (Predicate::ContainedIn, true),
        ][pick];
        let order = |a, b| if swap { (b, a) } else { (a, b) };
        let (a, b) = order(&p, &q);
        check_predicate(pred, a, b);
        let (a, b) = order(&inner, &outer);
        prop_assert_eq!(check_predicate(pred, a, b), !swap || pred == Predicate::Intersects);
    }

    /// ...and on stars large enough to carry run boxes: random placements,
    /// and a star nested in a copy of itself grown about its center by a
    /// hair — boundaries everywhere close, meeting nowhere.
    #[test]
    fn boundaries_meet_matches_the_oracles_on_big_stars(
        p in arb_big_star(),
        q in arb_big_star(),
        (cx, cy) in (-50.0f64..50.0, -50.0f64..50.0),
        radii in prop::collection::vec(0.5f64..20.0, 64..200),
        grow in 1.001f64..1.02,
    ) {
        check_boundaries_meet(&p, &q);
        let inner = star_polygon(cx, cy, &radii);
        let outer = inner.scaled_about(Point::new(cx, cy), grow).expect("a finite factor");
        for (a, b) in [(&inner, &outer), (&outer, &inner)] {
            prop_assert!(!check_boundaries_meet(a, b).meet);
            prop_assert!(polygons_intersect(a, b));
        }
    }

    /// Step 3 over R answers like the forward sweep over R₀'s restricted
    /// edges and like the brute-force oracle on random boxed pairs: grid
    /// rectangles cut into runs, whose boxes touch at a corner, along a
    /// side or not at all, against each other and against big stars.
    #[test]
    fn boundaries_meet_over_r_matches_the_oracles_on_boxed_pairs(
        p in arb_cut_rect(),
        q in arb_cut_rect(),
        star in arb_big_star(),
    ) {
        check_over_r(&p, &q);
        check_over_r(&star, &q);
    }

    /// The one walk over the run boxes against brute force
    /// ([`check_walk`]) on random pairs with and without boxes — grid
    /// rectangles whose boxes touch at a point or along a side, big stars,
    /// and a star nested in a copy of itself grown by a hair, whose every
    /// run reaches R and pairs in blocks — at `half = 0` and at `d/2` for
    /// whole and fractional `d`.
    #[test]
    fn the_walk_matches_brute_force_on_random_pairs(
        p in arb_cut_rect(),
        q in arb_cut_rect(),
        star in arb_big_star(),
        other in arb_big_star(),
        radii in prop::collection::vec(0.5f64..20.0, 64..400),
        grow in 1.001f64..1.05,
        (pick, fraction) in (0usize..8, 0.0f64..4.0),
    ) {
        let d = if pick < 4 { pick as f64 } else { fraction };
        let inner = star_polygon(0.0, 0.0, &radii);
        let outer = inner.scaled_about(Point::new(0.0, 0.0), grow).expect("a finite factor");
        for half in [0.0, d / 2.0] {
            check_walk(&p, &q, half);
            check_walk(&star, &q, half);
            check_walk(&q, &star, half);
            check_walk(&star, &other, half);
            check_walk(&inner, &outer, half);
            check_walk(&outer, &inner, half);
        }
    }

    /// Intersection is symmetric.
    #[test]
    fn intersection_is_symmetric(p in arb_star(), q in arb_star()) {
        prop_assert_eq!(polygons_intersect(&p, &q), polygons_intersect(&q, &p));
    }

    /// `min_dist` equals the brute-force oracle and is 0 iff intersecting.
    #[test]
    fn min_dist_matches_oracle(p in arb_star(), q in arb_star()) {
        let exact = min_dist(&p, &q);
        let oracle = min_dist_brute(&p, &q);
        prop_assert!((exact - oracle).abs() <= 1e-9 * (1.0 + oracle),
            "min_dist {} vs oracle {}", exact, oracle);
        prop_assert_eq!(oracle == 0.0, polygons_intersect_brute(&p, &q));
    }

    /// `within_distance` (frontier chains + clipping + sweep) must agree
    /// with a direct comparison against the oracle distance, at a drawn
    /// `d` and at NaN, −1, 0 and +∞, both ways round.
    #[test]
    fn within_distance_matches_oracle(
        p in arb_star(),
        q in arb_star(),
        d in 0.0f64..80.0,
        pick in 0usize..5,
    ) {
        let d = [d, f64::NAN, -1.0, 0.0, f64::INFINITY][pick];
        let oracle = min_dist_brute(&p, &q);
        prop_assert_eq!(
            within_distance(&p, &q, d),
            oracle <= d,
            "within_distance({}) vs oracle distance {}", d, oracle
        );
        for (a, b) in [(&p, &q), (&q, &p)] {
            check_predicate(Predicate::WithinDistance(d), a, b);
        }
    }

    /// Within-distance at d = 0 coincides with intersection, the
    /// predicates' software tests both ways round as the wrappers.
    #[test]
    fn within_zero_is_intersection(p in arb_star(), q in arb_star()) {
        let intersect = polygons_intersect_brute(&p, &q);
        prop_assert_eq!(within_distance(&p, &q, 0.0), intersect);
        for (a, b) in [(&p, &q), (&q, &p)] {
            for pred in [Predicate::WithinDistance(0.0), Predicate::Intersects] {
                prop_assert_eq!(pred.test(a, b, &mut RefineStats::default()), intersect);
            }
        }
    }

    /// The centroid of a star polygon is inside it only if... not always
    /// (concave shapes), but the generating center always is: every star
    /// vertex is visible from it.
    #[test]
    fn star_center_is_inside(
        cx in -50.0f64..50.0,
        cy in -50.0f64..50.0,
        radii in prop::collection::vec(0.5f64..20.0, 3..24),
    ) {
        let p = star_polygon(cx, cy, &radii);
        prop_assert!(point_in_polygon(Point::new(cx, cy), &p));
    }

    /// Points far outside the MBR are Outside.
    #[test]
    fn pip_boundary_and_outside(p in arb_star()) {
        let far = Point::new(p.mbr().xmax + 1000.0, p.mbr().ymax + 1000.0);
        prop_assert_eq!(locate_point(far, &p), PointLocation::Outside);
    }

    /// Vertices themselves are always on the boundary.
    #[test]
    fn pip_vertices_on_boundary(p in arb_star()) {
        for &v in p.vertices() {
            prop_assert_eq!(locate_point(v, &p), PointLocation::OnBoundary);
        }
    }

    /// Star polygons are simple; the Shamos–Hoey-style checker must agree.
    #[test]
    fn stars_are_simple(p in arb_star()) {
        prop_assert!(p.is_simple());
    }

    /// Triangulation of a simple polygon covers exactly its area.
    #[test]
    fn triangulation_preserves_area(p in arb_star()) {
        let tris = spatial_geom::triangulate::triangulate(&p)
            .expect("star polygons must triangulate");
        prop_assert_eq!(tris.len(), p.vertex_count() - 2);
        let vs = p.vertices();
        let ta: f64 = tris
            .iter()
            .map(|t| {
                let (u, v) = (vs[t[1]] - vs[t[0]], vs[t[2]] - vs[t[0]]);
                (u.x * v.y - u.y * v.x).abs() / 2.0
            })
            .sum();
        prop_assert!((ta - p.area()).abs() <= 1e-9 * (1.0 + p.area()));
    }

    /// WKT round-trips exactly (f64 Display is lossless for these values).
    #[test]
    fn wkt_round_trip(p in arb_star()) {
        let s = spatial_geom::wkt::format_polygon(&p);
        let q = spatial_geom::wkt::parse_polygon(&s).unwrap();
        prop_assert_eq!(p, q);
    }

    /// MBR distance lower-bounds true distance; expanded MBRs intersect iff
    /// MBR distance ≤ 2d is *implied* (one-way check).
    #[test]
    fn mbr_distance_is_lower_bound(p in arb_star(), q in arb_star()) {
        let lb = p.mbr().min_dist(&q.mbr());
        let d = min_dist_brute(&p, &q);
        prop_assert!(lb <= d + 1e-9, "MBR lower bound {} exceeds distance {}", lb, d);
    }

    /// The WKT parser must never panic, whatever bytes arrive (fuzz-style:
    /// errors are fine, crashes are not).
    #[test]
    fn wkt_parser_never_panics(s in ".{0,200}") {
        let _ = spatial_geom::wkt::parse_polygon(&s);
    }

    /// ...including near-miss inputs that start like real WKT.
    #[test]
    fn wkt_parser_survives_mangled_polygons(
        body in r"[0-9 .,()-]{0,120}",
    ) {
        let _ = spatial_geom::wkt::parse_polygon(&format!("POLYGON ({body})"));
        let _ = spatial_geom::wkt::parse_polygon(&format!("POLYGON (({body}))"));
    }

    /// Translation and scaling commute with area the way affine maps must.
    #[test]
    fn transforms_respect_area(
        p in arb_star(),
        dx in -100.0f64..100.0,
        dy in -100.0f64..100.0,
        s in 0.1f64..5.0,
    ) {
        let area = p.area();
        let t = p.translated(dx, dy);
        prop_assert!((t.area() - area).abs() <= 1e-6 * (1.0 + area));
        let z = p.scaled_about(Point::new(0.0, 0.0), s).expect("a positive finite factor");
        prop_assert!((z.area() - area * s * s).abs() <= 1e-6 * (1.0 + area * s * s));
    }

    /// The one-walk frontier clip returns the reference's edge sequence on
    /// random grid rings against random grid MBRs, at the distances where a
    /// clip decision can flip.
    #[test]
    fn frontier_walk_matches_reference_on_grid_rings(
        ring in arb_grid_ring(),
        other in arb_grid_rect(),
    ) {
        prop_assume!(ring.is_some());
        let p = ring.unwrap();
        prop_assert_eq!(
            frontier_clipped(&p, &other, f64::INFINITY),
            reference::frontier_edges(&p, &other).0
        );
        for d in clip_distances(&p, &other) {
            prop_assert_eq!(
                frontier_clipped(&p, &other, d),
                reference::frontier_clipped(&p, &other, d),
                "d = {}", d
            );
        }
    }

    /// ...and on the continuous stars, facing each other's MBRs as the
    /// distance test pairs them.
    #[test]
    fn frontier_walk_matches_reference_on_stars(
        p in arb_star(),
        q in arb_star(),
        d in 0.0f64..80.0,
    ) {
        for (a, b) in [(&p, &q), (&q, &p)] {
            prop_assert_eq!(
                frontier_clipped(a, &b.mbr(), d),
                reference::frontier_clipped(a, &b.mbr(), d)
            );
        }
    }

    /// Point location agrees with the reference loop on random grid rings
    /// at every grid and half-grid point, vertex and edge midpoint.
    #[test]
    fn point_location_matches_reference_on_grid_rings(ring in arb_grid_ring()) {
        prop_assume!(ring.is_some());
        let poly = ring.unwrap();
        for q in probe_points(&poly, -9..=9) {
            prop_assert_eq!(locate_point(q, &poly), reference::locate_point(q, &poly), "{:?}", q);
        }
    }

    /// ...and on the continuous stars, at their own vertices and at random
    /// points of the MBR.
    #[test]
    fn point_location_matches_reference_on_stars(
        p in arb_star(),
        u in 0.0f64..1.0,
        v in 0.0f64..1.0,
    ) {
        let m = p.mbr();
        let q = Point::new(m.xmin + u * m.width(), m.ymin + v * m.height());
        prop_assert_eq!(locate_point(q, &p), reference::locate_point(q, &p));
        for &w in p.vertices() {
            prop_assert_eq!(locate_point(w, &p), reference::locate_point(w, &p));
        }
    }

    /// The three run-pruned scans against their linear references on stars
    /// large enough to carry run boxes: a random point and every vertex, a
    /// random region, and the whole-boundary clip against an MBR inside the
    /// star's own.
    #[test]
    fn run_pruned_scans_match_linear_references_on_big_stars(
        p in arb_big_star(),
        (u, v) in (0.0f64..1.0, 0.0f64..1.0),
        (w, h) in (0.0f64..0.5, 0.0f64..0.5),
        d in 0.0f64..20.0,
    ) {
        let m = p.mbr();
        let q = Point::new(m.xmin + u * m.width(), m.ymin + v * m.height());
        prop_assert_eq!(locate_point(q, &p), reference::locate_point(q, &p));
        for &vertex in p.vertices() {
            prop_assert_eq!(locate_point(vertex, &p), PointLocation::OnBoundary);
        }
        let region = Rect::new(q.x, q.y, q.x + w * m.width(), q.y + h * m.height());
        prop_assert_eq!(
            restricted_edges(&p, &region),
            reference::restricted_edges(&p, &region)
        );
        let other = region.intersection(&m).expect("q lies in the MBR");
        prop_assert_eq!(
            frontier_clipped(&p, &other, d),
            reference::frontier_clipped(&p, &other, d)
        );
    }

    /// ...and the chain arm on the same stars, the other MBR on a random
    /// side at a random gap and place, at every exact run-box gap.
    #[test]
    fn chain_clip_over_runs_matches_linear_reference_on_big_stars(
        p in arb_big_star(),
        side in 0usize..4,
        t in 0.0f64..1.0,
        gap in 0.01f64..30.0,
    ) {
        assert_clip_matches(&p, &beside(&p.mbr(), side, t, gap));
    }

    /// `polygons_intersect` must agree with the *distance* oracle's notion
    /// of contact: distance 0 ⟺ intersecting.
    #[test]
    fn intersection_iff_zero_distance(p in arb_star(), q in arb_star()) {
        prop_assert_eq!(polygons_intersect(&p, &q), min_dist_brute(&p, &q) == 0.0);
    }
}
