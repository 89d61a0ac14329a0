//! Simple polygons — the data type of every evaluation dataset in the paper.
//!
//! A [`Polygon`] is a closed boundary given by its vertices in order (either
//! winding); the edge from the last vertex back to the first is implicit.
//! Polygons may be concave — Fig. 1 of the paper shows how irregular real
//! land-cover shapes are — and the hardware path never needs them convex
//! because it renders boundaries, not filled interiors (§3.1).

use crate::point::Point;
use crate::rect::Rect;
use crate::segment::Segment;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Errors raised by [`Polygon::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three vertices.
    TooFewVertices(usize),
    /// Two consecutive vertices coincide, producing a zero-length edge.
    DuplicateConsecutiveVertex(usize),
    /// A vertex has a non-finite coordinate.
    NonFiniteVertex(usize),
}

impl fmt::Display for PolygonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolygonError::TooFewVertices(n) => {
                write!(f, "polygon needs at least 3 vertices, got {n}")
            }
            PolygonError::DuplicateConsecutiveVertex(i) => {
                write!(f, "vertices {i} and {} coincide", i + 1)
            }
            PolygonError::NonFiniteVertex(i) => write!(f, "vertex {i} is not finite"),
        }
    }
}

impl std::error::Error for PolygonError {}

/// A simple polygon with `f64` vertices, a cached MBR, the cached indices
/// of its four extreme vertices and — from 64 vertices up — the cached MBR
/// of every run of 32 consecutive edges.
///
/// All three caches are computed in one pass at construction. The filtering
/// step touches MBRs orders of magnitude more often than actual geometry, so
/// the MBR must be free to read; the extreme vertices are where the
/// `minDist` frontier chains start and end ([`crate::chains`]), a property
/// of the polygon alone that the software distance test would otherwise
/// rediscover with three full vertex scans on every candidate pair; and the
/// run boxes let every scan that only wants the edges near a point or a
/// region ([`Polygon::runs_where`]) skip the rest of a large boundary 32
/// edges at a compare.
///
/// A polygon is immutable, so its clones share one vertex buffer: copying a
/// dataset copies 72 bytes and the run boxes per polygon, not the boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Arc<[Point]>,
    mbr: Rect,
    /// Indices of the *first* vertex attaining max x, min x, max y, min y,
    /// in that order. Every method that moves or reorders vertices
    /// recomputes them: rounding can merge two distinct coordinates into a
    /// tie, and a reversal turns the first of a tie into the last.
    extremes: [u32; 4],
    /// Box `k` bounds edges `32k .. min(32k + 32, n)`, both end points of
    /// each; recomputed with the extremes. Consecutive edges are neighbours
    /// in space, so a run's box stays small however the boundary winds — a
    /// bucketing by y-slab does not (a long edge lands in every slab it
    /// spans; EXPERIMENTS.md "Boundary runs"). A thin pointer, `None` below
    /// [`MIN_BOXED_VERTICES`]: the 3-vertex majority of a corpus pays 8
    /// bytes for a structure it would never consult.
    runs: RunBoxes,
}

/// `Box<Vec<_>>` on purpose: a boxed slice is a fat pointer, 16 bytes on
/// every polygon for a structure one in twenty carries.
#[allow(clippy::box_collection)]
type RunBoxes = Option<Box<Vec<Rect>>>;

/// Edges per cached run box: 1 byte of box per vertex, and a rejected run
/// saves 32 per-edge tests for one box compare.
const RUN_EDGES: usize = 32;

/// Below two full runs a box compare per run saves nothing over the scan.
const MIN_BOXED_VERTICES: usize = 2 * RUN_EDGES;

/// The MBR, the extreme-vertex indices and the run boxes of a non-empty
/// vertex list, in one pass.
fn bounds(vertices: &[Point]) -> (Rect, [u32; 4], RunBoxes) {
    let n = vertices.len();
    // Makes the `as u32` below lossless; 2^32 vertices are 64 GiB.
    assert!(u32::try_from(n).is_ok(), "polygon vertex count exceeds u32");
    let mut mbr = Rect::EMPTY;
    let mut runs =
        (n >= MIN_BOXED_VERTICES).then(|| Box::new(vec![Rect::EMPTY; n.div_ceil(RUN_EDGES)]));
    let [mut max_x, mut min_x, mut max_y, mut min_y] = [0usize; 4];
    for (i, &v) in vertices.iter().enumerate() {
        mbr = mbr.expand_to(v);
        if let Some(runs) = runs.as_deref_mut() {
            // `v` starts edge `i` and ends the edge before it.
            let before = if i == 0 { n - 1 } else { i - 1 };
            for edge in [i, before] {
                runs[edge / RUN_EDGES] = runs[edge / RUN_EDGES].expand_to(v);
            }
        }
        // Strict compares keep the first vertex of a tie.
        if v.x > vertices[max_x].x {
            max_x = i;
        }
        if v.x < vertices[min_x].x {
            min_x = i;
        }
        if v.y > vertices[max_y].y {
            max_y = i;
        }
        if v.y < vertices[min_y].y {
            min_y = i;
        }
    }
    (mbr, [max_x, min_x, max_y, min_y].map(|i| i as u32), runs)
}

impl Polygon {
    /// Builds a polygon, validating the structural invariants.
    ///
    /// A trailing vertex equal to the first (the WKT closing convention) is
    /// removed automatically.
    pub fn new(mut vertices: Vec<Point>) -> Result<Self, PolygonError> {
        if vertices.len() >= 2 && vertices.first() == vertices.last() {
            vertices.pop();
        }
        if vertices.len() < 3 {
            return Err(PolygonError::TooFewVertices(vertices.len()));
        }
        for (i, v) in vertices.iter().enumerate() {
            if !v.is_finite() {
                return Err(PolygonError::NonFiniteVertex(i));
            }
        }
        for i in 0..vertices.len() {
            if vertices[i] == vertices[(i + 1) % vertices.len()] {
                return Err(PolygonError::DuplicateConsecutiveVertex(i));
            }
        }
        Ok(Polygon::with_bounds(vertices.into()))
    }

    /// Wraps already-validated vertices, computing every cache.
    fn with_bounds(vertices: Arc<[Point]>) -> Self {
        let (mbr, extremes, runs) = bounds(&vertices);
        Polygon {
            vertices,
            mbr,
            extremes,
            runs,
        }
    }

    /// Convenience constructor from coordinate tuples; panics on invalid
    /// input (intended for tests and examples).
    pub fn from_coords(coords: &[(f64, f64)]) -> Self {
        Polygon::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
            .expect("invalid polygon literal")
    }

    /// The vertices in order (without the closing duplicate).
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices — the paper's measure of geometry complexity
    /// (Table 2) and the input to the `sw_threshold` heuristic (§4.3).
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// The cached minimum bounding rectangle.
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.mbr
    }

    /// The cached indices of the first vertex attaining max x, min x,
    /// max y and min y, in that order.
    #[inline]
    pub(crate) fn extremes(&self) -> [usize; 4] {
        self.extremes.map(|i| i as usize)
    }

    /// Iterates over the `n` boundary edges, including the closing edge.
    #[inline]
    pub fn edges(&self) -> impl ExactSizeIterator<Item = Segment> + '_ {
        (0..self.vertices.len()).map(move |i| self.edge(i))
    }

    /// The `i`-th edge (`i < vertex_count()`).
    #[inline]
    pub fn edge(&self, i: usize) -> Segment {
        // The wrap is a compare, not `% n`: whether the optimizer proves
        // the division away depends on where this gets inlined, and every
        // boundary walk and strided sample goes through here.
        let vs = &self.vertices;
        let next = if i + 1 == vs.len() { 0 } else { i + 1 };
        Segment::new(vs[i], vs[next])
    }

    /// The boundary as ranges of edge indices, in boundary order: every
    /// maximal stretch of runs whose cached boxes `accept` (each box is
    /// asked once), or — for a polygon too small to carry run boxes — the
    /// whole boundary as one range that `accept` is never asked about. A
    /// run's box contains both end points of each of its edges, so a caller
    /// whose per-edge test can only pass inside the boxes it accepts sees
    /// exactly the edges it would have kept from a full scan, in the same
    /// order — and one range, `0..n`, when it accepts everything.
    pub fn runs_where<'a>(
        &'a self,
        accept: impl FnMut(&Rect) -> bool + 'a,
    ) -> impl Iterator<Item = Range<usize>> + 'a {
        self.runs_where_in(0..self.vertices.len(), accept)
    }

    /// [`Polygon::runs_where`] over the edges with indices `edges` only
    /// (`edges.end <= vertex_count()`): `accept` is asked about just the
    /// run boxes that bound an edge of `edges`, and the stretches come back
    /// clipped to it — `edges` itself, unasked, for a polygon without
    /// boxes, and nothing for an empty range.
    pub fn runs_where_in<'a>(
        &'a self,
        edges: Range<usize>,
        accept: impl FnMut(&Rect) -> bool + 'a,
    ) -> impl Iterator<Item = Range<usize>> + 'a {
        let boxes = self.runs.as_deref().map_or(&[][..], Vec::as_slice);
        let mut unboxed = boxes.is_empty() && !edges.is_empty();
        let first_box = edges.start / RUN_EDGES;
        let asked_about = if unboxed || edges.is_empty() {
            &[][..]
        } else {
            &boxes[first_box..edges.end.div_ceil(RUN_EDGES)]
        };
        let mut verdicts = asked_about.iter().map(accept);
        let mut asked = first_box;
        std::iter::from_fn(move || {
            if std::mem::take(&mut unboxed) {
                return Some(edges.clone());
            }
            // `position` consumes the rejected runs and the first accepted
            // one; `take_while` the accepted ones after it and the run
            // that ends the stretch.
            let first = asked + verdicts.position(|accepted| accepted)?;
            let end = first + 1 + verdicts.by_ref().take_while(|&accepted| accepted).count();
            asked = end + 1;
            Some((first * RUN_EDGES).max(edges.start)..(end * RUN_EDGES).min(edges.end))
        })
    }

    /// Every cached run box with the indices of the edges it bounds — also
    /// those of the vertices that start them — in boundary order; nothing
    /// for a polygon too small to carry run boxes. For a caller that has a
    /// use for the rejected runs too, where [`Polygon::runs_where`] only
    /// reports the accepted ones.
    pub fn runs(&self) -> impl ExactSizeIterator<Item = (Range<usize>, &Rect)> + '_ {
        let n = self.vertices.len();
        let boxes = self.runs.as_deref().map_or(&[][..], Vec::as_slice);
        boxes
            .iter()
            .enumerate()
            .map(move |(k, run)| (k * RUN_EDGES..((k + 1) * RUN_EDGES).min(n), run))
    }

    /// The edges with indices `run` (`run.end <= vertex_count()`), in
    /// boundary order: what a caller of [`Polygon::runs_where`] walks.
    pub fn edges_in(&self, run: Range<usize>) -> impl Iterator<Item = Segment> + '_ {
        let vs = &self.vertices;
        // Only the last edge wraps; the others are neighbours in the slice.
        let closing =
            (run.end == vs.len() && !run.is_empty()).then(|| Segment::new(vs[run.end - 1], vs[0]));
        let open = &vs[run.start..(run.end + 1).min(vs.len())];
        open.windows(2)
            .map(|ends| Segment::new(ends[0], ends[1]))
            .chain(closing)
    }

    /// The edges whose MBR is `near`, in boundary order, from a walk over
    /// only the runs whose box is: `near` must hold for every rectangle
    /// that contains one it holds for — then a run it fails on has no edge
    /// it holds on, and the result is that of testing every edge. They
    /// replace what `kept` held.
    pub(crate) fn edges_near(&self, near: impl Fn(&Rect) -> bool, kept: &mut Vec<Segment>) {
        kept.clear();
        for run in self.runs_where(&near) {
            kept.extend(self.edges_in(run).filter(|e| near(&e.mbr())));
        }
    }

    /// Signed area via the shoelace formula: positive for counter-clockwise
    /// winding.
    pub fn signed_area(&self) -> f64 {
        let mut acc = 0.0;
        for e in self.edges() {
            acc += e.a.cross(e.b);
        }
        acc / 2.0
    }

    /// Absolute enclosed area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// True when the vertices wind counter-clockwise.
    #[inline]
    pub fn is_ccw(&self) -> bool {
        self.signed_area() > 0.0
    }

    /// Returns the polygon with counter-clockwise winding (reversing the
    /// vertex order if needed). Several algorithms assume a known winding.
    pub fn ccw(mut self) -> Self {
        if !self.is_ccw() {
            match Arc::get_mut(&mut self.vertices) {
                Some(vertices) => vertices.reverse(),
                // A clone still reads the buffer in its own order.
                None => self.vertices = self.vertices.iter().rev().copied().collect(),
            }
            (_, self.extremes, self.runs) = bounds(&self.vertices);
        }
        self
    }

    /// Total boundary length.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.len()).sum()
    }

    /// Area centroid (assumes non-zero area).
    pub fn centroid(&self) -> Point {
        let n = self.vertices.len();
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut a2 = 0.0;
        for Segment { a: p, b: q } in self.edges() {
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
            a2 += w;
        }
        if a2 == 0.0 {
            // Degenerate (zero-area) polygon: fall back to the vertex mean.
            let sum = self.vertices.iter().fold(Point::ORIGIN, |s, &v| s + v);
            return sum / n as f64;
        }
        Point::new(cx / (3.0 * a2), cy / (3.0 * a2))
    }

    /// True when no two non-adjacent edges intersect and no adjacent edges
    /// overlap — i.e. the polygon is *simple* in the paper's footnote-1
    /// sense. Runs the Shamos–Hoey sweep from [`crate::sweep`].
    pub fn is_simple(&self) -> bool {
        crate::sweep::polygon_is_simple(self)
    }

    /// The polygon translated by `(dx, dy)`.
    pub fn translated(&self, dx: f64, dy: f64) -> Polygon {
        let d = Point::new(dx, dy);
        Polygon::with_bounds(self.vertices.iter().map(|&v| v + d).collect())
    }

    /// The polygon scaled by `s` about a fixed point `c`. A negative `s`
    /// also turns it half way round `c` (winding is kept, every extreme
    /// swaps with its opposite); `s = 0` and non-finite factors collapse
    /// or lose the vertices and are rejected like any other invalid vertex
    /// list.
    pub fn scaled_about(&self, c: Point, s: f64) -> Result<Polygon, PolygonError> {
        Polygon::new(self.vertices.iter().map(|&v| c + (v - c) * s).collect())
    }

    /// Returns the boundary point at normalized arc length `t ∈ [0, 1)`;
    /// useful for sampling-based tests.
    pub fn boundary_point(&self, t: f64) -> Point {
        let total = self.perimeter();
        let mut remaining = (t.rem_euclid(1.0)) * total;
        for e in self.edges() {
            let l = e.len();
            if remaining <= l {
                return e.a.lerp(e.b, if l == 0.0 { 0.0 } else { remaining / l });
            }
            remaining -= l;
        }
        self.vertices[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::from_coords(&[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]),
            Err(PolygonError::TooFewVertices(2))
        ));
        assert!(matches!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 0.0),
                Point::new(1.0, 1.0),
            ]),
            Err(PolygonError::DuplicateConsecutiveVertex(0))
        ));
        assert!(matches!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(f64::NAN, 0.0),
                Point::new(1.0, 1.0),
            ]),
            Err(PolygonError::NonFiniteVertex(1))
        ));
    }

    #[test]
    fn closing_vertex_is_dropped() {
        let p = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0), // WKT-style closure
        ])
        .unwrap();
        assert_eq!(p.vertex_count(), 3);
    }

    #[test]
    fn area_and_winding() {
        let sq = unit_square();
        assert_eq!(sq.signed_area(), 1.0);
        assert!(sq.is_ccw());
        let cw = Polygon::from_coords(&[(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]);
        assert_eq!(cw.signed_area(), -1.0);
        assert!(!cw.is_ccw());
        assert_eq!(cw.area(), 1.0);
        assert!(cw.ccw().is_ccw());
    }

    #[test]
    fn mbr_cached() {
        let p = Polygon::from_coords(&[(1.0, 2.0), (5.0, 1.0), (3.0, 7.0)]);
        assert_eq!(p.mbr(), Rect::new(1.0, 1.0, 5.0, 7.0));
    }

    #[test]
    fn edges_close_the_boundary() {
        let sq = unit_square();
        let edges: Vec<Segment> = sq.edges().collect();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[3].b, edges[0].a, "last edge returns to first vertex");
        assert_eq!(sq.edge(3), edges[3]);
    }

    #[test]
    fn perimeter_and_centroid() {
        let sq = unit_square();
        assert_eq!(sq.perimeter(), 4.0);
        let c = sq.centroid();
        assert!((c.x - 0.5).abs() < 1e-12 && (c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn centroid_is_winding_invariant() {
        let ccw = Polygon::from_coords(&[(0.0, 0.0), (4.0, 0.0), (4.0, 2.0), (0.0, 2.0)]);
        let cw = Polygon::from_coords(&[(0.0, 0.0), (0.0, 2.0), (4.0, 2.0), (4.0, 0.0)]);
        assert!(ccw.centroid().dist(cw.centroid()) < 1e-12);
    }

    #[test]
    fn simplicity() {
        assert!(unit_square().is_simple());
        // Bowtie: self-intersecting.
        let bowtie = Polygon::from_coords(&[(0.0, 0.0), (2.0, 2.0), (2.0, 0.0), (0.0, 2.0)]);
        assert!(!bowtie.is_simple());
    }

    #[test]
    fn concave_polygon_simple() {
        // An L-shape is concave but simple.
        let l = Polygon::from_coords(&[
            (0.0, 0.0),
            (3.0, 0.0),
            (3.0, 1.0),
            (1.0, 1.0),
            (1.0, 3.0),
            (0.0, 3.0),
        ]);
        assert!(l.is_simple());
        assert_eq!(l.area(), 5.0);
    }

    #[test]
    fn transforms() {
        let sq = unit_square();
        let t = sq.translated(2.0, 3.0);
        assert_eq!(t.mbr(), Rect::new(2.0, 3.0, 3.0, 4.0));
        let s = sq.scaled_about(Point::new(0.0, 0.0), 2.0).unwrap();
        assert_eq!(s.mbr(), Rect::new(0.0, 0.0, 2.0, 2.0));
        assert_eq!(s.area(), 4.0);
    }

    #[test]
    fn scaling_is_validated_like_construction() {
        let sq = unit_square();
        let c = Point::new(0.25, 0.5);
        assert_eq!(
            sq.scaled_about(c, 0.0),
            Err(PolygonError::DuplicateConsecutiveVertex(0)),
            "every vertex collapses onto c"
        );
        for s in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                sq.scaled_about(c, s),
                Err(PolygonError::NonFiniteVertex(0)),
                "factor {s}"
            );
        }
        // A negative factor is a half-turn about c: same vertex order and
        // winding, every extreme swapped with its opposite.
        let r = sq.scaled_about(c, -1.0).unwrap();
        assert_eq!(r.mbr(), Rect::new(-0.5, 0.0, 0.5, 1.0));
        assert_eq!(r.signed_area(), 1.0);
        let [max_x, min_x, max_y, min_y] = sq.extremes();
        assert_eq!(r.extremes(), [min_x, max_x, min_y, max_y]);
    }

    #[test]
    fn extremes_keep_the_first_vertex_of_a_tie() {
        // Every extreme of a square is attained twice.
        let sq = unit_square();
        assert_eq!(sq.extremes(), [1, 0, 2, 0]);
        // Reversal turns the last vertex of each tie into the first.
        let cw = Polygon::from_coords(&[(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]);
        assert_eq!(cw.extremes(), [2, 0, 1, 0]);
        let flipped = cw.clone().ccw();
        assert_eq!(flipped.extremes(), [0, 2, 1, 0]);
        assert_eq!(flipped, Polygon::new(flipped.vertices().to_vec()).unwrap());
        // A translation large enough to round distinct coordinates together
        // creates a tie the source polygon did not have.
        let p = Polygon::from_coords(&[(0.0, 0.0), (1.0, 0.0), (1.0 + 1e-12, 1.0), (0.0, 1.0)]);
        assert_eq!(p.extremes()[0], 2);
        let t = p.translated(1e6, 0.0);
        assert_eq!(t.extremes()[0], 1);
        assert_eq!(t, Polygon::new(t.vertices().to_vec()).unwrap());
    }

    #[test]
    fn clones_share_the_vertex_buffer_until_one_is_reversed() {
        let cw = Polygon::from_coords(&[(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]);
        let copy = cw.clone();
        assert!(std::ptr::eq(cw.vertices(), copy.vertices()));
        // Reversing the copy must not reorder the original under it.
        let flipped = copy.ccw();
        assert!(flipped.is_ccw() && !cw.is_ccw());
        assert_eq!(cw.vertices()[1], Point::new(0.0, 1.0));
        assert_eq!(flipped, Polygon::new(flipped.vertices().to_vec()).unwrap());
    }

    #[test]
    fn boundary_point_walks_edges() {
        let sq = unit_square();
        assert_eq!(sq.boundary_point(0.0), Point::new(0.0, 0.0));
        assert_eq!(sq.boundary_point(0.25), Point::new(1.0, 0.0));
        assert_eq!(sq.boundary_point(0.5), Point::new(1.0, 1.0));
        let p = sq.boundary_point(0.125);
        assert!((p.x - 0.5).abs() < 1e-12 && p.y == 0.0);
    }
}
