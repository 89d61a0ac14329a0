//! The 0-object and 1-object filters for within-distance joins (Chan,
//! §4.1.1): cheap *upper bounds* on the distance between two polygons. A
//! candidate pair whose upper bound is ≤ D is a confirmed positive and
//! skips geometry comparison entirely.
//!
//! Both bounds exploit the defining property of an MBR: the object touches
//! all four of its sides.
//!
//! * **0-object** (MBRs only): for any side `s1` of `R1` and `s2` of `R2`,
//!   there are object points on both sides, so
//!   `dist(A, B) ≤ maxDist(s1, s2)`; minimizing over the 16 side pairs
//!   gives the bound. `maxDist` of two segments is attained at endpoint
//!   pairs because the distance is convex in each argument.
//!
//! * **1-object** (actual geometry of one object, the paper retrieves the
//!   *larger* one): `B` touches each side `s2 = q1q2` of `R2` somewhere, and
//!   `q ↦ dist(A, q)` is 1-Lipschitz, so along the side
//!   `max_q dist(A, q) ≤ (dist(A, q1) + dist(A, q2) + |q1q2|) / 2`;
//!   minimizing over the four sides (and capping by the 0-object bound)
//!   gives a tighter bound. This is a conservative variant of Chan's
//!   filter — identical contract, simpler geometry.
//!
//! A filter only asks whether a bound is `≤ D`, and for the 1-object bound
//! [`one_object_within`] answers that with less than the bound costs: it
//! never measures a side whose half-length exceeds `D` (such a side's term
//! cannot be `≤ D`) and stops at the first look that finds a side term
//! `≤ D` (the terms only fall as edges are added). On `join-sw` the object
//! filters were half of LANDC ⋈dist LANDO's software time, a 1-object call
//! measuring all ≈ 60 sampled edges at four corners however early its
//! answer was settled; `one_object_within` measures ≈ 38 of them, and 5 %
//! of its calls none (EXPERIMENTS.md "Distance bounds").
//! [`one_object_upper_bound`] is the bound itself, kept as the oracle
//! `one_object_within` is tested against.

use spatial_geom::{Rect, Segment};

/// The 0-object upper bound on `dist(A, B)` from the MBRs alone.
///
/// Works on the 16 corner-pair *squared* distances and takes one root at
/// the end. `sqrt` is monotone and correctly rounded, so it commutes with
/// `max` and `min`: the result is bit-for-bit the `f64` that rooting every
/// endpoint pair of every side pair (64 roots) would return.
pub fn zero_object_upper_bound(r1: &Rect, r2: &Rect) -> f64 {
    let (c1, c2) = (r1.corners(), r2.corners());
    let d2 = c1.map(|p| c2.map(|q| p.dist2(q)));
    let mut best = f64::INFINITY;
    // Side `i` joins corners `i` and `i + 1`; the maximum distance between
    // two sides is their farthest endpoint pair.
    for i in 0..4 {
        let i1 = (i + 1) % 4;
        for j in 0..4 {
            let j1 = (j + 1) % 4;
            let far = d2[i][j].max(d2[i][j1]).max(d2[i1][j]).max(d2[i1][j1]);
            best = best.min(far);
        }
    }
    best.sqrt()
}

/// The 1-object upper bound: uses the actual boundary of one object, `A`,
/// against the MBR `r2` of the other. The Lipschitz cap can exceed the
/// 0-object bound on skewed sides, so the pair's 0-object bound `ub0` —
/// which the caller has already computed, the 1-object filter only runs
/// where the 0-object one failed — is applied as a floor.
///
/// `a_edges` may be any *subset* of `A`'s boundary: distances to a subset
/// only grow, and the bound stays valid (just weaker). The engine exploits
/// this by sampling a few dozen edges of huge polygons — an unsampled
/// 39k-vertex boundary would make the filter cost more than the geometry
/// comparison it exists to avoid. The edges are consumed in one pass that
/// measures all four corners of `r2`, each of which ends two sides.
pub fn one_object_upper_bound(
    a_edges: impl IntoIterator<Item = Segment>,
    r2: &Rect,
    ub0: f64,
) -> f64 {
    let corners = r2.corners();
    let mut dist = [f64::INFINITY; 4];
    for e in a_edges {
        for (best, &q) in dist.iter_mut().zip(&corners) {
            *best = best.min(e.dist_point(q));
        }
    }
    let mut best = ub0;
    for i in 0..4 {
        let i1 = (i + 1) % 4;
        let side = (dist[i] + dist[i1] + corners[i].dist(corners[i1])) / 2.0;
        best = best.min(side);
    }
    best
}

/// Edges [`one_object_within`] measures between two looks at its side terms.
pub const CONFIRM_EVERY: usize = 8;

/// Whether the 1-object bound confirms `d`: exactly
/// `one_object_upper_bound(a_edges, r2, ub0) <= d` for every `ub0 > d` —
/// the question the filter stage asks once the 0-object bound has failed
/// — answered with no more of the boundary than the answer needs.
///
/// * The per-corner minima are kept squared and rooted once per look
///   (bit-identical: `sqrt` is correctly rounded, hence monotone, so
///   `√min(a, b) = min(√a, √b)` as `f64` values).
/// * A side whose half-length exceeds `d` is never asked about: its term
///   `(d1 + d2 + len) / 2` is at least `len / 2`, because `d1, d2 ≥ 0` and
///   rounded addition and halving are monotone. Only the corners of the
///   sides left are measured, and with no side left the answer is `false`
///   before the first edge.
/// * The side terms only fall as edges are added, so a look that finds one
///   `≤ d` — after every [`CONFIRM_EVERY`] edges, and after the last —
///   is the final answer.
///
/// Past ≈ 1.34e154 a squared corner distance overflows and reads `∞`
/// here where the rooted form is finite: that can only withhold a
/// confirm, never make one.
pub fn one_object_within(a_edges: impl IntoIterator<Item = Segment>, r2: &Rect, d: f64) -> bool {
    let corners = r2.corners();
    // Side `i` joins corners `i` and `i + 1`.
    let len: [f64; 4] = std::array::from_fn(|i| corners[i].dist(corners[(i + 1) % 4]));
    let pruned: [bool; 4] = std::array::from_fn(|i| len[i] / 2.0 > d);
    if pruned == [true; 4] {
        return false;
    }
    // Corner `c` ends sides `c - 1` and `c`.
    let measured: [bool; 4] = std::array::from_fn(|c| !pruned[c] || !pruned[(c + 3) % 4]);
    let confirms = |dist2: &[f64; 4]| {
        (0..4).any(|i| {
            let i1 = (i + 1) % 4;
            !pruned[i] && (dist2[i].sqrt() + dist2[i1].sqrt() + len[i]) / 2.0 <= d
        })
    };
    let mut dist2 = [f64::INFINITY; 4];
    let mut edges = a_edges.into_iter();
    loop {
        let mut seen = 0;
        for e in edges.by_ref().take(CONFIRM_EVERY) {
            for c in 0..4 {
                if measured[c] {
                    dist2[c] = dist2[c].min(e.dist2_point(corners[c]));
                }
            }
            seen += 1;
        }
        if confirms(&dist2) {
            return true;
        }
        if seen < CONFIRM_EVERY {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_geom::{min_dist_brute, Point, Polygon};

    fn square(x: f64, y: f64, s: f64) -> Polygon {
        Polygon::from_coords(&[(x, y), (x + s, y), (x + s, y + s), (x, y + s)])
    }

    /// The bounds in their textbook form, kept as oracles: a root per
    /// endpoint pair of every side pair (64), and two boundary scans per
    /// side of `r2` (eight) under a 0-object bound computed from scratch.
    mod reference {
        use super::*;
        use spatial_geom::distance::point_boundary_min_dist;

        /// `distance` over the four endpoint pairs of two sides.
        fn seg_max_dist(
            a: (Point, Point),
            b: (Point, Point),
            distance: fn(Point, Point) -> f64,
        ) -> f64 {
            distance(a.0, b.0)
                .max(distance(a.0, b.1))
                .max(distance(a.1, b.0))
                .max(distance(a.1, b.1))
        }

        /// The 0-object bound with a `√(dx² + dy²)` per endpoint pair —
        /// `∞` where the square overflows, as the bound may stay.
        pub fn zero_object_upper_bound(r1: &Rect, r2: &Rect) -> f64 {
            zero_object_with(r1, r2, |p, q| p.dist2(q).sqrt())
        }

        /// ...and with [`Point::dist`], finite past the overflow line.
        pub fn zero_object_finite(r1: &Rect, r2: &Rect) -> f64 {
            zero_object_with(r1, r2, Point::dist)
        }

        fn zero_object_with(r1: &Rect, r2: &Rect, distance: fn(Point, Point) -> f64) -> f64 {
            let mut best = f64::INFINITY;
            for s1 in r1.sides() {
                for s2 in r2.sides() {
                    best = best.min(seg_max_dist(s1, s2, distance));
                }
            }
            best
        }

        pub fn one_object_upper_bound(a: &Polygon, a_edges: &[Segment], r2: &Rect) -> f64 {
            let mut best = zero_object_upper_bound(&a.mbr(), r2);
            for (q1, q2) in r2.sides() {
                let d1 = point_boundary_min_dist(q1, a_edges);
                let d2 = point_boundary_min_dist(q2, a_edges);
                let side = (d1 + d2 + q1.dist(q2)) / 2.0;
                best = best.min(side);
            }
            best
        }
    }

    /// The 1-object bound of `a` against `r2`, from all of `a`'s edges.
    fn one_object(a: &Polygon, r2: &Rect) -> f64 {
        one_object_upper_bound(a.edges(), r2, zero_object_upper_bound(&a.mbr(), r2))
    }

    /// The 90-rect battery: every x-range over coordinates whose squares
    /// round (thirds, 1e-7 offsets) or overflow (±1e154 apart), each with
    /// two y-ranges, one of them flat.
    fn rect_battery() -> Vec<Rect> {
        let coords = [
            -1e154,
            -7.0,
            -1.0 / 3.0,
            0.0,
            1e-7,
            0.1,
            2.0 / 3.0,
            5.0,
            1e154,
        ];
        let mut rects = Vec::new();
        for (i, &x0) in coords.iter().enumerate() {
            for &x1 in &coords[i..] {
                rects.push(Rect::new(x0, -0.3, x1, 0.7));
                rects.push(Rect::new(x0, x0 / 3.0, x1, x0 / 3.0));
            }
        }
        rects
    }

    fn battery_shapes() -> [Polygon; 3] {
        [
            square(0.0, 0.0, 2.0),
            Polygon::from_coords(&[(0.1, 0.0), (10.0, 1.0 / 3.0), (0.1, 0.1), (0.0, 10.0)]),
            Polygon::from_coords(&[(-3.0, 1e-7), (2.0 / 3.0, -5.0), (4.0, 0.1), (0.3, 7.0)]),
        ]
    }

    /// Squared distances and one root, one scan for four corners: the same
    /// `f64` bits as the reference on coordinates where sums of squares
    /// round or overflow to infinity, on degenerate MBRs, and at every
    /// relative placement. Where a square overflows the 0-object bound
    /// reads `∞`, at or above the finite textbook value: conservative.
    #[test]
    fn bounds_are_bit_identical_to_the_reference() {
        let rects = rect_battery();
        assert_eq!(rects.len(), 90);
        for r1 in &rects {
            for r2 in &rects {
                let ub0 = zero_object_upper_bound(r1, r2);
                assert_eq!(
                    ub0.to_bits(),
                    reference::zero_object_upper_bound(r1, r2).to_bits(),
                    "{r1:?} vs {r2:?}"
                );
                assert!(ub0 >= reference::zero_object_finite(r1, r2));
            }
        }
        for a in &battery_shapes() {
            let edges: Vec<Segment> = a.edges().collect();
            for r2 in rects.iter().filter(|r| r.xmin > -1e100 && r.xmax < 1e100) {
                assert_eq!(
                    one_object(a, r2).to_bits(),
                    reference::one_object_upper_bound(a, &edges, r2).to_bits(),
                    "{a:?} vs {r2:?}"
                );
                // ...and on a strided boundary subset, as the engine samples.
                let sample: Vec<Segment> = edges.iter().copied().step_by(2).collect();
                let ub0 = zero_object_upper_bound(&a.mbr(), r2);
                assert_eq!(
                    one_object_upper_bound(sample.iter().copied(), r2, ub0).to_bits(),
                    reference::one_object_upper_bound(a, &sample, r2).to_bits(),
                );
            }
        }
    }

    /// The distances at which `one_object_within(sample, r2, d)` can flip:
    /// each side term of the whole sample and of every prefix a look sees,
    /// exactly and one ulp either side; each half side length; 0, ∞, NaN.
    fn deciding_distances(sample: &[Segment], r2: &Rect) -> Vec<f64> {
        let c = r2.corners();
        let mut ds = vec![0.0, f64::INFINITY, f64::NAN];
        let looks = (CONFIRM_EVERY..sample.len()).step_by(CONFIRM_EVERY);
        for k in looks.chain([sample.len()]) {
            let dist = c.map(|q| {
                sample[..k]
                    .iter()
                    .map(|e| e.dist_point(q))
                    .fold(f64::INFINITY, f64::min)
            });
            for i in 0..4 {
                let len = c[i].dist(c[(i + 1) % 4]);
                let term = (dist[i] + dist[(i + 1) % 4] + len) / 2.0;
                ds.extend([term, term.next_up(), term.next_down(), len / 2.0]);
            }
        }
        ds
    }

    /// What the 1-object checks saw: answers each way, calls the side
    /// prune settled before the first edge, calls a look confirmed before
    /// the last edge.
    #[derive(Default, Debug)]
    struct Seen {
        within: usize,
        not_within: usize,
        unscanned: usize,
        early: usize,
    }

    impl Seen {
        /// `one_object_within(sample, r2, d)` against the oracle at `d` for
        /// `ub0` one ulp above `d`, at `∞` and at the pair's own 0-object
        /// bound `ub0_pair` when it exceeds `d`.
        fn check(&mut self, sample: &[Segment], r2: &Rect, d: f64, ub0_pair: f64) {
            let got = one_object_within(sample.iter().copied(), r2, d);
            let mut ub0s = vec![f64::INFINITY, d.next_up()];
            if ub0_pair > d {
                ub0s.push(ub0_pair);
            }
            // No `ub0` exceeds `d = ∞` or NaN; there any `ub0` will do.
            let unbounded = d.is_nan() || d == f64::INFINITY;
            for ub0 in ub0s.into_iter().filter(|&ub0| ub0 > d || unbounded) {
                let bound = one_object_upper_bound(sample.iter().copied(), r2, ub0);
                assert_eq!(got, bound <= d, "d = {d}, ub0 = {ub0}, {r2:?}, {sample:?}");
            }
            let c = r2.corners();
            if (0..4).all(|i| c[i].dist(c[(i + 1) % 4]) / 2.0 > d) {
                self.unscanned += 1;
            }
            let prefix = sample.len().saturating_sub(1);
            if got
                && one_object_upper_bound(sample[..prefix].iter().copied(), r2, f64::INFINITY) <= d
            {
                self.early += 1;
            }
            *if got {
                &mut self.within
            } else {
                &mut self.not_within
            } += 1;
        }
    }

    /// A ring of `n` vertices around `(1, 2)` whose radius cycles through
    /// three values: enough edges for several looks of [`one_object_within`].
    fn cog(n: usize) -> Polygon {
        let ring: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let (r, a) = (
                    1.0 + (i % 3) as f64 / 3.0,
                    i as f64 * std::f64::consts::TAU / n as f64,
                );
                (1.0 + r * a.cos(), 2.0 + r * a.sin())
            })
            .collect();
        Polygon::from_coords(&ring)
    }

    /// `one_object_within(s, r2, d) == (one_object_upper_bound(s, r2, ub0)
    /// <= d)` for every `ub0 > d`, on the 90-rect battery against the
    /// battery shapes and a 37-vertex cog (whole and strided, as the engine
    /// samples), at every distance where the answer can flip.
    #[test]
    fn one_object_within_answers_the_bound_at_every_deciding_distance() {
        let mut seen = Seen::default();
        let shapes: Vec<Polygon> = battery_shapes().into_iter().chain([cog(37)]).collect();
        for a in &shapes {
            let edges: Vec<Segment> = a.edges().collect();
            for r2 in &rect_battery() {
                let ub0_pair = zero_object_upper_bound(&a.mbr(), r2);
                for step in [1, 2] {
                    let sample: Vec<Segment> = edges.iter().copied().step_by(step).collect();
                    for d in deciding_distances(&sample, r2) {
                        seen.check(&sample, r2, d, ub0_pair);
                    }
                }
            }
        }
        assert!(
            seen.within > 1000
                && seen.not_within > 1000
                && seen.unscanned > 100
                && seen.early > 100,
            "{seen:?}"
        );
    }

    proptest::proptest! {
        /// ...and on random MBRs against random rings sampled at a random
        /// stride.
        #[test]
        fn one_object_within_answers_the_bound_on_random_rings(
            (x2, y2, w2, h2) in (-100.0f64..100.0, -100.0f64..100.0, 0.0f64..50.0, 0.0f64..50.0),
            ring in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..40),
            step in 1usize..5,
        ) {
            let r2 = Rect::new(x2, y2, x2 + w2, y2 + h2);
            let a = Polygon::from_coords(&ring);
            let sample: Vec<Segment> = a.edges().step_by(step).collect();
            let ub0_pair = zero_object_upper_bound(&a.mbr(), &r2);
            for d in deciding_distances(&sample, &r2) {
                Seen::default().check(&sample, &r2, d, ub0_pair);
            }
        }
    }

    proptest::proptest! {
        /// The same bit-identity on continuous coordinates: random MBR
        /// pairs, and random vertex rings (any ring is a valid edge set)
        /// sampled at a random stride.
        #[test]
        fn bounds_match_the_reference_bit_for_bit(
            (x1, y1, w1, h1) in (-100.0f64..100.0, -100.0f64..100.0, 0.0f64..50.0, 0.0f64..50.0),
            (x2, y2, w2, h2) in (-100.0f64..100.0, -100.0f64..100.0, 0.0f64..50.0, 0.0f64..50.0),
            ring in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 3..40),
            step in 1usize..5,
        ) {
            let r1 = Rect::new(x1, y1, x1 + w1, y1 + h1);
            let r2 = Rect::new(x2, y2, x2 + w2, y2 + h2);
            proptest::prop_assert_eq!(
                zero_object_upper_bound(&r1, &r2).to_bits(),
                reference::zero_object_upper_bound(&r1, &r2).to_bits()
            );
            let a = Polygon::from_coords(&ring);
            let sample: Vec<Segment> = a.edges().step_by(step).collect();
            let ub0 = zero_object_upper_bound(&a.mbr(), &r2);
            proptest::prop_assert_eq!(
                one_object_upper_bound(sample.iter().copied(), &r2, ub0).to_bits(),
                reference::one_object_upper_bound(&a, &sample, &r2).to_bits()
            );
        }
    }

    #[test]
    fn zero_object_on_aligned_squares() {
        // Unit squares 3 apart in x: facing sides are (1,0)-(1,1) and
        // (4,0)-(4,1); their max endpoint distance is sqrt(9 + 1).
        let r1 = Rect::new(0.0, 0.0, 1.0, 1.0);
        let r2 = Rect::new(4.0, 0.0, 5.0, 1.0);
        let ub = zero_object_upper_bound(&r1, &r2);
        assert!((ub - 10.0f64.sqrt()).abs() < 1e-12, "got {ub}");
    }

    #[test]
    fn zero_object_is_an_upper_bound() {
        let a = square(0.0, 0.0, 2.0);
        let b = square(5.0, 1.0, 3.0);
        let ub = zero_object_upper_bound(&a.mbr(), &b.mbr());
        assert!(ub >= min_dist_brute(&a, &b));
    }

    #[test]
    fn one_object_tightens_zero_object() {
        // A spiky polygon whose MBR is mostly empty: the 1-object bound
        // (which sees the actual boundary) must be no worse.
        let spiky = Polygon::from_coords(&[
            (0.0, 0.0),
            (10.0, 0.0),
            (0.1, 0.1), // deep concavity: MBR is mostly empty space
            (0.0, 10.0),
        ]);
        let other = square(20.0, 0.0, 2.0);
        let ub0 = zero_object_upper_bound(&spiky.mbr(), &other.mbr());
        let ub1 = one_object(&spiky, &other.mbr());
        assert!(ub1 <= ub0, "1-object {ub1} must not exceed 0-object {ub0}");
        assert!(
            ub1 >= min_dist_brute(&spiky, &other),
            "still an upper bound"
        );
    }

    #[test]
    fn bounds_confirm_touching_squares() {
        // Two adjacent unit squares: distance 0; both bounds stay small
        // enough to confirm reasonable query distances.
        let a = square(0.0, 0.0, 1.0);
        let b = square(1.0, 0.0, 1.0);
        let ub0 = zero_object_upper_bound(&a.mbr(), &b.mbr());
        // Shared side: maxDist of the coincident sides is the side length.
        assert!(ub0 <= 2.0f64.sqrt() + 1e-12);
        let ub1 = one_object(&a, &b.mbr());
        assert!(ub1 <= ub0);
        assert!(ub1 >= 0.0);
    }

    #[test]
    fn upper_bounds_on_battery_of_pairs() {
        // Deterministic battery: bounds must always dominate the true
        // distance.
        let shapes: Vec<Polygon> = (0..6)
            .map(|i| {
                let x = i as f64 * 4.0;
                Polygon::from_coords(&[
                    (x, 0.0),
                    (x + 2.0, 0.5),
                    (x + 3.0, 2.5),
                    (x + 1.0, 3.0),
                    (x + 0.2, 1.5),
                ])
            })
            .collect();
        for i in 0..shapes.len() {
            for j in (i + 1)..shapes.len() {
                let (a, b) = (&shapes[i], &shapes[j]);
                let true_d = min_dist_brute(a, b);
                let ub0 = zero_object_upper_bound(&a.mbr(), &b.mbr());
                let ub1 = one_object(a, &b.mbr());
                assert!(ub0 + 1e-9 >= true_d, "0-object violated: {ub0} < {true_d}");
                assert!(ub1 + 1e-9 >= true_d, "1-object violated: {ub1} < {true_d}");
                assert!(ub1 <= ub0 + 1e-9, "1-object must cap at 0-object");
            }
        }
    }
}
