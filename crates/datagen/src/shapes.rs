//! Polygon shape generators — all constructions are *simple by
//! construction* (the paper's algorithms assume simple polygons; its
//! datasets contain a handful of non-simple ones which its loaders would
//! reject, ours generates none).

use rand::Rng;
use spatial_geom::{Point, Polygon};

/// A star-shaped polygon around `center`: one vertex per angular step, with
/// the radius modulated by a few random low-frequency harmonics (lobes), a
/// high-frequency harmonic (dendritic tendrils) and per-vertex jitter.
/// Star-shapedness (every radius positive) guarantees simplicity;
/// the tendrils make high-vertex polygons *space-filling* like real
/// land-cover boundaries (Fig. 1) — their edges permeate the whole MBR, so
/// other objects' candidate regions contain many of them. Without this,
/// refinement cost collapses onto a thin rim and the paper's workload
/// regime (expensive near-miss negatives) disappears.
///
/// * `mean_radius` — average distance from center to boundary;
/// * `n` — exact vertex count (≥ 3);
/// * `roughness` — total low-frequency amplitude in `[0, 0.85]`: 0 is a
///   regular `n`-gon, 0.8 produces deep lobes;
/// * `detail` — amplitude of the high-frequency tendril harmonic;
///   `roughness + detail` must stay ≤ 0.9;
/// * `aspect` — x-axis stretch (> 1 elongates; hydrography features use
///   4–8);
/// * `rotation` — orientation of the stretch axis, radians.
#[allow(clippy::too_many_arguments)]
pub fn harmonic_star(
    center: Point,
    mean_radius: f64,
    n: usize,
    roughness: f64,
    detail: f64,
    aspect: f64,
    rotation: f64,
    rng: &mut impl Rng,
) -> Polygon {
    assert!(n >= 3);
    assert!(
        (0.0..=0.85).contains(&roughness),
        "roughness {roughness} out of range"
    );
    assert!(
        detail >= 0.0 && roughness + detail <= 0.9,
        "amplitude budget exceeded"
    );
    assert!(mean_radius > 0.0 && aspect > 0.0);

    // Random harmonics k = 2..=7 with amplitudes summing to `roughness`.
    const HARMONICS: usize = 6;
    let mut amps = [0.0f64; HARMONICS];
    let mut phases = [0.0f64; HARMONICS];
    let mut total = 0.0;
    for a in amps.iter_mut() {
        *a = rng.gen_range(0.1..1.0);
        total += *a;
    }
    for (a, p) in amps.iter_mut().zip(phases.iter_mut()) {
        *a *= roughness / total;
        *p = rng.gen_range(0.0..std::f64::consts::TAU);
    }
    // Tendril harmonic: frequency grows with the vertex count (a polygon
    // digitized with 4,000 vertices carries real structure at that scale),
    // capped so each tendril keeps ≥ ~6 vertices and stays well-shaped.
    let detail_freq = ((n / 12).max(4) as f64).min(240.0);
    let detail_phase = rng.gen_range(0.0..std::f64::consts::TAU);
    // Per-vertex jitter budget: whatever amplitude is left below 0.95.
    let jitter = ((0.95 - roughness - detail) * 0.3).max(0.0);

    let (sin_r, cos_r) = rotation.sin_cos();
    let vertices: Vec<Point> = (0..n)
        .map(|i| {
            let theta = i as f64 * std::f64::consts::TAU / n as f64;
            let mut f = 1.0;
            for (k, (&a, &p)) in amps.iter().zip(phases.iter()).enumerate() {
                f += a * ((k as f64 + 2.0) * theta + p).sin();
            }
            f += detail * (detail_freq * theta + detail_phase).sin();
            f += rng.gen_range(-jitter..=jitter);
            let r = mean_radius * f.max(0.05);
            let (x, y) = (r * theta.cos() * aspect, r * theta.sin());
            // Rotate the stretched shape, then translate.
            Point::new(
                center.x + x * cos_r - y * sin_r,
                center.y + x * sin_r + y * cos_r,
            )
        })
        .collect();
    Polygon::new(vertices).expect("star polygons are structurally valid")
}

/// A horizontal band spanning `[x0, x1]` with *smoothly undulating* top
/// and bottom chains — the precipitation-isohyet shape of the PRISM
/// stand-in. `n` vertices total, amplitude clamped so the chains never
/// touch; x-monotone chains in disjoint y-ranges make the polygon simple
/// by construction.
///
/// The undulation is low-frequency (a couple of sine waves plus mild
/// noise), not per-vertex white noise: an isohyet sweeps up and down at
/// geographic scale while staying locally straight. That distinction
/// drives the join workload — the wide envelope makes many neighbours'
/// MBRs overlap a band, while the locally-straight line leaves most of
/// them clean non-intersections that a fine-enough window can reject.
pub(crate) fn band(
    x0: f64,
    x1: f64,
    y_bottom: f64,
    y_top: f64,
    n: usize,
    amplitude: f64,
    rng: &mut impl Rng,
) -> Polygon {
    assert!(n >= 4, "a band needs at least 4 vertices");
    assert!(x1 > x0 && y_top > y_bottom);
    // Keep the chains strictly separated.
    let amp = amplitude.min((y_top - y_bottom) * 0.45);
    let n_bot = n / 2;
    let n_top = n - n_bot;

    // Independent undulations per chain: two harmonics + 10% noise.
    let mut chain_params = || {
        (
            rng.gen_range(1.0..3.5),
            rng.gen_range(0.0..std::f64::consts::TAU),
            rng.gen_range(5.0..11.0),
            rng.gen_range(0.0..std::f64::consts::TAU),
        )
    };
    let (bf1, bp1, bf2, bp2) = chain_params();
    let (tf1, tp1, tf2, tp2) = chain_params();
    let tau = std::f64::consts::TAU;

    let mut vertices: Vec<Point> = Vec::with_capacity(n);
    // Bottom chain, left → right.
    for i in 0..n_bot {
        let t = i as f64 / (n_bot - 1).max(1) as f64;
        let x = x0 + t * (x1 - x0);
        let wave = 0.65 * (bf1 * tau * t + bp1).sin() + 0.25 * (bf2 * tau * t + bp2).sin();
        let y = y_bottom + amp * wave + rng.gen_range(-0.1..=0.1) * amp;
        vertices.push(Point::new(x, y));
    }
    // Top chain, right → left.
    for i in 0..n_top {
        let t = i as f64 / (n_top - 1).max(1) as f64;
        let x = x1 - t * (x1 - x0);
        let wave = 0.65 * (tf1 * tau * t + tp1).sin() + 0.25 * (tf2 * tau * t + tp2).sin();
        let y = y_top + amp * wave + rng.gen_range(-0.1..=0.1) * amp;
        vertices.push(Point::new(x, y));
    }
    // Strictly monotone x within each chain is guaranteed by the even
    // spacing; consecutive duplicates are impossible because x differs
    // (and at the chain joints x0 != x1).
    Polygon::new(vertices).expect("bands are structurally valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn star_has_exact_vertex_count_and_is_simple() {
        let mut rng = StdRng::seed_from_u64(3);
        for &n in &[3usize, 5, 50, 500] {
            let p = harmonic_star(Point::new(10.0, 20.0), 5.0, n, 0.6, 0.2, 1.0, 0.0, &mut rng);
            assert_eq!(p.vertex_count(), n);
            assert!(p.is_simple(), "n = {n}");
        }
    }

    #[test]
    fn star_large_vertex_counts_stay_simple() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = harmonic_star(Point::ORIGIN, 100.0, 20_000, 0.6, 0.3, 1.0, 0.3, &mut rng);
        assert_eq!(p.vertex_count(), 20_000);
        assert!(p.is_simple());
    }

    #[test]
    fn star_roughness_zero_is_near_regular() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = harmonic_star(Point::ORIGIN, 10.0, 64, 0.0, 0.0, 1.0, 0.0, &mut rng);
        for v in p.vertices() {
            let r = v.norm();
            assert!((r - 10.0).abs() < 3.5, "radius {r} too far from 10");
        }
    }

    #[test]
    fn star_contains_its_center() {
        let mut rng = StdRng::seed_from_u64(6);
        for seed in 0..20 {
            let mut r2 = StdRng::seed_from_u64(seed);
            let c = Point::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
            let p = harmonic_star(c, 8.0, 24, 0.7, 0.1, 2.0, 1.0, &mut r2);
            assert!(spatial_geom::point_in_polygon(c, &p));
        }
    }

    #[test]
    fn elongation_stretches_mbr() {
        let mut rng = StdRng::seed_from_u64(7);
        let round = harmonic_star(Point::ORIGIN, 10.0, 64, 0.2, 0.1, 1.0, 0.0, &mut rng);
        let mut rng = StdRng::seed_from_u64(7);
        let long = harmonic_star(Point::ORIGIN, 10.0, 64, 0.2, 0.1, 6.0, 0.0, &mut rng);
        assert!(long.mbr().width() > 3.0 * round.mbr().width());
        assert!(long.is_simple());
    }

    #[test]
    fn band_is_simple_and_spans() {
        let mut rng = StdRng::seed_from_u64(8);
        for &n in &[4usize, 7, 100, 2001] {
            let b = band(0.0, 1000.0, 10.0, 30.0, n, 8.0, &mut rng);
            assert_eq!(b.vertex_count(), n);
            assert!(b.is_simple(), "n = {n}");
            let m = b.mbr();
            assert!(m.xmin <= 0.0 + 1e-9 && m.xmax >= 1000.0 - 1e-9);
            assert!(m.ymin < 30.0 && m.ymax > 10.0);
        }
    }

    #[test]
    fn band_amplitude_is_clamped() {
        let mut rng = StdRng::seed_from_u64(9);
        // Requested amplitude exceeds the gap; the clamp keeps the chains
        // separated so the polygon stays simple.
        let b = band(0.0, 100.0, 0.0, 4.0, 200, 50.0, &mut rng);
        assert!(b.is_simple());
        assert!(b.area() > 0.0);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = harmonic_star(
            Point::ORIGIN,
            5.0,
            40,
            0.5,
            0.2,
            1.0,
            0.0,
            &mut StdRng::seed_from_u64(11),
        );
        let b = harmonic_star(
            Point::ORIGIN,
            5.0,
            40,
            0.5,
            0.2,
            1.0,
            0.0,
            &mut StdRng::seed_from_u64(11),
        );
        assert_eq!(a, b);
    }
}
