//! Vertex-count sampling calibrated to Table 2's min / avg / max columns.
//!
//! Digitized GIS vertex counts are approximately **log-normal**: most
//! objects are simple, but a substantial sub-population carries thousands
//! of vertices (LANDO: average 20, maximum 8,807 — a tail no exponential
//! reproduces). The tail matters beyond the stats table: complex polygons
//! are also *large*, participate in many candidate pairs, and concentrate
//! most of the refinement cost — the regime every figure of §4 lives in.
//!
//! Calibration: `σ` is chosen so that the expected maximum of a
//! paper-sized sample lands on the table's max column
//! (`ln((max−min)/(avg−min)) = zₙσ − σ²/2` with `zₙ ≈ 3.8`, the standard
//! normal quantile for n ≈ 10⁴), then `μ` is tuned numerically so the
//! *clamped* distribution's mean hits the avg column. The first two draws
//! of a dataset are pinned to the extremes so min/max match exactly at any
//! sample size.

use rand::Rng;

/// Standard-normal quantile for the expected maximum of a Table 2-sized
/// sample (n ≈ 6k–34k ⇒ z between 3.5 and 4.0; the mean calibration
/// absorbs the residual).
const Z_MAX: f64 = 3.8;

/// A sampler for per-polygon vertex counts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VertexDist {
    pub min: usize,
    pub avg: usize,
    pub max: usize,
    mu: f64,
    sigma: f64,
}

impl VertexDist {
    /// Creates a calibrated distribution; requires `min <= avg <= max`.
    pub(crate) fn new(min: usize, avg: usize, max: usize) -> Self {
        assert!(min >= 3, "polygons need 3 vertices");
        assert!(min <= avg && avg <= max, "min <= avg <= max violated");
        if avg == min || max == avg {
            return VertexDist {
                min,
                avg,
                max,
                mu: 0.0,
                sigma: 0.0,
            };
        }
        let q = (((max - min) as f64) / ((avg - min) as f64)).ln();
        // Solve z·σ − σ²/2 = q for the smaller root; fall back to the
        // stationary point when q exceeds the attainable range.
        let disc = Z_MAX * Z_MAX - 2.0 * q;
        let sigma = if disc > 0.0 {
            Z_MAX - disc.sqrt()
        } else {
            Z_MAX
        };
        // Initial μ from the unclamped log-normal mean, then correct for
        // the clamp at `max` on a fixed quantile grid (deterministic).
        let target = (avg - min) as f64;
        let cap = (max - min) as f64;
        let mut mu = target.ln() - sigma * sigma / 2.0;
        for _ in 0..40 {
            let mean = clamped_mean(mu, sigma, cap);
            let err = target / mean;
            if (err - 1.0).abs() < 1e-6 {
                break;
            }
            mu += err.ln();
        }
        VertexDist {
            min,
            avg,
            max,
            mu,
            sigma,
        }
    }

    /// One draw: `min + clamp(lognormal(μ, σ), ..max)`.
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> usize {
        if self.sigma == 0.0 {
            return self.avg;
        }
        let z = standard_normal(rng);
        let v = (self.mu + self.sigma * z).exp();
        let v = v.min((self.max - self.min) as f64);
        (self.min as f64 + v).round() as usize
    }

    /// Samples `n` counts with the extremes pinned: the first draw is
    /// `max`, the second `min` (when `n` permits), so a generated dataset's
    /// Table 2 row matches the paper's min/max columns exactly.
    pub(crate) fn sample_n(&self, n: usize, rng: &mut impl Rng) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let v = match i {
                0 if n >= 2 => self.max,
                1 if n >= 3 => self.min,
                _ => self.sample(rng),
            };
            out.push(v);
        }
        out
    }
}

/// E[min(exp(μ + σZ), cap)] on a fixed 4,001-point quantile grid.
fn clamped_mean(mu: f64, sigma: f64, cap: f64) -> f64 {
    let n = 4001;
    let mut sum = 0.0;
    for i in 0..n {
        let u = (i as f64 + 0.5) / n as f64;
        let z = inverse_normal_cdf(u);
        sum += (mu + sigma * z).exp().min(cap);
    }
    sum / n as f64
}

/// Acklam's rational approximation of the standard normal quantile
/// (|relative error| < 1.15e-9 — far below the calibration tolerance).
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

/// Box–Muller from two uniforms (avoids a `rand_distr` dependency).
fn standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    (-2.0 * u1.ln()).sqrt() * u2.cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bounds_are_respected() {
        let d = VertexDist::new(3, 20, 8807);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = d.sample(&mut rng);
            assert!((3..=8807).contains(&v), "{v}");
        }
    }

    #[test]
    fn average_is_close_to_target() {
        // The Table 2 rows, as (min, avg, max).
        for (min, avg, max) in [
            (3usize, 192usize, 4397usize), // LANDC
            (3, 20, 8807),                 // LANDO
            (4, 1380, 10744),              // STATES50 (see datasets.rs note)
            (3, 68, 29556),                // PRISM
            (3, 91, 39360),                // WATER
        ] {
            let d = VertexDist::new(min, avg, max);
            let mut rng = StdRng::seed_from_u64(42);
            let n = 40_000;
            let sum: usize = (0..n).map(|_| d.sample(&mut rng)).sum();
            let got = sum as f64 / n as f64;
            let rel = (got - avg as f64).abs() / avg as f64;
            assert!(
                rel < 0.08,
                "avg {got:.1} deviates {rel:.2} from target {avg} (min {min} max {max})"
            );
        }
    }

    #[test]
    fn tail_is_heavy() {
        // LANDC-like parameters must put a visible share of polygons above
        // 1000 vertices — the population the refinement cost lives in.
        let d = VertexDist::new(3, 192, 4397);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 50_000;
        let big = (0..n).filter(|_| d.sample(&mut rng) > 1000).count();
        let frac = big as f64 / n as f64;
        assert!(frac > 0.005 && frac < 0.2, "tail fraction {frac}");
    }

    #[test]
    fn pinned_extremes() {
        let d = VertexDist::new(3, 50, 900);
        let mut rng = StdRng::seed_from_u64(1);
        let v = d.sample_n(10, &mut rng);
        assert_eq!(v[0], 900);
        assert_eq!(v[1], 3);
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn degenerate_distribution() {
        let d = VertexDist::new(4, 4, 4);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(d.sample(&mut rng), 4);
    }

    #[test]
    fn determinism() {
        let d = VertexDist::new(3, 100, 5000);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(99);
            d.sample_n(100, &mut rng)
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(99);
            d.sample_n(100, &mut rng)
        };
        assert_eq!(a, b);
    }

    #[test]
    fn inverse_cdf_sanity() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!(inverse_normal_cdf(1e-6) < -4.0);
    }

    #[test]
    #[should_panic(expected = "min <= avg <= max")]
    fn invalid_bounds_panic() {
        let _ = VertexDist::new(10, 5, 100);
    }
}
