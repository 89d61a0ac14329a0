//! The arithmetic behind every reported number: nearest-rank percentiles,
//! min-over-rounds, medians and the quartile spread the A/A check uses.

/// Nearest-rank percentile of `sorted` (ascending): the smallest value
/// with at least `q` of the samples at or below it. Panics on an empty
/// slice — every workload has ≥ 1 op.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the even-length midpoint (what `statistics.median` gives),
/// used for across-run summaries where the sample is small.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Keeps, per op, the minimum of the samples seen across rounds.
///
/// Interference on a shared sandbox is additive and the op is
/// deterministic, so the minimum over rounds is the best estimate of the
/// op's own cost; percentiles are then taken across *ops*.
#[derive(Debug, Clone)]
pub struct MinOverRounds {
    min: Vec<u64>,
}

impl MinOverRounds {
    pub fn new(ops: usize) -> Self {
        MinOverRounds {
            min: vec![u64::MAX; ops],
        }
    }

    pub fn record(&mut self, op: usize, ns: u64) {
        let slot = &mut self.min[op];
        *slot = (*slot).min(ns);
    }

    /// Per-op minima in milliseconds, in op order.
    pub fn millis(&self) -> Vec<f64> {
        self.min.iter().map(|&ns| ns as f64 / 1e6).collect()
    }
}

/// First and third quartile by the "exclusive" method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so the A/A table reads the
/// same as the acceptance check.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let at = |k: usize| {
        // position k*(n+1)/4, 1-based, linearly interpolated, clamped.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.99), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // 248 ops: p90 is the 224th value, leaving 24 samples beyond it.
        let s: Vec<f64> = (1..=248).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.9), 224.0);
    }

    #[test]
    fn min_over_rounds_keeps_the_smallest_sample_per_op() {
        let mut m = MinOverRounds::new(3);
        for (op, ns) in [(0, 5_000_000), (1, 9_000_000), (2, 1_000_000)] {
            m.record(op, ns);
        }
        for (op, ns) in [(0, 4_000_000), (1, 12_000_000), (2, 1_500_000)] {
            m.record(op, ns);
        }
        assert_eq!(m.millis(), vec![4.0, 9.0, 1.0]);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
    }
}
