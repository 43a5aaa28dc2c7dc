//! Order statistics for the report: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` computes them (the driver's own
//! acceptance check uses that function), and the tail-percentile rule of the
//! metrics guide.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest value; `NaN` for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .unwrap_or(f64::NAN)
}

/// Largest value; `NaN` for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .max_by(f64::total_cmp)
        .unwrap_or(f64::NAN)
}

/// `(q1, q2, q3)` by the exclusive method (`statistics.quantiles` default).
/// Fewer than two values have no spread: all three are the lone value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// driver compares against a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 || !q2.is_finite() {
        return 0.0;
    }
    (q3 - q1) / q2.abs()
}

/// Nearest-rank percentile of `values` (`p` in `0..=100`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it, or `None` when even p90 does not (fewer than 100
/// samples): a tail read off fewer points is one outlier's value.
pub fn reportable_tail(samples: usize) -> Option<f64> {
    // (percentile, one sample in how many lies beyond it)
    [(99.9, 1_000), (99.0, 100), (95.0, 20), (90.0, 10)]
        .into_iter()
        .find(|&(_, one_in)| samples / one_in >= 10)
        .map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(min(&[3.0, 1.0, 2.0]), 1.0);
        assert!(min(&[]).is_nan());
        assert_eq!(max(&[3.0, 1.0, 2.0]), 3.0);
        assert!(max(&[]).is_nan());
    }

    /// Values checked against CPython 3.11:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` is
    /// `[2.75, 5.5, 8.25]`, and for `[10, 20, 40, 80, 160]` it is
    /// `[15.0, 40.0, 120.0]`; two values `[1, 3]` give `[0.5, 2.0, 3.5]`.
    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            (15.0, 40.0, 120.0)
        );
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(relative_spread(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[4.0], 99.9), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(reportable_tail(99), None);
        assert_eq!(reportable_tail(100), Some(90.0));
        assert_eq!(reportable_tail(199), Some(90.0));
        assert_eq!(reportable_tail(200), Some(95.0));
        assert_eq!(reportable_tail(1_000), Some(99.0));
        assert_eq!(reportable_tail(9_999), Some(99.0));
        assert_eq!(reportable_tail(10_000), Some(99.9));
    }
}
