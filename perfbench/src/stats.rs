//! Order statistics with the sample-support rule: a percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank (1-based) of the `permille`/1000 quantile among `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank quantile of ascending `sorted` samples (`NaN` when empty).
pub fn percentile(sorted: &[f64], permille: usize) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[rank(n, permille) - 1],
    }
}

/// Samples strictly beyond the nearest-rank quantile.
pub fn samples_beyond(n: usize, permille: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, permille)
}

/// Whether `n` samples support reporting the `permille` quantile.
pub fn supported(n: usize, permille: usize) -> bool {
    samples_beyond(n, permille) >= MIN_BEYOND
}

/// Median of `values` (mean of the middle pair for even counts; `NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supported(999, 990));
        assert_eq!(samples_beyond(999, 990), 9);
        assert!(supported(1000, 990));
        assert_eq!(samples_beyond(1000, 990), 10);
    }

    #[test]
    fn p90_needs_a_hundred_samples_and_p50_twenty() {
        assert!(!supported(99, 900));
        assert!(supported(100, 900));
        assert!(!supported(19, 500));
        assert!(supported(20, 500));
        assert!(!supported(0, 500));
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 500), 50.0);
        assert_eq!(percentile(&sorted, 900), 90.0);
        assert_eq!(percentile(&sorted, 990), 99.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
        assert!(percentile(&[], 500).is_nan());
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
