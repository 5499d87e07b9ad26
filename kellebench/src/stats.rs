//! Order statistics for the benchmark's reported numbers.

/// Samples that must lie beyond the reported tail percentile, so that the
/// tail is never a single outlier.
pub const TAIL_BEYOND: usize = 10;

/// A latency distribution summarised as its median and its tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Nearest-rank median.
    pub p50: f64,
    /// Value at the tail percentile (see [`tail_rank`]).
    pub tail: f64,
    /// The tail percentile, in percent.
    pub tail_pct: f64,
    /// Number of samples summarised.
    pub n: usize,
}

/// Nearest-rank percentile `pct` (in percent) of `sorted`, which must be in
/// ascending order and non-empty.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One-based rank of the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples above it, and that percentile in percent.  With
/// too few samples for any such rank the tail is the maximum (100 %).
pub fn tail_rank(n: usize) -> (usize, f64) {
    assert!(n > 0, "tail of an empty sample");
    if n <= TAIL_BEYOND {
        return (n, 100.0);
    }
    let rank = n - TAIL_BEYOND;
    (rank, 100.0 * rank as f64 / n as f64)
}

/// Median and tail of `samples` (any order, non-empty).
pub fn summarize(mut samples: Vec<f64>) -> Summary {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let (rank, tail_pct) = tail_rank(n);
    Summary {
        p50: percentile(&samples, 50.0),
        tail: samples[rank - 1],
        tail_pct,
        n,
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in 11..500 {
            let (rank, pct) = tail_rank(n);
            assert_eq!(n - rank, TAIL_BEYOND, "n = {n}");
            // No higher rank keeps ten samples beyond it.
            assert!(n - (rank + 1) < TAIL_BEYOND);
            assert!((pct - 100.0 * rank as f64 / n as f64).abs() < 1e-12);
        }
        assert_eq!(tail_rank(60), (50, 100.0 * 50.0 / 60.0));
        assert_eq!(tail_rank(1000).1, 99.0);
    }

    #[test]
    fn tiny_samples_fall_back_to_the_maximum() {
        assert_eq!(tail_rank(1), (1, 100.0));
        assert_eq!(tail_rank(10), (10, 100.0));
        let summary = summarize(vec![3.0, 1.0, 2.0]);
        assert_eq!(summary.tail, 3.0);
        assert_eq!(summary.tail_pct, 100.0);
    }

    #[test]
    fn summary_reads_the_tail_rank_of_the_sorted_sample() {
        // 1..=100 shuffled: the tail is the 90th smallest value.
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let summary = summarize(samples);
        assert_eq!(summary.n, 100);
        assert_eq!(summary.p50, 50.0);
        assert_eq!(summary.tail, 90.0);
        assert_eq!(summary.tail_pct, 90.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }
}
