//! Order statistics used by every metric: nearest-rank percentiles,
//! the tail rule, and the quartiles `compare` reports.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples,
/// `ceil(p·n/100)`, in integer basis points so that 99.9 % of 10 000
/// is exactly rank 9 990.
fn rank(p: f64, n: usize) -> usize {
    let bp = (p * 100.0).round() as usize;
    (bp * n).div_ceil(10_000)
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Percentiles the tail rule chooses from, lowest first.
const TAIL_LADDER: [f64; 9] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_BEYOND`] of `n` samples strictly beyond its nearest rank, or
/// `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n.saturating_sub(rank(p, n).max(1)) >= TAIL_BEYOND)
}

/// Quartiles `(q1, q2, q3)` by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, the rule the spread of a set of
/// runs is judged by. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let (n, m) = (4usize, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_samples_not_interpolations() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // Fewer than 11 samples: not even the median has 10 beyond it.
        assert_eq!(tail_percentile(10), None);
        // 20 samples: p50 is rank 10, leaving exactly 10 beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        // 100 samples: p90 is rank 90 (10 beyond); p95 leaves 5.
        assert_eq!(tail_percentile(100), Some(90.0));
        // 1000 samples: p99 leaves 10, p99.5 leaves 5.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
    }
}
