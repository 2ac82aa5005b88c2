//! Order statistics for the reported timings.

/// Percentiles the tail rule picks from, highest first.
const TAIL_LADDER: [f64; 8] = [99.999, 99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of the `p`th percentile of `n` samples. The
/// epsilon keeps decimal percentiles such as 99.99 from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Samples strictly above the nearest-rank `p`th percentile.
fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The tail the benchmark reports: the highest percentile of
/// [`TAIL_LADDER`] with at least 10 samples beyond it, as
/// `(label, value)`. With too few samples for even the median to qualify,
/// the maximum is reported and labelled `max`.
pub fn tail<T: Copy>(sorted: &[T]) -> (String, T) {
    let n = sorted.len();
    match TAIL_LADDER.iter().find(|&&p| beyond(n, p) >= 10) {
        Some(&p) => (format!("p{p}"), percentile(sorted, p)),
        None => ("max".to_string(), sorted[n - 1]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves 10 beyond, p99.9 leaves 1.
        assert_eq!(tail(&ramp(1000)), ("p99".to_string(), 990.0));
        // 999 samples: p99 leaves 9, so the rule falls back to p95.
        assert_eq!(tail(&ramp(999)).0, "p95");
        // 100k samples reach p99.99 (10 beyond).
        assert_eq!(tail(&ramp(100_000)).0, "p99.99");
        // 40 samples: p75 leaves 10.
        assert_eq!(tail(&ramp(40)), ("p75".to_string(), 30.0));
        // 12 samples: not even the median leaves 10 beyond.
        assert_eq!(tail(&ramp(12)), ("max".to_string(), 12.0));
    }
}
