//! Order statistics with the benchmark's reporting rules.
//!
//! Timings are reported as a median plus one tail percentile, and a tail
//! percentile is only meaningful when at least [`MIN_BEYOND`] samples lie
//! beyond it. Percentiles use the nearest-rank definition, so every reported
//! value is a measured sample, never an interpolation.

/// Samples that must lie strictly beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`p` in `(0, 1]`) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Median of the medians of consecutive `chunk`-sized runs of `values`
/// (a trailing run shorter than half a chunk is dropped). On a shared
/// machine, bursts of contention slow whole stretches of a run; as long as
/// they cover fewer than half of the chunks, this reads the undisturbed
/// stretches, where the plain median shifts with every burst.
pub fn median_of_medians(values: &[f64], chunk: usize) -> Option<f64> {
    let chunk = chunk.max(1);
    let medians: Vec<f64> = values
        .chunks(chunk)
        .filter(|c| 2 * c.len() >= chunk)
        .filter_map(median)
        .collect();
    median(&medians)
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Whether `n` samples support reporting percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_measured_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(percentile(&v, 0.2), Some(1.0));
        assert_eq!(percentile(&v, 0.21), Some(2.0));
    }

    #[test]
    fn median_of_medians_ignores_a_minority_of_slow_stretches() {
        // Four undisturbed chunks around 1.0 and two slowed ones.
        let mut v = Vec::new();
        for slow in [false, true, false, false, true, false] {
            let base = if slow { 5.0 } else { 1.0 };
            v.extend([base, base + 0.1, base + 0.2]);
        }
        assert_eq!(median_of_medians(&v, 3), Some(1.1));
        // The plain median is dragged toward the slow stretches.
        assert_eq!(median(&v), Some(1.2));
        // A tail shorter than half a chunk is dropped; half a chunk is kept.
        assert_eq!(median_of_medians(&[1.0, 1.0, 1.0, 1.0, 9.0], 4), Some(1.0));
        assert_eq!(median_of_medians(&[9.0, 9.0, 1.0, 1.0, 1.0], 2), Some(1.0));
        assert_eq!(median_of_medians(&[], 4), None);
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond() {
        // p99 needs 1000 samples: rank 990 leaves exactly 10 beyond.
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        // p90 needs 100 samples.
        assert!(supports(100, 0.90));
        assert!(!supports(99, 0.90));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert_eq!(beyond(0, 0.5), 0);
    }
}
