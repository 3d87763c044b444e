//! Sample statistics: percentiles, medians and the "ten samples beyond"
//! rule for tail percentiles.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer and the number is one outlier's latency, not a tail.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p <= 100) of `sorted` by the nearest-rank
/// rule: the smallest sample with at least `p` percent of the samples at
/// or below it. `None` on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// The `p`-th percentile, or `None` when fewer than [`MIN_BEYOND`] samples
/// lie beyond it.
pub fn supported_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if samples_beyond(sorted.len(), p) < MIN_BEYOND {
        return None;
    }
    percentile(sorted, p)
}

/// Median of unsorted float samples: the middle value, or the mean of the
/// two middle values. 0 on empty input.
pub fn median_f64(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.5), Some(1));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), Some(2));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 beyond; of 999 only 9.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        let ok: Vec<u64> = (1..=1000).collect();
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(supported_percentile(&ok, 99.0), Some(990));
        assert_eq!(supported_percentile(&short, 99.0), None);
        // The median of 20 samples has 10 beyond; of 19 only 9.
        assert!(supported_percentile(&ok[..20], 50.0).is_some());
        assert!(supported_percentile(&ok[..19], 50.0).is_none());
    }

    #[test]
    fn medians() {
        assert_eq!(median_f64(&[]), 0.0);
        assert_eq!(median_f64(&[4.0, 1.0]), 2.5);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
    }
}
