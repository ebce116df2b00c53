//! Metric math: medians, tail percentiles that carry enough samples to
//! mean something, and the open-loop backlog test.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, the figure is one or two outliers.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples: ⌈q·n⌉,
/// clamped to `1..=n`.
pub fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps 0.99 · 1000 at rank 990 although 0.99 is not
    // exact in binary.
    let r = (q * n as f64 - 1e-9).ceil();
    (r.max(1.0) as usize).min(n.max(1))
}

/// The nearest-rank `q` percentile of `sorted`, or `None` when fewer
/// than [`MIN_TAIL`] samples lie beyond it.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let r = rank(sorted.len(), q);
    (sorted.len() - r >= MIN_TAIL).then(|| sorted[r - 1])
}

/// The highest percentile (as a fraction) that keeps [`MIN_TAIL`]
/// samples beyond it among `n`, or `None` when `n` is too small for any.
pub fn highest_percentile(n: usize) -> Option<f64> {
    (n > MIN_TAIL).then(|| (n - MIN_TAIL) as f64 / n as f64)
}

/// Fewest samples for which the nearest-rank `q` percentile keeps
/// [`MIN_TAIL`] samples beyond it.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| n - rank(n, q) >= MIN_TAIL)
        .unwrap_or(usize::MAX)
}

/// The median (lower middle for an even count); `NaN` for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// Sorts in place (total order, so `+inf` for a failed request sorts
/// last) and returns the slice.
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

/// Whether an open-loop run fell behind, from the backlog (requests
/// sent but not yet answered) at the end of each slice's schedule: in
/// most slices it exceeds `limit`. A server keeping up ends each slice
/// with about rate × latency outstanding; one that cannot keep up
/// accumulates work for the whole slice, and its latencies measure the
/// queue, not the system. A stall that happens to straddle one slice's
/// end is not growth.
pub fn backlog_grew(ends: &[u64], limit: u64) -> bool {
    let over = ends.iter().filter(|&&b| b > limit).count();
    2 * over > ends.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn rank_is_nearest_rank() {
        assert_eq!(rank(1000, 0.99), 990);
        assert_eq!(rank(100, 0.9), 90);
        assert_eq!(rank(10, 0.5), 5);
        assert_eq!(rank(11, 0.5), 6);
        assert_eq!(rank(5, 0.0), 1);
        assert_eq!(rank(5, 1.0), 5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 with exactly ten beyond.
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
        // 999 samples: p99 is rank 990 with nine beyond — refused.
        assert_eq!(tail_percentile(&ramp(999), 0.99), None);
        // 100 samples: p90 is rank 90 with ten beyond.
        assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(tail_percentile(&ramp(99), 0.9), None);
        // The median of 20 samples has ten beyond it.
        assert_eq!(tail_percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn samples_needed_matches_the_rule() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_needed(0.5), 20);
        for q in [0.5, 0.9, 0.99] {
            let n = samples_needed(q);
            assert!(tail_percentile(&ramp(n), q).is_some());
            assert!(tail_percentile(&ramp(n - 1), q).is_none());
        }
    }

    #[test]
    fn highest_percentile_leaves_ten_beyond() {
        assert_eq!(highest_percentile(10), None);
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(1000), Some(0.99));
        for n in [11, 37, 100, 102, 1000, 4567] {
            let q = highest_percentile(n).expect("n > 10");
            let beyond = n - rank(n, q);
            assert_eq!(beyond, MIN_TAIL, "n = {n}");
            // Any higher percentile keeps fewer than ten beyond.
            assert!(n - rank(n, q + 1.0 / n as f64) < MIN_TAIL);
        }
    }

    #[test]
    fn median_takes_the_lower_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn failed_requests_sort_last() {
        let mut v = vec![f64::INFINITY, 2.0, 1.0];
        assert_eq!(sorted(&mut v), &[1.0, 2.0, f64::INFINITY]);
    }

    #[test]
    fn backlog_growth() {
        // Keeping up: one or two outstanding at each slice end.
        assert!(!backlog_grew(&[1, 2, 0, 1, 3, 1], 64));
        // One slice ends inside a stall: not growth.
        assert!(!backlog_grew(&[1, 2, 400, 1, 3, 1], 64));
        // Falling behind: most slices end with work piling up.
        assert!(backlog_grew(&[900, 1200, 2, 1500, 800, 1100], 64));
        assert!(!backlog_grew(&[], 64));
    }
}
