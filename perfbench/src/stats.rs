//! Order statistics for host-time samples.
//!
//! Timings are reported as a median and a nearest-rank percentile. A
//! percentile is only *resolved* when at least [`MIN_BEYOND`] samples
//! lie beyond it; callers report the sample count beside it so a
//! reader can tell a resolved tail from the slowest of a handful.

use std::time::{Duration, Instant};

/// Samples that must lie beyond a percentile for it to be resolved.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`: the smallest
/// sample with at least `p` % of the samples at or below it. 0 for an
/// empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether percentile `p` of `n` samples has [`MIN_BEYOND`] samples
/// beyond it.
pub fn resolved(n: usize, p: f64) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Host time of `f` as the median of `samples` timed repetitions,
/// after `warmup` untimed ones. Each repetition calls `f` `iters`
/// times; the result is per call.
pub fn time_per_call(warmup: usize, samples: usize, iters: usize, mut f: impl FnMut()) -> Duration {
    for _ in 0..warmup * iters {
        f();
    }
    let per_call: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() / iters.max(1) as f64
        })
        .collect();
    Duration::from_secs_f64(median(&per_call))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 100.0);
        assert_eq!(percentile(&xs, 95.0), 190.0);
        assert_eq!(percentile(&xs, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples_to_have_ten_beyond_it() {
        assert_eq!(beyond(200, 95.0), 10);
        assert!(resolved(200, 95.0));
        assert_eq!(beyond(199, 95.0), 9);
        assert!(!resolved(199, 95.0));
        // The median of twenty samples is resolved; of ten, it is not.
        assert!(resolved(20, 50.0));
        assert!(!resolved(19, 50.0));
        assert_eq!(beyond(0, 95.0), 0);
    }

    #[test]
    fn time_per_call_divides_by_iterations() {
        let mut calls = 0u64;
        let d = time_per_call(1, 3, 5, || calls += 1);
        assert_eq!(calls, (1 + 3) * 5);
        assert!(d < Duration::from_secs(1));
    }
}
