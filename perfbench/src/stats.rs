//! Order statistics over latency samples.
//!
//! Percentiles are nearest-rank: the `q`-th percentile of `n` sorted
//! samples is the sample at rank `ceil(q/100 · n)` (1-based), so every
//! reported value is one that was actually measured. A failed op enters a
//! latency sample as `f64::INFINITY`, which sorts above every completed op:
//! failures count as missing every latency percentile.

/// `q`-th percentile (`0 < q ≤ 100`) of an ascending-sorted slice,
/// nearest-rank. `None` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// How many samples lie strictly beyond the `q`-th percentile's rank.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
    n.saturating_sub(rank.min(n))
}

/// Sort ascending; NaN-free input is assumed (latencies and rates).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank p50) of unsorted samples.
pub fn median(v: &[f64]) -> Option<f64> {
    percentile(&sorted(v.to_vec()), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_measured_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 99.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn p99_of_a_thousand_is_rank_990() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(110, 90.0), 11);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(0, 90.0), 0);
    }

    #[test]
    fn failures_sort_above_every_completed_op() {
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        v.push(f64::INFINITY);
        let v = sorted(v);
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(f64::INFINITY));
        v.iter().zip(v.iter().skip(1)).for_each(|(a, b)| assert!(a <= b));
    }

    #[test]
    fn median_of_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }
}
