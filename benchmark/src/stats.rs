//! Order statistics over timing samples.

/// Sorts `samples` ascending. Timing samples are finite by construction, so
/// a NaN here is a harness bug worth stopping on.
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Nearest-rank quantile of an ascending slice (`0.0` for an empty one).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(n, q)],
    }
}

/// Median of unsorted samples.
pub fn median(mut samples: Vec<f64>) -> f64 {
    sort(&mut samples);
    quantile(&samples, 0.5)
}

fn rank(n: usize, q: f64) -> usize {
    ((n as f64 * q).ceil() as usize).clamp(1, n) - 1
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Tail value for quantile `q`, reported at a rank that keeps at least
/// [`TAIL_SUPPORT`] samples beyond it: `q`'s own rank when enough samples lie
/// above it, otherwise the highest rank that still has that many above, and
/// never below the median. A p99 over 300 samples is therefore read at the
/// 290th sample, not at the 297th, whose value three outliers decide.
pub fn tail(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[tail_rank(n, q)],
    }
}

fn tail_rank(n: usize, q: f64) -> usize {
    let supported = n.saturating_sub(TAIL_SUPPORT + 1);
    rank(n, q).min(supported).max(rank(n, 0.5))
}

/// Coefficient of variation (population), `0.0` when the mean is zero.
pub fn cv(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n.max(1.0);
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n.max(1.0);
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 2000 samples: 20 lie beyond p99, so p99 stands.
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), 1980.0);
        // 300 samples: only 3 lie beyond p99, so the value is read at the
        // highest rank that keeps 10 beyond it; p95 (15 beyond) stands.
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        let reported = tail(&v, 0.99);
        assert_eq!(reported, 290.0);
        assert_eq!(v.iter().filter(|x| **x > reported).count(), TAIL_SUPPORT);
        assert_eq!(tail(&v, 0.95), 285.0);
        // Too few samples for any tail: fall back to the median.
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&v, 0.99), 8.0);
        assert_eq!(tail(&[], 0.99), 0.0);
    }

    #[test]
    fn cv_of_equal_shares_is_zero() {
        assert_eq!(cv(&[5.0, 5.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
        assert_eq!(cv(&[0.0, 0.0]), 0.0);
    }
}
