//! Order statistics shared by every workload: nearest-rank percentiles,
//! the "at least ten samples beyond" rule and medians of repeated runs.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample such that at least `q` of all samples are at or below it
/// (rank `ceil(q * n)`, 1-based). `q` is clamped to `[0, 1]`; `q = 0`
/// yields the minimum.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    // Snap float dust (0.99 * 1000 = 990.0000000000001) before ceil.
    let exact = q.clamp(0.0, 1.0) * n as f64;
    let rank = ((exact - 1e-9).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank position of `q`: with `n`
/// samples the percentile is sample `ceil(q * n)`, and every later
/// sample lies beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let exact = q.clamp(0.0, 1.0) * n as f64;
    let rank = ((exact - 1e-9).ceil() as usize).clamp(1, n);
    n - rank
}

/// Smallest sample count whose nearest-rank `q` percentile has at least
/// `beyond` samples past it — the size a rate level needs before its p99
/// may be reported.
pub fn min_samples_for(q: f64, beyond: usize) -> usize {
    let mut n = beyond + 1;
    while samples_beyond(n, q) < beyond {
        n += 1;
    }
    n
}

/// Median (nearest-rank p50) of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// p50 and p99 of a latency sample, refusing a p99 without ten samples
/// beyond it.
pub fn p50_p99(values: &[f64]) -> Result<(f64, f64), String> {
    let beyond = samples_beyond(values.len(), 0.99);
    if beyond < 10 {
        return Err(format!(
            "{} samples leave {beyond} beyond p99; at least 10 are required",
            values.len()
        ));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Ok((nearest_rank(&v, 0.5), nearest_rank(&v, 0.99)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
        // 0.95 * 20 = 19.000000000000004 must still pick rank 19.
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(nearest_rank(&w, 0.95), 19.0);
        // Odd count: the middle element.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn ten_beyond_p99_needs_a_thousand_samples() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(0, 0.99), 0);
        assert_eq!(min_samples_for(0.99, 10), 1000);
        assert_eq!(min_samples_for(0.5, 10), 20);
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(p50_p99(&short).is_err());
        let long: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(p50_p99(&long).unwrap(), (499.0, 989.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
