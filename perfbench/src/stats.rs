//! Percentiles by nearest rank, and the rule for reporting a tail.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `sorted` (ascending): the value
/// at rank `ceil(p/100 * n)`, 1-based.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Most windows a timed phase is split into; the reported median and
/// rates are medians over windows, so a burst of host noise inside a run
/// moves a few windows, not the result.
pub const WINDOWS: usize = 20;

/// Fewest samples a window needs for its median.
const MEDIAN_WINDOW: usize = 200;

/// Median and p99 of a latency sample, with its size.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub n: usize,
    /// Median over windows of at least `MEDIAN_WINDOW` samples (at most
    /// `WINDOWS`, at least one) of each window's median.
    pub p50: Option<f64>,
    pub p50_windows: usize,
    /// Nearest-rank p99 of the whole sample; `None` unless `MIN_BEYOND`
    /// samples lie beyond it.
    pub p99: Option<f64>,
    /// Samples beyond the p99.
    pub p99_beyond: usize,
}

impl Latency {
    /// `samples` are latencies in the order the ops were sent.
    pub fn of(samples: &[f64]) -> Latency {
        let n = samples.len();
        let median_windows = (n / MEDIAN_WINDOW).clamp(1, WINDOWS);
        let p99_beyond = beyond(n, 99.0);
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Latency {
            n,
            p50: windowed(&split(samples, median_windows), 50.0),
            p50_windows: median_windows,
            p99: nearest_rank(&sorted, 99.0).filter(|_| p99_beyond >= MIN_BEYOND),
            p99_beyond,
        }
    }
}

/// Split `samples` (send order) into `w` consecutive windows of equal
/// sample count.
pub fn split(samples: &[f64], w: usize) -> Vec<Vec<f64>> {
    let w = w.max(1);
    let n = samples.len();
    (0..w)
        .map(|i| samples[i * n / w..(i + 1) * n / w].to_vec())
        .collect()
}

/// Median over windows of each non-empty window's `p`-th percentile.
fn windowed(parts: &[Vec<f64>], p: f64) -> Option<f64> {
    let per: Vec<f64> = parts
        .iter()
        .filter_map(|w| {
            let mut w = w.clone();
            w.sort_by(f64::total_cmp);
            nearest_rank(&w, p)
        })
        .collect();
    (!per.is_empty()).then(|| median(&per))
}

/// Median of a sample (nearest rank), or 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 50.0).unwrap_or(0.0)
}

/// Mean of a sample, or 0 when empty.
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
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // Rank ceil(0.5 * 5) = 3.
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0, 5.0], 50.0), Some(3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(0, 99.0), 0);
        let ramp = |n: usize| -> Vec<f64> { (0..n).map(|i| i as f64).collect() };
        let short = Latency::of(&ramp(999));
        assert_eq!(short.p99, None);
        assert_eq!(short.p99_beyond, 9);
        let long = Latency::of(&ramp(1000));
        assert_eq!(long.p99, Some(989.0));
        assert_eq!(long.p99_beyond, 10);
        assert_eq!(long.n, 1000);
    }

    #[test]
    fn median_is_a_median_over_time_windows() {
        // 5,000 samples in twenty windows of 250; one stretch of 1,000 is
        // ten times slower.
        let samples: Vec<f64> = (0..5000)
            .map(|i| {
                let slow = if (2000..3000).contains(&i) { 10 } else { 1 };
                (slow * (1000 + i % 1000)) as f64
            })
            .collect();
        let lat = Latency::of(&samples);
        assert_eq!(lat.p50_windows, 20);
        // Medians 1124, 1374, 1624 and 1874 in each normal stretch; the
        // slow stretch's four land above them all.
        assert_eq!(lat.p50, Some(1624.0));
        // The p99 is taken over the whole sample, slow stretch included.
        assert_eq!(lat.p99, Some(19490.0));
        assert_eq!(lat.p99_beyond, 50);
        assert_eq!(
            split(&samples, 5).iter().map(Vec::len).collect::<Vec<_>>(),
            [1000; 5]
        );
    }
}
