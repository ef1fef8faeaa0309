//! Order statistics for the reports: percentiles, the "ten samples beyond"
//! rule for the reported tail, and median/quartile summaries over
//! repetitions.

/// The percentile ladder a tail is picked from, highest first.
const TAILS: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` % of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` ascending in place (no NaNs are ever recorded).
pub fn sort(samples: &mut [f64]) {
    samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
}

/// Nearest-rank percentile of `samples` in any order; `0` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sort(&mut sorted);
    percentile_sorted(&sorted, p)
}

/// The highest percentile of [`TAILS`] that still has at least ten of `n`
/// samples beyond it — the tail a sample of that size can support. `None`
/// when even p75 cannot (fewer than 40 samples).
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        n.saturating_sub(rank) >= 10
    })
}

/// Median, quartiles and count of a metric's per-repetition values.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Linear-interpolation quantile of an ascending slice at fraction `q`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summary of `values` (any order). The median of an even count is the mean
/// of the two middle values; quartiles interpolate linearly, so one to three
/// repetitions still summarize.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of no repetitions");
    let mut v = values.to_vec();
    sort(&mut v);
    Summary {
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
        n: v.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 99.9), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        let w = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&w, 50.0), 3.0);
        assert_eq!(percentile(&w, 90.0), 5.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 2 000 open-loop acks: 20 beyond p99
        assert_eq!(supported_tail(2_000), Some(99.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        // one short of ten beyond p99 → p95
        assert_eq!(supported_tail(999), Some(95.0));
        // 732 windows: 7 beyond p99 → p95 (36 beyond)
        assert_eq!(supported_tail(732), Some(95.0));
        assert_eq!(supported_tail(150), Some(90.0));
        // 51 experiment units: 5 beyond p90 → p75 (12 beyond)
        assert_eq!(supported_tail(51), Some(75.0));
        assert_eq!(supported_tail(39), None);
    }

    #[test]
    fn summary_quartiles() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 2.0, 4.0, 5));
        let s = summarize(&[10.0, 20.0]);
        assert_eq!((s.median, s.q1, s.q3), (15.0, 12.5, 17.5));
        let s = summarize(&[8.0]);
        assert_eq!((s.median, s.q1, s.q3, s.spread()), (8.0, 8.0, 8.0, 0.0));
        assert_eq!(summarize(&[90.0, 100.0, 110.0]).spread(), 0.1);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
