//! Percentiles of raw samples, and quantiles of registry histogram deltas.

use pcp_obs::HistogramSnapshot;

/// Percentiles the report may use for a tail, highest first.
const TAILS: [f64; 3] = [99.9, 99.0, 90.0];

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps 99.9% of 20000 at rank 19980, not 19981.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least ten beyond percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// A timing reported as a median plus the highest percentile with at
/// least ten samples beyond it, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: u64,
    /// The tail percentile the sample supports (0 when it supports none).
    pub tail_pct: f64,
    pub tail: u64,
}

impl Summary {
    /// Summarises `samples` (any order; sorted in place).
    pub fn of(samples: &mut [u64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                p50: 0,
                tail_pct: 0.0,
                tail: 0,
            };
        }
        samples.sort_unstable();
        let n = samples.len();
        let tail_pct = TAILS.into_iter().find(|&p| supports(n, p)).unwrap_or(0.0);
        Summary {
            n,
            p50: percentile(samples, 50.0),
            tail_pct,
            tail: if tail_pct > 0.0 {
                percentile(samples, tail_pct)
            } else {
                0
            },
        }
    }

    /// The p99, when at least ten samples lie beyond it.
    pub fn p99(&self, samples_sorted: &[u64]) -> Option<u64> {
        supports(self.n, 99.0).then(|| percentile(samples_sorted, 99.0))
    }

    /// `p50=… p99.9=… (n=…)` in microseconds.
    pub fn describe(&self) -> String {
        if self.n == 0 {
            return "no samples".into();
        }
        let tail = if self.tail_pct > 0.0 {
            format!(" p{}={:.1}us", self.tail_pct, self.tail as f64 / 1e3)
        } else {
            " (no tail: fewer than 100 samples)".into()
        };
        format!("p50={:.1}us{tail} (n={})", self.p50 as f64 / 1e3, self.n)
    }
}

/// `later - earlier`, bucket by bucket: the samples recorded in between.
pub fn histogram_delta(
    later: &HistogramSnapshot,
    earlier: &HistogramSnapshot,
) -> HistogramSnapshot {
    let buckets = later
        .buckets
        .iter()
        .map(|&(i, n)| {
            let before = earlier
                .buckets
                .iter()
                .find(|(j, _)| *j == i)
                .map_or(0, |b| b.1);
            (i, n.saturating_sub(before))
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    HistogramSnapshot {
        buckets,
        count: later.count.saturating_sub(earlier.count),
        sum: later.sum.saturating_sub(earlier.sum),
        max: later.max,
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
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
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 99.9), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert!(supports(10_000, 99.9));
        assert!(!supports(9_999, 99.9));
        assert!(supports(100, 90.0));

        let mut few: Vec<u64> = (0..99).collect();
        let s = Summary::of(&mut few);
        assert_eq!((s.n, s.tail_pct), (99, 0.0));
        let mut hundred: Vec<u64> = (0..100).rev().collect();
        let s = Summary::of(&mut hundred);
        assert_eq!((s.tail_pct, s.tail, s.p50), (90.0, 89, 49));
        assert_eq!(s.p99(&hundred), None);
        let mut many: Vec<u64> = (1..=20_000).collect();
        let s = Summary::of(&mut many);
        assert_eq!((s.tail_pct, s.tail), (99.9, 19_980));
        assert_eq!(s.p99(&many), Some(19_800));
        assert!(s.describe().contains("n=20000"), "{}", s.describe());
    }

    #[test]
    fn empty_sample_summarises_to_zero() {
        let s = Summary::of(&mut []);
        assert_eq!(s.n, 0);
        assert_eq!(s.describe(), "no samples");
    }

    #[test]
    fn histogram_delta_keeps_only_new_samples() {
        let h = pcp_obs::Histogram::new();
        h.record(10);
        h.record(1000);
        let before = h.snapshot();
        h.record(1000);
        h.record(5000);
        let d = histogram_delta(&h.snapshot(), &before);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 6000);
        assert!(d.quantile(0.5) <= 1000 && d.quantile(0.5) >= 900);
        assert!(d.quantile(1.0) >= 4500);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
