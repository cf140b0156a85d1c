//! Fixed-bucket log2 histograms.
//!
//! Bucket `i` counts observations `v` with `v < 2^i` (and `v ≥ 2^(i-1)`
//! for `i ≥ 1`), i.e. the inclusive Prometheus upper bound of bucket `i`
//! is `2^i − 1`. Values at or above `2^63` land in the final catch-all
//! bucket (`le="+Inf"`). Sixty-five atomic buckets cover the full `u64`
//! range — RTTs in nanoseconds, batch latencies, queue depths — with one
//! `leading_zeros` and one relaxed `fetch_add` per observation, so the
//! hot path costs a few nanoseconds and never allocates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: indices 0..=64 (`v = 0` through `v ≥ 2^63`).
pub const BUCKETS: usize = 65;

#[derive(Debug)]
struct Inner {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Inner {
    fn default() -> Inner {
        Inner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// A log2 histogram handle; clones share the same buckets.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    inner: Arc<Inner>,
}

/// The bucket an observation falls into.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// The inclusive upper bound (`le`) of bucket `i`; `None` is `+Inf`.
pub fn bucket_le(i: usize) -> Option<u64> {
    if i >= BUCKETS - 1 {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Fold in observations bucketed elsewhere: `counts[i]` more in bucket
    /// `i` (indexed as [`bucket_index`]; entries past the last bucket are
    /// ignored), `sum` more in the sum. For a producer that keeps a plain
    /// log2 array on its hot path and publishes it at sync points.
    pub fn add_counts(&self, counts: &[u64], sum: u64) {
        for (bucket, &n) in self.inner.buckets.iter().zip(counts) {
            if n != 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.inner.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all observed values (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            sum: self.sum(),
            buckets,
        }
    }
}

/// A frozen histogram: per-bucket (non-cumulative) counts plus the sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-cumulative count per bucket, indexed as [`bucket_index`].
    pub buckets: Vec<u64>,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Index of the highest non-empty bucket, if any observation exists.
    pub fn highest_nonempty(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Index of the bucket where the cumulative count crosses `q · count`
    /// — the quantile at bucket granularity. The differential testkit's
    /// histogram-tolerance judgement compares engine vs. oracle on these
    /// indices (±1 bucket), which is the strongest claim a log2 sketch can
    /// honestly make.
    pub fn quantile_bucket(&self, q: f64) -> Option<usize> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(i);
            }
        }
        self.highest_nonempty()
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the bucket
    /// where the cumulative count crosses `q · count`. Log2 buckets make
    /// this a factor-of-two estimate — good enough for live dashboards.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.quantile_bucket(q)
            .map(|i| bucket_le(i).unwrap_or(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_le(0), Some(0));
        assert_eq!(bucket_le(1), Some(1));
        assert_eq!(bucket_le(2), Some(3));
        assert_eq!(bucket_le(64), None);
    }

    /// Counts bucketed elsewhere land where observing the values would
    /// have put them.
    #[test]
    fn add_counts_equals_observing() {
        let (observed, folded) = (Histogram::new(), Histogram::new());
        let mut counts = [0u64; 16];
        let mut sum = 0;
        for v in [0, 1, 1, 5, 1000, 1000] {
            observed.observe(v);
            counts[bucket_index(v)] += 1;
            sum += v;
        }
        folded.add_counts(&counts, sum);
        assert_eq!(folded.snapshot(), observed.snapshot());
    }

    #[test]
    fn observe_counts_and_sums() {
        let h = Histogram::new();
        for v in [0, 1, 1, 5, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1007);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1); // v = 0
        assert_eq!(s.buckets[1], 2); // v = 1
        assert_eq!(s.buckets[3], 1); // v = 5
        assert_eq!(s.buckets[10], 1); // v = 1000
        assert_eq!(s.count(), 5);
        assert_eq!(s.highest_nonempty(), Some(10));
    }

    #[test]
    fn quantile_is_bucket_upper_bound() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.observe(10); // bucket 4, le 15
        }
        h.observe(1_000_000); // bucket 20, le 2^20 - 1
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Some(15));
        assert_eq!(s.quantile(1.0), Some((1 << 20) - 1));
        assert_eq!(s.quantile_bucket(0.5), Some(4));
        assert_eq!(s.quantile_bucket(1.0), Some(20));
        assert_eq!(
            HistogramSnapshot {
                buckets: vec![],
                sum: 0
            }
            .quantile_bucket(0.99),
            None
        );
        assert_eq!(
            HistogramSnapshot {
                buckets: vec![],
                sum: 0
            }
            .quantile(0.5),
            None
        );
    }

    #[test]
    fn shared_across_threads() {
        let h = Histogram::new();
        let workers: Vec<_> = (0..4)
            .map(|i| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for k in 0..500u64 {
                        h.observe(i * 1000 + k);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(h.count(), 2000);
    }
}
