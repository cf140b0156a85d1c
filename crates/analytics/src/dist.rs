//! Distribution utilities: percentiles, CDF/CCDF tables, and the paper's
//! RTT-collection-error metric (§6.2).

use dart_packet::Nanos;

/// A collected set of RTT samples with percentile/CDF queries.
///
/// A sample under 2^32 ns (4.29 s) — every RTT a campus or WAN path shows
/// — is kept in four bytes; a longer one goes to a second list, whose
/// samples all rank after the short ones. Queries answer over both as over
/// one sorted list of `u64`s. Sorting is deferred and cached; pushes
/// invalidate the cache.
#[derive(Clone, Debug, Default)]
pub struct RttDistribution {
    short: Vec<u32>,
    long: Vec<Nanos>,
    sorted: bool,
}

impl RttDistribution {
    /// Empty distribution.
    pub fn new() -> RttDistribution {
        RttDistribution::default()
    }

    /// Build from raw samples.
    pub fn from_samples(samples: impl IntoIterator<Item = Nanos>) -> RttDistribution {
        let samples = samples.into_iter();
        let mut d = RttDistribution {
            short: Vec::with_capacity(samples.size_hint().0),
            ..RttDistribution::default()
        };
        samples.for_each(|rtt| d.push(rtt));
        d.ensure_sorted();
        d
    }

    /// Add one sample.
    pub fn push(&mut self, rtt: Nanos) {
        match u32::try_from(rtt) {
            Ok(short) => self.short.push(short),
            Err(_) => self.long.push(rtt),
        }
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.short.len() + self.long.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.short.sort_unstable();
            self.long.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (0 < p ≤ 100), nearest-rank method.
    pub fn percentile(&mut self, p: f64) -> Option<Nanos> {
        if self.is_empty() {
            return None;
        }
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        self.ensure_sorted();
        let n = self.len();
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        Some(match self.short.get(rank - 1) {
            Some(&short) => Nanos::from(short),
            None => self.long[rank - 1 - self.short.len()],
        })
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<Nanos> {
        self.percentile(50.0)
    }

    /// Fraction of samples ≤ `x` (the empirical CDF).
    pub fn cdf_at(&mut self, x: Nanos) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.short.partition_point(|&s| Nanos::from(s) <= x)
            + self.long.partition_point(|&s| s <= x);
        idx as f64 / self.len() as f64
    }

    /// Fraction of samples > `x` (the CCDF, Fig. 9c's tail view).
    pub fn ccdf_at(&mut self, x: Nanos) -> f64 {
        1.0 - self.cdf_at(x)
    }

    /// Evenly spaced CDF table over `[lo, hi]` with `points` rows — the
    /// series a Fig. 6/9b plot draws.
    pub fn cdf_table(&mut self, lo: Nanos, hi: Nanos, points: usize) -> Vec<(Nanos, f64)> {
        assert!(points >= 2 && hi > lo);
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) / (points as u64 - 1) * i as u64;
                (x, self.cdf_at(x))
            })
            .collect()
    }
}

/// The paper's **RTT collection error** at percentile `p` (§6.2): the
/// difference between the baseline's and Dart's `p`-th percentile RTT,
/// normalized by the baseline's. Positive = Dart underestimates.
pub fn collection_error_at(
    baseline: &mut RttDistribution,
    dart: &mut RttDistribution,
    p: f64,
) -> Option<f64> {
    let b = baseline.percentile(p)? as f64;
    let d = dart.percentile(p)? as f64;
    if b == 0.0 {
        return Some(0.0);
    }
    Some((b - d) / b)
}

/// The paper's worst-case accuracy metric: the maximum |error| over integer
/// percentiles 5..=95, returned signed (the signed error whose magnitude is
/// largest).
pub fn max_error_5_to_95(
    baseline: &mut RttDistribution,
    dart: &mut RttDistribution,
) -> Option<f64> {
    let mut worst: Option<f64> = None;
    for p in 5..=95 {
        let e = collection_error_at(baseline, dart, p as f64)?;
        if worst.is_none_or(|w| e.abs() > w.abs()) {
            worst = Some(e);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dist(vals: &[u64]) -> RttDistribution {
        RttDistribution::from_samples(vals.iter().copied())
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut d = dist(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(d.percentile(50.0), Some(50));
        assert_eq!(d.percentile(95.0), Some(100));
        assert_eq!(d.percentile(10.0), Some(10));
        assert_eq!(d.percentile(100.0), Some(100));
    }

    #[test]
    fn empty_distribution_answers_none() {
        let mut d = RttDistribution::new();
        assert_eq!(d.percentile(50.0), None);
        assert_eq!(d.cdf_at(100), 0.0);
        assert!(d.is_empty());
    }

    #[test]
    fn cdf_and_ccdf_complement() {
        let mut d = dist(&[1, 2, 3, 4]);
        assert!((d.cdf_at(2) - 0.5).abs() < 1e-12);
        assert!((d.ccdf_at(2) - 0.5).abs() < 1e-12);
        assert_eq!(d.cdf_at(0), 0.0);
        assert_eq!(d.cdf_at(4), 1.0);
    }

    #[test]
    fn push_invalidates_sort_cache() {
        let mut d = dist(&[5, 1]);
        assert_eq!(d.median(), Some(1));
        d.push(0);
        assert_eq!(d.percentile(100.0 / 3.0), Some(0));
    }

    #[test]
    fn cdf_table_spans_range() {
        let mut d = dist(&[10, 20, 30]);
        let t = d.cdf_table(0, 30, 4);
        assert_eq!(t.len(), 4);
        assert_eq!(t[0], (0, 0.0));
        assert_eq!(t[3].0, 30);
        assert!((t[3].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn collection_error_signs() {
        // Dart underestimating → positive error.
        let mut base = dist(&[100; 10]);
        let mut dart = dist(&[80; 10]);
        let e = collection_error_at(&mut base, &mut dart, 50.0).unwrap();
        assert!((e - 0.2).abs() < 1e-12);
        // Dart overestimating → negative error (Fig. 12a's regime).
        let mut dart_over = dist(&[130; 10]);
        let e2 = collection_error_at(&mut base, &mut dart_over, 50.0).unwrap();
        assert!((e2 + 0.3).abs() < 1e-12);
    }

    #[test]
    fn max_error_finds_worst_percentile() {
        let mut base = dist(&(1..=100).collect::<Vec<_>>());
        // Perfect except the tail is clipped at 60.
        let mut dart = dist(&(1..=100).map(|v| v.min(60)).collect::<Vec<_>>());
        let worst = max_error_5_to_95(&mut base, &mut dart).unwrap();
        // At p=95: (95-60)/95 ≈ 0.368.
        assert!(worst > 0.3, "worst error {worst}");
    }

    #[test]
    fn an_rtt_of_five_seconds_ranks_above_every_shorter_one() {
        let five_s = 5 * dart_packet::SECOND;
        let under = [0, 1, 4_000_000_000, u64::from(u32::MAX)];
        let mut d = dist(&[five_s]);
        for &v in &under {
            d.push(v);
        }
        assert_eq!(d.len(), 5);
        assert_eq!(d.percentile(100.0), Some(five_s));
        assert_eq!(d.percentile(80.0), Some(u64::from(u32::MAX)));
        assert_eq!(d.percentile(1.0), Some(0));
        assert_eq!(d.cdf_at(five_s - 1), 0.8);
        assert_eq!(d.cdf_at(five_s), 1.0);
    }

    /// One sample in four comes from the edges of the four-byte range.
    fn rtt() -> impl Strategy<Value = u64> {
        (0u8..8, any::<u64>()).prop_map(|(edge, raw)| match edge {
            0 => u64::from(u32::MAX),
            1 => 1 << 32,
            2 => u64::MAX,
            3 | 4 => raw >> 32,
            _ => raw >> (raw % 64),
        })
    }

    proptest! {
        #[test]
        fn answers_as_one_sorted_list_of_u64s(
            samples in prop::collection::vec(rtt(), 1..200),
            probes in prop::collection::vec(rtt(), 0..16),
        ) {
            let mut reference = samples.clone();
            reference.sort_unstable();
            let n = reference.len();
            let mut d = RttDistribution::new();
            for &v in &samples {
                d.push(v);
            }
            prop_assert_eq!(d.len(), n);
            for p in 1..=100 {
                let rank = ((f64::from(p) / 100.0 * n as f64).ceil() as usize).clamp(1, n);
                prop_assert_eq!(d.percentile(f64::from(p)), Some(reference[rank - 1]));
            }
            let edges = [0, u64::from(u32::MAX), 1 << 32, u64::MAX];
            for &x in probes.iter().chain(&samples).chain(&edges) {
                let below = reference.partition_point(|&v| v <= x);
                prop_assert_eq!(d.cdf_at(x), below as f64 / n as f64);
            }
            let mut built = RttDistribution::from_samples(samples.iter().copied());
            prop_assert_eq!(built.len(), n);
            prop_assert_eq!(built.percentile(50.0), d.percentile(50.0));
        }
    }

    #[test]
    fn identical_distributions_zero_error() {
        let mut a = dist(&[5, 10, 15, 20]);
        let mut b = dist(&[5, 10, 15, 20]);
        assert_eq!(max_error_5_to_95(&mut a, &mut b), Some(0.0));
    }
}
