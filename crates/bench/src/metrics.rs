//! The §6.2 evaluation metrics: RTT collection error at key percentiles,
//! fraction of RTT samples collected, and recirculations per packet.

use dart_analytics::RttDistribution;
use dart_core::{EngineStats, RttSample};

/// One configuration's accuracy + overhead, as plotted in Figs. 11–13.
#[derive(Clone, Copy, Debug)]
pub struct AccuracyReport {
    /// Error at the 50th percentile (positive = Dart underestimates).
    pub err_p50: f64,
    /// Error at the 95th percentile.
    pub err_p95: f64,
    /// Error at the 99th percentile.
    pub err_p99: f64,
    /// Signed worst-case error over percentiles 5..=95.
    pub err_max_5_95: f64,
    /// Dart's sample count as a fraction of the baseline's (0..=1+).
    pub fraction_collected: f64,
    /// Recirculations incurred per packet processed.
    pub recirc_per_packet: f64,
    /// Raw Dart sample count.
    pub dart_samples: u64,
    /// Raw baseline sample count.
    pub baseline_samples: u64,
}

impl AccuracyReport {
    /// Compare Dart's output against a baseline sample set.
    pub fn compare(
        baseline: &[RttSample],
        dart: &[RttSample],
        stats: &EngineStats,
    ) -> AccuracyReport {
        let mut base = RttDistribution::from_samples(baseline.iter().map(|s| s.rtt));
        let mut d = RttDistribution::from_samples(dart.iter().map(|s| s.rtt));
        let err = |p: f64, base: &mut RttDistribution, d: &mut RttDistribution| {
            dart_analytics::collection_error_at(base, d, p).unwrap_or(0.0)
        };
        AccuracyReport {
            err_p50: err(50.0, &mut base, &mut d),
            err_p95: err(95.0, &mut base, &mut d),
            err_p99: err(99.0, &mut base, &mut d),
            err_max_5_95: dart_analytics::max_error_5_to_95(&mut base, &mut d).unwrap_or(0.0),
            fraction_collected: if baseline.is_empty() {
                0.0
            } else {
                dart.len() as f64 / baseline.len() as f64
            },
            recirc_per_packet: stats.recirc_per_packet(),
            dart_samples: dart.len() as u64,
            baseline_samples: baseline.len() as u64,
        }
    }

    /// One Markdown table row under [`AccuracyReport::header`].
    pub fn row(&self, label: &str) -> String {
        format!(
            "| {label} | {:.2}% | {:.2}% | {:.2}% | {:.2}% | {:.2}% | {:.3} |",
            self.err_p50 * 100.0,
            self.err_p95 * 100.0,
            self.err_p99 * 100.0,
            self.err_max_5_95 * 100.0,
            self.fraction_collected * 100.0,
            self.recirc_per_packet,
        )
    }

    /// The Markdown table header (title and separator lines) matching
    /// [`AccuracyReport::row`].
    pub fn header() -> &'static str {
        "| config | err p50 | err p95 | err p99 | err max(5..95) | fraction | recirc/pkt |\n\
         |---|---|---|---|---|---|---|"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_packet::{FlowKey, SeqNum};

    fn samples(rtts: &[u64]) -> Vec<RttSample> {
        rtts.iter()
            .map(|&r| RttSample::new(FlowKey::from_raw(1, 2, 3, 4), SeqNum(1), r, 0))
            .collect()
    }

    #[test]
    fn identical_sets_score_perfectly() {
        let base = samples(&[10, 20, 30, 40]);
        let stats = EngineStats::default();
        let r = AccuracyReport::compare(&base, &base, &stats);
        assert_eq!(r.err_p50, 0.0);
        assert_eq!(r.fraction_collected, 1.0);
        assert_eq!(r.recirc_per_packet, 0.0);
    }

    #[test]
    fn missing_samples_lower_fraction() {
        let base = samples(&[10, 20, 30, 40]);
        let dart = samples(&[10, 20]);
        let r = AccuracyReport::compare(&base, &dart, &EngineStats::default());
        assert!((r.fraction_collected - 0.5).abs() < 1e-12);
    }

    #[test]
    fn row_and_header_align() {
        let base = samples(&[10, 20]);
        let r = AccuracyReport::compare(&base, &base, &EngineStats::default());
        // Every line has the same number of column separators.
        for line in AccuracyReport::header().lines() {
            assert_eq!(r.row("x").matches('|').count(), line.matches('|').count());
        }
    }
}
