//! Bufferbloat detection from continuous RTT streams (paper §7,
//! "Identifying bufferbloat").
//!
//! Bufferbloat manifests as sustained RTT inflation far above the path's
//! propagation delay while traffic flows. The detector keeps a long-horizon
//! baseline minimum (the propagation estimate) and flags windows whose
//! *median-ish* RTT (we use the window minimum, robust to outliers) exceeds
//! `inflation × baseline` for several consecutive windows.

use crate::minfilter::{MinFilter, Window};
use dart_packet::Nanos;

/// Detector configuration.
#[derive(Clone, Copy, Debug)]
pub struct BufferbloatConfig {
    /// Windowing for the local minimum (time-based is typical).
    pub window: Window,
    /// Inflation ratio over the baseline minimum that marks a bloated
    /// window (e.g. 5.0 — bufferbloat inflates RTTs by multiples).
    pub inflation: f64,
    /// Consecutive bloated windows required to raise an event.
    pub sustain: u32,
}

impl Default for BufferbloatConfig {
    fn default() -> Self {
        BufferbloatConfig {
            window: Window::Time(dart_packet::SECOND),
            inflation: 5.0,
            sustain: 3,
        }
    }
}

/// A detected bufferbloat episode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BloatEvent {
    /// Baseline (propagation) RTT estimate.
    pub baseline: Nanos,
    /// Minimum RTT of the confirming window — the sustained floor of the
    /// bloated period.
    pub inflated_min: Nanos,
    /// Timestamp at which the episode was confirmed.
    pub ts: Nanos,
}

/// Streaming bufferbloat detector.
#[derive(Clone, Debug)]
pub struct BufferbloatDetector {
    cfg: BufferbloatConfig,
    filter: MinFilter,
    baseline: Option<Nanos>,
    bloated_streak: u32,
    in_episode: bool,
}

impl BufferbloatDetector {
    /// Build a detector.
    pub fn new(cfg: BufferbloatConfig) -> BufferbloatDetector {
        BufferbloatDetector {
            filter: MinFilter::new(cfg.window),
            cfg,
            baseline: None,
            bloated_streak: 0,
            in_episode: false,
        }
    }

    /// The current propagation-delay estimate.
    pub fn baseline(&self) -> Option<Nanos> {
        self.baseline
    }

    /// True while inside a detected episode.
    pub fn in_episode(&self) -> bool {
        self.in_episode
    }

    /// Offer a raw RTT sample; returns an event when an episode is
    /// confirmed (once per episode).
    pub fn offer(&mut self, rtt: Nanos, ts: Nanos) -> Option<BloatEvent> {
        // The baseline tracks the global minimum: propagation delay.
        let base = self.baseline.map_or(rtt, |b| b.min(rtt));
        self.baseline = Some(base);
        let w = self.filter.offer(rtt, ts)?;
        let bloated = w.min_rtt as f64 > base as f64 * self.cfg.inflation;
        if bloated {
            self.bloated_streak += 1;
            if self.bloated_streak >= self.cfg.sustain && !self.in_episode {
                self.in_episode = true;
                return Some(BloatEvent {
                    baseline: base,
                    inflated_min: w.min_rtt,
                    ts: w.end_ts,
                });
            }
        } else {
            self.bloated_streak = 0;
            self.in_episode = false;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_packet::MILLISECOND;

    fn det() -> BufferbloatDetector {
        BufferbloatDetector::new(BufferbloatConfig {
            window: Window::Count(4),
            inflation: 5.0,
            sustain: 2,
        })
    }

    #[test]
    fn steady_path_never_flags() {
        let mut d = det();
        for i in 0..100u64 {
            assert!(d.offer(20 * MILLISECOND, i).is_none());
        }
        assert_eq!(d.baseline(), Some(20 * MILLISECOND));
        assert!(!d.in_episode());
    }

    #[test]
    fn sustained_inflation_flags_once() {
        let mut d = det();
        for i in 0..8u64 {
            d.offer(20 * MILLISECOND, i); // establish 20 ms baseline
        }
        let mut events = 0;
        for i in 8..32u64 {
            if d.offer(200 * MILLISECOND, i).is_some() {
                events += 1;
            }
        }
        assert_eq!(events, 1, "one event per episode");
        assert!(d.in_episode());
    }

    #[test]
    fn transient_spike_does_not_flag() {
        let mut d = det();
        for i in 0..8u64 {
            d.offer(20 * MILLISECOND, i);
        }
        // One bloated window (4 samples), then recovery.
        for i in 8..12u64 {
            assert!(d.offer(300 * MILLISECOND, i).is_none());
        }
        for i in 12..24u64 {
            assert!(d.offer(20 * MILLISECOND, i).is_none());
        }
        assert!(!d.in_episode());
    }

    #[test]
    fn recovery_then_relapse_flags_again() {
        let mut d = det();
        for i in 0..8u64 {
            d.offer(20 * MILLISECOND, i);
        }
        let mut events = 0;
        for i in 8..24u64 {
            events += d.offer(200 * MILLISECOND, i).is_some() as u32;
        }
        for i in 24..32u64 {
            d.offer(20 * MILLISECOND, i); // recover
        }
        for i in 32..48u64 {
            events += d.offer(200 * MILLISECOND, i).is_some() as u32;
        }
        assert_eq!(events, 2);
    }
}
