//! Preemptive discard of useless samples (paper §3.3).
//!
//! When the analytics module only needs the *minimum* RTT per time window,
//! an evicted Packet Tracker record whose age already exceeds the window's
//! current minimum can never improve the result — recirculating it wastes
//! bandwidth. This module wires a shared windowed-minimum between a
//! [`SampleSink`] (updated by the engine's output) and a
//! [`dart_core::RecircFilter`] (consulted before each recirculation).

use dart_core::{EngineEvent, PtRecord, RecircFilter, RttSample, SampleSink};
use dart_packet::Nanos;
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug)]
struct MinWindow {
    window: Nanos,
    start: Nanos,
    min: Option<Nanos>,
}

impl MinWindow {
    fn roll(&mut self, now: Nanos) {
        if now.saturating_sub(self.start) >= self.window {
            self.start = now;
            self.min = None;
        }
    }

    fn observe(&mut self, rtt: Nanos, now: Nanos) {
        self.roll(now);
        self.min = Some(self.min.map_or(rtt, |m| m.min(rtt)));
    }
}

/// Updates the shared window minimum from the engine's sample stream.
/// Forwards every sample and event to an inner sink.
pub struct MinTrackingSink<S> {
    shared: Rc<RefCell<MinWindow>>,
    inner: S,
}

impl<S: SampleSink> SampleSink for MinTrackingSink<S> {
    fn on_sample(&mut self, sample: RttSample) {
        self.shared.borrow_mut().observe(sample.rtt, sample.ts);
        self.inner.on_sample(sample);
    }

    fn on_event(&mut self, ev: EngineEvent) {
        self.inner.on_event(ev);
    }
}

impl<S> MinTrackingSink<S> {
    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Current window minimum (None right after a window rolled).
    pub fn current_min(&self) -> Option<Nanos> {
        self.shared.borrow().min
    }
}

/// The [`RecircFilter`]: drop evicted records that cannot beat the current
/// window minimum.
pub struct PreemptiveDiscard {
    shared: Rc<RefCell<MinWindow>>,
    dropped: u64,
}

impl RecircFilter for PreemptiveDiscard {
    fn should_recirculate(&mut self, rec: &PtRecord, now: Nanos) -> bool {
        let mut w = self.shared.borrow_mut();
        w.roll(now);
        match w.min {
            // The record's eventual sample is at least its current age; if
            // that already exceeds the window minimum it is useless.
            Some(m) => {
                let useful = now.saturating_sub(rec.ts) < m;
                if !useful {
                    self.dropped += 1;
                }
                useful
            }
            None => true,
        }
    }
}

/// Create a linked (sink, filter) pair sharing one windowed minimum of
/// `window` nanoseconds. Wrap your sample sink with the returned
/// [`MinTrackingSink`] and hand the [`PreemptiveDiscard`] to
/// [`dart_core::DartEngine::with_filter`].
pub fn min_discard_pair<S: SampleSink>(
    window: Nanos,
    inner: S,
) -> (MinTrackingSink<S>, PreemptiveDiscard) {
    let shared = Rc::new(RefCell::new(MinWindow {
        window,
        start: 0,
        min: None,
    }));
    (
        MinTrackingSink {
            shared: shared.clone(),
            inner,
        },
        PreemptiveDiscard { shared, dropped: 0 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_packet::{FlowKey, SeqNum, SignatureWidth};

    fn sample(rtt: Nanos, ts: Nanos) -> RttSample {
        RttSample::new(FlowKey::from_raw(1, 2, 3, 4), SeqNum(1), rtt, ts)
    }

    fn rec(ts: Nanos) -> PtRecord {
        PtRecord {
            sig: FlowKey::from_raw(1, 2, 3, 4).signature(SignatureWidth::W32),
            eack: SeqNum(1),
            ts,
            trips: 0,
        }
    }

    #[test]
    fn no_min_yet_recirculates_everything() {
        let (_sink, mut filter) = min_discard_pair(1_000_000, Vec::new());
        assert!(filter.should_recirculate(&rec(0), 999));
    }

    #[test]
    fn old_records_dropped_once_min_known() {
        let (mut sink, mut filter) = min_discard_pair(1_000_000_000, Vec::new());
        sink.on_sample(sample(10_000, 100)); // window min = 10 µs
                                             // Record aged 50 µs can only yield ≥ 50 µs: useless.
        assert!(!filter.should_recirculate(&rec(0), 50_000));
        // Record aged 5 µs could still beat 10 µs: keep it.
        assert!(filter.should_recirculate(&rec(46_000), 51_000));
    }

    #[test]
    fn window_roll_resets_min() {
        let (mut sink, mut filter) = min_discard_pair(1_000, Vec::new());
        sink.on_sample(sample(10, 0));
        // Far beyond the window: the min no longer applies.
        assert!(filter.should_recirculate(&rec(0), 1_000_000));
    }

    #[test]
    fn sink_forwards_samples() {
        let (mut sink, _f) = min_discard_pair(1_000, Vec::new());
        sink.on_sample(sample(5, 1));
        sink.on_sample(sample(7, 2));
        assert_eq!(sink.current_min(), Some(5));
        assert_eq!(sink.into_inner().len(), 2);
    }
}
