//! RTT samples and per-flow events: the engine's output.

use dart_packet::{FlowKey, Nanos, SeqNum};

/// A sample's statistical weight, fixed-point in units of
/// 1/[`SampleWeight::SCALE`] so [`RttSample`] stays `Eq`/hashable.
///
/// Almost every engine emits plain samples at [`SampleWeight::UNIT`].
/// Fridge's corrected estimator (§4 of the fridge paper) weights each
/// sample by the inverse of its survival probability; those weights ride
/// through the common [`SampleSink`] here instead of needing a bespoke
/// callback type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SampleWeight(pub u32);

impl SampleWeight {
    /// Fixed-point scale: weight 1.0 is `SCALE` raw units.
    pub const SCALE: u32 = 1_000;

    /// The default weight of an unweighted sample (1.0).
    pub const UNIT: SampleWeight = SampleWeight(Self::SCALE);

    /// Quantize a floating-point weight (clamped to `[0, u32::MAX/SCALE]`).
    pub fn from_f64(w: f64) -> SampleWeight {
        let raw = (w * Self::SCALE as f64).round();
        SampleWeight(raw.clamp(0.0, u32::MAX as f64) as u32)
    }

    /// The weight as a float, for estimator math and reports.
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / Self::SCALE as f64
    }

    /// True for the default weight 1.0.
    pub fn is_unit(self) -> bool {
        self == Self::UNIT
    }
}

impl Default for SampleWeight {
    fn default() -> Self {
        SampleWeight::UNIT
    }
}

/// One round-trip time measurement: a data packet matched with its ACK.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RttSample {
    /// Flow key in the *data* direction.
    pub flow: FlowKey,
    /// The acknowledgment number that closed the sample.
    pub eack: SeqNum,
    /// Measured round-trip time.
    pub rtt: Nanos,
    /// Arrival time of the ACK at the monitor (sample emission time).
    pub ts: Nanos,
    /// Statistical weight ([`SampleWeight::UNIT`] unless the engine
    /// corrects for sampling survival, like fridge).
    pub weight: SampleWeight,
}

impl RttSample {
    /// An unweighted sample (weight 1.0) — what every engine except
    /// fridge emits.
    pub fn new(flow: FlowKey, eack: SeqNum, rtt: Nanos, ts: Nanos) -> RttSample {
        RttSample {
            flow,
            eack,
            rtt,
            ts,
            weight: SampleWeight::UNIT,
        }
    }

    /// The same sample with an explicit weight.
    pub fn with_weight(mut self, weight: SampleWeight) -> RttSample {
        self.weight = weight;
        self
    }

    /// RTT in fractional milliseconds (for reports).
    pub fn rtt_ms(&self) -> f64 {
        self.rtt as f64 / 1e6
    }
}

/// A notable per-flow event the engine can report to the analytics module
/// beyond RTT samples: range collapses are the §3.1 congestion indicator
/// ("Dart can be adjusted to report the frequency of measurement range
/// collapses for a flow"), and optimistic ACKs the §7 misbehaving-receiver
/// signal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineEvent {
    /// A flow's measurement range collapsed.
    RangeCollapse {
        /// Data-direction flow key.
        flow: FlowKey,
        /// When it happened.
        ts: Nanos,
        /// True when inferred from a retransmitted data packet, false when
        /// from a duplicate ACK.
        from_retransmission: bool,
    },
    /// An ACK arrived for bytes beyond the right edge (§7: a receiver
    /// trying to accelerate the sender).
    OptimisticAck {
        /// Data-direction flow key.
        flow: FlowKey,
        /// When it happened.
        ts: Nanos,
    },
}

/// The one way out of a monitor: samples and [`EngineEvent`]s reach the
/// same sink, interleaved in emission order — a packet's sample ahead of
/// its events; a monitor that buffers delivers both at flush. The analytics
/// module implements this; tests and the harness use `Vec<RttSample>`.
pub trait SampleSink {
    /// Receive one sample.
    fn on_sample(&mut self, sample: RttSample);

    /// Receive one event. The default drops it: most consumers want
    /// samples only.
    fn on_event(&mut self, _ev: EngineEvent) {}
}

impl SampleSink for Vec<RttSample> {
    fn on_sample(&mut self, sample: RttSample) {
        self.push(sample);
    }
}

impl<F: FnMut(RttSample)> SampleSink for F {
    fn on_sample(&mut self, sample: RttSample) {
        self(sample)
    }
}

/// The tests' one recording sink: everything a monitor emits, in
/// emission order.
#[cfg(test)]
pub(crate) mod recording {
    use super::{EngineEvent, RttSample, SampleSink};

    /// One thing a monitor emitted.
    #[derive(Debug, PartialEq)]
    pub(crate) enum Emission {
        Sample(RttSample),
        Event(EngineEvent),
    }

    /// Keeps everything it receives, in emission order.
    #[derive(Debug, Default)]
    pub(crate) struct Emissions(pub(crate) Vec<Emission>);

    impl SampleSink for Emissions {
        fn on_sample(&mut self, sample: RttSample) {
            self.0.push(Emission::Sample(sample));
        }

        fn on_event(&mut self, ev: EngineEvent) {
            self.0.push(Emission::Event(ev));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_ms_converts() {
        let s = RttSample::new(FlowKey::from_raw(1, 2, 3, 4), SeqNum(10), 12_500_000, 0);
        assert!((s.rtt_ms() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn vec_sink_collects() {
        let mut v: Vec<RttSample> = Vec::new();
        v.on_sample(RttSample::new(
            FlowKey::from_raw(1, 2, 3, 4),
            SeqNum(1),
            5,
            6,
        ));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn closure_sink_works() {
        let mut n = 0u32;
        {
            let mut sink = |_s: RttSample| n += 1;
            sink.on_sample(RttSample::new(
                FlowKey::from_raw(1, 2, 3, 4),
                SeqNum(1),
                5,
                6,
            ));
        }
        assert_eq!(n, 1);
    }

    #[test]
    fn weights_quantize_and_default_to_unit() {
        assert!(SampleWeight::default().is_unit());
        assert_eq!(SampleWeight::from_f64(1.0), SampleWeight::UNIT);
        assert_eq!(SampleWeight::from_f64(2.5).0, 2_500);
        assert!((SampleWeight::from_f64(1.2345).as_f64() - 1.235).abs() < 1e-9);
        // Clamped, never wrapped.
        assert_eq!(SampleWeight::from_f64(-3.0).0, 0);
        assert_eq!(SampleWeight::from_f64(1e12), SampleWeight(u32::MAX));
        let s = RttSample::new(FlowKey::from_raw(1, 2, 3, 4), SeqNum(1), 5, 6)
            .with_weight(SampleWeight::from_f64(4.0));
        assert_eq!(s.weight.as_f64(), 4.0);
    }
}
