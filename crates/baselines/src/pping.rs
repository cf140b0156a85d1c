//! A `pping`-style passive RTT monitor (Nichols — paper §8): matches RFC
//! 7323 timestamp options instead of sequence/ACK numbers.
//!
//! For each observed `TSval` in one direction, remember its first capture
//! time; when the reverse direction echoes it as `TSecr`, the gap is an RTT
//! sample. The §8 critiques reproduced here:
//!
//! * packets without the option (many stacks/services) are invisible;
//! * precision is bounded by the *sender's* timestamp clock — a 10 Hz clock
//!   yields one distinct TSval per 100 ms, collapsing many packets into one
//!   sample and quantizing away sub-tick latency structure;
//! * the monitor cannot know the clock rate, so it cannot convert TSval
//!   deltas to absolute time — only capture-time deltas are usable.

use dart_core::{EngineStats, Leg, RttMonitor, RttSample, SampleSink};
use dart_packet::{FlowKey, Nanos, PacketMeta, SeqNum};
use std::collections::HashMap;

/// pping configuration.
#[derive(Clone, Copy, Debug)]
pub struct PpingConfig {
    /// Measured leg (same semantics as Dart's: the "data" direction whose
    /// TSvals we track).
    pub leg: Leg,
    /// Maximum outstanding TSvals remembered per flow (pping's practical
    /// memory bound).
    pub per_flow_capacity: usize,
}

impl Default for PpingConfig {
    fn default() -> Self {
        PpingConfig {
            leg: Leg::External,
            per_flow_capacity: 64,
        }
    }
}

#[derive(Default)]
struct FlowState {
    /// TSval → first capture time. Insertion-ordered eviction via the ring.
    pending: HashMap<u32, Nanos>,
    order: std::collections::VecDeque<u32>,
    last_tsval_seen: Option<u32>,
}

/// Counters for a pping run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PpingStats {
    /// Packets offered.
    pub packets: u64,
    /// Packets without a timestamp option (invisible to pping).
    pub no_option: u64,
    /// Distinct TSvals recorded.
    pub tsvals_recorded: u64,
    /// Packets whose TSval repeated a pending one (clock coarser than the
    /// packet rate — the quantization §8 describes).
    pub tsval_repeats: u64,
    /// Samples emitted.
    pub samples: u64,
}

/// The timestamp-matching monitor.
pub struct Pping {
    cfg: PpingConfig,
    flows: HashMap<FlowKey, FlowState>,
    stats: PpingStats,
}

impl Pping {
    /// Build a monitor.
    pub fn new(cfg: PpingConfig) -> Pping {
        Pping {
            cfg,
            flows: HashMap::new(),
            stats: PpingStats::default(),
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &PpingStats {
        &self.stats
    }
}

impl RttMonitor for Pping {
    fn name(&self) -> &str {
        "pping"
    }

    fn describe(&self) -> String {
        "pping: RFC 7323 TSval/TSecr matching, quantized by the sender's timestamp clock"
            .to_string()
    }

    fn on_packet(&mut self, pkt: &PacketMeta, sink: &mut dyn SampleSink) {
        self.stats.packets += 1;
        let Some((tsval, tsecr)) = pkt.tsopt else {
            self.stats.no_option += 1;
            return;
        };
        // Reverse direction: an echo closes a pending TSval.
        if self.cfg.leg.ack_role(pkt.dir) {
            let data_flow = pkt.flow.reverse();
            if let Some(st) = self.flows.get_mut(&data_flow) {
                if let Some(t0) = st.pending.remove(&tsecr) {
                    st.order.retain(|v| *v != tsecr);
                    self.stats.samples += 1;
                    sink.on_sample(RttSample::new(
                        data_flow,
                        SeqNum(tsecr), // the echoed tick, not a byte
                        pkt.ts.saturating_sub(t0),
                        pkt.ts,
                    ));
                }
            }
        }
        // Data direction: record first sighting of each TSval.
        if self.cfg.leg.seq_role(pkt.dir) {
            let st = self.flows.entry(pkt.flow).or_default();
            if st.last_tsval_seen == Some(tsval) || st.pending.contains_key(&tsval) {
                self.stats.tsval_repeats += 1;
                return;
            }
            st.last_tsval_seen = Some(tsval);
            st.pending.insert(tsval, pkt.ts);
            st.order.push_back(tsval);
            self.stats.tsvals_recorded += 1;
            while st.order.len() > self.cfg.per_flow_capacity {
                if let Some(evict) = st.order.pop_front() {
                    st.pending.remove(&evict);
                }
            }
        }
    }

    fn flush(&mut self, _sink: &mut dyn SampleSink) {}

    fn stats(&self) -> EngineStats {
        EngineStats {
            packets: self.stats.packets,
            samples: self.stats.samples,
            ..EngineStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_packet::{Direction, PacketBuilder, MILLISECOND};

    fn flow() -> FlowKey {
        FlowKey::from_raw(0x0a08_0001, 40300, 0x5db8_d822, 443)
    }

    #[test]
    fn echo_produces_sample() {
        let f = flow();
        let mut pp = Pping::new(PpingConfig::default());
        let mut out: Vec<RttSample> = Vec::new();
        pp.on_packet(
            &PacketBuilder::new(f, 0)
                .seq(0u32)
                .payload(100)
                .tsopt(500, 0)
                .dir(Direction::Outbound)
                .build(),
            &mut out,
        );
        pp.on_packet(
            &PacketBuilder::new(f.reverse(), 18 * MILLISECOND)
                .ack(100u32)
                .tsopt(9_000, 500)
                .dir(Direction::Inbound)
                .build(),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rtt, 18 * MILLISECOND);
    }

    #[test]
    fn packets_without_option_are_invisible() {
        let f = flow();
        let mut pp = Pping::new(PpingConfig::default());
        let mut out: Vec<RttSample> = Vec::new();
        pp.on_packet(
            &PacketBuilder::new(f, 0)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            &mut out,
        );
        pp.on_packet(
            &PacketBuilder::new(f.reverse(), MILLISECOND)
                .ack(100u32)
                .dir(Direction::Inbound)
                .build(),
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(pp.stats().no_option, 2);
    }

    #[test]
    fn coarse_clock_collapses_packets_into_one_sample() {
        // Five packets within one 100 ms clock tick share a TSval: pping
        // gets at most one sample where Dart would get five.
        let f = flow();
        let mut pp = Pping::new(PpingConfig::default());
        let mut out: Vec<RttSample> = Vec::new();
        for i in 0..5u32 {
            pp.on_packet(
                &PacketBuilder::new(f, i as u64 * MILLISECOND)
                    .seq(i * 100)
                    .payload(100)
                    .tsopt(42, 0) // same tick
                    .dir(Direction::Outbound)
                    .build(),
                &mut out,
            );
        }
        assert_eq!(pp.stats().tsval_repeats, 4);
        pp.on_packet(
            &PacketBuilder::new(f.reverse(), 20 * MILLISECOND)
                .ack(500u32)
                .tsopt(7, 42)
                .dir(Direction::Inbound)
                .build(),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        // The sample is measured from the FIRST packet of the tick: any
        // later packet in the tick is over-measured by up to a full tick.
        assert_eq!(out[0].rtt, 20 * MILLISECOND);
    }

    #[test]
    fn capacity_bounds_per_flow_state() {
        let f = flow();
        let mut pp = Pping::new(PpingConfig {
            per_flow_capacity: 4,
            ..PpingConfig::default()
        });
        let mut out: Vec<RttSample> = Vec::new();
        for i in 0..10u32 {
            pp.on_packet(
                &PacketBuilder::new(f, i as u64)
                    .seq(i)
                    .payload(1)
                    .tsopt(i, 0)
                    .dir(Direction::Outbound)
                    .build(),
                &mut out,
            );
        }
        // Echo of an evicted (old) TSval: no sample.
        pp.on_packet(
            &PacketBuilder::new(f.reverse(), 100)
                .ack(1u32)
                .tsopt(0, 0)
                .dir(Direction::Inbound)
                .build(),
            &mut out,
        );
        assert!(out.is_empty());
        // Echo of a recent one: sample.
        pp.on_packet(
            &PacketBuilder::new(f.reverse(), 101)
                .ack(1u32)
                .tsopt(0, 9)
                .dir(Direction::Inbound)
                .build(),
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }
}
