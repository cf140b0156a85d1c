//! A `tcptrace`-style offline RTT extractor: the paper's software ground
//! truth (§6.1).
//!
//! Unlimited, fully-associative per-flow state: every contiguous byte range
//! in flight is remembered ([`SegmentList`]), sequence numbers are unwrapped
//! across wraparounds, and retransmitted segments are excluded from sampling
//! per Karn's algorithm. Optionally emulates the quadrant double-sample
//! quirk the paper found in real tcptrace (footnote 3): a sample whose
//! segment spans two consecutive quadrants of the sequence space generates
//! a spurious extra sample.

use crate::seglist::{SegOutcome, SegmentList, SeqUnwrapper};
use dart_core::{EngineStats, Leg, RttMonitor, RttSample, SampleSink, SynPolicy};
use dart_packet::{FlowKey, PacketMeta};
use std::collections::HashMap;

/// Configuration for the tcptrace baseline.
#[derive(Clone, Copy, Debug)]
pub struct TcpTraceConfig {
    /// Handshake policy (`+SYN` / `-SYN` in Fig. 9).
    pub syn_policy: SynPolicy,
    /// Measured leg (same semantics as Dart's).
    pub leg: Leg,
    /// Emulate tcptrace's quadrant double-sample bug (paper footnote 3).
    pub quadrant_quirk: bool,
}

impl Default for TcpTraceConfig {
    fn default() -> Self {
        TcpTraceConfig {
            syn_policy: SynPolicy::Include,
            leg: Leg::External,
            quadrant_quirk: false,
        }
    }
}

#[derive(Default)]
struct FlowState {
    segs: SegmentList,
    // One unwrapper per flow: data SEQs and the reverse direction's ACKs
    // reference the same sequence space.
    seq_unwrap: SeqUnwrapper,
}

/// Counters for the baseline run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpTraceStats {
    /// Packets offered.
    pub packets: u64,
    /// SYN-flagged packets skipped under `-SYN`.
    pub syn_skipped: u64,
    /// Data segments recorded.
    pub segments: u64,
    /// Retransmissions detected.
    pub retransmissions: u64,
    /// Samples emitted (including quirk duplicates).
    pub samples: u64,
    /// Extra samples produced by the quadrant quirk.
    pub quirk_samples: u64,
    /// Flows tracked.
    pub flows: u64,
}

/// The tcptrace-style baseline analyzer.
pub struct TcpTrace {
    cfg: TcpTraceConfig,
    flows: HashMap<FlowKey, FlowState>,
    stats: TcpTraceStats,
}

/// Sequence-space quadrant of an unwrapped byte number (tcptrace divides the
/// 32-bit space into four quadrants).
fn quadrant(unwrapped: u64) -> u64 {
    (unwrapped % (1u64 << 32)) >> 30
}

impl TcpTrace {
    /// Build an analyzer.
    pub fn new(cfg: TcpTraceConfig) -> TcpTrace {
        TcpTrace {
            cfg,
            flows: HashMap::new(),
            stats: TcpTraceStats::default(),
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &TcpTraceStats {
        &self.stats
    }

    /// Number of flows with live state.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }
}

impl RttMonitor for TcpTrace {
    fn name(&self) -> &str {
        if self.cfg.quadrant_quirk {
            "tcptrace-quirk"
        } else {
            "tcptrace"
        }
    }

    fn describe(&self) -> String {
        format!(
            "tcptrace: unlimited per-flow segment lists with Karn exclusion{}",
            if self.cfg.quadrant_quirk {
                " (+quadrant double-sample quirk)"
            } else {
                ""
            }
        )
    }

    fn on_packet(&mut self, pkt: &PacketMeta, sink: &mut dyn SampleSink) {
        self.stats.packets += 1;
        if self.cfg.syn_policy.skips(pkt) {
            self.stats.syn_skipped += 1;
            return;
        }
        // ACK role.
        if self.cfg.leg.ack_role(pkt.dir) && pkt.is_ack() {
            let data_flow = pkt.flow.reverse();
            if let Some(st) = self.flows.get_mut(&data_flow) {
                let ack_u = st.seq_unwrap.unwrap(pkt.ack);
                let res = st.segs.on_ack(ack_u, pkt.ts);
                if let Some(seg) = res.matched {
                    self.stats.samples += 1;
                    let sample =
                        RttSample::new(data_flow, pkt.ack, pkt.ts.saturating_sub(seg.ts), pkt.ts);
                    sink.on_sample(sample);
                    if self.cfg.quadrant_quirk && quadrant(seg.seq) != quadrant(seg.eack - 1) {
                        // Real tcptrace wrongly splits a quadrant-spanning
                        // packet's sample in two (paper footnote 3).
                        self.stats.samples += 1;
                        self.stats.quirk_samples += 1;
                        sink.on_sample(sample);
                    }
                }
            }
        }
        // SEQ role.
        if self.cfg.leg.seq_role(pkt.dir) && pkt.is_seq() {
            let st = self.flows.entry(pkt.flow).or_insert_with(|| {
                self.stats.flows += 1;
                FlowState::default()
            });
            let seq_u = st.seq_unwrap.unwrap(pkt.seq);
            let len = (pkt.eack().raw().wrapping_sub(pkt.seq.raw())) as u64;
            match st.segs.on_data(seq_u, seq_u + len, pkt.ts) {
                SegOutcome::New => self.stats.segments += 1,
                SegOutcome::Retransmission => {
                    self.stats.segments += 1;
                    self.stats.retransmissions += 1;
                }
                SegOutcome::OldData => {}
            }
        }
    }

    fn flush(&mut self, _sink: &mut dyn SampleSink) {}

    fn stats(&self) -> EngineStats {
        EngineStats {
            packets: self.stats.packets,
            syn_skipped: self.stats.syn_skipped,
            samples: self.stats.samples,
            ..EngineStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_core::run_monitor_slice;
    use dart_packet::{Direction, PacketBuilder};

    fn replay(cfg: TcpTraceConfig, packets: &[PacketMeta]) -> (Vec<RttSample>, TcpTraceStats) {
        let mut tt = TcpTrace::new(cfg);
        let (samples, _) = run_monitor_slice(&mut tt, packets);
        (samples, *tt.stats())
    }

    fn flow(n: u32) -> FlowKey {
        FlowKey::from_raw(0x0a00_0000 + n, 40000, 0x5db8_d822, 443)
    }

    #[test]
    fn clean_exchange_samples_exactly() {
        let f = flow(1);
        let d = PacketBuilder::new(f, 1_000)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        let a = PacketBuilder::new(f.reverse(), 26_000)
            .ack(100u32)
            .dir(Direction::Inbound)
            .build();
        let (samples, stats) = replay(TcpTraceConfig::default(), &[d, a]);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].rtt, 25_000);
        assert_eq!(stats.flows, 1);
    }

    #[test]
    fn syn_skip_matches_dart_policy() {
        let f = flow(2);
        let syn = PacketBuilder::new(f, 0)
            .seq(0u32)
            .syn()
            .dir(Direction::Outbound)
            .build();
        let cfg = TcpTraceConfig {
            syn_policy: SynPolicy::Skip,
            ..TcpTraceConfig::default()
        };
        let (samples, stats) = replay(cfg, &[syn]);
        assert!(samples.is_empty());
        assert_eq!(stats.syn_skipped, 1);
        assert_eq!(stats.flows, 0);
    }

    #[test]
    fn plus_syn_collects_handshake_rtt() {
        let f = flow(3);
        let syn = PacketBuilder::new(f, 0)
            .seq(9u32)
            .syn()
            .dir(Direction::Outbound)
            .build();
        let syn_ack = PacketBuilder::new(f.reverse(), 30_000)
            .seq(99u32)
            .ack(10u32)
            .syn()
            .dir(Direction::Inbound)
            .build();
        let (samples, _) = replay(TcpTraceConfig::default(), &[syn, syn_ack]);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].rtt, 30_000);
    }

    #[test]
    fn retransmitted_segment_never_samples() {
        let f = flow(4);
        let d1 = PacketBuilder::new(f, 0)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        let d2 = PacketBuilder::new(f, 5_000)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        let a = PacketBuilder::new(f.reverse(), 9_000)
            .ack(100u32)
            .dir(Direction::Inbound)
            .build();
        let (samples, stats) = replay(TcpTraceConfig::default(), &[d1, d2, a]);
        assert!(samples.is_empty());
        assert_eq!(stats.retransmissions, 1);
    }

    #[test]
    fn collects_across_wraparound_unlike_dart() {
        // tcptrace keeps sampling across a sequence wraparound.
        let f = flow(5);
        let d1 = PacketBuilder::new(f, 0)
            .seq(u32::MAX - 99)
            .payload(200) // wraps: [MAX-99, 100)
            .dir(Direction::Outbound)
            .build();
        let a1 = PacketBuilder::new(f.reverse(), 40_000)
            .ack(100u32)
            .dir(Direction::Inbound)
            .build();
        let (samples, _) = replay(TcpTraceConfig::default(), &[d1, a1]);
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].rtt, 40_000);
    }

    #[test]
    fn quadrant_quirk_duplicates_spanning_samples() {
        let f = flow(6);
        // Segment spanning the 1 GiB quadrant boundary (1<<30).
        let d = PacketBuilder::new(f, 0)
            .seq((1u32 << 30) - 50)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        let a = PacketBuilder::new(f.reverse(), 10_000)
            .ack((1u32 << 30) + 50)
            .dir(Direction::Inbound)
            .build();
        let cfg = TcpTraceConfig {
            quadrant_quirk: true,
            ..TcpTraceConfig::default()
        };
        let (samples, stats) = replay(cfg, &[d, a]);
        assert_eq!(samples.len(), 2, "quirk duplicates the sample");
        assert_eq!(stats.quirk_samples, 1);
        // Without the quirk: exactly one sample.
        let (samples2, _) = replay(TcpTraceConfig::default(), &[d, a]);
        assert_eq!(samples2.len(), 1);
    }

    #[test]
    fn tracks_all_byte_ranges_across_holes() {
        // Unlike Dart, tcptrace samples segments on BOTH sides of a hole.
        let f = flow(7);
        let pkts = [
            PacketBuilder::new(f, 0)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            // Hole: [100,200) missing at the monitor; [200,300) seen.
            PacketBuilder::new(f, 2_000)
                .seq(200u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            // Receiver got everything (the hole was only at our vantage
            // point): cumulative ACKs for each.
            PacketBuilder::new(f.reverse(), 20_000)
                .ack(100u32)
                .dir(Direction::Inbound)
                .build(),
            PacketBuilder::new(f.reverse(), 22_000)
                .ack(300u32)
                .dir(Direction::Inbound)
                .build(),
        ];
        let (samples, _) = replay(TcpTraceConfig::default(), &pkts);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].rtt, 20_000);
        assert_eq!(samples[1].rtt, 20_000);
    }
}
