//! A Dapper-style RTT monitor (Ghasemi et al., SOSR 2017 — paper §8):
//! tracks **one** outstanding data packet per flow at a time, waiting for
//! its ACK before arming the next.
//!
//! The paper's critique, reproduced here: at most one sample per congestion
//! window, so long-RTT or windowed analytics see far too few samples per
//! unit time compared to Dart's per-packet tracking.

use dart_core::{EngineStats, Leg, RttMonitor, RttSample, SampleSink, SynPolicy};
use dart_packet::{FlowKey, Nanos, PacketMeta, SeqNum};
use std::collections::HashMap;

/// Dapper configuration.
#[derive(Clone, Copy, Debug)]
pub struct DapperConfig {
    /// Handshake policy.
    pub syn_policy: SynPolicy,
    /// Measured leg.
    pub leg: Leg,
}

impl Default for DapperConfig {
    fn default() -> Self {
        DapperConfig {
            syn_policy: SynPolicy::Skip,
            leg: Leg::External,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Armed {
    eack: SeqNum,
    ts: Nanos,
}

/// Counters for a Dapper run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DapperStats {
    /// Packets offered.
    pub packets: u64,
    /// SYN-flagged packets skipped under `-SYN`.
    pub syn_skipped: u64,
    /// Data packets that armed the per-flow tracker.
    pub armed: u64,
    /// Data packets skipped because a packet was already armed — the
    /// mechanism's fundamental sample ceiling.
    pub skipped_busy: u64,
    /// Samples emitted.
    pub samples: u64,
}

/// The single-outstanding-packet tracker.
pub struct Dapper {
    cfg: DapperConfig,
    armed: HashMap<FlowKey, Armed>,
    stats: DapperStats,
}

impl Dapper {
    /// Build a tracker.
    pub fn new(cfg: DapperConfig) -> Dapper {
        Dapper {
            cfg,
            armed: HashMap::new(),
            stats: DapperStats::default(),
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &DapperStats {
        &self.stats
    }
}

impl RttMonitor for Dapper {
    fn name(&self) -> &str {
        "dapper"
    }

    fn describe(&self) -> String {
        "Dapper: one outstanding data packet per flow, one sample per window (SOSR '17)".to_string()
    }

    fn on_packet(&mut self, pkt: &PacketMeta, sink: &mut dyn SampleSink) {
        self.stats.packets += 1;
        if self.cfg.syn_policy.skips(pkt) {
            self.stats.syn_skipped += 1;
            return;
        }
        if self.cfg.leg.ack_role(pkt.dir) && pkt.is_ack() {
            let data_flow = pkt.flow.reverse();
            if let Some(armed) = self.armed.get(&data_flow).copied() {
                // Any ACK covering the armed packet closes the sample.
                if pkt.ack.geq(armed.eack) {
                    self.armed.remove(&data_flow);
                    self.stats.samples += 1;
                    sink.on_sample(RttSample::new(
                        data_flow,
                        armed.eack,
                        pkt.ts.saturating_sub(armed.ts),
                        pkt.ts,
                    ));
                }
            }
        }
        if self.cfg.leg.seq_role(pkt.dir) && pkt.is_seq() {
            match self.armed.get(&pkt.flow) {
                Some(_) => self.stats.skipped_busy += 1,
                None => {
                    self.armed.insert(
                        pkt.flow,
                        Armed {
                            eack: pkt.eack(),
                            ts: pkt.ts,
                        },
                    );
                    self.stats.armed += 1;
                }
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
    use dart_packet::{Direction, PacketBuilder, MILLISECOND};

    fn flow() -> FlowKey {
        FlowKey::from_raw(0x0a08_0001, 40100, 0x5db8_d822, 443)
    }

    #[test]
    fn one_sample_per_window() {
        // A burst of 5 segments followed by one cumulative ACK: Dapper
        // samples exactly once (Dart would have tracked all five).
        let f = flow();
        let mut d = Dapper::new(DapperConfig::default());
        let mut out: Vec<RttSample> = Vec::new();
        for i in 0..5u32 {
            d.on_packet(
                &PacketBuilder::new(f, i as u64 * 100_000)
                    .seq(i * 1000)
                    .payload(1000)
                    .dir(Direction::Outbound)
                    .build(),
                &mut out,
            );
        }
        d.on_packet(
            &PacketBuilder::new(f.reverse(), 20 * MILLISECOND)
                .ack(5000u32)
                .dir(Direction::Inbound)
                .build(),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rtt, 20 * MILLISECOND);
        assert_eq!(d.stats().skipped_busy, 4);
    }

    #[test]
    fn rearms_after_each_sample() {
        let f = flow();
        let mut d = Dapper::new(DapperConfig::default());
        let mut out: Vec<RttSample> = Vec::new();
        for round in 0..3u32 {
            let t = round as u64 * 50 * MILLISECOND;
            d.on_packet(
                &PacketBuilder::new(f, t)
                    .seq(round * 100)
                    .payload(100)
                    .dir(Direction::Outbound)
                    .build(),
                &mut out,
            );
            d.on_packet(
                &PacketBuilder::new(f.reverse(), t + 10 * MILLISECOND)
                    .ack(round * 100 + 100)
                    .dir(Direction::Inbound)
                    .build(),
                &mut out,
            );
        }
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|s| s.rtt == 10 * MILLISECOND));
    }

    #[test]
    fn covering_ack_closes_armed_packet() {
        // The ACK may cumulatively cover the armed packet without matching
        // its eACK exactly.
        let f = flow();
        let mut d = Dapper::new(DapperConfig::default());
        let mut out: Vec<RttSample> = Vec::new();
        d.on_packet(
            &PacketBuilder::new(f, 0)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            &mut out,
        );
        d.on_packet(
            &PacketBuilder::new(f.reverse(), MILLISECOND)
                .ack(900u32)
                .dir(Direction::Inbound)
                .build(),
            &mut out,
        );
        assert_eq!(out.len(), 1);
    }
}
