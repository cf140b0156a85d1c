//! A "lean-algorithms"-style average-RTT estimator (Liu et al., APoCS 2020
//! — paper §8): instead of matching packets, sum the timestamps of all
//! ACK-direction packets, subtract the sum of all data-direction packet
//! timestamps, and divide by the count.
//!
//! Memory is O(1) per flow (three counters) — sublinear as the paper of
//! origin advertises — but the estimate assumes **no missing or duplicate
//! SEQ or ACK packets**: loss, retransmission, or ACK thinning skews it,
//! which is exactly the §8 critique this implementation lets the benches
//! demonstrate.

use dart_core::{EngineStats, Leg, RttMonitor, RttSample, SampleSink};
use dart_packet::{FlowKey, Nanos, PacketMeta, SeqNum};
use std::collections::HashMap;

/// Per-flow running sums.
#[derive(Clone, Copy, Debug, Default)]
struct Sums {
    data_ts_sum: u128,
    data_count: u64,
    ack_ts_sum: u128,
    ack_count: u64,
}

/// The sum-based estimator.
pub struct LeanRtt {
    leg: Leg,
    flows: HashMap<FlowKey, Sums>,
    packets: u64,
    last_ts: Nanos,
    flushed: bool,
}

/// A flow's average-RTT estimate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeanEstimate {
    /// Flow key (data direction).
    pub flow: FlowKey,
    /// Estimated average RTT; `None` when counts are unusable (no pairs, or
    /// mismatched counts make the math meaningless).
    pub avg_rtt: Option<Nanos>,
    /// Data packets summed.
    pub data_count: u64,
    /// ACK packets summed.
    pub ack_count: u64,
}

impl LeanRtt {
    /// Build an estimator for the given leg.
    pub fn new(leg: Leg) -> LeanRtt {
        LeanRtt {
            leg,
            flows: HashMap::new(),
            packets: 0,
            last_ts: 0,
            flushed: false,
        }
    }

    /// Current estimate for one flow.
    pub fn estimate(&self, flow: &FlowKey) -> Option<LeanEstimate> {
        self.flows.get(flow).map(|s| LeanEstimate {
            flow: *flow,
            avg_rtt: Self::compute(s),
            data_count: s.data_count,
            ack_count: s.ack_count,
        })
    }

    /// Estimates for every flow.
    pub fn estimates(&self) -> Vec<LeanEstimate> {
        self.flows
            .iter()
            .map(|(f, s)| LeanEstimate {
                flow: *f,
                avg_rtt: Self::compute(s),
                data_count: s.data_count,
                ack_count: s.ack_count,
            })
            .collect()
    }

    fn compute(s: &Sums) -> Option<Nanos> {
        // The scheme is only sound when every data packet has exactly one
        // ACK; with mismatched counts, pair up the minimum count (the
        // published algorithm's silent assumption).
        let n = s.data_count.min(s.ack_count);
        if n == 0 {
            return None;
        }
        // avg = (Σ ack_ts)/n_ack - (Σ data_ts)/n_data : means of each side.
        let ack_mean = s.ack_ts_sum / s.ack_count as u128;
        let data_mean = s.data_ts_sum / s.data_count as u128;
        ack_mean.checked_sub(data_mean).map(|d| d as Nanos)
    }
}

/// Streamed through the common trait, lean has no per-packet output: its
/// sketch only yields aggregates, so the sink sees one sample per flow —
/// the average-RTT estimate — at [`RttMonitor::flush`], ordered by flow
/// key for reproducibility (its `eack` is meaningless and set to zero).
impl RttMonitor for LeanRtt {
    fn name(&self) -> &str {
        "lean"
    }

    fn describe(&self) -> String {
        "Lean: O(1)-per-flow timestamp sums, per-flow average-RTT estimates at flush (APoCS '20)"
            .to_string()
    }

    fn on_packet(&mut self, pkt: &PacketMeta, _sink: &mut dyn SampleSink) {
        self.packets += 1;
        self.last_ts = self.last_ts.max(pkt.ts);
        if self.leg.seq_role(pkt.dir) && pkt.is_seq() && !pkt.is_syn() {
            let s = self.flows.entry(pkt.flow).or_default();
            s.data_ts_sum += pkt.ts as u128;
            s.data_count += 1;
        }
        if self.leg.ack_role(pkt.dir) && pkt.is_pure_ack() {
            let s = self.flows.entry(pkt.flow.reverse()).or_default();
            s.ack_ts_sum += pkt.ts as u128;
            s.ack_count += 1;
        }
    }

    fn flush(&mut self, sink: &mut dyn SampleSink) {
        if self.flushed {
            return;
        }
        self.flushed = true;
        let mut estimates = self.estimates();
        estimates.sort_unstable_by_key(|e| e.flow);
        for e in estimates {
            if let Some(avg) = e.avg_rtt {
                sink.on_sample(RttSample::new(e.flow, SeqNum(0), avg, self.last_ts));
            }
        }
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            packets: self.packets,
            samples: if self.flushed {
                self.flows
                    .values()
                    .filter(|s| Self::compute(s).is_some())
                    .count() as u64
            } else {
                0
            },
            ..EngineStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_packet::{Direction, PacketBuilder, MILLISECOND};

    fn feed(lean: &mut LeanRtt, pkt: &PacketMeta) {
        lean.on_packet(pkt, &mut Vec::new());
    }

    fn flow() -> FlowKey {
        FlowKey::from_raw(0x0a08_0001, 40200, 0x5db8_d822, 443)
    }

    #[test]
    fn clean_pairing_recovers_exact_average() {
        let f = flow();
        let mut lean = LeanRtt::new(Leg::External);
        for i in 0..10u32 {
            let t = i as u64 * 100 * MILLISECOND;
            feed(
                &mut lean,
                &PacketBuilder::new(f, t)
                    .seq(i * 100)
                    .payload(100)
                    .dir(Direction::Outbound)
                    .build(),
            );
            feed(
                &mut lean,
                &PacketBuilder::new(f.reverse(), t + 20 * MILLISECOND)
                    .ack(i * 100 + 100)
                    .dir(Direction::Inbound)
                    .build(),
            );
        }
        let est = lean.estimate(&f).unwrap();
        assert_eq!(est.avg_rtt, Some(20 * MILLISECOND));
        assert_eq!(est.data_count, 10);
        assert_eq!(est.ack_count, 10);
    }

    #[test]
    fn ack_thinning_skews_the_estimate() {
        // Cumulative ACKs (one per two segments) break the pairing
        // assumption: the estimate no longer equals the true 20 ms.
        let f = flow();
        let mut lean = LeanRtt::new(Leg::External);
        for i in 0..10u32 {
            let t = i as u64 * 100 * MILLISECOND;
            feed(
                &mut lean,
                &PacketBuilder::new(f, t)
                    .seq(i * 100)
                    .payload(100)
                    .dir(Direction::Outbound)
                    .build(),
            );
            if i % 2 == 1 {
                feed(
                    &mut lean,
                    &PacketBuilder::new(f.reverse(), t + 20 * MILLISECOND)
                        .ack(i * 100 + 100)
                        .dir(Direction::Inbound)
                        .build(),
                );
            }
        }
        let est = lean.estimate(&f).unwrap().avg_rtt.unwrap();
        assert_ne!(est, 20 * MILLISECOND);
        // The skew is systematic: ACK mean shifts by ~half the inter-pair
        // gap (50 ms here).
        assert!(est > 40 * MILLISECOND, "estimate {est}");
    }

    #[test]
    fn no_acks_means_no_estimate() {
        let f = flow();
        let mut lean = LeanRtt::new(Leg::External);
        feed(
            &mut lean,
            &PacketBuilder::new(f, 0)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
        );
        assert_eq!(lean.estimate(&f).unwrap().avg_rtt, None);
    }

    #[test]
    fn syn_packets_are_ignored() {
        let f = flow();
        let mut lean = LeanRtt::new(Leg::External);
        feed(
            &mut lean,
            &PacketBuilder::new(f, 0)
                .seq(0u32)
                .syn()
                .dir(Direction::Outbound)
                .build(),
        );
        assert!(lean.estimate(&f).is_none());
    }
}
