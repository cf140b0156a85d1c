//! Spin-edge ground truth: an omniscient per-direction spin-bit tracker.
//!
//! The SEQ/ACK [`oracle`](crate::oracle) is blind to QUIC traffic by
//! construction (`is_seq`/`is_ack` are false for spin-marked packets), so
//! spin engines need their own notion of capture-relative truth. A spin
//! sample carries no sequence numbers — the *only* thing a sound spin
//! engine can claim is that both endpoints of its measured period are
//! **observed spin transitions** of that flow direction. This module
//! computes exactly that set.
//!
//! For every flow key (each direction of a QUIC flow is its own key, just
//! as the engine tracks them) the oracle replays the capture and records
//! the timestamp of every packet whose spin bit differs from the flow's
//! previous packet. An engine sample `(flow, rtt, ts)` is then classified:
//!
//! * [`Exact`](SpinClass::Exact) — `ts` and `ts − rtt` are *consecutive*
//!   observed edges of the flow: the cleanest period the capture supports.
//! * [`Spanning`](SpinClass::Spanning) — both endpoints are observed
//!   edges, but other edges lie between them. A direct-mapped engine emits
//!   these legitimately after an eviction erased the intermediate edge
//!   state; the period spans several half-round-trips, so it is reported
//!   but not asserted exact.
//! * [`Impossible`](SpinClass::Impossible) — at least one endpoint is not
//!   an observed transition of the flow: the measurement is fabricated.
//!   No spin engine may emit these at any table size (the `SpinEdge`
//!   judgement contract, DESIGN.md §5g).
//!
//! The fidelity contract is the same capture-relative one as the SEQ/ACK
//! oracle's (DESIGN.md §5b): the oracle and the engine read the *same*
//! (possibly faulted) capture, so edges eclipsed by drops are invisible to
//! both, and "fabricated" means *underivable from the captured sequence*.

use crate::oracle::ScoreCard;
use dart_core::RttSample;
use dart_packet::{FlowKey, Nanos, PacketMeta};
use std::collections::HashMap;

/// How the spin oracle classifies one engine-emitted sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpinClass {
    /// Both endpoints are observed edges and no edge lies between them.
    Exact,
    /// Both endpoints are observed edges with other edges in between
    /// (post-eviction re-sync territory; reported, not asserted).
    Spanning,
    /// An endpoint is not an observed spin transition: fabricated.
    Impossible,
}

/// The spin oracle's verdict on a capture: every observed edge, per flow
/// direction.
pub struct SpinReport {
    /// Observed edge timestamps per flow key, each list ascending in
    /// capture order.
    edges: HashMap<FlowKey, Vec<Nanos>>,
    /// Spin-marked packets seen (both directions).
    pub spin_packets: u64,
}

impl SpinReport {
    /// Total observed edges across all flow directions.
    pub fn edge_count(&self) -> u64 {
        self.edges.values().map(|v| v.len() as u64).sum()
    }

    /// Number of consecutive-edge periods the capture supports: the
    /// spin-side analogue of the SEQ/ACK oracle's valid set size.
    pub fn valid_count(&self) -> u64 {
        self.edges
            .values()
            .map(|v| v.len().saturating_sub(1) as u64)
            .sum()
    }

    /// The observed edges of one flow direction, ascending.
    pub fn edges_of(&self, flow: &FlowKey) -> &[Nanos] {
        self.edges.get(flow).map_or(&[], Vec::as_slice)
    }

    /// Classify one engine-emitted sample (see [`SpinClass`]).
    pub fn classify(&self, s: &RttSample) -> SpinClass {
        let Some(edges) = self.edges.get(&s.flow) else {
            return SpinClass::Impossible;
        };
        let Some(start_ts) = s.ts.checked_sub(s.rtt) else {
            return SpinClass::Impossible;
        };
        // Occurrence ranges via binary search: edges can share a timestamp
        // (distinct packets at the same capture tick), so compare ranges,
        // not single indices.
        let range = |t: Nanos| {
            let lo = edges.partition_point(|&e| e < t);
            let hi = edges.partition_point(|&e| e <= t);
            (lo, hi)
        };
        let (end_lo, end_hi) = range(s.ts);
        let (start_lo, start_hi) = range(start_ts);
        if end_lo == end_hi || start_lo == start_hi {
            return SpinClass::Impossible;
        }
        // Consecutive: some occurrence of the start edge immediately
        // precedes some occurrence of the end edge.
        if start_hi == end_lo {
            SpinClass::Exact
        } else {
            SpinClass::Spanning
        }
    }

    /// Score a sample stream into the shared [`ScoreCard`] shape:
    /// Exact → `exact`, Spanning → `ambiguous`, Impossible →
    /// `impossible` (with the samples kept for shrinking), and the
    /// valid/recall fields filled from [`SpinReport::valid_count`].
    pub fn score(&self, samples: &[RttSample]) -> ScoreCard {
        let mut card = ScoreCard::default();
        let mut matched: std::collections::HashSet<(FlowKey, Nanos, Nanos)> =
            std::collections::HashSet::new();
        for s in samples {
            match self.classify(s) {
                SpinClass::Exact => {
                    card.exact += 1;
                    matched.insert((s.flow, s.rtt, s.ts));
                }
                SpinClass::Spanning => card.ambiguous += 1,
                SpinClass::Impossible => {
                    card.impossible += 1;
                    card.impossible_samples.push(*s);
                }
            }
        }
        card.valid_total = self.valid_count();
        card.valid_matched = matched.len() as u64;
        card
    }
}

/// Replay `packets` and record every observed spin transition per flow
/// direction. Non-QUIC packets are ignored (they carry no spin signal).
pub fn run_spin_oracle(packets: &[PacketMeta]) -> SpinReport {
    let mut last_bit: HashMap<FlowKey, bool> = HashMap::new();
    let mut edges: HashMap<FlowKey, Vec<Nanos>> = HashMap::new();
    let mut spin_packets = 0u64;
    for pkt in packets {
        let Some(bit) = pkt.spin() else { continue };
        spin_packets += 1;
        match last_bit.insert(pkt.flow, bit) {
            Some(prev) if prev != bit => {
                edges.entry(pkt.flow).or_default().push(pkt.ts);
            }
            // First packet of the direction seeds the bit without an
            // edge — a transition needs a previous observation.
            _ => {}
        }
    }
    SpinReport {
        edges,
        spin_packets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_packet::{Direction, PacketBuilder, SeqNum, MILLISECOND};

    fn flow() -> FlowKey {
        FlowKey::from_raw(0x0a0b_0001, 41_000, 0x5db8_d901, 443)
    }

    fn spin_pkt(ts: Nanos, f: FlowKey, bit: bool) -> PacketMeta {
        PacketBuilder::new(f, ts)
            .dir(Direction::Outbound)
            .quic_spin(bit)
            .build()
    }

    fn sample(rtt: Nanos, ts: Nanos) -> RttSample {
        RttSample::new(flow(), SeqNum(0), rtt, ts)
    }

    #[test]
    fn edges_are_recorded_per_direction() {
        let f = flow();
        let rev = f.reverse();
        let pkts = vec![
            spin_pkt(0, f, false),
            spin_pkt(MILLISECOND, rev, false),
            spin_pkt(10 * MILLISECOND, f, true),   // edge on f
            spin_pkt(11 * MILLISECOND, rev, true), // edge on rev
            spin_pkt(20 * MILLISECOND, f, false),  // edge on f
        ];
        let rep = run_spin_oracle(&pkts);
        assert_eq!(rep.spin_packets, 5);
        assert_eq!(rep.edges_of(&f), &[10 * MILLISECOND, 20 * MILLISECOND]);
        assert_eq!(rep.edges_of(&rev), &[11 * MILLISECOND]);
        assert_eq!(rep.edge_count(), 3);
        assert_eq!(rep.valid_count(), 1, "only f has a consecutive pair");
    }

    #[test]
    fn consecutive_edges_classify_exact() {
        let f = flow();
        let pkts = vec![
            spin_pkt(0, f, false),
            spin_pkt(10 * MILLISECOND, f, true),
            spin_pkt(30 * MILLISECOND, f, false),
            spin_pkt(50 * MILLISECOND, f, true),
        ];
        let rep = run_spin_oracle(&pkts);
        // 10→30: consecutive.
        assert_eq!(
            rep.classify(&sample(20 * MILLISECOND, 30 * MILLISECOND)),
            SpinClass::Exact
        );
        // 10→50: spans the 30 ms edge.
        assert_eq!(
            rep.classify(&sample(40 * MILLISECOND, 50 * MILLISECOND)),
            SpinClass::Spanning
        );
        // 30 ms end edge but a start nobody observed.
        assert_eq!(
            rep.classify(&sample(7 * MILLISECOND, 30 * MILLISECOND)),
            SpinClass::Impossible
        );
        // rtt larger than ts underflows: fabricated by definition.
        assert_eq!(
            rep.classify(&sample(u64::MAX, 30 * MILLISECOND)),
            SpinClass::Impossible
        );
        // Unknown flow.
        let stranger = RttSample::new(
            FlowKey::from_raw(1, 2, 3, 4),
            SeqNum(0),
            20 * MILLISECOND,
            30 * MILLISECOND,
        );
        assert_eq!(rep.classify(&stranger), SpinClass::Impossible);
    }

    #[test]
    fn score_maps_into_the_shared_card() {
        let f = flow();
        let pkts = vec![
            spin_pkt(0, f, false),
            spin_pkt(10 * MILLISECOND, f, true),
            spin_pkt(30 * MILLISECOND, f, false),
            spin_pkt(50 * MILLISECOND, f, true),
        ];
        let rep = run_spin_oracle(&pkts);
        let card = rep.score(&[
            sample(20 * MILLISECOND, 30 * MILLISECOND), // exact
            sample(40 * MILLISECOND, 50 * MILLISECOND), // spanning
            sample(123, 30 * MILLISECOND),              // impossible
        ]);
        assert_eq!(card.exact, 1);
        assert_eq!(card.ambiguous, 1);
        assert_eq!(card.impossible, 1);
        assert_eq!(card.impossible_samples.len(), 1);
        assert_eq!(card.valid_total, 2);
        assert_eq!(card.valid_matched, 1);
    }

    #[test]
    fn spin_engine_matches_oracle_on_generated_flows() {
        // End-to-end: the real generator, the real engine, zero
        // fabrications, and every emitted sample Exact on a clean trace.
        use dart_baselines::{SpinConfig, SpinMonitor};
        use dart_core::run_monitor_slice;
        use dart_sim::spin::{spin_flow, SpinFlowConfig};
        let pkts = spin_flow(SpinFlowConfig {
            seed: 7,
            ..SpinFlowConfig::default()
        });
        let rep = run_spin_oracle(&pkts);
        assert!(rep.edge_count() > 2, "generator produced edges");
        let mut eng = SpinMonitor::new(SpinConfig::default());
        let (samples, _) = run_monitor_slice(&mut eng, &pkts);
        assert!(!samples.is_empty(), "engine produced samples");
        let card = rep.score(&samples);
        assert_eq!(
            card.impossible, 0,
            "fabricated: {:?}",
            card.impossible_samples
        );
        assert_eq!(card.ambiguous, 0, "clean single-flow trace: all exact");
    }

    #[test]
    fn tcp_only_traces_have_no_spin_truth() {
        let pkts = vec![PacketBuilder::new(flow(), 0)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build()];
        let rep = run_spin_oracle(&pkts);
        assert_eq!(rep.spin_packets, 0);
        assert_eq!(rep.edge_count(), 0);
        assert_eq!(rep.valid_count(), 0);
    }
}
