//! The ground-truth RTT oracle: an omniscient per-flow SEQ/ACK matcher.
//!
//! The oracle replays a captured trace with **unbounded memory** and no
//! hardware constraints, and classifies what a correct monitor could and
//! could not measure from that capture. It is an *independent*
//! implementation of the TCP matching rules — it shares no code with
//! `dart-core`'s Range Tracker / Packet Tracker or with the baselines —
//! which is what makes differential comparison against it meaningful.
//!
//! For every trace it computes:
//!
//! * the exact set of **valid** samples: `(flow, eack, rtt, ts)` tuples a
//!   sound matcher may emit, where the acknowledgment unambiguously closes
//!   a uniquely-transmitted segment (Karn's rule, duplicate-ACK exclusion,
//!   first-advance-only);
//! * the set of **possible** anchors: every `(flow, eack) → transmission
//!   timestamp` pair seen in the capture. An engine sample that does not
//!   equal `ack_ts − tx_ts` for *any* captured transmission of its
//!   `(flow, eack)` is **impossible** — its timestamp was fabricated, which
//!   no amount of eviction pressure or recirculation loss can excuse.
//!
//! The fidelity contract (DESIGN.md §5b): oracle truth is
//! **capture-relative**. When the monitor itself missed packets
//! (`monitor_miss` in the simulator), neither the oracle nor any engine can
//! see the loss, so "valid" means *soundly derivable from the captured
//! sequence*, not *equal to the RTT the network actually experienced*.
//! That residual ambiguity is excluded from both invariants by
//! construction: the oracle and the engines read the same capture.

use dart_core::{Leg, RttSample, SynPolicy};
use dart_packet::{Direction, FlowKey, Nanos, PacketMeta, SeqNum};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Oracle configuration: the packet-role policies it shares with the engine
/// under test. (The oracle has no tables to size — it is unbounded.)
#[derive(Clone, Copy, Debug)]
pub struct OracleConfig {
    /// Handshake policy, mirrored from the engine under test.
    pub syn_policy: SynPolicy,
    /// Measured leg, mirrored from the engine under test.
    pub leg: Leg,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            syn_policy: SynPolicy::Skip,
            leg: Leg::External,
        }
    }
}

/// How the oracle classifies one engine-emitted sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleClass {
    /// The sample is in the oracle's exact valid set.
    Exact,
    /// The sample is anchored to a real captured transmission of its
    /// `(flow, eack)`, but the oracle excluded that match as ambiguous
    /// (retransmitted bytes, duplicate-ACK episode, non-advancing ACK).
    /// Constrained engines can emit these when table evictions erase the
    /// collapse state that would have suppressed the match.
    Ambiguous,
    /// The sample anchors to a captured transmission of the *same flow*
    /// but of a different segment. Cumulative matchers (`tcptrace`) emit
    /// these legitimately — the sample's `eack` is the ACK value while the
    /// RTT anchors to the earlier segment that ACK closed. Dart matches
    /// exact left edges only, so from a Dart engine this is a bug.
    CrossAnchored,
    /// No captured transmission of the flow is `rtt` before the sample's
    /// timestamp: the measurement is fabricated. No matcher, exact or
    /// cumulative, may emit these.
    Impossible,
}

/// One transmission record of a segment ending at a given eACK.
#[derive(Clone, Debug)]
struct TxInfo {
    /// Unwrapped start of the byte range.
    seq: u64,
    /// Capture timestamps of every transmission of this exact range end.
    times: Vec<Nanos>,
    /// True once any transmission overlapped previously-sent unacked bytes
    /// (this segment's match is ambiguous under Karn's rule).
    tainted: bool,
}

/// Per-flow oracle state (keyed by the data-direction flow key).
struct FlowState {
    /// Segments by unwrapped range end.
    tx: BTreeMap<u64, TxInfo>,
    /// Cumulative-ACK high-water mark (unwrapped), if any ACK seen.
    acked: Option<u64>,
    /// Times of range-ambiguity events: retransmissions and duplicate
    /// ACKs. A valid sample's segment must not have such an event between
    /// its transmission and its acknowledgment.
    collapse_times: Vec<Nanos>,
    /// Longest segment seen (bounds the overlap scan).
    max_seg_len: u64,
    /// Sequence-number unwrapping state, shared by SEQs and ACKs.
    unwrap_last: Option<u64>,
}

impl FlowState {
    fn new() -> FlowState {
        FlowState {
            tx: BTreeMap::new(),
            acked: None,
            collapse_times: Vec::new(),
            max_seg_len: 0,
            unwrap_last: None,
        }
    }

    /// Unwrap a 32-bit sequence value into the flow's 64-bit space by
    /// minimal signed distance from the last unwrapped value.
    fn unwrap(&mut self, v: SeqNum) -> u64 {
        let raw = v.raw() as u64;
        let out = match self.unwrap_last {
            // Start one epoch up so below-ISN values stay non-negative.
            None => raw + (1u64 << 32),
            Some(last) => {
                let base = last & !0xFFFF_FFFFu64;
                let mut candidate = base + raw;
                let half = 1u64 << 31;
                if candidate + half < last {
                    candidate += 1u64 << 32;
                } else if candidate > last + half && candidate >= (1u64 << 32) {
                    candidate -= 1u64 << 32;
                }
                candidate
            }
        };
        self.unwrap_last = Some(out);
        out
    }

    /// Did an ambiguity event land strictly inside `(sent, acked_at)`?
    fn collapsed_between(&self, sent: Nanos, acked_at: Nanos) -> bool {
        self.collapse_times
            .iter()
            .any(|&t| t > sent && t < acked_at)
    }
}

/// The oracle's verdict on a trace: the exact valid sample set plus the
/// anchor index used for impossibility checks.
pub struct OracleReport {
    /// The exact set of valid samples, in ACK arrival order.
    pub valid: Vec<RttSample>,
    /// Fast membership test for [`OracleReport::classify`].
    valid_set: HashSet<(FlowKey, u32, Nanos, Nanos)>,
    /// Every captured transmission: `(flow, eack) → sorted tx timestamps`.
    anchors: HashMap<(FlowKey, u32), Vec<Nanos>>,
    /// Every captured transmission time per flow, for cumulative matchers.
    flow_tx: HashMap<FlowKey, Vec<Nanos>>,
}

impl OracleReport {
    /// Number of valid samples.
    pub fn valid_count(&self) -> usize {
        self.valid.len()
    }

    /// Classify one engine-emitted sample (see [`SampleClass`]).
    pub fn classify(&self, s: &RttSample) -> SampleClass {
        if self
            .valid_set
            .contains(&(s.flow, s.eack.raw(), s.rtt, s.ts))
        {
            return SampleClass::Exact;
        }
        let anchors_at =
            |times: &Vec<Nanos>| times.iter().any(|&t| s.ts.saturating_sub(t) == s.rtt);
        if self
            .anchors
            .get(&(s.flow, s.eack.raw()))
            .is_some_and(anchors_at)
        {
            SampleClass::Ambiguous
        } else if self.flow_tx.get(&s.flow).is_some_and(anchors_at) {
            SampleClass::CrossAnchored
        } else {
            SampleClass::Impossible
        }
    }

    /// Split a sample list into (exact, ambiguous, impossible) counts plus
    /// the impossible samples themselves (for shrinking / reporting).
    pub fn score(&self, samples: &[RttSample]) -> ScoreCard {
        let mut card = ScoreCard::default();
        let mut matched: HashSet<(FlowKey, u32, Nanos, Nanos)> = HashSet::new();
        for s in samples {
            match self.classify(s) {
                SampleClass::Exact => {
                    card.exact += 1;
                    matched.insert((s.flow, s.eack.raw(), s.rtt, s.ts));
                }
                SampleClass::Ambiguous => card.ambiguous += 1,
                SampleClass::CrossAnchored => card.cross_anchored += 1,
                SampleClass::Impossible => {
                    card.impossible += 1;
                    card.impossible_samples.push(*s);
                }
            }
        }
        card.valid_total = self.valid.len() as u64;
        card.valid_matched = matched.len() as u64;
        card
    }
}

/// Precision/recall accounting of one engine run against the oracle.
#[derive(Clone, Debug, Default)]
pub struct ScoreCard {
    /// Samples in the oracle's exact valid set.
    pub exact: u64,
    /// Samples anchored to a real transmission but excluded as ambiguous.
    pub ambiguous: u64,
    /// Samples anchored to a different segment of the same flow
    /// (cumulative-matcher territory; a bug from an exact matcher).
    pub cross_anchored: u64,
    /// Fabricated samples (soundness violations).
    pub impossible: u64,
    /// The fabricated samples, for reporting and shrinking.
    pub impossible_samples: Vec<RttSample>,
    /// Distinct valid samples the engine found.
    pub valid_matched: u64,
    /// Size of the oracle's valid set.
    pub valid_total: u64,
}

impl ScoreCard {
    /// Fraction of emitted samples that are exact (1.0 when nothing was
    /// emitted).
    pub fn precision(&self) -> f64 {
        let total = self.exact + self.ambiguous + self.cross_anchored + self.impossible;
        if total == 0 {
            1.0
        } else {
            self.exact as f64 / total as f64
        }
    }

    /// Fraction of the oracle's valid set the engine recovered (1.0 when
    /// the valid set is empty).
    pub fn recall(&self) -> f64 {
        if self.valid_total == 0 {
            1.0
        } else {
            self.valid_matched as f64 / self.valid_total as f64
        }
    }

    /// Valid samples the engine did not recover.
    pub fn missed(&self) -> u64 {
        self.valid_total - self.valid_matched
    }
}

// The oracle restates the leg→role rule instead of calling `Leg::seq_role`
// and `Leg::ack_role`: it is the reference the engines are judged against.
fn seq_role(leg: Leg, dir: Direction) -> bool {
    match leg {
        Leg::External => dir == Direction::Outbound,
        Leg::Internal => dir == Direction::Inbound,
        Leg::Both => true,
    }
}

fn ack_role(leg: Leg, dir: Direction) -> bool {
    match leg {
        Leg::External => dir == Direction::Inbound,
        Leg::Internal => dir == Direction::Outbound,
        Leg::Both => true,
    }
}

/// Replay `packets` through the oracle and compute the ground truth.
pub fn run_oracle(cfg: OracleConfig, packets: &[PacketMeta]) -> OracleReport {
    let mut flows: HashMap<FlowKey, FlowState> = HashMap::new();
    let mut valid: Vec<RttSample> = Vec::new();
    let mut anchors: HashMap<(FlowKey, u32), Vec<Nanos>> = HashMap::new();
    let mut flow_tx: HashMap<FlowKey, Vec<Nanos>> = HashMap::new();

    for pkt in packets {
        if cfg.syn_policy == SynPolicy::Skip && pkt.is_syn() {
            continue;
        }
        // ACK role first, mirroring capture-order semantics: a packet's
        // acknowledgment refers to data seen before it, while its payload
        // introduces new bytes.
        if ack_role(cfg.leg, pkt.dir) && pkt.is_ack() {
            let data_flow = pkt.flow.reverse();
            if let Some(st) = flows.get_mut(&data_flow) {
                let ack_u = st.unwrap(pkt.ack);
                let highest_sent = st.tx.keys().next_back().copied().unwrap_or(0);
                let advances = st.acked.is_none_or(|a| ack_u > a);
                if ack_u > highest_sent {
                    // Optimistic ACK: acknowledges bytes never seen leaving
                    // the sender. Ignored, and it does not advance the
                    // cumulative mark.
                } else if advances {
                    if let Some(info) = st.tx.get(&ack_u) {
                        let unique = info.times.len() == 1 && !info.tainted;
                        let sent = info.times[0];
                        if unique && !st.collapsed_between(sent, pkt.ts) {
                            valid.push(RttSample::new(
                                data_flow,
                                pkt.ack,
                                pkt.ts.saturating_sub(sent),
                                pkt.ts,
                            ));
                        }
                    }
                    st.acked = Some(ack_u);
                } else if pkt.is_pure_ack() && st.acked == Some(ack_u) {
                    // A duplicate ACK: the receiver is signalling loss or
                    // reordering; cumulative ACKs that follow are ambiguous
                    // about which arrival triggered them.
                    st.collapse_times.push(pkt.ts);
                }
            }
        }
        if seq_role(cfg.leg, pkt.dir) && pkt.is_seq() {
            let st = flows.entry(pkt.flow).or_insert_with(FlowState::new);
            let seq_u = st.unwrap(pkt.seq);
            let len = pkt.eack().raw().wrapping_sub(pkt.seq.raw()) as u64;
            let end_u = seq_u + len;
            st.max_seg_len = st.max_seg_len.max(len);
            anchors
                .entry((pkt.flow, pkt.eack().raw()))
                .or_default()
                .push(pkt.ts);
            flow_tx.entry(pkt.flow).or_default().push(pkt.ts);

            // Overlap scan: any already-sent, still-unacked range sharing
            // bytes with [seq_u, end_u) makes both ambiguous (Karn).
            let acked = st.acked.unwrap_or(0);
            let scan_lo = seq_u.saturating_sub(st.max_seg_len).max(acked) + 1;
            let scan_hi = (end_u + st.max_seg_len).max(scan_lo);
            let mut retransmission = false;
            for (&other_end, other) in st.tx.range_mut(scan_lo..scan_hi) {
                let overlaps = other.seq < end_u && other_end > seq_u;
                if overlaps && other_end > acked {
                    other.tainted = true;
                    retransmission = true;
                }
            }
            match st.tx.get_mut(&end_u) {
                Some(info) => {
                    // Same range end transmitted again.
                    info.times.push(pkt.ts);
                    info.seq = info.seq.min(seq_u);
                    info.tainted = true;
                    retransmission = true;
                }
                None => {
                    st.tx.insert(
                        end_u,
                        TxInfo {
                            seq: seq_u,
                            times: vec![pkt.ts],
                            tainted: retransmission,
                        },
                    );
                }
            }
            if retransmission {
                st.collapse_times.push(pkt.ts);
            }
        }
    }

    for times in anchors.values_mut() {
        times.sort_unstable();
    }
    for times in flow_tx.values_mut() {
        times.sort_unstable();
    }
    let valid_set = valid
        .iter()
        .map(|s| (s.flow, s.eack.raw(), s.rtt, s.ts))
        .collect();
    OracleReport {
        valid,
        valid_set,
        anchors,
        flow_tx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_packet::PacketBuilder;

    fn flow(n: u32) -> FlowKey {
        FlowKey::from_raw(0x0a00_0000 + n, 40000, 0x5db8_d822, 443)
    }

    fn data(f: FlowKey, seq: u32, len: u32, t: Nanos) -> PacketMeta {
        PacketBuilder::new(f, t)
            .seq(seq)
            .payload(len)
            .dir(Direction::Outbound)
            .build()
    }

    fn ack(f: FlowKey, n: u32, t: Nanos) -> PacketMeta {
        PacketBuilder::new(f.reverse(), t)
            .ack(n)
            .dir(Direction::Inbound)
            .build()
    }

    #[test]
    fn clean_exchange_is_valid() {
        let f = flow(1);
        let rep = run_oracle(
            OracleConfig::default(),
            &[data(f, 0, 100, 1_000), ack(f, 100, 26_000)],
        );
        assert_eq!(rep.valid.len(), 1);
        assert_eq!(rep.valid[0].rtt, 25_000);
        let s = rep.valid[0];
        assert_eq!(rep.classify(&s), SampleClass::Exact);
    }

    #[test]
    fn retransmission_is_excluded_but_anchored() {
        let f = flow(2);
        let rep = run_oracle(
            OracleConfig::default(),
            &[
                data(f, 0, 100, 0),
                data(f, 0, 100, 5_000),
                ack(f, 100, 9_000),
            ],
        );
        assert!(
            rep.valid.is_empty(),
            "Karn: retransmitted range never valid"
        );
        // An engine matching the first transmission is ambiguous, not
        // impossible.
        let s = RttSample::new(f, SeqNum(100), 9_000, 9_000);
        assert_eq!(rep.classify(&s), SampleClass::Ambiguous);
        // A fabricated RTT matches no transmission.
        let bad = RttSample { rtt: 1234, ..s };
        assert_eq!(rep.classify(&bad), SampleClass::Impossible);
    }

    #[test]
    fn partial_overlap_retransmission_taints_both_ranges() {
        let f = flow(3);
        let rep = run_oracle(
            OracleConfig::default(),
            &[
                data(f, 0, 300, 0),
                // Partial retransmission [100, 200): overlaps [0, 300).
                data(f, 100, 100, 5_000),
                ack(f, 300, 9_000),
                ack(f, 200, 9_500),
            ],
        );
        assert!(rep.valid.is_empty());
    }

    #[test]
    fn duplicate_ack_poisons_later_cumulative_ack() {
        // The §2.2 reordering case: dup-ack then a late cumulative ACK.
        let f = flow(4);
        let rep = run_oracle(
            OracleConfig::default(),
            &[
                data(f, 0, 100, 0),
                data(f, 100, 100, 1_000),
                data(f, 200, 100, 2_000),
                data(f, 300, 100, 3_000),
                ack(f, 100, 10_000),
                ack(f, 100, 11_000), // dup: something missing at receiver
                ack(f, 400, 30_000), // late arrival; inflated match excluded
            ],
        );
        assert_eq!(rep.valid.len(), 1, "only the clean first ACK samples");
        assert_eq!(rep.valid[0].eack, SeqNum(100));
    }

    #[test]
    fn cumulative_ack_samples_exact_end_only() {
        let f = flow(5);
        let rep = run_oracle(
            OracleConfig::default(),
            &[
                data(f, 0, 100, 0),
                data(f, 100, 100, 1_000),
                ack(f, 200, 20_000),
            ],
        );
        assert_eq!(rep.valid.len(), 1);
        assert_eq!(rep.valid[0].eack, SeqNum(200));
        assert_eq!(rep.valid[0].rtt, 19_000);
    }

    #[test]
    fn syn_policy_mirrors_engine() {
        let f = flow(6);
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
        let skip = run_oracle(OracleConfig::default(), &[syn, syn_ack]);
        assert!(skip.valid.is_empty());
        let include = run_oracle(
            OracleConfig {
                syn_policy: SynPolicy::Include,
                ..OracleConfig::default()
            },
            &[syn, syn_ack],
        );
        assert_eq!(include.valid.len(), 1);
        assert_eq!(include.valid[0].rtt, 30_000);
    }

    #[test]
    fn wraparound_keeps_matching() {
        // Unbounded memory: the oracle, like tcptrace, samples across a
        // sequence wraparound (Dart forgoes these — recall budget).
        let f = flow(7);
        let rep = run_oracle(
            OracleConfig::default(),
            &[data(f, u32::MAX - 99, 200, 0), ack(f, 100, 40_000)],
        );
        assert_eq!(rep.valid.len(), 1);
        assert_eq!(rep.valid[0].rtt, 40_000);
    }

    #[test]
    fn stale_and_optimistic_acks_do_not_sample() {
        let f = flow(8);
        let rep = run_oracle(
            OracleConfig::default(),
            &[
                data(f, 0, 100, 0),
                ack(f, 500, 1_000), // optimistic: nothing sent that far
                ack(f, 100, 2_000), // valid
                ack(f, 100, 3_000), // duplicate of the edge
            ],
        );
        assert_eq!(rep.valid.len(), 1);
        assert_eq!(rep.valid[0].ts, 2_000);
    }

    #[test]
    fn score_card_accounts_precision_and_recall() {
        let f = flow(9);
        let rep = run_oracle(
            OracleConfig::default(),
            &[
                data(f, 0, 100, 0),
                data(f, 100, 100, 1_000),
                ack(f, 100, 10_000),
                ack(f, 200, 11_000),
            ],
        );
        assert_eq!(rep.valid_count(), 2);
        let engine_samples = vec![rep.valid[0]]; // engine found one of two
        let card = rep.score(&engine_samples);
        assert_eq!(card.exact, 1);
        assert_eq!(card.missed(), 1);
        assert!((card.precision() - 1.0).abs() < 1e-12);
        assert!((card.recall() - 0.5).abs() < 1e-12);
    }
}
