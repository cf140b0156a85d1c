//! Per-flow outstanding-segment bookkeeping with 64-bit sequence unwrapping
//! — the unlimited-memory state `tcptrace` keeps and Dart cannot afford.

use dart_packet::{Nanos, SeqNum};
use std::collections::BTreeMap;

/// Unwraps 32-bit wire sequence numbers into a monotone 64-bit space, so a
/// long flow's wraparounds are transparent (unlike Dart, which must forego
/// samples at the top of the space — paper §4).
#[derive(Clone, Debug, Default)]
pub struct SeqUnwrapper {
    /// Last unwrapped value observed.
    last: Option<u64>,
}

impl SeqUnwrapper {
    /// Unwrap `raw` to the 64-bit value closest to the previous observation.
    pub fn unwrap(&mut self, raw: SeqNum) -> u64 {
        let v = match self.last {
            None => raw.raw() as u64,
            Some(prev) => {
                let base = prev & !0xFFFF_FFFF;
                // Candidate epochs: previous, next, and (guarding reordering
                // just below an epoch boundary) the one before.
                let mut best = u64::MAX;
                let mut best_dist = u64::MAX;
                for epoch in [base.wrapping_sub(1 << 32), base, base + (1 << 32)] {
                    let cand = epoch.wrapping_add(raw.raw() as u64);
                    let dist = cand.abs_diff(prev);
                    if dist < best_dist {
                        best = cand;
                        best_dist = dist;
                    }
                }
                best
            }
        };
        self.last = Some(self.last.map_or(v, |p| p.max(v)));
        v
    }
}

/// One outstanding (sent, not yet acknowledged) segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Unwrapped first byte.
    pub seq: u64,
    /// Unwrapped expected ACK (one past the last byte).
    pub eack: u64,
    /// Transmit timestamp as seen at the monitor.
    pub ts: Nanos,
    /// True once the segment has been retransmitted: per Karn's algorithm
    /// its ACK is ambiguous and produces no sample.
    pub ambiguous: bool,
}

/// The per-flow outstanding-segment list: every contiguous byte range in
/// flight, keyed by unwrapped eACK.
#[derive(Clone, Debug, Default)]
pub struct SegmentList {
    segs: BTreeMap<u64, Segment>,
    /// Highest unwrapped byte transmitted.
    highest_sent: u64,
    /// Highest unwrapped byte acknowledged.
    highest_acked: u64,
}

/// Result of offering a data segment to the list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegOutcome {
    /// Fresh data recorded.
    New,
    /// A retransmission: overlapping outstanding segments were poisoned.
    Retransmission,
    /// Entirely old bytes already acknowledged; nothing recorded.
    OldData,
}

/// Result of offering an ACK.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AckResult {
    /// The sample-producing segment, if any: the newest fully-covered,
    /// unambiguous segment that this ACK acknowledges at its exact edge.
    pub matched: Option<Segment>,
    /// Number of segments retired by this ACK.
    pub retired: usize,
    /// True when this was a duplicate ACK (no new data acknowledged).
    pub duplicate: bool,
}

impl SegmentList {
    /// Create an empty list.
    pub fn new() -> SegmentList {
        SegmentList::default()
    }

    /// Outstanding segment count.
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// True when no segments are outstanding.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Record a data segment `[seq, eack)` (unwrapped) sent at `ts`.
    pub fn on_data(&mut self, seq: u64, eack: u64, ts: Nanos) -> SegOutcome {
        debug_assert!(seq < eack, "empty segments are not data");
        if eack <= self.highest_acked {
            return SegOutcome::OldData;
        }
        if seq < self.highest_sent {
            // Some bytes were sent before: a retransmission (possibly with
            // new data appended). Poison every overlapping segment.
            for (_, s) in self.segs.range_mut(seq + 1..) {
                if s.seq < eack {
                    s.ambiguous = true;
                }
            }
            // Refresh/insert the exact-edge segment so a future exact ACK
            // finds it — ambiguous, so it never samples.
            self.segs.insert(
                eack,
                Segment {
                    seq,
                    eack,
                    ts,
                    ambiguous: true,
                },
            );
            self.highest_sent = self.highest_sent.max(eack);
            return SegOutcome::Retransmission;
        }
        self.segs.insert(
            eack,
            Segment {
                seq,
                eack,
                ts,
                ambiguous: false,
            },
        );
        self.highest_sent = self.highest_sent.max(eack);
        SegOutcome::New
    }

    /// Process a cumulative ACK for unwrapped byte `ack` at `ts`.
    pub fn on_ack(&mut self, ack: u64, _ts: Nanos) -> AckResult {
        if ack <= self.highest_acked {
            return AckResult {
                matched: None,
                retired: 0,
                duplicate: true,
            };
        }
        self.highest_acked = ack;
        // Retire everything covered.
        let covered: Vec<u64> = self.segs.range(..=ack).map(|(k, _)| *k).collect();
        let mut matched = None;
        let retired = covered.len();
        for seg in covered.into_iter().filter_map(|k| self.segs.remove(&k)) {
            // tcptrace samples the segment this ACK acknowledges at its
            // exact edge; cumulative ACKs sample the newest covered segment.
            if !seg.ambiguous {
                matched = Some(seg);
            }
        }
        AckResult {
            matched,
            retired,
            duplicate: false,
        }
    }

    /// Highest unwrapped byte transmitted so far.
    pub fn highest_sent(&self) -> u64 {
        self.highest_sent
    }

    /// Highest unwrapped byte acknowledged so far.
    pub fn highest_acked(&self) -> u64 {
        self.highest_acked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrapper_monotone_without_wrap() {
        let mut u = SeqUnwrapper::default();
        assert_eq!(u.unwrap(SeqNum(100)), 100);
        assert_eq!(u.unwrap(SeqNum(5000)), 5000);
        assert_eq!(u.unwrap(SeqNum(4000)), 4000); // slight reordering
    }

    #[test]
    fn unwrapper_crosses_epochs() {
        let mut u = SeqUnwrapper::default();
        assert_eq!(u.unwrap(SeqNum(u32::MAX - 10)), (u32::MAX - 10) as u64);
        // Wraps: should continue in the next epoch.
        assert_eq!(u.unwrap(SeqNum(20)), (1u64 << 32) + 20);
        // Late packet from just before the wrap resolves backwards.
        assert_eq!(u.unwrap(SeqNum(u32::MAX - 5)), (u32::MAX - 5) as u64);
    }

    #[test]
    fn data_then_exact_ack_samples() {
        let mut sl = SegmentList::new();
        assert_eq!(sl.on_data(0, 100, 10), SegOutcome::New);
        let r = sl.on_ack(100, 50);
        assert_eq!(r.matched.unwrap().ts, 10);
        assert_eq!(r.retired, 1);
        assert!(!r.duplicate);
        assert!(sl.is_empty());
    }

    #[test]
    fn cumulative_ack_samples_newest_covered() {
        let mut sl = SegmentList::new();
        sl.on_data(0, 100, 10);
        sl.on_data(100, 200, 20);
        sl.on_data(200, 300, 30);
        let r = sl.on_ack(300, 99);
        assert_eq!(r.retired, 3);
        assert_eq!(r.matched.unwrap().ts, 30);
    }

    #[test]
    fn retransmission_poisons_overlap() {
        let mut sl = SegmentList::new();
        sl.on_data(0, 100, 10);
        sl.on_data(100, 200, 20);
        assert_eq!(sl.on_data(0, 100, 60), SegOutcome::Retransmission);
        // ACK of the poisoned first segment: retired but no sample.
        let r1 = sl.on_ack(100, 100);
        assert_eq!(r1.retired, 1);
        assert!(r1.matched.is_none());
        // The second segment was not overlapped: still samples.
        let r2 = sl.on_ack(200, 120);
        assert_eq!(r2.matched.unwrap().ts, 20);
    }

    #[test]
    fn retransmission_with_new_data_poisons_only_overlap() {
        let mut sl = SegmentList::new();
        sl.on_data(0, 100, 10);
        sl.on_data(100, 200, 20);
        // Retransmit [50, 150): poisons both outstanding segments (both
        // overlap the retransmitted byte range).
        sl.on_data(50, 150, 70);
        let r = sl.on_ack(200, 150);
        assert!(r.matched.is_none());
    }

    #[test]
    fn old_data_ignored() {
        let mut sl = SegmentList::new();
        sl.on_data(0, 100, 10);
        sl.on_ack(100, 50);
        assert_eq!(sl.on_data(0, 100, 60), SegOutcome::OldData);
    }

    #[test]
    fn duplicate_acks_flagged() {
        let mut sl = SegmentList::new();
        sl.on_data(0, 100, 10);
        sl.on_ack(100, 50);
        let r = sl.on_ack(100, 60);
        assert!(r.duplicate);
        assert!(r.matched.is_none());
    }

    #[test]
    fn partial_ack_leaves_remaining_segments() {
        let mut sl = SegmentList::new();
        sl.on_data(0, 100, 10);
        sl.on_data(100, 200, 20);
        let r = sl.on_ack(100, 50);
        assert_eq!(r.retired, 1);
        assert_eq!(sl.len(), 1);
        assert_eq!(sl.highest_acked(), 100);
    }
}
