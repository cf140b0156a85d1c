//! The per-flow measurement range: the Fig. 4 state machine.
//!
//! A flow's measurement range `[left, right]` is the contiguous
//! sequence-number byte range that can still produce unambiguous RTT
//! samples. The left edge is the latest byte acknowledged (or the highest
//! byte touched by a retransmission/reordering ambiguity); the right edge is
//! the latest byte transmitted. All transitions below follow paper §3.1:
//!
//! * in-order data extends the right edge (Fig. 4a);
//! * in-order ACKs advance the left edge (Fig. 4b);
//! * a data packet at or below the right edge is a retransmission, an ACK
//!   exactly at the left edge is a duplicate ACK — either collapses the
//!   range to `[right, right]`, declaring everything in flight ambiguous
//!   (Fig. 4c);
//! * a data packet starting beyond the right edge leaves a hole; only the
//!   highest contiguous byte range is kept (Fig. 4d);
//! * sequence-number wraparound resets the left edge to zero, foregoing
//!   samples at the top of the space (§4).

use dart_packet::SeqNum;

/// A flow's measurement range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeasurementRange {
    /// Latest byte ACKed, or highest ambiguous byte after a collapse.
    pub left: SeqNum,
    /// Latest byte transmitted.
    pub right: SeqNum,
}

impl MeasurementRange {
    /// Both edges as one register word, `left` in the low half — the word
    /// every RT slot layout keeps its range in.
    pub(crate) fn to_word(self) -> u64 {
        u64::from(self.left.raw()) | u64::from(self.right.raw()) << 32
    }

    /// The range [`MeasurementRange::to_word`] packed.
    pub(crate) fn from_word(w: u64) -> MeasurementRange {
        MeasurementRange {
            left: SeqNum(w as u32),
            right: SeqNum((w >> 32) as u32),
        }
    }
}

/// What the range tracker decided about a data (SEQ) packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqVerdict {
    /// In-order new data: right edge extended; track the packet.
    Extend,
    /// New data beyond a hole: range snapped to the packet; track it.
    HoleReset,
    /// Retransmission (eACK at or below the right edge): range collapsed;
    /// do not track.
    Retransmission,
    /// Sequence-number wraparound: left edge reset to zero; the wrapping
    /// packet itself is not tracked.
    Wraparound,
}

impl SeqVerdict {
    /// Should the packet be inserted into the Packet Tracker?
    pub fn track(self) -> bool {
        matches!(self, SeqVerdict::Extend | SeqVerdict::HoleReset)
    }
}

/// What the range tracker decided about an ACK packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckVerdict {
    /// ACK inside `(left, right]`: left edge advanced; match against the
    /// Packet Tracker for an RTT sample.
    Advance,
    /// ACK exactly at the left edge: duplicate ACK, reordering inferred;
    /// range collapsed, no sample.
    DuplicateCollapse,
    /// ACK below the left edge: acknowledges bytes already deemed
    /// ambiguous; ignored.
    Stale,
    /// ACK above the right edge: optimistic ACK (§7); ignored.
    Optimistic,
}

impl AckVerdict {
    /// Should the Packet Tracker be consulted for a sample?
    pub fn match_pt(self) -> bool {
        matches!(self, AckVerdict::Advance)
    }
}

impl MeasurementRange {
    /// Open a range for a flow first seen with a data packet covering
    /// `[seq, eack)`.
    pub fn open(seq: SeqNum, eack: SeqNum) -> MeasurementRange {
        MeasurementRange {
            left: seq,
            right: eack,
        }
    }

    /// True when the range has been collapsed (no bytes in flight are
    /// unambiguous). A collapsed entry may be safely overwritten by a new
    /// flow on a hash collision (paper §3.1).
    pub fn is_collapsed(&self) -> bool {
        self.left == self.right
    }

    /// Collapse the range: everything in flight is ambiguous.
    pub fn collapse(&mut self) {
        self.left = self.right;
    }

    /// Apply a data packet occupying `[seq, eack)` (Fig. 4a/4c/4d and the
    /// §4 wraparound rule). Returns the verdict; the packet should be
    /// tracked only when `verdict.track()`.
    pub fn on_seq(&mut self, seq: SeqNum, eack: SeqNum) -> SeqVerdict {
        // Wraparound: the segment crosses zero going forward. Detected on
        // raw values, as the hardware does.
        if eack.raw() < seq.raw() {
            self.left = SeqNum::ZERO;
            self.right = eack;
            return SeqVerdict::Wraparound;
        }
        if eack.gt(self.right) {
            if seq.gt(self.right) {
                // Hole in the sequence space: keep only the highest
                // contiguous byte range (Fig. 4d).
                self.left = seq;
                self.right = eack;
                return SeqVerdict::HoleReset;
            }
            // In-order (or overlapping-but-advancing) data.
            self.right = eack;
            return SeqVerdict::Extend;
        }
        // eACK at or below the right edge: retransmission. Collapse so that
        // the now-ambiguous in-flight bytes can never produce samples.
        self.collapse();
        SeqVerdict::Retransmission
    }

    /// Apply an ACK with acknowledgment number `ack` (Fig. 4b/4c and the
    /// §3.1 rules for untracked ACKs). `pure` is true when the packet
    /// carries no payload: only a *pure* ACK at the left edge is a TCP
    /// duplicate ACK — data segments re-asserting the edge (a one-way bulk
    /// phase) are normal and must not collapse the range.
    pub fn on_ack(&mut self, ack: SeqNum, pure: bool) -> AckVerdict {
        if ack == self.left {
            if !pure {
                return AckVerdict::Stale;
            }
            // Duplicate ACK: explicit marker of loss or reordering.
            self.collapse();
            return AckVerdict::DuplicateCollapse;
        }
        if ack.in_range(self.left, self.right) {
            self.left = ack;
            return AckVerdict::Advance;
        }
        if ack.lt(self.left) {
            AckVerdict::Stale
        } else {
            AckVerdict::Optimistic
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range(l: u32, r: u32) -> MeasurementRange {
        MeasurementRange {
            left: SeqNum(l),
            right: SeqNum(r),
        }
    }

    #[test]
    fn normal_seq_extends_right_edge() {
        let mut mr = range(100, 200);
        assert_eq!(mr.on_seq(SeqNum(200), SeqNum(300)), SeqVerdict::Extend);
        assert_eq!(mr, range(100, 300));
    }

    #[test]
    fn normal_ack_advances_left_edge() {
        let mut mr = range(100, 300);
        assert_eq!(mr.on_ack(SeqNum(200), true), AckVerdict::Advance);
        assert_eq!(mr, range(200, 300));
        assert_eq!(mr.on_ack(SeqNum(300), true), AckVerdict::Advance);
        assert!(mr.is_collapsed());
    }

    #[test]
    fn retransmission_collapses() {
        let mut mr = range(100, 300);
        // eACK 250 <= right edge 300: retransmitted bytes.
        let v = mr.on_seq(SeqNum(150), SeqNum(250));
        assert_eq!(v, SeqVerdict::Retransmission);
        assert!(!v.track());
        assert_eq!(mr, range(300, 300));
        assert!(mr.is_collapsed());
    }

    #[test]
    fn exact_replica_is_retransmission() {
        let mut mr = range(100, 300);
        assert_eq!(
            mr.on_seq(SeqNum(200), SeqNum(300)),
            SeqVerdict::Retransmission
        );
    }

    #[test]
    fn duplicate_ack_collapses() {
        let mut mr = range(100, 300);
        assert_eq!(mr.on_ack(SeqNum(100), true), AckVerdict::DuplicateCollapse);
        assert_eq!(mr, range(300, 300));
    }

    #[test]
    fn stale_and_optimistic_acks_ignored() {
        let mut mr = range(100, 300);
        assert_eq!(mr.on_ack(SeqNum(50), true), AckVerdict::Stale);
        assert_eq!(mr, range(100, 300)); // unchanged
        assert_eq!(mr.on_ack(SeqNum(400), true), AckVerdict::Optimistic);
        assert_eq!(mr, range(100, 300)); // unchanged
        assert!(!AckVerdict::Stale.match_pt());
        assert!(!AckVerdict::Optimistic.match_pt());
    }

    #[test]
    fn data_packet_at_left_edge_does_not_collapse() {
        // A piggybacked ACK re-asserting the edge during a one-way bulk
        // phase is not a duplicate ACK.
        let mut mr = range(100, 300);
        assert_eq!(mr.on_ack(SeqNum(100), false), AckVerdict::Stale);
        assert_eq!(mr, range(100, 300));
        // The genuine pure dup-ACK still collapses.
        assert_eq!(mr.on_ack(SeqNum(100), true), AckVerdict::DuplicateCollapse);
    }

    #[test]
    fn hole_keeps_highest_range_only() {
        let mut mr = range(100, 200);
        // Bytes [250, 350) arrive: [200, 250) is a hole.
        assert_eq!(mr.on_seq(SeqNum(250), SeqNum(350)), SeqVerdict::HoleReset);
        assert_eq!(mr, range(250, 350));
        // The hole-filling packet later looks like a retransmission.
        assert_eq!(
            mr.on_seq(SeqNum(200), SeqNum(250)),
            SeqVerdict::Retransmission
        );
    }

    #[test]
    fn after_collapse_new_data_resumes_tracking() {
        let mut mr = range(100, 300);
        mr.on_seq(SeqNum(150), SeqNum(250)); // retransmission, collapse to [300,300]
        assert_eq!(mr.on_seq(SeqNum(300), SeqNum(400)), SeqVerdict::Extend);
        assert_eq!(mr, range(300, 400));
    }

    #[test]
    fn collapsed_range_ack_at_edge_is_duplicate() {
        let mut mr = range(300, 300);
        assert_eq!(mr.on_ack(SeqNum(300), true), AckVerdict::DuplicateCollapse);
    }

    #[test]
    fn wraparound_resets_left_to_zero() {
        let mut mr = range(u32::MAX - 5000, u32::MAX - 1000);
        let v = mr.on_seq(SeqNum(u32::MAX - 1000), SeqNum(460)); // crosses zero
        assert_eq!(v, SeqVerdict::Wraparound);
        assert!(!v.track());
        assert_eq!(mr.left, SeqNum::ZERO);
        assert_eq!(mr.right, SeqNum(460));
        // ACKs for pre-wrap bytes are now below the left edge: ignored,
        // foregoing top-of-space samples as the paper documents.
        assert_eq!(mr.on_ack(SeqNum(u32::MAX - 2000), true), AckVerdict::Stale);
        // Post-wrap traffic proceeds normally.
        assert_eq!(mr.on_seq(SeqNum(460), SeqNum(1000)), SeqVerdict::Extend);
        assert_eq!(mr.on_ack(SeqNum(460), true), AckVerdict::Advance);
    }

    #[test]
    fn circular_comparisons_span_wrap_seamlessly_after_reset() {
        let mut mr = MeasurementRange::open(SeqNum(u32::MAX - 100), SeqNum(u32::MAX - 50));
        // Data continues to just below the wrap point.
        assert_eq!(
            mr.on_seq(SeqNum(u32::MAX - 50), SeqNum(u32::MAX)),
            SeqVerdict::Extend
        );
        // ACK inside the range.
        assert_eq!(mr.on_ack(SeqNum(u32::MAX - 50), true), AckVerdict::Advance);
    }

    #[test]
    fn open_tracks_first_packet_bounds() {
        let mr = MeasurementRange::open(SeqNum(500), SeqNum(900));
        assert_eq!(mr.left, SeqNum(500));
        assert_eq!(mr.right, SeqNum(900));
        assert!(!mr.is_collapsed());
    }
}
