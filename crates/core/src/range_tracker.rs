//! The Range Tracker (RT) table: per-flow measurement ranges.
//!
//! The RT decides, for every data packet, whether it can produce an
//! unambiguous RTT sample (paper §3.1), and re-validates evicted Packet
//! Tracker records during recirculation (§3.2). Two modes exist:
//!
//! * **Unlimited** — fully associative, unbounded, keyed by the exact
//!   4-tuple. This is the `tcptrace_const` idealization of §6.1.
//! * **Constrained** — a one-way associative register array indexed by a
//!   hash of the 32-bit flow signature, exactly one slot per flow, with
//!   hash collisions resolved by favoring the incumbent unless its range
//!   has collapsed (a collapsed entry "can be safely deleted or
//!   overwritten", §3.1).

use crate::config::RtMode;
use crate::range::{AckVerdict, MeasurementRange, SeqVerdict};
use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};
use dart_packet::{FlowKey, FlowSignature, SeqNum, SignatureWidth};
use dart_switch::{HashUnit, Packed, RegisterArray, LIVE};
use std::collections::HashMap;

/// Outcome of offering a data packet to the RT.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtSeqOutcome {
    /// A fresh entry was created for this flow; track the packet.
    Created,
    /// The existing range ruled (Fig. 4); track iff `SeqVerdict::track()`.
    Ruled(SeqVerdict),
    /// The slot is held by a different live flow; the packet is not
    /// tracked (older flows are favored, §7).
    Collision,
    /// Sketch backend only: a fresh entry was created by overwriting the
    /// least-recently-touched *live* occupant of a full way set. The packet
    /// is tracked; the victim's in-flight measurements are silently lost
    /// (counted as `sketch_overwritten`). The exact tracker never returns
    /// this.
    CreatedEvicting,
}

impl RtSeqOutcome {
    /// Should the packet be inserted into the Packet Tracker?
    pub fn track(self) -> bool {
        match self {
            RtSeqOutcome::Created | RtSeqOutcome::CreatedEvicting => true,
            RtSeqOutcome::Ruled(v) => v.track(),
            RtSeqOutcome::Collision => false,
        }
    }
}

/// Outcome of offering an ACK to the RT.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtAckOutcome {
    /// The range ruled on the ACK.
    Ruled(AckVerdict),
    /// No entry for this flow (never created, overwritten, or signature
    /// mismatch); the ACK is ignored.
    NoFlow,
}

impl RtAckOutcome {
    /// Should the Packet Tracker be consulted for a sample?
    pub fn match_pt(self) -> bool {
        matches!(self, RtAckOutcome::Ruled(AckVerdict::Advance))
    }
}

/// One constrained-mode RT record. `gen` is the epoch generation the entry
/// was last touched in: RT entries carry no timestamps in the data plane,
/// so epoch rotation judges staleness by activity generations instead (an
/// entry untouched for a full epoch is swept).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RtEntry {
    sig: FlowSignature,
    range: MeasurementRange,
    gen: u32,
}

/// Three words, the shape `rt_salu` splits across its stages: the signature,
/// the two range edges, and the generation with [`LIVE`] in the spare half.
impl Packed for RtEntry {
    type Words = [u64; 3];

    fn pack(&self) -> [u64; 3] {
        [
            self.sig.raw(),
            self.range.to_word(),
            u64::from(self.gen) | LIVE,
        ]
    }

    fn unpack(w: &[u64; 3]) -> RtEntry {
        RtEntry {
            sig: FlowSignature(w[0]),
            range: MeasurementRange::from_word(w[1]),
            gen: w[2] as u32,
        }
    }
}

/// The data-plane registers of one slot, in SALU stage order: the
/// signature check, then `rt_salu`'s right edge before its left.
pub(crate) const RT_REGISTERS: [&str; 3] = ["rt_sig", "rt_right", "rt_left"];

/// Unlimited-mode record: the range plus the same activity generation.
#[derive(Clone, Copy, Debug)]
struct RtMapEntry {
    range: MeasurementRange,
    gen: u32,
}

/// A pre-resolved RT location for one flow: the data-plane signature plus
/// the slot it hashes to (0 in unlimited mode, which looks up by exact
/// key). The batch pipeline computes these for a whole block up front,
/// prefetches the slots, and the per-packet helpers consume them via
/// [`RangeTracker::on_seq_at`] / [`RangeTracker::on_ack_at`] — sparing the
/// scalar path's second signature computation per role.
#[derive(Clone, Copy, Debug)]
pub struct RtSlot {
    sig: FlowSignature,
    idx: usize,
}

impl RtSlot {
    /// The flow's signature under the tracker's configured width.
    #[inline]
    pub fn sig(&self) -> FlowSignature {
        self.sig
    }

    /// Assemble a location (backend implementations in this crate; the
    /// sketch tracker packs two way indices into `idx`).
    #[inline]
    pub(crate) fn from_parts(sig: FlowSignature, idx: usize) -> RtSlot {
        RtSlot { sig, idx }
    }

    /// The raw packed index (backend implementations in this crate).
    #[inline]
    pub(crate) fn idx(&self) -> usize {
        self.idx
    }
}

impl Default for RtSlot {
    fn default() -> RtSlot {
        RtSlot {
            sig: FlowSignature(0),
            idx: 0,
        }
    }
}

enum RtStore {
    Unlimited(HashMap<FlowKey, RtMapEntry>),
    Constrained {
        slots: RegisterArray<RtEntry>,
        hasher: HashUnit,
    },
}

/// The Range Tracker table.
pub struct RangeTracker {
    store: RtStore,
    sig_width: SignatureWidth,
    /// Current epoch generation; entries are stamped with it on every
    /// touch and [`RangeTracker::rotate`] sweeps entries left behind.
    epoch: u32,
}

impl RangeTracker {
    /// Build a tracker in the given mode. `RtMode::Sketch` belongs to
    /// [`crate::SketchRangeTracker`]; handed one anyway, this exact tracker
    /// degrades it to a same-budget one-way `Constrained` table.
    pub fn new(mode: RtMode, sig_width: SignatureWidth) -> RangeTracker {
        let store = match mode {
            RtMode::Unlimited => RtStore::Unlimited(HashMap::new()),
            RtMode::Constrained { slots } | RtMode::Sketch { slots, .. } => RtStore::Constrained {
                slots: RegisterArray::new("range_tracker", slots),
                hasher: HashUnit::new(0xA0, 32),
            },
        };
        RangeTracker {
            store,
            sig_width,
            epoch: 0,
        }
    }

    /// The data-plane signature of a flow under this tracker's width.
    pub fn sig(&self, flow: &FlowKey) -> FlowSignature {
        flow.signature(self.sig_width)
    }

    fn index(hasher: &HashUnit, size: usize, sig: FlowSignature) -> usize {
        hasher.index(&sig.raw().to_le_bytes(), size)
    }

    /// Resolve where `flow` lives: its signature plus its slot index. Pure
    /// (no table access), so the batch decode pass can pre-hash a whole
    /// block before any slot is touched.
    #[inline]
    pub fn locate(&self, flow: &FlowKey) -> RtSlot {
        let sig = flow.signature(self.sig_width);
        let idx = match &self.store {
            RtStore::Unlimited(_) => 0,
            RtStore::Constrained { slots, hasher } => Self::index(hasher, slots.size(), sig),
        };
        RtSlot { sig, idx }
    }

    /// Warm a located slot into cache (no register access; unlimited mode
    /// is a no-op since it has no slot array to warm).
    #[inline]
    pub fn prefetch(&self, at: &RtSlot) {
        if let RtStore::Constrained { slots, .. } = &self.store {
            slots.prefetch(at.idx);
        }
    }

    /// Offer a data packet occupying `[seq, eack)` on `flow`.
    pub fn on_seq(&mut self, flow: &FlowKey, seq: SeqNum, eack: SeqNum) -> RtSeqOutcome {
        let at = self.locate(flow);
        self.on_seq_at(flow, &at, seq, eack)
    }

    /// [`RangeTracker::on_seq`] with a pre-resolved location (batch path).
    /// `at` must come from `locate(flow)` on this tracker.
    pub fn on_seq_at(
        &mut self,
        flow: &FlowKey,
        at: &RtSlot,
        seq: SeqNum,
        eack: SeqNum,
    ) -> RtSeqOutcome {
        let gen = self.epoch;
        match &mut self.store {
            RtStore::Unlimited(map) => match map.get_mut(flow) {
                Some(e) => {
                    e.gen = gen;
                    RtSeqOutcome::Ruled(e.range.on_seq(seq, eack))
                }
                None => {
                    map.insert(
                        *flow,
                        RtMapEntry {
                            range: MeasurementRange::open(seq, eack),
                            gen,
                        },
                    );
                    RtSeqOutcome::Created
                }
            },
            RtStore::Constrained { slots, .. } => {
                let sig = at.sig;
                let idx = at.idx;
                slots.rmw(idx, |old| match old {
                    Some(mut e) if e.sig == sig => {
                        let v = e.range.on_seq(seq, eack);
                        e.gen = gen;
                        (Some(e), RtSeqOutcome::Ruled(v))
                    }
                    Some(e) if !e.range.is_collapsed() => {
                        // Different live flow holds the slot: favor it. The
                        // interloper's packet does not refresh the
                        // incumbent's generation.
                        (Some(e), RtSeqOutcome::Collision)
                    }
                    _ => {
                        // Empty, or a collapsed entry we may overwrite.
                        let e = RtEntry {
                            sig,
                            range: MeasurementRange::open(seq, eack),
                            gen,
                        };
                        (Some(e), RtSeqOutcome::Created)
                    }
                })
            }
        }
    }

    /// Offer an ACK numbered `ack` for the data-direction `flow`; `pure`
    /// marks a payload-free ACK (required for duplicate-ACK inference).
    pub fn on_ack(&mut self, flow: &FlowKey, ack: SeqNum, pure: bool) -> RtAckOutcome {
        let at = self.locate(flow);
        self.on_ack_at(flow, &at, ack, pure)
    }

    /// [`RangeTracker::on_ack`] with a pre-resolved location (batch path).
    /// `at` must come from `locate(flow)` on this tracker.
    pub fn on_ack_at(
        &mut self,
        flow: &FlowKey,
        at: &RtSlot,
        ack: SeqNum,
        pure: bool,
    ) -> RtAckOutcome {
        let gen = self.epoch;
        match &mut self.store {
            RtStore::Unlimited(map) => match map.get_mut(flow) {
                Some(e) => {
                    e.gen = gen;
                    RtAckOutcome::Ruled(e.range.on_ack(ack, pure))
                }
                None => RtAckOutcome::NoFlow,
            },
            RtStore::Constrained { slots, .. } => {
                let sig = at.sig;
                let idx = at.idx;
                slots.rmw(idx, |old| match old {
                    Some(mut e) if e.sig == sig => {
                        let v = e.range.on_ack(ack, pure);
                        e.gen = gen;
                        (Some(e), RtAckOutcome::Ruled(v))
                    }
                    other => (other, RtAckOutcome::NoFlow),
                })
            }
        }
    }

    /// Re-validate an evicted Packet Tracker record during recirculation
    /// (§3.2): is `eack` still inside the flow's measurement range
    /// `(left, right]`? A recirculated record carries only its flow
    /// signature, so that is all this check may use. Unlimited mode never
    /// evicts, hence never recirculates; it conservatively answers `false`.
    pub fn revalidate(&mut self, sig: FlowSignature, eack: SeqNum) -> bool {
        match &mut self.store {
            RtStore::Unlimited(_) => false,
            RtStore::Constrained { slots, hasher } => {
                let idx = Self::index(hasher, slots.size(), sig);
                match slots.read(idx) {
                    Some(e) if e.sig == sig => eack.in_range(e.range.left, e.range.right),
                    _ => false,
                }
            }
        }
    }

    /// Current number of live entries (control-plane visibility; drives the
    /// Fig. 10 memory-saving report).
    pub fn occupancy(&self) -> usize {
        match &self.store {
            RtStore::Unlimited(map) => map.len(),
            RtStore::Constrained { slots, .. } => slots.occupancy(),
        }
    }

    /// Epoch rotation (control-plane): sweep every entry not touched since
    /// the previous rotation, then open a new generation. Returns
    /// `(carried, dropped)` flow counts.
    ///
    /// RT entries carry no timestamps — the data plane spends its SALU
    /// budget on the range bounds — so unlike the Packet Tracker (which
    /// judges records by their stored send timestamp against a cutoff) the
    /// exact RT uses activity generations: a flow survives a rotation iff
    /// it saw at least one packet during the epoch that just closed.
    /// Without any rotation, behavior is identical to the unrotated
    /// tracker.
    pub fn rotate(&mut self) -> (u64, u64) {
        let gen = self.epoch;
        let counts = match &mut self.store {
            RtStore::Unlimited(map) => {
                let before = map.len() as u64;
                map.retain(|_, e| e.gen == gen);
                let kept = map.len() as u64;
                (kept, before - kept)
            }
            RtStore::Constrained { slots, .. } => slots.sweep(|e| e.gen == gen),
        };
        self.epoch = self.epoch.wrapping_add(1);
        counts
    }

    /// Read a flow's current range, if present (tests / control plane).
    pub fn peek(&mut self, flow: &FlowKey) -> Option<MeasurementRange> {
        match &mut self.store {
            RtStore::Unlimited(map) => map.get(flow).map(|e| e.range),
            RtStore::Constrained { slots, hasher } => {
                let sig = flow.signature(self.sig_width);
                let idx = Self::index(hasher, slots.size(), sig);
                match slots.read(idx) {
                    Some(e) if e.sig == sig => Some(e.range),
                    _ => None,
                }
            }
        }
    }

    /// Serialize the epoch generation and every live entry into `w`
    /// (control plane: the checkpoint writer walking the table).
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_u32(self.epoch);
        match &self.store {
            RtStore::Unlimited(map) => {
                w.put_u8(0);
                w.put_usize(map.len());
                // Sorted by wire key: HashMap iteration order would make
                // two snapshots of identical state byte-different.
                let mut entries: Vec<_> = map.iter().collect();
                entries.sort_unstable_by_key(|(flow, _)| flow.to_bytes());
                for (flow, e) in entries {
                    w.put_bytes(&flow.to_bytes());
                    w.put_u32(e.range.left.raw());
                    w.put_u32(e.range.right.raw());
                    w.put_u32(e.gen);
                }
            }
            RtStore::Constrained { slots, .. } => {
                w.put_u8(1);
                w.put_usize(slots.size());
                w.put_usize(slots.occupancy());
                for (idx, e) in slots.iter() {
                    w.put_usize(idx);
                    w.put_u64(e.sig.raw());
                    w.put_u32(e.range.left.raw());
                    w.put_u32(e.range.right.raw());
                    w.put_u32(e.gen);
                }
            }
        }
    }

    /// Replace this tracker's contents with a checkpointed state written by
    /// [`RangeTracker::snapshot_into`]. The store kind and geometry must
    /// match the snapshot's (a mismatch means the snapshot was taken under
    /// a different configuration and every slot index would be wrong).
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let epoch = r.get_u32()?;
        let tag = r.get_u8()?;
        match (&mut self.store, tag) {
            (RtStore::Unlimited(map), 0) => {
                let count = r.get_usize()?;
                map.clear();
                for _ in 0..count {
                    let kb = r.get_bytes(12)?;
                    let flow = flow_key_from_wire(kb);
                    let left = SeqNum(r.get_u32()?);
                    let right = SeqNum(r.get_u32()?);
                    let gen = r.get_u32()?;
                    map.insert(
                        flow,
                        RtMapEntry {
                            range: MeasurementRange { left, right },
                            gen,
                        },
                    );
                }
            }
            (RtStore::Constrained { slots, .. }, 1) => {
                let size = r.get_usize()?;
                if size != slots.size() {
                    return Err(SnapshotError::Mismatch(format!(
                        "RT snapshot has {size} slots, this tracker has {}",
                        slots.size()
                    )));
                }
                let count = r.get_usize()?;
                slots.sweep(|_| false);
                let mut prev = None;
                for _ in 0..count {
                    let idx = r.get_slot("RT entry", size, &mut prev)?;
                    let sig = FlowSignature(r.get_u64()?);
                    let left = SeqNum(r.get_u32()?);
                    let right = SeqNum(r.get_u32()?);
                    let gen = r.get_u32()?;
                    slots.load(
                        idx,
                        RtEntry {
                            sig,
                            range: MeasurementRange { left, right },
                            gen,
                        },
                    );
                }
            }
            (_, other) => {
                return Err(SnapshotError::Mismatch(format!(
                    "RT snapshot store kind {other} does not match this tracker"
                )));
            }
        }
        self.epoch = epoch;
        Ok(())
    }
}

/// Rebuild a [`FlowKey`] from the 12-byte wire representation produced by
/// [`FlowKey::to_bytes`] (big-endian src ip, dst ip, src port, dst port).
pub(crate) fn flow_key_from_wire(b: &[u8]) -> FlowKey {
    FlowKey::new(
        std::net::Ipv4Addr::new(b[0], b[1], b[2], b[3]),
        u16::from_be_bytes([b[8], b[9]]),
        std::net::Ipv4Addr::new(b[4], b[5], b[6], b[7]),
        u16::from_be_bytes([b[10], b[11]]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(n: u32) -> FlowKey {
        FlowKey::from_raw(0x0a00_0000 + n, 40000 + (n as u16 % 1000), 0x0808_0808, 443)
    }

    fn rt_unlimited() -> RangeTracker {
        RangeTracker::new(RtMode::Unlimited, SignatureWidth::W32)
    }

    fn rt_small(slots: usize) -> RangeTracker {
        RangeTracker::new(RtMode::Constrained { slots }, SignatureWidth::W32)
    }

    #[test]
    fn creates_then_rules() {
        for mut rt in [rt_unlimited(), rt_small(64)] {
            let f = flow(1);
            assert_eq!(rt.on_seq(&f, SeqNum(0), SeqNum(100)), RtSeqOutcome::Created);
            assert_eq!(
                rt.on_seq(&f, SeqNum(100), SeqNum(200)),
                RtSeqOutcome::Ruled(SeqVerdict::Extend)
            );
            assert_eq!(
                rt.on_ack(&f, SeqNum(100), true),
                RtAckOutcome::Ruled(AckVerdict::Advance)
            );
            assert_eq!(rt.occupancy(), 1);
        }
    }

    #[test]
    fn ack_without_flow_is_ignored() {
        for mut rt in [rt_unlimited(), rt_small(64)] {
            assert_eq!(rt.on_ack(&flow(2), SeqNum(10), true), RtAckOutcome::NoFlow);
            assert!(!rt.on_ack(&flow(2), SeqNum(10), true).match_pt());
        }
    }

    #[test]
    fn revalidate_tracks_range_movement() {
        let mut rt = rt_small(64);
        let f = flow(3);
        let sig = rt.sig(&f);
        rt.on_seq(&f, SeqNum(0), SeqNum(100));
        rt.on_seq(&f, SeqNum(100), SeqNum(200));
        assert!(rt.revalidate(sig, SeqNum(100)));
        assert!(rt.revalidate(sig, SeqNum(200)));
        // ACK 150 moves the left edge past eACK 100.
        rt.on_ack(&f, SeqNum(150), true);
        assert!(!rt.revalidate(sig, SeqNum(100)));
        assert!(rt.revalidate(sig, SeqNum(200)));
        // Unknown flow is never valid.
        let gsig = rt.sig(&flow(4));
        assert!(!rt.revalidate(gsig, SeqNum(100)));
    }

    #[test]
    fn revalidate_false_after_collapse() {
        let mut rt = rt_small(64);
        let f = flow(5);
        let sig = rt.sig(&f);
        rt.on_seq(&f, SeqNum(0), SeqNum(100));
        rt.on_seq(&f, SeqNum(100), SeqNum(200));
        assert!(rt.revalidate(sig, SeqNum(200)));
        // Duplicate ACK collapses the range; everything becomes stale.
        rt.on_ack(&f, SeqNum(0), true);
        assert!(!rt.revalidate(sig, SeqNum(200)));
    }

    #[test]
    fn collision_favors_live_incumbent() {
        // Two flows forced into the same slot of a 1-slot table.
        let mut rt = rt_small(1);
        let a = flow(10);
        let b = flow(11);
        assert_eq!(rt.on_seq(&a, SeqNum(0), SeqNum(100)), RtSeqOutcome::Created);
        assert_eq!(
            rt.on_seq(&b, SeqNum(0), SeqNum(100)),
            RtSeqOutcome::Collision
        );
        assert!(!rt.on_seq(&b, SeqNum(100), SeqNum(200)).track());
        // ACKs for the interloper miss too (signature mismatch).
        assert_eq!(rt.on_ack(&b, SeqNum(100), true), RtAckOutcome::NoFlow);
    }

    #[test]
    fn collapsed_incumbent_is_overwritten() {
        let mut rt = rt_small(1);
        let a = flow(10);
        let b = flow(11);
        rt.on_seq(&a, SeqNum(0), SeqNum(100));
        // Retransmission collapses a's range.
        rt.on_seq(&a, SeqNum(0), SeqNum(100));
        assert!(rt.peek(&a).unwrap().is_collapsed());
        // b may now claim the slot.
        assert_eq!(rt.on_seq(&b, SeqNum(0), SeqNum(50)), RtSeqOutcome::Created);
        assert!(rt.peek(&b).is_some());
        assert!(rt.peek(&a).is_none());
    }

    #[test]
    fn unlimited_never_collides() {
        let mut rt = rt_unlimited();
        for n in 0..1000 {
            assert_eq!(
                rt.on_seq(&flow(n), SeqNum(0), SeqNum(100)),
                RtSeqOutcome::Created
            );
        }
        assert_eq!(rt.occupancy(), 1000);
    }

    /// The located (`_at`) entry points must behave identically to the
    /// self-locating ones — the batch path rides on this.
    #[test]
    fn located_paths_match_plain_paths() {
        for (mut plain, mut located) in
            [(rt_unlimited(), rt_unlimited()), (rt_small(8), rt_small(8))]
        {
            for step in 0..200u32 {
                let f = flow(step % 13);
                let at = located.locate(&f);
                assert_eq!(at.sig(), located.sig(&f));
                located.prefetch(&at);
                if step % 3 == 2 {
                    let ack = SeqNum(step * 40);
                    assert_eq!(
                        plain.on_ack(&f, ack, true),
                        located.on_ack_at(&f, &at, ack, true),
                        "ack step {step}"
                    );
                } else {
                    let (seq, eack) = (SeqNum(step * 100), SeqNum(step * 100 + 100));
                    assert_eq!(
                        plain.on_seq(&f, seq, eack),
                        located.on_seq_at(&f, &at, seq, eack),
                        "seq step {step}"
                    );
                }
            }
            assert_eq!(plain.occupancy(), located.occupancy());
        }
    }

    /// A flow survives a rotation iff it was touched during the epoch that
    /// just closed; two idle rotations clear everything.
    #[test]
    fn rotation_sweeps_idle_flows() {
        for mut rt in [rt_unlimited(), rt_small(64)] {
            let (a, b) = (flow(1), flow(2));
            rt.on_seq(&a, SeqNum(0), SeqNum(100));
            rt.on_seq(&b, SeqNum(0), SeqNum(100));
            assert_eq!(rt.rotate(), (2, 0), "both touched this epoch");
            // Only `a` stays active in the new epoch (an ACK counts).
            rt.on_ack(&a, SeqNum(100), true);
            assert_eq!(rt.rotate(), (1, 1));
            assert!(rt.peek(&a).is_some());
            assert!(rt.peek(&b).is_none());
            // Fully idle epoch: everything is swept.
            assert_eq!(rt.rotate(), (0, 1));
            assert_eq!(rt.occupancy(), 0);
            // The table remains usable after rotation.
            assert_eq!(rt.on_seq(&b, SeqNum(0), SeqNum(50)), RtSeqOutcome::Created);
        }
    }

    /// An interloper's collision must not refresh the incumbent's
    /// generation: the incumbent is swept once it goes idle even if the
    /// colliding flow keeps hammering the slot.
    #[test]
    fn collision_does_not_refresh_incumbent_generation() {
        let mut rt = rt_small(1);
        let (a, b) = (flow(10), flow(11));
        rt.on_seq(&a, SeqNum(0), SeqNum(100));
        rt.rotate();
        // New epoch: only b (the interloper) sends; a is idle.
        assert_eq!(
            rt.on_seq(&b, SeqNum(0), SeqNum(100)),
            RtSeqOutcome::Collision
        );
        assert_eq!(rt.rotate(), (0, 1), "idle incumbent swept");
        // b can now claim the freed slot.
        assert_eq!(rt.on_seq(&b, SeqNum(0), SeqNum(100)), RtSeqOutcome::Created);
    }

    /// Snapshot then restore into a fresh tracker: identical behaviour on
    /// both store kinds, including the epoch generation (a restored flow is
    /// swept on the same rotation it would have been swept on originally).
    #[test]
    fn snapshot_restore_round_trips() {
        for (mut rt, mode) in [
            (rt_unlimited(), RtMode::Unlimited),
            (rt_small(64), RtMode::Constrained { slots: 64 }),
        ] {
            rt.on_seq(&flow(1), SeqNum(0), SeqNum(100));
            rt.on_seq(&flow(2), SeqNum(50), SeqNum(150));
            rt.rotate(); // epoch 1; both entries now stale-unless-touched
            rt.on_ack(&flow(1), SeqNum(100), true); // refresh flow 1 only
            let mut w = SnapWriter::new();
            rt.snapshot_into(&mut w);
            let payload = w.into_payload();

            let mut fresh = RangeTracker::new(mode, SignatureWidth::W32);
            let mut r = SnapReader::new(&payload);
            fresh.restore_from(&mut r).unwrap();
            assert_eq!(r.remaining(), 0);
            assert_eq!(fresh.occupancy(), 2);
            assert_eq!(fresh.peek(&flow(1)), rt.peek(&flow(1)));
            assert_eq!(fresh.peek(&flow(2)), rt.peek(&flow(2)));
            // Generations survived: the untouched flow is swept, the
            // refreshed one carried — exactly as in the original.
            assert_eq!(fresh.rotate(), rt.rotate());
            assert!(fresh.peek(&flow(1)).is_some());
            assert!(fresh.peek(&flow(2)).is_none());
        }
    }

    #[test]
    fn restore_rejects_mismatched_geometry() {
        let mut rt = rt_small(64);
        rt.on_seq(&flow(1), SeqNum(0), SeqNum(100));
        let mut w = SnapWriter::new();
        rt.snapshot_into(&mut w);
        let payload = w.into_payload();

        let mut wrong_size = rt_small(32);
        assert!(matches!(
            wrong_size.restore_from(&mut SnapReader::new(&payload)),
            Err(SnapshotError::Mismatch(_))
        ));
        let mut wrong_kind = rt_unlimited();
        assert!(matches!(
            wrong_kind.restore_from(&mut SnapReader::new(&payload)),
            Err(SnapshotError::Mismatch(_))
        ));
    }

    /// A hostile table section: an index that repeats (or steps back) is not
    /// something `snapshot_into`'s ascending walk wrote, and with it goes any
    /// entry count the table could not hold.
    #[test]
    fn restore_refuses_slot_indices_out_of_order() {
        let mut rt = rt_small(8);
        for (what, indices) in [("repeated", [3usize, 3]), ("descending", [5, 2])] {
            let mut w = SnapWriter::new();
            w.put_u32(0); // epoch
            w.put_u8(1); // constrained
            w.put_usize(8);
            w.put_usize(indices.len());
            for idx in indices {
                w.put_usize(idx);
                w.put_u64(7);
                w.put_u32(0);
                w.put_u32(100);
                w.put_u32(0);
            }
            let payload = w.into_payload();
            assert!(
                matches!(
                    rt.restore_from(&mut SnapReader::new(&payload)),
                    Err(SnapshotError::Corrupt(_))
                ),
                "{what} indices must be refused"
            );
        }
    }

    proptest::proptest! {
        /// Every field value survives the slot's word form — the all-zero
        /// entry included, which must not pack to the empty slot.
        #[test]
        fn entry_words_round_trip(sig: u64, left: u32, right: u32, gen: u32) {
            for e in [
                RtEntry {
                    sig: FlowSignature(sig),
                    range: MeasurementRange { left: SeqNum(left), right: SeqNum(right) },
                    gen,
                },
                RtEntry {
                    sig: FlowSignature(0),
                    range: MeasurementRange { left: SeqNum(0), right: SeqNum(0) },
                    gen: 0,
                },
                RtEntry {
                    sig: FlowSignature(u64::MAX),
                    range: MeasurementRange { left: SeqNum(u32::MAX), right: SeqNum(u32::MAX) },
                    gen: u32::MAX,
                },
            ] {
                let words = e.pack();
                proptest::prop_assert_ne!(words, [0; 3]);
                proptest::prop_assert_eq!(RtEntry::unpack(&words), e);
            }
        }
    }

    #[test]
    fn flow_key_wire_round_trip() {
        let k = flow(77);
        assert_eq!(flow_key_from_wire(&k.to_bytes()), k);
    }

    #[test]
    fn outcome_track_matrix() {
        assert!(RtSeqOutcome::Created.track());
        assert!(RtSeqOutcome::Ruled(SeqVerdict::Extend).track());
        assert!(RtSeqOutcome::Ruled(SeqVerdict::HoleReset).track());
        assert!(!RtSeqOutcome::Ruled(SeqVerdict::Retransmission).track());
        assert!(!RtSeqOutcome::Ruled(SeqVerdict::Wraparound).track());
        assert!(!RtSeqOutcome::Collision.track());
    }
}
