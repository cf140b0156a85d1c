//! The flow-state backend seam: the [`RtTable`] / [`PtTable`] enums the
//! engine stores, one `match` away from the concrete trackers.
//!
//! [`crate::DartEngine`] is generic over *behaviour*, not over types. The
//! backend set is closed — the exact register tables (the reference,
//! byte-identical to the pre-seam engine under the golden conformance
//! suite), the sketch tables of [`crate::sketch`], and probabilistic
//! recirculation admission, which is an engine gate over the exact tables —
//! so every table operation is an inherent method matching on two variants:
//! one predictable branch, no virtual call and no trait between the engine
//! and the tracker. Each arm spells out the argument mapping of its tracker
//! (the sketch takes no `flow`, the exact RT no `now` or `cutoff`); exact arms
//! inline into the caller, sketch arms run behind `outlined`.
//!
//! Every variant must satisfy three contracts (DESIGN.md §5h):
//!
//! 1. **Pure resolution** — `locate` must not read or write table contents.
//!    The batch pipeline resolves locations ahead of execution and memoizes
//!    them across packets; resolution that depended on table state would
//!    silently diverge between the streaming and batch paths.
//! 2. **Located ≡ self-locating** — `on_seq_at(.., locate(f), ..)` must
//!    behave exactly like the tracker's self-locating `on_seq(f, ..)`;
//!    likewise for ACKs. Every tracker carries a property test for this.
//! 3. **No fabrication** — a backend may *lose* state (collisions, recency
//!    eviction, fingerprint overwrite) but must never answer a lookup with
//!    state that was not inserted under a verifying identity. Loss must
//!    surface in outcomes the engine counts (`sketch_overwritten`,
//!    `ack_no_flow`, unmatched `ack_advanced`), so the testkit loss budget
//!    stays a sound upper bound.

use crate::config::{PtMode, RtMode};
use crate::packet_tracker::{PacketTracker, PtInsert, PtRecord};
use crate::range::MeasurementRange;
use crate::range_tracker::{RangeTracker, RtAckOutcome, RtSeqOutcome, RtSlot};
use crate::sketch::{SketchPacketTracker, SketchRangeTracker};
use dart_packet::{FlowKey, FlowSignature, Nanos, PacketId, SeqNum, SignatureWidth};

/// The decode half of the batch pipeline, per tracker: the one generic
/// bound left, so `steady!` can monomorphise `decode_and_warm` over the
/// concrete tracker it matched (see `DartEngine`'s `on_batch`).
pub(crate) trait RtLocate {
    /// Resolve where `flow` lives. **Pure**: no table access.
    fn locate(&self, flow: &FlowKey) -> RtSlot;
    /// Warm a located slot into cache (no register access).
    fn prefetch(&self, at: &RtSlot);
}

impl RtLocate for RangeTracker {
    #[inline]
    fn locate(&self, flow: &FlowKey) -> RtSlot {
        RangeTracker::locate(self, flow)
    }

    #[inline]
    fn prefetch(&self, at: &RtSlot) {
        RangeTracker::prefetch(self, at)
    }
}

/// Runs a sketch arm out of line. The engine's fused batch loop inlines the
/// table calls of whichever variants the optimizer pulls in, and carrying
/// *both* backends' bodies in the loop cost the exact path ~12 % of its batch
/// rate when the seam went in (PR 8, campus trace, in-memory `on_batch`:
/// ≈ 29 → ≈ 25.5 M pkts/s; `core.engine.exact.batch_ns_per_pkt` is the ledger
/// row that would show it today). Behind one call the exact reference path
/// stays as tight as it was before the seam; the sketch backend pays a
/// predicted call per table op, noise next to its own cache behaviour.
#[cold]
#[inline(never)]
fn outlined<T, R>(tracker: T, op: impl FnOnce(T) -> R) -> R {
    op(tracker)
}

impl RtLocate for SketchRangeTracker {
    #[inline]
    fn locate(&self, flow: &FlowKey) -> RtSlot {
        outlined(self, |t| t.locate(flow))
    }

    #[inline]
    fn prefetch(&self, at: &RtSlot) {
        outlined(self, |t| t.prefetch(at))
    }
}

impl RtLocate for RtTable {
    #[inline]
    fn locate(&self, flow: &FlowKey) -> RtSlot {
        match self {
            RtTable::Exact(t) => t.locate(flow),
            RtTable::Sketch(t) => RtLocate::locate(t, flow),
        }
    }

    #[inline]
    fn prefetch(&self, at: &RtSlot) {
        match self {
            RtTable::Exact(t) => t.prefetch(at),
            RtTable::Sketch(t) => RtLocate::prefetch(t, at),
        }
    }
}

/// Closed static dispatch over the Range Tracker backends (per-flow
/// measurement ranges). `now` is the packet timestamp: the sketch ages
/// entries by it; the exact tracker is stateless in time and ignores it.
pub enum RtTable {
    /// The exact reference tables (unlimited or constrained).
    Exact(RangeTracker),
    /// The recency-aged set-associative sketch.
    Sketch(SketchRangeTracker),
}

impl RtTable {
    /// Build the backend a mode describes.
    pub fn new(mode: RtMode, sig_width: SignatureWidth) -> RtTable {
        match mode {
            RtMode::Sketch { .. } => RtTable::Sketch(SketchRangeTracker::new(mode, sig_width)),
            _ => RtTable::Exact(RangeTracker::new(mode, sig_width)),
        }
    }

    /// Offer a data packet occupying `[seq, eack)` at `at = locate(flow)`.
    #[inline]
    pub fn on_seq_at(
        &mut self,
        flow: &FlowKey,
        at: &RtSlot,
        seq: SeqNum,
        eack: SeqNum,
        now: Nanos,
    ) -> RtSeqOutcome {
        match self {
            RtTable::Exact(t) => t.on_seq_at(flow, at, seq, eack),
            RtTable::Sketch(t) => outlined(t, move |t| t.on_seq_at(at, seq, eack, now)),
        }
    }

    /// Offer an ACK numbered `ack` at `at = locate(flow)`; `pure` marks a
    /// payload-free ACK.
    #[inline]
    pub fn on_ack_at(
        &mut self,
        flow: &FlowKey,
        at: &RtSlot,
        ack: SeqNum,
        pure: bool,
        now: Nanos,
    ) -> RtAckOutcome {
        match self {
            RtTable::Exact(t) => t.on_ack_at(flow, at, ack, pure),
            RtTable::Sketch(t) => outlined(t, move |t| t.on_ack_at(at, ack, pure, now)),
        }
    }

    /// Re-validate an evicted PT record during recirculation (§3.2).
    #[inline]
    pub fn revalidate(&mut self, sig: FlowSignature, eack: SeqNum) -> bool {
        match self {
            RtTable::Exact(t) => t.revalidate(sig, eack),
            RtTable::Sketch(t) => outlined(t, move |t| t.revalidate(sig, eack)),
        }
    }

    /// Epoch rotation (control plane): `(carried, dropped)` flow counts. The
    /// sketch sweeps entries whose recency stamp predates `cutoff`; the exact
    /// tracker carries no timestamps and sweeps entries untouched for a whole
    /// activity generation instead (`cutoff` unused).
    pub fn rotate(&mut self, cutoff: Nanos) -> (u64, u64) {
        match self {
            RtTable::Exact(t) => t.rotate(),
            RtTable::Sketch(t) => t.rotate(cutoff),
        }
    }

    /// Live entries (control plane).
    pub fn occupancy(&self) -> usize {
        match self {
            RtTable::Exact(t) => t.occupancy(),
            RtTable::Sketch(t) => t.occupancy(),
        }
    }

    /// Bytes the table holds (control plane).
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            RtTable::Exact(t) => t.resident_bytes(),
            RtTable::Sketch(t) => t.resident_bytes(),
        }
    }

    /// A flow's current range, if present (tests / control plane).
    pub fn peek(&mut self, flow: &FlowKey) -> Option<MeasurementRange> {
        match self {
            RtTable::Exact(t) => t.peek(flow),
            RtTable::Sketch(t) => t.peek(flow),
        }
    }
}

/// Closed static dispatch over the Packet Tracker backends (outstanding
/// data packets). Self-hashing only: the PT is consulted after a rare RT
/// outcome, so nothing pre-resolves its slots (DESIGN.md §5f).
pub enum PtTable {
    /// The exact reference tables (unlimited or constrained).
    Exact(PacketTracker),
    /// The compact fingerprint sketch.
    Sketch(SketchPacketTracker),
}

impl PtTable {
    /// Build the backend a mode describes.
    pub fn new(mode: PtMode) -> PtTable {
        match mode {
            PtMode::Sketch { .. } => PtTable::Sketch(SketchPacketTracker::new(mode)),
            _ => PtTable::Exact(PacketTracker::new(mode)),
        }
    }

    /// Insert a freshly tracked data packet.
    #[inline]
    pub fn insert_new(
        &mut self,
        flow: &FlowKey,
        sig: FlowSignature,
        eack: SeqNum,
        ts: Nanos,
    ) -> PtInsert {
        match self {
            PtTable::Exact(t) => t.insert_new(flow, sig, eack, ts),
            PtTable::Sketch(t) => outlined(t, move |t| t.insert_new(sig, eack, ts)),
        }
    }

    /// Re-insert a recirculated record that passed RT re-validation.
    #[inline]
    pub fn insert_recirculated(
        &mut self,
        rec: PtRecord,
        displaced_by: Option<PacketId>,
    ) -> PtInsert {
        match self {
            PtTable::Exact(t) => t.insert_recirculated(rec, displaced_by),
            PtTable::Sketch(t) => outlined(t, move |t| t.insert_recirculated(rec)),
        }
    }

    /// Match an arriving ACK, consuming the record.
    #[inline]
    pub fn match_ack(&mut self, flow: &FlowKey, sig: FlowSignature, ack: SeqNum) -> Option<Nanos> {
        match self {
            PtTable::Exact(t) => t.match_ack(flow, sig, ack),
            PtTable::Sketch(t) => outlined(t, move |t| t.match_ack(sig, ack)),
        }
    }

    /// Epoch rotation (control plane): sweep records sent before `cutoff`,
    /// returning `(carried, dropped)` record counts.
    pub fn rotate(&mut self, cutoff: Nanos) -> (u64, u64) {
        match self {
            PtTable::Exact(t) => t.rotate(cutoff),
            PtTable::Sketch(t) => t.rotate(cutoff),
        }
    }

    /// Live records (control plane).
    pub fn occupancy(&self) -> usize {
        match self {
            PtTable::Exact(t) => t.occupancy(),
            PtTable::Sketch(t) => t.occupancy(),
        }
    }

    /// Bytes the table holds (control plane).
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            PtTable::Exact(t) => t.resident_bytes(),
            PtTable::Sketch(t) => t.resident_bytes(),
        }
    }

    /// Total slots (`usize::MAX` for unlimited).
    pub fn capacity(&self) -> usize {
        match self {
            PtTable::Exact(t) => t.capacity(),
            PtTable::Sketch(t) => t.capacity(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(n: u32) -> FlowKey {
        FlowKey::from_raw(0x0a00_0000 + n, 40000, 0x0808_0808, 443)
    }

    fn show(outcome: impl std::fmt::Debug) -> String {
        format!("{outcome:?}")
    }

    /// Both dispatcher variants satisfy the backend contract through one
    /// code path: exercise a small workload through the trait object-free
    /// enum and check the backends stay self-consistent.
    #[test]
    fn dispatchers_route_to_the_right_backend() {
        let exact = RtTable::new(RtMode::Constrained { slots: 64 }, SignatureWidth::W32);
        assert!(matches!(exact, RtTable::Exact(_)));
        let sketch = RtTable::new(RtMode::Sketch { slots: 64, ways: 2 }, SignatureWidth::W32);
        assert!(matches!(sketch, RtTable::Sketch(_)));
        let exact_pt = PtTable::new(PtMode::Constrained {
            slots: 8,
            stages: 1,
        });
        assert!(matches!(exact_pt, PtTable::Exact(_)));
        let sketch_pt = PtTable::new(PtMode::Sketch { slots: 8, ways: 4 });
        assert!(matches!(sketch_pt, PtTable::Sketch(_)));
    }

    /// One pinned op sequence through each enum and through the concrete
    /// tracker it wraps (reached by destructuring a twin): equal outcomes at
    /// every step and equal occupancy after it, for all four variants. No
    /// trait signature holds the arms to their argument mapping any more —
    /// a swapped `seq`/`eack`, a dropped `cutoff` or a lost `displaced_by`
    /// diverges here.
    #[test]
    fn enum_dispatch_matches_direct_calls() {
        let width = SignatureWidth::W32;
        // Step → (flow, op, time). Ops 0–5 cycle against 11 (RT) or 23 (PT)
        // flows, op 6 (rotation) comes every 150 steps, and after step 450
        // only five flows stay active so a rotation has idle state to drop.
        let schedule = |step: u32, flows: u32| {
            let n = step % if step < 450 { flows } else { 5 };
            let op = if step % 150 == 149 { 6 } else { step % 6 };
            (n as usize, flow(n), op, u64::from(step) * 1_000)
        };
        for mode in [
            RtMode::Constrained { slots: 32 },
            RtMode::Sketch { slots: 32, ways: 2 },
        ] {
            let (mut table, mut twin) = (RtTable::new(mode, width), RtTable::new(mode, width));
            let mut sent = [0u32; 11]; // per flow: the next byte to send
            for step in 0..900u32 {
                let (n, f, op, now) = schedule(step, 11);
                let (seq, eack) = (SeqNum(sent[n]), SeqNum(sent[n] + 100));
                let (pure, cutoff) = (step % 2 == 0, now.saturating_sub(100_000));
                let at = table.locate(&f);
                table.prefetch(&at);
                let got = match op {
                    0 | 1 => show(table.on_seq_at(&f, &at, seq, eack, now)),
                    2 => show(table.peek(&f)),
                    3 | 4 => show(table.on_ack_at(&f, &at, seq, pure, now)),
                    5 => show(table.revalidate(at.sig(), seq)),
                    _ => show(table.rotate(cutoff)),
                };
                let want = match (&mut twin, op) {
                    (RtTable::Exact(t), 0 | 1) => show(t.on_seq_at(&f, &t.locate(&f), seq, eack)),
                    (RtTable::Exact(t), 3 | 4) => show(t.on_ack_at(&f, &t.locate(&f), seq, pure)),
                    (RtTable::Exact(t), 5) => show(t.revalidate(t.sig(&f), seq)),
                    (RtTable::Exact(t), 2) => show(t.peek(&f)),
                    (RtTable::Exact(t), _) => show(t.rotate()),
                    (RtTable::Sketch(t), 0 | 1) => show(t.on_seq_at(&t.locate(&f), seq, eack, now)),
                    (RtTable::Sketch(t), 3 | 4) => show(t.on_ack_at(&t.locate(&f), seq, pure, now)),
                    (RtTable::Sketch(t), 5) => show(t.revalidate(t.sig(&f), seq)),
                    (RtTable::Sketch(t), 2) => show(t.peek(&f)),
                    (RtTable::Sketch(t), _) => show(t.rotate(cutoff)),
                };
                assert_eq!(got, want, "{mode:?} step {step} op {op}");
                if op <= 1 {
                    sent[n] += 100;
                }
            }
            let live = match &twin {
                RtTable::Exact(t) => t.occupancy(),
                RtTable::Sketch(t) => t.occupancy(),
            };
            assert!(live > 0);
            assert_eq!(table.occupancy(), live, "{mode:?}");
        }

        let (slots, stages) = (16, 2);
        for mode in [
            PtMode::Constrained { slots, stages },
            PtMode::Sketch { slots, ways: 4 },
        ] {
            let (mut table, mut twin) = (PtTable::new(mode), PtTable::new(mode));
            assert_eq!(table.capacity(), slots);
            let mut sent = [0u32; 23];
            // The last eviction, re-offered at the next op 4 the way the
            // engine does: its displacer's identity alongside, for cycle
            // detection.
            let mut evicted: Option<(PtRecord, PacketId)> = None;
            for step in 0..900u32 {
                let (n, f, op, now) = schedule(step, 23);
                let (sig, acked, eack) =
                    (f.signature(width), SeqNum(sent[n]), SeqNum(sent[n] + 100));
                let (trips, cutoff) = (step % 3, now.saturating_sub(30_000));
                let reoffered = if op == 4 { evicted.take() } else { None };
                let (rec, by) = match reoffered {
                    Some((old, by)) => (old, Some(by)),
                    None => (
                        PtRecord {
                            sig,
                            eack,
                            ts: now,
                            trips,
                        },
                        None,
                    ),
                };
                let got = match op {
                    0..=2 | 5 => show(table.insert_new(&f, sig, eack, now)),
                    3 => show(table.match_ack(&f, sig, acked)),
                    4 => show(table.insert_recirculated(rec, by)),
                    _ => show(table.rotate(cutoff)),
                };
                let (want, live) = match (&mut twin, op) {
                    (PtTable::Exact(t), 0..=2 | 5) => {
                        let out = t.insert_new(&f, sig, eack, now);
                        if let PtInsert::StoredEvicting(old) = out {
                            evicted = Some((old, PacketId::new(sig, eack)));
                        }
                        (show(out), t.occupancy())
                    }
                    (PtTable::Exact(t), 3) => (show(t.match_ack(&f, sig, acked)), t.occupancy()),
                    (PtTable::Exact(t), 4) => (show(t.insert_recirculated(rec, by)), t.occupancy()),
                    (PtTable::Exact(t), _) => (show(t.rotate(cutoff)), t.occupancy()),
                    (PtTable::Sketch(t), 0..=2 | 5) => {
                        (show(t.insert_new(sig, eack, now)), t.occupancy())
                    }
                    (PtTable::Sketch(t), 3) => (show(t.match_ack(sig, acked)), t.occupancy()),
                    (PtTable::Sketch(t), 4) => (show(t.insert_recirculated(rec)), t.occupancy()),
                    (PtTable::Sketch(t), _) => (show(t.rotate(cutoff)), t.occupancy()),
                };
                assert_eq!(got, want, "{mode:?} step {step} op {op}");
                assert_eq!(table.occupancy(), live, "{mode:?} step {step}");
                if matches!(op, 0..=2 | 5) {
                    sent[n] += 100;
                }
            }
        }
    }
}
