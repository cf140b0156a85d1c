//! The Packet Tracker (PT) table: outstanding data packets awaiting ACKs.
//!
//! Each tracked data packet is stored keyed by (flow signature, expected
//! ACK) with its arrival timestamp (paper Fig. 2). Two modes:
//!
//! * **Unlimited** — fully associative and unbounded, keyed by the exact
//!   (4-tuple, eACK); the §6.1 idealization.
//! * **Constrained** — `stages` one-way associative register arrays, each
//!   indexed by its own seeded hash unit (one CRC under different seeds:
//!   records sharing a slot in one stage share one in every stage, see
//!   `dart_switch::hash`). A packet gets one register access per
//!   stage per pass, so insertion probes the record's slot in each stage
//!   for an empty home; only when every probed slot is occupied does it
//!   displace the occupant of its *entry stage*, which must then
//!   recirculate for re-validation (§3.2). Incumbents in other stages are
//!   never displaced — "older records are preferred" (§6.2). With one
//!   recirculation allowed, splitting a fixed-size PT into more stages
//!   strands stale records in the later stages (Fig. 12's degradation);
//!   allowing more recirculations lets each trip enter one stage later,
//!   displacing and cleaning those squatters (Fig. 13's recovery).

use crate::config::{PtMode, MAX_RECIRC};
use crate::range_tracker::flow_key_from_wire;
use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};
use dart_packet::{FlowKey, FlowSignature, Nanos, PacketId, SeqNum};
use dart_switch::{HashUnit, Packed, RegisterArray, LIVE};
use std::collections::HashMap;

/// One constrained-mode PT record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PtRecord {
    /// Flow signature (data direction).
    pub sig: FlowSignature,
    /// Expected ACK number.
    pub eack: SeqNum,
    /// Arrival timestamp of the data packet.
    pub ts: Nanos,
    /// Recirculation trips this record has survived.
    pub trips: u32,
}

/// Three words: signature, eACK beside the trip count and [`LIVE`],
/// timestamp. A record at the configuration's `max_recirc` is refused
/// another trip, and the cap is at most [`MAX_RECIRC`] (below 2^31), so bit
/// 31 of the trip count — bit 63 of its word — is free for [`LIVE`]:
/// [`PacketTracker::insert_recirculated`] and a restore refuse any other.
impl Packed for PtRecord {
    type Words = [u64; 3];

    fn pack(&self) -> [u64; 3] {
        [
            self.sig.raw(),
            u64::from(self.eack.raw()) | u64::from(self.trips) << 32 | LIVE,
            self.ts,
        ]
    }

    fn unpack(w: &[u64; 3]) -> PtRecord {
        PtRecord {
            sig: FlowSignature(w[0]),
            eack: SeqNum(w[1] as u32),
            ts: w[2],
            trips: ((w[1] & !LIVE) >> 32) as u32,
        }
    }
}

/// The data-plane registers of one slot, in SALU stage order: `pt_salu`'s
/// signature, eACK and timestamp.
pub(crate) const PT_REGISTERS: [&str; 3] = ["pt_sig", "pt_eack", "pt_ts"];

impl PtRecord {
    /// The record's identity.
    pub fn id(&self) -> PacketId {
        PacketId::new(self.sig, self.eack)
    }

    /// Serialize into a checkpoint payload (24 bytes: sig, eack, ts, trips).
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_u64(self.sig.raw());
        w.put_u32(self.eack.raw());
        w.put_u64(self.ts);
        w.put_u32(self.trips);
    }

    /// Deserialize a record written by [`PtRecord::snapshot_into`],
    /// refusing one on more trips than `max_trips`, the recirculation cap
    /// of the configuration that could have written it.
    pub(crate) fn restore_from(
        r: &mut SnapReader<'_>,
        max_trips: u32,
    ) -> Result<PtRecord, SnapshotError> {
        let rec = PtRecord {
            sig: FlowSignature(r.get_u64()?),
            eack: SeqNum(r.get_u32()?),
            ts: r.get_u64()?,
            trips: r.get_u32()?,
        };
        if rec.trips > max_trips {
            return Err(SnapshotError::Corrupt(format!(
                "PT record on trip {}, the cap is {max_trips}",
                rec.trips
            )));
        }
        Ok(rec)
    }
}

/// Result of inserting a record into the PT.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtInsert {
    /// Stored without displacing anyone (an empty probed slot, or refresh
    /// of a duplicate identity).
    Stored,
    /// Every probed slot was full: stored at the entry stage; the displaced
    /// occupant must be recirculated (or dropped) by the caller.
    StoredEvicting(PtRecord),
    /// Eviction cycle detected (§3.2): the incumbent is the record this one
    /// displaced earlier. The older of the two was kept, the younger
    /// dropped; nothing recirculates.
    CycleBroken {
        /// True when the incumbent survived (the inserting record was
        /// dropped).
        kept_incumbent: bool,
    },
    /// Sketch backend only: stored by overwriting the oldest cell of a full
    /// way set. The victim is gone — fingerprint cells carry no record to
    /// recirculate — and is counted as `sketch_overwritten`. The exact
    /// tracker never returns this.
    StoredOverwriting,
}

/// The bytes every PT stage or way hashes for one record identity, exact
/// and sketch alike: signature then eACK, little-endian.
#[inline]
pub(crate) fn pt_key(id: &PacketId) -> [u8; 12] {
    let mut key = [0u8; 12];
    key[0..8].copy_from_slice(&id.sig.raw().to_le_bytes());
    key[8..12].copy_from_slice(&id.eack.raw().to_le_bytes());
    key
}

enum PtStore {
    Unlimited(HashMap<(FlowKey, SeqNum), Nanos>),
    Constrained {
        stages: Vec<RegisterArray<PtRecord>>,
        hashers: Vec<HashUnit>,
    },
}

/// The Packet Tracker table.
pub struct PacketTracker {
    store: PtStore,
}

/// What an insert does to a slot it accesses, given the slot's occupant:
/// fill it when empty, refresh it when it holds the same identity (tracking
/// restarted on the same byte range), and otherwise leave it be — unless
/// `evict`, when the occupant is displaced. Displacing the record that
/// displaced this one is a cycle (§3.2's cycle detector): the older of the
/// two is kept, the younger dropped, and nothing recirculates. Returns the
/// slot's new contents and, when the insert is settled, its outcome.
fn place(
    old: Option<PtRecord>,
    rec: PtRecord,
    displaced_by: Option<PacketId>,
    evict: bool,
) -> (Option<PtRecord>, Option<PtInsert>) {
    match old {
        None => (Some(rec), Some(PtInsert::Stored)),
        Some(o) if o.id() == rec.id() => (Some(rec), Some(PtInsert::Stored)),
        Some(o) if !evict => (Some(o), None),
        Some(o) if displaced_by == Some(o.id()) => {
            let kept_incumbent = o.ts <= rec.ts;
            let keep = if kept_incumbent { o } else { rec };
            (Some(keep), Some(PtInsert::CycleBroken { kept_incumbent }))
        }
        Some(o) => (Some(rec), Some(PtInsert::StoredEvicting(o))),
    }
}

impl PacketTracker {
    /// Build a tracker in the given mode. `PtMode::Sketch` belongs to
    /// [`crate::SketchPacketTracker`]; handed one anyway, this exact
    /// tracker degrades it to a same-budget `Constrained` table with one
    /// stage per way.
    pub fn new(mode: PtMode) -> PacketTracker {
        let store = match mode {
            PtMode::Unlimited => PtStore::Unlimited(HashMap::new()),
            PtMode::Constrained { slots, stages }
            | PtMode::Sketch {
                slots,
                ways: stages,
            } => {
                assert!(stages >= 1 && slots >= stages);
                let per_stage = slots / stages;
                let arrays = (0..stages)
                    .map(|_| RegisterArray::new("packet_tracker", per_stage))
                    .collect();
                let hashers = (0..stages)
                    .map(|s| HashUnit::new(0xB0 + s as u32, 32))
                    .collect();
                PtStore::Constrained {
                    stages: arrays,
                    hashers,
                }
            }
        };
        PacketTracker { store }
    }

    /// Insert a freshly tracked data packet. `flow` keys the unlimited
    /// store exactly; constrained mode uses only the signature.
    pub fn insert_new(
        &mut self,
        flow: &FlowKey,
        sig: FlowSignature,
        eack: SeqNum,
        ts: Nanos,
    ) -> PtInsert {
        match &mut self.store {
            PtStore::Unlimited(map) => {
                map.insert((*flow, eack), ts);
                PtInsert::Stored
            }
            PtStore::Constrained { .. } => self.insert_constrained(
                PtRecord {
                    sig,
                    eack,
                    ts,
                    trips: 0,
                },
                None,
                0,
            ),
        }
    }

    /// Re-insert a recirculated record that passed RT re-validation.
    /// `displaced_by` is the identity of the record that evicted it, used
    /// for cycle detection.
    ///
    /// Each recirculation trip enters the pipeline one stage later
    /// (`trips mod stages`), so repeated passes probe *alternate locations*
    /// (§6.2, Fig. 13) — and, crucially, displace later-stage squatters,
    /// forcing stale records out to re-validation.
    ///
    /// # Panics
    /// If `rec.trips` exceeds [`MAX_RECIRC`]: the slot could not hold it.
    pub fn insert_recirculated(
        &mut self,
        rec: PtRecord,
        displaced_by: Option<PacketId>,
    ) -> PtInsert {
        assert!(rec.trips <= MAX_RECIRC, "trip count {}", rec.trips);
        match &mut self.store {
            PtStore::Unlimited(_) => {
                unreachable!("unlimited PT never evicts, so nothing recirculates")
            }
            PtStore::Constrained { stages, .. } => {
                let entry = rec.trips as usize % stages.len();
                self.insert_constrained(rec, displaced_by, entry)
            }
        }
    }

    fn insert_constrained(
        &mut self,
        rec: PtRecord,
        displaced_by: Option<PacketId>,
        entry_stage: usize,
    ) -> PtInsert {
        let PtStore::Constrained { stages, hashers } = &mut self.store else {
            unreachable!()
        };
        let n = stages.len();
        let size = stages[0].size();
        let key = pt_key(&rec.id());
        // The entry stage is hashed once: the displacement below lands on
        // the slot the probe pass read first.
        let idx0 = hashers[entry_stage].index(&key, size);

        // Probe pass: one access per stage, looking for an empty home (or a
        // duplicate of ourselves to refresh) from the entry stage onward.
        // When the entry stage is the only stage probed, its one access
        // also displaces.
        let only = entry_stage + 1 == n;
        #[allow(clippy::needless_range_loop)] // stage index feeds the hash choice
        for s in entry_stage..n {
            let idx = if s == entry_stage {
                idx0
            } else {
                hashers[s].index(&key, size)
            };
            if let Some(done) = stages[s].rmw(idx, |old| place(old, rec, displaced_by, only)) {
                return done;
            }
        }

        // Every probed slot is occupied: displace the entry-stage occupant,
        // a second access to the entry stage. An evicting placement always
        // settles; the lint exception documents that proof.
        #[allow(clippy::expect_used)]
        stages[entry_stage]
            .rmw(idx0, |old| place(old, rec, displaced_by, true))
            .expect("an evicting placement settles")
    }

    /// Match an arriving ACK: look up (flow/sig, ack) in every stage and
    /// remove the record on a hit, returning its stored timestamp.
    pub fn match_ack(&mut self, flow: &FlowKey, sig: FlowSignature, ack: SeqNum) -> Option<Nanos> {
        match &mut self.store {
            PtStore::Unlimited(map) => map.remove(&(*flow, ack)),
            PtStore::Constrained { stages, hashers } => {
                let key = pt_key(&PacketId::new(sig, ack));
                let size = stages[0].size();
                #[allow(clippy::needless_range_loop)] // stage index feeds the hash choice
                for s in 0..stages.len() {
                    let idx = hashers[s].index(&key, size);
                    // One access: a hit is cleared as it is read.
                    let ts = stages[s].rmw(idx, |old| match old {
                        Some(r) if r.sig == sig && r.eack == ack => (None, Some(r.ts)),
                        other => (other, None),
                    });
                    if ts.is_some() {
                        return ts;
                    }
                }
                None
            }
        }
    }

    /// Live records (control-plane visibility).
    pub fn occupancy(&self) -> usize {
        match &self.store {
            PtStore::Unlimited(map) => map.len(),
            PtStore::Constrained { stages, .. } => stages.iter().map(|s| s.occupancy()).sum(),
        }
    }

    /// Bytes the table holds (control-plane visibility): the register
    /// arrays', or the unlimited map's entries at its capacity.
    pub(crate) fn resident_bytes(&self) -> usize {
        match &self.store {
            PtStore::Unlimited(map) => map.capacity() * size_of::<((FlowKey, SeqNum), Nanos)>(),
            PtStore::Constrained { stages, .. } => stages.iter().map(|s| s.resident_bytes()).sum(),
        }
    }

    /// Epoch rotation (control-plane): sweep every record whose data packet
    /// was sent before `cutoff` — an ACK that old is either lost or will
    /// produce a sample too stale to trust — returning `(carried, dropped)`
    /// record counts. PT records carry their send timestamp in the data
    /// plane (it *is* the RTT measurement), so rotation judges them by time
    /// directly, unlike the RT's activity generations.
    pub fn rotate(&mut self, cutoff: Nanos) -> (u64, u64) {
        match &mut self.store {
            PtStore::Unlimited(map) => {
                let before = map.len() as u64;
                map.retain(|_, ts| *ts >= cutoff);
                let kept = map.len() as u64;
                (kept, before - kept)
            }
            PtStore::Constrained { stages, .. } => {
                let (mut kept, mut cleared) = (0u64, 0u64);
                for stage in stages {
                    let (k, c) = stage.sweep(|r| r.ts >= cutoff);
                    kept += k;
                    cleared += c;
                }
                (kept, cleared)
            }
        }
    }

    /// Total slots (`usize::MAX` for unlimited mode).
    pub fn capacity(&self) -> usize {
        match &self.store {
            PtStore::Unlimited(_) => usize::MAX,
            PtStore::Constrained { stages, .. } => stages.iter().map(|s| s.size()).sum(),
        }
    }

    /// Serialize every outstanding record into `w` (control plane).
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        match &self.store {
            PtStore::Unlimited(map) => {
                w.put_u8(0);
                w.put_usize(map.len());
                // Sorted by (wire key, eack): HashMap iteration order would
                // make two snapshots of identical state byte-different.
                let mut entries: Vec<_> = map.iter().collect();
                entries.sort_unstable_by_key(|((flow, eack), _)| (flow.to_bytes(), eack.raw()));
                for ((flow, eack), ts) in entries {
                    w.put_bytes(&flow.to_bytes());
                    w.put_u32(eack.raw());
                    w.put_u64(*ts);
                }
            }
            PtStore::Constrained { stages, .. } => {
                w.put_u8(1);
                w.put_usize(stages.len());
                for stage in stages {
                    w.put_usize(stage.size());
                    w.put_usize(stage.occupancy());
                    for (idx, rec) in stage.iter() {
                        w.put_usize(idx);
                        rec.snapshot_into(w);
                    }
                }
            }
        }
    }

    /// Replace this tracker's contents with a checkpointed state written by
    /// [`PacketTracker::snapshot_into`]. The store kind and stage geometry
    /// must match, and no record may be on more trips than `max_trips`.
    pub(crate) fn restore_from(
        &mut self,
        r: &mut SnapReader<'_>,
        max_trips: u32,
    ) -> Result<(), SnapshotError> {
        let tag = r.get_u8()?;
        match (&mut self.store, tag) {
            (PtStore::Unlimited(map), 0) => {
                let count = r.get_usize()?;
                map.clear();
                for _ in 0..count {
                    let flow = flow_key_from_wire(r.get_bytes(12)?);
                    let eack = SeqNum(r.get_u32()?);
                    let ts = r.get_u64()?;
                    map.insert((flow, eack), ts);
                }
            }
            (PtStore::Constrained { stages, .. }, 1) => {
                let n = r.get_usize()?;
                if n != stages.len() {
                    return Err(SnapshotError::Mismatch(format!(
                        "PT snapshot has {n} stages, this tracker has {}",
                        stages.len()
                    )));
                }
                for stage in stages.iter_mut() {
                    let size = r.get_usize()?;
                    if size != stage.size() {
                        return Err(SnapshotError::Mismatch(format!(
                            "PT snapshot stage has {size} slots, this tracker has {}",
                            stage.size()
                        )));
                    }
                    let count = r.get_usize()?;
                    stage.sweep(|_| false);
                    let mut prev = None;
                    for _ in 0..count {
                        let idx = r.get_slot("PT record", size, &mut prev)?;
                        stage.load(idx, PtRecord::restore_from(r, max_trips)?);
                    }
                }
            }
            (_, other) => {
                return Err(SnapshotError::Mismatch(format!(
                    "PT snapshot store kind {other} does not match this tracker"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_packet::SignatureWidth;

    fn flow(n: u32) -> FlowKey {
        FlowKey::from_raw(0x0a00_0000 + n, 40000, 0x0808_0808, 443)
    }

    fn sig(n: u32) -> FlowSignature {
        flow(n).signature(SignatureWidth::W32)
    }

    fn rec(n: u32, eack: u32, ts: Nanos) -> PtRecord {
        PtRecord {
            sig: sig(n),
            eack: SeqNum(eack),
            ts,
            trips: 0,
        }
    }

    #[test]
    fn unlimited_insert_and_match() {
        let mut pt = PacketTracker::new(PtMode::Unlimited);
        assert_eq!(
            pt.insert_new(&flow(1), sig(1), SeqNum(100), 500),
            PtInsert::Stored
        );
        assert_eq!(pt.occupancy(), 1);
        assert_eq!(pt.match_ack(&flow(1), sig(1), SeqNum(100)), Some(500));
        assert_eq!(pt.occupancy(), 0);
        // Second match misses: the record was consumed.
        assert_eq!(pt.match_ack(&flow(1), sig(1), SeqNum(100)), None);
    }

    #[test]
    fn constrained_single_slot_displaces() {
        let mut pt = PacketTracker::new(PtMode::Constrained {
            slots: 1,
            stages: 1,
        });
        assert_eq!(
            pt.insert_new(&flow(1), sig(1), SeqNum(100), 10),
            PtInsert::Stored
        );
        // A different record contends for the single slot.
        match pt.insert_new(&flow(2), sig(2), SeqNum(200), 20) {
            PtInsert::StoredEvicting(old) => {
                assert_eq!(old.sig, sig(1));
                assert_eq!(old.ts, 10);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        // The new record is resident.
        assert_eq!(pt.match_ack(&flow(2), sig(2), SeqNum(200)), Some(20));
    }

    #[test]
    fn duplicate_identity_refreshes_timestamp() {
        let mut pt = PacketTracker::new(PtMode::Constrained {
            slots: 1,
            stages: 1,
        });
        pt.insert_new(&flow(1), sig(1), SeqNum(100), 10);
        assert_eq!(
            pt.insert_new(&flow(1), sig(1), SeqNum(100), 99),
            PtInsert::Stored
        );
        assert_eq!(pt.match_ack(&flow(1), sig(1), SeqNum(100)), Some(99));
    }

    #[test]
    fn cycle_keeps_older_record() {
        let mut pt = PacketTracker::new(PtMode::Constrained {
            slots: 1,
            stages: 1,
        });
        pt.insert_new(&flow(1), sig(1), SeqNum(100), 10);
        // New record displaces the old one.
        let old = match pt.insert_new(&flow(2), sig(2), SeqNum(200), 20) {
            PtInsert::StoredEvicting(o) => o,
            other => panic!("{other:?}"),
        };
        // The displaced (older) record recirculates back, targeting the slot
        // now held by its displacer: cycle. The older record wins.
        let res = pt.insert_recirculated(old, Some(PacketId::new(sig(2), SeqNum(200))));
        assert_eq!(
            res,
            PtInsert::CycleBroken {
                kept_incumbent: false
            }
        );
        assert_eq!(pt.match_ack(&flow(1), sig(1), SeqNum(100)), Some(10));
        assert_eq!(pt.match_ack(&flow(2), sig(2), SeqNum(200)), None);
    }

    #[test]
    fn cycle_keeps_incumbent_when_incumbent_older() {
        let mut pt = PacketTracker::new(PtMode::Constrained {
            slots: 1,
            stages: 1,
        });
        pt.insert_new(&flow(1), sig(1), SeqNum(100), 50);
        let old = match pt.insert_new(&flow(2), sig(2), SeqNum(200), 5) {
            PtInsert::StoredEvicting(o) => o,
            other => panic!("{other:?}"),
        };
        assert_eq!(old.ts, 50);
        // Incumbent (ts=5) is older than the recirculated record (ts=50).
        let res = pt.insert_recirculated(old, Some(PacketId::new(sig(2), SeqNum(200))));
        assert_eq!(
            res,
            PtInsert::CycleBroken {
                kept_incumbent: true
            }
        );
        assert_eq!(pt.match_ack(&flow(2), sig(2), SeqNum(200)), Some(5));
    }

    #[test]
    fn multi_stage_probe_finds_later_stage_home() {
        // 4 slots in 2 stages of 2. Find two records whose stage-1 slots
        // collide: the second must land in its stage-2 slot (probe-for-
        // empty), leaving both matchable with no eviction.
        let mut found = None;
        'outer: for a in 0..200u32 {
            for b in (a + 1)..200u32 {
                let mut probe = PacketTracker::new(PtMode::Constrained {
                    slots: 2,
                    stages: 1,
                });
                probe.insert_new(&flow(a), sig(a), SeqNum(1), 1);
                if let PtInsert::StoredEvicting(_) =
                    probe.insert_new(&flow(b), sig(b), SeqNum(1), 2)
                {
                    found = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (a, b) = found.expect("no stage-1-colliding pair found");
        let mut pt = PacketTracker::new(PtMode::Constrained {
            slots: 4,
            stages: 2,
        });
        assert_eq!(
            pt.insert_new(&flow(a), sig(a), SeqNum(1), 1),
            PtInsert::Stored
        );
        assert_eq!(
            pt.insert_new(&flow(b), sig(b), SeqNum(1), 2),
            PtInsert::Stored,
            "second record probes into stage 2 instead of evicting"
        );
        assert_eq!(pt.match_ack(&flow(a), sig(a), SeqNum(1)), Some(1));
        assert_eq!(pt.match_ack(&flow(b), sig(b), SeqNum(1)), Some(2));
    }

    #[test]
    fn recirculated_record_enters_at_rotated_stage() {
        // With 2 stages, a record on its first recirculation (trips = 1)
        // enters at stage 2: it probes only stage 2 and displaces there if
        // full.
        let mut found = None;
        'outer: for a in 0..200u32 {
            for b in (a + 1)..200u32 {
                let mut probe = PacketTracker::new(PtMode::Constrained {
                    slots: 2,
                    stages: 1,
                });
                probe.insert_new(&flow(a), sig(a), SeqNum(1), 1);
                if let PtInsert::StoredEvicting(_) =
                    probe.insert_new(&flow(b), sig(b), SeqNum(1), 2)
                {
                    found = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (a, b) = found.expect("no colliding pair");
        let mut pt = PacketTracker::new(PtMode::Constrained {
            slots: 4,
            stages: 2,
        });
        pt.insert_new(&flow(a), sig(a), SeqNum(1), 1);
        pt.insert_new(&flow(b), sig(b), SeqNum(1), 2); // lands in stage 2
                                                       // A recirculated record with trips = 1 targets stage 2 directly and,
                                                       // finding it occupied by b, displaces b.
        let rec = PtRecord {
            sig: sig(b),
            eack: SeqNum(9),
            ts: 3,
            trips: 1,
        };
        match pt.insert_recirculated(rec, Some(PacketId::new(sig(77), SeqNum(77)))) {
            PtInsert::Stored => {
                // b's stage-2 slot differed from rec's: fine, both live.
                assert_eq!(pt.match_ack(&flow(b), sig(b), SeqNum(1)), Some(2));
            }
            PtInsert::StoredEvicting(old) => {
                assert_eq!(old.sig, sig(b));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn match_miss_returns_none() {
        let mut pt = PacketTracker::new(PtMode::Constrained {
            slots: 8,
            stages: 1,
        });
        pt.insert_new(&flow(1), sig(1), SeqNum(100), 10);
        assert_eq!(pt.match_ack(&flow(1), sig(1), SeqNum(101)), None);
        assert_eq!(pt.match_ack(&flow(9), sig(9), SeqNum(100)), None);
    }

    #[test]
    fn capacity_and_occupancy() {
        let pt = PacketTracker::new(PtMode::Constrained {
            slots: 64,
            stages: 4,
        });
        assert_eq!(pt.capacity(), 64);
        assert_eq!(pt.occupancy(), 0);
        assert_eq!(PacketTracker::new(PtMode::Unlimited).capacity(), usize::MAX);
    }

    /// Rotation sweeps records older than the cutoff in both stores and
    /// leaves fresh ones matchable.
    #[test]
    fn rotation_sweeps_stale_records() {
        for mode in [
            PtMode::Unlimited,
            PtMode::Constrained {
                slots: 64,
                stages: 2,
            },
        ] {
            let mut pt = PacketTracker::new(mode);
            pt.insert_new(&flow(1), sig(1), SeqNum(100), 1_000);
            pt.insert_new(&flow(2), sig(2), SeqNum(200), 5_000);
            pt.insert_new(&flow(3), sig(3), SeqNum(300), 9_000);
            assert_eq!(pt.rotate(5_000), (2, 1), "mode {mode:?}");
            assert_eq!(pt.match_ack(&flow(1), sig(1), SeqNum(100)), None);
            assert_eq!(pt.match_ack(&flow(2), sig(2), SeqNum(200)), Some(5_000));
            assert_eq!(pt.match_ack(&flow(3), sig(3), SeqNum(300)), Some(9_000));
            assert_eq!(pt.occupancy(), 0);
        }
    }

    /// Snapshot then restore into a fresh tracker: every outstanding record
    /// stays matchable with its original timestamp, on both store kinds.
    #[test]
    fn snapshot_restore_round_trips() {
        for mode in [
            PtMode::Unlimited,
            PtMode::Constrained {
                slots: 64,
                stages: 2,
            },
        ] {
            let mut pt = PacketTracker::new(mode);
            for n in 0..10u32 {
                pt.insert_new(&flow(n), sig(n), SeqNum(100 + n), u64::from(1000 + n));
            }
            let mut w = crate::snapshot::SnapWriter::new();
            pt.snapshot_into(&mut w);
            let payload = w.into_payload();

            let mut fresh = PacketTracker::new(mode);
            let mut r = crate::snapshot::SnapReader::new(&payload);
            fresh.restore_from(&mut r, 0).unwrap();
            assert_eq!(r.remaining(), 0);
            assert_eq!(fresh.occupancy(), pt.occupancy());
            for n in 0..10u32 {
                assert_eq!(
                    fresh.match_ack(&flow(n), sig(n), SeqNum(100 + n)),
                    pt.match_ack(&flow(n), sig(n), SeqNum(100 + n)),
                    "record {n} under {mode:?}"
                );
            }
        }
    }

    #[test]
    fn restore_rejects_mismatched_geometry() {
        let mut pt = PacketTracker::new(PtMode::Constrained {
            slots: 64,
            stages: 2,
        });
        pt.insert_new(&flow(1), sig(1), SeqNum(100), 10);
        let mut w = crate::snapshot::SnapWriter::new();
        pt.snapshot_into(&mut w);
        let payload = w.into_payload();
        for wrong in [
            PtMode::Unlimited,
            PtMode::Constrained {
                slots: 64,
                stages: 4,
            },
            PtMode::Constrained {
                slots: 32,
                stages: 2,
            },
        ] {
            let mut tracker = PacketTracker::new(wrong);
            assert!(
                matches!(
                    tracker.restore_from(&mut crate::snapshot::SnapReader::new(&payload), 0),
                    Err(crate::snapshot::SnapshotError::Mismatch(_))
                ),
                "{wrong:?} must be refused"
            );
        }
    }

    /// A stored record's trip count is restored only up to the cap of the
    /// configuration restoring it: a count the slot cannot hold, or one
    /// this configuration could not have reached, is corrupt.
    #[test]
    fn restore_refuses_a_record_over_the_trip_cap() {
        let mode = PtMode::Constrained {
            slots: 64,
            stages: 2,
        };
        let mut pt = PacketTracker::new(mode);
        let mut r = rec(5, 500, 50);
        r.trips = 3;
        pt.insert_recirculated(r, None);
        let mut w = crate::snapshot::SnapWriter::new();
        pt.snapshot_into(&mut w);
        let payload = w.into_payload();
        let restore = |cap| {
            PacketTracker::new(mode)
                .restore_from(&mut crate::snapshot::SnapReader::new(&payload), cap)
        };
        assert!(matches!(
            restore(2),
            Err(crate::snapshot::SnapshotError::Corrupt(_))
        ));
        restore(3).unwrap();
    }

    proptest::proptest! {
        /// Every field value survives the slot's word form — the all-zero
        /// record (`sig 0, eack 0, ts 0, trips 0` is legal) included, which
        /// must not pack to the empty slot. A trip count is at most
        /// [`MAX_RECIRC`] (the configuration refuses a larger cap, and a
        /// record at the cap is refused a further trip), so bit 31 of it is
        /// where [`LIVE`] lives.
        #[test]
        fn record_words_round_trip(sig: u64, eack: u32, ts: u64, trips in 0..=MAX_RECIRC) {
            for r in [
                PtRecord { sig: FlowSignature(sig), eack: SeqNum(eack), ts, trips },
                PtRecord { sig: FlowSignature(0), eack: SeqNum(0), ts: 0, trips: 0 },
                PtRecord {
                    sig: FlowSignature(u64::MAX),
                    eack: SeqNum(u32::MAX),
                    ts: u64::MAX,
                    trips: MAX_RECIRC,
                },
            ] {
                let words = r.pack();
                proptest::prop_assert_ne!(words, [0; 3]);
                proptest::prop_assert_eq!(PtRecord::unpack(&words), r);
            }
        }
    }

    /// The all-zero record in a table: stored, occupied, matched.
    #[test]
    fn the_all_zero_record_is_tracked() {
        let mut pt = PacketTracker::new(PtMode::Constrained {
            slots: 4,
            stages: 1,
        });
        let zero = FlowSignature(0);
        assert_eq!(
            pt.insert_new(&flow(0), zero, SeqNum(0), 0),
            PtInsert::Stored
        );
        assert_eq!(pt.occupancy(), 1);
        assert_eq!(pt.match_ack(&flow(0), zero, SeqNum(0)), Some(0));
        assert_eq!(pt.occupancy(), 0);
    }

    #[test]
    fn eviction_preserves_record_contents() {
        let mut pt = PacketTracker::new(PtMode::Constrained {
            slots: 1,
            stages: 1,
        });
        let mut r = rec(7, 777, 42);
        r.trips = 3;
        pt.insert_recirculated(r, None);
        match pt.insert_new(&flow(8), sig(8), SeqNum(1), 50) {
            PtInsert::StoredEvicting(old) => {
                assert_eq!(old, r); // trips and ts intact
            }
            other => panic!("{other:?}"),
        }
    }
}
