//! The engine's checkpoint codec: the framed single-engine snapshot and
//! the engine-state section the sharded monitor embeds once per shard.
//! A child of [`super`] so it reads the engine's private state directly.

use super::{BatchScratch, DartEngine, RecircEntry};
use crate::backend::{PtTable, RtTable};
use crate::config::PtMode;
use crate::packet_tracker::PtRecord;
use crate::range::MeasurementRange;
use crate::snapshot::{sane_count, SnapReader, SnapWriter, Snapshot, SnapshotError};
use crate::stats::EngineStats;
use dart_packet::flow::fnv1a_64;
use dart_packet::{FlowSignature, PacketId, SeqNum};
use dart_switch::{RecircStats, Recirculated};

/// Engine-kind tag leading every single-engine snapshot payload; the
/// sharded monitor writes [`crate::sharded`]'s own tag so the two formats
/// can never be restored into the wrong monitor shape.
const SNAP_KIND_ENGINE: u8 = 1;

/// Bytes one record in the recirculation loop occupies in a snapshot: the
/// PT record (24), who displaced it (12), its re-entry time and trip count.
const RECIRC_ENTRY_WIRE_LEN: usize = 24 + 12 + 8 + 4;

impl DartEngine {
    /// Identity of the configuration this engine was built from. Restoring
    /// a snapshot into an engine with a different configuration would
    /// silently mis-key every table (different geometry, signature width,
    /// or backend), so both ends of the snapshot carry this fingerprint.
    fn config_fingerprint(&self) -> u64 {
        fnv1a_64(format!("{:?}", self.cfg).as_bytes())
    }

    /// The single-engine snapshot payload behind
    /// [`RttMonitor::write_snapshot`](crate::monitor::RttMonitor::write_snapshot):
    /// the kind tag, then the engine-state section.
    pub(super) fn encode(&self, w: &mut SnapWriter) {
        w.put_u8(SNAP_KIND_ENGINE);
        self.snapshot_into(w);
    }

    /// The inverse of [`DartEngine::encode`], behind
    /// [`RttMonitor::restore`](crate::monitor::RttMonitor::restore): refuses
    /// another monitor's payload and any bytes past the engine state.
    pub(super) fn decode(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        let mut r = SnapReader::new(snap.payload());
        let kind = r.get_u8()?;
        if kind != SNAP_KIND_ENGINE {
            return Err(SnapshotError::Mismatch(format!(
                "payload kind {kind} is not a single-engine snapshot"
            )));
        }
        self.restore_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the engine state",
                r.remaining()
            )));
        }
        Ok(())
    }

    /// The engine-state section of the payload (no kind tag, no framing):
    /// the sharded monitor embeds one of these per shard inside its own
    /// payload.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_u64(self.config_fingerprint());

        self.stats.snapshot_into(w);

        match &self.rt {
            RtTable::Exact(t) => {
                w.put_u8(0);
                t.snapshot_into(w);
            }
            RtTable::Sketch(t) => {
                w.put_u8(1);
                t.snapshot_into(w);
            }
        }
        match &self.pt {
            PtTable::Exact(t) => {
                w.put_u8(0);
                t.snapshot_into(w);
            }
            PtTable::Sketch(t) => {
                w.put_u8(1);
                t.snapshot_into(w);
            }
        }

        w.put_usize(self.victim_cache.len());
        for rec in &self.victim_cache {
            rec.snapshot_into(w);
        }

        // Records mid-recirculation, plus the port's accumulated books.
        let rstats = self.recirc.stats();
        w.put_u64(rstats.accepted);
        w.put_u64(rstats.refused_cap);
        w.put_usize(rstats.max_queue_depth);
        w.put_usize(self.recirc.in_flight());
        for e in self.recirc.iter() {
            e.record.rec.snapshot_into(w);
            w.put_u64(e.record.displaced_by.sig.0);
            w.put_u32(e.record.displaced_by.eack.0);
            w.put_u64(e.record.ready);
            w.put_u32(e.trips);
        }

        match &self.rt_copy {
            None => w.put_u8(0),
            Some(copy) => {
                w.put_u8(1);
                w.put_u64(copy.sync);
                // Sorted for a deterministic byte stream (HashMap iteration
                // order is not).
                let mut shadow: Vec<_> = copy
                    .shadow
                    .iter()
                    .map(|(sig, (range, at))| (sig.0, range.left.0, range.right.0, *at))
                    .collect();
                shadow.sort_unstable();
                w.put_usize(shadow.len());
                for (sig, left, right, at) in shadow {
                    w.put_u64(sig);
                    w.put_u32(left);
                    w.put_u32(right);
                    w.put_u64(at);
                }
                w.put_usize(copy.pending.len());
                for (at, sig, range) in &copy.pending {
                    w.put_u64(*at);
                    w.put_u64(sig.0);
                    w.put_u32(range.left.0);
                    w.put_u32(range.right.0);
                }
            }
        }

        match &self.admission {
            None => w.put_u8(0),
            Some(gate) => {
                w.put_u8(1);
                gate.snapshot_into(w);
            }
        }
    }

    /// Restore the engine-state section written by
    /// [`DartEngine::snapshot_into`].
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let fp = r.get_u64()?;
        if fp != self.config_fingerprint() {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot was taken under a different configuration \
                 (fingerprint {fp:#018x}, this engine {:#018x})",
                self.config_fingerprint()
            )));
        }

        self.stats = EngineStats::restore_from(r)?;

        let rt_tag = r.get_u8()?;
        match (&mut self.rt, rt_tag) {
            (RtTable::Exact(t), 0) => t.restore_from(r)?,
            (RtTable::Sketch(t), 1) => t.restore_from(r)?,
            (_, tag) => {
                return Err(SnapshotError::Mismatch(format!(
                    "RT backend tag {tag} does not match this engine's backend"
                )))
            }
        }
        let pt_tag = r.get_u8()?;
        match (&mut self.pt, pt_tag) {
            (PtTable::Exact(t), 0) => t.restore_from(r, self.cfg.max_recirc)?,
            (PtTable::Sketch(t), 1) => t.restore_from(r)?,
            (_, tag) => {
                return Err(SnapshotError::Mismatch(format!(
                    "PT backend tag {tag} does not match this engine's backend"
                )))
            }
        }

        // The lengths and trip counts below steer later packets (a spill, a
        // re-insert), so what this configuration could never have produced
        // is refused here, not trusted behind the checksum.
        let vc = r.get_usize()?;
        if vc > self.cfg.victim_cache {
            return Err(SnapshotError::Corrupt(format!(
                "{vc} victim-cache records, this engine caches at most {}",
                self.cfg.victim_cache
            )));
        }
        self.victim_cache.clear();
        for _ in 0..vc {
            self.victim_cache
                .push_back(PtRecord::restore_from(r, self.cfg.max_recirc)?);
        }

        // The depth distribution is live telemetry, not measurement state:
        // it is not in the snapshot and restarts empty.
        let rstats = RecircStats {
            accepted: sane_count("recirculations accepted", r.get_u64()?)?,
            refused_cap: sane_count("recirculations refused", r.get_u64()?)?,
            max_queue_depth: r.get_usize()?,
            ..RecircStats::default()
        };
        let depth = r.get_usize()?;
        // Only a constrained exact PT evicts; the unlimited store and the
        // sketch never hand a record to the recirculation loop.
        if depth > 0 && !matches!(self.cfg.pt, PtMode::Constrained { .. }) {
            return Err(SnapshotError::Corrupt(format!(
                "{depth} records in recirculation, but this engine's PT never evicts"
            )));
        }
        // Room for what the payload can still hold, not for what it claims.
        let mut entries = Vec::with_capacity(depth.min(r.remaining() / RECIRC_ENTRY_WIRE_LEN));
        for _ in 0..depth {
            let rec = PtRecord::restore_from(r, self.cfg.max_recirc)?;
            let displaced_by = PacketId::new(FlowSignature(r.get_u64()?), SeqNum(r.get_u32()?));
            let ready = r.get_u64()?;
            let trips = r.get_u32()?;
            if trips > self.cfg.max_recirc {
                return Err(SnapshotError::Corrupt(format!(
                    "recirculating record on trip {trips}, the cap is {}",
                    self.cfg.max_recirc
                )));
            }
            entries.push(Recirculated {
                record: RecircEntry {
                    rec,
                    displaced_by,
                    ready,
                },
                trips,
            });
        }
        self.recirc.restore(entries, rstats);
        self.recirc_synced = rstats;

        let copy_tag = r.get_u8()?;
        match (&mut self.rt_copy, copy_tag) {
            (None, 0) => {}
            (Some(copy), 1) => {
                let sync = r.get_u64()?;
                if sync != copy.sync {
                    return Err(SnapshotError::Mismatch(format!(
                        "RT-copy sync lag {sync} ns, this engine is configured for {}",
                        copy.sync
                    )));
                }
                copy.shadow.clear();
                let n = r.get_usize()?;
                for _ in 0..n {
                    let sig = FlowSignature(r.get_u64()?);
                    let range = MeasurementRange {
                        left: SeqNum(r.get_u32()?),
                        right: SeqNum(r.get_u32()?),
                    };
                    let at = r.get_u64()?;
                    copy.shadow.insert(sig, (range, at));
                }
                copy.pending.clear();
                let n = r.get_usize()?;
                for _ in 0..n {
                    let at = r.get_u64()?;
                    let sig = FlowSignature(r.get_u64()?);
                    let range = MeasurementRange {
                        left: SeqNum(r.get_u32()?),
                        right: SeqNum(r.get_u32()?),
                    };
                    copy.pending.push_back((at, sig, range));
                }
            }
            (_, tag) => {
                return Err(SnapshotError::Mismatch(format!(
                    "RT-copy section tag {tag} does not match this engine"
                )))
            }
        }

        let gate_tag = r.get_u8()?;
        match (&mut self.admission, gate_tag) {
            (None, 0) => {}
            (Some(gate), 1) => gate.restore_from(r)?,
            (_, tag) => {
                return Err(SnapshotError::Mismatch(format!(
                    "admission section tag {tag} does not match this engine"
                )))
            }
        }

        // The batch scratch is a pure cache (locations are pure functions
        // of packet and geometry), but start it cold anyway.
        self.scratch = BatchScratch::default();
        self.sync_telemetry();
        Ok(())
    }
}
