//! Sketch-backed flow state: the memory-frontier backends.
//!
//! The exact RT/PT register tables cap the concurrent-flow population a
//! fixed SRAM budget can carry (the paper stops at 1.38M connections).
//! This module stretches the same memory to about 10× that population
//! (`BENCH_memory_frontier.json`) with bounded, *counted* error, following
//! two lines of related work:
//!
//! * **DUNE-style sketch tables** ([`SketchRangeTracker`],
//!   [`SketchPacketTracker`]) — set-associative ways with recency-based
//!   eviction (RT) and compact fingerprint cells with oldest-first
//!   overwrite (PT). Dead flows never pin a slot forever, so under churn
//!   the tables keep serving the *live* population; each overwrite of a
//!   live record is counted (`sketch_overwritten`) and surfaces in the
//!   loss budget instead of fabricating samples.
//! * **Probabilistic recirculation** (Ben Basat et al.) —
//!   [`AdmissionGate`] spends the recirculation budget only on evictions
//!   surviving a seeded coin flip, with a [`CountMinSketch`]-backed
//!   [`HeavyHitters`] bypass so elephant flows keep their in-flight
//!   measurements deterministically.
//!
//! Everything here is deterministic: hashing is seeded CRC (the same
//! [`HashUnit`] primitive the exact tables use), the coin flip is a pure
//! function of `(seed, record)`, and the heavy-hitter store is a plain
//! vector — so batch and streaming replays stay bit-identical, shard merges
//! are order-independent, and every test can pin seeds.

use crate::config::{PtMode, RtMode};
use crate::packet_tracker::{pt_key, PtInsert, PtRecord};
use crate::range::MeasurementRange;
use crate::range_tracker::{RtAckOutcome, RtSeqOutcome, RtSlot};
use crate::snapshot::{SnapReader, SnapWriter, SnapshotError};
use dart_packet::{FlowKey, FlowSignature, Nanos, PacketId, SeqNum, SignatureWidth};
use dart_switch::{HashUnit, Packed, RegisterArray, LIVE};

/// Deterministic 64-bit finalizer (splitmix64): the admission coin flip
/// and fingerprint whitening.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

// ---------------------------------------------------------------------------
// Count-min sketch + heavy hitters (shared with `dart_analytics::sketch`)
// ---------------------------------------------------------------------------

/// A count-min sketch: `depth` rows of `width` counters, each row indexed
/// by its own seeded [`HashUnit`]. Estimates are upper bounds — collisions
/// only inflate counts — which is the right direction for a heavy-hitter
/// gate (false *admissions*, never false denials of a true elephant).
/// The rows are one CRC under different seeds, not independent hashes: over
/// a power-of-two `width`, two keys that collide in one row collide in
/// every row, so extra depth tightens nothing there (DESIGN.md §5f, "One
/// linear map"). The bound's direction does not depend on it.
///
/// This is the one CMS implementation in the workspace; `analytics`
/// re-exports it next to the P² quantile sketch.
#[derive(Clone, Debug)]
pub struct CountMinSketch {
    width: usize,
    rows: Vec<Vec<u32>>,
    hashers: Vec<HashUnit>,
}

impl CountMinSketch {
    /// Build a sketch of `depth` rows × `width` counters, hashed under
    /// `seed`.
    pub fn new(width: usize, depth: usize, seed: u64) -> CountMinSketch {
        assert!(width >= 1 && depth >= 1, "CMS needs at least one counter");
        CountMinSketch {
            width,
            rows: vec![vec![0; width]; depth],
            hashers: (0..depth)
                .map(|d| HashUnit::new(0xC0 ^ (mix64(seed ^ d as u64) as u32), 32))
                .collect(),
        }
    }

    /// Add one occurrence of `key`, returning the updated (min-row)
    /// estimate.
    pub fn increment(&mut self, key: u64) -> u32 {
        let bytes = key.to_le_bytes();
        let mut est = u32::MAX;
        for (row, hasher) in self.rows.iter_mut().zip(&self.hashers) {
            let idx = hasher.index(&bytes, self.width);
            row[idx] = row[idx].saturating_add(1);
            est = est.min(row[idx]);
        }
        est
    }

    /// The current (upper-bound) count estimate for `key`.
    pub fn estimate(&self, key: u64) -> u32 {
        let bytes = key.to_le_bytes();
        self.rows
            .iter()
            .zip(&self.hashers)
            .map(|(row, hasher)| row[hasher.index(&bytes, self.width)])
            .min()
            .unwrap_or(0)
    }

    /// Total counters held (control-plane memory report).
    pub fn counters(&self) -> usize {
        self.rows.len() * self.width
    }

    /// Serialize dimensions and every counter into `w` (control plane).
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_usize(self.width);
        w.put_usize(self.rows.len());
        for row in &self.rows {
            for &c in row {
                w.put_u32(c);
            }
        }
    }

    /// Replace the counters with a checkpointed state written by
    /// [`CountMinSketch::snapshot_into`]. Dimensions must match (the hash
    /// seeds come from the configuration, so same-config means same row
    /// indexing).
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let width = r.get_usize()?;
        let depth = r.get_usize()?;
        if width != self.width || depth != self.rows.len() {
            return Err(SnapshotError::Mismatch(format!(
                "CMS snapshot is {width}x{depth}, this sketch is {}x{}",
                self.width,
                self.rows.len()
            )));
        }
        for row in &mut self.rows {
            for c in row.iter_mut() {
                *c = r.get_u32()?;
            }
        }
        Ok(())
    }
}

/// A CMS-filtered top-K heavy-hitter store: keys whose estimated count
/// beats the current top-K minimum are promoted, evicting the smallest
/// member. Deterministic — the store is a plain vector, ties keep the
/// incumbent — so replays are reproducible.
#[derive(Clone, Debug)]
pub struct HeavyHitters {
    cms: CountMinSketch,
    capacity: usize,
    top: Vec<(u64, u32)>,
}

impl HeavyHitters {
    /// Track up to `capacity` keys over a `width × depth` CMS.
    pub fn new(capacity: usize, width: usize, depth: usize, seed: u64) -> HeavyHitters {
        HeavyHitters {
            cms: CountMinSketch::new(width, depth, seed),
            capacity,
            top: Vec::with_capacity(capacity),
        }
    }

    /// Record one occurrence of `key`, promoting it into the top set when
    /// its estimate beats the current minimum.
    pub fn observe(&mut self, key: u64) {
        let est = self.cms.increment(key);
        if self.capacity == 0 {
            return;
        }
        if let Some(entry) = self.top.iter_mut().find(|(k, _)| *k == key) {
            entry.1 = est;
            return;
        }
        if self.top.len() < self.capacity {
            self.top.push((key, est));
            return;
        }
        // Full: challenge the smallest member (first minimum wins ties, so
        // the scan is deterministic).
        let (mi, &(_, mc)) = match self.top.iter().enumerate().min_by_key(|(_, (_, c))| *c) {
            Some(m) => m,
            None => return,
        };
        if est > mc {
            self.top[mi] = (key, est);
        }
    }

    /// Is `key` currently a tracked heavy hitter?
    pub fn contains(&self, key: u64) -> bool {
        self.top.iter().any(|(k, _)| *k == key)
    }

    /// The current top set, largest first (control plane / reports).
    pub fn top(&self) -> Vec<(u64, u32)> {
        let mut v = self.top.clone();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// The underlying CMS (estimate queries, memory report).
    pub fn cms(&self) -> &CountMinSketch {
        &self.cms
    }

    /// Serialize the top set and the CMS counters into `w`.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_usize(self.capacity);
        w.put_usize(self.top.len());
        for &(key, count) in &self.top {
            w.put_u64(key);
            w.put_u32(count);
        }
        self.cms.snapshot_into(w);
    }

    /// Replace the top set and CMS counters with a checkpointed state
    /// written by [`HeavyHitters::snapshot_into`].
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let capacity = r.get_usize()?;
        if capacity != self.capacity {
            return Err(SnapshotError::Mismatch(format!(
                "heavy-hitter snapshot capacity {capacity}, this store holds {}",
                self.capacity
            )));
        }
        let len = r.get_usize()?;
        if len > capacity {
            return Err(SnapshotError::Corrupt(format!(
                "heavy-hitter snapshot has {len} entries over capacity {capacity}"
            )));
        }
        self.top.clear();
        for _ in 0..len {
            let key = r.get_u64()?;
            let count = r.get_u32()?;
            self.top.push((key, count));
        }
        self.cms.restore_from(r)
    }
}

// ---------------------------------------------------------------------------
// Probabilistic-recirculation admission gate (`dart@precision`)
// ---------------------------------------------------------------------------

/// The admission gate's count-min sketch: counters per row, and rows.
pub(crate) const CMS_WIDTH: usize = 512;
pub(crate) const CMS_DEPTH: usize = 2;

/// What the admission gate decided for one evicted record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The flow is a tracked heavy hitter: recirculate unconditionally.
    Heavy,
    /// The record survived the seeded coin flip.
    Sampled,
    /// Denied: the recirculation budget is not spent on this record.
    Denied,
}

/// The `dart@precision` gate: evicted Packet Tracker records pay a
/// recirculation only when their flow is a tracked heavy hitter or they
/// survive a `2^-sample_shift` coin flip keyed on `(seed, sig, eack, ts)`.
///
/// The flip is a pure function of the record, so admission is independent
/// of packet interleaving — the batch pipeline and the streaming path make
/// identical decisions.
#[derive(Clone, Debug)]
pub struct AdmissionGate {
    hh: HeavyHitters,
    mask: u64,
    seed: u64,
}

impl AdmissionGate {
    /// Build a gate admitting `2^-sample_shift` of evictions by coin flip
    /// plus up to `hh_capacity` heavy-hitter flows unconditionally.
    pub fn new(sample_shift: u32, hh_capacity: usize, seed: u64) -> AdmissionGate {
        AdmissionGate {
            hh: HeavyHitters::new(hh_capacity, CMS_WIDTH, CMS_DEPTH, seed),
            mask: (1u64 << sample_shift.min(63)) - 1,
            seed,
        }
    }

    /// Feed one tracked data packet's flow signature (keeps the
    /// heavy-hitter estimates current).
    #[inline]
    pub fn on_tracked(&mut self, sig: FlowSignature) {
        self.hh.observe(sig.raw());
    }

    /// Rule on one evicted record.
    #[inline]
    pub fn admit(&self, rec: &PtRecord) -> Admission {
        if self.hh.contains(rec.sig.raw()) {
            return Admission::Heavy;
        }
        let key =
            self.seed ^ rec.sig.raw() ^ (u64::from(rec.eack.raw()) << 32) ^ rec.ts.rotate_left(17);
        if mix64(key) & self.mask == 0 {
            Admission::Sampled
        } else {
            Admission::Denied
        }
    }

    /// Serialize the gate's identity (mask, seed) and heavy-hitter book
    /// into `w`. The coin flip itself is stateless — only the elephant set
    /// must survive a restart, or a heavy flow would lose its deterministic
    /// recirculation bypass after recovery.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_u64(self.mask);
        w.put_u64(self.seed);
        self.hh.snapshot_into(w);
    }

    /// Restore a gate checkpointed by [`AdmissionGate::snapshot_into`];
    /// the mask and seed (configuration identity) must match.
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let mask = r.get_u64()?;
        let seed = r.get_u64()?;
        if mask != self.mask || seed != self.seed {
            return Err(SnapshotError::Mismatch(format!(
                "admission-gate snapshot (mask {mask:#x}, seed {seed:#x}) does not match \
                 this gate (mask {:#x}, seed {:#x})",
                self.mask, self.seed
            )));
        }
        self.hh.restore_from(r)
    }
}

// ---------------------------------------------------------------------------
// Sketch Range Tracker (`dart@sketch` RT)
// ---------------------------------------------------------------------------

/// One sketch-RT entry: the exact entry plus a recency stamp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SketchRtEntry {
    sig: FlowSignature,
    range: MeasurementRange,
    last: Nanos,
}

/// Four words: the exact entry's first two, then the 64-bit recency stamp
/// where the exact entry keeps a 32-bit generation — which leaves no spare
/// bit, so [`LIVE`] gets a word of its own and the entry stays 32 bytes.
impl Packed for SketchRtEntry {
    type Words = [u64; 4];

    fn pack(&self) -> [u64; 4] {
        [self.sig.raw(), self.range.to_word(), self.last, LIVE]
    }

    fn unpack(w: &[u64; 4]) -> SketchRtEntry {
        SketchRtEntry {
            sig: FlowSignature(w[0]),
            range: MeasurementRange::from_word(w[1]),
            last: w[2],
        }
    }
}

/// The data-plane registers of one way's slot, in SALU stage order: the
/// exact slot's three, then the recency stamp.
pub(crate) const SKETCH_RT_REGISTERS: [&str; 4] = ["rt_sig", "rt_right", "rt_left", "rt_recency"];

/// A set-associative Range Tracker with recency eviction: `ways`
/// independently hashed ways of `slots / ways` entries each. Where the
/// exact one-way table rejects a new flow whose slot is held by another
/// *live* flow — leaking slots to dead flows forever under churn — this
/// tracker overwrites the least-recently-touched occupant of the full way
/// set ([`RtSeqOutcome::CreatedEvicting`]).
///
/// The overwritten flow's later ACKs miss on signature and fall out as
/// `ack_no_flow`: loss is counted, samples are never fabricated.
pub struct SketchRangeTracker {
    ways: Vec<RegisterArray<SketchRtEntry>>,
    hashers: Vec<HashUnit>,
    sig_width: SignatureWidth,
    way_size: usize,
}

/// The sketch RT packs both way indices into `RtSlot::idx` (way 0 in the
/// low 32 bits, way 1 in the high), so the pure `locate` contract the batch
/// pipeline relies on is preserved without growing the slot struct.
const WAY_SHIFT: u32 = 32;

impl SketchRangeTracker {
    /// Build a sketch RT from its mode. Panics if handed a non-sketch mode
    /// (the engine routes those to the exact tracker).
    pub fn new(mode: RtMode, sig_width: SignatureWidth) -> SketchRangeTracker {
        let RtMode::Sketch { slots, ways } = mode else {
            panic!("SketchRangeTracker requires RtMode::Sketch, got {mode:?}")
        };
        assert!((1..=2).contains(&ways), "sketch RT supports 1 or 2 ways");
        assert!(slots >= ways, "sketch RT needs at least one slot per way");
        let way_size = slots / ways;
        assert!(
            (way_size as u64) <= u64::from(u32::MAX),
            "sketch RT way exceeds the packed 32-bit index range"
        );
        SketchRangeTracker {
            ways: (0..ways)
                .map(|_| RegisterArray::new("range_tracker_sketch", way_size))
                .collect(),
            hashers: (0..ways)
                .map(|w| HashUnit::new(0xA8 + w as u32, 32))
                .collect(),
            sig_width,
            way_size,
        }
    }

    /// The data-plane signature of a flow under this tracker's width.
    pub fn sig(&self, flow: &FlowKey) -> FlowSignature {
        flow.signature(self.sig_width)
    }

    #[inline]
    fn indices_of(&self, sig: FlowSignature) -> (usize, usize) {
        let bytes = sig.raw().to_le_bytes();
        let i0 = self.hashers[0].index(&bytes, self.way_size);
        let i1 = if self.ways.len() == 2 {
            self.hashers[1].index(&bytes, self.way_size)
        } else {
            i0
        };
        (i0, i1)
    }

    #[inline]
    fn unpack(at: &RtSlot) -> (usize, usize) {
        let packed = at.idx();
        (packed & (u32::MAX as usize), packed >> WAY_SHIFT)
    }

    /// Resolve where `flow` may live: its signature plus both way indices,
    /// packed. Pure (no table access) — the batch decode pass depends on
    /// that.
    #[inline]
    pub fn locate(&self, flow: &FlowKey) -> RtSlot {
        let sig = flow.signature(self.sig_width);
        let (i0, i1) = self.indices_of(sig);
        RtSlot::from_parts(sig, i0 | (i1 << WAY_SHIFT))
    }

    /// Warm both located way slots into cache.
    #[inline]
    pub fn prefetch(&self, at: &RtSlot) {
        let (i0, i1) = Self::unpack(at);
        self.ways[0].prefetch(i0);
        if let Some(w1) = self.ways.get(1) {
            w1.prefetch(i1);
        }
    }

    /// Offer a data packet occupying `[seq, eack)`; `now` drives the
    /// recency stamps.
    pub fn on_seq(
        &mut self,
        flow: &FlowKey,
        seq: SeqNum,
        eack: SeqNum,
        now: Nanos,
    ) -> RtSeqOutcome {
        let at = self.locate(flow);
        self.on_seq_at(&at, seq, eack, now)
    }

    /// [`SketchRangeTracker::on_seq`] with a pre-resolved location (batch
    /// path). `at` must come from `locate(flow)` on this tracker.
    pub fn on_seq_at(
        &mut self,
        at: &RtSlot,
        seq: SeqNum,
        eack: SeqNum,
        now: Nanos,
    ) -> RtSeqOutcome {
        let sig = at.sig();
        let (i0, i1) = Self::unpack(at);
        let idx = [i0, i1];

        // Pass 1: does the flow already live in a way?
        for (w, &i) in idx.iter().enumerate().take(self.ways.len()) {
            let hit = self.ways[w].rmw(i, |old| match old {
                Some(mut e) if e.sig == sig => {
                    let v = e.range.on_seq(seq, eack);
                    e.last = now;
                    (Some(e), Some(RtSeqOutcome::Ruled(v)))
                }
                other => (other, None),
            });
            if let Some(out) = hit {
                return out;
            }
        }

        // Pass 2: claim an empty or collapsed way.
        let fresh = SketchRtEntry {
            sig,
            range: MeasurementRange::open(seq, eack),
            last: now,
        };
        for (w, &i) in idx.iter().enumerate().take(self.ways.len()) {
            let claimed = self.ways[w].rmw(i, |old| match old {
                Some(e) if !e.range.is_collapsed() => (Some(e), false),
                _ => (Some(fresh), true),
            });
            if claimed {
                return RtSeqOutcome::Created;
            }
        }

        // Pass 3: every way holds a different live flow — overwrite the
        // least recently touched one (recency eviction; this is what keeps
        // the table serving the live population under churn).
        let victim_way = if self.ways.len() == 2 {
            let age0 = self.ways[0].read(i0).map(|e| e.last).unwrap_or(0);
            let age1 = self.ways[1].read(i1).map(|e| e.last).unwrap_or(0);
            usize::from(age1 < age0)
        } else {
            0
        };
        self.ways[victim_way].rmw(idx[victim_way], |_| (Some(fresh), ()));
        RtSeqOutcome::CreatedEvicting
    }

    /// Offer an ACK numbered `ack`; `pure` marks a payload-free ACK.
    pub fn on_ack(&mut self, flow: &FlowKey, ack: SeqNum, pure: bool, now: Nanos) -> RtAckOutcome {
        let at = self.locate(flow);
        self.on_ack_at(&at, ack, pure, now)
    }

    /// [`SketchRangeTracker::on_ack`] with a pre-resolved location (batch
    /// path).
    pub fn on_ack_at(&mut self, at: &RtSlot, ack: SeqNum, pure: bool, now: Nanos) -> RtAckOutcome {
        let sig = at.sig();
        let (i0, i1) = Self::unpack(at);
        let idx = [i0, i1];
        for (w, &i) in idx.iter().enumerate().take(self.ways.len()) {
            let hit = self.ways[w].rmw(i, |old| match old {
                Some(mut e) if e.sig == sig => {
                    let v = e.range.on_ack(ack, pure);
                    e.last = now;
                    (Some(e), Some(RtAckOutcome::Ruled(v)))
                }
                other => (other, None),
            });
            if let Some(out) = hit {
                return out;
            }
        }
        RtAckOutcome::NoFlow
    }

    /// Re-validate an evicted PT record (§3.2), same contract as the exact
    /// tracker's.
    pub fn revalidate(&mut self, sig: FlowSignature, eack: SeqNum) -> bool {
        let (i0, i1) = self.indices_of(sig);
        let idx = [i0, i1];
        for (w, &i) in idx.iter().enumerate().take(self.ways.len()) {
            let valid = match self.ways[w].read(i) {
                Some(e) if e.sig == sig => eack.in_range(e.range.left, e.range.right),
                _ => false,
            };
            if valid {
                return true;
            }
        }
        false
    }

    /// Epoch rotation (control-plane): sweep every entry whose recency
    /// stamp predates `cutoff`, returning `(carried, dropped)` flow counts.
    /// The sketch already stamps entries with the packet clock for LRU
    /// eviction, so rotation is a plain cutoff sweep over the ways.
    pub fn rotate(&mut self, cutoff: Nanos) -> (u64, u64) {
        let (mut kept, mut cleared) = (0u64, 0u64);
        for way in &mut self.ways {
            let (k, c) = way.sweep(|e| e.last >= cutoff);
            kept += k;
            cleared += c;
        }
        (kept, cleared)
    }

    /// Current number of live entries.
    pub fn occupancy(&self) -> usize {
        self.ways.iter().map(|w| w.occupancy()).sum()
    }

    /// Bytes the ways hold (control-plane visibility).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.ways.iter().map(|w| w.resident_bytes()).sum()
    }

    /// Read a flow's current range, if present (tests / control plane).
    pub fn peek(&mut self, flow: &FlowKey) -> Option<MeasurementRange> {
        let sig = flow.signature(self.sig_width);
        let (i0, i1) = self.indices_of(sig);
        let idx = [i0, i1];
        for (w, &i) in idx.iter().enumerate().take(self.ways.len()) {
            if let Some(e) = self.ways[w].read(i) {
                if e.sig == sig {
                    return Some(e.range);
                }
            }
        }
        None
    }

    /// Serialize every live entry of every way into `w` (control plane).
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_usize(self.ways.len());
        w.put_usize(self.way_size);
        for way in &self.ways {
            w.put_usize(way.occupancy());
            for (idx, e) in way.iter() {
                w.put_usize(idx);
                w.put_u64(e.sig.raw());
                w.put_u32(e.range.left.raw());
                w.put_u32(e.range.right.raw());
                w.put_u64(e.last);
            }
        }
    }

    /// Replace this tracker's contents with a checkpointed state written by
    /// [`SketchRangeTracker::snapshot_into`]. Way count and way size must
    /// match.
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let ways = r.get_usize()?;
        let way_size = r.get_usize()?;
        if ways != self.ways.len() || way_size != self.way_size {
            return Err(SnapshotError::Mismatch(format!(
                "sketch RT snapshot is {ways}x{way_size}, this tracker is {}x{}",
                self.ways.len(),
                self.way_size
            )));
        }
        for way in &mut self.ways {
            let count = r.get_usize()?;
            way.sweep(|_| false);
            let mut prev = None;
            for _ in 0..count {
                let idx = r.get_slot("sketch RT entry", way_size, &mut prev)?;
                let sig = FlowSignature(r.get_u64()?);
                let left = SeqNum(r.get_u32()?);
                let right = SeqNum(r.get_u32()?);
                let last = r.get_u64()?;
                way.load(
                    idx,
                    SketchRtEntry {
                        sig,
                        range: MeasurementRange { left, right },
                        last,
                    },
                );
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Sketch Packet Tracker (`dart@sketch` PT)
// ---------------------------------------------------------------------------

/// One sketch-PT cell: a 32-bit record fingerprint plus the arrival
/// timestamp — two data-plane registers against the exact record's three
/// (signature, eACK, timestamp; `SKETCH_PT_REGISTERS`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SketchPtCell {
    fp: u32,
    ts: Nanos,
}

/// Two words: the timestamp, and the fingerprint with [`LIVE`] in the spare
/// half.
impl Packed for SketchPtCell {
    type Words = [u64; 2];

    fn pack(&self) -> [u64; 2] {
        [self.ts, u64::from(self.fp) | LIVE]
    }

    fn unpack(w: &[u64; 2]) -> SketchPtCell {
        SketchPtCell {
            fp: w[1] as u32,
            ts: w[0],
        }
    }
}

/// The data-plane registers of one way's cell, in SALU stage order: the
/// fingerprint, then the timestamp.
pub(crate) const SKETCH_PT_REGISTERS: [&str; 2] = ["pt_fp", "pt_ts"];

/// A compact fingerprint Packet Tracker: `ways` seeded-CRC ways of
/// `(fingerprint, ts)` cells. Insertion into a full way set overwrites
/// the oldest-timestamp cell ([`PtInsert::StoredOverwriting`]) instead of
/// recirculating — the sketch spends zero recirculation bandwidth. An ACK
/// matches only when the stored fingerprint verifies; the structure never
/// invents a record that was not inserted, but a probe for identity *A*
/// that lands on a cell holding *B* with `fp(A) == fp(B)` takes *B*'s
/// timestamp. The fingerprint is `mix64`, not a [`HashUnit`]: every
/// `HashUnit` is one linear map under a different seed, so a CRC
/// fingerprint repeats the way index in its low log2(`way_size`) bits and
/// two cell-mates differ in only 32 − log2(`way_size`) of them (25 at
/// `--pt 512`, which fabricated one sample in 3.4 M packets: the
/// sketch-fingerprint fabrication). With all 32 bits independent of the index the mis-match
/// probability is 2⁻³² per probe of an occupied cell, `ways` probes an ACK.
pub struct SketchPacketTracker {
    ways: Vec<RegisterArray<SketchPtCell>>,
    hashers: Vec<HashUnit>,
    way_size: usize,
}

/// Salt of the sketch-PT fingerprint ("mix64"), and the word its checkpoint
/// section opens with: a section whose first word is anything else — a way
/// count, before PR 23 — holds fingerprints of another function, which
/// would restore into cells no ACK can ever match.
const FP_SCHEME: u64 = 0x6D_6978_3634;

impl SketchPacketTracker {
    /// Most ways a sketch PT may be built with.
    const MAX_WAYS: usize = 8;

    /// Build a sketch PT from its mode. Panics if handed a non-sketch mode
    /// (the engine routes those to the exact tracker).
    pub fn new(mode: PtMode) -> SketchPacketTracker {
        let PtMode::Sketch { slots, ways } = mode else {
            panic!("SketchPacketTracker requires PtMode::Sketch, got {mode:?}")
        };
        assert!(
            (1..=Self::MAX_WAYS).contains(&ways),
            "sketch PT supports 1..={} ways",
            Self::MAX_WAYS
        );
        assert!(slots >= ways, "sketch PT needs at least one cell per way");
        let way_size = slots / ways;
        SketchPacketTracker {
            ways: (0..ways)
                .map(|_| RegisterArray::new("packet_tracker_sketch", way_size))
                .collect(),
            hashers: (0..ways)
                .map(|w| HashUnit::new(0xB8 + w as u32, 32))
                .collect(),
            way_size,
        }
    }

    #[inline]
    fn fp(id: &PacketId) -> u32 {
        (mix64(id.sig.raw() ^ (u64::from(id.eack.raw()) << 32) ^ FP_SCHEME) >> 32) as u32
    }

    /// Insert a freshly tracked data packet.
    pub fn insert_new(&mut self, sig: FlowSignature, eack: SeqNum, ts: Nanos) -> PtInsert {
        let id = PacketId::new(sig, eack);
        let (key, fp) = (pt_key(&id), Self::fp(&id));
        let fresh = SketchPtCell { fp, ts };
        let mut oldest: Option<(Nanos, usize, usize)> = None;
        for w in 0..self.ways.len() {
            let i = self.hashers[w].index(&key, self.way_size);
            match self.ways[w].read(i) {
                None => {
                    self.ways[w].write(i, fresh);
                    return PtInsert::Stored;
                }
                Some(c) if c.fp == fp => {
                    // Same identity (tracking restarted on the byte range):
                    // refresh the timestamp, as the exact PT does.
                    self.ways[w].write(i, fresh);
                    return PtInsert::Stored;
                }
                Some(c) => {
                    if oldest.map(|(t, _, _)| c.ts < t).unwrap_or(true) {
                        oldest = Some((c.ts, w, i));
                    }
                }
            }
        }
        // Full way set: overwrite the oldest occupant. Its measurement is
        // lost (counted), never recirculated — fingerprints carry no
        // reconstructable record.
        if let Some((_, w, i)) = oldest {
            self.ways[w].write(i, fresh);
        }
        PtInsert::StoredOverwriting
    }

    /// Defensive re-insert path: the sketch never evicts a recirculatable
    /// record, but the engine's recirculation port is backend-agnostic, so
    /// route any stray record through the ordinary insert.
    pub fn insert_recirculated(&mut self, rec: PtRecord) -> PtInsert {
        self.insert_new(rec.sig, rec.eack, rec.ts)
    }

    /// Match an arriving ACK: probe every way for a verifying fingerprint,
    /// clear the cell on a hit, and return its stored timestamp.
    pub fn match_ack(&mut self, sig: FlowSignature, ack: SeqNum) -> Option<Nanos> {
        let id = PacketId::new(sig, ack);
        let (key, fp) = (pt_key(&id), Self::fp(&id));
        for w in 0..self.ways.len() {
            let i = self.hashers[w].index(&key, self.way_size);
            let hit = matches!(self.ways[w].read(i), Some(c) if c.fp == fp);
            if hit {
                return self.ways[w].clear(i).map(|c| c.ts);
            }
        }
        None
    }

    /// Epoch rotation (control-plane): sweep every cell whose stored send
    /// timestamp predates `cutoff`, returning `(carried, dropped)` record
    /// counts — the same time-cutoff rule as the exact Packet Tracker.
    pub fn rotate(&mut self, cutoff: Nanos) -> (u64, u64) {
        let (mut kept, mut cleared) = (0u64, 0u64);
        for way in &mut self.ways {
            let (k, c) = way.sweep(|cell| cell.ts >= cutoff);
            kept += k;
            cleared += c;
        }
        (kept, cleared)
    }

    /// Live cells (control-plane visibility).
    pub fn occupancy(&self) -> usize {
        self.ways.iter().map(|w| w.occupancy()).sum()
    }

    /// Bytes the ways hold (control-plane visibility).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.ways.iter().map(|w| w.resident_bytes()).sum()
    }

    /// Total cells.
    pub fn capacity(&self) -> usize {
        self.ways.iter().map(|w| w.size()).sum()
    }

    /// Serialize every live cell of every way into `w` (control plane).
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        w.put_u64(FP_SCHEME);
        w.put_usize(self.ways.len());
        w.put_usize(self.way_size);
        for way in &self.ways {
            w.put_usize(way.occupancy());
            for (idx, c) in way.iter() {
                w.put_usize(idx);
                w.put_u32(c.fp);
                w.put_u64(c.ts);
            }
        }
    }

    /// Replace this tracker's contents with a checkpointed state written by
    /// [`SketchPacketTracker::snapshot_into`]. The fingerprint scheme, way
    /// count and way size must match.
    pub(crate) fn restore_from(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let scheme = r.get_u64()?;
        if scheme != FP_SCHEME {
            return Err(SnapshotError::Mismatch(format!(
                "sketch PT snapshot opens with {scheme:#x}, not fingerprint scheme \
                 {FP_SCHEME:#x}: its cells (CRC fingerprints, if it predates PR 23) \
                 could never match an ACK here"
            )));
        }
        let ways = r.get_usize()?;
        let way_size = r.get_usize()?;
        if ways != self.ways.len() || way_size != self.way_size {
            return Err(SnapshotError::Mismatch(format!(
                "sketch PT snapshot is {ways}x{way_size}, this tracker is {}x{}",
                self.ways.len(),
                self.way_size
            )));
        }
        for way in &mut self.ways {
            let count = r.get_usize()?;
            way.sweep(|_| false);
            let mut prev = None;
            for _ in 0..count {
                let idx = r.get_slot("sketch PT cell", way_size, &mut prev)?;
                let fp = r.get_u32()?;
                let ts = r.get_u64()?;
                way.load(idx, SketchPtCell { fp, ts });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(n: u32) -> FlowKey {
        FlowKey::from_raw(0x0a00_0000 + n, 40000 + (n as u16 % 1000), 0x0808_0808, 443)
    }

    fn sig(n: u32) -> FlowSignature {
        flow(n).signature(SignatureWidth::W32)
    }

    fn rt(slots: usize, ways: usize) -> SketchRangeTracker {
        SketchRangeTracker::new(RtMode::Sketch { slots, ways }, SignatureWidth::W32)
    }

    fn pt(slots: usize, ways: usize) -> SketchPacketTracker {
        SketchPacketTracker::new(PtMode::Sketch { slots, ways })
    }

    #[test]
    fn cms_estimates_are_upper_bounds() {
        let mut cms = CountMinSketch::new(64, 2, 7);
        for k in 0..100u64 {
            for _ in 0..=(k % 5) {
                cms.increment(k);
            }
        }
        for k in 0..100u64 {
            assert!(u64::from(cms.estimate(k)) > (k % 5), "key {k} undercounted");
        }
        assert_eq!(cms.counters(), 128);
    }

    #[test]
    fn heavy_hitters_finds_the_elephants() {
        let mut hh = HeavyHitters::new(4, 256, 2, 0xDA27);
        // 4 elephants at 100 observations, 96 mice at ≤3.
        for round in 0..100u64 {
            for e in 0..4u64 {
                hh.observe(1000 + e);
            }
            if round < 3 {
                for m in 0..96u64 {
                    hh.observe(m);
                }
            }
        }
        for e in 0..4u64 {
            assert!(hh.contains(1000 + e), "elephant {e} missing");
        }
        let top = hh.top();
        assert_eq!(top.len(), 4);
        assert!(top.iter().all(|&(_, c)| c >= 100));
    }

    #[test]
    fn admission_gate_is_deterministic_and_respects_shift() {
        let mut gate = AdmissionGate::new(3, 0, 0x5EED);
        gate.on_tracked(sig(1));
        let mut admitted = 0u32;
        let total = 8192u32;
        for n in 0..total {
            let rec = PtRecord {
                sig: sig(n),
                eack: SeqNum(n * 100),
                ts: u64::from(n) * 1000,
                trips: 0,
            };
            let a = gate.admit(&rec);
            assert_eq!(a, gate.admit(&rec), "gate not deterministic");
            if a != Admission::Denied {
                admitted += 1;
            }
        }
        // Expect ~1/8 = 1024 of 8192; allow a generous binomial band.
        assert!(
            (700..1400).contains(&admitted),
            "coin flip far from 1/8: {admitted}/{total}"
        );
    }

    #[test]
    fn admission_gate_heavy_hitters_bypass_the_coin() {
        let mut gate = AdmissionGate::new(63, 8, 0x5EED); // coin ~never admits
        for _ in 0..50 {
            gate.on_tracked(sig(42));
        }
        let rec = PtRecord {
            sig: sig(42),
            eack: SeqNum(7),
            ts: 1,
            trips: 0,
        };
        assert_eq!(gate.admit(&rec), Admission::Heavy);
        let mouse = PtRecord {
            sig: sig(9999),
            eack: SeqNum(7),
            ts: 1,
            trips: 0,
        };
        assert_eq!(gate.admit(&mouse), Admission::Denied);
    }

    #[test]
    fn sketch_rt_creates_rules_and_acks() {
        let mut t = rt(64, 2);
        let f = flow(1);
        assert_eq!(
            t.on_seq(&f, SeqNum(0), SeqNum(100), 10),
            RtSeqOutcome::Created
        );
        assert!(matches!(
            t.on_seq(&f, SeqNum(100), SeqNum(200), 20),
            RtSeqOutcome::Ruled(_)
        ));
        assert!(t.on_ack(&f, SeqNum(100), true, 30).match_pt());
        assert_eq!(t.occupancy(), 1);
        assert!(t.peek(&f).is_some());
    }

    #[test]
    fn sketch_rt_located_paths_match_plain_paths() {
        let mut plain = rt(16, 2);
        let mut located = rt(16, 2);
        for step in 0..300u32 {
            let f = flow(step % 19);
            let at = located.locate(&f);
            assert_eq!(at.sig(), located.sig(&f));
            located.prefetch(&at);
            let now = u64::from(step) * 100;
            if step % 3 == 2 {
                let ack = SeqNum(step * 40);
                assert_eq!(
                    plain.on_ack(&f, ack, true, now),
                    located.on_ack_at(&at, ack, true, now),
                    "ack step {step}"
                );
            } else {
                let (seq, eack) = (SeqNum(step * 100), SeqNum(step * 100 + 100));
                assert_eq!(
                    plain.on_seq(&f, seq, eack, now),
                    located.on_seq_at(&at, seq, eack, now),
                    "seq step {step}"
                );
            }
        }
        assert_eq!(plain.occupancy(), located.occupancy());
    }

    #[test]
    fn sketch_rt_evicts_the_least_recently_touched() {
        // A 2-slot, 1-way table: every flow maps to the single way set only
        // when the way size is 1... use 2 ways of 1 slot each so every flow
        // shares both ways and the third live flow must evict.
        let mut t = rt(2, 2);
        assert_eq!(
            t.on_seq(&flow(1), SeqNum(0), SeqNum(100), 10),
            RtSeqOutcome::Created
        );
        assert_eq!(
            t.on_seq(&flow(2), SeqNum(0), SeqNum(100), 20),
            RtSeqOutcome::Created
        );
        // Touch flow 1 so flow 2 becomes the LRU victim.
        assert!(matches!(
            t.on_seq(&flow(1), SeqNum(100), SeqNum(200), 30),
            RtSeqOutcome::Ruled(_)
        ));
        assert_eq!(
            t.on_seq(&flow(3), SeqNum(0), SeqNum(50), 40),
            RtSeqOutcome::CreatedEvicting
        );
        assert!(t.peek(&flow(1)).is_some(), "recently touched flow survived");
        assert!(t.peek(&flow(2)).is_none(), "LRU flow evicted");
        assert!(t.peek(&flow(3)).is_some());
        // The evicted flow's ACKs miss — loss, never fabrication.
        assert_eq!(
            t.on_ack(&flow(2), SeqNum(50), true, 50),
            RtAckOutcome::NoFlow
        );
    }

    #[test]
    fn sketch_rt_never_overwrites_under_capacity() {
        // With plenty of slots, distinct flows essentially all get created
        // without evicting: an eviction needs a *double* collision (both
        // ways full), which at ~1% per-way load is vanishingly rare.
        let mut t = rt(1 << 14, 2);
        let mut evictions = 0;
        for n in 0..200 {
            match t.on_seq(&flow(n), SeqNum(0), SeqNum(100), u64::from(n)) {
                RtSeqOutcome::Created => {}
                RtSeqOutcome::CreatedEvicting => evictions += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            evictions <= 2,
            "evictions at ~1% load in a 2-way table: {evictions}"
        );
    }

    #[test]
    fn sketch_pt_insert_match_and_overwrite() {
        let mut t = pt(2, 2);
        assert_eq!(t.insert_new(sig(1), SeqNum(100), 10), PtInsert::Stored);
        assert_eq!(t.insert_new(sig(2), SeqNum(200), 20), PtInsert::Stored);
        assert_eq!(t.occupancy(), 2);
        // Full: the oldest (ts=10) cell is overwritten.
        assert_eq!(
            t.insert_new(sig(3), SeqNum(300), 30),
            PtInsert::StoredOverwriting
        );
        assert_eq!(
            t.match_ack(sig(1), SeqNum(100)),
            None,
            "oldest was the victim"
        );
        assert_eq!(t.match_ack(sig(3), SeqNum(300)), Some(30));
        assert_eq!(t.match_ack(sig(2), SeqNum(200)), Some(20));
        // Matches consumed the records.
        assert_eq!(t.match_ack(sig(2), SeqNum(200)), None);
        assert_eq!(t.capacity(), 2);
    }

    #[test]
    fn sketch_pt_duplicate_identity_refreshes() {
        let mut t = pt(8, 2);
        t.insert_new(sig(1), SeqNum(100), 10);
        assert_eq!(t.insert_new(sig(1), SeqNum(100), 99), PtInsert::Stored);
        assert_eq!(t.occupancy(), 1);
        assert_eq!(t.match_ack(sig(1), SeqNum(100)), Some(99));
    }

    /// Rotation sweeps by the recency stamp (RT) / send timestamp (PT):
    /// entries at or past the cutoff survive, older ones are cleared.
    #[test]
    fn sketch_rotation_sweeps_by_cutoff() {
        let mut t = rt(64, 2);
        t.on_seq(&flow(1), SeqNum(0), SeqNum(100), 1_000);
        t.on_seq(&flow(2), SeqNum(0), SeqNum(100), 9_000);
        assert_eq!(t.rotate(5_000), (1, 1));
        assert!(t.peek(&flow(1)).is_none());
        assert!(t.peek(&flow(2)).is_some());

        let mut p = pt(64, 2);
        p.insert_new(sig(1), SeqNum(100), 1_000);
        p.insert_new(sig(2), SeqNum(200), 9_000);
        assert_eq!(p.rotate(5_000), (1, 1));
        assert_eq!(p.match_ack(sig(1), SeqNum(100)), None);
        assert_eq!(p.match_ack(sig(2), SeqNum(200)), Some(9_000));
    }

    /// Snapshot then restore into fresh sketch tables: live entries,
    /// recency stamps, and the admission gate's elephant set all survive.
    #[test]
    fn sketch_snapshot_restore_round_trips() {
        let mut t = rt(64, 2);
        t.on_seq(&flow(1), SeqNum(0), SeqNum(100), 1_000);
        t.on_seq(&flow(2), SeqNum(0), SeqNum(100), 9_000);
        let mut w = SnapWriter::new();
        t.snapshot_into(&mut w);
        let rt_payload = w.into_payload();
        let mut t2 = rt(64, 2);
        t2.restore_from(&mut SnapReader::new(&rt_payload)).unwrap();
        assert_eq!(t2.occupancy(), 2);
        assert_eq!(t2.peek(&flow(1)), t.peek(&flow(1)));
        // Recency stamps survived: the same cutoff sweeps the same entry.
        assert_eq!(t2.rotate(5_000), (1, 1));

        let mut p = pt(64, 2);
        p.insert_new(sig(1), SeqNum(100), 1_000);
        p.insert_new(sig(2), SeqNum(200), 9_000);
        let mut w = SnapWriter::new();
        p.snapshot_into(&mut w);
        let pt_payload = w.into_payload();
        let mut p2 = pt(64, 2);
        p2.restore_from(&mut SnapReader::new(&pt_payload)).unwrap();
        assert_eq!(p2.match_ack(sig(1), SeqNum(100)), Some(1_000));
        assert_eq!(p2.match_ack(sig(2), SeqNum(200)), Some(9_000));

        let mut gate = AdmissionGate::new(63, 8, 0x5EED); // coin ~never admits
        for _ in 0..50 {
            gate.on_tracked(sig(42));
        }
        let mut w = SnapWriter::new();
        gate.snapshot_into(&mut w);
        let gate_payload = w.into_payload();
        let mut gate2 = AdmissionGate::new(63, 8, 0x5EED);
        gate2
            .restore_from(&mut SnapReader::new(&gate_payload))
            .unwrap();
        let rec = PtRecord {
            sig: sig(42),
            eack: SeqNum(7),
            ts: 1,
            trips: 0,
        };
        assert_eq!(
            gate2.admit(&rec),
            Admission::Heavy,
            "elephant set survived the restore"
        );
    }

    #[test]
    fn sketch_restores_reject_mismatched_geometry() {
        let t = rt(64, 2);
        let mut w = SnapWriter::new();
        t.snapshot_into(&mut w);
        let payload = w.into_payload();
        let mut wrong = rt(32, 2);
        assert!(matches!(
            wrong.restore_from(&mut SnapReader::new(&payload)),
            Err(SnapshotError::Mismatch(_))
        ));

        let gate = AdmissionGate::new(3, 8, 0x5EED);
        let mut w = SnapWriter::new();
        gate.snapshot_into(&mut w);
        let payload = w.into_payload();
        let mut wrong_seed = AdmissionGate::new(3, 8, 0xBEEF);
        assert!(matches!(
            wrong_seed.restore_from(&mut SnapReader::new(&payload)),
            Err(SnapshotError::Mismatch(_))
        ));
    }

    proptest::proptest! {
        /// Every field value of both sketch records survives the slot's word
        /// form — the all-zero ones included, which must not pack to the
        /// empty slot.
        #[test]
        fn sketch_words_round_trip(sig: u64, left: u32, right: u32, last: u64, fp: u32) {
            for (sig, left, right, last, fp) in [
                (sig, left, right, last, fp),
                (0, 0, 0, 0, 0),
                (u64::MAX, u32::MAX, u32::MAX, u64::MAX, u32::MAX),
            ] {
                let e = SketchRtEntry {
                    sig: FlowSignature(sig),
                    range: MeasurementRange { left: SeqNum(left), right: SeqNum(right) },
                    last,
                };
                proptest::prop_assert_ne!(e.pack(), [0; 4]);
                proptest::prop_assert_eq!(SketchRtEntry::unpack(&e.pack()), e);
                let c = SketchPtCell { fp, ts: last };
                proptest::prop_assert_ne!(c.pack(), [0; 2]);
                proptest::prop_assert_eq!(SketchPtCell::unpack(&c.pack()), c);
            }
        }
    }

    /// What stands between a shared cell and a fabricated sample is the
    /// fingerprint, so none of its bits may be implied by the cell: among
    /// identities sharing a way-0 cell the low log2(`way_size`) fingerprint
    /// bits agree only as often as chance has it (1 in 128). A CRC
    /// fingerprint — any [`HashUnit`] — agrees on them every time.
    #[test]
    fn sketch_pt_fingerprint_is_independent_of_the_way_index() {
        let t = pt(512, 4);
        assert_eq!(t.way_size, 128);
        let mut first_in_cell: Vec<Option<u32>> = vec![None; t.way_size];
        let (mut mates, mut agree) = (0u32, 0u32);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..100_000 {
            x = mix64(x);
            let id = PacketId::new(FlowSignature(x >> 32), SeqNum(x as u32));
            let cell = t.hashers[0].index(&pt_key(&id), t.way_size);
            let fp = SketchPacketTracker::fp(&id);
            match first_in_cell[cell] {
                None => first_in_cell[cell] = Some(fp),
                Some(mate) => {
                    mates += 1;
                    agree += u32::from((mate ^ fp) & 127 == 0);
                }
            }
        }
        assert!(mates > 99_000);
        assert!(
            agree < 2 * mates / 128,
            "{agree} of {mates} cell-mates repeat the index bits in the fingerprint"
        );
    }

    /// A checkpoint section that does not open with this build's
    /// fingerprint scheme is refused — one from before the scheme word
    /// existed opens with its way count.
    #[test]
    fn sketch_pt_restore_refuses_another_fingerprint_scheme() {
        let mut w = SnapWriter::new();
        w.put_usize(2); // ways
        w.put_usize(32); // way size
        w.put_usize(0);
        w.put_usize(0);
        let before_the_scheme_word = w.into_payload();
        let err = pt(64, 2)
            .restore_from(&mut SnapReader::new(&before_the_scheme_word))
            .unwrap_err();
        assert!(
            matches!(&err, SnapshotError::Mismatch(m) if m.contains("fingerprint")),
            "{err}"
        );
    }

    #[test]
    fn sketch_pt_never_fabricates() {
        let mut t = pt(64, 4);
        for n in 0..500u32 {
            t.insert_new(sig(n), SeqNum(n * 10), u64::from(n));
        }
        // ACKs for never-inserted identities miss (fingerprint verification)
        // — modulo the 2^-32 collision probability per occupied cell probed,
        // which these 500 probes stay clear of for this pinned salt.
        for n in 0..500u32 {
            assert_eq!(t.match_ack(sig(n + 10_000), SeqNum(n * 10 + 7)), None);
        }
    }
}
