//! The Dart engine: Range Tracker → Packet Tracker → analytics, with lazy
//! eviction and second-chance recirculation (paper Fig. 3 / Fig. 5).

use crate::backend::{PtTable, RtLocate, RtTable};
use crate::config::{AdmissionMode, Backend, DartConfig, Leg, MAX_RECIRC};
use crate::filter::FlowFilter;
use crate::monitor::{EpochRotation, RttMonitor};
use crate::packet_tracker::{PtInsert, PtRecord};
use crate::range::{AckVerdict, MeasurementRange, SeqVerdict};
use crate::range_tracker::{RtAckOutcome, RtSeqOutcome, RtSlot};
use crate::sample::{EngineEvent, RttSample, SampleSink};
use crate::sketch::{Admission, AdmissionGate};
use crate::snapshot::{SnapWriter, Snapshot, SnapshotError};
use crate::stats::EngineStats;
use crate::telemetry::{EngineTelemetry, SYNC_INTERVAL_PKTS};
use dart_packet::{FlowKey, FlowSignature, Nanos, PacketId, PacketMeta, SeqNum};
use dart_switch::{RecircPort, RecircStats};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};

mod codec;

/// Analytics hook deciding whether an evicted record is worth recirculating
/// (§3.3 "Preemptively discard useless samples"). Return `false` to drop the
/// record instead of spending recirculation bandwidth on it.
pub trait RecircFilter {
    /// Should `rec`, evicted at time `now`, be recirculated?
    fn should_recirculate(&mut self, rec: &PtRecord, now: Nanos) -> bool;
}

/// The filter [`DartEngine::new`] installs: recirculate everything.
struct RecirculateAll;

impl RecircFilter for RecirculateAll {
    fn should_recirculate(&mut self, _rec: &PtRecord, _now: Nanos) -> bool {
        true
    }
}

/// A record traveling the recirculation loop: the evicted PT record plus the
/// identity of its displacer (for cycle detection) and its re-entry time.
#[derive(Clone, Copy, Debug)]
struct RecircEntry {
    rec: PtRecord,
    displaced_by: PacketId,
    ready: Nanos,
}

/// The §7 approximate Range Tracker copy: shadows the main RT with a sync
/// lag, letting evicted records be validated at the end of the pipeline
/// instead of recirculating.
struct RtCopy {
    sync: Nanos,
    /// Signature → (range, apply time). The apply time doubles as a
    /// recency stamp so epoch rotation can sweep stale shadow entries.
    shadow: HashMap<FlowSignature, (MeasurementRange, Nanos)>,
    pending: VecDeque<(Nanos, FlowSignature, MeasurementRange)>,
}

impl RtCopy {
    fn new(sync: Nanos) -> RtCopy {
        RtCopy {
            sync,
            shadow: HashMap::new(),
            pending: VecDeque::new(),
        }
    }

    /// Queue a write-through from the main RT; it lands after the sync lag.
    fn record(&mut self, now: Nanos, sig: FlowSignature, range: MeasurementRange) {
        self.pending.push_back((now + self.sync, sig, range));
    }

    /// Apply every write whose sync point has passed.
    fn drain(&mut self, now: Nanos) {
        while let Some((at, _, _)) = self.pending.front() {
            if *at > now {
                break;
            }
            if let Some((at, sig, range)) = self.pending.pop_front() {
                self.shadow.insert(sig, (range, at));
            }
        }
    }

    /// Approximate validity: is `eack` inside the (possibly stale) range?
    fn validate(&mut self, now: Nanos, rec: &PtRecord) -> bool {
        self.drain(now);
        self.shadow
            .get(&rec.sig)
            .is_some_and(|(r, _)| rec.eack.in_range(r.left, r.right))
    }

    /// Epoch rotation: sweep shadow entries last refreshed before `cutoff`
    /// and pending writes whose apply time already predates it. The shadow
    /// is a derived cache — swept entries only make validation
    /// conservative (records fall out as `rt_copy_dropped`), never wrong.
    fn rotate(&mut self, cutoff: Nanos) {
        self.shadow.retain(|_, (_, at)| *at >= cutoff);
        self.pending.retain(|(at, _, _)| *at >= cutoff);
    }
}

/// In-flight depth of the batch pipeline's fused decode/match loop: while
/// matching packet `i` it decodes packet `i + PREFETCH_DIST` — classify,
/// memoized RT location, warming reads — so each warmed slot has that many
/// packets of real work to overlap its memory latency with (software
/// pipelining). Far enough ahead to cover a DRAM miss, near enough that
/// the warmed lines are still resident on arrival; also the size of the
/// L1-resident decode ring, so it must stay a power of two.
const PREFETCH_DIST: usize = 16;

// Per-packet disposition flags from the batch decode pass.
const LANE_SYN_SKIP: u8 = 1;
const LANE_FILTERED: u8 = 2;
const LANE_ACK: u8 = 4;
const LANE_SEQ: u8 = 8;

/// One decoded packet of the current block: disposition flags plus the
/// pre-resolved RT locations its roles will touch. Kept as one struct
/// (not parallel arrays) because the match loop reads every field of a
/// packet together. PT probes are *not* pre-hashed: the Packet Tracker
/// is consulted only after a rare RT outcome (an in-range ACK or an
/// admitted data packet), so hashing its stages for every packet costs
/// far more than the rare dependent load it would hide.
#[derive(Clone, Copy, Debug, Default)]
struct Decoded {
    /// Disposition flags (`LANE_*`).
    lane: u8,
    /// Expected ACK (SEQ role only).
    eack: SeqNum,
    /// RT location of the data-direction flow (SEQ role).
    seq_rt: RtSlot,
    /// RT location of the reversed flow (ACK role).
    ack_rt: RtSlot,
}

/// Direct-mapped memo capacity for [`RangeTracker::locate`] results.
/// Power of two; sized to cover the hot flows of a trace segment while
/// staying a few cache lines per way.
const FLOW_MEMO_SLOTS: usize = 1024;

/// Reusable scratch for the batch pipeline (DESIGN.md §5f): the decode
/// ring of the software pipeline plus a flow-locality memo of RT
/// locations that persists across blocks. The ring holds exactly
/// [`PREFETCH_DIST`] in-flight packets, so it lives in a few L1 lines
/// regardless of block size — the whole block is never staged through
/// memory. `locate` is a pure function of packet and table geometry, so
/// memoizing it is invisible to results; packet trains within a flow make
/// it hit often, skipping the FNV/CRC dependency chains entirely.
#[derive(Default)]
struct BatchScratch {
    ring: [Decoded; PREFETCH_DIST],
    memo: Vec<Option<(FlowKey, RtSlot)>>,
}

impl BatchScratch {
    /// Direct-mapped memo index: a cheap multiplicative fold of the flow
    /// key (not a quality hash — collisions just miss the memo).
    #[inline]
    fn memo_idx(flow: &FlowKey) -> usize {
        let s = u64::from(u32::from(flow.src_ip));
        let d = u64::from(u32::from(flow.dst_ip));
        let p = (u64::from(flow.src_port) << 16) | u64::from(flow.dst_port);
        let h = (s ^ (d << 13) ^ (p << 29)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & (FLOW_MEMO_SLOTS - 1)
    }
}

/// The Dart engine. Feed it packets in capture order through
/// [`RttMonitor`] — a block per [`RttMonitor::on_batch`] call, or one
/// packet per [`RttMonitor::on_packet`], the same body over a one-packet
/// block; it emits [`RttSample`]s and [`EngineEvent`]s into the supplied
/// sink.
pub struct DartEngine {
    cfg: DartConfig,
    rt: RtTable,
    pt: PtTable,
    recirc: RecircPort<RecircEntry>,
    filter: Box<dyn RecircFilter>,
    /// Probabilistic-recirculation admission (the `precision` backend);
    /// `None` under [`AdmissionMode::All`].
    admission: Option<AdmissionGate>,
    flow_filter: FlowFilter,
    /// Small fully-associative cache of evicted records (§7) — FIFO.
    victim_cache: VecDeque<PtRecord>,
    rt_copy: Option<RtCopy>,
    stats: EngineStats,
    scratch: BatchScratch,
    telemetry: Option<EngineTelemetry>,
    /// The recirculation port's books as of the last publication: its depth
    /// distribution reaches the registry as the difference since.
    recirc_synced: RecircStats,
}

impl DartEngine {
    /// Build an engine with the given configuration.
    pub fn new(cfg: DartConfig) -> DartEngine {
        Self::with_filter(cfg, Box::new(RecirculateAll))
    }

    /// Build an engine with an analytics recirculation filter (§3.3).
    pub fn with_filter(cfg: DartConfig, filter: Box<dyn RecircFilter>) -> DartEngine {
        assert!(
            cfg.max_recirc <= MAX_RECIRC,
            "max_recirc {} is over {MAX_RECIRC}",
            cfg.max_recirc
        );
        DartEngine {
            rt: RtTable::new(cfg.rt, cfg.sig_width),
            pt: PtTable::new(cfg.pt),
            recirc: RecircPort::new(cfg.max_recirc),
            filter,
            admission: match cfg.admission {
                AdmissionMode::All => None,
                AdmissionMode::Probabilistic {
                    sample_shift,
                    hh_capacity,
                    seed,
                } => Some(AdmissionGate::new(sample_shift, hh_capacity, seed)),
            },
            flow_filter: FlowFilter::all(),
            victim_cache: VecDeque::new(),
            rt_copy: cfg.rt_copy_sync.map(RtCopy::new),
            stats: EngineStats::default(),
            scratch: BatchScratch::default(),
            telemetry: None,
            recirc_synced: RecircStats::default(),
            cfg,
        }
    }

    /// Attach metric handles: the engine publishes its counters to them at
    /// sync points (periodically, per batch, and at flush) — the
    /// recirculation port's queue-depth books among them, from this moment
    /// on — and observes RTT samples as they happen.
    pub fn attach_telemetry(&mut self, telemetry: EngineTelemetry) {
        self.telemetry = Some(telemetry);
        self.recirc_synced = self.recirc.stats();
        self.sync_telemetry();
    }

    /// Publish the current counters to the attached metric handles (no-op
    /// without attached telemetry). Called automatically at every
    /// [`RttMonitor::on_batch`] boundary, every [`SYNC_INTERVAL_PKTS`]
    /// packets under [`RttMonitor::on_packet`], and at flush.
    pub(crate) fn sync_telemetry(&mut self) {
        if let Some(t) = &self.telemetry {
            t.sync_stats(&self.stats);
            let now = self.recirc.stats();
            t.sync_recirc(self.recirc.in_flight(), &self.recirc_synced, &now);
            self.recirc_synced = now;
            t.sync_tables([
                (self.rt.occupancy(), self.rt.resident_bytes()),
                (self.pt.occupancy(), self.pt.resident_bytes()),
            ]);
        }
    }

    /// Install the operator's flow-selection rules (§4). Replaces any
    /// previous rule set; takes effect immediately, no redeploy needed.
    pub fn set_flow_filter(&mut self, filter: FlowFilter) {
        self.flow_filter = filter;
    }

    /// Live Range Tracker entries.
    pub fn rt_occupancy(&self) -> usize {
        self.rt.occupancy()
    }

    /// Live Packet Tracker records.
    pub fn pt_occupancy(&self) -> usize {
        self.pt.occupancy()
    }

    /// [`RttMonitor::on_batch`], publishing into `at` the offset in
    /// `pkts` of the packet being matched — stored before that packet's
    /// recirculation drain, so every sample and [`EngineEvent`] it causes
    /// is emitted while `at` names it. The sharded worker, whose sink reads
    /// `at`, tags what it receives with a per-packet index (its merge
    /// order) this way without leaving the batch pipeline.
    pub(crate) fn process_batch_at(
        &mut self,
        pkts: &[PacketMeta],
        sink: &mut dyn SampleSink,
        at: &Cell<usize>,
    ) {
        self.run_block(pkts, sink, at);
        self.sync_telemetry();
    }

    /// The engine's one packet path, behind every entry point. Publishes
    /// nothing: each entry point keeps its own telemetry cadence. Nothing
    /// ring-sized is set up per call, so a one-packet block costs one
    /// packet: the ring is used in place, uncleared — every slot the match
    /// half reads was written by the prologue or the preceding decode of
    /// this same call.
    fn run_block(&mut self, pkts: &[PacketMeta], sink: &mut dyn SampleSink, at: &Cell<usize>) {
        if self.scratch.memo.is_empty() {
            self.scratch.memo.resize(FLOW_MEMO_SLOTS, None);
        }

        // The steady-state loop is stamped out once per RT variant so the
        // decode half — the per-packet locate/prefetch stream this loop
        // exists to overlap — is monomorphised over the one concrete
        // tracker (`RtLocate`) instead of dispatching per call, which keeps
        // both variants' arms, and their register spills, inside the hot
        // loop. Priced before it was kept (ISSUE 18, `dartmon analyze`
        // through the ledger, ten alternated 10 s pairs): with plain
        // `RtTable` dispatch here `campus-native` lost `throughput_mpps` in
        // 10 of 10 pairs, median 12.27 → 11.57 Mpkt/s (−5.7 %);
        // `churn-pressure` was unresolved (6.73 → 6.69, 3 of 10). The
        // `unreachable!()` arms are genuinely unreachable: the variant is
        // matched right before the loop and nothing in the loop can change
        // it. The short prologue and epilogue (≤ PREFETCH_DIST packets
        // each) stay on the dispatching path (`RtTable` is itself
        // `RtLocate`) to keep this function's code size — and its
        // instruction-cache bill — down.

        // Prologue: decode the first DIST packets to fill the ring.
        let fill = pkts.len().min(PREFETCH_DIST);
        for (i, pkt) in pkts[..fill].iter().enumerate() {
            self.scratch.ring[i] = decode_and_warm(
                &self.cfg,
                &self.flow_filter,
                &self.rt,
                pkt,
                &mut self.scratch.memo,
                &mut self.stats,
            );
        }
        // Steady state, bounds-check-free via the zip: match packet `j`
        // with its decoded state, then decode packet `j + PREFETCH_DIST`
        // into the ring slot it just freed (the ring has exactly
        // PREFETCH_DIST entries, so `j` and `j + PREFETCH_DIST` share a
        // slot — match must read before decode overwrites). Decode order
        // relative to match is immaterial for results: decode is pure,
        // and the match stream runs in capture order.
        let mut j = 0usize;
        if pkts.len() > PREFETCH_DIST {
            macro_rules! steady {
                ($variant:path) => {
                    for (mp, dp) in pkts.iter().zip(pkts[PREFETCH_DIST..].iter()) {
                        let d = self.scratch.ring[j & (PREFETCH_DIST - 1)];
                        at.set(j);
                        self.match_one(mp, &d, sink);
                        let $variant(rt) = &self.rt else {
                            unreachable!()
                        };
                        self.scratch.ring[j & (PREFETCH_DIST - 1)] = decode_and_warm(
                            &self.cfg,
                            &self.flow_filter,
                            rt,
                            dp,
                            &mut self.scratch.memo,
                            &mut self.stats,
                        );
                        j += 1;
                    }
                };
            }
            match self.rt {
                RtTable::Exact(_) => steady!(RtTable::Exact),
                RtTable::Sketch(_) => steady!(RtTable::Sketch),
            }
        }
        // Epilogue: drain the last DIST decoded packets from the ring.
        for pkt in pkts[j..].iter() {
            let d = self.scratch.ring[j & (PREFETCH_DIST - 1)];
            at.set(j);
            self.match_one(pkt, &d, sink);
            j += 1;
        }

        self.stats.packets += pkts.len() as u64;
    }

    /// The match half of the batch pipeline: one packet's state
    /// transitions, with classification and RT hashing already done by
    /// [`decode_and_warm`].
    #[inline]
    fn match_one(&mut self, pkt: &PacketMeta, d: &Decoded, sink: &mut dyn SampleSink) {
        self.drain_recirc_until(pkt.ts);
        // ACK role first: an acknowledgment refers to previously seen data,
        // while the SEQ role introduces new bytes.
        if d.lane & LANE_ACK != 0 {
            self.handle_ack_at(pkt, &d.ack_rt, sink);
        }
        if d.lane & LANE_SEQ != 0 {
            self.handle_seq_at(pkt, d.eack, &d.seq_rt, sink);
        }
    }

    /// The SEQ role with a pre-resolved RT location: `at` must come from
    /// `rt.locate(&pkt.flow)`.
    fn handle_seq_at(
        &mut self,
        pkt: &PacketMeta,
        eack: SeqNum,
        at: &RtSlot,
        sink: &mut dyn SampleSink,
    ) {
        let outcome = self.rt.on_seq_at(&pkt.flow, at, pkt.seq, eack, pkt.ts);
        match outcome {
            RtSeqOutcome::Created | RtSeqOutcome::Ruled(SeqVerdict::Extend) => {}
            RtSeqOutcome::CreatedEvicting => self.stats.sketch_overwritten += 1,
            RtSeqOutcome::Ruled(SeqVerdict::HoleReset) => self.stats.seq_hole_reset += 1,
            RtSeqOutcome::Ruled(SeqVerdict::Retransmission) => {
                self.stats.seq_retransmission += 1;
                self.stats.range_collapses += 1;
                sink.on_event(EngineEvent::RangeCollapse {
                    flow: pkt.flow,
                    ts: pkt.ts,
                    from_retransmission: true,
                });
            }
            RtSeqOutcome::Ruled(SeqVerdict::Wraparound) => self.stats.seq_wraparound += 1,
            RtSeqOutcome::Collision => self.stats.seq_rt_collision += 1,
        }
        self.sync_rt_copy(&pkt.flow, pkt.ts);
        if !outcome.track() {
            return;
        }
        self.stats.seq_tracked += 1;
        let sig = at.sig();
        // The admission gate's heavy-hitter sketch observes every tracked
        // data packet, so elephants bypass the recirculation coin later.
        // Outlined: the gate is `None` for every backend but `precision`,
        // and the CMS update must not bloat the fused batch loop.
        if let Some(gate) = &mut self.admission {
            gate_on_tracked(gate, sig);
        }
        let result = self.pt.insert_new(&pkt.flow, sig, eack, pkt.ts);
        let inserted_id = PacketId::new(sig, eack);
        self.account_insert(result, inserted_id, pkt.ts);
    }

    /// Write-through `data_flow`'s current range — the flow the caller just
    /// updated — to the §7 RT copy (applied after the sync lag).
    fn sync_rt_copy(&mut self, data_flow: &FlowKey, now: Nanos) {
        if let Some(copy) = &mut self.rt_copy {
            if let Some(range) = self.rt.peek(data_flow) {
                copy.record(now, data_flow.signature(self.cfg.sig_width), range);
            }
        }
    }

    /// The ACK role with a pre-resolved RT location: `at` must come from
    /// `rt.locate(&pkt.flow.reverse())`.
    fn handle_ack_at(&mut self, pkt: &PacketMeta, at: &RtSlot, sink: &mut dyn SampleSink) {
        let data_flow = pkt.flow.reverse();
        match self
            .rt
            .on_ack_at(&data_flow, at, pkt.ack, pkt.is_pure_ack(), pkt.ts)
        {
            RtAckOutcome::Ruled(AckVerdict::Advance) => {
                self.stats.ack_advanced += 1;
                let sig = at.sig();
                let hit = self.pt.match_ack(&data_flow, sig, pkt.ack).or_else(|| {
                    // Victim cache (§7): evicted records get matched here
                    // instead of being lost to a missed recirculation.
                    let id = PacketId::new(sig, pkt.ack);
                    self.victim_cache
                        .iter()
                        .position(|r| r.id() == id)
                        .and_then(|pos| self.victim_cache.remove(pos))
                        .map(|rec| {
                            self.stats.victim_cache_hits += 1;
                            rec.ts
                        })
                });
                if let Some(ts0) = hit {
                    self.stats.pt_matched += 1;
                    self.stats.samples += 1;
                    let rtt = pkt.ts.saturating_sub(ts0);
                    if let Some(t) = &self.telemetry {
                        t.observe_rtt(rtt);
                    }
                    sink.on_sample(RttSample::new(data_flow, pkt.ack, rtt, pkt.ts));
                }
            }
            RtAckOutcome::Ruled(AckVerdict::DuplicateCollapse) => {
                self.stats.ack_duplicate += 1;
                self.stats.range_collapses += 1;
                sink.on_event(EngineEvent::RangeCollapse {
                    flow: data_flow,
                    ts: pkt.ts,
                    from_retransmission: false,
                });
            }
            RtAckOutcome::Ruled(AckVerdict::Stale) => self.stats.ack_stale += 1,
            RtAckOutcome::Ruled(AckVerdict::Optimistic) => {
                self.stats.ack_optimistic += 1;
                sink.on_event(EngineEvent::OptimisticAck {
                    flow: data_flow,
                    ts: pkt.ts,
                });
            }
            RtAckOutcome::NoFlow => self.stats.ack_no_flow += 1,
        }
        self.sync_rt_copy(&data_flow, pkt.ts);
    }

    fn account_insert(&mut self, result: PtInsert, inserted_id: PacketId, now: Nanos) {
        match result {
            PtInsert::Stored => self.stats.pt_stored += 1,
            PtInsert::StoredOverwriting => {
                self.stats.pt_stored += 1;
                self.stats.sketch_overwritten += 1;
            }
            PtInsert::StoredEvicting(old) => {
                self.stats.pt_displaced += 1;
                self.evict(old, inserted_id, now);
            }
            PtInsert::CycleBroken { .. } => self.stats.recirc_cycles_broken += 1,
        }
    }

    /// Route an evicted record toward the recirculation port, applying (in
    /// order) the victim cache, the RT-copy validity check, the analytics
    /// filter, and the per-record trip cap.
    fn evict(&mut self, old: PtRecord, displaced_by: PacketId, now: Nanos) {
        // §7 victim cache: park the record; the oldest cached record spills
        // toward the recirculation path when the cache is full.
        let old = if self.cfg.victim_cache > 0 {
            self.victim_cache.push_back(old);
            self.stats.victim_cached += 1;
            if self.victim_cache.len() <= self.cfg.victim_cache {
                return;
            }
            // The push above guarantees the cache is nonempty; if that ever
            // changes, spilling nothing is the safe degradation.
            let Some(spilled) = self.victim_cache.pop_front() else {
                return;
            };
            spilled
        } else {
            old
        };
        // §7 RT copy: validate here instead of spending a recirculation.
        if let Some(copy) = &mut self.rt_copy {
            if copy.validate(now, &old) {
                if old.trips >= self.cfg.max_recirc {
                    self.stats.recirc_cap_dropped += 1;
                    return;
                }
                let mut rec = old;
                rec.trips += 1;
                self.stats.rt_copy_reinserted += 1;
                let result = self.pt.insert_recirculated(rec, Some(displaced_by));
                self.account_insert(result, rec.id(), now);
            } else {
                self.stats.rt_copy_dropped += 1;
            }
            return;
        }
        // Probabilistic recirculation admission (the `precision` backend):
        // heavy hitters always earn a second chance; the rest flip a pure,
        // record-keyed coin, so the batch and streaming paths agree.
        if let Some(gate) = &self.admission {
            match gate_admit(gate, &old) {
                Admission::Heavy => self.stats.recirc_admission_hh += 1,
                Admission::Sampled => {}
                Admission::Denied => {
                    self.stats.recirc_admission_denied += 1;
                    return;
                }
            }
        }
        if !self.filter.should_recirculate(&old, now) {
            self.stats.recirc_filtered += 1;
            return;
        }
        let entry = RecircEntry {
            rec: old,
            displaced_by,
            ready: now + self.cfg.recirc_delay,
        };
        match self.recirc.submit(entry, old.trips) {
            Ok(()) => self.stats.recirc_issued += 1,
            Err(_) => self.stats.recirc_cap_dropped += 1,
        }
    }

    /// Re-admit recirculated records whose re-entry time has arrived.
    /// Fast path of the recirculation drain: a single front-of-queue check
    /// inlined into both hot loops; the drain body stays out of line.
    #[inline]
    fn drain_recirc_until(&mut self, now: Nanos) {
        if self.recirc.peek().is_some_and(|e| e.record.ready <= now) {
            self.drain_recirc_slow(now);
        }
    }

    #[cold]
    fn drain_recirc_slow(&mut self, now: Nanos) {
        while self.recirc.peek().is_some_and(|e| e.record.ready <= now) {
            let Some(popped) = self.recirc.pop() else {
                break; // unreachable: peek just returned Some
            };
            let mut rec = popped.record.rec;
            rec.trips = popped.trips;
            // Second chance: re-consult the Range Tracker (Fig. 5, event 5).
            if !self.rt.revalidate(rec.sig, rec.eack) {
                self.stats.recirc_stale_dropped += 1;
                continue;
            }
            let displaced_by = popped.record.displaced_by;
            let result = self.pt.insert_recirculated(rec, Some(displaced_by));
            if matches!(result, PtInsert::Stored | PtInsert::StoredEvicting(_)) {
                self.stats.recirc_reinserted += 1;
            }
            self.account_insert(result, rec.id(), popped.record.ready.min(now));
        }
    }
}

/// The decode half of the batch pipeline: classify one packet, pre-resolve
/// the RT locations its roles will touch (through the flow memo), and issue
/// warming reads for them. Pure per-packet compute — nothing here writes
/// the tables, so decoding ahead of execution cannot change results; the
/// disposition counters it bumps run at most [`PREFETCH_DIST`] packets
/// ahead of the match stream, and are read only between calls. Takes the
/// engine's fields apart so the block loop can lend them side by side.
#[inline]
fn decode_and_warm<R: RtLocate>(
    cfg: &DartConfig,
    flow_filter: &FlowFilter,
    rt: &R,
    pkt: &PacketMeta,
    memo: &mut [Option<(FlowKey, RtSlot)>],
    stats: &mut EngineStats,
) -> Decoded {
    let mut d = Decoded::default();
    if cfg.syn_policy.skips(pkt) {
        d.lane = LANE_SYN_SKIP;
        stats.syn_skipped += 1;
    } else if !flow_filter.matches(&pkt.flow) {
        d.lane = LANE_FILTERED;
        stats.filtered_flows += 1;
    } else {
        if cfg.leg.ack_role(pkt.dir) && pkt.is_ack() {
            d.lane |= LANE_ACK;
            d.ack_rt = locate_memo(rt, memo, &pkt.flow.reverse());
            rt.prefetch(&d.ack_rt);
        }
        if cfg.leg.seq_role(pkt.dir) && pkt.is_seq() {
            d.lane |= LANE_SEQ;
            d.eack = pkt.eack();
            d.seq_rt = locate_memo(rt, memo, &pkt.flow);
            rt.prefetch(&d.seq_rt);
        }
        if d.lane == 0 {
            stats.no_role += 1;
        } else if d.lane == LANE_ACK | LANE_SEQ && cfg.leg == Leg::Both {
            // In both-legs mode a dual-role packet costs one recirculation
            // to be re-processed with a pseudo header (§5).
            stats.dual_role_recirc += 1;
        }
    }
    d
}

/// `rt.locate(flow)` through the direct-mapped flow memo.
#[inline]
fn locate_memo<R: RtLocate>(
    rt: &R,
    memo: &mut [Option<(FlowKey, RtSlot)>],
    flow: &FlowKey,
) -> RtSlot {
    let idx = BatchScratch::memo_idx(flow);
    if let Some((key, slot)) = &memo[idx] {
        if key == flow {
            return *slot;
        }
    }
    let slot = rt.locate(flow);
    memo[idx] = Some((*flow, slot));
    slot
}

/// Outlined CMS update for the admission gate (see the call site in
/// [`DartEngine`]): precision-backend work that must not be compiled into
/// the fused batch loop of the default exact path.
#[cold]
#[inline(never)]
fn gate_on_tracked(gate: &mut AdmissionGate, sig: FlowSignature) {
    gate.on_tracked(sig);
}

/// Outlined admission ruling, same rationale as [`gate_on_tracked`].
#[cold]
#[inline(never)]
fn gate_admit(gate: &AdmissionGate, rec: &PtRecord) -> Admission {
    gate.admit(rec)
}

impl RttMonitor for DartEngine {
    fn name(&self) -> &str {
        self.cfg.backend().engine_name()
    }

    fn describe(&self) -> String {
        let tables = match self.cfg.backend() {
            Backend::Exact => "exact RT/PT tables",
            Backend::Sketch => "recency-aged sketch RT/PT tables",
            Backend::Precision => "exact RT/PT tables with probabilistic recirculation admission",
        };
        format!("Dart: {tables} with lazy eviction and second-chance recirculation (SIGCOMM '22)")
    }

    /// The block body of [`RttMonitor::on_batch`] over a one-packet block.
    /// Telemetry is published every [`SYNC_INTERVAL_PKTS`] packets, not
    /// per call.
    fn on_packet(&mut self, pkt: &PacketMeta, sink: &mut dyn SampleSink) {
        self.run_block(std::slice::from_ref(pkt), sink, &Cell::new(0));
        if self.stats.packets.is_multiple_of(SYNC_INTERVAL_PKTS) {
            self.sync_telemetry();
        }
    }

    /// One call of the block body per block, not the trait's default
    /// per-packet loop: a software-pipelined loop that decodes packet
    /// `i + PREFETCH_DIST` — classifying roles, pre-resolving RT locations
    /// through a flow-locality memo, and issuing warming reads for the RT
    /// slots it will probe — while matching packet `i` with its
    /// already-decoded state. Decode is pure ALU work (hashing, flag
    /// tests) and match is load-bound table work, so the two streams
    /// overlap in the core instead of serializing per packet; the decode
    /// ring stays L1-resident.
    ///
    /// Split-invariant: the same samples, [`EngineStats`] and table state
    /// for any division of a packet stream into blocks, one-packet blocks
    /// ([`RttMonitor::on_packet`]) included — decode computes only pure
    /// functions of packet and configuration (RT locations do not depend
    /// on table contents), and the match half runs in capture order. Only
    /// the telemetry publication cadence follows the entry point: here,
    /// once per block.
    fn on_batch(&mut self, pkts: &[PacketMeta], sink: &mut dyn SampleSink) {
        self.process_batch_at(pkts, sink, &Cell::new(0));
    }

    /// Drains the recirculation loop; never emits samples or events
    /// (recirculated records can only be evicted or reinserted), so a
    /// second flush finds the loop empty and is a no-op.
    fn flush(&mut self, _sink: &mut dyn SampleSink) {
        self.drain_recirc_until(Nanos::MAX);
        self.sync_telemetry();
    }

    /// Epoch rotation (control-plane): sweep RT flows idle for a whole
    /// epoch, PT and victim-cache records sent before `cutoff`, and stale
    /// RT-copy shadow entries, so a long-lived run's tables keep serving
    /// the live population instead of silting up (or, in unlimited mode,
    /// growing without bound). Records still traveling the recirculation
    /// loop are left alone — they are transient by construction (re-entry
    /// is one recirculation delay away) and drain with the next packets.
    ///
    /// Call between batches, never mid-batch. With attached telemetry the
    /// rotation is instrumented: `dart_epoch_rotations_total`, the
    /// carried/dropped counters, and the rotation-pause histogram.
    fn rotate_epoch(&mut self, cutoff: Nanos) -> EpochRotation {
        let start = std::time::Instant::now();
        let (flows_carried, flows_dropped) = self.rt.rotate(cutoff);
        let (records_carried, mut records_dropped) = self.pt.rotate(cutoff);
        let vc_before = self.victim_cache.len();
        self.victim_cache.retain(|r| r.ts >= cutoff);
        records_dropped += (vc_before - self.victim_cache.len()) as u64;
        if let Some(copy) = &mut self.rt_copy {
            copy.rotate(cutoff);
        }
        let rotation = EpochRotation {
            flows_carried,
            flows_dropped,
            records_carried,
            records_dropped,
        };
        if let Some(t) = &self.telemetry {
            let pause_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            t.observe_rotation(&rotation, pause_ns);
        }
        rotation
    }

    /// Serialize the engine's complete measurement state — both flow
    /// tables, the victim cache, records mid-recirculation, the RT copy,
    /// the admission gate's heavy-hitter book, and every counter — into
    /// `w`, in one walk. Control-plane only, like
    /// [`RttMonitor::rotate_epoch`]: call between batches, never mid-batch.
    fn write_snapshot(&mut self, mut w: SnapWriter) -> Result<SnapWriter, SnapshotError> {
        self.encode(&mut w);
        Ok(w)
    }

    /// Replace all measurement state with a [`RttMonitor::snapshot`]. The
    /// engine must have been built from the same configuration the
    /// snapshot was taken under ([`SnapshotError::Mismatch`] otherwise);
    /// the snapshot's counters replace the current ones, so the
    /// conservation law (`fed == packets + monitor_miss`) resumes from
    /// where the checkpointed run left off.
    fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        self.decode(snap)
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynPolicy;
    use crate::monitor::run_monitor_slice;
    use dart_packet::{Direction, FlowKey, PacketBuilder, SeqNum};

    fn flow(n: u32) -> FlowKey {
        // Campus client (outbound data goes toward the internet server).
        FlowKey::from_raw(0x0a00_0000 + n, 40000, 0x5db8_d822, 443)
    }

    /// Build a clean request/response exchange on the external leg:
    /// outbound data at t, inbound ACK at t + rtt.
    fn data_ack(f: FlowKey, seq: u32, len: u32, t: Nanos, rtt: Nanos) -> [PacketMeta; 2] {
        let data = PacketBuilder::new(f, t)
            .seq(seq)
            .payload(len)
            .dir(Direction::Outbound)
            .build();
        let ack = PacketBuilder::new(f.reverse(), t + rtt)
            .ack(seq + len)
            .dir(Direction::Inbound)
            .build();
        [data, ack]
    }

    #[test]
    fn clean_exchange_produces_exact_sample() {
        for cfg in [DartConfig::unlimited(), DartConfig::default()] {
            let f = flow(1);
            let pkts: Vec<_> = data_ack(f, 1000, 500, 1_000_000, 25_000_000).into();
            let (samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &pkts);
            assert_eq!(samples.len(), 1, "cfg {cfg:?}");
            assert_eq!(samples[0].rtt, 25_000_000);
            assert_eq!(samples[0].flow, f);
            assert_eq!(samples[0].eack, SeqNum(1500));
            assert_eq!(stats.samples, 1);
            assert_eq!(stats.seq_tracked, 1);
        }
    }

    #[test]
    fn syn_skip_ignores_handshake() {
        let f = flow(2);
        let syn = PacketBuilder::new(f, 0)
            .seq(99u32)
            .syn()
            .dir(Direction::Outbound)
            .build();
        let syn_ack = PacketBuilder::new(f.reverse(), 10_000_000)
            .seq(499u32)
            .ack(100u32)
            .syn()
            .dir(Direction::Inbound)
            .build();
        let hs_ack = PacketBuilder::new(f, 20_000_000)
            .ack(500u32)
            .dir(Direction::Outbound)
            .build();
        let (samples, stats) = run_monitor_slice(
            &mut DartEngine::new(DartConfig::default()),
            &[syn, syn_ack, hs_ack],
        );
        assert!(samples.is_empty());
        assert_eq!(stats.syn_skipped, 2);
        // The bare handshake ACK is an ACK for a flow we never tracked.
        assert_eq!(stats.ack_no_flow, 0); // inbound leg only acks outbound data
    }

    #[test]
    fn syn_include_collects_handshake_rtt() {
        let f = flow(3);
        let syn = PacketBuilder::new(f, 0)
            .seq(99u32)
            .syn()
            .dir(Direction::Outbound)
            .build();
        let syn_ack = PacketBuilder::new(f.reverse(), 30_000_000)
            .seq(499u32)
            .ack(100u32)
            .syn()
            .dir(Direction::Inbound)
            .build();
        let cfg = DartConfig::unlimited().with_syn(SynPolicy::Include);
        let (samples, _) = run_monitor_slice(&mut DartEngine::new(cfg), &[syn, syn_ack]);
        // The SYN-ACK acknowledges the SYN: external-leg handshake RTT.
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].rtt, 30_000_000);
        assert_eq!(samples[0].eack, SeqNum(100));
    }

    #[test]
    fn retransmission_yields_no_sample() {
        let f = flow(4);
        let d1 = PacketBuilder::new(f, 0)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        // Retransmission of the same bytes.
        let d2 = PacketBuilder::new(f, 5_000_000)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        let ack = PacketBuilder::new(f.reverse(), 10_000_000)
            .ack(100u32)
            .dir(Direction::Inbound)
            .build();
        let (samples, stats) = run_monitor_slice(
            &mut DartEngine::new(DartConfig::unlimited()),
            &[d1, d2, ack],
        );
        assert!(samples.is_empty(), "ambiguous ACK must not sample");
        assert_eq!(stats.seq_retransmission, 1);
        // Two collapses: the retransmission, then the ACK landing on the
        // collapsed edge (classified as a duplicate ACK).
        assert_eq!(stats.range_collapses, 2);
        assert_eq!(stats.ack_duplicate, 1);
    }

    #[test]
    fn cumulative_ack_samples_last_segment_only() {
        let f = flow(5);
        let d1 = PacketBuilder::new(f, 0)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        let d2 = PacketBuilder::new(f, 1_000_000)
            .seq(100u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        let d3 = PacketBuilder::new(f, 2_000_000)
            .seq(200u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        let ack = PacketBuilder::new(f.reverse(), 20_000_000)
            .ack(300u32)
            .dir(Direction::Inbound)
            .build();
        let (samples, stats) = run_monitor_slice(
            &mut DartEngine::new(DartConfig::unlimited()),
            &[d1, d2, d3, ack],
        );
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].eack, SeqNum(300));
        assert_eq!(samples[0].rtt, 18_000_000);
        assert_eq!(stats.seq_tracked, 3);
    }

    #[test]
    fn reordering_dup_acks_suppress_inflated_sample() {
        // P1..P4 sent; P2 reordered: receiver dup-acks P1, then cumulatively
        // acks through P4. The cumulative ACK must not sample P4 (paper §2.2).
        let f = flow(6);
        let mk = |seq: u32, t: Nanos| {
            PacketBuilder::new(f, t)
                .seq(seq)
                .payload(100)
                .dir(Direction::Outbound)
                .build()
        };
        let ack = |n: u32, t: Nanos| {
            PacketBuilder::new(f.reverse(), t)
                .ack(n)
                .dir(Direction::Inbound)
                .build()
        };
        let pkts = [
            mk(0, 0),
            mk(100, 1_000_000),
            mk(200, 2_000_000),
            mk(300, 3_000_000),
            ack(100, 10_000_000), // acks P1
            ack(100, 11_000_000), // dup ack (P2 missing at receiver)
            ack(400, 30_000_000), // P2 arrived; cumulative ack through P4
        ];
        let (samples, stats) =
            run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &pkts);
        assert_eq!(samples.len(), 1, "only P1's ACK may sample");
        assert_eq!(samples[0].eack, SeqNum(100));
        // Two duplicate-ACK classifications: the true dup-ACK at 100, and
        // the later cumulative ACK landing exactly on the collapsed edge
        // (ambiguous, correctly unsampled).
        assert_eq!(stats.ack_duplicate, 2);
        assert_eq!(stats.samples, 1);
    }

    #[test]
    fn optimistic_ack_is_ignored() {
        let f = flow(7);
        let d = PacketBuilder::new(f, 0)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        let early = PacketBuilder::new(f.reverse(), 1_000_000)
            .ack(500u32)
            .dir(Direction::Inbound)
            .build();
        let (samples, stats) =
            run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &[d, early]);
        assert!(samples.is_empty());
        assert_eq!(stats.ack_optimistic, 1);
    }

    #[test]
    fn internal_leg_mirrors_roles() {
        // Data inbound, ACK outbound: only the Internal leg samples it.
        let server = FlowKey::from_raw(0x5db8_d822, 443, 0x0a00_0001, 40000);
        let d = PacketBuilder::new(server, 0)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Inbound)
            .build();
        let a = PacketBuilder::new(server.reverse(), 2_000_000)
            .ack(100u32)
            .dir(Direction::Outbound)
            .build();
        let ext = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &[d, a]);
        assert!(ext.0.is_empty());
        let int = run_monitor_slice(
            &mut DartEngine::new(DartConfig::unlimited().with_leg(Leg::Internal)),
            &[d, a],
        );
        assert_eq!(int.0.len(), 1);
        assert_eq!(int.0[0].rtt, 2_000_000);
    }

    #[test]
    fn both_legs_counts_dual_role_recirculation() {
        // A piggyback packet (data + ACK) in Both mode costs a recirculation.
        let f = flow(8);
        let d1 = PacketBuilder::new(f, 0)
            .seq(0u32)
            .payload(10)
            .dir(Direction::Outbound)
            .build();
        let piggy = PacketBuilder::new(f.reverse(), 3_000_000)
            .seq(900u32)
            .payload(20)
            .ack(10u32)
            .dir(Direction::Inbound)
            .build();
        let cfg = DartConfig::unlimited().with_leg(Leg::Both);
        let (samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &[d1, piggy]);
        assert_eq!(samples.len(), 1);
        assert_eq!(stats.dual_role_recirc, 1);
    }

    #[test]
    fn eviction_recirculation_and_second_chance() {
        // A 1-slot PT forces every second tracked packet to evict the first.
        // The evicted record is still valid, recirculates, and (cycle) the
        // older record wins the slot back — so the FIRST packet's ACK still
        // samples.
        let fa = flow(9);
        let fb = flow(10);
        let cfg = DartConfig::default()
            .with_rt(1 << 12)
            .with_pt(1, 1)
            .with_max_recirc(4);
        let da = PacketBuilder::new(fa, 0)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        let db = PacketBuilder::new(fb, 1_000_000)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        let aa = PacketBuilder::new(fa.reverse(), 50_000_000)
            .ack(100u32)
            .dir(Direction::Inbound)
            .build();
        let (samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &[da, db, aa]);
        assert_eq!(stats.pt_displaced, 1);
        assert_eq!(stats.recirc_issued, 1);
        // After recirculation the old record displaced the new one (cycle
        // broken in favor of the older record), so fa's ACK samples.
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].flow, fa);
        assert_eq!(stats.recirc_cycles_broken, 1);
    }

    #[test]
    fn recirc_cap_drops_records() {
        let fa = flow(11);
        let fb = flow(12);
        let cfg = DartConfig::default().with_pt(1, 1).with_max_recirc(0);
        let da = PacketBuilder::new(fa, 0)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        let db = PacketBuilder::new(fb, 1_000_000)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        let (_, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &[da, db]);
        assert_eq!(stats.recirc_cap_dropped, 1);
        assert_eq!(stats.recirc_issued, 0);
    }

    #[test]
    fn stale_recirculated_record_self_destructs() {
        // Flow A sends two segments through a 1-slot PT: the second displaces
        // the first, which recirculates, comes back still valid, and wins the
        // slot back via cycle-breaking (it is older). A cumulative ACK then
        // moves A's left edge past it; when flow B later evicts it, the
        // recirculated record must self-destruct at the RT check.
        let fa = flow(13);
        let fb = flow(14);
        let cfg = DartConfig::default().with_pt(1, 1).with_max_recirc(4);
        let pkts = [
            PacketBuilder::new(fa, 0)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            PacketBuilder::new(fa, 1_000_000)
                .seq(100u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            PacketBuilder::new(fa.reverse(), 5_000_000)
                .ack(200u32)
                .dir(Direction::Inbound)
                .build(),
            // Flow B evicts the squatting eack=100 record.
            PacketBuilder::new(fb, 60_000_000)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
        ];
        let (samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &pkts);
        // The cycle-break kept the older record (eack=100) and dropped
        // eack=200, so the cumulative ACK finds nothing: no samples — the
        // price of a 1-slot PT.
        assert!(samples.is_empty());
        assert_eq!(stats.recirc_cycles_broken, 1);
        // eack=100's record was evicted by flow B, recirculated, and died:
        // its eACK is below the advanced left edge.
        assert_eq!(stats.recirc_stale_dropped, 1);
    }

    #[test]
    fn filter_drops_instead_of_recirculating() {
        struct DropAll;
        impl RecircFilter for DropAll {
            fn should_recirculate(&mut self, _: &PtRecord, _: Nanos) -> bool {
                false
            }
        }
        let cfg = DartConfig::default().with_pt(1, 1).with_max_recirc(4);
        let mut engine = DartEngine::with_filter(cfg, Box::new(DropAll));
        let mut sink: Vec<RttSample> = Vec::new();
        let fa = flow(15);
        let fb = flow(16);
        engine.on_packet(
            &PacketBuilder::new(fa, 0)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            &mut sink,
        );
        engine.on_packet(
            &PacketBuilder::new(fb, 1)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            &mut sink,
        );
        assert_eq!(engine.stats().recirc_filtered, 1);
        assert_eq!(engine.stats().recirc_issued, 0);
    }

    #[test]
    fn flush_drains_pending_recirculations() {
        let cfg = DartConfig::default().with_pt(1, 1).with_max_recirc(8);
        let mut engine = DartEngine::new(cfg);
        let mut sink: Vec<RttSample> = Vec::new();
        let fa = flow(17);
        let fb = flow(18);
        engine.on_packet(
            &PacketBuilder::new(fa, 0)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            &mut sink,
        );
        engine.on_packet(
            &PacketBuilder::new(fb, 1)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            &mut sink,
        );
        assert_eq!(engine.stats().recirc_issued, 1);
        engine.flush(&mut sink);
        // The recirculated record was processed (reinserted or cycled).
        let s = engine.stats();
        assert_eq!(
            s.recirc_issued,
            s.recirc_stale_dropped + s.recirc_reinserted + s.recirc_cycles_broken
        );
    }

    /// A workload exercising every role: data, ACKs, dup-ACKs,
    /// retransmissions, piggybacks, SYNs, and eviction pressure.
    fn mixed_trace(rounds: u32) -> Vec<PacketMeta> {
        let mut pkts = Vec::new();
        for n in 0..rounds {
            let f = flow(n % 13);
            let base = u64::from(n) * 400_000;
            if n % 17 == 0 {
                pkts.push(
                    PacketBuilder::new(f, base)
                        .seq(n * 100)
                        .syn()
                        .dir(Direction::Outbound)
                        .build(),
                );
            }
            pkts.push(
                PacketBuilder::new(f, base + 50_000)
                    .seq(n * 100)
                    .payload(100)
                    .dir(Direction::Outbound)
                    .build(),
            );
            if n % 3 == 0 {
                pkts.push(
                    PacketBuilder::new(f.reverse(), base + 250_000)
                        .ack(n * 100 + 100)
                        .dir(Direction::Inbound)
                        .build(),
                );
            }
            if n % 11 == 0 {
                // Retransmission of the same bytes → range collapse.
                pkts.push(
                    PacketBuilder::new(f, base + 300_000)
                        .seq(n * 100)
                        .payload(100)
                        .dir(Direction::Outbound)
                        .build(),
                );
            }
            if n % 23 == 0 {
                // Piggyback: data + ACK in one packet.
                pkts.push(
                    PacketBuilder::new(f.reverse(), base + 350_000)
                        .seq(n * 50)
                        .payload(20)
                        .ack(n * 100 + 100)
                        .dir(Direction::Inbound)
                        .build(),
                );
            }
        }
        pkts
    }

    /// Split invariance: every division of a stream into blocks yields the
    /// samples, stats and final table state of its one-packet-block stream
    /// (an `on_packet` loop), for every config family (unlimited, constrained,
    /// multi-stage, victim cache, RT copy, both legs). The block lengths sit
    /// on both sides of each ring edge (`PREFETCH_DIST` and twice it, ± 1)
    /// beside empty and one-packet blocks, every rotation of the list moves
    /// the boundaries, the flow memo is carried from block to block, and one
    /// boundary per run is a snapshot/restore (the scratch restarts cold).
    /// The ring is never cleared, so a slot read before the same call wrote
    /// it would show here as a packet matched at another packet's location.
    #[test]
    fn batch_pipeline_matches_per_packet_across_configs() {
        let pkts = mixed_trace(400);
        let cfgs = [
            DartConfig::unlimited(),
            DartConfig::default(),
            DartConfig::default().with_pt(16, 4).with_max_recirc(4),
            DartConfig::default().with_pt(4, 2).with_victim_cache(3),
            DartConfig::default().with_pt(8, 1).with_rt_copy(1_000_000),
            DartConfig::default().with_leg(Leg::Both),
        ];
        const D: usize = PREFETCH_DIST;
        let split_lens = [0, 1, D - 1, D, D + 1, 2 * D - 1, 2 * D, 2 * D + 1];
        for cfg in cfgs {
            let mut reference = DartEngine::new(cfg);
            let mut expected: Vec<RttSample> = Vec::new();
            for p in &pkts {
                reference.on_packet(p, &mut expected);
            }
            reference.flush(&mut expected);
            let expected_stats = reference.stats();
            let expected_tables = reference.snapshot().unwrap();
            for rotation in 0..split_lens.len() {
                let mut engine = DartEngine::new(cfg);
                let mut got: Vec<RttSample> = Vec::new();
                let mut rest = &pkts[..];
                let mut s = rotation;
                while !rest.is_empty() {
                    let len = split_lens[s % split_lens.len()].min(rest.len());
                    engine.on_batch(&rest[..len], &mut got);
                    rest = &rest[len..];
                    s += 1;
                    if s == rotation + 5 {
                        let snap = engine.snapshot().unwrap();
                        engine.restore(&snap).unwrap();
                        assert!(engine.scratch.memo.is_empty(), "restore leaves a cold memo");
                    }
                }
                engine.flush(&mut got);
                let what = format!("rotation {rotation} of {cfg:?}");
                assert_eq!(got, expected, "samples diverge: {what}");
                assert_eq!(engine.stats(), expected_stats, "stats diverge: {what}");
                assert_eq!(
                    engine.snapshot().unwrap().as_bytes(),
                    expected_tables.as_bytes(),
                    "table state diverges: {what}"
                );
            }
        }
    }

    /// The offset `process_batch_at` publishes names the packet whose
    /// processing emitted each sample and event — recirculation drains and
    /// dual-role packets included — for any block split: tagging with
    /// `block start + at` reproduces the one-packet-block tags exactly.
    #[test]
    fn batch_position_names_the_emitting_packet() {
        use crate::sample::recording::Emission;
        /// Tags every emission with the global index of the packet that
        /// caused it: the block's start plus the engine's offset.
        struct Tagging<'a> {
            base: usize,
            at: &'a Cell<usize>,
            out: Vec<(usize, Emission)>,
        }
        impl SampleSink for Tagging<'_> {
            fn on_sample(&mut self, s: RttSample) {
                let at = self.base + self.at.get();
                self.out.push((at, Emission::Sample(s)));
            }
            fn on_event(&mut self, ev: EngineEvent) {
                let at = self.base + self.at.get();
                self.out.push((at, Emission::Event(ev)));
            }
        }
        let pkts = mixed_trace(1000);
        let cfg = DartConfig::default()
            .with_pt(16, 4)
            .with_max_recirc(4)
            .with_leg(Leg::Both);
        // Feed `pkts` in blocks of `split` (0: one `on_packet` call per
        // packet), tagging every emission with the global packet index.
        let tagged = |split: usize| -> (Vec<(usize, Emission)>, EngineStats) {
            let at = Cell::new(0usize);
            let mut sink = Tagging {
                base: 0,
                at: &at,
                out: Vec::new(),
            };
            let mut engine = DartEngine::new(cfg);
            if split == 0 {
                for (i, p) in pkts.iter().enumerate() {
                    sink.base = i;
                    engine.on_packet(p, &mut sink);
                }
            } else {
                for (b, block) in pkts.chunks(split).enumerate() {
                    sink.base = b * split;
                    engine.process_batch_at(block, &mut sink, &at);
                }
            }
            (sink.out, engine.stats())
        };
        let (reference, stats) = tagged(0);
        assert!(stats.recirc_issued > 0 && stats.dual_role_recirc > 0);
        let events = reference
            .iter()
            .filter(|(_, e)| matches!(e, Emission::Event(_)))
            .count();
        assert!(events > 0 && events < reference.len(), "samples and events");
        for split in [1usize, 7, 1024] {
            assert_eq!(tagged(split).0, reference, "block split {split}");
        }
    }

    /// Snapshot → restore into a fresh engine must reproduce the original
    /// engine bit for bit as far as observation goes: identical stats
    /// (byte-identical snapshot bytes on re-snapshot), and identical
    /// samples/stats when both engines process the same continuation
    /// traffic. Exercised across every config family the batch conformance
    /// test covers, plus sketch and precision backends.
    #[test]
    fn snapshot_restore_resumes_identically() {
        let cfgs = [
            DartConfig::unlimited(),
            DartConfig::default(),
            DartConfig::default().with_pt(16, 4).with_max_recirc(4),
            DartConfig::default().with_pt(4, 2).with_victim_cache(3),
            DartConfig::default().with_pt(8, 1).with_rt_copy(1_000_000),
            DartConfig::default().with_backend(Backend::Sketch),
            DartConfig::default().with_backend(Backend::Precision),
        ];
        // Traffic with eviction pressure so the victim cache and recirc
        // queue are non-empty at the checkpoint.
        let mut first = Vec::new();
        let mut second = Vec::new();
        for n in 0..120u32 {
            let f = flow(n % 7);
            let base = u64::from(n) * 500_000;
            let into = if n < 70 { &mut first } else { &mut second };
            into.push(
                PacketBuilder::new(f, base)
                    .seq(n * 100)
                    .payload(100)
                    .dir(Direction::Outbound)
                    .build(),
            );
            if n % 2 == 0 {
                into.push(
                    PacketBuilder::new(f.reverse(), base + 200_000)
                        .ack(n * 100 + 100)
                        .dir(Direction::Inbound)
                        .build(),
                );
            }
        }
        for cfg in cfgs {
            // Reference: one engine over the whole trace.
            let mut all = first.clone();
            all.extend(second.iter().cloned());
            let (expected, expected_stats) = run_monitor_slice(&mut DartEngine::new(cfg), &all);

            let mut a = DartEngine::new(cfg);
            let mut samples: Vec<RttSample> = Vec::new();
            for p in &first {
                a.on_packet(p, &mut samples);
            }
            let snap = a.snapshot().unwrap();

            // Restore into a fresh engine ("the restarted process").
            let mut b = DartEngine::new(cfg);
            b.restore(&snap).unwrap();
            assert_eq!(b.stats(), a.stats(), "restored counters for {cfg:?}");
            assert_eq!(b.rt_occupancy(), a.rt_occupancy());
            assert_eq!(b.pt_occupancy(), a.pt_occupancy());
            // Re-snapshot is byte-identical: nothing was lost or invented.
            assert_eq!(
                b.snapshot().unwrap().as_bytes(),
                snap.as_bytes(),
                "re-snapshot diverges for {cfg:?}"
            );

            for p in &second {
                b.on_packet(p, &mut samples);
            }
            b.flush(&mut samples);
            assert_eq!(samples, expected, "samples diverge for {cfg:?}");
            assert_eq!(b.stats(), expected_stats, "stats diverge for {cfg:?}");
        }
    }

    #[test]
    fn restore_refuses_other_configs_and_torn_payloads() {
        let f = flow(40);
        let pkts: Vec<_> = data_ack(f, 0, 500, 0, 10_000_000).into();
        let mut a = DartEngine::new(DartConfig::default());
        let mut sink: Vec<RttSample> = Vec::new();
        for p in &pkts {
            a.on_packet(p, &mut sink);
        }
        let snap = a.snapshot().unwrap();

        // Different geometry → fingerprint mismatch.
        let mut other = DartEngine::new(DartConfig::default().with_pt(4, 2));
        assert!(matches!(
            other.restore(&snap),
            Err(SnapshotError::Mismatch(_))
        ));
        // Different backend → fingerprint mismatch.
        let mut sketchy = DartEngine::new(DartConfig::default().with_backend(Backend::Sketch));
        assert!(matches!(
            sketchy.restore(&snap),
            Err(SnapshotError::Mismatch(_))
        ));
        // A truncated payload surfaces as Corrupt from the reader, never a
        // panic (the frame itself would normally catch this first; this
        // drives the payload parser directly).
        let payload = snap.payload();
        for cut in [1usize, 9, 20, payload.len() - 3] {
            let torn = Snapshot::from_payload(payload[..cut].to_vec());
            let mut fresh = DartEngine::new(DartConfig::default());
            assert!(
                fresh.restore(&torn).is_err(),
                "cut at {cut} must not restore"
            );
        }
        // Trailing garbage is refused too.
        let mut padded = payload.to_vec();
        padded.extend_from_slice(&[0u8; 5]);
        let mut fresh = DartEngine::new(DartConfig::default());
        assert!(fresh.restore(&Snapshot::from_payload(padded)).is_err());
    }

    /// Hostile bytes behind a valid checksum and fingerprint: recirculation
    /// and victim-cache state the configuration could never have produced is
    /// refused at restore. The first case used to restore and then reach
    /// `PacketTracker::insert_recirculated`'s `unreachable!` on the next
    /// packet — a panic from snapshot bytes.
    #[test]
    fn restore_refuses_recirculation_state_the_config_cannot_hold() {
        let f = flow(41);
        let data = PacketBuilder::new(f, 0)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build();
        // One record the restored RT validates: `f`'s in-flight packet.
        let rec = |cfg: &DartConfig, trips| PtRecord {
            sig: f.signature(cfg.sig_width),
            eack: SeqNum(100),
            ts: 0,
            trips,
        };
        // The engine section ends `vc | port books (3 words) | depth |
        // rt-copy tag | admission tag`, empty in all three configs below:
        // rewrite that 42-byte tail with the given records in it.
        let forge = |cfg: DartConfig, cached: &[PtRecord], looping: &[PtRecord]| {
            let mut a = DartEngine::new(cfg);
            a.on_packet(&data, &mut Vec::<RttSample>::new());
            let snap = a.snapshot().unwrap();
            let payload = snap.payload();
            let tail = payload.len() - 42;
            let mut w = SnapWriter::new();
            w.put_bytes(&payload[..tail]);
            w.put_usize(cached.len());
            for r in cached {
                r.snapshot_into(&mut w);
            }
            w.put_bytes(&payload[tail + 8..tail + 32]);
            w.put_usize(looping.len());
            for r in looping {
                r.snapshot_into(&mut w);
                w.put_u64(r.sig.0 ^ 1); // displaced_by: some other record
                w.put_u32(r.eack.0);
                w.put_u64(0); // ready: re-enters with the next packet
                w.put_u32(r.trips);
            }
            w.put_bytes(&payload[tail + 40..]);
            let mut fresh = DartEngine::new(cfg);
            let restored = fresh.restore(&Snapshot::from_payload(w.into_payload()));
            if restored.is_ok() {
                // What the refusal prevents: the forged record re-enters.
                fresh.on_packet(&data, &mut Vec::<RttSample>::new());
            }
            restored
        };
        let unlimited_pt = DartConfig::unlimited().with_rt(64);
        let capped = DartConfig::default().with_pt(4, 1).with_max_recirc(1);
        for (what, restored) in [
            (
                "depth > 0 on a PT that never evicts",
                forge(unlimited_pt, &[], &[rec(&unlimited_pt, 1)]),
            ),
            ("trips over the cap", forge(capped, &[], &[rec(&capped, 2)])),
            (
                "victim cache over its size",
                forge(capped, &[rec(&capped, 0)], &[]),
            ),
        ] {
            assert!(
                matches!(restored, Err(SnapshotError::Corrupt(_))),
                "{what}: {restored:?}"
            );
        }
        // The same surgery with nothing added is the original frame, and a
        // record the config allows still restores.
        forge(capped, &[], &[]).unwrap();
        forge(capped, &[], &[rec(&capped, 1)]).unwrap();
    }

    /// The other side of the refusal above: a frontier-sized engine (RT 4096,
    /// PT 512, two recirculations, both legs) checkpointed with records still
    /// in the recirculation loop restores them and resumes identically.
    #[test]
    fn frontier_snapshot_with_live_recirculation_round_trips() {
        let cfg = DartConfig::default()
            .with_leg(Leg::Both)
            .with_rt(4096)
            .with_pt(512, 1)
            .with_max_recirc(2);
        // 900 flows' data 1 µs apart — more than the PT holds, and far
        // inside the 10 µs recirculation delay — then their ACKs.
        let mut pkts = Vec::new();
        for n in 0..2700u32 {
            let (f, t) = (flow(1000 + n % 900), u64::from(n) * 1_000);
            pkts.push(
                PacketBuilder::new(f, t)
                    .seq(n / 900 * 100)
                    .payload(100)
                    .dir(Direction::Outbound)
                    .build(),
            );
            if n >= 1800 {
                pkts.push(
                    PacketBuilder::new(f.reverse(), t + 500)
                        .ack(n / 900 * 100)
                        .dir(Direction::Inbound)
                        .build(),
                );
            }
        }
        let (first, second) = pkts.split_at(1500);
        let (expected, expected_stats) = run_monitor_slice(&mut DartEngine::new(cfg), &pkts);

        let mut a = DartEngine::new(cfg);
        let mut samples: Vec<RttSample> = Vec::new();
        for p in first {
            a.on_packet(p, &mut samples);
        }
        assert!(a.recirc.in_flight() > 0, "nothing in the loop to restore");
        let snap = a.snapshot().unwrap();
        let mut b = DartEngine::new(cfg);
        b.restore(&snap).unwrap();
        assert_eq!(b.recirc.in_flight(), a.recirc.in_flight());
        assert_eq!(b.snapshot().unwrap().as_bytes(), snap.as_bytes());
        for p in second {
            b.on_packet(p, &mut samples);
        }
        b.flush(&mut samples);
        assert!(!expected.is_empty());
        assert_eq!(samples, expected);
        assert_eq!(b.stats(), expected_stats);
    }

    #[test]
    fn sequence_wraparound_foregoes_top_samples() {
        let f = flow(19);
        let pkts = [
            PacketBuilder::new(f, 0)
                .seq(u32::MAX - 199)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            // This one wraps: [MAX-99, 100).
            PacketBuilder::new(f, 1_000_000)
                .seq(u32::MAX - 99)
                .payload(200)
                .dir(Direction::Outbound)
                .build(),
            // ACK for the pre-wrap packet: left edge was reset to 0, so this
            // is stale — the foregone sample.
            PacketBuilder::new(f.reverse(), 5_000_000)
                .ack(u32::MAX - 99)
                .dir(Direction::Inbound)
                .build(),
        ];
        let (samples, stats) =
            run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &pkts);
        assert!(samples.is_empty());
        assert_eq!(stats.seq_wraparound, 1);
        assert_eq!(stats.ack_stale, 1);
    }
}
