//! Flow-sharded parallel Dart engine under a supervised, fault-tolerant
//! runtime.
//!
//! A hardware Dart instance is a single pipeline; a software replay of a
//! multi-gigabit trace need not be. This module partitions a capture across
//! `N` independent [`DartEngine`]s ("shards") keyed by the
//! direction-independent flow hash ([`FlowKey::symmetric_hash`]), so a data
//! packet and its ACK — which arrive under reversed 4-tuples — always land
//! on the same shard. Each shard owns its own Range Tracker, Packet
//! Tracker, victim cache, and recirculation loop, and is driven by a worker
//! thread. The feeder partitions the feed into per-shard blocks of at most
//! [`ShardedConfig::batch_size`] packets and hands each one over a bounded
//! blocking ring ([`ShardedConfig::queue_depth`] slots); the worker runs the
//! engine's batch pipeline over the block as it stands and passes the
//! emptied block back on the same ring, so the steady state allocates
//! nothing and neither side polls.
//!
//! ## Supervision
//!
//! A switch cannot stop forwarding because its measurement pipeline hit a
//! bad state; the paper's whole design (lazy eviction, bounded
//! recirculation) degrades instead of failing. The software runtime holds
//! itself to the same standard:
//!
//! * every worker batch runs under panic isolation
//!   ([`std::panic::catch_unwind`]) — a panicking shard becomes a recorded
//!   [`ShardFailure`], never a process abort;
//! * the feeder hands blocks off with a watchdog
//!   ([`ShardedConfig::stall_timeout`] bounds its wait for a free ring
//!   slot): a worker that stops consuming is declared
//!   [`Stalled`](FailureKind::Stalled) and abandoned;
//! * one rule decides what happens next: a worker panic respawns that
//!   shard's engine with fresh RT/PT state, at most [`MAX_RESTARTS`] times
//!   per shard; a shard past its budget, an abandoned one, and one whose
//!   rotation or flush panicked shed their traffic instead — the paper's
//!   lazy-eviction stance: measure less, never measure wrong. No failure
//!   stops the other shards.
//!
//! Degradation is *accounted*: respawns in `shard_restarts`, live flows
//! discarded with a failed engine in `flows_lost`, and every packet the
//! runtime dropped without offering it to a healthy engine in
//! `monitor_miss`, so `fed == stats.packets + stats.monitor_miss` holds for
//! every run, degraded or not. After the flush,
//! [`ShardedMonitor::failures`] lists every failure for reporting. The
//! chaos harness in `dart-testkit` drives these paths deterministically
//! through [`PacketHook`].
//!
//! ## Fidelity
//!
//! Per-flow processing is *identical* to the serial engine: a shard sees
//! exactly the packets of its flows, in capture order, with their original
//! timestamps. What changes with the shard count is the **cross-flow**
//! interaction — hash collisions in the RT/PT and eviction pressure now
//! happen among the flows of one shard instead of among all flows, so a
//! constrained configuration produces (slightly) different collision and
//! eviction counters at different shard counts. Consequences:
//!
//! * `shards == 1` is the faithful reproduction of the paper's single
//!   pipeline: the output is **bit-identical** to the serial
//!   [`DartEngine`]'s — same samples, same order, same stats.
//! * Under [`DartConfig::unlimited`] (no collisions, no evictions) every
//!   shard count yields exactly the serial per-flow samples.
//! * Under constrained configs, per-flow sample *sets* remain equal except
//!   where serial cross-flow collisions differ from sharded ones — the
//!   same caveat any hash-partitioned scale-out of Dart would carry.
//!
//! ## Drains
//!
//! Each worker tags the samples and events its engine emits with the
//! global packet index and holds them until the feeder asks for them. The
//! asking is a `Drain` control message on the shard's ring, so it is
//! ordered after every block sent before it: the worker's answer — sent on
//! a channel of its own, made at spawn, in the buffers of its previous
//! answer — holds every sample and event of the packets the feeder had fed
//! when it sent the drain, and none after. A *round* goes to every shard
//! at one feed position, its *cut*; once every shard has answered, the
//! feeder merges the answers deterministically into its sink — ordered by
//! (packet index, shard id), a packet's sample ahead of its events — so
//! the rounds, concatenated, are one stream, reproducible regardless of
//! thread scheduling and of when the rounds were cut, and at `shards == 1`
//! exactly serial emission order.
//!
//! `on_batch` never waits for a round: it emits the round in flight if
//! every answer is in, and starts the next one if none is in flight, so
//! samples leave about one ring's worth of blocks behind the feed;
//! `on_packet` emits nothing. [`ShardedMonitor::drain`] waits for a round
//! cut at the present feed position; `flush` is a drain and the join. At
//! most one drain is in flight per shard, and the ring admits that one
//! control message beside a full ring of blocks, so the worker keeps all
//! [`ShardedConfig::queue_depth`] blocks of runway (a drain per block
//! would halve it) and holds what the blocks in flight emit, not what the
//! stream has.
//!
//! The sink is the only way out: the monitor keeps no copy of the stream.
//! A checkpoint holds state, never output: it is refused while anything
//! fed is undrained, so the samples of every packet it covers have
//! reached a sink and none is emitted again after a restore.

use crate::config::DartConfig;
use crate::engine::DartEngine;
use crate::error::{FailureKind, ShardFailure};
use crate::monitor::{EpochRotation, RttMonitor};
use crate::ring::{Parcel, Ring, RingEnd, SendError};
use crate::sample::{EngineEvent, RttSample, SampleSink};
use crate::snapshot::{sane_count, Section, SnapReader, SnapWriter, SnapshotError};
use crate::stats::EngineStats;
use crate::telemetry::{
    EngineTelemetry, SHARD_CHANNEL_BATCHES, SUPERVISOR_HEALTHY_SHARDS, SUPERVISOR_STALLS,
};
use dart_packet::{FlowKey, Nanos, PacketMeta};
use dart_telemetry::{Counter, Gauge, MetricRegistry};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender as MpscSender, SyncSender,
    TryRecvError,
};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Per-packet instrumentation hook run inside each worker with `(global
/// packet index, shard)`. This is the chaos-injection seam: the testkit
/// builds hooks that panic or stall at a seeded packet to drive the
/// supervised failure paths deterministically.
///
/// The worker calls it once for every packet of a hand-off block, in
/// order, *before* the block enters the engine — so it sees packet `k`
/// before the engine has seen any packet of `k`'s block. A hook that
/// panics at packet `k` ends the block there: the packets before `k` are
/// measured, `k` and the rest of the block are written off to
/// `monitor_miss`, and the failure's `at_packet` is `k`. A run without a
/// hook pays nothing; an installed one costs an indirect call per packet
/// in a loop of its own.
pub type PacketHook = Arc<dyn Fn(u64, usize) + Send + Sync>;

/// Respawn budget per shard: a worker panic respawns the shard's engine
/// this many times at most, and a shard that has spent it sheds its
/// traffic from its next failure on.
pub const MAX_RESTARTS: u32 = 8;

/// Configuration of a sharded replay: the per-shard engine config plus the
/// partitioning, hand-off, and supervision parameters.
#[derive(Clone, Copy, Debug)]
pub struct ShardedConfig {
    /// Engine configuration applied to every shard.
    pub engine: DartConfig,
    /// Number of independent engine shards (≥ 1).
    pub shards: usize,
    /// Most packets in one hand-off block. Larger blocks amortize the
    /// ring's synchronization; smaller ones reduce feeder-to-worker latency.
    pub batch_size: usize,
    /// Hand-off ring capacity, in blocks, per shard. Bounds feeder
    /// run-ahead so memory stays proportional to
    /// `shards × queue_depth × batch_size`. The default, 16, is the
    /// worker's runway while the feeder is being woken: the feeder sleeps
    /// on a full ring until it is half empty, and at 8 the four blocks
    /// left (~135 µs of engine time) were less than the wake-up chain
    /// pipe writer → feeder → worker takes on a two-core VM, so the ring
    /// kept running dry and `live-fifo` runs fell into one of two rates
    /// (EXPERIMENTS.md, "Cold tables", ring depth).
    pub queue_depth: usize,
    /// How long the feeder may wait for a free slot on a full hand-off
    /// ring before declaring the worker stalled and abandoning it.
    /// Generous by default: a slow consumer is backpressure, not a failure.
    pub stall_timeout: Duration,
}

impl ShardedConfig {
    /// Default hand-off parameters for `shards` shards over `engine`.
    pub fn new(engine: DartConfig, shards: usize) -> ShardedConfig {
        ShardedConfig {
            engine,
            shards,
            batch_size: 1024,
            queue_depth: 16,
            stall_timeout: Duration::from_secs(5),
        }
    }

    /// Override the hand-off batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Override the per-shard queue depth (in batches).
    pub fn with_queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Override the watchdog stall timeout.
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }
}

/// Point-in-time health of the supervised runtime, cheap to take from the
/// feeder thread at any moment — this is what a daemon's `/healthz`
/// endpoint reports between scrapes.
///
/// Both counts are live: `failures` adds the feeder's own observations
/// (stalls, disconnects) to a runtime-wide count workers bump the moment
/// they record a failure, so a respawned shard shows before the flush;
/// workers flip their shared dead flag the moment they stop measuring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupervisorHealth {
    /// Configured shard count.
    pub shards: usize,
    /// Shards still measuring their traffic (not dead, not abandoned).
    pub healthy_shards: usize,
    /// Shards abandoned by the feeder watchdog.
    pub abandoned: usize,
    /// Watchdog expiries observed by the feeder.
    pub stalls: u64,
    /// Packets handed to the monitor so far.
    pub fed: u64,
    /// Failures recorded so far, respawns included.
    pub failures: usize,
    /// True once the run has been flushed and the workers joined.
    pub flushed: bool,
}

impl SupervisorHealth {
    /// True when every shard is measuring and nothing has failed.
    pub fn healthy(&self) -> bool {
        self.healthy_shards == self.shards && self.failures == 0
    }

    /// Render as a single JSON object (stable key order) for health
    /// endpoints.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"healthy\":{},\"shards\":{},\"healthy_shards\":{},\"abandoned\":{},\"stalls\":{},\"fed\":{},\"failures\":{},\"flushed\":{}}}",
            self.healthy(),
            self.shards,
            self.healthy_shards,
            self.abandoned,
            self.stalls,
            self.fed,
            self.failures,
            self.flushed,
        )
    }
}

/// Which shard a flow belongs to: both directions of a connection map to
/// the same shard. A single shard takes everything without hashing.
#[inline]
pub fn shard_of(flow: &FlowKey, shards: usize) -> usize {
    debug_assert!(shards > 0);
    if shards == 1 {
        return 0;
    }
    (flow.symmetric_hash() % shards as u64) as usize
}

/// One unit of hand-off: one shard's packets from a stretch of the feed,
/// with each one's global trace index beside it — two parallel vectors, so
/// the worker hands `pkts` to the engine's batch pipeline as it stands.
#[derive(Default)]
struct Block {
    idx: Vec<u64>,
    pkts: Vec<PacketMeta>,
}

impl Block {
    fn with_capacity(packets: usize) -> Block {
        Block {
            idx: Vec::with_capacity(packets),
            pkts: Vec::with_capacity(packets),
        }
    }

    fn push(&mut self, idx: u64, pkt: &PacketMeta) {
        self.idx.push(idx);
        self.pkts.push(*pkt);
    }

    fn len(&self) -> usize {
        self.pkts.len()
    }

    fn is_empty(&self) -> bool {
        self.pkts.is_empty()
    }

    fn clear(&mut self) {
        self.idx.clear();
        self.pkts.clear();
    }
}

/// What travels over a shard's hand-off ring: a block of packets, or a
/// control message for the worker's engine. Control messages ride the same
/// bounded queue as traffic, so each is ordered after every block
/// dispatched before it and never preempts one mid-block — the quiescence
/// seam drains, rotation and checkpointing rely on.
enum ShardMsg {
    Block(Block),
    /// Send everything the worker has emitted back on the shard's answer
    /// channel, and keep these emptied buffers of its previous answer for
    /// what it emits next. The books ride only on the answer, so this
    /// message is no wider than a block.
    Drain(Output),
    /// Rotate the engine's epoch (see [`RttMonitor::rotate_epoch`]).
    Rotate(Nanos),
    /// Count the bytes of the shard's checkpoint section and reply with
    /// the count: the first phase of a checkpoint.
    Measure(MpscSender<Result<usize, SnapshotError>>),
    /// Write the shard's checkpoint section into the writer sent along and
    /// hand the writer back: the second phase.
    Checkpoint(
        Box<SnapWriter>,
        MpscSender<Result<Box<SnapWriter>, SnapshotError>>,
    ),
    /// Replace the live engine's state with a serialized section produced
    /// by [`ShardMsg::Checkpoint`], read by the worker itself, and
    /// acknowledge over the channel.
    Restore(Section, MpscSender<Result<(), SnapshotError>>),
}

impl Parcel for ShardMsg {
    type Spare = Block;
    fn takes_spare(&self) -> bool {
        matches!(self, ShardMsg::Block(_))
    }
}

/// Kind tag of a sharded-runtime snapshot payload (the serial engine
/// writes `SNAP_KIND_ENGINE`), so a snapshot restored into the wrong
/// monitor kind fails loudly instead of misparsing.
pub(crate) const SNAP_KIND_SHARDED: u8 = 2;

/// The samples and events a worker's engine has emitted since its last
/// drain, each tagged with its packet's global index, in emission order.
/// The buffers start empty and grow to what rounds deliver; a drain hands
/// them back and forth, so they are reused, not rebuilt.
#[derive(Default)]
struct Output {
    samples: Vec<(u64, RttSample)>,
    events: Vec<(u64, EngineEvent)>,
}

/// A worker's answer to a drain: its output since the previous one, and
/// the shard's books as they stand.
struct Drained {
    output: Output,
    books: EngineStats,
}

/// What a worker returns when its ring closes: the shard's final counters
/// (retired engines + live engine + runtime accounting) and every failure
/// it survived.
#[derive(Default)]
struct ShardResult {
    stats: EngineStats,
    failures: Vec<ShardFailure>,
}

/// Per-shard instrumentation handles, cloned into the worker thread; all
/// `None` unless the monitor was spawned with a registry.
#[derive(Clone)]
struct ShardHooks {
    /// In-engine metric handles for this shard.
    tel: Option<EngineTelemetry>,
    /// Hand-off blocks queued or being processed: the feeder adds one per
    /// send, the worker subtracts one per block completed, so the gauge is
    /// the live ring depth.
    channel: Option<Gauge>,
    /// Runtime-level health gauge (`dart_supervisor_healthy_shards`),
    /// decremented once when this shard stops measuring.
    healthy: Option<Gauge>,
}

impl ShardHooks {
    /// Flip a shard's `dead` flag, decrementing the health gauge exactly
    /// once across feeder and worker.
    fn mark_dead(&self, dead: &AtomicBool) {
        if !dead.swap(true, Ordering::Relaxed) {
            if let Some(g) = &self.healthy {
                g.sub(1);
            }
        }
    }
}

/// Render a caught panic payload for [`FailureKind::Panicked`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The failure record of a caught panic.
fn panicked(
    shard: usize,
    at_packet: Option<u64>,
    payload: Box<dyn std::any::Any + Send>,
) -> ShardFailure {
    ShardFailure {
        shard,
        at_packet,
        kind: FailureKind::Panicked {
            message: panic_message(payload),
        },
        respawn_us: None,
    }
}

/// The flow-sharded engine: `shards` independent [`DartEngine`]s, each on
/// its own worker thread, partitioned by symmetric flow hash, behind one
/// [`RttMonitor`] whose `on_packet`/`on_batch` hand packets to the workers
/// as they arrive — so a sharded replay is any driver over any
/// [`PacketSource`](dart_packet::PacketSource), without materializing the
/// trace (`run_monitor_slice(&mut ShardedMonitor::new(cfg), pkts)` for one
/// in memory).
///
/// Samples and events leave in drain rounds (module docs, "Drains"):
/// `on_batch` emits without waiting, [`ShardedMonitor::drain`] waits, and
/// [`RttMonitor::flush`] drains and joins. In-flight packets stay bounded
/// by `shards × queue_depth × batch_size`.
///
/// The monitor is the supervised runtime's feeder: it applies the
/// [`ShardedConfig::stall_timeout`] watchdog on every hand-off and the
/// respawn-then-shed bookkeeping described in the module docs.
pub struct ShardedMonitor {
    cfg: ShardedConfig,
    name: String,
    /// The feeder's end of each shard's hand-off ring; `None` once a shard
    /// has been abandoned (watchdog) or its worker ended early — no
    /// further sends.
    rings: Vec<Option<RingEnd<ShardMsg>>>,
    /// `None` for abandoned shards: their stuck worker is detached, never
    /// joined, and its results since its last drain answer are written
    /// off into `monitor_miss`.
    handles: Vec<Option<JoinHandle<ShardResult>>>,
    /// The block being filled for each shard.
    bufs: Vec<Block>,
    /// Which shards take traffic, refreshed from `abandoned` and `dead`
    /// once per [`ShardedMonitor::partition`] call rather than per packet.
    live: Vec<bool>,
    /// Per-shard instrumentation handles.
    hooks: Vec<ShardHooks>,
    /// Set by a worker that stopped measuring (restart budget exhausted,
    /// a rotation or flush panicked) or by the feeder on abandon; the
    /// feeder drops that shard's traffic into `monitor_miss` from then on.
    dead: Vec<Arc<AtomicBool>>,
    /// Failures the workers have recorded so far, for
    /// [`ShardedMonitor::health`] before the flush-time join.
    worker_failures: Arc<AtomicUsize>,
    /// Packets handed to each shard's ring (abandon accounting).
    sent: Vec<u64>,
    /// Each shard's end of its drain-answer channel.
    answers: Vec<Receiver<Drained>>,
    /// Each shard's output in its answer to the round in flight once it is
    /// in, else the emptied buffers of its last answer, to be sent with the
    /// next drain.
    drained: Vec<Output>,
    /// For each shard whose answer to the round in flight is still
    /// awaited, the packets it had been sent at the cut.
    awaiting: Vec<Option<u64>>,
    /// Each shard's last answer: the packets it had been sent at that cut
    /// and its books then, which cover them. A shard the watchdog abandons
    /// reports these, and only the packets sent after them are written off,
    /// so its books count every sample it delivered.
    answered: Vec<(u64, EngineStats)>,
    /// The cut (feed position) of the round in flight, if one is.
    round: Option<u64>,
    /// The cut of the last completed round: every sample of the packets
    /// fed before it has reached a sink.
    drained_at: u64,
    /// The merge's cursor into each shard's answer (samples, events).
    heads: Vec<(usize, usize)>,
    abandoned: Vec<bool>,
    /// The failures the feeder observed; the flush adds the workers' and
    /// orders them by (shard, packet).
    failures: Vec<ShardFailure>,
    /// Runtime accounting done at the feeder (packets never offered to a
    /// healthy engine).
    feeder_extra: EngineStats,
    fed: u64,
    /// True once the first flush has joined the workers.
    flushed: bool,
    /// Each shard's final counters, filled by the flush.
    per_shard: Vec<EngineStats>,
    sup_stalls: Option<Counter>,
}

impl ShardedMonitor {
    /// Spawn the shard workers, uninstrumented, and stand ready to feed
    /// them.
    pub fn new(cfg: ShardedConfig) -> ShardedMonitor {
        Self::spawn(cfg, None, None)
    }

    /// Spawn the shard workers.
    ///
    /// With a `registry`, each worker's engine publishes `shard`-labelled
    /// counters, RTT and batch-latency histograms, and recirculation
    /// queue-depth gauges to it, live while the replay runs; a gauge per
    /// shard tracks the hand-off ring depth and the supervisor publishes
    /// its health: the
    /// [`Surface::Sharded`](crate::telemetry::Surface::Sharded) rows of
    /// [`VOCABULARY`](crate::telemetry::VOCABULARY). With a `packet_hook`,
    /// every worker runs it on each packet (the chaos-injection seam — see
    /// [`PacketHook`]).
    pub fn spawn(
        cfg: ShardedConfig,
        registry: Option<&MetricRegistry>,
        packet_hook: Option<PacketHook>,
    ) -> ShardedMonitor {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.batch_size >= 1, "batch size must be positive");
        assert!(cfg.queue_depth >= 1, "queue depth must be positive");
        let healthy = registry.map(|reg| {
            let row = SUPERVISOR_HEALTHY_SHARDS;
            let healthy = reg.gauge(row.name, &[], row.help);
            healthy.set(cfg.shards as i64);
            healthy
        });
        let sup_stalls =
            registry.map(|reg| reg.counter(SUPERVISOR_STALLS.name, &[], SUPERVISOR_STALLS.help));
        let worker_failures = Arc::new(AtomicUsize::new(0));
        let mut rings = Vec::with_capacity(cfg.shards);
        let mut handles = Vec::with_capacity(cfg.shards);
        let mut hooks = Vec::with_capacity(cfg.shards);
        let mut dead = Vec::with_capacity(cfg.shards);
        let mut answers = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let (feeder_end, worker_end) = Ring::pair(cfg.queue_depth);
            // One drain in flight per shard: the answer never waits.
            let (answer_tx, answer_rx) = sync_channel(1);
            answers.push(answer_rx);
            let shard_hooks = ShardHooks {
                tel: registry.map(|reg| EngineTelemetry::register(reg, shard)),
                channel: registry.map(|reg| {
                    let row = SHARD_CHANNEL_BATCHES;
                    reg.gauge(row.name, &[("shard", &shard.to_string())], row.help)
                }),
                healthy: healthy.clone(),
            };
            let shard_dead = Arc::new(AtomicBool::new(false));
            let ctx = ShardCtx {
                shard,
                engine_cfg: cfg.engine,
                held: Output::default(),
                answers: answer_tx,
                hooks: shard_hooks.clone(),
                packet_hook: packet_hook.clone(),
                failures: Arc::clone(&worker_failures),
                dead: Arc::clone(&shard_dead),
            };
            hooks.push(shard_hooks);
            dead.push(shard_dead);
            rings.push(Some(feeder_end));
            let fallback_dead = Arc::clone(&ctx.dead);
            let fallback_failures = Arc::clone(&ctx.failures);
            handles.push(Some(thread::spawn(move || {
                // Last-resort isolation: even a panic in the worker's own
                // scaffolding becomes a failure record, not a poisoned
                // join (the unwinding drops the worker's ring end, so the
                // feeder's next send finds the ring closed).
                match catch_unwind(AssertUnwindSafe(|| run_shard(ctx, worker_end))) {
                    Ok(result) => result,
                    Err(payload) => {
                        fallback_dead.store(true, Ordering::Relaxed);
                        fallback_failures.fetch_add(1, Ordering::Relaxed);
                        ShardResult {
                            failures: vec![panicked(shard, None, payload)],
                            ..ShardResult::default()
                        }
                    }
                }
            })));
        }
        ShardedMonitor {
            name: format!("dart-sharded-{}", cfg.shards),
            bufs: (0..cfg.shards)
                .map(|_| Block::with_capacity(cfg.batch_size))
                .collect(),
            live: vec![true; cfg.shards],
            sent: vec![0; cfg.shards],
            answers,
            drained: (0..cfg.shards).map(|_| Output::default()).collect(),
            awaiting: vec![None; cfg.shards],
            answered: vec![(0, EngineStats::default()); cfg.shards],
            round: None,
            drained_at: 0,
            heads: vec![(0, 0); cfg.shards],
            abandoned: vec![false; cfg.shards],
            failures: Vec::new(),
            feeder_extra: EngineStats::default(),
            cfg,
            rings,
            handles,
            hooks,
            dead,
            worker_failures,
            fed: 0,
            flushed: false,
            per_shard: Vec::new(),
            sup_stalls,
        }
    }

    /// Route `pkts` into their shards' blocks, sending each block as it
    /// fills. A packet fed after the flush is dropped (a debug build
    /// asserts). Whether a shard has stopped measuring is looked up once
    /// per call: a shard that dies while the call runs still receives the
    /// rest of its packets, and its worker counts them into `monitor_miss`
    /// itself.
    fn partition(&mut self, pkts: &[PacketMeta]) {
        debug_assert!(!self.flushed, "packets fed to a flushed ShardedMonitor");
        if self.flushed {
            return;
        }
        let first = self.fed;
        self.fed += pkts.len() as u64;
        for shard in 0..self.cfg.shards {
            self.live[shard] = self.is_live(shard);
        }
        for (idx, pkt) in (first..).zip(pkts) {
            let shard = shard_of(&pkt.flow, self.cfg.shards);
            if !self.live[shard] {
                self.feeder_extra.monitor_miss += 1;
                continue;
            }
            self.bufs[shard].push(idx, pkt);
            if self.bufs[shard].len() >= self.cfg.batch_size {
                self.dispatch(shard);
            }
        }
    }

    /// True while `shard` is measuring: not abandoned by the watchdog and
    /// not flagged dead by its worker.
    fn is_live(&self, shard: usize) -> bool {
        !self.abandoned[shard] && !self.dead[shard].load(Ordering::Relaxed)
    }

    /// Send `shard`'s block, if it holds anything, and start the next one
    /// in a block the worker has handed back — a fresh allocation only
    /// while fewer than `queue_depth + 2` are in circulation.
    fn dispatch(&mut self, shard: usize) {
        if self.bufs[shard].is_empty() {
            return;
        }
        let block = std::mem::take(&mut self.bufs[shard]);
        self.bufs[shard] = self
            .send_msg(shard, ShardMsg::Block(block))
            .unwrap_or_else(|| Block::with_capacity(self.cfg.batch_size));
    }

    /// Watchdog-guarded send of one message to `shard`: blocks while the
    /// ring is full, and when [`ShardedConfig::stall_timeout`] expires
    /// first the worker is declared stalled and abandoned. The number of
    /// packets the message carries (0 for control messages) drives the
    /// channel gauge, the abandon accounting, and the monitor-miss
    /// write-off on a dead worker. Returns the spare block the ring gave
    /// in exchange for a block sent, if it had one.
    fn send_msg(&mut self, shard: usize, msg: ShardMsg) -> Option<Block> {
        let (first_idx, pkts) = match &msg {
            ShardMsg::Block(block) => (block.idx.first().copied(), block.len() as u64),
            _ => (None, 0),
        };
        let sent = match &self.rings[shard] {
            Some(ring) => ring.send(msg, self.cfg.stall_timeout),
            None => Err(SendError::Closed),
        };
        match sent {
            Ok(spare) => {
                if pkts > 0 {
                    if let Some(g) = &self.hooks[shard].channel {
                        g.add(1);
                    }
                    self.sent[shard] += pkts;
                }
                spare
            }
            Err(SendError::Stalled(waited)) => {
                self.abandon(shard, waited, first_idx, pkts);
                None
            }
            Err(SendError::Closed) => {
                // The worker ended early (catastrophic fallback); its
                // result is still joinable — just stop sending.
                self.rings[shard] = None;
                self.hooks[shard].mark_dead(&self.dead[shard]);
                self.feeder_extra.monitor_miss += pkts;
                None
            }
        }
    }

    /// Point-in-time health of the runtime — see [`SupervisorHealth`].
    pub fn health(&self) -> SupervisorHealth {
        let dead = (0..self.cfg.shards).filter(|&s| !self.is_live(s)).count();
        SupervisorHealth {
            shards: self.cfg.shards,
            healthy_shards: self.cfg.shards - dead,
            abandoned: self.abandoned.iter().filter(|a| **a).count(),
            // Only the feeder's watchdog records a stall.
            stalls: self
                .failures
                .iter()
                .filter(|f| matches!(f.kind, FailureKind::Stalled { .. }))
                .count() as u64,
            fed: self.fed,
            // The flush adds the workers' failures to the feeder's list.
            failures: self.failures.len()
                + if self.flushed {
                    0
                } else {
                    self.worker_failures.load(Ordering::Relaxed)
                },
            flushed: self.flushed,
        }
    }

    /// Each shard's final counters, in shard order, once flushed (for a
    /// shard abandoned by the watchdog, its books at its last drain answer —
    /// what it was sent after that is counted in `monitor_miss`); empty
    /// before the flush.
    pub fn per_shard(&self) -> &[EngineStats] {
        &self.per_shard
    }

    /// Every failure the run survived, ordered by (shard, packet), once
    /// flushed; empty before the flush (when
    /// [`ShardedMonitor::health`] counts them live) and on a healthy run.
    pub fn failures(&self) -> &[ShardFailure] {
        if self.flushed {
            &self.failures
        } else {
            &[]
        }
    }

    /// Hand `sink` every sample and event of the packets fed so far: wait
    /// for the round in flight, then for one cut at the present feed
    /// position if that one was cut earlier. A shard that does not answer
    /// within the budget a checkpoint's `Measure` has is abandoned, as a
    /// stalled hand-off is. Nothing is emitted after the flush.
    pub fn drain(&mut self, sink: &mut dyn SampleSink) {
        if self.flushed {
            return;
        }
        let budget = self.reply_budget();
        self.collect(sink, Some(budget));
        if self.drained_at < self.fed {
            self.start_round();
            self.collect(sink, Some(budget));
        }
    }

    /// How long the feeder waits for a worker's reply to a control
    /// message: `stall_timeout` per hand-off, and at most `queue_depth`
    /// blocks and one control message sit ahead of it in the queue.
    fn reply_budget(&self) -> Duration {
        self.cfg.stall_timeout * (self.cfg.queue_depth as u32 + 1)
    }

    /// Cut a round at the present feed position: dispatch every shard's
    /// partial block, then send each shard still connected a drain,
    /// carrying back the buffers of its last answer.
    fn start_round(&mut self) {
        debug_assert!(self.round.is_none(), "one drain in flight per shard");
        for shard in 0..self.cfg.shards {
            self.dispatch(shard);
        }
        for shard in 0..self.cfg.shards {
            if self.rings[shard].is_none() {
                continue;
            }
            let buffers = std::mem::take(&mut self.drained[shard]);
            self.send_msg(shard, ShardMsg::Drain(buffers));
            // A send that stalled or found the worker gone answers nothing.
            self.awaiting[shard] = self.rings[shard].is_some().then_some(self.sent[shard]);
        }
        self.round = Some(self.fed);
    }

    /// Take the answers to the round in flight; once every shard it went
    /// to has answered, hand `sink` the merged round and move the drained
    /// mark to its cut. Without a `wait` a missing answer leaves the round
    /// in flight; with one, a shard silent that long is abandoned. A
    /// worker that ended without answering answers nothing.
    fn collect(&mut self, sink: &mut dyn SampleSink, wait: Option<Duration>) {
        let Some(cut) = self.round else {
            return;
        };
        for shard in 0..self.cfg.shards {
            let Some(sent) = self.awaiting[shard] else {
                continue;
            };
            let answer = match wait {
                None => match self.answers[shard].try_recv() {
                    Err(TryRecvError::Empty) => return,
                    answer => answer.ok(),
                },
                Some(budget) => match self.answers[shard].recv_timeout(budget) {
                    Err(RecvTimeoutError::Timeout) => {
                        self.abandon(shard, budget, None, 0);
                        None
                    }
                    answer => answer.ok(),
                },
            };
            self.awaiting[shard] = None;
            if let Some(answer) = answer {
                self.answered[shard] = (sent, answer.books);
                self.drained[shard] = answer.output;
            }
        }
        merge(&mut self.drained, &mut self.heads, sink);
        self.round = None;
        self.drained_at = cut;
    }

    /// Watchdog expiry: record the stall, stop talking to the worker, and
    /// write off everything it was sent since its last drain answer (the
    /// rest of its results are unrecoverable without joining a
    /// possibly-hung thread).
    fn abandon(&mut self, shard: usize, waited: Duration, at_packet: Option<u64>, pending: u64) {
        self.failures.push(ShardFailure {
            shard,
            at_packet,
            kind: FailureKind::Stalled { waited },
            respawn_us: None,
        });
        self.abandoned[shard] = true;
        self.awaiting[shard] = None;
        self.rings[shard] = None;
        // Detach the stuck thread: dropping the handle lets it finish (or
        // hang) on its own without ever blocking the supervisor.
        self.handles[shard] = None;
        self.hooks[shard].mark_dead(&self.dead[shard]);
        let covered = self.answered[shard].0;
        self.feeder_extra.monitor_miss += self.sent[shard] - covered + pending;
        self.sent[shard] = covered;
        if let Some(c) = &self.sup_stalls {
            c.add(1);
        }
    }
}

impl RttMonitor for ShardedMonitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn describe(&self) -> String {
        format!(
            "Dart partitioned across {} symmetric-hash flow shards, supervised (respawn, then shed), deterministic fan-in merge",
            self.cfg.shards
        )
    }

    /// Hand one packet to its shard's hand-off block, which goes out when
    /// it is full (or at the next drain): emits nothing.
    fn on_packet(&mut self, pkt: &PacketMeta, _sink: &mut dyn SampleSink) {
        self.partition(std::slice::from_ref(pkt));
    }

    /// Feed a whole block and hand it off: each packet is partitioned to
    /// its shard's hand-off block, and every shard's partial block is
    /// dispatched when the driver's block ends, so nothing fed here is
    /// still on the feeder when this returns. A live driver whose blocks
    /// run short (or that then waits on a quiet feed) cannot strand a
    /// residue outside the shard rings. A shard's share of a driver block
    /// goes out as one hand-off block, or several of
    /// [`ShardedConfig::batch_size`] packets when it is longer than that;
    /// sample order and counters do not depend on the split.
    ///
    /// Then, without waiting: if every shard has answered the drain in
    /// flight, its round goes to `sink`; if no drain is in flight, one is
    /// cut here, after this block.
    fn on_batch(&mut self, pkts: &[PacketMeta], sink: &mut dyn SampleSink) {
        self.partition(pkts);
        if self.flushed {
            return;
        }
        for shard in 0..self.cfg.shards {
            self.dispatch(shard);
        }
        self.collect(sink, None);
        if self.round.is_none() && self.drained_at < self.fed {
            self.start_round();
        }
    }

    /// Ask every live shard to rotate its engine's epoch (see
    /// [`RttMonitor::rotate_epoch`]): entries idle since `cutoff` are
    /// swept so table occupancy stays bounded over a long-lived run.
    ///
    /// Partial feeder buffers are dispatched first, so the rotation is
    /// ordered after every packet fed before this call. The rotation
    /// itself is asynchronous — each worker performs it when the control
    /// message reaches the front of its queue — so this always returns
    /// [`EpochRotation::default`]: the sweep's totals are published through
    /// each shard's `dart_epoch_*` telemetry series rather than merged into
    /// a synchronous return value.
    fn rotate_epoch(&mut self, cutoff: Nanos) -> EpochRotation {
        if !self.flushed {
            for shard in 0..self.cfg.shards {
                if !self.is_live(shard) {
                    continue;
                }
                self.dispatch(shard);
                self.send_msg(shard, ShardMsg::Rotate(cutoff));
            }
        }
        EpochRotation::default()
    }

    /// Checkpoint the whole runtime into `w`, in two phases over the
    /// hand-off rings. A checkpoint holds state, never output: it is
    /// refused (`Unsupported`) unless the monitor has been drained
    /// ([`ShardedMonitor::drain`]) since the last packet fed, so the
    /// samples of every packet it covers have already reached a sink.
    ///
    /// Mirrors [`RttMonitor::rotate_epoch`]'s quiescence seam: a `Measure`
    /// control message rides each live shard's bounded queue, so every
    /// shard stands exactly after the packets fed before this call and
    /// before any fed after it. All shards measure their sections at once;
    /// the feeder then writes its books and each measured shard, in shard
    /// order, writes its section straight into `w` (the feeder blocks
    /// throughout, watchdog-bounded, and sends nothing else in between, so
    /// nothing a shard holds changes between the phases). The result is a
    /// consistent cut of the run, and neither the feeder nor a worker ever
    /// holds more of it than `w`'s sink keeps.
    ///
    /// Shards that are dead, refuse (shedding), or fail to measure within
    /// the budget are written off *inside the snapshot*: their section is
    /// absent and every packet ever handed to them is added to the
    /// serialized `monitor_miss`, so books restored from this snapshot
    /// still satisfy the conservation law `fed == packets +
    /// monitor_miss`. A shard that fails after measuring fails the whole
    /// checkpoint: its length is already written.
    fn write_snapshot(&mut self, mut w: SnapWriter) -> Result<SnapWriter, SnapshotError> {
        if self.flushed {
            return Err(SnapshotError::Unsupported(
                "monitor already flushed; nothing left to checkpoint".to_string(),
            ));
        }
        if self.drained_at < self.fed {
            return Err(SnapshotError::Unsupported(format!(
                "{} packets fed since the last drain: drain before checkpointing \
                 (a checkpoint holds state, never output)",
                self.fed - self.drained_at
            )));
        }
        // Phase one: every live shard gets its `Measure` message before
        // any reply is awaited, so the shards walk their tables
        // concurrently. A shard that fails here mutates the feeder books
        // (watchdog write-off), which are serialized after.
        type LenReply = Receiver<Result<usize, SnapshotError>>;
        let mut pending: Vec<Option<LenReply>> = Vec::with_capacity(self.cfg.shards);
        for shard in 0..self.cfg.shards {
            if !self.is_live(shard) {
                pending.push(None);
                continue;
            }
            let (reply_tx, reply_rx) = channel();
            self.send_msg(shard, ShardMsg::Measure(reply_tx));
            pending.push(Some(reply_rx));
        }
        // If send_msg abandoned the shard or found the worker gone, the
        // reply sender was dropped and recv fails at once — the shard is
        // written off like any other absent section.
        let budget = self.reply_budget();
        let sections: Vec<Option<usize>> = pending
            .into_iter()
            .map(|rx| rx.and_then(|rx| rx.recv_timeout(budget).ok()?.ok()))
            .collect();
        w.put_u8(SNAP_KIND_SHARDED);
        w.put_usize(self.cfg.shards);
        w.put_u64(self.fed);
        // Snapshot-local books: a shard without a section loses its
        // worker-side state across the crash, so everything ever handed to
        // its ring moves to `monitor_miss` in the serialized feeder
        // accounting (the live run's own books are untouched — the worker
        // still reports at join time). A drained monitor holds no packet
        // in a feeder buffer.
        debug_assert!(self.bufs.iter().all(Block::is_empty));
        let mut snap_extra = self.feeder_extra;
        let mut snap_sent = self.sent.clone();
        for shard in 0..self.cfg.shards {
            if sections[shard].is_none() {
                snap_extra.monitor_miss += snap_sent[shard];
                snap_sent[shard] = 0;
            }
        }
        snap_extra.snapshot_into(&mut w);
        let section_bytes: usize = sections.iter().flatten().sum();
        w.reserve(section_bytes + self.cfg.shards * (8 + 1 + 8));
        // Phase two. Per shard: `sent`, the presence flag, the section
        // length, then the section itself, written by the worker.
        for (shard, section) in sections.into_iter().enumerate() {
            w.put_u64(snap_sent[shard]);
            let Some(len) = section else {
                w.put_u8(0);
                continue;
            };
            w.put_u8(1);
            w.put_usize(len);
            let start = w.len();
            let (reply_tx, reply_rx) = channel();
            self.send_msg(shard, ShardMsg::Checkpoint(Box::new(w), reply_tx));
            w = match reply_rx.recv_timeout(budget) {
                Ok(Ok(back)) => *back,
                Ok(Err(e)) => return Err(e),
                Err(_) => {
                    return Err(SnapshotError::Unsupported(format!(
                        "shard {shard} failed between measuring and writing its section"
                    )))
                }
            };
            if w.len() - start != len {
                return Err(SnapshotError::Corrupt(format!(
                    "shard {shard} wrote {} section bytes after measuring {len}",
                    w.len() - start
                )));
            }
        }
        Ok(w)
    }

    /// Restore a sharded [`RttMonitor::snapshot`] into this (freshly
    /// spawned, never fed) monitor: each shard section is handed to its
    /// worker over the hand-off ring — where it lies in the file, for a
    /// file reader, so the worker reads it with a window of its own and
    /// nothing holds the section — and installed before any traffic,
    /// and the feeder books (`fed`, write-offs) resume where the snapshot
    /// left them. Shard count and per-shard engine configuration must
    /// match; a shard whose section was written off at checkpoint time
    /// restarts fresh (its history is already in the restored
    /// `monitor_miss`).
    fn read_snapshot(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        if self.flushed {
            return Err(SnapshotError::Unsupported(
                "monitor already flushed; cannot restore".to_string(),
            ));
        }
        if self.fed != 0 {
            return Err(SnapshotError::Unsupported(
                "restore must precede feeding".to_string(),
            ));
        }
        let kind = r.get_u8()?;
        if kind != SNAP_KIND_SHARDED {
            return Err(SnapshotError::Mismatch(format!(
                "payload kind {kind} is not a sharded-runtime snapshot"
            )));
        }
        let shards = r.get_usize()?;
        if shards != self.cfg.shards {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot has {shards} shards, monitor has {}",
                self.cfg.shards
            )));
        }
        let fed = sane_count("fed", r.get_u64()?)?;
        let extra = EngineStats::restore_from(r)?;
        let mut sent = vec![0u64; shards];
        let budget = self.reply_budget();
        for (shard, slot) in sent.iter_mut().enumerate() {
            *slot = sane_count("sent", r.get_u64()?)?;
            if r.get_u8()? == 0 {
                continue; // written off at checkpoint time: starts fresh
            }
            let len = r.get_usize()?;
            let section = r.section(len)?;
            let (reply_tx, reply_rx) = channel();
            self.send_msg(shard, ShardMsg::Restore(section, reply_tx));
            match reply_rx.recv_timeout(budget) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => return Err(e),
                Err(_) => {
                    return Err(SnapshotError::Unsupported(format!(
                        "shard {shard} did not acknowledge the restore"
                    )))
                }
            }
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after sharded snapshot",
                r.remaining()
            )));
        }
        self.fed = fed;
        self.drained_at = fed;
        self.feeder_extra = extra;
        self.sent = sent;
        Ok(())
    }

    /// The first flush drains the monitor into `sink` (see
    /// [`ShardedMonitor::drain`]), closes the rings and joins the workers;
    /// later flushes emit nothing. The monitor keeps no copy of the
    /// stream: from then on [`RttMonitor::stats`],
    /// [`ShardedMonitor::per_shard`] and [`ShardedMonitor::failures`]
    /// report the run.
    fn flush(&mut self, sink: &mut dyn SampleSink) {
        if self.flushed {
            return;
        }
        self.drain(sink);
        // Dropping the feeder's ends closes the rings: each worker finds
        // its queue empty and returns.
        self.rings.clear();
        for shard in 0..self.cfg.shards {
            let result = match self.handles[shard].take().map(JoinHandle::join) {
                Some(Ok(result)) => result,
                Some(Err(payload)) => {
                    // Unreachable in practice (the worker closure is
                    // catch_unwind-wrapped), kept as defense in depth.
                    self.failures.push(panicked(shard, None, payload));
                    self.feeder_extra.monitor_miss += self.sent[shard];
                    ShardResult::default()
                }
                // Abandoned: its last answer's books, the rest written off.
                None => ShardResult {
                    stats: self.answered[shard].1,
                    failures: Vec::new(),
                },
            };
            self.failures.extend(result.failures);
            self.per_shard.push(result.stats);
        }
        self.failures.sort_by_key(|f| (f.shard, f.at_packet));
        self.flushed = true;
    }

    /// Before `flush`, only the feeder-side packet count is known (shard
    /// counters live on the workers); after, the fully merged counters.
    fn stats(&self) -> EngineStats {
        if !self.flushed {
            return EngineStats {
                packets: self.fed,
                ..EngineStats::default()
            };
        }
        let mut stats = self.feeder_extra;
        for shard in &self.per_shard {
            stats.merge(shard);
        }
        stats
    }
}

/// Everything a worker thread needs, bundled so the spawn site stays
/// readable.
struct ShardCtx {
    shard: usize,
    engine_cfg: DartConfig,
    /// What the worker has emitted since its last drain.
    held: Output,
    /// Where the worker answers drains.
    answers: SyncSender<Drained>,
    hooks: ShardHooks,
    packet_hook: Option<PacketHook>,
    /// The runtime-wide count of recorded failures (see
    /// [`ShardedMonitor::health`]).
    failures: Arc<AtomicUsize>,
    dead: Arc<AtomicBool>,
}

impl ShardCtx {
    /// Record a failure this worker survived, and count it where
    /// [`ShardedMonitor::health`] sees it before the flush.
    fn record(&self, failures: &mut Vec<ShardFailure>, failure: ShardFailure) {
        failures.push(failure);
        self.failures.fetch_add(1, Ordering::Relaxed);
    }
}

/// The worker's one sink: tags every sample and event with the in-block
/// offset the engine publishes into `at`.
struct Tagging<'a> {
    at: &'a Cell<usize>,
    samples: &'a mut Vec<(u64, RttSample)>,
    events: &'a mut Vec<(u64, EngineEvent)>,
}

impl SampleSink for Tagging<'_> {
    fn on_sample(&mut self, s: RttSample) {
        self.samples.push((self.at.get() as u64, s));
    }

    fn on_event(&mut self, ev: EngineEvent) {
        self.events.push((self.at.get() as u64, ev));
    }
}

/// Swap the in-block offsets that tag `entries` for the global packet
/// indices they stand for.
fn retag<T>(entries: &mut [(u64, T)], idx: &[u64]) {
    for (tag, _) in entries {
        *tag = idx[*tag as usize];
    }
}

/// Run one phase of a shard's checkpoint, `write`, unless the shard is
/// shedding and holds no restorable state. Serialization only reads the
/// tables; a panic here (there is no known path) would still leave the
/// engine intact, but it fails the phase.
fn checkpoint_section(
    shard: usize,
    shedding: bool,
    write: impl FnOnce(),
) -> Result<(), SnapshotError> {
    if shedding {
        return Err(SnapshotError::Unsupported(format!(
            "shard {shard} is shedding and holds no restorable state"
        )));
    }
    catch_unwind(AssertUnwindSafe(write)).map_err(|payload| {
        SnapshotError::Unsupported(format!(
            "shard {shard} checkpoint panicked: {}",
            panic_message(payload)
        ))
    })
}

/// A shard's checkpoint section: its restart count, the books of the
/// engines it retired and of its runtime accounting, two zero counts where
/// sample and event lists once stood (a checkpoint is taken drained, so a
/// worker holds no output), then the live engine's state.
fn write_section(
    w: &mut SnapWriter,
    restarts: u32,
    retired: &EngineStats,
    extra: &EngineStats,
    engine: &DartEngine,
) {
    w.put_u32(restarts);
    retired.snapshot_into(w);
    extra.snapshot_into(w);
    w.put_usize(0);
    w.put_usize(0);
    engine.snapshot_into(w);
}

/// A shard's books: the engines it retired, the live one, and its runtime
/// accounting.
fn books(retired: &EngineStats, engine: &DartEngine, extra: &EngineStats) -> EngineStats {
    let mut stats = *retired;
    stats.merge(&engine.stats());
    stats.merge(extra);
    stats
}

/// Worker body: one engine (respawned after a panic, up to
/// [`MAX_RESTARTS`] times), fed blocks until the ring closes, every block
/// under panic isolation.
fn run_shard(mut ctx: ShardCtx, ring: RingEnd<ShardMsg>) -> ShardResult {
    let shard = ctx.shard;
    // The engine's batch pipeline publishes the in-block offset of the
    // packet it is matching into `at`; the worker's sink tags samples and
    // events with it as they are emitted, and they are re-tagged with the
    // block's global indices when the block is done.
    let at = Cell::new(0usize);
    let mut engine = DartEngine::new(ctx.engine_cfg);
    if let Some(tel) = ctx.hooks.tel.clone() {
        engine.attach_telemetry(tel);
    }

    let mut held = std::mem::take(&mut ctx.held);
    let mut failures: Vec<ShardFailure> = Vec::new();
    // Counters of engines discarded by respawns.
    let mut retired = EngineStats::default();
    // The runtime's own accounting (restarts, losses, misses).
    let mut extra = EngineStats::default();
    let mut restarts = 0u32;
    // True once this shard stopped measuring its own traffic.
    let mut shedding = false;

    let mut emptied = None;
    while let Some(msg) = ring.recv(emptied.take()) {
        let mut block = match msg {
            ShardMsg::Block(block) => block,
            ShardMsg::Drain(mut emptied) => {
                // The buffers kept are at least as large as the ones
                // handed back, so a round's growth is paid once, not once
                // per buffer.
                emptied.samples.reserve(held.samples.capacity());
                emptied.events.reserve(held.events.capacity());
                let answer = Drained {
                    output: std::mem::replace(&mut held, emptied),
                    books: books(&retired, &engine, &extra),
                };
                // The channel holds one answer and one drain is in flight,
                // so this never blocks; a feeder gone has no use for it.
                let _ = ctx.answers.try_send(answer);
                continue;
            }
            ShardMsg::Rotate(cutoff) => {
                if !shedding {
                    // The engine publishes rotation counters and the pause
                    // histogram itself through its attached telemetry.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        engine.rotate_epoch(cutoff);
                    }));
                    if let Err(payload) = outcome {
                        // A panicking rotation leaves the tables in an
                        // unknown intermediate state; the shard stops
                        // measuring (a respawn would also forfeit all live
                        // flows — shedding is the same loss, honestly
                        // accounted).
                        ctx.record(&mut failures, panicked(shard, None, payload));
                        ctx.hooks.mark_dead(&ctx.dead);
                        shedding = true;
                    }
                    engine.sync_telemetry();
                }
                continue;
            }
            ShardMsg::Measure(reply) => {
                debug_assert!(held.samples.is_empty() && held.events.is_empty());
                let mut w = SnapWriter::counter();
                let res = checkpoint_section(shard, shedding, || {
                    write_section(&mut w, restarts, &retired, &extra, &engine)
                });
                let _ = reply.send(res.map(|()| w.len()));
                continue;
            }
            ShardMsg::Checkpoint(mut w, reply) => {
                let res = checkpoint_section(shard, shedding, || {
                    write_section(&mut w, restarts, &retired, &extra, &engine)
                });
                let _ = reply.send(res.map(|()| w));
                continue;
            }
            ShardMsg::Restore(section, reply) => {
                let res = if shedding {
                    Err(SnapshotError::Unsupported(format!(
                        "shard {shard} is shedding and cannot accept state"
                    )))
                } else {
                    let mut r = section.reader();
                    (|| {
                        let snap_restarts = r.get_u32()?;
                        let snap_retired = EngineStats::restore_from(&mut r)?;
                        let snap_extra = EngineStats::restore_from(&mut r)?;
                        for what in ["samples", "events"] {
                            let count = r.get_usize()?;
                            if count != 0 {
                                return Err(SnapshotError::Unsupported(format!(
                                    "shard {shard}'s section holds {count} undelivered {what}: \
                                     a checkpoint holds state, never output"
                                )));
                            }
                        }
                        engine.restore_from(&mut r)?;
                        if r.remaining() != 0 {
                            return Err(SnapshotError::Corrupt(format!(
                                "{} trailing bytes after shard {shard} section",
                                r.remaining()
                            )));
                        }
                        restarts = snap_restarts;
                        retired = snap_retired;
                        extra = snap_extra;
                        Ok(())
                    })()
                };
                let _ = reply.send(res);
                continue;
            }
        };
        let block_start = Instant::now();
        if shedding {
            // Drain mode: keep consuming so the feeder never blocks on a
            // ring nobody reads, but count every packet as missed.
            extra.monitor_miss += block.len() as u64;
        } else {
            // The chaos hook sees the whole block before the engine sees
            // any of it. A panic at offset `k` ends the block there: the
            // packets before `k` are measured, the rest written off.
            let mut run = block.len();
            let mut failure = None;
            if let Some(hook) = &ctx.packet_hook {
                // `at` names the packet in hand here as it does in the
                // engine, so a panic on either side is located the same way.
                let hooked = catch_unwind(AssertUnwindSafe(|| {
                    for (k, idx) in block.idx.iter().enumerate() {
                        at.set(k);
                        hook(*idx, shard);
                    }
                }));
                if let Err(payload) = hooked {
                    run = at.get();
                    failure = Some((run, payload));
                }
            }
            let before = engine.stats().packets;
            let marks = (held.samples.len(), held.events.len());
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut tagging = Tagging {
                    at: &at,
                    samples: &mut held.samples,
                    events: &mut held.events,
                };
                at.set(0);
                engine.process_batch_at(&block.pkts[..run], &mut tagging, &at);
            }));
            if let Err(payload) = outcome {
                failure = Some((at.get(), payload));
            }
            retag(&mut held.samples[marks.0..], &block.idx);
            retag(&mut held.events[marks.1..], &block.idx);
            if let Some((k, payload)) = failure {
                // The batch pipeline counts a block's packets when it
                // completes, so whichever side panicked `packets +
                // monitor_miss` covers the block exactly.
                let processed = engine.stats().packets - before;
                extra.monitor_miss += block.len() as u64 - processed;
                let mut failure = panicked(shard, Some(block.idx[k]), payload);
                if restarts < MAX_RESTARTS {
                    // Respawn: fresh RT/PT state. The discarded engine's
                    // counters stay (they describe real processing); its
                    // live flows can no longer close.
                    let respawn = Instant::now();
                    restarts += 1;
                    extra.shard_restarts += 1;
                    extra.flows_lost += engine.rt_occupancy() as u64;
                    retired.merge(&engine.stats());
                    engine = DartEngine::new(ctx.engine_cfg);
                    if let Some(tel) = ctx.hooks.tel.clone() {
                        // Base the fresh engine's published series on the
                        // retired totals so per-shard counters stay
                        // monotone across the restart.
                        let mut base = retired;
                        base.merge(&extra);
                        engine.attach_telemetry(tel.with_base(base));
                    }
                    failure.respawn_us = Some(respawn.elapsed().as_micros() as u64);
                } else {
                    ctx.hooks.mark_dead(&ctx.dead);
                    shedding = true;
                }
                ctx.record(&mut failures, failure);
            }
        }
        // The batch pipeline has already published the engine's counters
        // at the block boundary.
        if let Some(tel) = &ctx.hooks.tel {
            tel.observe_batch_ns(block_start.elapsed().as_nanos() as u64);
        }
        if let Some(g) = &ctx.hooks.channel {
            g.sub(1);
        }
        block.clear();
        emptied = Some(block);
    }
    if !shedding {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
            RttMonitor::flush(&mut engine, &mut |_: RttSample| {})
        })) {
            ctx.record(&mut failures, panicked(shard, None, payload));
            ctx.hooks.mark_dead(&ctx.dead);
        }
    }
    let stats = books(&retired, &engine, &extra);
    if let Some(tel) = &ctx.hooks.tel {
        // Publish the shard's true final totals (runtime accounting
        // included) regardless of any restart bases.
        tel.clone()
            .with_base(EngineStats::default())
            .sync_stats(&stats);
    }
    ShardResult { stats, failures }
}

/// Deterministic merge of one drain round: each shard's answer holds its
/// samples and events in emission order, tagged with global packet
/// indices; `sink` gets them ordered by (packet index, shard id), a
/// packet's samples ahead of its events — serial emission order, since
/// only the ACK role samples and it runs before the SEQ role. A packet
/// lives on exactly one shard, so the shard id never decides. `heads` is
/// the cursor into each answer, so a merge allocates nothing; the answers
/// are left empty for the next round.
fn merge(answers: &mut [Output], heads: &mut [(usize, usize)], sink: &mut dyn SampleSink) {
    heads.fill((0, 0));
    loop {
        // The smallest (packet index, shard, is event) among the heads.
        let mut next: Option<(u64, usize, bool)> = None;
        for (shard, (answer, &(s, e))) in answers.iter().zip(heads.iter()).enumerate() {
            let sample = answer.samples.get(s).map(|&(idx, _)| (idx, shard, false));
            let event = answer.events.get(e).map(|&(idx, _)| (idx, shard, true));
            for head in [sample, event].into_iter().flatten() {
                if next.is_none_or(|n| head < n) {
                    next = Some(head);
                }
            }
        }
        let Some((_, shard, is_event)) = next else {
            break;
        };
        let (s, e) = &mut heads[shard];
        if is_event {
            sink.on_event(answers[shard].events[*e].1);
            *e += 1;
        } else {
            sink.on_sample(answers[shard].samples[*s].1);
            *s += 1;
        }
    }
    for answer in answers {
        answer.samples.clear();
        answer.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Leg;
    use crate::monitor::{run_monitor, run_monitor_slice};
    use crate::sample::recording::{Emission, Emissions};
    use crate::snapshot::Snapshot;
    use crate::telemetry::{EPOCH_ROTATIONS, SHARD_COUNTERS};
    use dart_packet::{Direction, Nanos, PacketBuilder, SliceSource};

    /// A whole-trace sharded replay through the block driver: the samples
    /// its flush emitted, and the flushed monitor, whose accessors report
    /// the run.
    fn replay(cfg: ShardedConfig, pkts: &[PacketMeta]) -> (Vec<RttSample>, ShardedMonitor) {
        let mut monitor = ShardedMonitor::new(cfg);
        let (samples, _) = run_monitor_slice(&mut monitor, pkts);
        (samples, monitor)
    }

    /// Flush `monitor` into a fresh vector: the samples of the whole run.
    fn flush_samples(monitor: &mut ShardedMonitor) -> Vec<RttSample> {
        let mut samples = Vec::new();
        monitor.flush(&mut samples);
        samples
    }

    /// Hand `pkts` over one `on_packet` call each, as a per-packet driver
    /// does; the sharded runtime emits nothing before the flush.
    fn feed_each(monitor: &mut ShardedMonitor, pkts: &[PacketMeta]) {
        for p in pkts {
            monitor.on_packet(p, &mut Vec::new());
        }
    }

    fn flow(n: u32) -> FlowKey {
        FlowKey::from_raw(0x0a00_0000 + n, 40000 + (n % 1000) as u16, 0x5db8_d822, 443)
    }

    /// A clean data/ACK exchange for `f` at time `t`.
    fn data_ack(f: FlowKey, seq: u32, len: u32, t: Nanos, rtt: Nanos) -> [PacketMeta; 2] {
        let data = PacketBuilder::new(f, t)
            .seq(seq)
            .payload(len)
            .dir(Direction::Outbound)
            .build();
        let ack = PacketBuilder::new(f.reverse(), t + rtt)
            .ack(seq.wrapping_add(len))
            .dir(Direction::Inbound)
            .build();
        [data, ack]
    }

    /// Interleaved exchanges over `flows` flows, ACKs arriving after later
    /// flows' data — exercises cross-shard interleaving.
    fn trace(flows: u32, exchanges: u32) -> Vec<PacketMeta> {
        let mut pkts = Vec::new();
        for e in 0..exchanges {
            for fi in 0..flows {
                let t = (e as Nanos) * 10_000_000 + (fi as Nanos) * 1_000;
                let [d, a] = data_ack(flow(fi), e * 1460, 1460, t, 5_000_000);
                pkts.push(d);
                pkts.push(a);
            }
        }
        pkts.sort_by_key(|p| p.ts);
        pkts
    }

    #[test]
    fn one_shard_is_bit_identical_to_serial() {
        let pkts = trace(40, 6);
        let (serial_samples, serial_stats) =
            run_monitor_slice(&mut DartEngine::new(DartConfig::default()), &pkts);
        let (samples, out) = replay(ShardedConfig::new(DartConfig::default(), 1), &pkts);
        assert_eq!(samples, serial_samples);
        assert_eq!(out.stats(), serial_stats);
        assert!(out.failures().is_empty());
    }

    #[test]
    fn unlimited_config_matches_serial_at_any_shard_count() {
        let pkts = trace(50, 5);
        let (serial, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &pkts);
        for shards in [2usize, 3, 4, 8] {
            let (samples, out) = replay(ShardedConfig::new(DartConfig::unlimited(), shards), &pkts);
            assert_eq!(samples, serial, "shards = {shards}");
            assert_eq!(out.stats().packets, pkts.len() as u64);
        }
    }

    #[test]
    fn both_directions_land_on_one_shard() {
        for n in 1..=8usize {
            for fi in 0..100 {
                let f = flow(fi);
                assert_eq!(shard_of(&f, n), shard_of(&f.reverse(), n));
            }
        }
    }

    #[test]
    fn shards_cover_all_packets() {
        let pkts = trace(30, 4);
        let (_, out) = replay(ShardedConfig::new(DartConfig::default(), 4), &pkts);
        assert_eq!(out.stats().packets, pkts.len() as u64);
        assert_eq!(out.per_shard().len(), 4);
        let by_shard: u64 = out.per_shard().iter().map(|s| s.packets).sum();
        assert_eq!(by_shard, pkts.len() as u64);
        // Every shard must actually receive traffic (30 well-mixed flows
        // over 4 shards leave an empty shard with probability ~4·(3/4)³⁰).
        assert!(out.per_shard().iter().all(|s| s.packets > 0));
    }

    #[test]
    fn merge_order_is_serial_emission_order() {
        let pkts = trace(25, 4);
        let (samples, _) = replay(
            ShardedConfig::new(DartConfig::unlimited(), 4).with_batch_size(7),
            &pkts,
        );
        // Samples must be ordered by their ACK's arrival time (ties allowed).
        assert!(samples.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn tiny_batches_and_queues_still_complete() {
        let pkts = trace(20, 3);
        let (samples, _) = replay(
            ShardedConfig::new(DartConfig::unlimited(), 3)
                .with_batch_size(1)
                .with_queue_depth(1),
            &pkts,
        );
        let (serial, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &pkts);
        assert_eq!(samples, serial);
    }

    #[test]
    fn on_batch_hands_the_whole_block_off() {
        // Block lengths that are multiples neither of the batch size nor
        // of each other: whatever is left in a shard's buffer when the
        // block ends is dispatched, and the output is the per-packet one.
        let pkts = trace(30, 5);
        let cfg = ShardedConfig::new(DartConfig::default(), 3).with_batch_size(16);
        let mut per_packet = ShardedMonitor::new(cfg);
        feed_each(&mut per_packet, &pkts);
        let per_packet_samples = flush_samples(&mut per_packet);

        let mut monitor = ShardedMonitor::new(cfg);
        let mut sink = Vec::new();
        let mut fed = 0u64;
        for block in pkts.chunks(37) {
            monitor.on_batch(block, &mut sink);
            fed += block.len() as u64;
            assert!(monitor.bufs.iter().all(Block::is_empty));
            assert_eq!(monitor.sent.iter().sum::<u64>(), fed);
        }
        monitor.flush(&mut sink);
        assert_eq!(sink, per_packet_samples);
        assert_eq!(monitor.stats(), per_packet.stats());
    }

    #[test]
    fn streaming_monitor_matches_batch_run() {
        let pkts = trace(30, 5);
        let cfg = ShardedConfig::new(DartConfig::default(), 4).with_batch_size(16);
        let (batch_samples, batch) = replay(cfg, &pkts);

        let mut monitor = ShardedMonitor::new(cfg);
        let mut streamed = Vec::new();
        for p in &pkts {
            monitor.on_packet(p, &mut streamed);
        }
        assert!(streamed.is_empty(), "on_packet emits nothing");
        // stats() before flush: feeder-side packet count only.
        assert_eq!(monitor.stats().packets, pkts.len() as u64);
        monitor.flush(&mut streamed);
        assert_eq!(streamed, batch_samples);
        assert_eq!(monitor.stats(), batch.stats());
        // Idempotent: a second flush emits nothing and keeps the counters.
        monitor.flush(&mut streamed);
        assert_eq!(streamed, batch_samples);
        assert_eq!(monitor.stats(), batch.stats());
    }

    /// The sharded flush hands its sink the serial engine's interleaved
    /// sample/event stream: exactly at one shard, and at four under an
    /// unlimited config (no cross-flow interaction).
    #[test]
    fn events_are_merged_deterministically() {
        // A retransmission triggers a RangeCollapse event: duplicate the
        // data packet of every other flow, and let the rest sample cleanly.
        let mut pkts = Vec::new();
        for fi in 0..24 {
            let t = fi as Nanos * 1_000_000;
            let [d, a] = data_ack(flow(fi), 0, 1460, t, 5_000_000);
            pkts.extend([d, a]);
            if fi % 2 == 0 {
                pkts.push(PacketMeta { ts: t + 1_000, ..d });
            }
        }
        // One packet that samples and collapses: the server's ACK of the
        // client's data piggybacks a retransmission of its own.
        let f = flow(99);
        let server = |ts: Nanos| {
            PacketBuilder::new(f.reverse(), ts)
                .seq(5000u32)
                .payload(100)
                .dir(Direction::Inbound)
        };
        pkts.push(data_ack(f, 0, 1460, 2_000_000, 0)[0]);
        pkts.push(server(3_000_000).build());
        pkts.push(server(7_000_000).ack(1460u32).build());
        pkts.sort_by_key(|p| p.ts);
        let emitted = |monitor: &mut dyn RttMonitor| {
            let mut out = Emissions::default();
            run_monitor(monitor, SliceSource::new(&pkts), &mut out).unwrap();
            out.0
        };
        for (cfg, shards) in [
            (DartConfig::default(), 1),
            (DartConfig::unlimited(), 1),
            (DartConfig::unlimited(), 4),
        ] {
            let cfg = cfg.with_leg(Leg::Both);
            let serial = emitted(&mut DartEngine::new(cfg));
            assert!(serial.windows(2).any(|w| matches!(
                w,
                [Emission::Sample(s), Emission::Event(EngineEvent::RangeCollapse { ts, .. })]
                    if s.ts == *ts
            )));
            let sharded = emitted(&mut ShardedMonitor::new(ShardedConfig::new(cfg, shards)));
            assert_eq!(sharded, serial, "{shards} shards over {cfg:?}");
        }
    }

    // ---- hand-off ring tests (the ring's own contract is in `ring.rs`) ---

    const PATIENT: Duration = Duration::from_secs(30);

    #[test]
    fn unwinding_worker_closes_the_ring_and_the_next_send_is_written_off() {
        let pkts = trace(6, 4);
        let mut monitor = ShardedMonitor::new(ShardedConfig::new(DartConfig::default(), 1));
        // Stand in for a worker that unwound outside its `catch_unwind`:
        // a thread that panics while it holds the worker's end of a ring
        // the feeder is sending on.
        let (feeder_end, worker_end) = Ring::pair(2);
        let worker = thread::spawn(move || {
            let _end = worker_end;
            std::panic::resume_unwind(Box::new("worker scaffolding gave way"));
        });
        assert!(worker.join().is_err());
        assert!(matches!(
            feeder_end.send(ShardMsg::Rotate(0), PATIENT),
            Err(SendError::Closed)
        ));
        monitor.rings[0] = Some(feeder_end);
        let mut sink = Vec::new();
        monitor.on_batch(&pkts, &mut sink);
        assert!(monitor.rings[0].is_none());
        assert_eq!(monitor.health().healthy_shards, 0);
        monitor.on_batch(&pkts, &mut sink);
        monitor.flush(&mut sink);
        assert_eq!(monitor.stats().packets, 0);
        assert_eq!(monitor.stats().monitor_miss, 2 * pkts.len() as u64);
    }

    // ---- supervised-runtime tests -------------------------------------

    /// A hook that panics when the worker reaches global packet `at`.
    fn panic_at(at: u64) -> PacketHook {
        Arc::new(move |idx, _shard| {
            if idx == at {
                panic!("chaos: injected panic at packet {at}");
            }
        })
    }

    /// A hook that panics on every packet of `shard`: the shard spends its
    /// restart budget on its first [`MAX_RESTARTS`] blocks and sheds from
    /// the next one on.
    fn kill_shard(shard: usize) -> PacketHook {
        Arc::new(move |idx, at| {
            if at == shard {
                panic!("chaos: shard {shard} fails again at packet {idx}");
            }
        })
    }

    /// Supervised config with small batches so failures land mid-run.
    fn sup_cfg(shards: usize) -> ShardedConfig {
        ShardedConfig::new(DartConfig::default(), shards).with_batch_size(8)
    }

    #[test]
    fn restart_respawns_and_accounts_losses() {
        let pkts = trace(30, 6);
        let target = (pkts.len() / 2) as u64;
        let mut monitor = ShardedMonitor::spawn(sup_cfg(4), None, Some(panic_at(target)));
        feed_each(&mut monitor, &pkts);
        flush_samples(&mut monitor);
        let (stats, failures) = (monitor.stats(), monitor.failures());
        assert_eq!(stats.shard_restarts, 1);
        assert!(failures.len() == 1, "{failures:?}");
        assert_eq!(failures[0].at_packet, Some(target));
        assert!(failures[0].respawn_us.is_some(), "the respawn is timed");
        // Only the failed batch's tail is missed; everything else measured.
        assert_eq!(stats.packets + stats.monitor_miss, pkts.len() as u64);
        assert!(stats.monitor_miss < 8, "at most one batch lost");
        assert!(stats.samples > 0);
    }

    #[test]
    fn default_config_respawns_and_keeps_measuring() {
        // The configuration `analyze --shards 4` and `serve` run, fed in
        // driver blocks: one panic mid-trace costs the rest of one
        // hand-off block, and every later packet is measured.
        let pkts = trace(100, 12);
        let target = (pkts.len() / 2) as u64;
        let cfg = ShardedConfig::new(DartConfig::default(), 4);
        let mut monitor = ShardedMonitor::spawn(cfg, None, Some(panic_at(target)));
        let (_, stats) = run_monitor_slice(&mut monitor, &pkts);
        assert_eq!(stats.shard_restarts, 1, "{:?}", monitor.failures());
        assert!(
            stats.monitor_miss < cfg.batch_size as u64,
            "missed {} packets",
            stats.monitor_miss
        );
        assert_eq!(stats.packets + stats.monitor_miss, pkts.len() as u64);
        assert_eq!(
            monitor
                .per_shard()
                .iter()
                .filter(|s| s.packets == 0)
                .count(),
            0
        );
    }

    #[test]
    fn shed_load_keeps_other_shards_measuring() {
        // Long enough that shard 1 sees more blocks than its budget.
        let pkts = trace(60, 12);
        let mut monitor = ShardedMonitor::spawn(sup_cfg(4), None, Some(kill_shard(1)));
        feed_each(&mut monitor, &pkts);
        flush_samples(&mut monitor);
        let (stats, failures) = (monitor.stats(), monitor.failures());
        // Shard 1 spent its budget, then shed: the last failure respawned
        // nothing.
        assert_eq!(stats.shard_restarts, MAX_RESTARTS as u64);
        assert!(failures.iter().all(|f| f.shard == 1));
        assert!(failures.last().is_some_and(|f| f.respawn_us.is_none()));
        assert!(!failures.is_empty());
        assert_eq!(stats.packets + stats.monitor_miss, pkts.len() as u64);
        // The dead shard's later packets were shed.
        let per_shard = monitor.per_shard();
        assert!(per_shard[1].monitor_miss > 0);
        // The three surviving shards kept measuring every one of theirs.
        for (i, shard) in per_shard.iter().enumerate().filter(|(i, _)| *i != 1) {
            assert_eq!(shard.monitor_miss, 0, "shard {i} missed packets");
            assert!(shard.samples > 0, "shard {i} produced no samples");
        }
    }

    #[test]
    fn stalled_worker_is_abandoned_by_watchdog() {
        let pkts = trace(20, 8);
        // Stall one worker long enough that the watchdog (10 ms) fires
        // while the feeder still has traffic for it.
        let hook: PacketHook = Arc::new(move |idx, _shard| {
            if idx == 0 {
                thread::sleep(Duration::from_millis(200));
            }
        });
        let cfg = ShardedConfig::new(DartConfig::default(), 2)
            .with_batch_size(1)
            .with_queue_depth(1)
            .with_stall_timeout(Duration::from_millis(10));
        let mut monitor = ShardedMonitor::spawn(cfg, None, Some(hook));
        feed_each(&mut monitor, &pkts);
        flush_samples(&mut monitor);
        let (stats, failures) = (monitor.stats(), monitor.failures());
        assert!(
            failures
                .iter()
                .any(|f| matches!(f.kind, FailureKind::Stalled { .. })),
            "{failures:?}"
        );
        assert_eq!(stats.packets + stats.monitor_miss, pkts.len() as u64);
        assert!(stats.monitor_miss > 0);
    }

    /// A shard abandoned by the watchdog keeps the books of its last drain
    /// answer, and only what it was sent after that is written off: the
    /// sink sees exactly the samples the books count.
    #[test]
    fn an_abandoned_shard_counts_the_samples_it_delivered() {
        let pkts = trace(40, 30);
        let stall = shard_of(&flow(0), 2);
        let hook: PacketHook = Arc::new(move |idx, shard| {
            if shard == stall && (600..700).contains(&idx) {
                thread::sleep(Duration::from_millis(3));
            }
        });
        let cfg = ShardedConfig::new(DartConfig::default(), 2)
            .with_batch_size(16)
            .with_queue_depth(1)
            .with_stall_timeout(Duration::from_millis(20));
        let mut monitor = ShardedMonitor::spawn(cfg, None, Some(hook));
        let mut out = Vec::new();
        monitor.on_batch(&pkts[..500], &mut out);
        monitor.drain(&mut out);
        for block in pkts[500..].chunks(64) {
            monitor.on_batch(block, &mut out);
        }
        monitor.flush(&mut out);
        let stats = monitor.stats();
        assert!(
            monitor
                .failures()
                .iter()
                .any(|f| f.shard == stall && matches!(f.kind, FailureKind::Stalled { .. })),
            "{:?}",
            monitor.failures()
        );
        assert!(
            monitor.per_shard()[stall].samples > 0,
            "delivered before the stall"
        );
        assert_eq!(out.len() as u64, stats.samples);
        assert_eq!(stats.packets + stats.monitor_miss, pkts.len() as u64);
    }

    /// Feeding a flushed monitor is a caller bug: a debug build asserts,
    /// a release build drops the packets and leaves the run as it was.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "flushed"))]
    fn feeding_after_flush_drops_the_packets() {
        let pkts = trace(5, 2);
        let cfg = ShardedConfig::new(DartConfig::default(), 2);
        let (reference_samples, reference) = replay(cfg, &pkts);
        let mut monitor = ShardedMonitor::new(cfg);
        let (samples, stats) = run_monitor_slice(&mut monitor, &pkts);
        let mut sink = Vec::new();
        monitor.on_batch(&pkts, &mut sink);
        assert!(sink.is_empty());
        assert_eq!(monitor.stats(), stats);
        monitor.flush(&mut sink);
        assert!(sink.is_empty());
        assert_eq!(samples, reference_samples);
        assert_eq!(monitor.stats(), reference.stats());
    }

    #[test]
    fn restart_budget_exhaustion_degrades_to_shedding() {
        let pkts = trace(16, 8);
        // Shard 0 panics on every 10th packet: more failures than its
        // budget. Shard 1 never fails.
        let hook: PacketHook = Arc::new(|idx, shard| {
            if shard == 0 && idx % 10 == 0 {
                panic!("chaos: repeated panic");
            }
        });
        let cfg = ShardedConfig::new(DartConfig::default(), 2).with_batch_size(4);
        let mut monitor = ShardedMonitor::spawn(cfg, None, Some(hook));
        feed_each(&mut monitor, &pkts);
        monitor.flush(&mut Vec::new());
        assert_eq!(monitor.health().healthy_shards, 1, "shard 0 sheds");
        let (stats, failures) = (monitor.stats(), monitor.failures());
        assert_eq!(stats.shard_restarts, MAX_RESTARTS as u64);
        // The failure past the budget respawned nothing: the shard shed.
        assert_eq!(failures.len(), MAX_RESTARTS as usize + 1);
        assert!(failures.iter().all(|f| f.shard == 0));
        assert!(failures[MAX_RESTARTS as usize].respawn_us.is_none());
        assert!(!failures.is_empty());
        assert_eq!(stats.packets + stats.monitor_miss, pkts.len() as u64);
        // The shed shard's later packets were missed; the other shard kept
        // measuring every one of its own.
        let per_shard = monitor.per_shard();
        assert!(per_shard[0].monitor_miss > 0);
        assert_eq!(per_shard[1].monitor_miss, 0);
        assert!(per_shard[1].samples > 0);
    }

    #[test]
    fn rotation_with_past_cutoff_preserves_the_run() {
        // cutoff 0 keeps every PT record; the RT generation sweep keeps
        // every flow touched in the current epoch — rotating mid-run over
        // continuously-active flows must not change the merged output.
        let pkts = trace(30, 6);
        let cfg = ShardedConfig::new(DartConfig::unlimited(), 4).with_batch_size(16);
        let (baseline, _) = replay(cfg, &pkts);

        let mut monitor = ShardedMonitor::new(cfg);
        for (i, p) in pkts.iter().enumerate() {
            monitor.on_packet(p, &mut Vec::new());
            if i == pkts.len() / 2 {
                monitor.rotate_epoch(0);
            }
        }
        let samples = flush_samples(&mut monitor);
        assert!(monitor.failures().is_empty());
        assert_eq!(samples, baseline);
        assert_eq!(monitor.stats().packets, pkts.len() as u64);
    }

    #[test]
    fn rotation_with_future_cutoff_sweeps_but_keeps_measuring() {
        // A cutoff past every timestamp drops all in-flight PT records:
        // their ACKs miss, yet conservation holds and later exchanges
        // still produce samples.
        let pkts = trace(20, 6);
        let cfg = ShardedConfig::new(DartConfig::default(), 3).with_batch_size(8);
        let mut monitor = ShardedMonitor::new(cfg);
        // Split mid-exchange: each exchange is 20 data packets then their
        // 20 ACKs (the 5 ms RTT dwarfs the µs flow stagger), so cutting
        // after exchange 3's data burst leaves 20 records in flight.
        let half = 3 * 40 + 20;
        feed_each(&mut monitor, &pkts[..half]);
        monitor.rotate_epoch(Nanos::MAX);
        feed_each(&mut monitor, &pkts[half..]);
        flush_samples(&mut monitor);
        let stats = monitor.stats();
        assert!(monitor.failures().is_empty());
        assert_eq!(stats.packets, pkts.len() as u64);
        assert!(stats.samples > 0, "post-rotation exchanges measured");
        let (serial, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::default()), &pkts);
        assert!(
            (stats.samples as usize) < serial.len(),
            "the sweep must cost some in-flight matches"
        );
    }

    #[test]
    fn health_reports_the_runtime_state() {
        let pkts = trace(10, 2);
        let mut monitor = ShardedMonitor::new(ShardedConfig::new(DartConfig::default(), 3));
        let h = monitor.health();
        assert!(h.healthy());
        assert_eq!(h.shards, 3);
        assert_eq!(h.healthy_shards, 3);
        assert_eq!(h.fed, 0);
        assert!(!h.flushed);
        feed_each(&mut monitor, &pkts);
        assert_eq!(monitor.health().fed, pkts.len() as u64);
        let mut sink = Vec::new();
        monitor.flush(&mut sink);
        let h = monitor.health();
        assert!(h.flushed);
        assert!(h.healthy());
        let json = h.to_json();
        assert!(json.contains("\"healthy\":true"), "{json}");
        assert!(json.contains("\"shards\":3"), "{json}");
    }

    #[test]
    fn health_counts_dead_shards() {
        let pkts = trace(20, 6);
        let cfg = sup_cfg(4).with_batch_size(1);
        let mut monitor = ShardedMonitor::spawn(cfg, None, Some(kill_shard(0)));
        feed_each(&mut monitor, &pkts);
        let mut sink = Vec::new();
        monitor.flush(&mut sink);
        let h = monitor.health();
        assert!(!h.healthy());
        assert_eq!(h.healthy_shards, 3, "one shard died");
        assert_eq!(h.failures, MAX_RESTARTS as usize + 1);
    }

    #[test]
    fn health_reports_a_respawn_before_the_flush() {
        let pkts = trace(30, 6);
        let target = (pkts.len() / 2) as u64;
        let mut monitor = ShardedMonitor::spawn(sup_cfg(4), None, Some(panic_at(target)));
        let mut sink = Vec::new();
        monitor.on_batch(&pkts, &mut sink);
        // Every block is on a ring now; the worker records the respawn on
        // its own time.
        let deadline = Instant::now() + Duration::from_secs(1);
        let mut h = monitor.health();
        while h.failures == 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
            h = monitor.health();
        }
        assert_eq!(h.failures, 1, "{h:?}");
        assert!(!h.healthy());
        assert_eq!(h.healthy_shards, 4, "a respawned shard still measures");
        assert!(!h.flushed);
        monitor.flush(&mut sink);
        let h = monitor.health();
        assert!(h.flushed);
        assert_eq!(h.failures, 1, "counted once across the flush");
    }

    /// `on_batch` emits every round all shards have answered, without
    /// waiting for one; `drain` waits for everything fed. Whatever the
    /// cadence, the stream concatenated is the whole run's.
    #[test]
    fn on_batch_emits_answered_rounds_and_drain_emits_the_rest() {
        let pkts = trace(40, 12);
        let cfg = ShardedConfig::new(DartConfig::unlimited(), 2).with_batch_size(16);
        let (whole, _) = replay(cfg, &pkts);
        let mut monitor = ShardedMonitor::new(cfg);
        let mut out = Vec::new();
        let blocks: Vec<&[PacketMeta]> = pkts.chunks(50).collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        for (k, block) in blocks.iter().enumerate() {
            monitor.on_batch(block, &mut out);
            if k == blocks.len() / 2 {
                // Give the workers time to answer: the next blocks emit.
                let before = out.len();
                while out.len() == before && Instant::now() < deadline {
                    thread::sleep(Duration::from_millis(1));
                    monitor.on_batch(&[], &mut out);
                }
                assert!(out.len() > before, "no round emitted while feeding");
            }
        }
        assert!(out.len() < whole.len(), "the last round is still in flight");
        monitor.drain(&mut out);
        assert_eq!(out, whole, "drained");
        assert_eq!(monitor.drained_at, pkts.len() as u64);
        monitor.drain(&mut out);
        monitor.flush(&mut out);
        assert_eq!(out, whole, "nothing twice");
        assert_eq!(monitor.stats().samples, whole.len() as u64);
    }

    #[test]
    fn an_undrained_monitor_refuses_to_checkpoint() {
        let pkts = trace(10, 3);
        let mut monitor = ShardedMonitor::new(ShardedConfig::new(DartConfig::default(), 2));
        assert!(monitor.snapshot().is_ok(), "nothing fed, nothing undrained");
        feed_each(&mut monitor, &pkts);
        assert!(matches!(
            monitor.snapshot(),
            Err(SnapshotError::Unsupported(why)) if why.contains("drain")
        ));
        let mut out = Vec::new();
        monitor.drain(&mut out);
        assert!(!out.is_empty());
        let snap = monitor.snapshot().expect("drained");
        let mut restored = ShardedMonitor::new(ShardedConfig::new(DartConfig::default(), 2));
        restored.restore(&snap).expect("restore");
        assert!(restored.snapshot().is_ok(), "a restored monitor is drained");

        // Shard 0's section opens with its restart count and two books,
        // then the sample count, written 0: a section that holds output
        // is refused.
        let mut books = SnapWriter::new();
        EngineStats::default().snapshot_into(&mut books);
        let books = books.len();
        let at = (1 + 8 + 8 + books) + (8 + 1 + 8) + (4 + 2 * books);
        let mut payload = snap.payload().to_vec();
        assert_eq!(payload[at..at + 16], [0; 16], "sample and event counts");
        payload[at] = 1;
        let mut refused = ShardedMonitor::new(ShardedConfig::new(DartConfig::default(), 2));
        assert!(matches!(
            refused.restore(&Snapshot::from_payload(payload)),
            Err(SnapshotError::Unsupported(why)) if why.contains("undelivered samples")
        ));
    }

    #[test]
    fn rotation_publishes_per_shard_epoch_series() {
        use dart_telemetry::MetricRegistry;
        let pkts = trace(20, 4);
        let registry = MetricRegistry::new();
        let cfg = ShardedConfig::new(DartConfig::default(), 2).with_batch_size(8);
        let mut monitor = ShardedMonitor::spawn(cfg, Some(&registry), None);
        feed_each(&mut monitor, &pkts);
        monitor.rotate_epoch(0);
        let mut sink = Vec::new();
        monitor.flush(&mut sink);
        let snap = registry.scrape();
        let rotations: u64 = snap
            .samples
            .iter()
            .filter(|s| s.name == EPOCH_ROTATIONS.name)
            .map(|s| match s.value {
                dart_telemetry::MetricValue::Counter { total, .. } => total,
                _ => 0,
            })
            .sum();
        assert_eq!(rotations, 2, "one rotation on each of the two shards");
    }

    #[test]
    fn supervisor_metrics_track_health() {
        use dart_telemetry::MetricRegistry;
        let pkts = trace(20, 6);
        let registry = MetricRegistry::new();
        let mut monitor = ShardedMonitor::spawn(
            sup_cfg(4).with_batch_size(1),
            Some(&registry),
            Some(kill_shard(0)),
        );
        let healthy = registry.gauge(SUPERVISOR_HEALTHY_SHARDS.name, &[], "");
        assert_eq!(healthy.get(), 4);
        feed_each(&mut monitor, &pkts);
        flush_samples(&mut monitor);
        assert!(!monitor.failures().is_empty());
        assert_eq!(healthy.get(), 3, "one shard died");
        // The supervised counters made it into the per-shard series.
        let snap = registry.scrape();
        assert!(snap
            .samples
            .iter()
            .any(|s| s.name == SHARD_COUNTERS.name_for("monitor_miss")));
    }

    // ---- checkpoint/restore tests --------------------------------------

    #[test]
    fn sharded_checkpoint_restore_resumes_identically() {
        let pkts = trace(30, 5);
        let cfg = ShardedConfig::new(DartConfig::default(), 4).with_batch_size(7);

        // Reference: one uninterrupted run over the whole trace.
        let (whole_samples, whole) = replay(cfg, &pkts);

        let split = pkts.len() * 2 / 3;
        let mut a = ShardedMonitor::new(cfg);
        feed_each(&mut a, &pkts[..split]);
        // A checkpoint follows a drain: what a emitted before it is
        // delivered, and the checkpoint holds only state.
        let mut samples = Vec::new();
        a.drain(&mut samples);
        let snap = a.snapshot().expect("checkpoint");
        drop(a); // the crash: nothing of a's is collected after the drain

        let mut b = ShardedMonitor::new(cfg);
        b.restore(&snap).expect("restore");
        feed_each(&mut b, &pkts[split..]);
        samples.extend(flush_samples(&mut b));
        assert_eq!(samples, whole_samples);
        let stats = b.stats();
        assert_eq!(stats, whole.stats());
        // Conservation across the crash boundary: every packet fed on
        // either side of it is processed or accounted as missed.
        assert_eq!(stats.packets + stats.monitor_miss, pkts.len() as u64);
        assert!(b.failures().is_empty());
    }

    #[test]
    fn a_streamed_checkpoint_is_the_snapshot_bytes() {
        let pkts = trace(30, 6);
        let cfg = ShardedConfig::new(DartConfig::default(), 2).with_batch_size(7);
        let dir = std::env::temp_dir().join(format!("dart-sharded-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.dsnp");
        let mut m = ShardedMonitor::new(cfg);
        feed_each(&mut m, &pkts[..pkts.len() / 2]);
        m.drain(&mut Vec::new());
        let first = m.snapshot().expect("checkpoint");
        // Nothing fed in between: the same cut, streamed.
        let written = m.checkpoint_to(&path).expect("streamed checkpoint");
        assert_eq!(written, first.as_bytes().len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), first.as_bytes());
        // A longer state after a shorter one leaves nothing of it behind.
        feed_each(&mut m, &pkts[pkts.len() / 2..]);
        m.drain(&mut Vec::new());
        m.checkpoint_to(&path).expect("streamed checkpoint");
        assert_eq!(
            Snapshot::from_file(&path).unwrap(),
            m.snapshot().expect("checkpoint")
        );
        let mut b = ShardedMonitor::new(cfg);
        b.restore(&Snapshot::from_file(&path).unwrap())
            .expect("restore");
        flush_samples(&mut b);
        assert_eq!(b.stats(), replay(cfg, &pkts).1.stats());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A restore from a file reads it a window at a time and restores what
    /// the same bytes in memory do; a torn, truncated or altered file is
    /// refused by the frame check, before any shard's state changes.
    #[test]
    fn a_damaged_checkpoint_file_is_refused_before_any_shard_changes() {
        let pkts = trace(30, 6);
        let cfg = ShardedConfig::new(DartConfig::default(), 2).with_batch_size(7);
        let dir = std::env::temp_dir().join(format!("dart-sharded-damage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (path, bad) = (dir.join("state.dsnp"), dir.join("bad.dsnp"));
        let mut a = ShardedMonitor::new(cfg);
        feed_each(&mut a, &pkts[..pkts.len() / 2]);
        a.drain(&mut Vec::new());
        a.checkpoint_to(&path).expect("checkpoint");
        flush_samples(&mut a);
        let honest = std::fs::read(&path).unwrap();

        let mut restored = ShardedMonitor::new(cfg);
        restored.restore_file(&path).expect("restore");
        assert_eq!(restored.snapshot().unwrap().as_bytes(), honest);
        let mut fresh = ShardedMonitor::new(cfg);
        let n = honest.len();
        let flip = |at: usize| {
            let mut bytes = honest.clone();
            bytes[at] ^= 0x10;
            bytes
        };
        let damaged = [
            ("empty", Vec::new()),
            ("torn header", honest[..10].to_vec()),
            ("truncated payload", honest[..n / 2].to_vec()),
            ("truncated trailer", honest[..n - 3].to_vec()),
            ("a byte too many", [&honest[..], &[0]].concat()),
            ("a payload bit flipped", flip(n / 2)),
            ("a checksum bit flipped", flip(n - 1)),
            ("a length bit flipped", flip(9)),
        ];
        for (what, bytes) in damaged {
            std::fs::write(&bad, bytes).unwrap();
            for m in [&mut restored, &mut fresh] {
                let before = m.snapshot().unwrap();
                let refused = m.restore_file(&bad);
                assert!(
                    matches!(refused, Err(SnapshotError::Corrupt(_))),
                    "{what}: {refused:?}"
                );
                assert_eq!(m.snapshot().unwrap(), before, "{what}: state changed");
            }
        }
        // Nothing of the refused files reached the fresh monitor's shards.
        fresh.restore_file(&path).expect("restore");
        assert_eq!(fresh.snapshot().unwrap().as_bytes(), honest);
        flush_samples(&mut restored);
        flush_samples(&mut fresh);
        assert_eq!(fresh.stats(), restored.stats());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_writes_off_dead_shards_conservatively() {
        let pkts = trace(30, 6);
        let split = pkts.len() / 2;
        let cfg = sup_cfg(4).with_batch_size(1);
        let mut a = ShardedMonitor::spawn(cfg, None, Some(kill_shard(0)));
        feed_each(&mut a, &pkts[..split]);
        a.drain(&mut Vec::new());
        let snap = a.snapshot().expect("checkpoint survives a dead shard");
        drop(a);

        let mut b = ShardedMonitor::new(cfg);
        b.restore(&snap).expect("restore");
        feed_each(&mut b, &pkts[split..]);
        flush_samples(&mut b);
        let stats = b.stats();
        // The dead shard's entire history was written off into the
        // snapshot's monitor_miss (its worker-side books are
        // unrecoverable), so conservation holds across the crash and the
        // shard restarts fresh on the other side.
        assert_eq!(stats.packets + stats.monitor_miss, pkts.len() as u64);
        assert!(stats.monitor_miss > 0);
    }

    #[test]
    fn sharded_restore_guards() {
        let pkts = trace(10, 3);
        let cfg = ShardedConfig::new(DartConfig::default(), 4);
        let mut a = ShardedMonitor::new(cfg);
        feed_each(&mut a, &pkts);
        a.drain(&mut Vec::new());
        let snap = a.snapshot().expect("checkpoint");

        // Restoring into a monitor that already saw traffic is refused.
        let mut fed = ShardedMonitor::new(cfg);
        feed_each(&mut fed, &pkts[..1]);
        assert!(matches!(
            fed.restore(&snap),
            Err(SnapshotError::Unsupported(_))
        ));

        // Shard-count mismatch is refused before any worker is touched.
        let mut other = ShardedMonitor::new(ShardedConfig::new(DartConfig::default(), 2));
        assert!(matches!(
            other.restore(&snap),
            Err(SnapshotError::Mismatch(_))
        ));

        // Engine-geometry mismatch surfaces from the per-shard config
        // fingerprint.
        let mut narrow =
            ShardedMonitor::new(ShardedConfig::new(DartConfig::default().with_pt(16, 2), 4));
        assert!(matches!(
            narrow.restore(&snap),
            Err(SnapshotError::Mismatch(_))
        ));

        // Kind tags keep serial and sharded snapshots apart.
        let mut engine = DartEngine::new(DartConfig::default());
        assert!(matches!(
            engine.restore(&snap),
            Err(SnapshotError::Mismatch(_))
        ));
        let esnap = DartEngine::new(DartConfig::default())
            .snapshot()
            .expect("engine snapshot");
        let mut m = ShardedMonitor::new(cfg);
        assert!(matches!(m.restore(&esnap), Err(SnapshotError::Mismatch(_))));
    }
}
