//! The unified streaming engine contract: every RTT monitor — Dart, the
//! sharded Dart, and each software baseline — behind one trait.
//!
//! # Contract
//!
//! A monitor consumes packets **in capture order** — one at a time via
//! `on_packet`, or a block at a time via `on_batch` — and pushes samples
//! into a [`SampleSink`] as it discovers them. The sink is the one way out:
//! Dart's per-flow [`EngineEvent`](crate::EngineEvent)s (range collapses,
//! optimistic ACKs) reach the same sink through
//! [`SampleSink::on_event`], interleaved with the samples in emission
//! order. The driver promises:
//!
//! * every packet is delivered exactly once, in order, through any mix of
//!   `on_packet` and `on_batch` calls (blocks may be empty);
//! * `flush` is called exactly once after the last packet (drivers may call
//!   it again — implementations must make it **idempotent**: a second flush
//!   emits nothing and changes no counters);
//! * `stats` may be read at any time and reflects everything processed so
//!   far.
//!
//! The monitor promises:
//!
//! * samples and events are emitted in a deterministic order for a given
//!   input: the same packets through the same configuration produce a
//!   byte-identical stream (the differential testkit depends on this);
//! * samples are emitted while the monitor runs: per-packet engines during
//!   `on_packet`; the sharded fan-in during `on_batch`, in drain rounds a
//!   ring's worth of blocks behind the feed and in the serial engine's
//!   interleaving of samples and events (`on_packet` emits nothing there),
//!   and the rest at `flush`; lean's end-of-trace estimates at `flush`;
//! * `stats` uses the shared [`EngineStats`] vocabulary. Baselines fill
//!   only the counters that have a meaning for them (at minimum `packets`
//!   and `samples`); Dart's loss-accounting counters stay zero and the
//!   testkit asserts bounded loss only where the registry promises it.
//!
//! # Driving
//!
//! [`drive`] is the one place trace-driving lives: the single loop that
//! pulls blocks from a [`PacketSource`] and feeds them to
//! [`RttMonitor::on_batch`]. Replay, the bench harness, the differential
//! runner, the recovery matrix and the `dartmon serve` daemon all go
//! through it; what differs between them — a progress tick, an epoch
//! rotation, a drain and checkpoint, a reload, a shutdown — is a decision
//! their boundary callback takes *between* blocks, never a fork of the
//! loop; the callback is handed the sink, so what it drains or flushes
//! there reaches the same stream. A
//! monitor written against this trait therefore gets native-trace, pcap,
//! live-tail and simulated streaming (without trace materialization) for
//! free. [`run_monitor`] and [`run_monitor_slice`] are `drive` with a
//! boundary that always asks for the default block.
//!
//! The golden and backend-conformance suites also feed a monitor one
//! `on_packet` call per packet (`dart_testkit::run_per_packet`) — for Dart,
//! the engine's block body over one-packet blocks — and pin that extreme of
//! split invariance beside this loop and an irregular split.

use crate::ring::{Parcel, Ring, RingEnd};
use crate::sample::{RttSample, SampleSink};
use crate::sharded::panic_message;
use crate::snapshot::{SnapReader, SnapWriter, Snapshot, SnapshotError};
use crate::stats::EngineStats;
use crate::telemetry::StageTimers;
use dart_packet::{Nanos, PacketError, PacketMeta, PacketSource, SliceSource};
use std::path::Path;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// What one epoch rotation swept: flow counts from the Range Tracker,
/// record counts from the Packet Tracker (plus any auxiliary state the
/// engine holds, e.g. victim-cache records). Long-lived daemons rotate
/// periodically so tables keep serving the live population instead of
/// growing (unlimited mode) or silting up with dead flows (constrained
/// modes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochRotation {
    /// RT flows that survived the rotation.
    pub flows_carried: u64,
    /// RT flows swept as stale.
    pub flows_dropped: u64,
    /// PT records that survived the rotation.
    pub records_carried: u64,
    /// PT (and auxiliary) records swept as stale.
    pub records_dropped: u64,
}

impl EpochRotation {
    /// Accumulate another rotation's counts (sharded fan-in).
    pub fn merge(&mut self, other: &EpochRotation) {
        self.flows_carried += other.flows_carried;
        self.flows_dropped += other.flows_dropped;
        self.records_carried += other.records_carried;
        self.records_dropped += other.records_dropped;
    }
}

/// One streaming RTT measurement engine.
pub trait RttMonitor {
    /// Stable engine name (`dart`, `tcptrace`, ...): the registry key and
    /// report row label.
    fn name(&self) -> &str;

    /// One-line human description for CLI listings.
    fn describe(&self) -> String {
        self.name().to_string()
    }

    /// Consume one packet in capture order, emitting any samples it closes.
    fn on_packet(&mut self, pkt: &PacketMeta, sink: &mut dyn SampleSink);

    /// Consume a block of packets in capture order. Must be observationally
    /// identical to calling [`RttMonitor::on_packet`] per packet — same
    /// samples in the same order, same final [`RttMonitor::stats`] — for
    /// any split of the stream into blocks (the conformance suite pins
    /// this). The default does exactly that; Dart's engine has one body,
    /// written for blocks (decode-ahead, prefetched table probes), and its
    /// `on_packet` is the one-packet block of it. Drivers call this so
    /// virtual dispatch is paid per block, not per packet.
    fn on_batch(&mut self, pkts: &[PacketMeta], sink: &mut dyn SampleSink) {
        for pkt in pkts {
            self.on_packet(pkt, sink);
        }
    }

    /// Epoch rotation: sweep flow/record state stale at `cutoff` (packet
    /// time) so long runs stay bounded, returning what was swept. Called by
    /// daemons between batches — never mid-batch — so implementations may
    /// treat it as a quiescent point. Samples already emitted are
    /// unaffected; in-flight state for swept flows is lost (their later
    /// ACKs surface as ordinary misses, which the loss accounting already
    /// counts). The default is a no-op for engines without rotatable state
    /// (baselines estimate from whatever they hold).
    fn rotate_epoch(&mut self, _cutoff: Nanos) -> EpochRotation {
        EpochRotation::default()
    }

    /// Checkpoint (control-plane): serialize the monitor's complete
    /// measurement state into a checksummed [`Snapshot`] a later process
    /// can [`RttMonitor::restore`]. Called between batches — never
    /// mid-batch — at the same quiescent points as
    /// [`RttMonitor::rotate_epoch`]. This is
    /// [`RttMonitor::write_snapshot`] into a [`SnapWriter::framed`] writer.
    fn snapshot(&mut self) -> Result<Snapshot, SnapshotError> {
        Ok(self.write_snapshot(SnapWriter::framed())?.into_snapshot())
    }

    /// [`RttMonitor::snapshot`] streamed to `path` instead of held: the
    /// same bytes go through [`RttMonitor::write_snapshot`] into
    /// `<path>.tmp` a fixed-size stage at a time, checksummed as they
    /// pass, and the file is fsynced and renamed over `path`. Returns the
    /// bytes written. On any error the temporary file is removed and the
    /// previous checkpoint at `path` stays in place.
    fn checkpoint_to(&mut self, path: &Path) -> Result<u64, SnapshotError> {
        crate::snapshot::write_file(path, |w| self.write_snapshot(w))
    }

    /// The one serializer behind [`RttMonitor::snapshot`] and
    /// [`RttMonitor::checkpoint_to`]: write the snapshot payload into the
    /// framed writer `w`, whichever its sink, and hand it back. The
    /// default refuses: baselines that hold no restorable state (or buffer
    /// samples they could not replay) are not checkpointable, and a daemon
    /// asked to checkpoint one should fail loudly rather than silently
    /// persist nothing.
    fn write_snapshot(&mut self, _w: SnapWriter) -> Result<SnapWriter, SnapshotError> {
        Err(SnapshotError::Unsupported(format!(
            "{} does not support checkpointing",
            self.name()
        )))
    }

    /// Restore a [`RttMonitor::snapshot`] taken by a compatible monitor
    /// (same engine shape, same configuration), replacing all measurement
    /// state. Counters resume from the checkpointed values, so the
    /// conservation law (`fed == packets + monitor_miss`) holds summed
    /// across a crash boundary. Call before feeding any packets. This is
    /// [`RttMonitor::read_snapshot`] from a reader over the payload.
    fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        self.read_snapshot(&mut SnapReader::new(snap.payload()))
    }

    /// [`RttMonitor::restore`] from the checkpoint file at `path`, never
    /// held whole: [`SnapReader::open`] checks the file's frame a window
    /// at a time and refuses a torn or altered file before any state
    /// changes, then [`RttMonitor::read_snapshot`] decodes the payload
    /// from the same handle, a window at a time.
    fn restore_file(&mut self, path: &Path) -> Result<(), SnapshotError> {
        self.read_snapshot(&mut SnapReader::open(path)?)
    }

    /// The one deserializer behind [`RttMonitor::restore`] and
    /// [`RttMonitor::restore_file`]: replace all measurement state with the
    /// snapshot payload `r` reads, whichever its source. The default
    /// refuses, as [`RttMonitor::write_snapshot`] does.
    fn read_snapshot(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        Err(SnapshotError::Unsupported(format!(
            "{} does not support checkpointing",
            self.name()
        )))
    }

    /// End of stream: emit anything still held (the sharded fan-in's last
    /// drain round, end-of-trace estimates) and settle counters. Must be
    /// idempotent.
    fn flush(&mut self, sink: &mut dyn SampleSink);

    /// Counters so far, in the shared vocabulary.
    fn stats(&self) -> EngineStats;
}

/// Block size the drivers pull from a [`PacketSource`] per
/// [`RttMonitor::on_batch`] call: big enough to amortize virtual dispatch
/// and fill the batch pipeline's prefetch window, small enough that a
/// block of [`PacketMeta`] stays cache-resident.
pub const DEFAULT_BLOCK_PKTS: usize = 1024;

/// What [`drive`] shows its boundary callback between blocks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Progress {
    /// Packets fed to the monitor so far by this `drive` call.
    pub packets: u64,
    /// Timestamp of the newest packet fed (the last packet of the newest
    /// block); 0 before the first block.
    pub newest_ts: Nanos,
    /// True on the one call made after the source reported end of stream,
    /// just before the flush. The callback's answer to it is ignored.
    pub drained: bool,
}

/// Which stage of the loop a wall-clock observation belongs to (see
/// [`StageTimers`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Pulling the next block from the packet source.
    Decode,
    /// Processing a block through the monitor.
    Match,
    /// Flushing buffered state or rotating an epoch.
    Flush,
}

/// The driver loop: `boundary → source.next_block → monitor.on_batch`,
/// repeated until the boundary says stop or the source ends, then one
/// flush. Returns the monitor's final counters; samples land in `sink`.
///
/// # Boundary contract
///
/// `boundary(monitor, sink, progress)` runs before every pull — so also
/// before the first, with nothing fed yet — and answers `Some(cap)`, the
/// most packets the next block may hold (at least 1), or `None` to stop.
/// It is the only point where the caller touches the monitor, and the
/// monitor is quiescent there: rotate, drain into `sink` and checkpoint,
/// replace it (flushing the old one into `sink`), or just count. When
/// the source reports end of stream the boundary runs once more with
/// [`Progress::drained`] set, so a caller with work to do ahead of the
/// flush (a final checkpoint) has one place to do it on either exit.
///
/// The source contract is [`PacketSource::next_chunk`]'s: a short block is
/// fed as it is, never waited on; an empty block is end of stream; and an
/// `Err` is returned as soon as the source reports it — which, for the
/// block readers, is only after the packets decoded before the bad record
/// have been handed over and fed. The monitor is *not* flushed on `Err`.
pub fn drive<M: RttMonitor + ?Sized, S: PacketSource + ?Sized>(
    monitor: &mut M,
    source: &mut S,
    sink: &mut dyn SampleSink,
    boundary: impl FnMut(&mut M, &mut dyn SampleSink, Progress) -> Option<usize>,
) -> Result<EngineStats, PacketError> {
    drive_loop(monitor, source, sink, None, boundary)
}

/// [`drive`] with stage timing: one `dart_stage_decode_ns` and one
/// `dart_stage_match_ns` observation per block, one `dart_stage_flush_ns`
/// for the flush. The clock is read here, in the driver, so the engine hot
/// path stays free of it.
pub fn drive_timed<M: RttMonitor + ?Sized, S: PacketSource + ?Sized>(
    monitor: &mut M,
    source: &mut S,
    sink: &mut dyn SampleSink,
    stage: &StageTimers,
    boundary: impl FnMut(&mut M, &mut dyn SampleSink, Progress) -> Option<usize>,
) -> Result<EngineStats, PacketError> {
    drive_loop(monitor, source, sink, Some(stage), boundary)
}

/// Run `f`, clocked into `stage`'s histogram when timers are attached.
#[inline]
fn timed<R>(timers: Option<&StageTimers>, stage: Stage, f: impl FnOnce() -> R) -> R {
    match timers {
        Some(t) => t.time(stage, f),
        None => f(),
    }
}

fn drive_loop<M: RttMonitor + ?Sized, S: PacketSource + ?Sized>(
    monitor: &mut M,
    source: &mut S,
    sink: &mut dyn SampleSink,
    timers: Option<&StageTimers>,
    mut boundary: impl FnMut(&mut M, &mut dyn SampleSink, Progress) -> Option<usize>,
) -> Result<EngineStats, PacketError> {
    let mut buf = Vec::new();
    let mut at = Progress::default();
    while let Some(cap) = boundary(monitor, sink, at) {
        debug_assert!(cap > 0, "a zero cap would read as end of stream");
        let block = timed(timers, Stage::Decode, || source.next_block(&mut buf, cap))?;
        let Some(last) = block.last() else {
            at.drained = true;
            boundary(monitor, sink, at);
            break;
        };
        at.packets += block.len() as u64;
        at.newest_ts = at.newest_ts.max(last.ts);
        timed(timers, Stage::Match, || monitor.on_batch(block, sink));
    }
    timed(timers, Stage::Flush, || monitor.flush(sink));
    Ok(monitor.stats())
}

/// A [`drive`] boundary that calls `tick(packets)` at every multiple of
/// `every` packets fed. Each block is capped at the distance to the next
/// multiple, so the tick fires exactly there even when the block size does
/// not divide `every`. The metrics scraper hangs its periodic snapshot off
/// this; the end-of-run tick is the caller's, after `drive` returns.
pub fn tick_every<M: ?Sized>(
    every: u64,
    mut tick: impl FnMut(u64),
) -> impl FnMut(&mut M, &mut dyn SampleSink, Progress) -> Option<usize> {
    let every = every.max(1);
    move |_, _, at| {
        if at.packets > 0 && !at.drained && at.packets.is_multiple_of(every) {
            tick(at.packets);
        }
        let until_tick = every - at.packets % every;
        Some(DEFAULT_BLOCK_PKTS.min(usize::try_from(until_tick).unwrap_or(usize::MAX)))
    }
}

/// Blocks a [`ReadAhead`] helper may decode ahead of the driver. Measured
/// with `dart-perf` on a 2-vCPU VM against the parent: depth 2 ran
/// `campus-pcap` 1.3 % faster than depth 1 (19.93 / 19.68 Mpkt/s, parent
/// 13.13) but raised `churn-pressure` peak RSS 5.3 % where depth 1 raises
/// it 3.5 % (5.29 / 5.20 MB, parent 5.02).
pub const READ_AHEAD_DEPTH: usize = 1;

/// What the helper hands over: decoded blocks, then the source itself
/// with how its stream ended.
enum Ahead<S> {
    Block(Vec<PacketMeta>),
    Last(S, Result<(), PacketError>),
}

impl<S> Parcel for Ahead<S> {
    type Spare = Vec<PacketMeta>;
    fn takes_spare(&self) -> bool {
        matches!(self, Ahead::Block(_))
    }
}

/// A [`PacketSource`] decoded one block ahead on a helper thread, so that
/// reading and parsing block *k + 1* overlaps the monitor matching block
/// *k*. Recycled blocks travel over the sharded runtime's ring and are lent
/// out split at `max`; the [`PacketSource::next_chunk`] contract carries
/// over, a panicking helper is an `Err`, and dropping never waits for a
/// helper blocked in `read()` (DESIGN.md §5c).
pub struct ReadAhead<S> {
    /// This side of the ring, held until drop: that is the helper's cue.
    ring: Option<RingEnd<Ahead<S>>>,
    /// Joined only to report a panic.
    helper: Option<JoinHandle<()>>,
    /// The inner source, once the helper has handed it back.
    source: Option<S>,
    /// The block being lent out, and how much of it has been.
    block: Vec<PacketMeta>,
    lent: usize,
}

impl<S: PacketSource + Send + 'static> ReadAhead<S> {
    /// Start decoding `source` on a helper thread if a core is left for it
    /// beside the `busy` threads of the monitor it feeds (1 for a serial
    /// engine, the shards and their feeder for the sharded runtime), else
    /// inline: where the two could only take turns, a turn per block cost
    /// 14 % of serial `analyze` on one core (71.5 → 81.6 ms) and 22 % of
    /// `--engine dart-sharded-1` on two (51.2 → 62.7 ms).
    pub fn new(source: S, busy: usize) -> ReadAhead<S> {
        let inline = thread::available_parallelism().map_or(1, |n| n.get()) <= busy;
        let (ring, helper, source) = if inline {
            (None, None, Some(source))
        } else {
            let (sender, receiver) = Ring::pair(READ_AHEAD_DEPTH);
            let helper = thread::spawn(move || decode_ahead(source, sender));
            (Some(receiver), Some(helper), None)
        };
        ReadAhead {
            ring,
            helper,
            source,
            block: Vec::new(),
            lent: 0,
        }
    }
}

impl<S> ReadAhead<S> {
    /// The inner source, once the helper has handed it back at the end of
    /// the stream or after an error: read what it counted from it then.
    pub fn source(&self) -> Option<&S> {
        self.source.as_ref()
    }

    /// Hand the spent block back and take the next one, or the source at
    /// the end; a ring closed without a last message is a helper's panic.
    fn pull(&mut self) -> Result<(), PacketError> {
        let Some(ring) = &self.ring else {
            return Ok(());
        };
        let spent = std::mem::take(&mut self.block);
        self.lent = 0;
        match ring.recv((spent.capacity() > 0).then_some(spent)) {
            Some(Ahead::Block(block)) => {
                self.block = block;
                Ok(())
            }
            Some(Ahead::Last(source, end)) => {
                self.source = Some(source);
                end
            }
            None => {
                self.ring = None;
                let panic = self.helper.take().and_then(|h| h.join().err());
                Err(PacketError::Io(std::io::Error::other(format!(
                    "packet decoder panicked: {}",
                    panic.map_or_else(String::new, panic_message)
                ))))
            }
        }
    }
}

/// The helper: fill, send, refill the spare that comes back, until the
/// stream ends or fails; then send the source and wait for the driver to
/// hang up. A thread that exits runs libc's per-thread teardown, which
/// faults in ≈ 100 KB of library code: waiting moves that to the driver's
/// drop (`churn-pressure` peak RSS 5.42 → 5.25 MB at depth 2, parent 5.03).
fn decode_ahead<S: PacketSource>(mut source: S, ring: RingEnd<Ahead<S>>) {
    let mut block = Vec::with_capacity(DEFAULT_BLOCK_PKTS);
    let end = loop {
        match source.next_chunk(&mut block, DEFAULT_BLOCK_PKTS) {
            Ok(0) => break Ok(()),
            Ok(_) => match ring.send(Ahead::Block(block), Duration::MAX) {
                Ok(spare) => {
                    block = spare.unwrap_or_else(|| Vec::with_capacity(DEFAULT_BLOCK_PKTS));
                }
                Err(_) => return,
            },
            Err(e) => break Err(e),
        }
    };
    if ring.send(Ahead::Last(source, end), Duration::MAX).is_ok() {
        ring.wait_closed();
    }
}

impl<S: PacketSource> PacketSource for ReadAhead<S> {
    fn next_chunk(&mut self, buf: &mut Vec<PacketMeta>, max: usize) -> Result<usize, PacketError> {
        let mut unused = Vec::new();
        let block = self.next_block(&mut unused, max)?;
        buf.clear();
        buf.extend_from_slice(block);
        Ok(buf.len())
    }

    fn next_block<'a>(
        &'a mut self,
        buf: &'a mut Vec<PacketMeta>,
        max: usize,
    ) -> Result<&'a [PacketMeta], PacketError> {
        if self.lent == self.block.len() {
            if self.source.is_none() {
                self.pull()?;
            } else if let Some(source) = &mut self.source {
                return source.next_block(buf, max);
            }
        }
        let start = self.lent;
        self.lent += max.min(self.block.len() - start);
        Ok(&self.block[start..self.lent])
    }
}

/// [`drive`] to exhaustion in blocks of [`DEFAULT_BLOCK_PKTS`]: the block
/// path for any monitor over any source.
pub fn run_monitor<M: RttMonitor + ?Sized, S: PacketSource>(
    monitor: &mut M,
    mut source: S,
    sink: &mut dyn SampleSink,
) -> Result<EngineStats, PacketError> {
    drive(monitor, &mut source, sink, |_, _, _| {
        Some(DEFAULT_BLOCK_PKTS)
    })
}

/// [`run_monitor`] over an in-memory trace, collecting into a fresh
/// vector: the block path for any monitor, and the whole-trace helper
/// every caller outside the split-invariance suites uses (a sharded replay is
/// `run_monitor_slice(&mut ShardedMonitor::new(cfg), pkts)`). Infallible:
/// slice sources cannot error.
pub fn run_monitor_slice<M: RttMonitor + ?Sized>(
    monitor: &mut M,
    packets: &[PacketMeta],
) -> (Vec<RttSample>, EngineStats) {
    let mut samples = Vec::new();
    // SliceSource::next_block never returns Err, so this expect cannot
    // fire; the lint exception documents the proof obligation.
    #[allow(clippy::expect_used)]
    let stats = run_monitor(monitor, SliceSource::new(packets), &mut samples)
        .expect("slice sources are infallible");
    (samples, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DartConfig;
    use crate::engine::DartEngine;
    use dart_packet::{Direction, FlowKey, PacketBuilder};

    fn handshake_free_exchange() -> Vec<PacketMeta> {
        let flow = FlowKey::from_raw(0x0a00_0001, 44123, 0x5db8_d822, 443);
        vec![
            PacketBuilder::new(flow, 0)
                .seq(0u32)
                .payload(1460)
                .dir(Direction::Outbound)
                .build(),
            PacketBuilder::new(flow.reverse(), 23_000_000)
                .ack(1460u32)
                .dir(Direction::Inbound)
                .build(),
        ]
    }

    /// The block path agrees with one `on_packet` call per packet.
    #[test]
    fn run_monitor_matches_run_trace_for_dart() {
        let packets = handshake_free_exchange();
        let mut reference = DartEngine::new(DartConfig::default());
        let mut expect_samples = Vec::new();
        for p in &packets {
            reference.on_packet(p, &mut expect_samples);
        }
        reference.flush(&mut expect_samples);
        let mut engine = DartEngine::new(DartConfig::default());
        let (samples, stats) = run_monitor_slice(&mut engine, &packets);
        assert_eq!(samples, expect_samples);
        assert_eq!(stats, reference.stats());
        assert_eq!(samples.len(), 1);
    }

    #[test]
    fn dart_flush_is_idempotent() {
        let packets = handshake_free_exchange();
        let mut engine = DartEngine::new(DartConfig::default());
        let (samples, stats) = run_monitor_slice(&mut engine, &packets);
        let mut extra = Vec::new();
        engine.flush(&mut extra);
        assert!(extra.is_empty(), "second flush must emit nothing");
        assert_eq!(engine.stats(), stats);
        assert_eq!(samples.len(), 1);
    }

    fn data_stream(n: u32) -> Vec<PacketMeta> {
        let flow = FlowKey::from_raw(0x0a00_0001, 44123, 0x5db8_d822, 443);
        (0..n)
            .map(|i| {
                PacketBuilder::new(flow, u64::from(i) * 1_000)
                    .seq(i * 100)
                    .payload(100)
                    .dir(Direction::Outbound)
                    .build()
            })
            .collect()
    }

    /// A monitor that records what the loop did to it.
    #[derive(Default)]
    struct Recording {
        blocks: Vec<usize>,
        flushes: u32,
    }

    impl RttMonitor for Recording {
        fn name(&self) -> &str {
            "recording"
        }
        fn on_packet(&mut self, _pkt: &PacketMeta, _sink: &mut dyn SampleSink) {
            unreachable!("the loop feeds blocks");
        }
        fn on_batch(&mut self, pkts: &[PacketMeta], _sink: &mut dyn SampleSink) {
            self.blocks.push(pkts.len());
        }
        fn flush(&mut self, _sink: &mut dyn SampleSink) {
            self.flushes += 1;
        }
        fn stats(&self) -> EngineStats {
            EngineStats {
                packets: self.blocks.iter().sum::<usize>() as u64,
                ..EngineStats::default()
            }
        }
    }

    /// A live-style source: each pull answers with the next scripted
    /// block, however short, or the scripted error; then end of stream.
    struct Scripted {
        script: std::vec::IntoIter<Result<Vec<PacketMeta>, PacketError>>,
        pulls: u32,
    }

    impl Scripted {
        fn new(script: Vec<Result<Vec<PacketMeta>, PacketError>>) -> Scripted {
            Scripted {
                script: script.into_iter(),
                pulls: 0,
            }
        }
    }

    impl PacketSource for Scripted {
        fn next_chunk(
            &mut self,
            buf: &mut Vec<PacketMeta>,
            max: usize,
        ) -> Result<usize, PacketError> {
            self.pulls += 1;
            buf.clear();
            if let Some(step) = self.script.next() {
                buf.extend(step?);
                assert!(buf.len() <= max, "scripted block exceeds the cap");
            }
            Ok(buf.len())
        }
    }

    /// Ticks fire at exact multiples of `every` even though the loop pulls
    /// blocks: the boundary caps each block at the distance to the next
    /// tick. An interval longer than the trace never ticks, and either way
    /// the output is the un-ticked one.
    #[test]
    fn ticks_fire_at_exact_multiples() {
        // 7 does not divide any power-of-two block size.
        for (n, every, expect) in [
            (25, 7, vec![7, 14, 21]),
            (21, 7, vec![7, 14, 21]),
            (40, 1_000_000, vec![]),
        ] {
            let packets = data_stream(n);
            let (expected, expected_stats) =
                run_monitor_slice(&mut DartEngine::new(DartConfig::default()), &packets);
            let mut engine = DartEngine::new(DartConfig::default());
            let mut sink: Vec<RttSample> = Vec::new();
            let mut ticks = Vec::new();
            let stats = drive(
                &mut engine,
                &mut SliceSource::new(&packets),
                &mut sink,
                tick_every(every, |at| ticks.push(at)),
            )
            .unwrap();
            assert_eq!(ticks, expect, "{n} packets, every {every}");
            assert_eq!(sink, expected);
            assert_eq!(stats, expected_stats);
        }
    }

    #[test]
    fn a_short_block_is_fed_not_waited_on() {
        let pkts = data_stream(9);
        let mut source = Scripted::new(vec![
            Ok(pkts[..3].to_vec()),
            Ok(pkts[3..4].to_vec()),
            Ok(pkts[4..].to_vec()),
        ]);
        let mut monitor = Recording::default();
        let mut seen = Vec::new();
        drive(&mut monitor, &mut source, &mut Vec::new(), |_, _, at| {
            seen.push(at);
            Some(DEFAULT_BLOCK_PKTS)
        })
        .unwrap();
        // One on_batch per pull, each block exactly as the source cut it.
        assert_eq!(monitor.blocks, vec![3, 1, 5]);
        assert_eq!(monitor.flushes, 1);
        assert_eq!(source.pulls, 4, "three blocks and the end of stream");
        let at = |packets, ts, drained| Progress {
            packets,
            newest_ts: ts,
            drained,
        };
        assert_eq!(
            seen,
            vec![
                at(0, 0, false),
                at(3, pkts[2].ts, false),
                at(4, pkts[3].ts, false),
                at(9, pkts[8].ts, false),
                at(9, pkts[8].ts, true),
            ]
        );
    }

    #[test]
    fn a_stop_leaves_the_source_unpulled_and_flushes_once() {
        let pkts = data_stream(8);
        let mut source = Scripted::new(vec![Ok(pkts[..4].to_vec()), Ok(pkts[4..].to_vec())]);
        let mut monitor = Recording::default();
        let stats = drive(&mut monitor, &mut source, &mut Vec::new(), |_, _, at| {
            (at.packets == 0).then_some(DEFAULT_BLOCK_PKTS)
        })
        .unwrap();
        assert_eq!(source.pulls, 1, "no pull after the stop");
        assert_eq!(monitor.blocks, vec![4]);
        assert_eq!(monitor.flushes, 1);
        assert_eq!(stats.packets, 4);

        // A stop before the first pull still flushes, exactly once.
        let mut source = Scripted::new(vec![Ok(pkts)]);
        let mut monitor = Recording::default();
        drive(&mut monitor, &mut source, &mut Vec::new(), |_, _, _| None).unwrap();
        assert_eq!((source.pulls, monitor.flushes), (0, 1));
        assert!(monitor.blocks.is_empty());
    }

    #[test]
    fn a_source_error_surfaces_after_the_packets_before_it_are_fed() {
        // The block readers hand over what they decoded ahead of a bad
        // record and report the error on the next pull.
        let pkts = data_stream(5);
        let mut source = Scripted::new(vec![
            Ok(pkts.clone()),
            Err(PacketError::BadTrace("torn record".to_string())),
        ]);
        let mut monitor = Recording::default();
        let mut boundaries = 0;
        let err = drive(&mut monitor, &mut source, &mut Vec::new(), |_, _, _| {
            boundaries += 1;
            Some(DEFAULT_BLOCK_PKTS)
        })
        .expect_err("the source's error is the loop's");
        assert!(matches!(err, PacketError::BadTrace(_)));
        assert_eq!(monitor.blocks, vec![5], "fed before the error surfaced");
        assert_eq!(boundaries, 2, "no drained call on the error path");
        assert_eq!(monitor.flushes, 0, "an error is not an end of stream");
    }

    // ---- read-ahead ------------------------------------------------------

    /// False on a one-CPU host, where [`ReadAhead`] decodes inline.
    fn helper_runs() -> bool {
        thread::available_parallelism().map_or(1, |n| n.get()) > 1
    }

    /// `rounds` data/ACK exchanges on each of 40 flows, interleaved.
    fn exchanges(rounds: u32) -> Vec<PacketMeta> {
        let mut pkts = Vec::new();
        for r in 0..rounds {
            for f in 0..40u32 {
                let flow = FlowKey::from_raw(0x0a00_0000 + f, 40_000, 0x5db8_d822, 443);
                let t = u64::from(r) * 10_000_000 + u64::from(f) * 1_000;
                pkts.push(
                    PacketBuilder::new(flow, t)
                        .seq(r * 1460)
                        .payload(1460)
                        .dir(Direction::Outbound)
                        .build(),
                );
                pkts.push(
                    PacketBuilder::new(flow.reverse(), t + 5_000_000)
                        .ack((r + 1) * 1460)
                        .dir(Direction::Inbound)
                        .build(),
                );
            }
        }
        pkts.sort_by_key(|p| p.ts);
        pkts
    }

    /// A source that notes the thread each pull runs on.
    struct Watched {
        inner: SliceSource<'static>,
        threads: std::sync::mpsc::Sender<thread::ThreadId>,
    }

    impl PacketSource for Watched {
        fn next_chunk(
            &mut self,
            buf: &mut Vec<PacketMeta>,
            max: usize,
        ) -> Result<usize, PacketError> {
            let _ = self.threads.send(thread::current().id());
            self.inner.next_chunk(buf, max)
        }
    }

    /// The thread each pull of a whole run ran on, `busy` threads declared.
    fn pulled_on(busy: usize) -> Vec<thread::ThreadId> {
        let (threads, pulled_on) = std::sync::mpsc::channel();
        let inner = SliceSource::new(exchanges(30).leak());
        let source = ReadAhead::new(Watched { inner, threads }, busy);
        let mut engine = DartEngine::new(DartConfig::default());
        run_monitor(&mut engine, source, &mut Vec::new()).unwrap();
        pulled_on.into_iter().collect()
    }

    #[test]
    fn read_ahead_decodes_on_another_thread() {
        let here = thread::current().id();
        let pulled = pulled_on(1);
        assert_eq!(pulled.len(), 4, "three blocks and the end of stream");
        assert!(pulled.iter().all(|&t| (t != here) == helper_runs()));
        // With no core left beside the monitor's threads, decode is inline.
        assert!(pulled_on(usize::MAX).iter().all(|&t| t == here));
    }

    /// Whatever the cap, the monitor sees the plain source's stream: the
    /// same samples and counters, and no block over the cap.
    #[test]
    fn read_ahead_drives_like_the_plain_source_under_any_cap() {
        let pkts = exchanges(40);
        assert!(pkts.len() > 3 * DEFAULT_BLOCK_PKTS);
        for cap in [1, 7, 777, 1024] {
            let drive_with = |source: &mut dyn PacketSource| {
                let mut engine = DartEngine::new(DartConfig::default());
                let mut samples: Vec<RttSample> = Vec::new();
                let mut fed = 0;
                let stats = drive(&mut engine, source, &mut samples, |_, _, at| {
                    assert!(at.packets - fed <= cap as u64, "a block over the cap");
                    fed = at.packets;
                    Some(cap)
                })
                .unwrap();
                (samples, stats)
            };
            let want = drive_with(&mut SliceSource::new(&pkts));
            let got = drive_with(&mut ReadAhead::new(
                SliceSource::new(pkts.clone().leak()),
                1,
            ));
            assert!(!want.0.is_empty());
            assert_eq!(got, want, "cap {cap}");
        }
    }

    #[test]
    fn a_read_ahead_error_surfaces_after_the_packets_before_it_are_fed() {
        let pkts = data_stream(5);
        let mut source = ReadAhead::new(
            Scripted::new(vec![
                Ok(pkts.clone()),
                Err(PacketError::BadTrace("torn record".to_string())),
            ]),
            1,
        );
        let mut monitor = Recording::default();
        let mut boundaries = 0;
        let err = drive(&mut monitor, &mut source, &mut Vec::new(), |_, _, _| {
            boundaries += 1;
            Some(DEFAULT_BLOCK_PKTS)
        })
        .expect_err("the source's error is the loop's");
        assert!(matches!(err, PacketError::BadTrace(_)));
        assert_eq!(monitor.blocks, vec![5], "fed before the error surfaced");
        assert_eq!(boundaries, 2, "no drained call on the error path");
        assert_eq!(monitor.flushes, 0, "an error is not an end of stream");
        let inner = source.source().expect("handed back after the error");
        assert_eq!(inner.pulls, 2, "no pull after the error");
    }

    /// A source whose second pull panics.
    struct Panicking(Vec<PacketMeta>);

    impl PacketSource for Panicking {
        fn next_chunk(
            &mut self,
            buf: &mut Vec<PacketMeta>,
            _max: usize,
        ) -> Result<usize, PacketError> {
            assert!(!self.0.is_empty(), "decoder gave way");
            *buf = std::mem::take(&mut self.0);
            Ok(buf.len())
        }
    }

    #[test]
    fn a_panicking_decoder_is_an_error_not_an_end_of_stream() {
        if !helper_runs() {
            return; // inline, the panic is the caller's own
        }
        let mut source = ReadAhead::new(Panicking(data_stream(3)), 1);
        let mut monitor = Recording::default();
        let err = drive(&mut monitor, &mut source, &mut Vec::new(), |_, _, _| {
            Some(DEFAULT_BLOCK_PKTS)
        })
        .expect_err("a dead decoder is no end of stream");
        assert!(err.to_string().contains("decoder gave way"), "{err}");
        assert_eq!(monitor.blocks, vec![3]);
        assert_eq!(monitor.flushes, 0);
    }

    /// A source blocked in its first pull until `release` is dropped, as a
    /// `read()` on a quiet fifo is; it reports entering, and its own drop.
    struct Stuck {
        entered: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
        _dropped: std::sync::mpsc::Sender<()>,
    }

    impl PacketSource for Stuck {
        fn next_chunk(
            &mut self,
            buf: &mut Vec<PacketMeta>,
            _: usize,
        ) -> Result<usize, PacketError> {
            let _ = self.entered.send(());
            let _ = self.release.recv();
            buf.clear();
            Ok(0)
        }
    }

    #[test]
    fn dropping_a_read_ahead_does_not_wait_for_a_blocked_decoder() {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        if !helper_runs() {
            return; // inline, nothing runs until the caller pulls
        }
        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel::<()>();
        let (dropped_tx, dropped) = channel::<()>();
        let source = ReadAhead::new(
            Stuck {
                entered: entered_tx,
                release: release_rx,
                _dropped: dropped_tx,
            },
            1,
        );
        entered.recv().unwrap();
        let started = std::time::Instant::now();
        drop(source);
        assert!(started.elapsed() < Duration::from_secs(1), "drop waited");
        // Unblocked, the helper finds the ring closed and ends, dropping
        // the source with it.
        assert_eq!(
            dropped.recv_timeout(Duration::from_millis(100)),
            Err(RecvTimeoutError::Timeout),
            "the source is still held"
        );
        drop(release);
        assert_eq!(
            dropped.recv_timeout(Duration::from_secs(30)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn monitor_names_and_descriptions_render() {
        let engine = DartEngine::new(DartConfig::default());
        assert_eq!(engine.name(), "dart");
        assert!(engine.describe().contains("Dart"));
    }
}
