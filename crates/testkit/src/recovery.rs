//! Kill–restart recovery harness: crash the monitor at seeded points,
//! restore from the last durable checkpoint, and judge what survives
//! against the oracle.
//!
//! A long-lived monitor that checkpoints (`dartmon serve
//! --checkpoint-millis`) makes three promises across a `kill -9`:
//!
//! 1. **No fabrication** — restoring a snapshot never invents RTT
//!    samples. Every sample either life delivered must still classify as
//!    valid against the unbounded-memory oracle run over the *full*
//!    capture ([`crate::oracle`]).
//! 2. **Exactly once** — a checkpoint holds state, never output: the
//!    monitor is drained into the sink before each one, so what the first
//!    life delivered is never delivered again, and the two lives' outputs
//!    are disjoint.
//! 3. **Bounded loss** — only packets that arrived after the last durable
//!    checkpoint and before the crash are unrecoverable, so the sample
//!    deficit of both lives' output versus an uncrashed reference run is
//!    proportional to one checkpoint interval, never to the whole history.
//! 4. **Conservation** — the restored books still balance:
//!    `packets + monitor_miss` equals everything fed across both lives
//!    (the durable prefix plus the post-crash tail).
//!
//! The harness drives all three through seeded crash points:
//!
//! * [`CrashPoint::MidBlock`] — die between checkpoints, partway through
//!   an ingest block;
//! * [`CrashPoint::MidRotation`] — die immediately after an epoch
//!   rotation whose sweep was never checkpointed (the restored state is
//!   pre-rotation);
//! * [`CrashPoint::MidCheckpointWrite`] — die partway through writing the
//!   snapshot itself: the torn frame must be *detected* (checksum /
//!   length mismatch) and recovery must fall back to the previous durable
//!   snapshot, never restore garbage.
//!
//! Everything is deterministic in [`RecoveryConfig::seed`]: the crash
//! position, the torn-write cut, and the generated trace, so a failing
//! cell of the seeds × crash-points × backends matrix replays exactly.

use crate::oracle::{run_oracle, OracleConfig, OracleReport, ScoreCard};
use dart_core::sharded::{ShardedConfig, ShardedMonitor};
use dart_core::{drive, Backend, DartConfig, RttMonitor, RttSample, SampleSink, Snapshot};
use dart_packet::{Nanos, PacketError, PacketMeta, PacketSource, SliceSource, SECOND};
use dart_sim::scenario::{campus, CampusConfig};
use std::collections::HashSet;

/// Where the first life dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Between checkpoints, partway through an ingest block.
    MidBlock,
    /// Immediately after an epoch rotation that was never checkpointed.
    MidRotation,
    /// Partway through writing the checkpoint: the torn frame must be
    /// rejected and recovery must fall back to the previous snapshot.
    MidCheckpointWrite,
}

impl CrashPoint {
    /// Every crash point, for matrix drivers.
    pub const ALL: [CrashPoint; 3] = [
        CrashPoint::MidBlock,
        CrashPoint::MidRotation,
        CrashPoint::MidCheckpointWrite,
    ];
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CrashPoint::MidBlock => "mid-block",
            CrashPoint::MidRotation => "mid-rotation",
            CrashPoint::MidCheckpointWrite => "mid-checkpoint-write",
        })
    }
}

/// One cell of the recovery matrix.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Flow-state backend under test.
    pub backend: Backend,
    /// Where the first life dies.
    pub crash: CrashPoint,
    /// Seeds the crash position and the torn-write cut.
    pub seed: u64,
    /// Shard workers in the supervised monitor.
    pub shards: usize,
    /// Packets between checkpoints (the durability interval).
    pub checkpoint_every: usize,
    /// Packets between epoch rotations.
    pub rotate_every: usize,
    /// Ingest block size.
    pub block: usize,
}

impl Default for RecoveryConfig {
    fn default() -> RecoveryConfig {
        RecoveryConfig {
            backend: Backend::Exact,
            crash: CrashPoint::MidBlock,
            seed: 0xC4A5_0001,
            shards: 2,
            checkpoint_every: 256,
            rotate_every: 640,
            block: 32,
        }
    }
}

/// What one kill–restart cycle produced, plus the judged verdicts.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Packets in the full capture.
    pub packets: u64,
    /// Packet position of the snapshot the second life restored.
    pub durable_at: u64,
    /// Packet position where the first life died.
    pub crash_at: u64,
    /// Unrecoverable packets: fed before the crash, after the last
    /// durable checkpoint.
    pub lost: u64,
    /// `MidCheckpointWrite` only: the torn frame was rejected by the
    /// checksum/length validation (it must be).
    pub torn_write_detected: bool,
    /// `packets + monitor_miss` in the restored run's final books.
    pub accounted: u64,
    /// What conservation demands: `durable_at + (packets − crash_at)`.
    pub expected_accounted: u64,
    /// Samples both lives delivered: the first up to its crash, the
    /// restored one after it.
    pub samples: u64,
    /// Samples an uncrashed reference run emits on the same schedule.
    pub reference_samples: u64,
    /// Both lives' samples scored against the full-capture oracle.
    pub card: ScoreCard,
    /// Every violated invariant, human-readable. Empty means pass.
    pub violations: Vec<String>,
}

impl RecoveryReport {
    /// True when every recovery invariant held.
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} pkts, durable@{}, crash@{} (lost {}), samples {}/{} ref, \
             accounted {}/{} — {}",
            self.packets,
            self.durable_at,
            self.crash_at,
            self.lost,
            self.samples,
            self.reference_samples,
            self.accounted,
            self.expected_accounted,
            if self.pass() {
                "PASS".to_string()
            } else {
                format!("FAIL: {}", self.violations.join("; "))
            }
        )
    }
}

/// SplitMix64 finalizer: one well-mixed word per (seed, salt) pair.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// A campus-style capture sized for the recovery matrix, deterministic in
/// `seed` (each matrix seed exercises a different traffic pattern, not
/// just a different crash position). Sized for a 90-cell matrix on a CI
/// box: a few thousand packets, several checkpoint intervals deep.
///
/// The campus mix is heavily incomplete (72.5% of connections never
/// complete), so a fixed small population can land an almost-empty
/// capture on an unlucky seed; the population doubles until the capture
/// spans several default checkpoint intervals.
pub fn recovery_trace(seed: u64) -> Vec<PacketMeta> {
    let mut connections = 24;
    loop {
        let packets = campus(CampusConfig {
            connections,
            duration: 2 * SECOND,
            seed,
            ..CampusConfig::default()
        })
        .packets;
        if packets.len() >= 2_048 || connections >= 384 {
            return packets;
        }
        connections *= 2;
    }
}

/// One life of the monitor over `source` — `packets[span]` of the capture
/// — through the production driver loop ([`dart_core::drive`]): the same
/// pull, feed and boundary the daemon runs. The wall-clock schedule becomes
/// a packet-count one so cells replay exactly: the boundary rotates at
/// every multiple of `rotate_every` and then hands control to
/// `at_checkpoint` at every multiple of `checkpoint_every` — rotation
/// first, as in the daemon, so a snapshot never holds entries a sweep at
/// the same boundary retired. Both positions are measured over the full
/// capture, so the second life keeps the first life's schedule. `max_ts`
/// carries the newest timestamp across lives. Samples reach `samples` as
/// the monitor emits them, and `at_checkpoint` is handed the same sink.
///
/// A life ends the way the loop does: with its flush into `samples` when
/// the source drains, or — over a [`Killed`] source — with the source's
/// error and no flush at all.
fn live(
    monitor: &mut ShardedMonitor,
    source: &mut dyn PacketSource,
    samples: &mut Vec<RttSample>,
    cfg: &RecoveryConfig,
    span: std::ops::Range<usize>,
    max_ts: &mut Nanos,
    mut at_checkpoint: impl FnMut(&mut ShardedMonitor, &mut dyn SampleSink, usize),
) -> Result<(), PacketError> {
    let base_ts = *max_ts;
    drive(monitor, source, samples, |monitor, sink, at| {
        let pos = span.start + at.packets as usize;
        *max_ts = base_ts.max(at.newest_ts);
        if at.packets > 0 && pos < span.end {
            if pos.is_multiple_of(cfg.rotate_every) {
                monitor.rotate_epoch(max_ts.saturating_sub(SECOND));
            }
            if pos.is_multiple_of(cfg.checkpoint_every) {
                at_checkpoint(monitor, sink, pos);
            }
        }
        let next_ckpt = (pos / cfg.checkpoint_every + 1) * cfg.checkpoint_every;
        let next_rot = (pos / cfg.rotate_every + 1) * cfg.rotate_every;
        Some(next_ckpt.min(next_rot).min(pos + cfg.block) - pos)
    })
    .map(|_| ())
}

/// The first life's input: the capture up to the crash point, then an I/O
/// error where an end of stream would be — the in-process stand-in for
/// `kill -9`. The loop's error path returns without a flush (no drain, no
/// join), and a block the kill interrupts dies with it: a pull that the
/// rest of the capture cannot fill is the error, not a short block.
struct Killed<'a>(&'a [PacketMeta]);

impl PacketSource for Killed<'_> {
    fn next_chunk(&mut self, buf: &mut Vec<PacketMeta>, max: usize) -> Result<usize, PacketError> {
        buf.clear();
        if self.0.len() < max {
            return Err(PacketError::Io(std::io::Error::other("killed")));
        }
        let (block, rest) = self.0.split_at(max);
        buf.extend_from_slice(block);
        self.0 = rest;
        Ok(max)
    }
}

/// The oracle the recovery matrix judges against: the full capture, with
/// the role policies every cell's engine shares.
pub fn recovery_oracle(packets: &[PacketMeta]) -> OracleReport {
    run_oracle(
        OracleConfig {
            syn_policy: DartConfig::default().syn_policy,
            leg: DartConfig::default().leg,
        },
        packets,
    )
}

/// The samples of the uncrashed reference for a cell: same engine, same
/// rotation schedule, no crash. Shared across a seed × backend's three
/// crash points by [`run_recovery_matrix`].
pub fn recovery_reference(cfg: &RecoveryConfig, packets: &[PacketMeta]) -> Vec<RttSample> {
    let engine = DartConfig::default().with_backend(cfg.backend);
    let scfg = ShardedConfig::new(engine, cfg.shards).with_batch_size(cfg.block);
    let mut samples = Vec::new();
    let mut ref_ts: Nanos = 0;
    live(
        &mut ShardedMonitor::new(scfg),
        &mut SliceSource::new(packets),
        &mut samples,
        cfg,
        0..packets.len(),
        &mut ref_ts,
        |_, _, _| {},
    )
    .expect("slice sources are infallible");
    samples
}

/// Run one kill–restart cycle over `packets` and judge the outcome.
///
/// # Panics
///
/// Panics when the capture is too short to place a crash after the first
/// checkpoint (needs at least `3 × checkpoint_every` packets).
pub fn run_recovery(cfg: &RecoveryConfig, packets: &[PacketMeta]) -> RecoveryReport {
    run_recovery_judged(
        cfg,
        packets,
        &recovery_oracle(packets),
        &recovery_reference(cfg, packets),
    )
}

/// The full seeds × crash-points × backends matrix, amortizing the oracle
/// (per seed) and the reference run (per seed × backend) across cells.
pub fn run_recovery_matrix(
    seeds: &[u64],
    backends: &[Backend],
    base: &RecoveryConfig,
) -> Vec<(RecoveryConfig, RecoveryReport)> {
    let mut out = Vec::new();
    for &seed in seeds {
        let packets = recovery_trace(seed);
        let oracle = recovery_oracle(&packets);
        for &backend in backends {
            let cell = RecoveryConfig {
                backend,
                seed,
                ..base.clone()
            };
            let reference = recovery_reference(&cell, &packets);
            for crash in CrashPoint::ALL {
                let cfg = RecoveryConfig {
                    crash,
                    ..cell.clone()
                };
                let report = run_recovery_judged(&cfg, &packets, &oracle, &reference);
                out.push((cfg, report));
            }
        }
    }
    out
}

/// [`run_recovery`] with the oracle and reference precomputed.
pub fn run_recovery_judged(
    cfg: &RecoveryConfig,
    packets: &[PacketMeta],
    oracle: &OracleReport,
    reference: &[RttSample],
) -> RecoveryReport {
    let n = packets.len();
    let interval = cfg.checkpoint_every;
    assert!(
        n >= 3 * interval,
        "recovery harness needs >= {} packets, got {n}",
        3 * interval
    );
    let mut violations: Vec<String> = Vec::new();

    // Seeded crash placement: a checkpoint index k with at least one
    // interval before and after, then a position derived from the point.
    let k_max = (n - 1) / interval; // last boundary strictly inside the capture
    let k = 1 + (mix64(cfg.seed ^ 0xC0FF_EE00) as usize) % k_max.saturating_sub(1).max(1);
    let durable_at = k * interval;
    let offset = 1 + (mix64(cfg.seed ^ 0x000F_F5E7) as usize) % (interval - 1);
    let crash_at = match cfg.crash {
        CrashPoint::MidBlock | CrashPoint::MidRotation => (durable_at + offset).min(n),
        // Die exactly at the next boundary, mid-write of its snapshot.
        CrashPoint::MidCheckpointWrite => ((k + 1) * interval).min(n),
    };

    let engine = DartConfig::default().with_backend(cfg.backend);
    let scfg = ShardedConfig::new(engine, cfg.shards).with_batch_size(cfg.block);

    // ---- First life: feed to the crash point, draining and checkpointing
    // on the way, as the daemon does. What it delivers is delivered.
    let mut first = ShardedMonitor::new(scfg);
    let mut max_ts: Nanos = 0;
    let mut durable: Option<(usize, Vec<u8>)> = None;
    let mut delivered = Vec::new();
    let killed = live(
        &mut first,
        &mut Killed(&packets[..crash_at]),
        &mut delivered,
        cfg,
        0..crash_at,
        &mut max_ts,
        |monitor, sink, pos| {
            monitor.drain(sink);
            match monitor.snapshot() {
                Ok(snap) => durable = Some((pos, snap.into_bytes())),
                Err(e) => violations.push(format!("checkpoint at {pos} failed: {e}")),
            }
        },
    );
    debug_assert!(killed.is_err(), "the first life must not reach its flush");
    // The crash itself.
    let mut torn_write_detected = false;
    match cfg.crash {
        CrashPoint::MidBlock => {}
        CrashPoint::MidRotation => {
            // The sweep runs; the process dies before any checkpoint
            // records it. The restored state is pre-rotation.
            first.rotate_epoch(max_ts.saturating_sub(SECOND));
        }
        CrashPoint::MidCheckpointWrite => {
            // The drain ahead of the write delivers; the write is torn.
            first.drain(&mut delivered);
            match first.snapshot() {
                Ok(snap) => {
                    // Tear the frame at a seeded byte: whatever survives
                    // on disk must be rejected, not restored.
                    let bytes = snap.into_bytes();
                    let cut = (mix64(cfg.seed ^ 0x7E42) % (bytes.len() as u64 - 1)) as usize + 1;
                    torn_write_detected = Snapshot::from_bytes(bytes[..cut].to_vec()).is_err();
                    if !torn_write_detected {
                        violations.push(format!(
                            "torn frame ({cut} of {} bytes) was accepted",
                            bytes.len()
                        ));
                    }
                }
                Err(e) => violations.push(format!("crash-point checkpoint failed: {e}")),
            }
        }
    }
    drop(first); // kill -9: no flush, no join, undelivered output is gone

    // ---- Second life: restore the last durable snapshot, feed the tail.
    let (durable_at, durable_bytes) = match durable {
        Some(d) => d,
        None => {
            violations.push("no durable snapshot before the crash".to_string());
            return incomplete(cfg, n, 0, crash_at, torn_write_detected, violations);
        }
    };
    let snap = match Snapshot::from_bytes(durable_bytes) {
        Ok(s) => s,
        Err(e) => {
            violations.push(format!("durable snapshot failed validation: {e}"));
            return incomplete(
                cfg,
                n,
                durable_at,
                crash_at,
                torn_write_detected,
                violations,
            );
        }
    };
    let mut second = ShardedMonitor::new(scfg);
    if let Err(e) = second.restore(&snap) {
        violations.push(format!("restore failed: {e}"));
        return incomplete(
            cfg,
            n,
            durable_at,
            crash_at,
            torn_write_detected,
            violations,
        );
    }
    let mut max_ts2 = max_ts;
    let mut samples = Vec::new();
    live(
        &mut second,
        &mut SliceSource::new(&packets[crash_at..]),
        &mut samples,
        cfg,
        crash_at..n,
        &mut max_ts2,
        |_, _, _| {},
    )
    .expect("slice sources are infallible");
    let stats = second.stats();

    // ---- Judge.
    let lost = (crash_at - durable_at) as u64;
    let accounted = stats.packets + stats.monitor_miss;
    let expected_accounted = (durable_at + (n - crash_at)) as u64;
    if accounted != expected_accounted {
        violations.push(format!(
            "conservation broke across the crash: accounted {accounted}, expected {expected_accounted}"
        ));
    }
    if !second.failures().is_empty() {
        violations.push(format!("restored run degraded: {:?}", second.failures()));
    }
    let first_life: HashSet<_> = delivered
        .iter()
        .map(|s| (s.flow, s.eack.raw(), s.rtt, s.ts))
        .collect();
    let again = samples
        .iter()
        .filter(|s| first_life.contains(&(s.flow, s.eack.raw(), s.rtt, s.ts)))
        .count();
    if again > 0 {
        violations.push(format!(
            "{again} samples delivered by both lives: a checkpoint carried output"
        ));
    }
    delivered.extend(samples);
    let samples = delivered;
    let card = oracle.score(&samples);
    if card.impossible + card.cross_anchored > 0 {
        violations.push(format!(
            "{} fabricated + {} cross-anchored samples across the restore",
            card.impossible, card.cross_anchored
        ));
    }
    // Each lost packet can cost its own sample (a lost ACK) and poison at
    // most one future match (a lost data packet whose ACK now misses), so
    // the deficit is bounded by twice the lost window — proportional to
    // the checkpoint interval, never the history.
    let deficit = (reference.len() as u64).saturating_sub(samples.len() as u64);
    let budget = 2 * lost + 2;
    if deficit > budget {
        violations.push(format!(
            "sample loss {deficit} exceeds the lost-window budget {budget} (lost {lost} packets)"
        ));
    }
    RecoveryReport {
        packets: n as u64,
        durable_at: durable_at as u64,
        crash_at: crash_at as u64,
        lost,
        torn_write_detected,
        accounted,
        expected_accounted,
        samples: samples.len() as u64,
        reference_samples: reference.len() as u64,
        card,
        violations,
    }
}

/// A report for a cycle that could not reach judging (restore failed);
/// the violations already say why.
fn incomplete(
    _cfg: &RecoveryConfig,
    n: usize,
    durable_at: usize,
    crash_at: usize,
    torn_write_detected: bool,
    violations: Vec<String>,
) -> RecoveryReport {
    RecoveryReport {
        packets: n as u64,
        durable_at: durable_at as u64,
        crash_at: crash_at as u64,
        lost: (crash_at - durable_at) as u64,
        torn_write_detected,
        accounted: 0,
        expected_accounted: 0,
        samples: 0,
        reference_samples: 0,
        card: ScoreCard::default(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full seeds × crash-points × backends matrix lives in
    // tests/recovery.rs (its own binary, so its load cannot starve the
    // timing-sensitive daemon tests); these are smoke checks.

    #[test]
    fn one_cycle_passes_and_is_deterministic() {
        let cfg = RecoveryConfig::default();
        let pkts = recovery_trace(cfg.seed);
        let a = run_recovery(&cfg, &pkts);
        let b = run_recovery(&cfg, &pkts);
        assert!(a.pass(), "{a}");
        assert_eq!(a.crash_at, b.crash_at);
        assert_eq!(a.samples, b.samples);
        assert!(a.lost > 0, "crash must land strictly after the checkpoint");
    }

    #[test]
    fn torn_write_falls_back_to_the_previous_snapshot() {
        let cfg = RecoveryConfig {
            crash: CrashPoint::MidCheckpointWrite,
            ..RecoveryConfig::default()
        };
        let pkts = recovery_trace(cfg.seed);
        let report = run_recovery(&cfg, &pkts);
        assert!(report.pass(), "{report}");
        assert!(report.torn_write_detected, "torn frame restored");
        assert_eq!(
            report.lost, cfg.checkpoint_every as u64,
            "mid-write crash loses exactly one interval"
        );
    }
}
