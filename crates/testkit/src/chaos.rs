//! Chaos harness: seeded *runtime* fault injection for the supervised
//! sharded engine.
//!
//! PR 2's [`faults`](crate::faults) module perturbs the **trace** — what
//! the monitor sees. This module perturbs the **runtime** — what the
//! monitor's own workers do — through the
//! [`dart_core::PacketHook`] seam the supervised
//! [`ShardedMonitor`] exposes: a seeded hook makes one worker panic at a
//! chosen packet, hang long enough to trip the feeder watchdog, or consume
//! slowly enough to exercise bounded-channel backpressure. Everything is a
//! pure function of the [`ChaosConfig`] (seed included), so a failing run
//! is replayable from its config alone.
//!
//! The harness then closes the loop: it flushes the degraded run into a
//! sample vector like any other monitor's and checks, against the same
//! oracle the differential suite uses, that
//!
//! * the process never aborted (the run returned at all),
//! * the runtime's books balance (`fed == packets + monitor_miss`),
//! * every surviving RTT sample is **sound** (no impossible or
//!   cross-anchored matches), and
//! * every valid sample the degraded run missed is admitted to by its own
//!   counters plus the runtime's `monitor_miss` accounting.

use crate::diff::loss_budget;
use crate::oracle::{run_oracle, OracleConfig, ScoreCard};
use dart_core::{
    DartConfig, EngineStats, PacketHook, RttMonitor, ShardFailure, ShardedConfig, ShardedMonitor,
};
use dart_packet::PacketMeta;
use dart_sim::SimRng;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// The runtime fault a chaos run injects through the worker-side hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RuntimeFault {
    /// The worker processing global packet `at` panics.
    PanicAt {
        /// Global trace index of the poisoned packet.
        at: u64,
    },
    /// The worker processing global packet `at` hangs for `hold_ms`
    /// milliseconds — with a shorter watchdog timeout, a stall.
    StallAt {
        /// Global trace index of the packet the worker hangs on.
        at: u64,
        /// How long the worker holds the pipeline, in milliseconds.
        hold_ms: u64,
    },
    /// Every `every`-th packet costs `delay_us` microseconds: a slow
    /// consumer that exercises bounded-channel backpressure without ever
    /// failing.
    SlowEvery {
        /// Packet-index stride between injected delays (≥ 1).
        every: u64,
        /// Injected processing delay, in microseconds.
        delay_us: u64,
    },
}

impl fmt::Display for RuntimeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeFault::PanicAt { at } => write!(f, "panic at packet {at}"),
            RuntimeFault::StallAt { at, hold_ms } => {
                write!(f, "stall at packet {at} ({hold_ms} ms)")
            }
            RuntimeFault::SlowEvery { every, delay_us } => {
                write!(f, "slow consumer ({delay_us} µs every {every} packets)")
            }
        }
    }
}

/// One chaos run, fully determined: engine config, sharding, supervision,
/// and the injected fault.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Seed recorded for provenance (the seeded constructors fold it into
    /// the fault position; the run itself is deterministic regardless).
    pub seed: u64,
    /// Per-shard engine configuration.
    pub engine: DartConfig,
    /// Shard count (≥ 1).
    pub shards: usize,
    /// Hand-off batch size — small, so failures land mid-run.
    pub batch_size: usize,
    /// Bounded-channel depth in batches — small, so backpressure is real.
    pub queue_depth: usize,
    /// Feeder watchdog deadline (shorter than any injected stall).
    pub stall_timeout: Duration,
    /// The fault to inject.
    pub fault: RuntimeFault,
}

impl ChaosConfig {
    /// A seeded mid-run panic: the poisoned packet lands in the middle
    /// half of a `trace_len`-packet trace, at a position derived from
    /// `seed`.
    pub fn seeded_panic(seed: u64, trace_len: usize) -> ChaosConfig {
        let mut rng = SimRng::new(seed);
        let len = trace_len.max(4) as u64;
        let at = rng.range(len / 4, 3 * len / 4);
        ChaosConfig {
            seed,
            engine: DartConfig::default(),
            shards: 4,
            batch_size: 8,
            queue_depth: 2,
            stall_timeout: Duration::from_secs(5),
            fault: RuntimeFault::PanicAt { at },
        }
    }

    /// A seeded worker hang that outlives the watchdog: the feeder must
    /// abandon the shard instead of blocking forever.
    pub fn seeded_stall(seed: u64, trace_len: usize) -> ChaosConfig {
        let mut rng = SimRng::new(seed);
        let len = trace_len.max(4) as u64;
        let at = rng.range(len / 8, len / 2);
        ChaosConfig {
            seed,
            engine: DartConfig::default(),
            shards: 2,
            batch_size: 1,
            queue_depth: 1,
            stall_timeout: Duration::from_millis(20),
            fault: RuntimeFault::StallAt { at, hold_ms: 400 },
        }
    }

    /// A seeded slow consumer: no failure, just sustained backpressure on
    /// the bounded hand-off rings. The run must stay healthy and lossless.
    pub fn seeded_slow(seed: u64) -> ChaosConfig {
        let mut rng = SimRng::new(seed);
        let every = rng.range(16, 64);
        ChaosConfig {
            seed,
            engine: DartConfig::default(),
            shards: 2,
            batch_size: 4,
            queue_depth: 1,
            stall_timeout: Duration::from_secs(5),
            fault: RuntimeFault::SlowEvery {
                every,
                delay_us: 200,
            },
        }
    }

    fn sharded(&self) -> ShardedConfig {
        ShardedConfig::new(self.engine, self.shards)
            .with_batch_size(self.batch_size)
            .with_queue_depth(self.queue_depth)
            .with_stall_timeout(self.stall_timeout)
    }
}

/// Build the worker-side hook that injects `fault`.
pub fn chaos_hook(fault: RuntimeFault) -> PacketHook {
    Arc::new(move |idx, shard| match fault {
        RuntimeFault::PanicAt { at } => {
            if idx == at {
                panic!("chaos: injected panic at packet {at} (shard {shard})");
            }
        }
        RuntimeFault::StallAt { at, hold_ms } => {
            if idx == at {
                std::thread::sleep(Duration::from_millis(hold_ms));
            }
        }
        RuntimeFault::SlowEvery { every, delay_us } => {
            if every > 0 && idx % every == 0 {
                std::thread::sleep(Duration::from_micros(delay_us));
            }
        }
    })
}

/// Verdict of one chaos run. Constructed only if the process survived —
/// the "no abort" acceptance criterion is the existence of the report.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The configuration that produced this report.
    pub config: ChaosConfig,
    /// Every failure the run survived, ordered by (shard, packet); empty
    /// on a healthy run.
    pub failures: Vec<ShardFailure>,
    /// The run's merged counters, the runtime's loss accounting included.
    pub stats: EngineStats,
    /// Packets offered to the monitor.
    pub fed: u64,
    /// Oracle classification of every surviving sample.
    pub card: ScoreCard,
    /// `fed == packets + monitor_miss` held on the degraded output.
    pub conservation_ok: bool,
    /// No surviving sample was impossible or cross-anchored.
    pub sound: bool,
    /// Every missed valid sample fits the engine's own loss counters plus
    /// the runtime's `monitor_miss`.
    pub loss_bounded: bool,
}

impl ChaosReport {
    /// True when every invariant held on the degraded output.
    pub fn pass(&self) -> bool {
        self.conservation_ok && self.sound && self.loss_bounded
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos: {} · seed {} · {} failure(s) recorded",
            self.config.fault,
            self.config.seed,
            self.failures.len()
        )?;
        for failure in &self.failures {
            writeln!(f, "    {failure}")?;
        }
        writeln!(
            f,
            "  fed {} → processed {} + missed {} · samples {} · restarts {} · flows lost {}",
            self.fed,
            self.stats.packets,
            self.stats.monitor_miss,
            self.stats.samples,
            self.stats.shard_restarts,
            self.stats.flows_lost,
        )?;
        writeln!(
            f,
            "  oracle: {} exact, {} ambiguous, {} cross, {} impossible",
            self.card.exact, self.card.ambiguous, self.card.cross_anchored, self.card.impossible
        )?;
        let verdict = |ok: bool| if ok { "ok" } else { "FAIL" };
        write!(
            f,
            "  conservation {} · soundness {} · bounded loss {} → {}",
            verdict(self.conservation_ok),
            verdict(self.sound),
            verdict(self.loss_bounded),
            if self.pass() { "PASS" } else { "FAIL" }
        )
    }
}

/// Run `packets` through a supervised [`ShardedMonitor`] with the
/// configured fault injected, then verify the degradation invariants
/// against the oracle over the same (clean) trace.
pub fn run_chaos(cfg: &ChaosConfig, packets: &[PacketMeta]) -> ChaosReport {
    quiet_chaos_panics();
    let mut monitor = ShardedMonitor::spawn(cfg.sharded(), None, Some(chaos_hook(cfg.fault)));
    let mut samples = Vec::new();
    for pkt in packets {
        monitor.on_packet(pkt, &mut samples); // emits only at the flush
    }
    monitor.flush(&mut samples);
    let stats = monitor.stats();
    let oracle = run_oracle(
        OracleConfig {
            syn_policy: cfg.engine.syn_policy,
            leg: cfg.engine.leg,
        },
        packets,
    );
    let card = oracle.score(&samples);
    let fed = packets.len() as u64;
    let conservation_ok = stats.packets + stats.monitor_miss == fed;
    // Dart's exact-anchored judgement: a cross-anchored sample is as wrong
    // as a fabricated one (see the differential runner).
    let sound = card.impossible + card.cross_anchored == 0;
    // Every missed valid sample either had its closing ACK classified by a
    // live engine (the normal budget) or never reached one (`monitor_miss`;
    // each dropped packet can cost at most one sample).
    let loss_bounded = card.missed() <= loss_budget(&stats) + stats.monitor_miss;
    ChaosReport {
        config: *cfg,
        failures: monitor.failures().to_vec(),
        stats,
        fed,
        card,
        conservation_ok,
        sound,
        loss_bounded,
    }
}

/// Install (once per process) a panic hook that swallows the backtrace
/// noise of *injected* panics — payloads starting with `"chaos: "` — and
/// delegates everything else to the previously installed hook, so real
/// failures still print.
pub fn quiet_chaos_panics() {
    use std::sync::Once;
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.starts_with("chaos: "))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.starts_with("chaos: "));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_sim::scenario::{campus, CampusConfig};

    fn trace(seed: u64) -> Vec<PacketMeta> {
        campus(CampusConfig {
            connections: 40,
            duration: dart_packet::SECOND,
            seed,
            ..CampusConfig::default()
        })
        .packets
    }

    #[test]
    fn seeded_panic_passes_under_every_policy() {
        let packets = trace(11);
        let report = run_chaos(&ChaosConfig::seeded_panic(7, packets.len()), &packets);
        assert!(report.pass(), "{report}");
        // The injected panic is recorded and the shard respawned once; the
        // rest of its 8-packet hand-off block is all the run lost.
        assert_eq!(report.failures.len(), 1, "{report}");
        assert_eq!(report.stats.shard_restarts, 1, "{report}");
        assert!(report.stats.monitor_miss < 8, "{report}");
    }

    #[test]
    fn stall_is_detected_and_survived() {
        let packets = trace(12);
        let cfg = ChaosConfig::seeded_stall(3, packets.len());
        let report = run_chaos(&cfg, &packets);
        assert!(report.pass(), "{report}");
        assert!(
            report
                .failures
                .iter()
                .any(|f| matches!(f.kind, dart_core::FailureKind::Stalled { .. })),
            "watchdog must have fired: {report}"
        );
        assert!(report.stats.monitor_miss > 0, "{report}");
    }

    #[test]
    fn slow_consumer_backpressure_is_lossless() {
        let packets: Vec<PacketMeta> = trace(13).into_iter().take(2_000).collect();
        let cfg = ChaosConfig::seeded_slow(5);
        let report = run_chaos(&cfg, &packets);
        assert!(report.pass(), "{report}");
        assert!(report.failures.is_empty(), "{report}");
        assert_eq!(report.stats.monitor_miss, 0, "{report}");
        assert_eq!(report.stats.packets, packets.len() as u64);
    }

    #[test]
    fn chaos_is_deterministic() {
        let packets = trace(14);
        let cfg = ChaosConfig::seeded_panic(21, packets.len());
        // The samples a chaos run flushes, run as `run_chaos` runs it.
        let samples = || {
            let mut monitor =
                ShardedMonitor::spawn(cfg.sharded(), None, Some(chaos_hook(cfg.fault)));
            let mut samples = Vec::new();
            for pkt in &packets {
                monitor.on_packet(pkt, &mut samples);
            }
            monitor.flush(&mut samples);
            samples
        };
        assert_eq!(samples(), samples());
        let a = run_chaos(&cfg, &packets);
        let b = run_chaos(&cfg, &packets);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.failures, b.failures);
    }
}
