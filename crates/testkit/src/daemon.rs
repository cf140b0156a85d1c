//! The long-lived monitoring daemon: a supervised sharded engine driven
//! continuously from any [`PacketSource`], with wall-clock epoch rotation
//! and a live observability plane.
//!
//! This is the machinery behind `dartmon serve`. The loop is deliberately
//! simple — pull a block, feed the shards, rotate on a wall-clock period,
//! poll the control flags — and everything observable about it flows
//! through `dart-telemetry`:
//!
//! * the engine's per-shard series and the supervisor gauges, via
//!   [`ShardedMonitor::with_telemetry`];
//! * driver-level stage timing (`dart_stage_decode_ns` /
//!   `dart_stage_match_ns` / `dart_stage_flush_ns`), via [`StageTimers`] —
//!   the clock lives here in the driver so the engine hot path stays
//!   timing-free;
//! * rotation accounting (`dart_epoch_*`), published by each shard's
//!   engine as it rotates;
//! * milestones (started, rotated, reloaded, shutting down) in the bounded
//!   [`EventLog`] served at `/events`.
//!
//! ## Rotation semantics
//!
//! Every [`DaemonConfig::rotate_every`] of wall time the daemon asks the
//! monitor to rotate with a cutoff of `newest packet timestamp −`
//! [`DaemonConfig::retain`]: table entries idle longer than the retention
//! window (in *capture* time) are swept, so RT/PT occupancy tracks the
//! live flow population instead of growing with every flow ever seen. ACKs
//! for swept records surface as ordinary `monitor_miss`es — the paper's
//! lazy-eviction stance, applied to time instead of space.
//!
//! ## Control plane
//!
//! `POST /control/shutdown` ends the loop at the next block boundary: the
//! monitor is flushed (under the flush stage timer), final stats merged,
//! and the server stopped. `POST /control/reload` is the SIGHUP analogue:
//! the current monitor is flushed and a fresh one spawned against the same
//! registry at the next boundary — series are get-or-create, so dashboards
//! keep their identity; engine counters restart from zero, which Prometheus
//! treats as an ordinary counter reset.

use dart_core::sharded::{ShardedConfig, ShardedMonitor, SupervisorHealth};
use dart_core::stats::EngineStats;
use dart_core::telemetry::{Stage, StageTimers};
use dart_core::{RttMonitor, Snapshot};
use dart_packet::{Nanos, PacketError, PacketSource, SourceCounters};
use dart_telemetry::{Counter, EventLog, Histogram, HttpServer, MetricRegistry};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration of a daemon run.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// The supervised engine configuration. The daemon forces
    /// `keep_samples = false`: an unbounded stream must not accumulate a
    /// merged sample vector (counters and histograms carry the signal).
    pub sharded: ShardedConfig,
    /// Packets pulled from the source per loop iteration.
    pub block_pkts: usize,
    /// Wall-clock period between epoch rotations.
    pub rotate_every: Duration,
    /// Capture-time retention window: rotation sweeps entries idle longer
    /// than this (cutoff = newest seen timestamp − `retain`).
    pub retain: Nanos,
    /// Listen address for the observability server (`127.0.0.1:0` binds
    /// an ephemeral port; see [`Daemon::addr`] for the resolved one).
    pub bind: String,
    /// Capacity of the `/events` ring buffer.
    pub events_cap: usize,
    /// Where checkpoints are written (atomic tmp + rename). `None`
    /// disables checkpointing; a `POST /control/checkpoint` then logs a
    /// warning instead of snapshotting.
    pub snapshot_path: Option<PathBuf>,
    /// Wall-clock cadence between automatic checkpoints. Rotation
    /// boundaries always checkpoint when `snapshot_path` is set, so the
    /// cadence bounds staleness *between* rotations.
    pub checkpoint_every: Option<Duration>,
    /// Restore engine state from this snapshot before feeding the first
    /// packet. The snapshot must match the configured shard count and
    /// engine geometry ([`dart_core::SnapshotError::Mismatch`] otherwise).
    pub restore_from: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            sharded: ShardedConfig::new(dart_core::DartConfig::default(), 2),
            block_pkts: dart_core::DEFAULT_BLOCK_PKTS,
            rotate_every: Duration::from_secs(15),
            retain: 10 * dart_packet::SECOND,
            bind: "127.0.0.1:0".to_string(),
            events_cap: 256,
            snapshot_path: None,
            checkpoint_every: None,
            restore_from: None,
        }
    }
}

/// What a finished daemon run reports.
#[derive(Clone, Debug)]
pub struct DaemonReport {
    /// Packets fed across every monitor generation.
    pub packets: u64,
    /// Epoch rotations triggered by the wall-clock period.
    pub rotations: u64,
    /// Config reloads performed (`/control/reload`).
    pub reloads: u64,
    /// Checkpoints durably written (cadence + rotation + on-demand).
    pub checkpoints: u64,
    /// True when the run began by restoring a snapshot.
    pub restored: bool,
    /// True when the loop ended because shutdown was requested (false:
    /// the source drained first).
    pub shutdown_requested: bool,
    /// Merged engine counters across every monitor generation.
    pub stats: EngineStats,
    /// Final supervisor health.
    pub health: SupervisorHealth,
    /// Where the observability server was listening.
    pub addr: SocketAddr,
}

/// Daemon-level state the `/healthz` provider renders alongside the
/// supervisor snapshot.
struct LiveState {
    health: SupervisorHealth,
    rotations: u64,
    reloads: u64,
}

fn render_health(state: &Mutex<LiveState>) -> String {
    let state = match state.lock() {
        Ok(s) => s,
        Err(poisoned) => poisoned.into_inner(),
    };
    format!(
        "{{\"supervisor\":{},\"rotations\":{},\"reloads\":{}}}",
        state.health.to_json(),
        state.rotations,
        state.reloads,
    )
}

/// A started daemon: observability server bound and listening, monitor
/// spawned, ready to consume a source on the caller's thread.
pub struct Daemon {
    cfg: DaemonConfig,
    registry: MetricRegistry,
    events: EventLog,
    server: HttpServer,
    state: Arc<Mutex<LiveState>>,
    monitor: ShardedMonitor,
    stage: StageTimers,
    restored: bool,
    ckpt: CheckpointMetrics,
    source_watch: Option<SourceWatch>,
}

/// Checkpoint instrumentation: how often, how long the ingest loop paused,
/// and how many attempts failed (engine degraded, disk trouble).
struct CheckpointMetrics {
    written: Counter,
    failed: Counter,
    pause_ns: Histogram,
}

impl CheckpointMetrics {
    fn register(registry: &MetricRegistry) -> CheckpointMetrics {
        CheckpointMetrics {
            written: registry.counter(
                "dart_daemon_checkpoints_total",
                &[],
                "snapshots durably written (cadence + rotation + on-demand)",
            ),
            failed: registry.counter(
                "dart_daemon_checkpoint_failures_total",
                &[],
                "checkpoint attempts that failed (engine degraded or I/O error)",
            ),
            pause_ns: registry.histogram(
                "dart_daemon_checkpoint_pause_ns",
                &[],
                "ingest-loop pause per checkpoint (quiesce + serialize + fsync)",
            ),
        }
    }
}

/// Ingest-side counters mirrored into the registry each block so scrapes
/// see reconnection and decode-tolerance activity live.
struct SourceWatch {
    counters: SourceCounters,
    reconnects: Counter,
    decode_errors: Counter,
    io_errors: Counter,
}

impl SourceWatch {
    fn sync(&self) {
        self.reconnects.store(self.counters.reconnects());
        self.decode_errors.store(self.counters.decode_errors());
        self.io_errors.store(self.counters.io_errors());
    }
}

impl Daemon {
    /// Bind the observability server and spawn the shard workers. The
    /// packet loop does not start until [`Daemon::run`].
    pub fn start(mut cfg: DaemonConfig) -> std::io::Result<Daemon> {
        cfg.sharded = cfg.sharded.with_keep_samples(false);
        cfg.block_pkts = cfg.block_pkts.max(1);
        let registry = MetricRegistry::new();
        let events = EventLog::new(cfg.events_cap);
        let mut monitor = ShardedMonitor::with_telemetry(cfg.sharded, &registry);
        let mut restored = false;
        if let Some(path) = &cfg.restore_from {
            // Restore must precede the first packet; surface any problem
            // (missing file, checksum, geometry mismatch) as a bind-time
            // error rather than silently starting cold.
            let snap = Snapshot::from_file(path).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("restore {}: {e}", path.display()),
                )
            })?;
            monitor.restore(&snap).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("restore {}: {e}", path.display()),
                )
            })?;
            restored = true;
            events.info(
                "daemon",
                "state restored from snapshot",
                &[("path", &path.display().to_string())],
            );
        }
        let stage = StageTimers::register(&registry);
        let ckpt = CheckpointMetrics::register(&registry);
        let state = Arc::new(Mutex::new(LiveState {
            health: monitor.health(),
            rotations: 0,
            reloads: 0,
        }));
        let provider_state = Arc::clone(&state);
        let server = HttpServer::serve(
            cfg.bind.as_str(),
            registry.clone(),
            events.clone(),
            Arc::new(move || render_health(&provider_state)),
        )?;
        events.info(
            "daemon",
            "observability server listening",
            &[("addr", &server.addr().to_string())],
        );
        Ok(Daemon {
            cfg,
            registry,
            events,
            server,
            state,
            monitor,
            stage,
            restored,
            ckpt,
            source_watch: None,
        })
    }

    /// Mirror a source's reconnect/decode-error counters into the registry
    /// (`dart_source_*`), synced once per ingest block.
    pub fn watch_source(&mut self, counters: SourceCounters) {
        self.source_watch = Some(SourceWatch {
            counters,
            reconnects: self.registry.counter(
                "dart_source_reconnects_total",
                &[],
                "successful packet-source reconnections",
            ),
            decode_errors: self.registry.counter(
                "dart_source_decode_errors_total",
                &[],
                "malformed records skipped by decode tolerance",
            ),
            io_errors: self.registry.counter(
                "dart_source_io_errors_total",
                &[],
                "I/O failures that triggered reconnection",
            ),
        });
    }

    /// Quiesce the monitor, serialize, and atomically publish a snapshot.
    /// Failures are counted and logged, never fatal: a daemon that cannot
    /// checkpoint is degraded, not dead.
    fn write_checkpoint(&mut self, written: &mut u64, why: &str) {
        let Some(path) = self.cfg.snapshot_path.clone() else {
            self.events.warn(
                "daemon",
                "checkpoint requested but no snapshot path configured",
                &[("why", why)],
            );
            return;
        };
        let start = Instant::now();
        let result = self
            .monitor
            .checkpoint()
            .and_then(|snap| snap.to_file(&path));
        let pause = start.elapsed();
        self.ckpt.pause_ns.observe(pause.as_nanos() as u64);
        match result {
            Ok(()) => {
                *written += 1;
                self.ckpt.written.inc();
                self.events.info(
                    "daemon",
                    "checkpoint written",
                    &[
                        ("why", why),
                        ("path", &path.display().to_string()),
                        ("pause_us", &(pause.as_micros() as u64).to_string()),
                    ],
                );
            }
            Err(e) => {
                self.ckpt.failed.inc();
                self.events.warn(
                    "daemon",
                    "checkpoint failed",
                    &[("why", why), ("error", &e.to_string())],
                );
            }
        }
    }

    /// The observability server's resolved listen address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The server handle — tests and signal handlers use it to request
    /// shutdown in-process instead of over HTTP.
    pub fn server(&self) -> &HttpServer {
        &self.server
    }

    /// The metric registry the daemon publishes into.
    pub fn registry(&self) -> &MetricRegistry {
        &self.registry
    }

    /// Drive the daemon loop until the source drains or shutdown is
    /// requested, then flush, stop the server, and report.
    pub fn run(mut self, source: &mut dyn PacketSource) -> Result<DaemonReport, PacketError> {
        let mut buf: Vec<dart_packet::PacketMeta> = Vec::with_capacity(self.cfg.block_pkts);
        let mut sink: Vec<dart_core::RttSample> = Vec::new();
        let mut carried = EngineStats::default();
        let mut rotations = 0u64;
        let mut reloads = 0u64;
        let mut checkpoints = 0u64;
        let mut max_ts: Nanos = 0;
        let mut last_rotate = Instant::now();
        let mut last_checkpoint = Instant::now();
        let shutdown = loop {
            if self.server.shutdown_requested() {
                break true;
            }
            if self.server.take_checkpoint_request() {
                self.write_checkpoint(&mut checkpoints, "control plane");
                last_checkpoint = Instant::now();
            }
            if self.server.take_reload_request() {
                // SIGHUP analogue: retire the current monitor cleanly and
                // spawn a fresh one into the same registry series.
                let monitor = std::mem::replace(
                    &mut self.monitor,
                    ShardedMonitor::with_telemetry(self.cfg.sharded, &self.registry),
                );
                let run = monitor.into_run();
                carried.merge(&run.stats);
                reloads += 1;
                last_rotate = Instant::now();
                self.events.info(
                    "daemon",
                    "monitor reloaded",
                    &[("generation", &reloads.to_string())],
                );
            }
            let stage = &self.stage;
            let n = stage.time(Stage::Decode, || {
                source.next_chunk(&mut buf, self.cfg.block_pkts)
            })?;
            if n == 0 {
                // A tailed source (Follow) ends by being *woken* by the
                // shutdown flag mid-read — attribute that end to the
                // request, not to the stream.
                break self.server.shutdown_requested();
            }
            if let Some(last) = buf.last() {
                max_ts = max_ts.max(last.ts);
            }
            let monitor = &mut self.monitor;
            stage.time(Stage::Match, || monitor.on_batch(&buf[..n], &mut sink));
            if last_rotate.elapsed() >= self.cfg.rotate_every {
                ShardedMonitor::rotate_epoch(
                    &mut self.monitor,
                    max_ts.saturating_sub(self.cfg.retain),
                );
                rotations += 1;
                last_rotate = Instant::now();
                self.events.info(
                    "daemon",
                    "epoch rotated",
                    &[
                        ("rotation", &rotations.to_string()),
                        (
                            "cutoff",
                            &max_ts.saturating_sub(self.cfg.retain).to_string(),
                        ),
                    ],
                );
                // A rotation just swept state; snapshotting here means a
                // restore never resurrects entries the sweep retired.
                if self.cfg.snapshot_path.is_some() {
                    self.write_checkpoint(&mut checkpoints, "rotation boundary");
                    last_checkpoint = Instant::now();
                }
            }
            if let Some(every) = self.cfg.checkpoint_every {
                if self.cfg.snapshot_path.is_some() && last_checkpoint.elapsed() >= every {
                    self.write_checkpoint(&mut checkpoints, "cadence");
                    last_checkpoint = Instant::now();
                }
            }
            if let Some(watch) = &self.source_watch {
                watch.sync();
            }
            if let Ok(mut state) = self.state.lock() {
                state.health = self.monitor.health();
                state.rotations = rotations;
                state.reloads = reloads;
            }
        };
        self.events.info(
            "daemon",
            if shutdown {
                "shutdown requested, flushing"
            } else {
                "source drained, flushing"
            },
            &[],
        );
        // A final checkpoint *before* the flush retires the workers: a
        // clean shutdown leaves a snapshot a `--restore` can resume from.
        if self.cfg.snapshot_path.is_some() {
            self.write_checkpoint(&mut checkpoints, "shutdown");
        }
        if let Some(watch) = &self.source_watch {
            watch.sync();
        }
        let stage = &self.stage;
        let monitor = &mut self.monitor;
        stage.time(Stage::Flush, || monitor.flush(&mut sink));
        let health = self.monitor.health();
        let mut stats = RttMonitor::stats(&self.monitor);
        stats.merge(&carried);
        if let Ok(mut state) = self.state.lock() {
            state.health = health;
        }
        let addr = self.server.addr();
        self.server.stop();
        Ok(DaemonReport {
            packets: stats.packets + stats.monitor_miss,
            rotations,
            reloads,
            checkpoints,
            restored: self.restored,
            shutdown_requested: shutdown,
            stats,
            health,
            addr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_core::DartConfig;
    use dart_packet::{CycleSource, Direction, FlowKey, PacketBuilder, PacketMeta};
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    fn exchanges(flows: u32, count: u32) -> Vec<PacketMeta> {
        let mut pkts = Vec::new();
        for e in 0..count {
            for fi in 0..flows {
                let flow =
                    FlowKey::from_raw(0x0a00_0100 + fi, 40_000 + fi as u16, 0x5db8_d822, 443);
                let t = (e as Nanos) * 10_000_000 + (fi as Nanos) * 1_000;
                pkts.push(
                    PacketBuilder::new(flow, t)
                        .seq(e * 1460)
                        .payload(1460)
                        .dir(Direction::Outbound)
                        .build(),
                );
                pkts.push(
                    PacketBuilder::new(flow.reverse(), t + 5_000_000)
                        .ack((e * 1460).wrapping_add(1460))
                        .dir(Direction::Inbound)
                        .build(),
                );
            }
        }
        pkts.sort_by_key(|p| p.ts);
        pkts
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        .expect("send");
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("read");
        raw.split_once("\r\n\r\n").expect("body").1.to_string()
    }

    fn post(addr: SocketAddr, path: &str) {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(
            s,
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        )
        .expect("send");
        let mut raw = String::new();
        let _ = s.read_to_string(&mut raw);
    }

    fn cfg() -> DaemonConfig {
        DaemonConfig {
            sharded: ShardedConfig::new(DartConfig::default(), 2).with_batch_size(64),
            block_pkts: 128,
            rotate_every: Duration::from_millis(20),
            retain: 50_000_000,
            ..DaemonConfig::default()
        }
    }

    #[test]
    fn drains_a_finite_source_and_accounts_every_packet() {
        let pkts = exchanges(10, 4);
        let total = pkts.len() as u64;
        let daemon = Daemon::start(cfg()).expect("bind");
        let mut source = dart_packet::SliceSource::new(&pkts);
        let report = daemon.run(&mut source).expect("clean run");
        assert!(!report.shutdown_requested);
        assert_eq!(report.packets, total);
        assert_eq!(report.stats.packets + report.stats.monitor_miss, total);
        assert!(report.stats.samples > 0);
        assert!(report.health.flushed);
    }

    #[test]
    fn rotates_on_the_wall_clock_and_serves_the_plane() {
        // A cycled trace long enough to cross several 20 ms rotation
        // periods; the loop is driven by the source, so give it plenty of
        // passes and end via shutdown.
        let pkts = exchanges(10, 4);
        let daemon = Daemon::start(cfg()).expect("bind");
        let addr = daemon.addr();
        let server_thread = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            post(addr, "/control/shutdown");
        });
        let mut source = CycleSource::with_gap(pkts, 1_000_000);
        let report = daemon.run(&mut source).expect("clean run");
        server_thread.join().expect("client thread");
        assert!(report.shutdown_requested);
        assert!(report.rotations >= 2, "got {} rotations", report.rotations);
        assert!(report.health.healthy(), "{:?}", report.health);
    }

    #[test]
    fn healthz_and_metrics_reflect_the_run_live() {
        let pkts = exchanges(8, 3);
        let daemon = Daemon::start(cfg()).expect("bind");
        let addr = daemon.addr();
        let client = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let health = get(addr, "/healthz");
            let metrics = get(addr, "/metrics");
            let events = get(addr, "/events");
            post(addr, "/control/shutdown");
            (health, metrics, events)
        });
        let mut source = CycleSource::with_gap(pkts, 1_000_000);
        let report = daemon.run(&mut source).expect("clean run");
        let (health, metrics, events) = client.join().expect("client");
        let v = dart_telemetry::json::parse(health.trim()).expect("healthz is JSON");
        let sup = v.get("supervisor").expect("supervisor block");
        assert_eq!(sup.get("shards").and_then(|s| s.as_u64()), Some(2));
        assert!(
            metrics.contains("dart_supervisor_healthy_shards 2"),
            "{metrics}"
        );
        assert!(metrics.contains("dart_stage_decode_ns"), "{metrics}");
        assert!(metrics.contains("dart_epoch_rotations_total"), "{metrics}");
        assert!(
            events.contains("observability server listening"),
            "{events}"
        );
        assert!(report.packets > 0);
    }

    #[test]
    fn reload_rebuilds_the_monitor_and_keeps_counting() {
        let pkts = exchanges(8, 3);
        let daemon = Daemon::start(cfg()).expect("bind");
        let addr = daemon.addr();
        let client = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            post(addr, "/control/reload");
            std::thread::sleep(Duration::from_millis(60));
            post(addr, "/control/shutdown");
        });
        let mut source = CycleSource::with_gap(pkts, 1_000_000);
        let report = daemon.run(&mut source).expect("clean run");
        client.join().expect("client");
        assert_eq!(report.reloads, 1);
        assert!(report.shutdown_requested);
        // Conservation holds across the generation boundary.
        assert_eq!(
            report.packets,
            report.stats.packets + report.stats.monitor_miss
        );
    }

    #[test]
    fn follow_mode_shutdown_is_attributed_to_the_request() {
        // A tailed source parked at end-of-data is *woken* by the shutdown
        // flag; the resulting empty read must report as a shutdown, not as
        // the source draining.
        let pkts = exchanges(6, 2);
        let bytes = dart_packet::trace::to_bytes(&pkts);
        let daemon = Daemon::start(cfg()).expect("bind");
        let addr = daemon.addr();
        let follow =
            dart_packet::Follow::new(std::io::Cursor::new(bytes), daemon.server().shutdown_flag())
                .with_poll_interval(Duration::from_millis(1));
        let mut source = dart_packet::trace::TraceReader::new(follow).expect("header");
        let client = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            post(addr, "/control/shutdown");
        });
        let report = daemon.run(&mut source).expect("clean run");
        client.join().expect("client");
        assert!(report.shutdown_requested, "wake-by-shutdown misattributed");
        assert_eq!(report.packets, pkts.len() as u64, "tail lost packets");
    }

    /// Sum of one metric family over its label sets in a `/metrics` body.
    #[cfg(unix)]
    fn family_sum(metrics: &str, family: &str) -> u64 {
        metrics
            .lines()
            .filter(|l| l.starts_with(family) && l[family.len()..].starts_with(['{', ' ']))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum::<f64>() as u64
    }

    #[cfg(unix)]
    #[test]
    fn a_feed_that_goes_quiet_leaves_nothing_short_of_the_shards() {
        // A live stream (a socket pair standing in for the fifo: reads
        // block while the writer is merely quiet) is fed a packet count
        // that is a multiple neither of the block nor of the hand-off
        // batch, and then nothing. Every packet must reach a shard and show
        // in /metrics with no further input and before any shutdown: none
        // may sit in the reader, the block, or a feeder buffer.
        use std::os::unix::net::UnixStream;
        let pkts: Vec<PacketMeta> = exchanges(11, 47).into_iter().take(1000 + 37).collect();
        let fed = pkts.len() as u64;
        assert!(fed % 128 != 0 && fed % 64 != 0);
        let bytes = dart_packet::trace::to_bytes(&pkts);
        let (mut writer, reader) = UnixStream::pair().expect("socket pair");
        let daemon = Daemon::start(cfg()).expect("bind");
        let addr = daemon.addr();
        let stop = daemon.server().shutdown_flag();
        let follow = dart_packet::Follow::new(reader, Arc::clone(&stop))
            .with_poll_interval(Duration::from_millis(1));
        let client = std::thread::spawn(move || {
            writer.write_all(&bytes).expect("feed");
            let deadline = Instant::now() + Duration::from_secs(20);
            let seen = loop {
                let metrics = get(addr, "/metrics");
                let seen = family_sum(&metrics, "dart_shard_packets_total")
                    + family_sum(&metrics, "dart_shard_monitor_miss_total");
                if seen == fed || Instant::now() > deadline {
                    break seen;
                }
                std::thread::sleep(Duration::from_millis(5));
            };
            // Only now end the run: the flag, then end-of-file to wake the
            // blocked read.
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            drop(writer);
            seen
        });
        let mut source = dart_packet::trace::TraceReader::new(follow).expect("header");
        let report = daemon.run(&mut source).expect("clean run");
        let seen = client.join().expect("client");
        assert_eq!(
            seen, fed,
            "packets stranded short of the shards while the feed was quiet"
        );
        assert_eq!(report.packets, fed);
        assert!(report.shutdown_requested);
    }

    #[test]
    fn in_process_shutdown_request_ends_the_loop() {
        let pkts = exchanges(6, 2);
        let daemon = Daemon::start(cfg()).expect("bind");
        daemon.server().request_shutdown();
        let mut source = CycleSource::new(pkts);
        let report = daemon.run(&mut source).expect("clean run");
        assert!(report.shutdown_requested);
        assert_eq!(report.packets, 0, "shutdown observed before any block");
    }
}
