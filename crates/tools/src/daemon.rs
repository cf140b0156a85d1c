//! The long-lived monitoring daemon behind `dartmon serve`: a supervised
//! sharded engine driven continuously from any [`PacketSource`], with
//! wall-clock epoch rotation, crash-consistent checkpoints and a live
//! observability plane.
//!
//! There is no loop here. [`Daemon::run`] hands the monitor and the source
//! to the workspace's one driver loop ([`dart_core::drive_timed`]) and
//! everything that makes a daemon a daemon — shutdown, checkpoints, reload,
//! rotation — is a decision its boundary callback takes between blocks.
//! Everything observable flows through `dart-telemetry`, each family a row
//! of [`VOCABULARY`](dart_core::telemetry::VOCABULARY):
//!
//! * the engine's per-shard series and the supervisor gauges, via
//!   [`ShardedMonitor::spawn`];
//! * stage timing, via [`StageTimers`] — the clock lives in the driver
//!   loop so the engine hot path stays timing-free;
//! * rotation accounting, published by each shard's engine as it rotates;
//! * checkpoint and source-recovery books, registered here;
//! * milestones (started, rotated, reloaded, shutting down) in the bounded
//!   [`EventLog`] served at `/events`.
//!
//! ## Output
//!
//! [`Daemon::run`] takes the caller's [`SampleSink`], and every sample and
//! engine event of every monitor generation reaches it while the daemon
//! runs: the sharded monitor emits its drain rounds from `on_batch`, about
//! a ring's worth of blocks behind the feed; every checkpoint is preceded
//! by a drain into the same sink (a checkpoint holds state, never output,
//! so nothing it covers is emitted again after a restore); and a reload
//! flushes the retired generation into it. `dartmon serve` passes a sink
//! that discards.
//!
//! ## Boundary order
//!
//! Around every pull, in this order: shutdown → checkpoint request →
//! reload → *pull → feed* → rotate (then its checkpoint) → cadence
//! checkpoint. A rotation therefore always precedes the checkpoint taken at
//! the same boundary, so a restore never resurrects entries a sweep
//! retired; and a shutdown is seen before the next pull, so a stopped
//! daemon never reads input it will not process. On either exit — shutdown
//! or a drained source — the final checkpoint (and its drain) is written
//! ahead of the flush, while the shard workers still hold their state.
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
//! `POST /control/shutdown` ends the run at the next boundary: the monitor
//! is flushed (under the flush stage timer), final stats merged, and the
//! server stopped. `POST /control/reload` is the SIGHUP analogue: the
//! current monitor is flushed into the sink and a fresh one spawned
//! against the same registry at the next boundary — series are
//! get-or-create, so dashboards keep their identity; engine counters
//! restart from zero, which Prometheus treats as an ordinary counter
//! reset.

use dart_core::sharded::{ShardedConfig, ShardedMonitor, SupervisorHealth};
use dart_core::stats::EngineStats;
use dart_core::telemetry::{
    Family, DAEMON_CHECKPOINTS, DAEMON_CHECKPOINT_BYTES, DAEMON_CHECKPOINT_FAILURES,
    DAEMON_CHECKPOINT_PAUSE_NS, SOURCE_DECODE_ERRORS, SOURCE_IO_ERRORS, SOURCE_RECONNECTS, TABLES,
    TABLE_RESIDENT_BYTES,
};
use dart_core::{drive_timed, Progress, RttMonitor, SampleSink, StageTimers};
use dart_packet::{Nanos, PacketError, PacketSource, SourceCounters};
use dart_telemetry::{Counter, EventLog, Gauge, Histogram, HttpServer, MetricRegistry};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Capacity of the `/events` ring buffer.
const EVENTS_CAP: usize = 256;

/// Configuration of a daemon run.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// The supervised engine configuration.
    pub sharded: ShardedConfig,
    /// Most packets pulled from the source per block.
    pub block_pkts: usize,
    /// Wall-clock period between epoch rotations.
    pub rotate_every: Duration,
    /// Capture-time retention window: rotation sweeps entries idle longer
    /// than this (cutoff = newest seen timestamp − `retain`).
    pub retain: Nanos,
    /// Listen address for the observability server (`127.0.0.1:0` binds
    /// an ephemeral port; see [`Daemon::addr`] for the resolved one).
    pub bind: String,
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
    /// Checkpoint attempts that failed (engine degraded, disk trouble):
    /// each left the previous checkpoint in place and no temporary file.
    pub checkpoint_failures: u64,
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
    /// Bytes the last monitor's tables held at the end, summed over its
    /// shards (`dart_table_resident_bytes`).
    pub tables_bytes: u64,
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
    ckpt: Checkpointer,
    source_watch: Option<SourceWatch>,
}

/// Register the daemon's unlabelled counter `row`.
fn counter(registry: &MetricRegistry, row: Family) -> Counter {
    registry.counter(row.name, &[], row.help)
}

/// Writes checkpoints and keeps their books: how many, when the last one
/// was, how large, how long the ingest loop paused, and how many attempts
/// failed (engine degraded, disk trouble).
struct Checkpointer {
    path: Option<PathBuf>,
    events: EventLog,
    written: u64,
    failed: u64,
    last: Instant,
    written_total: Counter,
    failed_total: Counter,
    bytes: Gauge,
    pause_ns: Histogram,
}

impl Checkpointer {
    fn new(path: Option<PathBuf>, events: EventLog, registry: &MetricRegistry) -> Checkpointer {
        Checkpointer {
            path,
            events,
            written: 0,
            failed: 0,
            last: Instant::now(),
            written_total: counter(registry, DAEMON_CHECKPOINTS),
            failed_total: counter(registry, DAEMON_CHECKPOINT_FAILURES),
            bytes: registry.gauge(
                DAEMON_CHECKPOINT_BYTES.name,
                &[],
                DAEMON_CHECKPOINT_BYTES.help,
            ),
            pause_ns: registry.histogram(
                DAEMON_CHECKPOINT_PAUSE_NS.name,
                &[],
                DAEMON_CHECKPOINT_PAUSE_NS.help,
            ),
        }
    }

    /// Drain the monitor into `sink`, then stream a snapshot of its state
    /// to disk, published atomically ([`RttMonitor::checkpoint_to`]); the
    /// pause covers both. Failures are counted and logged, never fatal: a
    /// daemon that cannot checkpoint is degraded, not dead.
    fn write(&mut self, monitor: &mut ShardedMonitor, sink: &mut dyn SampleSink, why: &str) {
        let Some(path) = &self.path else {
            self.events.warn(
                "daemon",
                "checkpoint requested but no snapshot path configured",
                &[("why", why)],
            );
            return;
        };
        let start = Instant::now();
        monitor.drain(sink);
        let result = monitor.checkpoint_to(path);
        let pause = start.elapsed();
        self.pause_ns.observe(pause.as_nanos() as u64);
        match result {
            Ok(bytes) => {
                self.written += 1;
                self.written_total.inc();
                self.bytes.set(i64::try_from(bytes).unwrap_or(i64::MAX));
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
                self.failed += 1;
                self.failed_total.inc();
                self.events.warn(
                    "daemon",
                    "checkpoint failed",
                    &[("why", why), ("error", &e.to_string())],
                );
            }
        }
        self.last = Instant::now();
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
        cfg.block_pkts = cfg.block_pkts.max(1);
        let registry = MetricRegistry::new();
        let events = EventLog::new(EVENTS_CAP);
        let mut monitor = ShardedMonitor::spawn(cfg.sharded, Some(&registry), None);
        let mut restored = false;
        if let Some(path) = &cfg.restore_from {
            // Restore must precede the first packet; surface any problem
            // (missing file, checksum, geometry mismatch) as a bind-time
            // error rather than silently starting cold.
            monitor.restore_file(path).map_err(|e| {
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
        let ckpt = Checkpointer::new(cfg.snapshot_path.clone(), events.clone(), &registry);
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
            reconnects: counter(&self.registry, SOURCE_RECONNECTS),
            decode_errors: counter(&self.registry, SOURCE_DECODE_ERRORS),
            io_errors: counter(&self.registry, SOURCE_IO_ERRORS),
        });
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

    /// Drive the monitor from `source` until it drains or shutdown is
    /// requested, then flush, stop the server, and report. Samples and
    /// engine events go to `sink` as the run produces them (see the module
    /// docs). The loop is [`drive_timed`]; this supplies its boundary (see
    /// the module docs for the order).
    pub fn run(
        self,
        source: &mut dyn PacketSource,
        sink: &mut dyn SampleSink,
    ) -> Result<DaemonReport, PacketError> {
        let Daemon {
            cfg,
            registry,
            events,
            server,
            state,
            mut monitor,
            stage,
            restored,
            mut ckpt,
            source_watch,
        } = self;
        let mut carried = EngineStats::default();
        let mut rotations = 0u64;
        let mut reloads = 0u64;
        let mut last_rotate = Instant::now();
        ckpt.last = last_rotate;
        let mut shutdown = false;
        let sync_watch = || {
            if let Some(watch) = &source_watch {
                watch.sync();
            }
        };
        let boundary = |monitor: &mut ShardedMonitor, sink: &mut dyn SampleSink, at: Progress| {
            // After a fed block: rotation, then the checkpoints that may
            // follow it.
            if at.packets > 0 && !at.drained {
                if last_rotate.elapsed() >= cfg.rotate_every {
                    let cutoff = at.newest_ts.saturating_sub(cfg.retain);
                    monitor.rotate_epoch(cutoff);
                    rotations += 1;
                    last_rotate = Instant::now();
                    events.info(
                        "daemon",
                        "epoch rotated",
                        &[
                            ("rotation", &rotations.to_string()),
                            ("cutoff", &cutoff.to_string()),
                        ],
                    );
                    // A rotation just swept state; snapshotting here means a
                    // restore never resurrects entries the sweep retired.
                    if cfg.snapshot_path.is_some() {
                        ckpt.write(monitor, sink, "rotation boundary");
                    }
                }
                if let Some(every) = cfg.checkpoint_every {
                    if cfg.snapshot_path.is_some() && ckpt.last.elapsed() >= every {
                        ckpt.write(monitor, sink, "cadence");
                    }
                }
                sync_watch();
                if let Ok(mut state) = state.lock() {
                    state.health = monitor.health();
                    state.rotations = rotations;
                    state.reloads = reloads;
                }
            }
            // Before the next pull: the control plane. A tailed source
            // (Follow) ends by being *woken* by the shutdown flag mid-read —
            // attribute that end to the request, not to the stream.
            let requested = server.shutdown_requested();
            if requested || at.drained {
                shutdown = requested;
                events.info(
                    "daemon",
                    if shutdown {
                        "shutdown requested, flushing"
                    } else {
                        "source drained, flushing"
                    },
                    &[],
                );
                // A final checkpoint *before* the flush retires the
                // workers: a clean shutdown leaves a snapshot a `--restore`
                // can resume from.
                if cfg.snapshot_path.is_some() {
                    ckpt.write(monitor, sink, "shutdown");
                }
                sync_watch();
                return None;
            }
            if server.take_checkpoint_request() {
                ckpt.write(monitor, sink, "control plane");
            }
            if server.take_reload_request() {
                // SIGHUP analogue: retire the current monitor cleanly and
                // spawn a fresh one into the same registry series.
                let start = Instant::now();
                let fresh = ShardedMonitor::spawn(cfg.sharded, Some(&registry), None);
                let mut retired = std::mem::replace(monitor, fresh);
                retired.flush(sink);
                carried.merge(&retired.stats());
                let pause = start.elapsed();
                reloads += 1;
                last_rotate = Instant::now();
                events.info(
                    "daemon",
                    "monitor reloaded",
                    &[
                        ("generation", &reloads.to_string()),
                        ("pause_us", &(pause.as_micros() as u64).to_string()),
                    ],
                );
            }
            Some(cfg.block_pkts)
        };
        let mut stats = drive_timed(&mut monitor, source, sink, &stage, boundary)?;
        stats.merge(&carried);
        let health = monitor.health();
        if let Ok(mut state) = state.lock() {
            state.health = health;
        }
        // The gauges' own handles: a scrape would build the whole
        // exposition to read a few of its rows.
        let row = TABLE_RESIDENT_BYTES;
        let tables_bytes = (0..cfg.sharded.shards)
            .flat_map(|shard| TABLES.map(|table| (shard.to_string(), table)))
            .map(|(shard, table)| {
                let labels = [("shard", shard.as_str()), ("table", table)];
                registry.gauge(row.name, &labels, row.help).get().max(0) as u64
            })
            .sum();
        let addr = server.addr();
        server.stop();
        Ok(DaemonReport {
            packets: stats.packets + stats.monitor_miss,
            rotations,
            reloads,
            checkpoints: ckpt.written,
            checkpoint_failures: ckpt.failed,
            restored,
            shutdown_requested: shutdown,
            stats,
            health,
            addr,
            tables_bytes,
        })
    }
}
