//! The `dartmon` subcommand implementations. Each returns the report text
//! it would print, keeping the logic testable.

use crate::cli::{Command, Options, USAGE};
use crate::io::{load_file, open_boxed, open_source, parse_prefix, save_file, TraceSource};
use dart_analytics::{ChangeDetector, ChangeDetectorConfig, RttDistribution, Verdict};
use dart_baselines::registry::{serial_dart_config, sharded_shards};
use dart_baselines::EngineRegistry;
use dart_core::monitor::DEFAULT_BLOCK_PKTS;
use dart_core::telemetry::{TABLES, TABLE_OCCUPIED_SLOTS, TABLE_RESIDENT_BYTES};
use dart_core::{drive, program, run_monitor_slice, tick_every};
use dart_core::{Backend, DartConfig, DartEngine, Leg, PtMode, RtMode, RttSample, MAX_RECIRC};
use dart_packet::SECOND;
use dart_sim::adversarial::ScenarioKind;
use dart_sim::scenario::{campus, CampusConfig};
use dart_switch::{estimate, TargetProfile};
use dart_telemetry::{EventLog, MetricRegistry, MetricValue};
use dart_testkit::{
    run_chaos, run_diff, run_scenario, scenario_artifact_dir, write_scorecards, ChaosConfig,
    DiffConfig, FaultConfig, ScenarioConfig,
};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::net::Ipv4Addr;

/// Execute a parsed command, returning the report text.
pub fn run(cmd: Command, opts: &Options) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Resources => resources(opts),
        Command::Generate { out } => generate(&out, opts),
        Command::Analyze { input } => analyze(&input, opts),
        Command::Compare { input } => compare(&input, opts),
        Command::Detect { input } => detect(&input, opts),
        Command::Diff { input } => diff(&input, opts),
        Command::Stats { input } => stats_report(&input, opts),
        Command::Chaos { input } => chaos(&input, opts),
        Command::Scenarios => scenarios(opts),
        Command::Serve { input } => serve(&input, opts),
    }
}

/// `dartmon serve`: the long-lived monitoring daemon (DESIGN.md §5i) —
/// the supervised sharded engine on a live source, with wall-clock epoch
/// rotation and the embedded observability plane (`GET /metrics`,
/// `/healthz`, `/snapshot`, `/events`; `POST /control/shutdown`,
/// `/control/reload`).
fn serve(input: &str, opts: &Options) -> Result<String, String> {
    use crate::daemon::{Daemon, DaemonConfig, DaemonReport};
    use dart_core::sharded::ShardedConfig;
    use dart_packet::{CycleSource, Follow, PacketSource, Reconnecting};
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    let mode = opts.get("mode").unwrap_or("once");
    if !matches!(mode, "once" | "follow" | "cycle") {
        return Err(format!(
            "unknown --mode {mode:?} (expected once | follow | cycle)"
        ));
    }
    let passes = match opts.get("passes") {
        None => None,
        Some(_) if mode != "cycle" => return Err("--passes needs --mode cycle".to_string()),
        Some(_) => match opts.get_num("passes", 0u64)? {
            0 => return Err("--passes must be at least 1".to_string()),
            n => Some(n),
        },
    };
    let shards = opts.get_num("shards", 2usize)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let shards = clamp_shards(shards);
    let rotate_millis = opts.get_num("rotate-millis", 900_000u64)?;
    if rotate_millis == 0 {
        return Err("--rotate-millis must be at least 1".to_string());
    }
    let snapshot_path = opts.get("snapshot-path").map(std::path::PathBuf::from);
    let checkpoint_every = match opts.get("checkpoint-millis") {
        None => None,
        Some(_) => {
            let ms = opts.get_num("checkpoint-millis", 0u64)?;
            if ms == 0 {
                return Err("--checkpoint-millis must be at least 1".to_string());
            }
            Some(Duration::from_millis(ms))
        }
    };
    if checkpoint_every.is_some() && snapshot_path.is_none() {
        return Err("--checkpoint-millis needs --snapshot-path".to_string());
    }
    let restore_from = opts.get("restore").map(std::path::PathBuf::from);
    let strict_decode = match opts.get("strict-decode") {
        None => false,
        Some(_) if mode != "follow" => {
            return Err("--strict-decode needs --mode follow \
                 (decode tolerance only applies to live tails)"
                .to_string())
        }
        Some("true") => true,
        Some("false") => false,
        Some(other) => {
            return Err(format!(
                "--strict-decode expects true | false, got {other:?}"
            ))
        }
    };
    let cfg = DaemonConfig {
        sharded: ShardedConfig::new(engine_config(opts)?, shards),
        block_pkts: opts.get_num("block", 1024usize)?.max(1),
        rotate_every: Duration::from_millis(rotate_millis),
        retain: opts.get_num("retain-secs", 10u64)?.saturating_mul(SECOND),
        bind: opts.get("listen").unwrap_or("127.0.0.1:9464").to_string(),
        snapshot_path,
        checkpoint_every,
        restore_from,
    };
    let internal = internal_prefix(opts)?;
    let mut daemon = Daemon::start(cfg).map_err(|e| format!("serve startup: {e}"))?;
    let addr = daemon.addr();
    eprintln!(
        "dartmon serve: observability plane on http://{addr} \
         (POST /control/shutdown to stop)"
    );
    // SIGINT/SIGTERM land in the process-wide shutdown flag (the
    // binary installs the handlers); this watcher routes each request
    // into the daemon's control plane exactly as POST
    // /control/shutdown would, so the drain + final checkpoint path
    // is the same for a Ctrl-C as for an operator POST.
    let server_stop = daemon.server().shutdown_flag();
    let watcher_done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = {
        let done = watcher_done.clone();
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                if crate::shutdown::take() {
                    server_stop.store(true, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        })
    };
    // The samples themselves have no consumer here yet: the report reads
    // the counters.
    let run = |daemon: Daemon, source: &mut dyn PacketSource| {
        daemon
            .run(source, &mut |_: RttSample| {})
            .map_err(|e| format!("ingest {input}: {e}"))
    };
    type ModeOutcome = Result<(DaemonReport, String), String>;
    let outcome: ModeOutcome = (|| match mode {
        "follow" => {
            // Build the tail *after* the server is up: the shared
            // shutdown flag is what wakes a source parked at
            // end-of-data, so a quiet fifo cannot outlive a POSTed
            // shutdown. The whole thing is wrapped in `Reconnecting`:
            // a producer restart or a torn record re-opens the tail
            // under bounded backoff instead of ending a week-long run.
            let stop = daemon.server().shutdown_flag();
            let tail = move |file: std::fs::File| {
                open_boxed(Follow::new(file, stop.clone()), internal).ok()
            };
            // Open eagerly so a missing file fails loudly at startup
            // instead of burning the retry budget, and tail that same
            // handle: closing a probe and opening the path again would
            // leave a fifo without a reader in between, which a
            // producer sees as EPIPE.
            let probe = std::fs::File::open(input).map_err(|e| format!("open {input}: {e}"))?;
            let first = tail(probe);
            let path = input.to_string();
            let reopen = Box::new(move |_attempt: u32| tail(std::fs::File::open(&path).ok()?));
            let source = match first {
                Some(first) => Reconnecting::with_initial(first, reopen),
                // An unreadable header is an outage like any other.
                None => Reconnecting::new(reopen),
            };
            let mut source = source.with_strict_decode(strict_decode);
            daemon.watch_source(source.counters());
            Ok((
                run(daemon, &mut source)?,
                "follow (tail until shutdown)".to_string(),
            ))
        }
        "cycle" => {
            let (packets, _) = load_file(input, internal)?;
            let mut source = CycleSource::new(packets);
            if let Some(n) = passes {
                source = source.with_passes(n);
            }
            let report = run(daemon, &mut source)?;
            let note = format!("cycle ({} passes completed)", source.passes_completed());
            Ok((report, note))
        }
        _ => {
            let mut source = open_source(input, internal, shards + 1)?;
            Ok((
                run(daemon, &mut source)?,
                "once (drain and exit)".to_string(),
            ))
        }
    })();
    // Stop the signal watcher before propagating any error so a
    // failed run never leaks the polling thread.
    watcher_done.store(true, Ordering::Relaxed);
    let _ = watcher.join();
    let (report, mode_note) = outcome?;
    let mut out = String::new();
    let _ = writeln!(out, "listened          : http://{addr}");
    let _ = writeln!(out, "mode              : {mode_note}");
    let _ = writeln!(out, "packets           : {}", report.packets);
    let _ = writeln!(out, "samples           : {}", report.stats.samples);
    let _ = writeln!(out, "epoch rotations   : {}", report.rotations);
    let _ = writeln!(out, "reloads           : {}", report.reloads);
    let _ = writeln!(out, "checkpoints       : {}", report.checkpoints);
    let _ = writeln!(out, "checkpoint failures : {}", report.checkpoint_failures);
    let _ = writeln!(
        out,
        "restored          : {}",
        if report.restored { "yes" } else { "no" }
    );
    let _ = writeln!(
        out,
        "ended by          : {}",
        if report.shutdown_requested {
            "shutdown request"
        } else {
            "source drained"
        }
    );
    let _ = writeln!(
        out,
        "supervisor        : {}",
        if report.health.healthy() {
            "healthy"
        } else {
            "degraded"
        }
    );
    Ok(out)
}

/// `dartmon scenarios`: run the adversarial scenario matrix — generated
/// mixed TCP + QUIC captures judged engine-by-engine (the Dart engines by
/// the SEQ/ACK oracle, `spin` by edge truth, `dart-hist` by ±1-bucket
/// quantile tolerance) — and persist per-run scorecard artifacts.
fn scenarios(opts: &Options) -> Result<String, String> {
    let scale = opts.get_num("scale", 0.2f64)?;
    if !scale.is_finite() || scale <= 0.0 {
        return Err("--scale must be positive".to_string());
    }
    let seed = opts.get_num("seed", 0xD1A7u64)?;
    let fault_seed = match opts.get("fault-seed") {
        None => None,
        Some(_) => Some(opts.get_num("fault-seed", 0u64)?),
    };
    let kinds: Vec<ScenarioKind> = match opts.get("scenario").unwrap_or("all") {
        "all" => ScenarioKind::ALL.to_vec(),
        spec => spec
            .split(',')
            .map(|s| s.trim())
            .filter(|s| !s.is_empty())
            .map(|s| {
                ScenarioKind::parse(s).ok_or_else(|| {
                    format!(
                        "unknown --scenario {s:?} (expected quic-mix | churn-storm | \
                         interception | wireless-tail | all)"
                    )
                })
            })
            .collect::<Result<_, _>>()?,
    };
    if kinds.is_empty() {
        return Err("--scenario: empty selection".to_string());
    }
    let backend = backend_flag(opts)?;
    let mut outcomes = Vec::new();
    for kind in kinds {
        outcomes.push(run_scenario(
            &ScenarioConfig::clean(kind, scale, seed).with_backend(backend),
        ));
        if let Some(fs) = fault_seed {
            outcomes.push(run_scenario(
                &ScenarioConfig::stressed(kind, scale, seed, fs).with_backend(backend),
            ));
        }
    }
    let dir = match opts.get("out") {
        Some(d) => std::path::PathBuf::from(d),
        None => scenario_artifact_dir(),
    };
    let summary = write_scorecards(&dir, &outcomes)
        .map_err(|e| format!("write scorecards to {}: {e}", dir.display()))?;
    let mut out = String::new();
    for o in &outcomes {
        let _ = writeln!(out, "{o}");
    }
    let _ = writeln!(out, "scorecards: {}", summary.display());
    let all_pass = outcomes.iter().all(|o| o.pass());
    let _ = writeln!(
        out,
        "scenario verdict: {} ({} runs)",
        if all_pass { "PASS" } else { "FAIL" },
        outcomes.len()
    );
    Ok(out)
}

/// `dartmon chaos`: replay a trace through the supervised sharded engine
/// with a seeded runtime fault injected, and report whether the degraded
/// output held the harness invariants (conservation, soundness, bounded
/// loss).
fn chaos(input: &str, opts: &Options) -> Result<String, String> {
    let (packets, _) = load_file(input, internal_prefix(opts)?)?;
    let engine = engine_config(opts)?;
    let seed = opts.get_num("seed", 0xC405u64)?;
    let fault = opts.get("fault").unwrap_or("panic");
    if !matches!(fault, "panic" | "stall" | "slow") {
        return Err(format!(
            "unknown --fault {fault:?} (expected panic | stall | slow)"
        ));
    }
    let mut cfg = match fault {
        "stall" => ChaosConfig::seeded_stall(seed, packets.len()),
        "slow" => ChaosConfig::seeded_slow(seed),
        _ => ChaosConfig::seeded_panic(seed, packets.len()),
    };
    cfg.engine = engine;
    let report = run_chaos(&cfg, &packets);
    let mut out = String::new();
    let _ = writeln!(out, "{report}\n");
    let _ = writeln!(
        out,
        "chaos verdict: {} (process survived the injected fault)",
        if report.pass() { "PASS" } else { "FAIL" }
    );
    Ok(out)
}

/// Where the telemetry run should land, parsed from the shared flags.
struct TelemetrySinks {
    jsonl: Option<String>,
    prom: Option<String>,
    events: Option<String>,
    interval: u64,
}

fn telemetry_sinks(opts: &Options) -> Result<TelemetrySinks, String> {
    let sinks = TelemetrySinks {
        jsonl: opts.get("metrics-out").map(String::from),
        prom: opts.get("metrics-prom").map(String::from),
        events: opts.get("events-out").map(String::from),
        interval: opts.get_num("metrics-interval", 100_000u64)?,
    };
    if sinks.jsonl.is_none() && opts.get("metrics-interval").is_some() {
        return Err("--metrics-interval needs --metrics-out".to_string());
    }
    if sinks.interval == 0 {
        return Err("--metrics-interval must be at least 1".to_string());
    }
    Ok(sinks)
}

/// Cap a requested shard count at the host's parallelism: shards beyond
/// the core count measure oversubscription, not speedup. Warns on stderr
/// when it bites.
fn clamp_shards(requested: usize) -> usize {
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if requested > parallelism {
        eprintln!(
            "warning: --shards {requested} exceeds available_parallelism={parallelism}; \
             capping to {parallelism}"
        );
        parallelism
    } else {
        requested
    }
}

/// Resolve the `--engine`/`--shards` pair the way `analyze` documents it:
/// `--shards N` (capped at `available_parallelism`) picks `dart-sharded-N`
/// unless `--engine` overrides; `--backend` picks the matching serial Dart
/// entry.
fn resolve_engine(opts: &Options, registry: &EngineRegistry) -> Result<(String, usize), String> {
    let shards = opts.get_num("shards", 1usize)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let shards = clamp_shards(shards);
    let default_engine = if shards <= 1 {
        backend_flag(opts)?.engine_name().to_string()
    } else {
        format!("dart-sharded-{shards}")
    };
    let engine = opts.get("engine").unwrap_or(&default_engine).to_string();
    registry
        .judgement(&engine)
        .map_err(|e| format!("--engine: {e}"))?;
    Ok((engine, shards))
}

/// Threads a registry engine keeps running: its shards and their feeder
/// for the sharded runtime, the caller's own for the rest.
fn engine_threads(engine: &str) -> usize {
    sharded_shards(engine).map_or(1, |shards| shards + 1)
}

fn internal_prefix(opts: &Options) -> Result<(Ipv4Addr, u8), String> {
    parse_prefix(opts.get("internal-prefix").unwrap_or("10.0.0.0/8"))
}

fn generate(out: &str, opts: &Options) -> Result<String, String> {
    let connections = opts.get_num("connections", 500usize)?;
    let duration_secs = opts.get_num("duration-secs", 10u64)?;
    let seed = opts.get_num("seed", 0xDA27u64)?;
    let trace = campus(CampusConfig {
        connections,
        duration: duration_secs * SECOND,
        seed,
        ..CampusConfig::default()
    });
    save_file(out, &trace.packets)?;
    Ok(format!(
        "wrote {} packets from {} connections ({} complete) to {out}\n",
        trace.packets.len(),
        trace.conns.len(),
        trace.conns.iter().filter(|c| c.complete).count()
    ))
}

/// The `--backend` flag: which flow-state backend family the Dart config
/// uses (`exact` reference tables, `sketch`, or `precision` admission).
fn backend_flag(opts: &Options) -> Result<Backend, String> {
    match opts.get("backend") {
        None => Ok(Backend::Exact),
        Some(s) => s.parse().map_err(|e| format!("--backend: {e}")),
    }
}

fn engine_config(opts: &Options) -> Result<DartConfig, String> {
    let leg = match opts.get("leg").unwrap_or("external") {
        "external" => Leg::External,
        "internal" => Leg::Internal,
        "both" => Leg::Both,
        other => return Err(format!("unknown --leg {other:?}")),
    };
    let pt = opts.get_num("pt", 1usize << 17)?;
    let stages = opts.get_num("stages", 1usize)?;
    let rt = opts.get_num("rt", 1usize << 20)?;
    let max_recirc = opts.get_num("max-recirc", 1u32)?;
    if max_recirc > MAX_RECIRC {
        return Err(format!(
            "--max-recirc must be at most {MAX_RECIRC} (2^31 - 1), got {max_recirc}"
        ));
    }
    Ok(DartConfig::default()
        .with_leg(leg)
        .with_rt(rt)
        .with_pt(pt, stages)
        .with_max_recirc(max_recirc)
        .with_backend(backend_flag(opts)?))
}

/// Expand an `--engine` flag into validated registry names: a single name,
/// a comma-separated list, or `all` (every statically registered engine).
fn engine_selection(
    opts: &Options,
    registry: &EngineRegistry,
    default: &str,
) -> Result<Vec<String>, String> {
    let spec = opts.get("engine").unwrap_or(default);
    let names: Vec<String> = if spec == "all" {
        registry.names().iter().map(|s| s.to_string()).collect()
    } else {
        spec.split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()
    };
    if names.is_empty() {
        return Err("--engine: empty selection".to_string());
    }
    for name in &names {
        registry
            .judgement(name)
            .map_err(|e| format!("--engine: {e}"))?;
    }
    Ok(names)
}

/// `--csv`: one row per sample, written as the engine emits it. The first
/// write error is held and returned by [`CsvOut::finish`].
struct CsvOut<'a> {
    path: &'a str,
    out: BufWriter<File>,
    status: std::io::Result<()>,
}

impl<'a> CsvOut<'a> {
    fn create(path: &'a str) -> Result<Self, String> {
        let file = File::create(path).map_err(|e| format!("write {path}: {e}"))?;
        let mut out = BufWriter::new(file);
        let status = writeln!(out, "ts_ns,src,sport,dst,dport,eack,rtt_ns");
        Ok(CsvOut { path, out, status })
    }

    fn row(&mut self, s: &RttSample) {
        if self.status.is_ok() {
            self.status = writeln!(
                self.out,
                "{},{},{},{},{},{},{}",
                s.ts,
                s.flow.src_ip,
                s.flow.src_port,
                s.flow.dst_ip,
                s.flow.dst_port,
                s.eack.raw(),
                s.rtt
            );
        }
    }

    fn finish(mut self) -> Result<(), String> {
        self.status
            .and_then(|()| self.out.flush())
            .map_err(|e| format!("write {}: {e}", self.path))
    }

    /// A failed run leaves no partial CSV behind. Only a regular file is
    /// removed: `--csv /dev/null` must not cost the host its device node.
    fn discard(self) {
        drop(self.out);
        if std::fs::symlink_metadata(self.path).is_ok_and(|m| m.is_file()) {
            let _ = std::fs::remove_file(self.path);
        }
    }
}

fn analyze(input: &str, opts: &Options) -> Result<String, String> {
    let cfg = engine_config(opts)?;
    let registry = EngineRegistry::standard();
    let (engine, shards) = resolve_engine(opts, &registry)?;
    let sinks = telemetry_sinks(opts)?;
    let mut source = open_source(input, internal_prefix(opts)?, engine_threads(&engine))?;

    let (metrics, events) = (MetricRegistry::new(), EventLog::new(256));
    let mut built = registry.build_instrumented(&engine, &cfg, &metrics)?;
    // `--metrics-out`: a JSONL line every `--metrics-interval` packets and
    // one more after the flush.
    let mut jsonl = String::new();
    let mut snapshot = |processed: u64, done: bool| {
        if sinks.jsonl.is_none() {
            return;
        }
        let snap = metrics.scrape();
        jsonl.push_str(&snap.jsonl_line(&[("packets", processed), ("final", done as u64)]));
        jsonl.push('\n');
        events.info(
            "replay",
            if done {
                "final snapshot"
            } else {
                "periodic snapshot"
            },
            &[("packets", &processed.to_string())],
        );
    };
    events.info(
        "replay",
        "run start",
        &[("engine", &engine), ("input", input)],
    );
    // Samples stream too: the distribution keeps 8 bytes of each, the CSV
    // row goes to disk.
    let mut dist = RttDistribution::new();
    let mut csv = opts.get("csv").map(CsvOut::create).transpose()?;
    let mut packets = 0;
    let run = {
        let mut tick = tick_every(sinks.interval, |processed| snapshot(processed, false));
        let mut sink = |s: RttSample| {
            dist.push(s.rtt);
            if let Some(csv) = &mut csv {
                csv.row(&s);
            }
        };
        drive(
            built.monitor.as_mut(),
            &mut source,
            &mut sink,
            |monitor, sink, at| {
                packets = at.packets;
                tick(monitor, sink, at)
            },
        )
    };
    // No partial report: the CSV is the only output written before the run
    // has succeeded, so it is the only one to take back.
    let stats = match run {
        Ok(stats) => stats,
        Err(e) => {
            if let Some(csv) = csv {
                csv.discard();
            }
            return Err(format!("{input}: {e}"));
        }
    };
    if let Some(csv) = csv {
        csv.finish()?;
    }
    snapshot(packets, true);
    let mut telemetry_note = String::new();
    events.info(
        "replay",
        "run finish",
        &[
            ("packets", &packets.to_string()),
            ("samples", &dist.len().to_string()),
        ],
    );
    if let Some(path) = &sinks.jsonl {
        std::fs::write(path, &jsonl).map_err(|e| format!("write {path}: {e}"))?;
        let _ = writeln!(
            telemetry_note,
            "metrics           : {} snapshots (every {} pkts) -> {path}",
            jsonl.lines().count(),
            sinks.interval
        );
    }
    if let Some(path) = &sinks.prom {
        std::fs::write(path, metrics.scrape().prometheus())
            .map_err(|e| format!("write {path}: {e}"))?;
        let _ = writeln!(telemetry_note, "prometheus        : {path}");
    }
    if let Some(path) = &sinks.events {
        std::fs::write(path, events.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
        let _ = writeln!(
            telemetry_note,
            "events            : {} entries -> {path}",
            events.len_logged()
        );
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "input             : {input} ({packets} packets, {} skipped)",
        source.source().map_or(0, TraceSource::skipped)
    );
    let _ = writeln!(
        out,
        "engine            : {} — {}",
        built.monitor.name(),
        built.monitor.describe()
    );
    let _ = writeln!(
        out,
        "config            : {:?} leg, PT {:?}, RT {:?}, recirc<={}, shards={shards}",
        cfg.leg, cfg.pt, cfg.rt, cfg.max_recirc
    );
    let _ = writeln!(out, "samples           : {}", dist.len());
    for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p95", 95.0), ("p99", 99.0)] {
        if let Some(v) = dist.percentile(p) {
            let _ = writeln!(out, "{label:<18}: {:.3} ms", v as f64 / 1e6);
        }
    }
    let _ = writeln!(out, "tracked data pkts : {}", stats.seq_tracked);
    let _ = writeln!(out, "retransmissions   : {}", stats.seq_retransmission);
    let _ = writeln!(out, "range collapses   : {}", stats.range_collapses);
    let _ = writeln!(out, "optimistic ACKs   : {}", stats.ack_optimistic);
    let _ = writeln!(out, "recirc / packet   : {:.4}", stats.recirc_per_packet());
    let engine_cfg = serial_dart_config(&engine, &cfg).unwrap_or(cfg);
    if let Some(tables) = tables_line(&metrics, &engine_cfg) {
        let _ = writeln!(out, "tables            : {tables}");
    }
    out.push_str(&telemetry_note);
    Ok(out)
}

/// What the RT and the PT held at the end of a run, beside what they model:
/// per table the slots, the occupied ones and the bytes held, read from
/// the `dart_table_*` gauges, and the register bits `program` prices for
/// `cfg`. A sharded run sums its shards, each of which holds the whole
/// geometry. `None` for an engine without Dart tables.
fn tables_line(metrics: &MetricRegistry, cfg: &DartConfig) -> Option<String> {
    let mut shards = std::collections::BTreeSet::new();
    let mut held = [(0i64, 0i64); TABLES.len()];
    for s in metrics.scrape().samples {
        let MetricValue::Gauge(value) = s.value else {
            continue;
        };
        let label = |key: &str| s.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let Some(table) = TABLES
            .iter()
            .position(|t| label("table").is_some_and(|v| v == t))
        else {
            continue;
        };
        if s.name == TABLE_OCCUPIED_SLOTS.name {
            held[table].0 += value;
        } else if s.name == TABLE_RESIDENT_BYTES.name {
            held[table].1 += value;
        }
        shards.extend(label("shard").cloned());
    }
    let shards = shards.len() as u64;
    let slots = match (cfg.rt, cfg.pt) {
        (
            RtMode::Constrained { slots: rt } | RtMode::Sketch { slots: rt, .. },
            PtMode::Constrained { slots: pt, .. } | PtMode::Sketch { slots: pt, .. },
        ) => [rt, pt],
        _ => return None,
    };
    let prog = program(cfg, &TargetProfile::tofino2()).ok()?;
    let priced = |table: &str| -> u64 {
        let prefix = format!("{table}_");
        (prog.tables.iter())
            .filter(|t| t.name.starts_with(&prefix))
            .map(|t| t.entries * u64::from(t.value_bits))
            .sum()
    };
    (shards > 0).then(|| {
        let rows: Vec<String> = (TABLES.iter().zip(slots).zip(held))
            .map(|((table, slots), (occupied, bytes))| {
                format!(
                    "{table} {occupied} of {} slots in {:.1} KiB ({} bits priced)",
                    slots as u64 * shards,
                    bytes as f64 / 1024.0,
                    priced(table) * shards
                )
            })
            .collect();
        rows.join(", ")
    })
}

/// `dartmon stats`: run one engine and print the full metric snapshot
/// through the shared `dart-telemetry` renderer.
fn stats_report(input: &str, opts: &Options) -> Result<String, String> {
    let cfg = engine_config(opts)?;
    let registry = EngineRegistry::standard();
    let (engine, _) = resolve_engine(opts, &registry)?;
    let mut source = open_source(input, internal_prefix(opts)?, engine_threads(&engine))?;
    let metrics = MetricRegistry::new();
    let mut built = registry.build_instrumented(&engine, &cfg, &metrics)?;
    let (mut packets, mut samples) = (0, 0u64);
    drive(
        built.monitor.as_mut(),
        &mut source,
        &mut |_: RttSample| samples += 1,
        |_, _, at| {
            packets = at.packets;
            Some(DEFAULT_BLOCK_PKTS)
        },
    )
    .map_err(|e| format!("{input}: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "input  : {input} ({packets} packets, {} skipped)",
        source.source().map_or(0, TraceSource::skipped)
    );
    let _ = writeln!(out, "engine : {}", built.monitor.describe());
    let _ = writeln!(out, "samples: {samples}");
    out.push('\n');
    out.push_str(&metrics.scrape().render_text());
    Ok(out)
}

fn compare(input: &str, opts: &Options) -> Result<String, String> {
    let (packets, _) = load_file(input, internal_prefix(opts)?)?;
    let cfg = engine_config(opts)?;
    let registry = EngineRegistry::standard();
    let names = engine_selection(opts, &registry, "all")?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>9} {:>10} {:>10}",
        "tool", "samples", "p50 (ms)", "p99 (ms)"
    );
    for name in names {
        let mut built = registry.build(&name, &cfg)?;
        let (samples, _) = run_monitor_slice(built.monitor.as_mut(), &packets);
        let mut d = RttDistribution::from_samples(samples.iter().map(|s| s.rtt));
        let _ = writeln!(
            out,
            "{name:<22} {:>9} {:>10.2} {:>10.2}",
            d.len(),
            d.percentile(50.0).unwrap_or(0) as f64 / 1e6,
            d.percentile(99.0).unwrap_or(0) as f64 / 1e6
        );
    }
    Ok(out)
}

fn diff(input: &str, opts: &Options) -> Result<String, String> {
    let (packets, _) = load_file(input, internal_prefix(opts)?)?;
    let shards = opts.get_num("shards", 4usize)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let shards = clamp_shards(shards);
    let registry = EngineRegistry::standard();
    let selection = engine_selection(opts, &registry, "tcptrace,fridge")?;
    let shard_list = if shards == 1 {
        vec![1]
    } else {
        vec![1, shards]
    };
    // The serial Dart row is labeled by its backend so a `--backend` run
    // reads as the registry engine it actually is.
    let serial_name = backend_flag(opts)?.engine_name();
    let shard_names: Vec<String> = shard_list
        .iter()
        .map(|&s| {
            if s <= 1 {
                serial_name.to_string()
            } else {
                format!("dart-sharded-{s}")
            }
        })
        .collect();
    // The Dart rows come from --shards; --engine adds everything else.
    let baseline_engines: Vec<String> = selection
        .into_iter()
        .filter(|n| !shard_names.contains(n))
        .collect();
    let cfg = DiffConfig {
        engine: engine_config(opts)?,
        shards: shard_list,
        impossible_budget: opts.get_num("impossible-budget", 0u64)?,
        baselines: !baseline_engines.is_empty(),
        baseline_engines,
    };
    let sinks = telemetry_sinks(opts)?;
    let report = {
        let metrics = MetricRegistry::new();
        let events = EventLog::new(256);
        let fault = opts
            .get("fault-seed")
            .map(|_| opts.get_num("fault-seed", 0u64).map(FaultConfig::stress))
            .transpose()?;
        let report = run_diff(&cfg, fault, &packets, Some((&metrics, &events)));
        if let Some(path) = &sinks.jsonl {
            let mut line = metrics
                .scrape()
                .jsonl_line(&[("packets", packets.len() as u64), ("final", 1)]);
            line.push('\n');
            std::fs::write(path, line).map_err(|e| format!("write {path}: {e}"))?;
        }
        if let Some(path) = &sinks.prom {
            std::fs::write(path, metrics.scrape().prometheus())
                .map_err(|e| format!("write {path}: {e}"))?;
        }
        if let Some(path) = &sinks.events {
            std::fs::write(path, events.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
        }
        report
    };
    let mut out = report.to_string();
    out.push('\n');
    // Engine counters through the shared dart-telemetry row formatter —
    // one rendering path with `dartmon stats` (not EngineStats debug).
    out.push_str(&report.counters_text());
    Ok(out)
}

fn detect(input: &str, opts: &Options) -> Result<String, String> {
    let mut source = open_source(input, internal_prefix(opts)?, 1)?;
    let window = opts.get_num("window", 8u32)?;
    let ratio = opts.get_num("ratio", 2.0f64)?;
    let mut det = ChangeDetector::new(ChangeDetectorConfig {
        window,
        ratio,
        ..ChangeDetectorConfig::default()
    });
    let mut samples = 0u64;
    let mut verdicts = String::new();
    let mut sink = |s: RttSample| {
        samples += 1;
        let _ = match det.offer(s.rtt, s.ts) {
            Verdict::Suspected { baseline, observed } => writeln!(
                verdicts,
                "t={:9.3}s SUSPECTED min-RTT {:.1} -> {:.1} ms",
                s.ts as f64 / 1e9,
                baseline as f64 / 1e6,
                observed as f64 / 1e6
            ),
            Verdict::Confirmed {
                baseline,
                observed,
                samples_to_confirm,
            } => writeln!(
                verdicts,
                "t={:9.3}s CONFIRMED min-RTT {:.1} -> {:.1} ms ({samples_to_confirm} samples)",
                s.ts as f64 / 1e9,
                baseline as f64 / 1e6,
                observed as f64 / 1e6
            ),
            Verdict::Normal => Ok(()),
        };
    };
    let mut engine = DartEngine::new(DartConfig::default());
    drive(&mut engine, &mut source, &mut sink, |_, _, _| {
        Some(DEFAULT_BLOCK_PKTS)
    })
    .map_err(|e| format!("{input}: {e}"))?;
    let mut out = format!("samples: {samples}\n{verdicts}");
    if !out.contains("SUSPECTED") {
        let _ = writeln!(out, "no abnormal min-RTT changes detected");
    }
    Ok(out)
}

/// The program the engine flags configure, priced and placed on both
/// targets.
fn resources(opts: &Options) -> Result<String, String> {
    let cfg = engine_config(opts)?;
    let mut out = String::new();
    for target in [TargetProfile::tofino1(), TargetProfile::tofino2()] {
        let prog = program(&cfg, &target).map_err(|e| e.to_string())?;
        let report = estimate(&prog, &target);
        let span = if target.spans_egress {
            "ingress+egress"
        } else {
            "ingress only"
        };
        let _ = writeln!(out, "== {} ({span}) ==", target.name);
        let _ = writeln!(out, "{report}");
        let _ = writeln!(out, "{}\n", report.verdict());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::parse;
    use dart_core::telemetry::{RECIRC_QUEUE_DEPTH, RTT_NS, SHARD_COUNTERS};

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(name)
            .to_str()
            .unwrap()
            .to_string()
    }

    fn run_line(line: &[&str]) -> Result<String, String> {
        let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        let (cmd, opts) = parse(&args)?;
        run(cmd, &opts)
    }

    #[test]
    fn generate_then_analyze_then_compare_then_detect() {
        let path = tmp("dartmon_e2e.trace");
        let report = run_line(&[
            "generate",
            &path,
            "--connections",
            "80",
            "--duration-secs",
            "3",
        ])
        .unwrap();
        assert!(report.contains("wrote"));

        let report = run_line(&["analyze", &path]).unwrap();
        assert!(report.contains("samples"));
        assert!(report.contains("p50"));

        let report = run_line(&["compare", &path]).unwrap();
        for name in ["dart", "dart-sharded-4", "tcptrace", "pping", "lean"] {
            assert!(report.contains(name), "missing {name} in:\n{report}");
        }

        let report = run_line(&["detect", &path]).unwrap();
        assert!(report.contains("samples:"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn engine_flag_selects_registry_entries() {
        let path = tmp("dartmon_engine.trace");
        run_line(&[
            "generate",
            &path,
            "--connections",
            "40",
            "--duration-secs",
            "2",
        ])
        .unwrap();
        let report = run_line(&["analyze", &path, "--engine", "pping"]).unwrap();
        assert!(report.contains("pping"), "{report}");
        let report = run_line(&["compare", &path, "--engine", "dart,tcptrace"]).unwrap();
        assert!(
            report.contains("tcptrace") && !report.contains("fridge"),
            "{report}"
        );
        let report = run_line(&["diff", &path, "--engine", "all"]).unwrap();
        for name in ["dart", "tcptrace-quirk", "strawman", "lean", "verdict"] {
            assert!(report.contains(name), "missing {name} in:\n{report}");
        }
        let err = run_line(&["analyze", &path, "--engine", "nonsense"]).unwrap_err();
        assert!(err.contains("unknown engine"), "{err}");
        let err = run_line(&["compare", &path, "--engine", ","]).unwrap_err();
        assert!(err.contains("empty selection"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_sharded_runs_and_reports() {
        let path = tmp("dartmon_shards.trace");
        run_line(&[
            "generate",
            &path,
            "--connections",
            "60",
            "--duration-secs",
            "2",
        ])
        .unwrap();
        let serial = run_line(&["analyze", &path]).unwrap();
        assert!(serial.contains("shards=1"));
        // Shard counts are capped at the host's parallelism, so the
        // reported count adapts to the machine running the test.
        let par = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let sharded = run_line(&["analyze", &path, "--shards", "4"]).unwrap();
        assert!(
            sharded.contains(&format!("shards={}", 4.min(par))),
            "{sharded}"
        );
        assert!(sharded.contains("p50"));
        let capped = run_line(&["analyze", &path, "--shards", "4096"]).unwrap();
        assert!(capped.contains(&format!("shards={par}")), "{capped}");
        let err = run_line(&["analyze", &path, "--shards", "0"]).unwrap_err();
        assert!(err.contains("at least 1"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_reports_what_its_tables_hold() {
        let path = tmp("dartmon_tables.trace");
        run_line(&[
            "generate",
            &path,
            "--connections",
            "60",
            "--duration-secs",
            "2",
        ])
        .unwrap();
        let tables = |extra: &[&str]| {
            let report = run_line(&[&["analyze", path.as_str()], extra].concat()).unwrap();
            let line = report.lines().find(|l| l.starts_with("tables "));
            line.map(|l| l.split_once(": ").unwrap().1.to_string())
        };
        // Default geometry: sparse tables, priced as the program prices them.
        let exact = tables(&[]).unwrap();
        assert!(exact.starts_with("rt "), "{exact}");
        assert!(exact.contains(" of 1048576 slots in "), "{exact}");
        assert!(exact.contains("(100663296 bits priced), pt "), "{exact}");
        assert!(exact.contains(" of 131072 slots in "), "{exact}");
        assert!(exact.ends_with("(12582912 bits priced)"), "{exact}");
        let sketch = tables(&["--backend", "sketch"]).unwrap();
        assert!(sketch.contains("(134217728 bits priced)"), "{sketch}");
        // Frontier geometry: dense from construction, 4 096 × 24 B of RT
        // words and 64 bitmap words.
        let frontier = tables(&["--rt", "4096", "--pt", "512"]).unwrap();
        assert!(
            frontier.contains(" of 4096 slots in 96.5 KiB"),
            "{frontier}"
        );
        assert_eq!(tables(&["--engine", "tcptrace"]), None);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_selects_backends_by_flag() {
        let path = tmp("dartmon_backend.trace");
        run_line(&[
            "generate",
            &path,
            "--connections",
            "60",
            "--duration-secs",
            "2",
        ])
        .unwrap();
        let sketch = run_line(&["analyze", &path, "--backend", "sketch"]).unwrap();
        assert!(sketch.contains("dart@sketch"), "{sketch}");
        let precision = run_line(&["analyze", &path, "--backend", "precision"]).unwrap();
        assert!(precision.contains("dart@precision"), "{precision}");
        let exact = run_line(&["analyze", &path, "--backend", "exact"]).unwrap();
        assert!(!exact.contains("dart@"), "{exact}");
        let err = run_line(&["analyze", &path, "--backend", "nonsense"]).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn analyze_writes_csv() {
        let path = tmp("dartmon_csv.trace");
        let csv = tmp("dartmon_out.csv");
        run_line(&[
            "generate",
            &path,
            "--connections",
            "40",
            "--duration-secs",
            "2",
        ])
        .unwrap();
        run_line(&["analyze", &path, "--csv", &csv]).unwrap();
        let text = std::fs::read_to_string(&csv).unwrap();
        assert!(text.starts_with("ts_ns,src,sport,dst,dport,eack,rtt_ns"));
        assert!(text.lines().count() > 1);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn replay_emits_periodic_snapshots_and_prometheus_validates() {
        let path = tmp("dartmon_metrics.trace");
        let jsonl = tmp("dartmon_metrics.jsonl");
        let prom = tmp("dartmon_metrics.prom");
        let events = tmp("dartmon_events.jsonl");
        run_line(&[
            "generate",
            &path,
            "--connections",
            "120",
            "--duration-secs",
            "3",
        ])
        .unwrap();
        let report = run_line(&[
            "--metrics-out",
            &jsonl,
            "--metrics-interval",
            "2000",
            "--metrics-prom",
            &prom,
            "--events-out",
            &events,
            "replay",
            &path,
        ])
        .unwrap();
        assert!(report.contains("metrics"), "{report}");

        let series = std::fs::read_to_string(&jsonl).unwrap();
        assert!(
            series.lines().count() >= 2,
            "expected >= 2 snapshots:\n{series}"
        );
        let packets = SHARD_COUNTERS.name_for("packets");
        for needle in [
            &packets,
            RTT_NS.name,
            RECIRC_QUEUE_DEPTH.name,
            "\"buckets\":[",
        ] {
            assert!(series.contains(needle), "missing {needle} in snapshots");
        }
        let check = dart_telemetry::check_jsonl_series(&series);
        assert!(check.ok(), "jsonl schema errors: {:?}", check.errors);

        let text = std::fs::read_to_string(&prom).unwrap();
        let check = dart_telemetry::check_prometheus(&text);
        assert!(check.ok(), "prometheus schema errors: {:?}", check.errors);

        let log = std::fs::read_to_string(&events).unwrap();
        assert!(log.contains("\"message\":\"run start\""), "{log}");
        assert!(log.contains("periodic snapshot"), "{log}");
        for f in [&path, &jsonl, &prom, &events] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn stats_prints_the_metric_table() {
        let path = tmp("dartmon_stats.trace");
        run_line(&[
            "generate",
            &path,
            "--connections",
            "40",
            "--duration-secs",
            "2",
        ])
        .unwrap();
        let report = run_line(&["stats", &path]).unwrap();
        for needle in [&SHARD_COUNTERS.name_for("packets"), RTT_NS.name, "p99"] {
            assert!(report.contains(needle), "missing {needle} in:\n{report}");
        }
        let par = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let sharded = run_line(&["stats", &path, "--shards", "2"]).unwrap();
        // With ≥2 cores the second shard's series appears; on a 1-core
        // host the count is capped and only shard 0 reports.
        let expect = if par >= 2 {
            "shard=\"1\""
        } else {
            "shard=\"0\""
        };
        assert!(sharded.contains(expect), "{sharded}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_interval_without_out_errors() {
        let err = run_line(&["replay", "x.trace", "--metrics-interval", "5"]).unwrap_err();
        assert!(err.contains("--metrics-out"), "{err}");
    }

    #[test]
    fn diff_renders_counters_through_shared_formatter() {
        let path = tmp("dartmon_diff_counters.trace");
        run_line(&[
            "generate",
            &path,
            "--connections",
            "50",
            "--duration-secs",
            "2",
        ])
        .unwrap();
        let report = run_line(&["diff", &path]).unwrap();
        assert!(report.contains("counters[dart]"), "{report}");
        assert!(report.contains("verdict: PASS"), "{report}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn diff_reports_pass_on_clean_and_faulted_traces() {
        let path = tmp("dartmon_diff.trace");
        run_line(&[
            "generate",
            &path,
            "--connections",
            "50",
            "--duration-secs",
            "2",
        ])
        .unwrap();
        let clean = run_line(&["diff", &path]).unwrap();
        assert!(clean.contains("oracle:"));
        // The default 4-shard row is capped at the host's parallelism.
        let par = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if par >= 4 {
            assert!(clean.contains("dart-sharded-4"));
        }
        assert!(clean.contains("tcptrace"));
        assert!(clean.contains("verdict: PASS"));
        let faulted = run_line(&["diff", &path, "--fault-seed", "9"]).unwrap();
        assert!(faulted.contains("faults:"));
        assert!(faulted.contains("verdict: PASS"));
        let err = run_line(&["diff", &path, "--shards", "0"]).unwrap_err();
        assert!(err.contains("at least 1"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn chaos_sweep_survives_and_passes() {
        let path = tmp("dartmon_chaos.trace");
        run_line(&[
            "generate",
            &path,
            "--connections",
            "40",
            "--duration-secs",
            "2",
        ])
        .unwrap();
        let report = run_line(&["chaos", &path]).unwrap();
        for needle in [
            "chaos: panic at packet",
            "restarts 1",
            "chaos verdict: PASS",
        ] {
            assert!(report.contains(needle), "missing {needle} in:\n{report}");
        }
        let runs = report.lines().filter(|l| l.starts_with("chaos: ")).count();
        assert_eq!(runs, 1, "one run:\n{report}");
        let err = run_line(&["chaos", &path, "--fault", "meteor"]).unwrap_err();
        assert!(err.contains("unknown --fault"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scenarios_matrix_runs_and_writes_scorecards() {
        let dir = tmp("dartmon_scenarios_out");
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_line(&[
            "scenarios",
            "--scale",
            "0.1",
            "--scenario",
            "quic-mix",
            "--fault-seed",
            "7",
            "--out",
            &dir,
        ])
        .unwrap();
        assert!(report.contains("scenario[quic-mix]"), "{report}");
        assert!(report.contains("spin"), "{report}");
        assert!(report.contains("dart-hist"), "{report}");
        assert!(
            report.contains("scenario verdict: PASS (2 runs)"),
            "{report}"
        );
        let base = std::path::Path::new(&dir);
        for name in ["scorecard.txt", "quic-mix.txt", "quic-mix-stressed.txt"] {
            assert!(base.join(name).exists(), "missing artifact {name}");
        }
        let summary = std::fs::read_to_string(base.join("scorecard.txt")).unwrap();
        assert!(!summary.contains("FAIL"), "{summary}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenarios_backend_flag_tags_the_scorecards() {
        let dir = tmp("dartmon_scenarios_backend_out");
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_line(&[
            "scenarios",
            "--scale",
            "0.1",
            "--scenario",
            "quic-mix",
            "--backend",
            "sketch",
            "--out",
            &dir,
        ])
        .unwrap();
        assert!(report.contains("backend sketch"), "{report}");
        assert!(
            std::path::Path::new(&dir)
                .join("quic-mix@sketch.txt")
                .exists(),
            "backend-suffixed scorecard missing"
        );
        let err = run_line(&["scenarios", "--backend", "nonsense"]).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_once_drains_and_reports() {
        let path = tmp("dartmon_serve_once.trace");
        run_line(&[
            "generate",
            &path,
            "--connections",
            "60",
            "--duration-secs",
            "2",
        ])
        .unwrap();
        let report = run_line(&["serve", &path, "--listen", "127.0.0.1:0"]).unwrap();
        assert!(report.contains("mode              : once"), "{report}");
        assert!(
            report.contains("ended by          : source drained"),
            "{report}"
        );
        assert!(report.contains("supervisor        : healthy"), "{report}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_cycle_rotates_epochs_over_a_looped_trace() {
        let path = tmp("dartmon_serve_cycle.trace");
        run_line(&[
            "generate",
            &path,
            "--connections",
            "60",
            "--duration-secs",
            "2",
        ])
        .unwrap();
        let report = run_line(&[
            "serve",
            &path,
            "--listen",
            "127.0.0.1:0",
            "--mode",
            "cycle",
            "--passes",
            "3",
            "--rotate-millis",
            "1",
            "--retain-secs",
            "1",
        ])
        .unwrap();
        assert!(report.contains("cycle (3 passes completed)"), "{report}");
        let rotations: u64 = report
            .lines()
            .find(|l| l.starts_with("epoch rotations"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .expect("rotation count line");
        assert!(rotations >= 1, "{report}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_rejects_bad_flags() {
        let err = run_line(&["serve", "x.trace", "--mode", "sideways"]).unwrap_err();
        assert!(err.contains("unknown --mode"), "{err}");
        let err = run_line(&["serve", "x.trace", "--passes", "2"]).unwrap_err();
        assert!(err.contains("--passes needs --mode cycle"), "{err}");
        let err = run_line(&["serve", "x.trace", "--shards", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn scenarios_rejects_bad_flags() {
        let err = run_line(&["scenarios", "--scenario", "meteor"]).unwrap_err();
        assert!(err.contains("unknown --scenario"), "{err}");
        let err = run_line(&["scenarios", "--scale", "0"]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = run_line(&["scenarios", "--scenario", ","]).unwrap_err();
        assert!(err.contains("empty selection"), "{err}");
    }

    #[test]
    fn resources_report_includes_both_targets() {
        let r = run_line(&["resources", "--rt", "16384", "--pt", "16384"]).unwrap();
        assert!(r.contains("Tofino 1"));
        assert!(r.contains("Tofino 2"));
        // The paper's Tofino 2 build is 2^14 / 2^14 slots: the figure
        // `table1` and EXPERIMENTS.md print, not the Tofino 1 sizing's 11.3%.
        let tofino2 = r.split("Tofino 2").nth(1).unwrap();
        assert!(tofino2.contains("SRAM              2.3%"), "{r}");
    }

    fn sram_rows(report: &str) -> Vec<&str> {
        report.lines().filter(|l| l.starts_with("SRAM")).collect()
    }

    #[test]
    fn resources_prices_the_backend_flag() {
        let exact = run_line(&["resources", "--backend", "exact"]).unwrap();
        let sketch = run_line(&["resources", "--backend", "sketch"]).unwrap();
        assert_ne!(sram_rows(&exact), sram_rows(&sketch), "{exact}\n{sketch}");
    }

    /// Every backend's `backend_sweep` config at three geometries costs its
    /// budget to within one 8 RT + 1 PT step, and `resources` with that
    /// config's flags prints what `program` and `estimate` price it at.
    #[test]
    fn resources_prices_each_backend_sweep_config() {
        let t1 = TargetProfile::tofino1();
        let sized = |rt: usize, pt: usize, b: Backend| {
            DartConfig::default()
                .with_rt(rt)
                .with_pt(pt, 1)
                .with_backend(b)
        };
        let price = |cfg: &DartConfig| program(cfg, &t1).unwrap().sram_bits();
        for geometry in [64, 512, 4096] {
            let budget = price(&sized(8 * geometry, geometry, Backend::Exact));
            for backend in [Backend::Exact, Backend::Sketch, Backend::Precision] {
                let cfg = dart_testkit::backend_sweep(&t1, &[geometry], backend)[0];
                let (
                    dart_core::RtMode::Constrained { slots: rt }
                    | dart_core::RtMode::Sketch { slots: rt, .. },
                    dart_core::PtMode::Constrained { slots: pt, .. }
                    | dart_core::PtMode::Sketch { slots: pt, .. },
                ) = (cfg.rt, cfg.pt)
                else {
                    panic!("{cfg:?} is unlimited");
                };
                // Four steps, so that every way set grows whole.
                let step = (price(&sized(rt + 32, pt + 4, backend)) - price(&cfg)) / 4;
                assert!(
                    price(&cfg) <= budget && budget - price(&cfg) < step,
                    "{backend} at {geometry}: {} of {budget} bits, step {step}",
                    price(&cfg)
                );
                let (rt, pt, backend) = (rt.to_string(), pt.to_string(), backend.to_string());
                let flags = ["resources", "--backend", &backend, "--rt", &rt, "--pt", &pt];
                let out = run_line(&flags).unwrap();
                let printed = sram_rows(&out);
                for (i, target) in [t1, TargetProfile::tofino2()].iter().enumerate() {
                    let report = estimate(&program(&cfg, target).unwrap(), target).to_string();
                    assert_eq!(printed[i], sram_rows(&report)[0], "{flags:?}");
                }
            }
        }
    }

    #[test]
    fn help_is_usage() {
        let r = run_line(&["help"]).unwrap();
        assert!(r.contains("USAGE"));
    }

    #[test]
    fn bad_leg_flag_errors() {
        let path = tmp("dartmon_badleg.trace");
        run_line(&[
            "generate",
            &path,
            "--connections",
            "10",
            "--duration-secs",
            "1",
        ])
        .unwrap();
        let err = run_line(&["analyze", &path, "--leg", "sideways"]).unwrap_err();
        assert!(err.contains("unknown --leg"));
        let _ = std::fs::remove_file(&path);
    }

    /// A Packet Tracker record keeps its trip count in 31 bits, so the cap
    /// is refused from 2^31 up, and the largest cap it can keep runs.
    #[test]
    fn max_recirc_of_two_to_the_31_is_refused() {
        let path = tmp("dartmon_max_recirc.trace");
        run_line(&[
            "generate",
            &path,
            "--connections",
            "10",
            "--duration-secs",
            "1",
        ])
        .unwrap();
        for over in ["2147483648", "4294967295"] {
            let err = run_line(&["analyze", &path, "--max-recirc", over]).unwrap_err();
            assert!(
                err.contains("--max-recirc must be at most 2147483647"),
                "{err}"
            );
        }
        run_line(&["analyze", &path, "--max-recirc", "2147483647"]).unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_errors_cleanly() {
        let err = run_line(&["analyze", "/nonexistent/file.trace"]).unwrap_err();
        assert!(err.contains("read"));
    }
}
