//! Trace-replay throughput on the standard campus trace, written to
//! `BENCH_throughput.json`: the serial per-packet path, the batch pipeline
//! at a sweep of block sizes, and the flow-sharded engine for a range of
//! shard counts. Every batch row is asserted byte-identical to the serial
//! sample stream before it is timed, so the reported speedup is for the
//! exact same work.
//!
//! Flags (all optional):
//!
//! * `--shards 1,2,4,8` — shard counts to measure (default `1,2,4,8`;
//!   `DART_SHARDS` selects a single count when the flag is absent);
//! * `--batch-size 64,256,1024` — block sizes for the batch-path sweep
//!   (default `64,256,1024`);
//! * `--iters N` — timed replays per row, best-of reported (default 3);
//! * `--out PATH` — output path (default `BENCH_throughput.json`);
//! * `--metrics-out PATH` — telemetry sidecar JSONL, one snapshot per
//!   shard count from the instrumented warm-up replay
//!   (default `BENCH_throughput_metrics.jsonl`; `telemetry` feature only);
//! * `DART_SCALE` — trace sizing; by default the runner builds a campus
//!   trace of ≥10⁶ packets regardless of scale.
//!
//! Speedup from sharding requires hardware parallelism: the report records
//! `available_parallelism` per row and flags rows with more shards than
//! cores as `"degraded": true` — those rows measure oversubscription, not
//! speedup.

use dart_bench::TraceScale;
use dart_core::{
    run_monitor_slice, run_trace, DartConfig, DartEngine, EngineStats, RttSample, ShardedConfig,
    ShardedMonitor,
};
use dart_packet::SECOND;
use dart_sim::scenario::{campus, CampusConfig};
#[cfg(feature = "telemetry")]
use dart_telemetry::MetricRegistry;
use std::fmt::Write as _;
use std::time::Instant;

struct Measurement {
    /// Which hot path this row measures: `serial` (per-packet),
    /// `batch` (SoA pipeline), or `sharded`.
    path: &'static str,
    shards: usize,
    /// Block size for `batch` rows; `None` elsewhere.
    batch_size: Option<usize>,
    elapsed_secs: f64,
    pkts_per_sec: f64,
    samples_per_sec: f64,
    samples: usize,
    /// Host cores observed for this row; shard counts beyond this are
    /// oversubscribed and the row is flagged `degraded`.
    parallelism: usize,
}

impl Measurement {
    fn degraded(&self) -> bool {
        self.shards > self.parallelism
    }
}

type Args = (Vec<usize>, Vec<usize>, usize, String, String);

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut shard_list: Option<Vec<usize>> = None;
    let mut batch_sizes: Vec<usize> = vec![64, 256, 1024];
    let mut iters = 3usize;
    let mut out = "BENCH_throughput.json".to_string();
    let mut metrics_out = "BENCH_throughput_metrics.jsonl".to_string();
    let mut i = 0;
    while i < args.len() {
        let need_value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("flag {} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--shards" => {
                let v = need_value(i)?;
                let list: Result<Vec<usize>, _> =
                    v.split(',').map(|s| s.trim().parse::<usize>()).collect();
                let list = list.map_err(|_| format!("--shards: cannot parse {v:?}"))?;
                if list.is_empty() || list.contains(&0) {
                    return Err("--shards: counts must be ≥ 1".to_string());
                }
                shard_list = Some(list);
                i += 2;
            }
            "--batch-size" => {
                let v = need_value(i)?;
                let list: Result<Vec<usize>, _> =
                    v.split(',').map(|s| s.trim().parse::<usize>()).collect();
                let list = list.map_err(|_| format!("--batch-size: cannot parse {v:?}"))?;
                if list.is_empty() || list.contains(&0) {
                    return Err("--batch-size: sizes must be ≥ 1".to_string());
                }
                batch_sizes = list;
                i += 2;
            }
            "--iters" => {
                iters = need_value(i)?
                    .parse()
                    .map_err(|_| "--iters: cannot parse".to_string())?;
                i += 2;
            }
            "--out" => {
                out = need_value(i)?;
                i += 2;
            }
            "--metrics-out" => {
                metrics_out = need_value(i)?;
                i += 2;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let shard_list = match shard_list {
        Some(l) => l,
        None => match std::env::var("DART_SHARDS") {
            Ok(v) => vec![v
                .parse()
                .map_err(|_| format!("DART_SHARDS: cannot parse {v:?}"))?],
            Err(_) => vec![1, 2, 4, 8],
        },
    };
    Ok((shard_list, batch_sizes, iters.max(1), out, metrics_out))
}

/// One replay through the batch pipeline at block size `bs`.
fn run_batch(
    cfg: DartConfig,
    packets: &[dart_packet::PacketMeta],
    bs: usize,
) -> (Vec<RttSample>, EngineStats) {
    let mut engine = DartEngine::new(cfg);
    let mut samples = Vec::new();
    for chunk in packets.chunks(bs) {
        engine.process_batch(chunk, &mut samples);
    }
    engine.flush();
    (samples, *engine.stats())
}

/// `cmd args...` stdout (trimmed), or `"unknown"`: provenance fields must
/// never fail the benchmark.
fn provenance(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The warm-up replay doubling as the telemetry sidecar capture: an
/// instrumented run whose scrape is appended to the sidecar JSONL, one
/// line per shard count. Returns the merged samples (the timed replays
/// assert against their count).
#[cfg(feature = "telemetry")]
fn instrumented_warmup(
    cfg: DartConfig,
    shards: usize,
    packets: &[dart_packet::PacketMeta],
    sidecar: &mut String,
) -> Vec<dart_core::RttSample> {
    let metrics = MetricRegistry::new();
    let mut monitor = ShardedMonitor::with_telemetry(ShardedConfig::new(cfg, shards), &metrics);
    let samples = run_monitor_slice(&mut monitor, packets).0;
    sidecar.push_str(&metrics.scrape().jsonl_line(&[
        ("shards", shards as u64),
        ("packets", packets.len() as u64),
        ("samples", samples.len() as u64),
    ]));
    sidecar.push('\n');
    samples
}

/// One sharded replay through the block driver. One shard is the full
/// threaded path too, so that row prices the hand-off itself.
fn sharded_replay(
    cfg: DartConfig,
    shards: usize,
    packets: &[dart_packet::PacketMeta],
) -> Vec<RttSample> {
    let mut monitor = ShardedMonitor::new(ShardedConfig::new(cfg, shards));
    run_monitor_slice(&mut monitor, packets).0
}

/// The measured trace: ≥10⁶ packets at default scale, or the standard
/// trace when `DART_SCALE` is set explicitly.
fn throughput_trace() -> (String, Vec<dart_packet::PacketMeta>) {
    match std::env::var("DART_SCALE").as_deref() {
        Ok(s @ ("small" | "large")) => {
            let scale = TraceScale::from_env();
            (s.to_string(), dart_bench::standard_trace(scale).packets)
        }
        _ => {
            // ~10⁶-packet campus trace: the default-figure trace's shape
            // at a connection count sized for the million-packet mark —
            // the same trace every prior BENCH_throughput.json measured,
            // keeping rows comparable across revisions. `DART_CONNS`
            // overrides the concurrent-flow count to probe other regimes
            // (more flows → colder tables, lower flow-memo hit rates).
            let conns: usize = std::env::var("DART_CONNS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(3_200);
            let duration = (192_000 / conns).max(1) as u64 * SECOND;
            let t = campus(CampusConfig {
                connections: conns,
                duration,
                ..CampusConfig::default()
            });
            (format!("default-1M/{conns}conns"), t.packets)
        }
    }
}

fn main() {
    let (shard_list, batch_sizes, iters, out_path, metrics_out) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("throughput: {e}");
            std::process::exit(2);
        }
    };
    #[cfg(not(feature = "telemetry"))]
    let _ = &metrics_out;

    eprintln!("generating campus trace...");
    let (scale_name, packets) = throughput_trace();
    let parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "trace: {} packets ({scale_name}); host parallelism: {parallelism}",
        packets.len()
    );

    // Cap shard counts at the host's parallelism: a row with more shards
    // than cores measures oversubscription, not speedup, so it is clamped
    // (with a warning) instead of silently reported as a scaling point.
    let mut shard_list: Vec<usize> = shard_list
        .into_iter()
        .map(|s| {
            if s > parallelism {
                eprintln!(
                    "warning: --shards {s} exceeds available_parallelism={parallelism}; \
                     capping to {parallelism}"
                );
                parallelism
            } else {
                s
            }
        })
        .collect();
    shard_list.dedup();

    let cfg = DartConfig::default();
    let mut results: Vec<Measurement> = Vec::new();
    #[cfg(feature = "telemetry")]
    let mut sidecar = String::new();

    // --- Serial vs. batch, interleaved ----------------------------------
    // One warm-up replay fixes the reference sample stream; every batch
    // row's warm-up doubles as the parity check (samples and stats must be
    // byte-identical to the per-packet reference, otherwise the speedup
    // would be measuring different work). The timed replays then cycle
    // serial and every batch size round-robin, so slow time-scale host
    // noise (shared cores, frequency steps) biases all rows equally
    // instead of whichever row ran in the quiet minute.
    let (serial_samples, serial_stats) = run_trace(cfg, &packets);
    for &bs in &batch_sizes {
        let (batch_samples, batch_stats) = run_batch(cfg, &packets, bs);
        assert_eq!(
            batch_samples, serial_samples,
            "batch path (batch_size={bs}) sample stream diverges from serial"
        );
        assert_eq!(
            batch_stats, serial_stats,
            "batch path (batch_size={bs}) stats diverge from serial"
        );
    }
    eprintln!(
        "batch-path parity with serial: OK ({} samples, identical stats)",
        serial_samples.len()
    );
    // bests[0] = serial, bests[1..] = batch_sizes in order. The starting
    // row rotates each iteration: on throttled hosts that slow down over a
    // process's lifetime, a fixed order would systematically favor
    // whichever row always ran first.
    let mut bests = vec![f64::INFINITY; 1 + batch_sizes.len()];
    for it in 0..iters {
        for j in 0..bests.len() {
            let row = (it + j) % bests.len();
            let start = Instant::now();
            let s = match row {
                0 => run_trace(cfg, &packets).0,
                _ => run_batch(cfg, &packets, batch_sizes[row - 1]).0,
            };
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(
                s.len(),
                serial_samples.len(),
                "nondeterministic sample count"
            );
            bests[row] = bests[row].min(elapsed);
        }
    }
    let serial_pps = packets.len() as f64 / bests[0];
    for (row, &best) in bests.iter().enumerate() {
        let m = Measurement {
            path: if row == 0 { "serial" } else { "batch" },
            shards: 1,
            batch_size: (row > 0).then(|| batch_sizes[row - 1]),
            elapsed_secs: best,
            pkts_per_sec: packets.len() as f64 / best,
            samples_per_sec: serial_samples.len() as f64 / best,
            samples: serial_samples.len(),
            parallelism,
        };
        match m.batch_size {
            None => eprintln!(
                "serial      {:>8.3} s   {:>10.0} pkts/s   {:>9.0} samples/s",
                m.elapsed_secs, m.pkts_per_sec, m.samples_per_sec
            ),
            Some(bs) => eprintln!(
                "batch={:<5} {:>8.3} s   {:>10.0} pkts/s   {:>9.0} samples/s   ({:.2}x serial)",
                bs,
                m.elapsed_secs,
                m.pkts_per_sec,
                m.samples_per_sec,
                m.pkts_per_sec / serial_pps
            ),
        }
        results.push(m);
    }

    // --- Sharded sweep ---------------------------------------------------
    for &shards in &shard_list {
        // Warm-up replay (instrumented when the telemetry feature is on —
        // it doubles as the sidecar capture), then best-of-N timed replays.
        #[cfg(feature = "telemetry")]
        let samples = instrumented_warmup(cfg, shards, &packets, &mut sidecar);
        #[cfg(not(feature = "telemetry"))]
        let samples = sharded_replay(cfg, shards, &packets);
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let start = Instant::now();
            let s = sharded_replay(cfg, shards, &packets);
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(s.len(), samples.len(), "nondeterministic sample count");
            best = best.min(elapsed);
        }
        let m = Measurement {
            path: "sharded",
            shards,
            batch_size: None,
            elapsed_secs: best,
            pkts_per_sec: packets.len() as f64 / best,
            samples_per_sec: samples.len() as f64 / best,
            samples: samples.len(),
            parallelism,
        };
        eprintln!(
            "shards={:<2} {:>8.3} s   {:>10.0} pkts/s   {:>9.0} samples/s{}",
            m.shards,
            m.elapsed_secs,
            m.pkts_per_sec,
            m.samples_per_sec,
            if m.degraded() { "   [degraded]" } else { "" }
        );
        if m.degraded() {
            eprintln!(
                "warning: shards={} exceeds available_parallelism={}; \
                 this row measures oversubscription, not speedup",
                m.shards, m.parallelism
            );
        }
        results.push(m);
    }

    let git_rev = provenance("git", &["rev-parse", "--short=12", "HEAD"]);
    let rustc = provenance("rustc", &["--version"]);

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"scenario\": \"campus\",").unwrap();
    writeln!(json, "  \"scale\": \"{scale_name}\",").unwrap();
    writeln!(json, "  \"packets\": {},", packets.len()).unwrap();
    writeln!(json, "  \"iters\": {iters},").unwrap();
    writeln!(json, "  \"available_parallelism\": {parallelism},").unwrap();
    writeln!(json, "  \"git_rev\": \"{git_rev}\",").unwrap();
    writeln!(json, "  \"rustc\": \"{rustc}\",").unwrap();
    writeln!(
        json,
        "  \"note\": \"best-of-{iters} wall-clock replays; batch rows asserted \
         byte-identical to serial; sharded speedup requires \
         available_parallelism > 1\","
    )
    .unwrap();
    writeln!(json, "  \"results\": [").unwrap();
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let batch_size = match m.batch_size {
            Some(bs) => bs.to_string(),
            None => "null".to_string(),
        };
        writeln!(
            json,
            "    {{\"path\": \"{}\", \"shards\": {}, \"batch_size\": {}, \
             \"elapsed_secs\": {:.6}, \"pkts_per_sec\": {:.1}, \
             \"samples_per_sec\": {:.1}, \"samples\": {}, \
             \"available_parallelism\": {}, \"degraded\": {}}}{comma}",
            m.path,
            m.shards,
            batch_size,
            m.elapsed_secs,
            m.pkts_per_sec,
            m.samples_per_sec,
            m.samples,
            m.parallelism,
            m.degraded()
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => {
            eprintln!("throughput: write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    #[cfg(feature = "telemetry")]
    match std::fs::write(&metrics_out, &sidecar) {
        Ok(()) => eprintln!("wrote telemetry sidecar {metrics_out}"),
        Err(e) => {
            eprintln!("throughput: write {metrics_out}: {e}");
            std::process::exit(1);
        }
    }
}
