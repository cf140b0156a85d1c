//! The untraced run: end-to-end metrics through the shipped `dartmon`
//! binary only, with the outputs judged by the oracle.

use crate::child::Dartmon;
use crate::http::Exposition;
use crate::inputs::{self, Encoding, Inputs, Kind, Scale, Workload, BLOCK};
use crate::live::{Daemon, Recording, Session};
use crate::report::RunOutput;
use crate::sys;
use dart_baselines::EngineRegistry;
use dart_core::{DartConfig, RttSample};
use dart_packet::trace::TraceReader;
use dart_packet::{FlowKey, PacketMeta, PacketSource, PcapSource, SeqNum};
use dart_testkit::oracle::{run_oracle, OracleConfig, OracleReport};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Dedicated untimed repetitions that only watch the child's `VmHWM`.
const RSS_REPS: usize = 3;
/// A timed window never ends on fewer repetitions than this.
const MIN_TIMED_REPS: usize = 5;

/// What a run needs besides the workload itself.
pub struct Ctx<'a> {
    pub dartmon: &'a Dartmon,
    pub dir: &'a Path,
    pub seed: u64,
    pub scale: &'a Scale,
    pub seconds: f64,
}

impl Ctx<'_> {
    /// Warm-up before the live window: a fifth of it, 5 s at most (the
    /// issue's 5 s + 30 s at `--seconds 30`).
    pub fn live_warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.2).clamp(0.2, 5.0))
    }
}

pub fn oracle_for(w: &Workload, packets: &[PacketMeta]) -> OracleReport {
    let cfg = OracleConfig {
        syn_policy: DartConfig::default().syn_policy,
        leg: w.leg(),
    };
    run_oracle(cfg, packets)
}

/// Read the written input back through the public streaming readers and
/// compare with the generated packets — for the pcap workload this is the
/// "pcap-decoded `PacketMeta` == native packets" gate.
pub fn verify_inputs(w: &Workload, inputs: &Inputs, out: &mut RunOutput) {
    let decoded = (|| -> Result<Vec<PacketMeta>, String> {
        let file = std::fs::File::open(&inputs.file).map_err(|e| e.to_string())?;
        let file = std::io::BufReader::with_capacity(1 << 20, file);
        let mut source: Box<dyn PacketSource> = match w.encoding {
            Encoding::Native => Box::new(TraceReader::new(file).map_err(|e| e.to_string())?),
            Encoding::Pcap => {
                Box::new(PcapSource::new(file, inputs::classifier()).map_err(|e| e.to_string())?)
            }
        };
        let mut packets = Vec::with_capacity(inputs.packets.len());
        inputs::pull_blocks(source.as_mut(), |block| packets.extend_from_slice(block))?;
        Ok(packets)
    })();
    let same = decoded.as_ref().is_ok_and(|d| *d == inputs.packets);
    out.ops.check(same, || {
        format!(
            "{}: input file does not decode back to the generated packets ({})",
            w.name,
            decoded.map_or_else(|e| e, |d| format!("{} packets decoded", d.len()))
        )
    });
}

/// Samples of one in-process engine pass over 1024-packet blocks.
pub fn engine_samples(
    engine: &str,
    cfg: &DartConfig,
    packets: &[PacketMeta],
) -> Result<Vec<RttSample>, String> {
    let mut monitor = EngineRegistry::standard().build(engine, cfg)?.monitor;
    let mut samples = Vec::new();
    for block in packets.chunks(BLOCK) {
        monitor.on_batch(block, &mut samples);
    }
    monitor.flush(&mut samples);
    Ok(samples)
}

/// Parse `dartmon analyze --csv` (`ts_ns,src,sport,dst,dport,eack,rtt_ns`).
fn parse_csv(text: &str) -> Result<Vec<RttSample>, String> {
    text.lines()
        .skip(1)
        .map(|line| {
            let bad = || format!("bad csv row {line:?}");
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != 7 {
                return Err(bad());
            }
            let flow = FlowKey::new(
                f[1].parse().map_err(|_| bad())?,
                f[2].parse().map_err(|_| bad())?,
                f[3].parse().map_err(|_| bad())?,
                f[4].parse().map_err(|_| bad())?,
            );
            Ok(RttSample::new(
                flow,
                SeqNum(f[5].parse().map_err(|_| bad())?),
                f[6].parse().map_err(|_| bad())?,
                f[0].parse().map_err(|_| bad())?,
            ))
        })
        .collect()
}

/// What one judged `dartmon analyze` produced.
pub struct Judged {
    pub recall: f64,
    pub passes_per_pkt: f64,
    /// Samples the oracle classifies impossible (fabricated). The caller
    /// decides what that means: a violation on the exact reference
    /// backend, a recorded count on the approximate ones.
    pub impossible: u64,
}

/// One `dartmon analyze --csv --metrics-prom` on `backend`, judged by the
/// oracle; the CSV must hold as many rows as the same engine emits
/// in-process, and the exported packet count must equal the input's.
pub fn judged_analyze(
    ctx: &Ctx,
    w: &Workload,
    inputs: &Inputs,
    oracle: &OracleReport,
    backend: &str,
    out: &mut RunOutput,
) -> Option<Judged> {
    let csv = ctx.dir.join("analyze.csv");
    let prom = ctx.dir.join("analyze.prom");
    let mut flags = w.engine_flags();
    flags.extend(["--backend".to_string(), backend.to_string()]);
    flags.extend(["--csv".to_string(), csv.display().to_string()]);
    flags.extend(["--metrics-prom".to_string(), prom.display().to_string()]);
    let log = ctx.dir.join("analyze.stderr");
    out.ops
        .attempt(ctx.dartmon.analyze(&inputs.file, &flags, &log, |_| {}))?;
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let samples = out.ops.attempt(read(&csv).and_then(|t| parse_csv(&t)))?;
    let metrics = Exposition::parse(&out.ops.attempt(read(&prom))?);

    let score = oracle.score(&samples);
    let engine = match backend {
        "exact" => "dart".to_string(),
        other => format!("dart@{other}"),
    };
    let in_process =
        out.ops
            .attempt(engine_samples(&engine, &w.engine_config(), &inputs.packets))?;
    out.ops.check(in_process.len() == samples.len(), || {
        format!(
            "{} @{backend}: --csv has {} rows, the in-process engine emits {}",
            w.name,
            samples.len(),
            in_process.len()
        )
    });
    // `dart` publishes per-shard series, the wrapped backends run-level ones.
    let counter = |name: &str| {
        metrics
            .sum(&format!("dart_shard_{name}_total"))
            .or(metrics.sum(&format!("dart_run_{name}_total")))
    };
    let packets = counter("packets");
    out.ops
        .check(packets == Some(inputs.packets.len() as f64), || {
            format!(
                "{} @{backend}: exported packet count {packets:?} != {} in the input",
                w.name,
                inputs.packets.len()
            )
        });
    let recirc = counter("recirc_issued").unwrap_or(0.0);
    Some(Judged {
        recall: score.recall(),
        passes_per_pkt: 1.0 + recirc / inputs.packets.len() as f64,
        impossible: score.impossible,
    })
}

/// Packets per second of repeated `dartmon analyze` runs, in Mpkt/s:
/// repetitions until `seconds` have passed, at least [`MIN_TIMED_REPS`].
pub fn timed_analyze(
    ctx: &Ctx,
    inputs: &Inputs,
    flags: &[String],
    seconds: f64,
    min_reps: usize,
    out: &mut RunOutput,
) -> Vec<f64> {
    let log = ctx.dir.join("analyze.stderr");
    let begin = Instant::now();
    let mut mpps = Vec::new();
    let mut reps = 0;
    while reps < min_reps || begin.elapsed().as_secs_f64() < seconds {
        reps += 1;
        let Some(wall) = out
            .ops
            .attempt(ctx.dartmon.analyze(&inputs.file, flags, &log, |_| {}))
        else {
            // A failing binary fails every repetition the same way.
            break;
        };
        mpps.push(inputs.packets.len() as f64 / wall.as_secs_f64() / 1e6);
    }
    mpps
}

/// Set the workload up [`SETUPS`] times, timing each; returns the last
/// set-up's products. `extra` runs inside the timed region after the
/// inputs are written (the live workload starts its daemon there) and its
/// product is torn down again by drop for all but the last set-up.
fn timed_setups<T>(
    ctx: &Ctx,
    w: &Workload,
    out: &mut RunOutput,
    mut extra: impl FnMut() -> Result<T, String>,
) -> Result<(Inputs, T), String> {
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        let inputs = inputs::prepare(w, ctx.seed, ctx.scale, ctx.dir)?;
        let product = extra()?;
        out.record("setup_s", start.elapsed().as_secs_f64());
        out.ops.attempted += 1;
        last = Some((inputs, product));
    }
    Ok(last.expect("at least one set-up ran"))
}

fn run_analyze(ctx: &Ctx, w: &Workload, out: &mut RunOutput) -> Result<(), String> {
    let (inputs, ()) = timed_setups(ctx, w, out, || Ok(()))?;
    out.note(format!(
        "{} packets, file {} bytes, dartmon analyze {}",
        inputs.packets.len(),
        std::fs::metadata(&inputs.file).map_or(0, |m| m.len()),
        w.engine_flags().join(" ")
    ));
    verify_inputs(w, &inputs, out);
    let oracle = oracle_for(w, &inputs.packets);
    if let Some(judged) = judged_analyze(ctx, w, &inputs, &oracle, "exact", out) {
        out.ops.check(judged.impossible == 0, || {
            format!(
                "{}: oracle classifies {} samples of the exact backend impossible",
                w.name, judged.impossible
            )
        });
        out.record("sample_recall", judged.recall);
        out.record("passes_per_pkt", judged.passes_per_pkt);
    }
    let flags = w.engine_flags();
    let log = ctx.dir.join("analyze.stderr");
    for _ in 0..RSS_REPS {
        let mut peak = 0.0f64;
        let watched = ctx.dartmon.analyze(&inputs.file, &flags, &log, |pid| {
            peak = peak.max(sys::peak_rss_mb(pid).unwrap_or(0.0));
        });
        if out.ops.attempt(watched).is_some() {
            out.record("rss_mb", peak);
        }
    }
    let mpps = timed_analyze(ctx, &inputs, &flags, ctx.seconds, MIN_TIMED_REPS, out);
    out.record_all("throughput_mpps", mpps);
    Ok(())
}

/// Fold one live session's checks and notes into `out`; shared with the
/// traced run's daemon segment.
pub fn absorb_session(session: &mut Session, out: &mut RunOutput) {
    out.ops.absorb(std::mem::take(&mut session.ops));
    out.note(format!(
        "live: {} passes, {} packets fed, {} samples, {} scrapes, window {:.1} s",
        session.passes,
        session.fed_packets,
        session.exit.samples,
        session.scrape_ms.len(),
        session.window_wall.as_secs_f64()
    ));
}

/// `sample_recall` of a live session: samples the daemon emitted over
/// what the oracle finds valid in as many fresh passes.
pub fn live_recall(session: &Session, valid_per_pass: usize) -> f64 {
    let samples = session.last.sum("dart_shard_samples_total").unwrap_or(0.0);
    samples / (session.passes as f64 * valid_per_pass as f64)
}

/// Start the daemon on this workload's flags and feed it `packets` for
/// `window` after the warm-up.
pub fn live_session(
    ctx: &Ctx,
    daemon: Daemon,
    packets: &[PacketMeta],
    window: Duration,
) -> Result<Session, String> {
    let recording = Recording::new(packets)?;
    daemon.run(recording, ctx.live_warmup(), window)
}

fn run_live(ctx: &Ctx, w: &Workload, out: &mut RunOutput) -> Result<(), String> {
    let flags = w.engine_flags();
    let (inputs, daemon) =
        timed_setups(ctx, w, out, || Daemon::start(ctx.dartmon, ctx.dir, &flags))?;
    out.note(format!(
        "{} packets per pass, pipe {} bytes, dartmon serve --mode follow --shards 1 \
         --rotate-millis 2000 --retain-secs 10 --checkpoint-millis 1000 {}",
        inputs.packets.len(),
        daemon.pipe_bytes,
        flags.join(" ")
    ));
    verify_inputs(w, &inputs, out);
    let valid_per_pass = oracle_for(w, &inputs.packets).valid_count();
    let mut session = live_session(
        ctx,
        daemon,
        &inputs.packets,
        Duration::from_secs_f64(ctx.seconds),
    )?;
    absorb_session(&mut session, out);
    out.record_all("throughput_mpps", session.window_mpps.iter().copied());
    out.record("rss_mb", session.rss_mb);
    out.record("sample_recall", live_recall(&session, valid_per_pass));
    let recirc = session
        .last
        .sum("dart_shard_recirc_issued_total")
        .unwrap_or(0.0);
    out.record("passes_per_pkt", 1.0 + recirc / session.fed_packets as f64);
    if session.producer_busy_share >= 0.5 {
        out.note(format!(
            "WARNING: producer busy share {:.2} — the run is generator-bound",
            session.producer_busy_share
        ));
    }
    Ok(())
}

/// The untraced run of one workload.
pub fn run(ctx: &Ctx, w: &Workload) -> RunOutput {
    let mut out = RunOutput::default();
    let result = match w.kind {
        Kind::Analyze => run_analyze(ctx, w, &mut out),
        Kind::Live => run_live(ctx, w, &mut out),
    };
    out.ops.attempt(result);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_rows_round_trip_into_samples() {
        let text = "ts_ns,src,sport,dst,dport,eack,rtt_ns\n\
                    1000,10.8.0.1,40000,93.184.216.34,443,1461,23000000\n";
        let samples = parse_csv(text).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].rtt, 23_000_000);
        assert_eq!(samples[0].ts, 1000);
        assert_eq!(samples[0].eack, SeqNum(1461));
        assert_eq!(samples[0].flow.src_port, 40000);
        assert!(parse_csv("header\n1,2,3\n").is_err());
        assert!(parse_csv("header\n").unwrap().is_empty());
    }

    #[test]
    fn in_process_engine_output_is_oracle_sound() {
        let w = inputs::workload("churn-pressure").unwrap();
        let packets = w.packets(5, &Scale::QUICK);
        let oracle = oracle_for(w, &packets);
        for engine in ["dart", "dart@sketch", "dart@precision"] {
            let samples = engine_samples(engine, &w.engine_config(), &packets).unwrap();
            let score = oracle.score(&samples);
            assert_eq!(score.impossible, 0, "{engine}");
            assert!(score.recall() > 0.1, "{engine}: {}", score.recall());
        }
    }
}
