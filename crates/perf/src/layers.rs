//! The traced run: the same pipeline replayed in-process, stage by stage,
//! one span around each call into a layer's public function.
//!
//! Every workload measures every layer over its own packets and table
//! geometry, so the per-layer table is a full layer × workload matrix.
//! Only surfaces meant to survive the runtime collapse are called: the
//! `dartmon` CLI, `RttMonitor`, `EngineRegistry` by engine name,
//! `PacketSource::next_block` and the readers behind it, `load_file`,
//! `MetricRegistry`, `HttpServer`, `RttDistribution`, the oracle.

use crate::e2e::{self, Ctx};
use crate::http;
use crate::inputs::{self, Inputs, Kind, Workload, BLOCK, INTERNAL};
use crate::live::Daemon;
use crate::report::RunOutput;
use crate::span::Tracer;
use dart_analytics::RttDistribution;
use dart_baselines::EngineRegistry;
use dart_core::{DartConfig, EngineStats, RttSample, SampleSink, Stage, StageTimers};
use dart_packet::trace::TraceReader;
use dart_packet::{
    Follow, PacketMeta, PacketSource, PcapSource, Reconnecting, SliceSource, SECOND,
};
use dart_switch::HashUnit;
use dart_telemetry::{EventLog, Histogram, HttpServer, MetricRegistry};
use std::hint::black_box;
use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every probe runs at least twice (the first pass warms caches and page
/// tables; medians need a second) and at most this often.
const MIN_REPS: u32 = 2;
const MAX_REPS: u32 = 30;

/// The per-record decoders cost the same at any offset, so the pcap and
/// follow probes read a prefix instead of synthesizing every frame again.
const DECODE_PREFIX: usize = 256 * BLOCK;

/// Share of `--seconds` one probe may spend repeating itself.
const PROBE_SHARE: f64 = 1.0 / 25.0;

/// Repeat `f` for `slice` of wall time within the repetition limits; the
/// first error ends the probe.
fn repeat(slice: Duration, mut f: impl FnMut(u32) -> Result<(), String>) -> Result<(), String> {
    let begin = Instant::now();
    let mut rep = 0;
    while rep < MIN_REPS || (rep < MAX_REPS && begin.elapsed() < slice) {
        f(rep)?;
        rep += 1;
    }
    Ok(())
}

/// Pull a source dry, counting what it yields without keeping it.
fn drain(source: &mut dyn PacketSource) -> Result<usize, String> {
    let mut n = 0;
    inputs::pull_blocks(source, |block| n += black_box(block).len())?;
    Ok(n)
}

struct CountingRead<R> {
    inner: R,
    calls: Arc<AtomicU64>,
}

impl<R: Read> Read for CountingRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.read(buf)
    }
}

/// Counts samples without storing them.
struct CountingSink(u64);

impl SampleSink for CountingSink {
    fn on_sample(&mut self, _sample: RttSample) {
        self.0 += 1;
    }
}

struct Probe<'a> {
    ctx: &'a Ctx<'a>,
    w: &'a Workload,
    inputs: &'a Inputs,
    tracer: &'a mut Tracer,
    out: &'a mut RunOutput,
    slice: Duration,
    registry: EngineRegistry,
    /// The workload's engine configuration, as its CLI flags spell it.
    cfg: DartConfig,
}

impl Probe<'_> {
    fn packets(&self) -> &[PacketMeta] {
        &self.inputs.packets
    }

    /// Time one drain of a packet source under `span`, check it yielded
    /// `expect` packets, and return nanoseconds per packet.
    fn timed_drain(
        &mut self,
        span: &'static str,
        rep: u32,
        expect: usize,
        drain_it: impl FnOnce() -> Result<usize, String>,
    ) -> f64 {
        let (got, ns) = self.tracer.time(span, rep, drain_it);
        self.out.ops.check(got == Ok(expect), || {
            format!("{span}: decoded {got:?}, expected {expect} packets")
        });
        ns as f64 / expect as f64
    }

    /// Repeat infallible `work` for one probe slice, each repetition under
    /// `span`, recording its nanoseconds per `per` units as `metric`.
    fn probe<R>(
        &mut self,
        span: &'static str,
        metric: &'static str,
        per: usize,
        mut work: impl FnMut() -> R,
    ) -> Result<(), String> {
        repeat(self.slice, |rep| {
            let (result, ns) = self.tracer.time(span, rep, &mut work);
            black_box(result);
            self.out.record(metric, ns as f64 / per.max(1) as f64);
            Ok(())
        })
    }

    /// Repeated `dartmon analyze` runs under one span, in Mpkt/s.
    fn timed_analyze(&mut self, span: &'static str, flags: &[String], seconds: f64) -> Vec<f64> {
        let (ctx, inputs, out) = (self.ctx, self.inputs, &mut *self.out);
        let run = || e2e::timed_analyze(ctx, inputs, flags, seconds, 3, out);
        self.tracer.time(span, 0, run).0
    }

    /// Run one group of probes under a span of its own, so every layer
    /// span inside has a parent and the group's self time is the harness.
    fn group<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        let id = self.tracer.enter(name, 0);
        let result = f(self);
        self.tracer.exit(id);
        result
    }

    /// `dart-packet`: read, the three decoders, and the wrappers the
    /// daemon puts around the native one.
    fn packet_layers(&mut self) -> Result<(), String> {
        let packets = &self.inputs.packets[..];
        let n = packets.len();
        let file = self.inputs.file.clone();
        repeat(self.slice, |rep| {
            let (bytes, ns) = self
                .tracer
                .time("packet.read", rep, || std::fs::read(&file));
            let ok = bytes.is_ok_and(|b| !black_box(b).is_empty());
            self.out
                .ops
                .check(ok, || format!("fs::read {}", file.display()));
            self.out
                .record("packet.read.ns_per_pkt", ns as f64 / n as f64);
            Ok(())
        })?;

        let native = dart_packet::trace::to_bytes(packets);
        repeat(self.slice, |rep| {
            let ns = self.timed_drain("packet.trace.decode", rep, n, || {
                let mut reader = TraceReader::new(&native[..]).map_err(|e| e.to_string())?;
                drain(&mut reader)
            });
            self.out.record("packet.trace.decode_ns_per_pkt", ns);
            Ok(())
        })?;
        drop(native);

        let prefix = &packets[..n.min(DECODE_PREFIX)];
        let pcap = inputs::pcap_bytes(prefix)?;
        repeat(self.slice, |rep| {
            let mut skipped = 0;
            let ns = self.timed_drain("packet.pcap.decode", rep, prefix.len(), || {
                let mut source =
                    PcapSource::new(&pcap[..], inputs::classifier()).map_err(|e| e.to_string())?;
                let drained = drain(&mut source);
                skipped = source.skipped();
                drained
            });
            self.out.record("packet.pcap.decode_ns_per_pkt", ns);
            self.out.record("packet.pcap.skipped", skipped as f64);
            self.out.ops.check(skipped == 0, || {
                format!("pcap decode skipped {skipped} frames of a TCP-only capture")
            });
            Ok(())
        })?;
        drop(pcap);

        // The tail exactly as `serve --mode follow` builds it, over a
        // complete regular file: the stop flag is already set, so the
        // first end-of-file is final instead of a poll.
        let tail = self.ctx.dir.join("follow.trace");
        std::fs::write(&tail, dart_packet::trace::to_bytes(prefix))
            .map_err(|e| format!("write {}: {e}", tail.display()))?;
        let calls = Arc::new(AtomicU64::new(0));
        let open = {
            let calls = Arc::clone(&calls);
            move || -> Option<Box<dyn PacketSource + Send>> {
                let file = CountingRead {
                    inner: std::fs::File::open(&tail).ok()?,
                    calls: Arc::clone(&calls),
                };
                let follow = Follow::new(file, Arc::new(AtomicBool::new(true)));
                let reader = TraceReader::new(follow).ok()?;
                Some(Box::new(reader))
            }
        };
        repeat(self.slice, |rep| {
            let before = calls.load(Ordering::Relaxed);
            let bare = self.timed_drain("packet.follow.decode", rep, prefix.len(), || {
                drain(&mut open().ok_or("open follow tail")?)
            });
            let reads = calls.load(Ordering::Relaxed) - before;
            self.out.record("packet.follow.decode_ns_per_pkt", bare);
            self.out.record(
                "packet.follow.read_calls_per_pkt",
                reads as f64 / prefix.len() as f64,
            );
            let factory = open.clone();
            let wrapped = self.timed_drain("packet.reconnect.decode", rep, prefix.len(), || {
                drain(&mut Reconnecting::new(Box::new(move |_| factory())))
            });
            self.out
                .record("packet.reconnect.overhead_ns_per_pkt", wrapped - bare);
            Ok(())
        })?;

        repeat(self.slice, |rep| {
            let ns = self.timed_drain("packet.source.slice_block", rep, n, || {
                drain(&mut SliceSource::new(packets))
            });
            self.out.record("packet.source.slice_block_ns_per_pkt", ns);
            Ok(())
        })
    }

    /// One pass of one engine variant over the whole trace, inside a
    /// span: nanoseconds per packet, what it emitted, its counters.
    fn pass(
        &mut self,
        v: &Variant,
        rep: u32,
    ) -> Result<(f64, Vec<RttSample>, EngineStats), String> {
        let mut monitor = if v.instrumented {
            self.registry
                .build_instrumented(v.engine, &self.cfg, &MetricRegistry::new())?
        } else {
            self.registry.build(v.engine, &self.cfg)?
        }
        .monitor;
        let mut stored: Vec<RttSample> = Vec::new();
        let mut counted = CountingSink(0);
        let sink: &mut dyn SampleSink = if v.count_only {
            &mut counted
        } else {
            &mut stored
        };
        let packets = &self.inputs.packets[..];
        let ((), ns) = self.tracer.time(v.span, rep, || {
            match v.feed {
                Feed::Batch => packets
                    .chunks(BLOCK)
                    .for_each(|b| monitor.on_batch(b, sink)),
                Feed::Packet => packets.iter().for_each(|p| monitor.on_packet(p, sink)),
                Feed::Block1 => packets.chunks(1).for_each(|b| monitor.on_batch(b, sink)),
            }
            monitor.flush(sink);
        });
        Ok((ns as f64 / packets.len() as f64, stored, monitor.stats()))
    }

    /// `dart-core` engines and the sharded runtime, `dart-baselines`'
    /// registry and tcptrace: whole passes, every variant once per round
    /// so drift lands on all of them alike and differences are taken
    /// within a round. Returns the exact engine's samples for the
    /// analytics and sink probes.
    fn engine_layers(&mut self) -> Result<Vec<RttSample>, String> {
        let kpkt = self.packets().len() as f64 / 1000.0;
        let mut exact = None;
        // A round is one pass per variant: give it as many probe slices.
        repeat(self.slice * VARIANTS.len() as u32, |rep| {
            let (registry, cfg) = (&self.registry, &self.cfg);
            let (built, ns) = self.tracer.time("baselines.registry.build", rep, || {
                registry.build("dart", cfg)
            });
            drop(built?);
            self.out
                .record("baselines.registry.build_ms", ns as f64 / 1e6);

            let mut took = std::collections::BTreeMap::new();
            for v in &VARIANTS {
                let (ns, samples, stats) = self.pass(v, rep)?;
                self.out.record(v.metric, ns);
                took.insert(v.metric, ns);
                if rep > 0 {
                    continue;
                }
                match v.metric {
                    EXACT_BATCH => exact = Some((samples, stats)),
                    "core.engine.exact.packet_ns_per_pkt" => {
                        let batch = exact.as_ref().map(|(s, _)| s);
                        self.out.ops.check(batch == Some(&samples), || {
                            format!(
                                "exact on_batch emitted {:?} samples, on_packet {} — the streams differ",
                                batch.map(Vec::len),
                                samples.len()
                            )
                        });
                    }
                    "core.engine.sketch.batch_ns_per_pkt" => self.out.record(
                        "core.sketch.overwritten_per_kpkt",
                        stats.sketch_overwritten as f64 / kpkt,
                    ),
                    "core.engine.precision.batch_ns_per_pkt" => self.out.record(
                        "core.precision.admission_denied_per_kpkt",
                        stats.recirc_admission_denied as f64 / kpkt,
                    ),
                    _ => {}
                }
            }
            let over_exact = |metric: &str| took[metric] - took[EXACT_BATCH];
            self.out.record(
                "core.telemetry.sync_ns_per_pkt",
                over_exact("core.engine.exact.instrumented_ns_per_pkt"),
            );
            self.out.record(
                "core.sharded.s1.handoff_ns_per_pkt",
                over_exact("core.sharded.s1.batch_ns_per_pkt"),
            );
            Ok(())
        })?;

        let (samples, s) = exact.ok_or("no exact engine pass ran")?;
        let out = &mut *self.out;
        out.record(
            "core.rt.collision_per_kpkt",
            s.seq_rt_collision as f64 / kpkt,
        );
        out.record("core.pt.stored_per_kpkt", s.pt_stored as f64 / kpkt);
        out.record("core.pt.displaced_per_kpkt", s.pt_displaced as f64 / kpkt);
        out.record("core.recirc.issued_per_kpkt", s.recirc_issued as f64 / kpkt);
        out.record(
            "core.recirc.cap_dropped_per_kpkt",
            s.recirc_cap_dropped as f64 / kpkt,
        );
        out.record(
            "core.recirc.useful_ratio",
            s.recirc_reinserted as f64 / s.recirc_issued.max(1) as f64,
        );
        out.record("core.engine.samples_per_kpkt", s.samples as f64 / kpkt);
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        if cores < 3 {
            out.note(format!(
                "core.sharded.s2.* is oversubscribed: feeder + 2 workers on {cores} cores"
            ));
        }
        Ok(samples)
    }

    /// `dart-core` control plane: checkpoint, restore and rotation of an
    /// engine that has seen the whole trace.
    fn control_plane_layers(&mut self) -> Result<(), String> {
        let newest = self.packets().iter().map(|p| p.ts).max().unwrap_or(0);
        repeat(self.slice, |rep| {
            let mut engine = self.registry.build("dart", &self.cfg)?.monitor;
            let mut sink = CountingSink(0);
            for block in self.inputs.packets.chunks(BLOCK) {
                engine.on_batch(block, &mut sink);
            }
            let (snap, ns) = self
                .tracer
                .time("core.snapshot.checkpoint", rep, || engine.snapshot());
            let snap = snap.map_err(|e| format!("snapshot: {e}"))?;
            self.out
                .record("core.snapshot.checkpoint_ms", ns as f64 / 1e6);
            self.out
                .record("core.snapshot.bytes", snap.as_bytes().len() as f64);
            let mut fresh = self.registry.build("dart", &self.cfg)?.monitor;
            let (restored, ns) = self
                .tracer
                .time("core.snapshot.restore", rep, || fresh.restore(&snap));
            restored.map_err(|e| format!("restore: {e}"))?;
            self.out.record("core.snapshot.restore_ms", ns as f64 / 1e6);
            self.out.ops.check(fresh.stats() == engine.stats(), || {
                "restored engine's counters differ from the checkpointed one's".to_string()
            });
            let cutoff = newest.saturating_sub(10 * SECOND);
            let (_, ns) = self
                .tracer
                .time("core.monitor.rotate", rep, || engine.rotate_epoch(cutoff));
            self.out.record("core.monitor.rotate_ms", ns as f64 / 1e6);
            Ok(())
        })
    }

    /// `dart-telemetry`: a registry shaped like the daemon's (one sharded
    /// engine's series plus the stage timers), scraped in-process and over
    /// an idle HTTP plane; and the two hot-path primitives.
    fn telemetry_layers(&mut self) -> Result<(), String> {
        let metrics = MetricRegistry::new();
        let stage = StageTimers::register(&metrics);
        let mut monitor = self
            .registry
            .build_instrumented("dart-sharded-1", &self.cfg, &metrics)?
            .monitor;
        let mut sink = CountingSink(0);
        for block in self.inputs.packets.chunks(BLOCK) {
            stage.time(Stage::Match, || monitor.on_batch(block, &mut sink));
        }
        monitor.flush(&mut sink);

        for rep in 0..100 {
            let (snap, ns) = self
                .tracer
                .time("telemetry.registry.scrape", rep, || metrics.scrape());
            self.out
                .record("telemetry.registry.scrape_us", ns as f64 / 1e3);
            let (text, ns) = self
                .tracer
                .time("telemetry.registry.render", rep, || snap.prometheus());
            self.out
                .record("telemetry.registry.render_us", ns as f64 / 1e3);
            if rep == 0 {
                self.out
                    .record("telemetry.registry.exposition_bytes", text.len() as f64);
            }
        }

        let server = HttpServer::serve(
            "127.0.0.1:0",
            metrics.clone(),
            EventLog::new(256),
            Arc::new(|| "{}".to_string()),
        )
        .map_err(|e| format!("bind in-process HttpServer: {e}"))?;
        for rep in 0..50 {
            let (reply, ns) = self.tracer.time("telemetry.server.get_metrics", rep, || {
                http::get(server.addr(), "/metrics")
            });
            self.out.ops.check(matches!(reply, Ok((200, _))), || {
                format!("idle GET /metrics: {reply:?}")
            });
            self.out
                .record("telemetry.server.get_metrics_idle_us", ns as f64 / 1e3);
        }
        server.stop();

        const OBSERVATIONS: u64 = 1 << 20;
        let histogram = Histogram::new();
        self.probe(
            "telemetry.histogram.observe",
            "telemetry.histogram.record_ns",
            OBSERVATIONS as usize,
            || (0..OBSERVATIONS).for_each(|v| histogram.observe(black_box(v))),
        )?;
        const BLOCKS: usize = 1 << 16;
        self.probe(
            "core.telemetry.stage_timers",
            "core.telemetry.stage_timer_ns_per_block",
            BLOCKS,
            || {
                for _ in 0..BLOCKS {
                    stage.time(Stage::Decode, || black_box(()));
                    stage.time(Stage::Match, || black_box(()));
                }
            },
        )
    }

    /// The leaves: `dart-core`'s sample sink, `dart-analytics`' tail of
    /// `analyze`, and the `dart-switch` hash every table probe starts with.
    fn leaf_layers(&mut self, samples: &[RttSample]) -> Result<(), String> {
        // The sink the CLI uses, through the trait object the engine sees.
        self.probe(
            "core.sink.on_sample",
            "core.sink.ns_per_sample",
            samples.len(),
            || {
                let mut stored: Vec<RttSample> = Vec::new();
                let sink: &mut dyn SampleSink = &mut stored;
                samples.iter().for_each(|s| sink.on_sample(*s));
                stored
            },
        )?;
        self.probe(
            "analytics.dist",
            "analytics.dist.ns_per_sample",
            samples.len(),
            || {
                let mut dist = RttDistribution::from_samples(samples.iter().map(|s| s.rtt));
                [50.0, 90.0, 95.0, 99.0].map(|p| dist.percentile(p))
            },
        )?;
        let keys: Vec<[u8; 13]> = self
            .packets()
            .iter()
            .map(|p| {
                let mut key = [0u8; 13];
                key[..12].copy_from_slice(&p.flow.to_bytes());
                key[12] = p.flags.0;
                key
            })
            .collect();
        let unit = HashUnit::new(0, 32);
        self.probe(
            "switch.hash.crc",
            "switch.hash.crc_ns_per_key",
            keys.len(),
            || keys.iter().fold(0u32, |acc, k| acc ^ unit.hash(k)),
        )
    }

    /// `dart-tools` through the binary: start-up, the end-to-end figure
    /// the layer rows should add up to, and the two other backends
    /// (judged like the exact one in the untraced run).
    fn tools_layers(&mut self) -> Result<(), String> {
        let path = self.inputs.file.display().to_string();
        let n = self.packets().len();
        repeat(self.slice, |rep| {
            let (loaded, ns) = self.tracer.time("tools.load_file", rep, || {
                dart_tools::io::load_file(&path, INTERNAL)
            });
            self.out.ops.check(
                loaded
                    .as_ref()
                    .is_ok_and(|(p, skipped)| p.len() == n && *skipped == 0),
                || {
                    format!(
                        "load_file {path}: {:?}",
                        loaded.as_ref().map(|(p, s)| (p.len(), *s))
                    )
                },
            );
            self.out
                .record("tools.load_file.ns_per_pkt", ns as f64 / n as f64);
            Ok(())
        })?;

        let ctx = self.ctx;
        let flags = self.w.engine_flags();
        let tiny = inputs::startup_trace(ctx.seed, ctx.dir)?;
        let log = ctx.dir.join("analyze.stderr");
        for rep in 0..8 {
            let (wall, _) = self.tracer.time("tools.analyze.startup", rep, || {
                ctx.dartmon.analyze(&tiny, &flags, &log, |_| {})
            });
            if let Some(wall) = self.out.ops.attempt(wall) {
                self.out
                    .record("tools.analyze.startup_ms", wall.as_secs_f64() * 1e3);
            }
        }

        let budget = ctx.seconds * PROBE_SHARE * 3.0;
        let exact = self.timed_analyze("tools.analyze.exact", &flags, budget);
        self.out.record_all(
            "tools.analyze.ns_per_pkt",
            exact.iter().map(|mpps| 1e3 / mpps),
        );
        let oracle = e2e::oracle_for(self.w, self.packets());
        // HEAD's sketch tables fabricate a sample on about one churn seed
        // in twelve (signature aliasing under displacement), so on the two
        // approximate backends the verdict is a recorded count, not a
        // failed run; the exact backend is held to zero in both runs.
        for (backend, metric, fabricated) in [
            (
                "sketch",
                "tools.analyze.sketch_mpps",
                "tools.analyze.sketch_impossible",
            ),
            (
                "precision",
                "tools.analyze.precision_mpps",
                "tools.analyze.precision_impossible",
            ),
        ] {
            let (w, inputs, out) = (self.w, self.inputs, &mut *self.out);
            let (judged, _) = self.tracer.time("tools.analyze.judged", 0, || {
                e2e::judged_analyze(ctx, w, inputs, &oracle, backend, out)
            });
            if let Some(judged) = judged {
                self.out.record(fabricated, judged.impossible as f64);
                if judged.impossible > 0 {
                    self.out.note(format!(
                        "WARNING: dart@{backend} emitted {} samples the oracle classifies impossible",
                        judged.impossible
                    ));
                }
            }
            let mut with_backend = flags.clone();
            with_backend.extend(["--backend".to_string(), backend.to_string()]);
            let mpps = self.timed_analyze("tools.analyze.backend", &with_backend, budget);
            self.out.record_all(metric, mpps);
        }
        Ok(())
    }

    /// What `dartmon analyze` does, in the rows that price it: start-up
    /// (spawn, table allocation, report), load, the instrumented engine
    /// pass (sink included), the distribution. What is left over no row
    /// explains.
    fn attribution(&mut self) {
        let v = |name: &str| self.out.median(name).unwrap_or(f64::NAN);
        let n = self.packets().len() as f64;
        let end_to_end = v("tools.analyze.ns_per_pkt");
        let attributed = v("tools.analyze.startup_ms") * 1e6 / n
            + v("tools.load_file.ns_per_pkt")
            + v("core.engine.exact.instrumented_ns_per_pkt")
            + v("analytics.dist.ns_per_sample") * v("core.engine.samples_per_kpkt") / 1000.0;
        self.out.record(
            "tools.analyze.unattributed_ns_per_pkt",
            end_to_end - attributed,
        );
        self.out
            .record("tools.analyze.attributed_share", attributed / end_to_end);
    }

    /// The daemon loop, from the daemon's own `/metrics`: the live
    /// procedure on this workload's packets and engine flags.
    fn daemon_layers(&mut self) -> Result<(), String> {
        let ctx = self.ctx;
        let window = match self.w.kind {
            Kind::Live => ctx.seconds,
            Kind::Analyze => ctx.seconds / 2.0,
        };
        let flags = self.w.engine_flags();
        let (daemon, _) = self.tracer.time("daemon.start", 0, || {
            Daemon::start(ctx.dartmon, ctx.dir, &flags)
        });
        let packets = &self.inputs.packets[..];
        let (session, _) = self.tracer.time("daemon.session", 0, || {
            e2e::live_session(ctx, daemon?, packets, Duration::from_secs_f64(window))
        });
        let mut session = session?;
        e2e::absorb_session(&mut session, self.out);
        let out = &mut *self.out;
        let packets = session.window_packets();
        let wall_ns = session.window_wall.as_nanos() as f64;
        let decode = session.window_stage_ns("decode");
        let matched = session.window_stage_ns("match");
        out.record_all("testkit.daemon.mpps", session.window_mpps.iter().copied());
        out.record("testkit.daemon.stage_decode_ns_per_pkt", decode / packets);
        out.record("testkit.daemon.stage_match_ns_per_pkt", matched / packets);
        out.record(
            "testkit.daemon.loop_other_ns_per_pkt",
            (wall_ns - decode - matched) / packets,
        );
        out.record("testkit.daemon.decode_share", decode / wall_ns);
        // A window shorter than the cadence sees no pause at all; that
        // reads as zero, with the counts beside it saying why.
        let pause_us = |family: &str| session.window_pause_p50_ns(family).unwrap_or(0.0) / 1e3;
        out.record(
            "testkit.daemon.checkpoint_pause_p50_us",
            pause_us("dart_daemon_checkpoint_pause_ns"),
        );
        out.record(
            "testkit.daemon.rotation_pause_p50_us",
            pause_us("dart_epoch_rotation_pause_ns"),
        );
        let total = |family: &str| session.last.sum(family).unwrap_or(0.0);
        out.record(
            "testkit.daemon.checkpoints",
            total("dart_daemon_checkpoints_total"),
        );
        out.record(
            "testkit.daemon.rotations",
            total("dart_epoch_rotations_total"),
        );
        out.record(
            "testkit.daemon.epoch_records_dropped",
            total("dart_epoch_records_dropped_total"),
        );
        out.record("testkit.daemon.cpu_s_per_mpkt", session.cpu_s_per_mpkt);
        out.record_all(
            "testkit.daemon.scrape_p50_ms",
            session.scrape_ms.iter().copied(),
        );
        out.record(
            "testkit.daemon.scrape_p95_ms",
            crate::stats::percentile(&session.scrape_ms, 95.0),
        );
        out.record(
            "testkit.daemon.scrape_max_ms",
            session.scrape_ms.iter().copied().fold(0.0, f64::max),
        );
        out.record(
            "core.sharded.queue_depth_mean",
            session.channel_depth.iter().sum::<f64>() / session.channel_depth.len() as f64,
        );
        out.record(
            "core.recirc.queue_depth_p99",
            session
                .last
                .histogram_quantile("dart_recirc_queue_depth_records", 0.99)
                .unwrap_or(0.0),
        );
        out.record("perf.producer.busy_share", session.producer_busy_share);
        Ok(())
    }
}

#[derive(Clone, Copy)]
enum Feed {
    /// `on_batch` over 1024-packet blocks.
    Batch,
    /// `on_packet` per packet.
    Packet,
    /// `on_batch` over 1-packet slices.
    Block1,
}

/// One way of pushing the trace through a registry engine.
struct Variant {
    /// The per-layer metric its ns/packet lands in.
    metric: &'static str,
    span: &'static str,
    engine: &'static str,
    feed: Feed,
    instrumented: bool,
    /// Count samples instead of storing them.
    count_only: bool,
}

const fn variant(metric: &'static str, span: &'static str, engine: &'static str) -> Variant {
    Variant {
        metric,
        span,
        engine,
        feed: Feed::Batch,
        instrumented: false,
        count_only: false,
    }
}

const EXACT_BATCH: &str = "core.engine.exact.batch_ns_per_pkt";

/// The exact batch pass comes first: the rows measured against it
/// (telemetry sync, sink, shard hand-off) follow it directly.
const VARIANTS: [Variant; 10] = [
    variant(EXACT_BATCH, "core.engine.exact.on_batch", "dart"),
    Variant {
        instrumented: true,
        ..variant(
            "core.engine.exact.instrumented_ns_per_pkt",
            "core.engine.exact.on_batch_instrumented",
            "dart",
        )
    },
    Variant {
        count_only: true,
        ..variant(
            "core.engine.exact.nosink_ns_per_pkt",
            "core.engine.exact.on_batch_nosink",
            "dart",
        )
    },
    variant(
        "core.sharded.s1.batch_ns_per_pkt",
        "core.sharded.s1.on_batch",
        "dart-sharded-1",
    ),
    Variant {
        feed: Feed::Packet,
        ..variant(
            "core.engine.exact.packet_ns_per_pkt",
            "core.engine.exact.on_packet",
            "dart",
        )
    },
    Variant {
        feed: Feed::Block1,
        ..variant(
            "core.engine.exact.block1_ns_per_pkt",
            "core.engine.exact.on_batch_1",
            "dart",
        )
    },
    variant(
        "core.engine.sketch.batch_ns_per_pkt",
        "core.engine.sketch.on_batch",
        "dart@sketch",
    ),
    variant(
        "core.engine.precision.batch_ns_per_pkt",
        "core.engine.precision.on_batch",
        "dart@precision",
    ),
    variant(
        "core.sharded.s2.batch_ns_per_pkt",
        "core.sharded.s2.on_batch",
        "dart-sharded-2",
    ),
    variant(
        "baselines.tcptrace.ns_per_pkt",
        "baselines.tcptrace.on_batch",
        "tcptrace",
    ),
];

/// The traced run of one workload. Spans accumulate in `tracer`.
pub fn run(ctx: &Ctx, w: &Workload, tracer: &mut Tracer) -> RunOutput {
    let mut out = RunOutput::default();
    let result = (|| -> Result<(), String> {
        let inputs = inputs::prepare(w, ctx.seed, ctx.scale, ctx.dir)?;
        out.note(format!(
            "{} packets, engine flags [{}]",
            inputs.packets.len(),
            w.engine_flags().join(" ")
        ));
        e2e::verify_inputs(w, &inputs, &mut out);
        let mut probe = Probe {
            ctx,
            w,
            inputs: &inputs,
            tracer,
            out: &mut out,
            slice: Duration::from_secs_f64(ctx.seconds * PROBE_SHARE),
            registry: EngineRegistry::standard(),
            cfg: w.engine_config(),
        };
        let root = probe.tracer.enter("traced-run", 0);
        let result = (|| {
            probe.group("dart-packet", Probe::packet_layers)?;
            let samples = probe.group("dart-core.engines", Probe::engine_layers)?;
            probe.group("dart-core.control-plane", Probe::control_plane_layers)?;
            probe.group("dart-telemetry", Probe::telemetry_layers)?;
            probe.group("leaves", |p| p.leaf_layers(&samples))?;
            probe.group("dart-tools", Probe::tools_layers)?;
            probe.attribution();
            probe.group("daemon", Probe::daemon_layers)
        })();
        probe.tracer.exit(root);
        result
    })();
    out.ops.attempt(result);
    out.note(group_times(tracer));
    out
}

/// Where the traced run's wall time went, group by group; a group's self
/// time is the harness around its layer calls (building engines,
/// synthesizing inputs, driving children).
fn group_times(tracer: &Tracer) -> String {
    let own = tracer.self_times();
    let groups: Vec<String> = tracer
        .spans()
        .iter()
        .zip(&own)
        .filter(|(span, _)| span.parent == Some(0))
        .map(|(span, own)| {
            format!(
                "{} {:.1} s (self {:.1})",
                span.name,
                span.duration_ns() as f64 / 1e9,
                *own as f64 / 1e9
            )
        })
        .collect();
    format!("span groups: {}", groups.join(", "))
}

/// Where the traced run's spans go.
pub fn spans_path(workload: &str) -> std::path::PathBuf {
    crate::scratch::perf_root().join(format!("{workload}.spans.jsonl"))
}

pub fn write_spans(tracer: &Tracer, path: &Path, provenance: &str) -> Result<(), String> {
    tracer
        .write_jsonl(path, provenance)
        .map_err(|e| format!("write {}: {e}", path.display()))
}
