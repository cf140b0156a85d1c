//! The benchmark's vocabulary: every workload and every metric by name.
//!
//! This table is the single source. `BENCHMARK.json` at the repository
//! root is rendered from it (`dart-perf --print-benchmark-json`), the
//! binary refuses to finish a run that did not produce exactly these
//! names, and a self-test pins the committed file to the rendering — so a
//! layer row can never silently disappear.

use crate::inputs::WORKLOADS;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a metric's samples become the one value a run reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduce {
    Median,
    /// The 90th percentile of a rate. The sandbox this runs in slows down
    /// for seconds at a time (a 40-repetition median moved 16 % between
    /// back-to-back sets, the fast decile 3 %); interference only ever
    /// slows a deterministic program down, so the fast tail is the
    /// estimate of the program's own speed. The ledger prints the median
    /// beside it.
    UpperDecile,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub reduce: Reduce,
    /// Share of the parent's median an end-to-end metric may worsen by
    /// before a change counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
    /// Per-layer: the end-to-end metric (and workload) it should move.
    /// End-to-end: how it is measured.
    pub note: &'static str,
}

/// How long one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The driver's entry point, relative to the root of a checkout.
pub const COMMAND: [&str; 2] = ["bash", "crates/perf/run.sh"];

/// The directory that holds the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["crates/perf"];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        reduce: Reduce::Median,
        bound: Some(bound),
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        reduce: Reduce::Median,
        bound: None,
        note,
    }
}

use Better::{Higher, Lower};

/// What an operator sees. Every workload reports every one of these (the
/// driver's contract), so each is defined for both the analyze and the
/// daemon path; see the README for what the issue's per-path names map to.
pub const END_TO_END: [MetricDef; 5] = [
    MetricDef {
        reduce: Reduce::UpperDecile,
        ..e2e(
            "throughput_mpps",
            "Mpkt/s",
            Higher,
            0.25,
            "analyze workloads: packets / dartmon analyze wall (spawn to exit), exact backend, one sample per repetition; live-fifo: one sample per sliding 1-s window of dart_shard_packets_total; reported at the upper decile",
        )
    },
    e2e(
        "rss_mb",
        "MB",
        Lower,
        0.08,
        "peak resident set (VmHWM) of the dartmon child: analyze in dedicated untimed repetitions, the daemon just before shutdown",
    ),
    e2e(
        "sample_recall",
        "ratio",
        Higher,
        0.25,
        "oracle-valid samples emitted / oracle-valid samples (analyze: --csv judged by dart_testkit::oracle; live-fifo: samples_total / passes x per-pass oracle-valid)",
    ),
    e2e(
        "passes_per_pkt",
        "ratio",
        Lower,
        0.02,
        "1 + recirc_issued_total / packets_total from --metrics-prom or the final scrape: pipeline passes a packet costs on average",
    ),
    e2e(
        "setup_s",
        "s",
        Lower,
        0.25,
        "generate and write the workload's inputs (live-fifo: plus spawn to first 200 on /healthz); median of three set-ups",
    ),
];

pub const PER_LAYER: [MetricDef; 69] = [
    // dart-packet
    layer("packet.read.ns_per_pkt", "ns/pkt", Lower, "fs::read of the input; -> throughput_mpps on analyze workloads"),
    layer("packet.trace.decode_ns_per_pkt", "ns/pkt", Lower, "TraceReader over bytes via next_block(1024); -> throughput_mpps on campus-native, churn-pressure"),
    layer("packet.pcap.decode_ns_per_pkt", "ns/pkt", Lower, "PcapSource over snaplen-96 bytes; -> throughput_mpps on campus-pcap only"),
    layer("packet.pcap.skipped", "count", Lower, "frames the pcap parser skipped (must stay 0 on these inputs)"),
    layer("packet.follow.decode_ns_per_pkt", "ns/pkt", Lower, "TraceReader<Follow<File>> as serve --mode follow builds it; -> throughput_mpps on live-fifo"),
    layer("packet.follow.read_calls_per_pkt", "calls/pkt", Lower, "read() calls the follow decode issues per record; -> throughput_mpps on live-fifo"),
    layer("packet.reconnect.overhead_ns_per_pkt", "ns/pkt", Lower, "the same source through Reconnecting, minus bare; -> throughput_mpps on live-fifo"),
    layer("packet.source.slice_block_ns_per_pkt", "ns/pkt", Lower, "SliceSource::next_block: the harness floor under every decode row"),
    // dart-tools
    layer("tools.load_file.ns_per_pkt", "ns/pkt", Lower, "dart_tools::io::load_file; -> throughput_mpps and rss_mb on analyze workloads"),
    layer("tools.analyze.startup_ms", "ms", Lower, "dartmon analyze on a 5-connection trace with the workload's table flags; -> throughput_mpps on analyze workloads"),
    layer("tools.analyze.ns_per_pkt", "ns/pkt", Lower, "end-to-end dartmon analyze wall per packet in the traced run (the sum the layers should reach)"),
    layer("tools.analyze.unattributed_ns_per_pkt", "ns/pkt", Lower, "end-to-end ns/pkt minus start-up, load, engine and report layers: what no row explains"),
    layer("tools.analyze.attributed_share", "ratio", Higher, "share of end-to-end ns/pkt the layer rows explain"),
    layer("tools.analyze.sketch_mpps", "Mpkt/s", Higher, "dartmon analyze --backend sketch, packets / wall (per-layer because three workloads have no such cell at the end-to-end level)"),
    layer("tools.analyze.precision_mpps", "Mpkt/s", Higher, "dartmon analyze --backend precision, packets / wall"),
    layer("tools.analyze.sketch_impossible", "count", Lower, "samples of --backend sketch the oracle classifies impossible (fabricated); should be 0"),
    layer("tools.analyze.precision_impossible", "count", Lower, "samples of --backend precision the oracle classifies impossible; should be 0"),
    // dart-baselines
    layer("baselines.registry.build_ms", "ms", Lower, "EngineRegistry build of `dart` at the workload geometry (table allocation); -> start-up share of throughput_mpps, rss_mb"),
    layer("baselines.tcptrace.ns_per_pkt", "ns/pkt", Lower, "the paper's software reference over the same packets"),
    // dart-core: engine time
    layer("core.engine.exact.batch_ns_per_pkt", "ns/pkt", Lower, "on_batch over 1024-packet blocks + flush; -> throughput_mpps on churn-pressure, about a third on campus-native, ~0 on campus-pcap"),
    layer("core.engine.sketch.batch_ns_per_pkt", "ns/pkt", Lower, "same on dart@sketch; -> tools.analyze.sketch_mpps"),
    layer("core.engine.precision.batch_ns_per_pkt", "ns/pkt", Lower, "same on dart@precision; -> tools.analyze.precision_mpps"),
    layer("core.engine.exact.packet_ns_per_pkt", "ns/pkt", Lower, "the per-packet body (on_packet per packet)"),
    layer("core.engine.exact.block1_ns_per_pkt", "ns/pkt", Lower, "on_batch over 1-packet slices: what deleting the per-packet body would cost"),
    layer("core.engine.exact.nosink_ns_per_pkt", "ns/pkt", Lower, "on_batch into a counting sink"),
    layer("core.engine.exact.instrumented_ns_per_pkt", "ns/pkt", Lower, "on_batch on build_instrumented(`dart`): what dartmon analyze actually runs"),
    layer("core.sink.ns_per_sample", "ns/sample", Lower, "the exact engine's samples pushed into a Vec<RttSample> through &mut dyn SampleSink"),
    layer("core.telemetry.sync_ns_per_pkt", "ns/pkt", Lower, "instrumented minus bare batch pass, paired within a round"),
    layer("core.telemetry.stage_timer_ns_per_block", "ns/block", Lower, "StageTimers decode+match observation per block; -> throughput_mpps on live-fifo"),
    // dart-core: exact counts from stats()
    layer("core.rt.collision_per_kpkt", "1/kpkt", Lower, "seq_rt_collision per 1000 packets; -> sample_recall"),
    layer("core.pt.stored_per_kpkt", "1/kpkt", Higher, "pt_stored per 1000 packets"),
    layer("core.pt.displaced_per_kpkt", "1/kpkt", Lower, "pt_displaced per 1000 packets; -> passes_per_pkt, sample_recall"),
    layer("core.recirc.issued_per_kpkt", "1/kpkt", Lower, "recirc_issued per 1000 packets; -> passes_per_pkt"),
    layer("core.recirc.cap_dropped_per_kpkt", "1/kpkt", Lower, "recirc_cap_dropped per 1000 packets; -> sample_recall"),
    layer("core.recirc.useful_ratio", "ratio", Higher, "recirc_reinserted / recirc_issued: recirculations that were not wasted"),
    layer("core.sketch.overwritten_per_kpkt", "1/kpkt", Lower, "sketch_overwritten per 1000 packets (dart@sketch)"),
    layer("core.precision.admission_denied_per_kpkt", "1/kpkt", Lower, "recirc_admission_denied per 1000 packets (dart@precision)"),
    layer("core.engine.samples_per_kpkt", "1/kpkt", Higher, "samples per 1000 packets; -> sample_recall"),
    // dart-core: sharded runtime
    layer("core.sharded.s1.batch_ns_per_pkt", "ns/pkt", Lower, "dart-sharded-1 on_batch + flush; -> throughput_mpps on live-fifo, no analyze workload"),
    layer("core.sharded.s1.handoff_ns_per_pkt", "ns/pkt", Lower, "dart-sharded-1 minus exact batch, paired within a round: feeder partition + channel"),
    layer("core.sharded.s2.batch_ns_per_pkt", "ns/pkt", Lower, "dart-sharded-2; oversubscribed below 3 cores (feeder + 2 workers), flagged in the ledger"),
    // dart-core: control plane
    layer("core.snapshot.checkpoint_ms", "ms", Lower, "RttMonitor::snapshot after one pass; -> throughput_mpps on live-fifo via pauses"),
    layer("core.snapshot.bytes", "bytes", Lower, "serialized snapshot size"),
    layer("core.snapshot.restore_ms", "ms", Lower, "RttMonitor::restore into a fresh engine"),
    layer("core.monitor.rotate_ms", "ms", Lower, "rotate_epoch(newest - 10 s) after one pass; -> throughput_mpps on live-fifo via pauses"),
    // dart-telemetry
    layer("telemetry.registry.scrape_us", "us", Lower, "MetricRegistry::scrape of a daemon-shaped registry; -> testkit.daemon.scrape_p50_ms"),
    layer("telemetry.registry.render_us", "us", Lower, "Snapshot::prometheus; -> testkit.daemon.scrape_p50_ms"),
    layer("telemetry.registry.exposition_bytes", "bytes", Lower, "size of one /metrics body"),
    layer("telemetry.server.get_metrics_idle_us", "us", Lower, "GET /metrics against an in-process HttpServer with no ingest; the gap to scrape_p50_ms is contention"),
    layer("telemetry.histogram.record_ns", "ns", Lower, "Histogram::observe"),
    // dart-analytics, dart-switch
    layer("analytics.dist.ns_per_sample", "ns/sample", Lower, "RttDistribution::from_samples + four percentiles: the tail of analyze"),
    layer("switch.hash.crc_ns_per_key", "ns/key", Lower, "HashUnit::hash over 13-byte keys"),
    // the daemon loop (dart-testkit today), from the daemon's own /metrics
    layer("testkit.daemon.mpps", "Mpkt/s", Higher, "median 1-s ingest window of the traced run's daemon segment"),
    layer("testkit.daemon.stage_decode_ns_per_pkt", "ns/pkt", Lower, "dart_stage_decode_ns over the window per packet; -> throughput_mpps on live-fifo"),
    layer("testkit.daemon.stage_match_ns_per_pkt", "ns/pkt", Lower, "dart_stage_match_ns over the window per packet"),
    layer("testkit.daemon.loop_other_ns_per_pkt", "ns/pkt", Lower, "window wall minus decode minus match, per packet"),
    layer("testkit.daemon.decode_share", "ratio", Lower, "decode stage time / window wall"),
    layer("testkit.daemon.checkpoint_pause_p50_us", "us", Lower, "dart_daemon_checkpoint_pause_ns median (bucket bound)"),
    layer("testkit.daemon.rotation_pause_p50_us", "us", Lower, "dart_epoch_rotation_pause_ns median (bucket bound)"),
    layer("testkit.daemon.checkpoints", "count", Higher, "checkpoints written during the run"),
    layer("testkit.daemon.rotations", "count", Higher, "epoch rotations during the run"),
    layer("testkit.daemon.epoch_records_dropped", "count", Lower, "dart_epoch_records_dropped_total: what rotation cost sample_recall"),
    layer("testkit.daemon.cpu_s_per_mpkt", "s/Mpkt", Lower, "daemon utime+stime per million packets"),
    layer("testkit.daemon.scrape_p50_ms", "ms", Lower, "GET /metrics round trip under full ingest, median (end-to-end in the issue; per-layer here because only live-fifo has it)"),
    layer("testkit.daemon.scrape_p95_ms", "ms", Lower, "same, 95th percentile"),
    layer("testkit.daemon.scrape_max_ms", "ms", Lower, "same, maximum"),
    layer("core.sharded.queue_depth_mean", "batches", Lower, "dart_shard_channel_batches sampled per scrape"),
    layer("core.recirc.queue_depth_p99", "records", Lower, "dart_recirc_queue_depth_records 99th percentile (bucket bound)"),
    layer("perf.producer.busy_share", "ratio", Lower, "share of the window the producer was not blocked in write; above 0.5 the run is generator-bound"),
];

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let strings = |items: &[&str]| {
        let quoted: Vec<String> = items.iter().map(|s| json_string(s)).collect();
        format!("[{}]", quoted.join(", "))
    };
    let metric = |m: &MetricDef| {
        let mut obj = format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}",
            json_string(m.name),
            json_string(m.unit),
            json_string(m.better.as_str())
        );
        if let Some(bound) = m.bound {
            write!(obj, ", \"bound\": {bound}").expect("string write");
        }
        obj.push('}');
        obj
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        strings(&COMMAND),
        strings(&PATHS),
        list(workloads),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

/// The glossary: every workload with why it exists, every metric with
/// what it measures and — for a layer — what it should move.
pub fn describe() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        writeln!(out, "workload {}\n    {}", w.name, w.why).expect("string write");
    }
    for (kind, defs) in [
        ("end-to-end", &END_TO_END[..]),
        ("per-layer", &PER_LAYER[..]),
    ] {
        for m in defs {
            let bound = m
                .bound
                .map_or_else(String::new, |b| format!(", bound {:.0} %", b * 100.0));
            writeln!(
                out,
                "{kind} {} [{}, {} is better{bound}]\n    {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.note
            )
            .expect("string write");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_telemetry::json::{parse, JsonValue};
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                m.name
            );
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
    }

    fn names(v: &JsonValue, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    /// The committed `BENCHMARK.json` is exactly what the tables render,
    /// so the names the driver expects are the names the binary emits.
    #[test]
    fn committed_benchmark_json_is_the_rendered_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `dart-perf --print-benchmark-json > BENCHMARK.json`"
        );
        let v = parse(&committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let expect =
            |defs: &[MetricDef]| defs.iter().map(|m| m.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names(&v, "end_to_end"), expect(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), expect(&PER_LAYER));
        assert_eq!(
            names(&v, "workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
