//! In-engine metric hooks and the one metric vocabulary.
//!
//! Two layers of instrumentation, matching the two places an observer can
//! stand:
//!
//! * [`EngineTelemetry`] lives **inside** a [`DartEngine`](crate::DartEngine)
//!   (one per shard; the serial engine is `shard="0"`). The engine keeps
//!   accumulating its plain [`EngineStats`] on the hot path and *publishes*
//!   the totals to the shared atomic counters at sync points — at every
//!   `on_batch` boundary, every [`SYNC_INTERVAL_PKTS`] packets under
//!   `on_packet`, and at flush — so the per-packet cost is a predictable
//!   branch, not thirty atomic writes. Only the RTT histogram observes on
//!   the hot path (one `fetch_add` per *sample*, not per packet).
//! * [`MeteredMonitor`] wraps **any** [`RttMonitor`] from the outside: it
//!   mirrors the monitor's whole-run counters (`dart_run_*`) and feeds every
//!   emitted sample into a run-level RTT histogram. This is what makes the
//!   software baselines scrape-able without touching their code.
//!
//! Every exposed family is one row of [`VOCABULARY`]: name, kind, label
//! keys, HELP text and the [`Surface`]s that expose it. Registration sites
//! read their row; `crates/tools/tests/vocabulary.rs` holds each surface's
//! exposition to exactly its rows and DESIGN.md §5d's table to their
//! rendering.

use crate::monitor::{EpochRotation, RttMonitor, Stage};
use crate::sample::{EngineEvent, RttSample, SampleSink};
use crate::stats::EngineStats;
use dart_switch::RecircStats;
use dart_telemetry::{Counter, Gauge, Histogram, MetricKind, MetricRegistry};

/// A run whose exposition the vocabulary fixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Surface {
    /// A serial Dart engine (`dart`, `dart@sketch`, `dart@precision`).
    Analyze,
    /// Any other registry engine, wrapped in a [`MeteredMonitor`].
    Baseline,
    /// The supervised sharded runtime (`dart-sharded-N`).
    Sharded,
    /// `dartmon serve`; the `dart_source_*` rows only while it tails a
    /// live source (`--mode follow`).
    Serve,
}

/// One row of [`VOCABULARY`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Family {
    /// Exposed name. In a template row `{counter}` stands for each
    /// [`EngineStats::metric_rows`] counter, one family apiece.
    pub name: &'static str,
    /// The `# TYPE`.
    pub kind: MetricKind,
    /// Label keys every series of the family carries.
    pub labels: &'static [&'static str],
    /// The `# HELP` text, `{counter}` expanded as in the name.
    pub help: &'static str,
    /// Where the family is exposed.
    pub surfaces: &'static [Surface],
}

/// The placeholder of a template row.
const COUNTER: &str = "{counter}";

impl Family {
    /// The family name for EngineStats counter `counter` (a template row's
    /// instance; a plain row's name is returned as is).
    pub fn name_for(&self, counter: &str) -> String {
        self.name.replace(COUNTER, counter)
    }

    /// Every `(name, help)` the row stands for: one per EngineStats counter
    /// for a template row, in [`EngineStats::metric_rows`] order.
    pub fn instances(&self) -> Vec<(String, String)> {
        if !self.name.contains(COUNTER) {
            return vec![(self.name.to_string(), self.help.to_string())];
        }
        let rows = EngineStats::default().metric_rows();
        rows.iter()
            .map(|(c, _)| (self.name_for(c), self.help.replace(COUNTER, c)))
            .collect()
    }
}

const ENGINE: &[Surface] = &[Surface::Analyze, Surface::Sharded, Surface::Serve];
const SHARDED: &[Surface] = &[Surface::Sharded, Surface::Serve];
const SERVE: &[Surface] = &[Surface::Serve];
const BASELINE: &[Surface] = &[Surface::Baseline];

/// Declares one `pub const` [`Family`] per row, documented by its HELP
/// text, and [`VOCABULARY`] over all of them in declaration order.
macro_rules! vocabulary {
    ($($id:ident: $kind:ident $name:literal [$($label:literal)*] $on:ident $help:literal;)*) => {
        $(
            #[doc = $help]
            pub const $id: Family = Family {
                name: $name,
                kind: MetricKind::$kind,
                labels: &[$($label),*],
                help: $help,
                surfaces: $on,
            };
        )*

        /// Every metric family, grouped by the surfaces that expose it.
        pub const VOCABULARY: &[Family] = &[$($id),*];
    };
}

vocabulary! {
    SHARD_COUNTERS: Counter "dart_shard_{counter}_total" ["shard"] ENGINE
        "engine disposition counter `{counter}` (see EngineStats)";
    RTT_NS: Histogram "dart_rtt_ns" ["shard"] ENGINE "RTT samples in nanoseconds";
    BATCH_PROCESS_NS: Histogram "dart_batch_process_ns" ["shard"] ENGINE
        "processing latency per hand-off batch in nanoseconds";
    RECIRC_QUEUE_DEPTH: Gauge "dart_recirc_queue_depth" ["shard"] ENGINE
        "records currently in flight around the recirculation loop";
    RECIRC_QUEUE_DEPTH_RECORDS: Histogram "dart_recirc_queue_depth_records" ["shard"] ENGINE
        "recirculation queue depth observed at each submission";
    TABLE_OCCUPIED_SLOTS: Gauge "dart_table_occupied_slots" ["shard" "table"] ENGINE
        "occupied slots of this shard's RT or PT register arrays";
    TABLE_RESIDENT_BYTES: Gauge "dart_table_resident_bytes" ["shard" "table"] ENGINE
        "bytes this shard's RT or PT register arrays hold";
    EPOCH_ROTATIONS: Counter "dart_epoch_rotations_total" ["shard"] ENGINE
        "epoch rotations performed on this shard";
    EPOCH_FLOWS_CARRIED: Counter "dart_epoch_flows_carried_total" ["shard"] ENGINE
        "RT flows that survived an epoch rotation";
    EPOCH_FLOWS_DROPPED: Counter "dart_epoch_flows_dropped_total" ["shard"] ENGINE
        "RT flows swept as stale by epoch rotations";
    EPOCH_RECORDS_DROPPED: Counter "dart_epoch_records_dropped_total" ["shard"] ENGINE
        "PT and auxiliary records swept as stale by epoch rotations";
    EPOCH_ROTATION_PAUSE_NS: Histogram "dart_epoch_rotation_pause_ns" ["shard"] ENGINE
        "wall-clock pause of each epoch rotation in nanoseconds";
    SUPERVISOR_HEALTHY_SHARDS: Gauge "dart_supervisor_healthy_shards" [] SHARDED
        "shard workers still measuring their traffic";
    SUPERVISOR_STALLS: Counter "dart_supervisor_stalls_total" [] SHARDED
        "shard workers abandoned by the feeder watchdog";
    SHARD_CHANNEL_BATCHES: Gauge "dart_shard_channel_batches" ["shard"] SHARDED
        "hand-off batches queued or being processed by this shard worker";
    STAGE_DECODE_NS: Histogram "dart_stage_decode_ns" [] SERVE
        "time pulling one block from the packet source, nanoseconds";
    STAGE_MATCH_NS: Histogram "dart_stage_match_ns" [] SERVE
        "time processing one block through the monitor, nanoseconds";
    STAGE_FLUSH_NS: Histogram "dart_stage_flush_ns" [] SERVE
        "time spent in flush or epoch rotation, nanoseconds";
    DAEMON_CHECKPOINTS: Counter "dart_daemon_checkpoints_total" [] SERVE
        "snapshots durably written (cadence + rotation + on-demand)";
    DAEMON_CHECKPOINT_FAILURES: Counter "dart_daemon_checkpoint_failures_total" [] SERVE
        "checkpoint attempts that failed (engine degraded or I/O error)";
    DAEMON_CHECKPOINT_PAUSE_NS: Histogram "dart_daemon_checkpoint_pause_ns" [] SERVE
        "ingest-loop pause per checkpoint (quiesce + serialize + fsync)";
    SOURCE_RECONNECTS: Counter "dart_source_reconnects_total" [] SERVE
        "successful packet-source reconnections";
    SOURCE_DECODE_ERRORS: Counter "dart_source_decode_errors_total" [] SERVE
        "malformed records skipped by decode tolerance";
    SOURCE_IO_ERRORS: Counter "dart_source_io_errors_total" [] SERVE
        "I/O failures that triggered reconnection";
    RUN_COUNTERS: Counter "dart_run_{counter}_total" [] BASELINE
        "whole-run engine counter `{counter}` (see EngineStats)";
    RUN_RTT_NS: Histogram "dart_run_rtt_ns" [] BASELINE "RTT samples in nanoseconds";
}

/// The `table` label values of the `dart_table_*` gauges, in the order
/// [`EngineTelemetry::sync_tables`] takes them.
pub const TABLES: [&str; 2] = ["rt", "pt"];

/// How many packets between periodic counter publications on the serial
/// hot path. Scrapes between sync points read totals at most this stale;
/// flush always publishes the exact final values.
pub const SYNC_INTERVAL_PKTS: u64 = 1024;

/// The metric handles of one engine shard.
#[derive(Clone)]
pub struct EngineTelemetry {
    /// Parallel to [`EngineStats::metric_rows`] order.
    counters: Vec<Counter>,
    /// Offset folded into every `sync_stats` publication (see
    /// [`EngineTelemetry::with_base`]).
    base: EngineStats,
    rtt_ns: Histogram,
    batch_ns: Histogram,
    queue_depth: Gauge,
    queue_depth_records: Histogram,
    /// `(occupied slots, resident bytes)` of each of [`TABLES`].
    tables: [(Gauge, Gauge); 2],
    rotations: Counter,
    rot_flows_carried: Counter,
    rot_flows_dropped: Counter,
    rot_records_dropped: Counter,
    rot_pause_ns: Histogram,
}

impl EngineTelemetry {
    /// Register (or re-attach to) the shard's series in `registry`.
    pub fn register(registry: &MetricRegistry, shard: usize) -> EngineTelemetry {
        let shard_label = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", &shard_label)];
        let counter = |row: Family| registry.counter(row.name, labels, row.help);
        let histogram = |row: Family| registry.histogram(row.name, labels, row.help);
        EngineTelemetry {
            counters: (SHARD_COUNTERS.instances().iter())
                .map(|(name, help)| registry.counter(name, labels, help))
                .collect(),
            base: EngineStats::default(),
            rtt_ns: histogram(RTT_NS),
            batch_ns: histogram(BATCH_PROCESS_NS),
            queue_depth: registry.gauge(RECIRC_QUEUE_DEPTH.name, labels, RECIRC_QUEUE_DEPTH.help),
            queue_depth_records: histogram(RECIRC_QUEUE_DEPTH_RECORDS),
            tables: TABLES.map(|table| {
                let labels: &[(&str, &str)] = &[("shard", &shard_label), ("table", table)];
                let gauge = |row: Family| registry.gauge(row.name, labels, row.help);
                (gauge(TABLE_OCCUPIED_SLOTS), gauge(TABLE_RESIDENT_BYTES))
            }),
            rotations: counter(EPOCH_ROTATIONS),
            rot_flows_carried: counter(EPOCH_FLOWS_CARRIED),
            rot_flows_dropped: counter(EPOCH_FLOWS_DROPPED),
            rot_records_dropped: counter(EPOCH_RECORDS_DROPPED),
            rot_pause_ns: histogram(EPOCH_ROTATION_PAUSE_NS),
        }
    }

    /// Publish the engine's accumulated counters (totals are stored, not
    /// re-added, so sync points are idempotent). The published value of
    /// each counter is `base + stats` — see [`EngineTelemetry::with_base`].
    pub fn sync_stats(&self, stats: &EngineStats) {
        let mut combined = self.base;
        combined.merge(stats);
        for ((_, value), counter) in combined.metric_rows().iter().zip(&self.counters) {
            counter.store(*value);
        }
    }

    /// Offset every future `sync_stats` publication by `base`. The
    /// supervised sharded runtime attaches a based clone to each respawned
    /// engine — the retired engines' totals plus the runtime's own
    /// restart/loss accounting — so the per-shard counter series stay
    /// cumulative (monotone) across engine restarts instead of resetting
    /// with the fresh engine.
    pub fn with_base(mut self, base: EngineStats) -> EngineTelemetry {
        self.base = base;
        self
    }

    /// Record one RTT sample.
    #[inline]
    pub fn observe_rtt(&self, rtt_ns: u64) {
        self.rtt_ns.observe(rtt_ns);
    }

    /// Record one hand-off batch's processing latency.
    pub fn observe_batch_ns(&self, ns: u64) {
        self.batch_ns.observe(ns);
    }

    /// Record one epoch rotation: what it swept plus its wall-clock pause.
    pub fn observe_rotation(&self, rotation: &EpochRotation, pause_ns: u64) {
        self.rotations.inc();
        self.rot_flows_carried.add(rotation.flows_carried);
        self.rot_flows_dropped.add(rotation.flows_dropped);
        self.rot_records_dropped.add(rotation.records_dropped);
        self.rot_pause_ns.observe(pause_ns);
    }

    /// Publish each table's `(occupied slots, resident bytes)`, in
    /// [`TABLES`] order.
    pub(crate) fn sync_tables(&self, tables: [(usize, usize); 2]) {
        for ((occupied, bytes), (slots_gauge, bytes_gauge)) in tables.iter().zip(&self.tables) {
            slots_gauge.set(*occupied as i64);
            bytes_gauge.set(*bytes as i64);
        }
    }

    /// Publish the recirculation port's depth books: the gauge shows the
    /// records `in_flight` now, the histogram gains the submissions the
    /// port has counted between `since` and `now`.
    pub(crate) fn sync_recirc(&self, in_flight: usize, since: &RecircStats, now: &RecircStats) {
        self.queue_depth.set(in_flight as i64);
        let mut fresh = now.depth_log2;
        for (n, before) in fresh.iter_mut().zip(since.depth_log2) {
            *n -= before;
        }
        self.queue_depth_records
            .add_counts(&fresh, now.depth_sum - since.depth_sum);
    }
}

/// Driver-level per-stage timing histograms (`dart_stage_*_ns`): the
/// pipeline self-profile a long-running daemon exposes. The *driver* owns
/// the clock ([`drive_timed`](crate::monitor::drive_timed)) — decode is the
/// time spent pulling the next block from the
/// [`PacketSource`](dart_packet::PacketSource), match is the
/// [`RttMonitor::on_batch`] call, flush covers flushes and epoch rotations
/// — so the engine hot path stays free of timing syscalls and the <3%
/// telemetry overhead budget holds (observing a pre-measured duration is
/// one atomic add into a log2 bucket).
#[derive(Clone)]
pub struct StageTimers {
    decode_ns: Histogram,
    match_ns: Histogram,
    flush_ns: Histogram,
}

impl StageTimers {
    /// Register the three stage histograms in `registry`.
    pub fn register(registry: &MetricRegistry) -> StageTimers {
        let histogram = |row: Family| registry.histogram(row.name, &[], row.help);
        StageTimers {
            decode_ns: histogram(STAGE_DECODE_NS),
            match_ns: histogram(STAGE_MATCH_NS),
            flush_ns: histogram(STAGE_FLUSH_NS),
        }
    }

    /// Time `f`, observing the elapsed wall-clock into `stage`'s histogram.
    pub fn time<R>(&self, stage: Stage, f: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match stage {
            Stage::Decode => &self.decode_ns,
            Stage::Match => &self.match_ns,
            Stage::Flush => &self.flush_ns,
        }
        .observe(ns);
        out
    }
}

/// Sink adapter: forwards to the real sink and observes each RTT.
struct ObservingSink<'a> {
    inner: &'a mut dyn SampleSink,
    rtt_ns: &'a Histogram,
}

impl SampleSink for ObservingSink<'_> {
    fn on_sample(&mut self, sample: RttSample) {
        self.rtt_ns.observe(sample.rtt);
        self.inner.on_sample(sample);
    }

    fn on_event(&mut self, ev: EngineEvent) {
        self.inner.on_event(ev);
    }
}

/// Driver-level instrumentation for any [`RttMonitor`]: run-level counters
/// mirrored from [`RttMonitor::stats`] plus a run-level RTT histogram fed
/// from the sample stream. Engines that buffer samples until flush (the
/// sharded fan-in) populate `dart_run_rtt_ns` only at flush — their live
/// view is the in-engine per-shard `dart_rtt_ns`.
pub struct MeteredMonitor {
    inner: Box<dyn RttMonitor>,
    /// Parallel to [`EngineStats::metric_rows`] order.
    counters: Vec<Counter>,
    rtt_ns: Histogram,
    seen: u64,
}

impl MeteredMonitor {
    /// Wrap `inner`, registering the `dart_run_*` series in `registry`.
    pub fn new(inner: Box<dyn RttMonitor>, registry: &MetricRegistry) -> MeteredMonitor {
        let monitor = MeteredMonitor {
            counters: (RUN_COUNTERS.instances().iter())
                .map(|(name, help)| registry.counter(name, &[], help))
                .collect(),
            rtt_ns: registry.histogram(RUN_RTT_NS.name, &[], RUN_RTT_NS.help),
            seen: 0,
            inner,
        };
        monitor.sync();
        monitor
    }

    fn sync(&self) {
        let stats = self.inner.stats();
        for ((_, value), counter) in stats.metric_rows().iter().zip(&self.counters) {
            counter.store(*value);
        }
    }

    /// The wrapped monitor.
    pub fn inner(&self) -> &dyn RttMonitor {
        self.inner.as_ref()
    }
}

impl RttMonitor for MeteredMonitor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn on_packet(&mut self, pkt: &dart_packet::PacketMeta, sink: &mut dyn SampleSink) {
        let mut observing = ObservingSink {
            inner: sink,
            rtt_ns: &self.rtt_ns,
        };
        self.inner.on_packet(pkt, &mut observing);
        self.seen += 1;
        if self.seen.is_multiple_of(SYNC_INTERVAL_PKTS) {
            self.sync();
        }
    }

    /// Forwards the whole block to the wrapped monitor's batch path and
    /// publishes counters once at the block boundary — the run-level
    /// sync-point is per block, not per packet, on batch drivers.
    fn on_batch(&mut self, pkts: &[dart_packet::PacketMeta], sink: &mut dyn SampleSink) {
        let mut observing = ObservingSink {
            inner: sink,
            rtt_ns: &self.rtt_ns,
        };
        self.inner.on_batch(pkts, &mut observing);
        self.seen += pkts.len() as u64;
        self.sync();
    }

    fn flush(&mut self, sink: &mut dyn SampleSink) {
        let mut observing = ObservingSink {
            inner: sink,
            rtt_ns: &self.rtt_ns,
        };
        self.inner.flush(&mut observing);
        self.sync();
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DartConfig;
    use crate::engine::DartEngine;
    use crate::monitor::run_monitor_slice;
    use dart_packet::{Direction, FlowKey, PacketBuilder, PacketMeta};

    fn exchange(n: u32) -> Vec<PacketMeta> {
        let mut pkts = Vec::new();
        for i in 0..n {
            let f = FlowKey::from_raw(0x0a00_0000 + i, 40000, 0x5db8_d822, 443);
            pkts.push(
                PacketBuilder::new(f, u64::from(i) * 1_000)
                    .seq(0u32)
                    .payload(1460)
                    .dir(Direction::Outbound)
                    .build(),
            );
            pkts.push(
                PacketBuilder::new(f.reverse(), u64::from(i) * 1_000 + 20_000_000)
                    .ack(1460u32)
                    .dir(Direction::Inbound)
                    .build(),
            );
        }
        pkts
    }

    #[test]
    fn engine_publishes_counters_and_rtt() {
        let registry = MetricRegistry::new();
        let mut engine = DartEngine::new(DartConfig::default());
        engine.attach_telemetry(EngineTelemetry::register(&registry, 0));
        let (samples, stats) = run_monitor_slice(&mut engine, &exchange(5));
        assert_eq!(samples.len(), 5);
        let snap = registry.scrape();
        let packets = snap
            .samples
            .iter()
            .find(|s| s.key() == format!("{}{{shard=\"0\"}}", SHARD_COUNTERS.name_for("packets")))
            .expect("per-shard packet counter registered");
        match &packets.value {
            dart_telemetry::MetricValue::Counter { total, .. } => {
                assert_eq!(*total, stats.packets);
            }
            other => panic!("expected counter, got {other:?}"),
        }
        let rtt = snap
            .samples
            .iter()
            .find(|s| s.key() == format!("{}{{shard=\"0\"}}", RTT_NS.name))
            .expect("rtt histogram registered");
        match &rtt.value {
            dart_telemetry::MetricValue::Histogram { hist, .. } => {
                assert_eq!(hist.count(), stats.samples);
                // All five RTTs are 20 ms; the log2 bucket estimate must
                // land within a factor of two.
                assert_eq!(hist.quantile(0.5), Some((1 << 25) - 1));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    /// One block body serves every entry point and publishes nothing; the
    /// cadence is the entry point's own. A per-packet caller does not pay a
    /// publication per packet.
    #[test]
    fn publication_cadence_follows_the_entry_point() {
        let registry = MetricRegistry::new();
        let mut engine = DartEngine::new(DartConfig::default());
        engine.attach_telemetry(EngineTelemetry::register(&registry, 0));
        let published =
            registry.counter(&SHARD_COUNTERS.name_for("packets"), &[("shard", "0")], "");
        let interval = SYNC_INTERVAL_PKTS as usize;
        let pkts = exchange(SYNC_INTERVAL_PKTS as u32);
        let mut sink: Vec<RttSample> = Vec::new();
        for p in &pkts[..interval - 1] {
            engine.on_packet(p, &mut sink);
        }
        assert_eq!(published.get(), 0, "nothing published below the interval");
        engine.on_packet(&pkts[interval - 1], &mut sink);
        assert_eq!(published.get(), SYNC_INTERVAL_PKTS);
        engine.on_batch(&pkts[interval..interval + 3], &mut sink);
        assert_eq!(published.get(), SYNC_INTERVAL_PKTS + 3, "block boundary");
        engine.on_packet(&pkts[interval + 3], &mut sink);
        assert_eq!(published.get(), SYNC_INTERVAL_PKTS + 3, "off the interval");
        engine.flush(&mut sink);
        assert_eq!(published.get(), SYNC_INTERVAL_PKTS + 4, "flush publishes");
    }

    #[test]
    fn metered_monitor_mirrors_any_engine() {
        let registry = MetricRegistry::new();
        let inner = Box::new(DartEngine::new(DartConfig::default()));
        let mut metered = MeteredMonitor::new(inner, &registry);
        let (samples, stats) = run_monitor_slice(&mut metered, &exchange(3));
        assert_eq!(samples.len(), 3);
        let snap = registry.scrape();
        let get = |key: &str| {
            snap.samples
                .iter()
                .find(|s| s.key() == key)
                .unwrap_or_else(|| panic!("missing series {key}"))
                .value
                .clone()
        };
        match get(&RUN_COUNTERS.name_for("packets")) {
            dart_telemetry::MetricValue::Counter { total, .. } => {
                assert_eq!(total, stats.packets);
            }
            other => panic!("expected counter, got {other:?}"),
        }
        match get(&RUN_COUNTERS.name_for("samples")) {
            dart_telemetry::MetricValue::Counter { total, .. } => {
                assert_eq!(total, stats.samples);
            }
            other => panic!("expected counter, got {other:?}"),
        }
        match get(RUN_RTT_NS.name) {
            dart_telemetry::MetricValue::Histogram { hist, .. } => {
                assert_eq!(hist.count(), stats.samples);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn recirc_queue_depth_gauge_tracks_submissions() {
        // A 1-slot PT with two flows forces an eviction into the loop; the
        // gauge must show it in flight until the delayed re-entry drains it.
        let registry = MetricRegistry::new();
        let cfg = DartConfig::default().with_pt(1, 1).with_max_recirc(4);
        let mut engine = DartEngine::new(cfg);
        engine.attach_telemetry(EngineTelemetry::register(&registry, 0));
        let mut sink: Vec<RttSample> = Vec::new();
        let fa = FlowKey::from_raw(0x0a00_0001, 40000, 0x5db8_d822, 443);
        let fb = FlowKey::from_raw(0x0a00_0002, 40000, 0x5db8_d822, 443);
        for (f, t) in [(fa, 0u64), (fb, 1_000)] {
            engine.on_packet(
                &PacketBuilder::new(f, t)
                    .seq(0u32)
                    .payload(100)
                    .dir(Direction::Outbound)
                    .build(),
                &mut sink,
            );
        }
        let gauge = registry.gauge(RECIRC_QUEUE_DEPTH.name, &[("shard", "0")], "");
        assert_eq!(gauge.get(), 0, "the port publishes nothing per operation");
        engine.sync_telemetry();
        assert_eq!(gauge.get(), 1, "one record in flight after the eviction");
        engine.flush(&mut sink);
        assert_eq!(gauge.get(), 0, "flush drains the loop");
        let dist = registry.histogram(RECIRC_QUEUE_DEPTH_RECORDS.name, &[("shard", "0")], "");
        assert_eq!(dist.count(), 1, "one submission observed");
    }
}
