//! A P4TG-style in-dataplane histogram engine: Dart's RT/PT matching in
//! front, but *no per-sample export stream*. Every matched RTT is binned
//! on the spot into log2 registers ([`dart_telemetry::Histogram`] — the
//! same power-of-two bucketing a Tofino register array implements with a
//! priority TCAM range match), and only the histogram snapshot leaves the
//! data plane at flush time.
//!
//! This is the line-rate answer to the paper's daemon bottleneck (§6.3):
//! the export cost is O(buckets), independent of traffic volume. The price
//! is resolution — per-flow identity and exact values are gone; only the
//! distribution shape survives, at factor-of-two granularity.
//!
//! **Export encoding.** So the differential runner (and anything else
//! speaking [`RttSample`]) can consume the snapshot without a second
//! sample type, `flush` emits one *weighted* sample per non-empty bucket,
//! bridging through the same fixed-point weight the Fridge engine's
//! [`WeightedSample`](crate::fridge::WeightedSample) uses:
//!
//! * `flow` — the all-zero [`FlowKey`] ([`HistMonitor::bucket_flow`]): no
//!   per-flow identity survives binning;
//! * `eack` — the bucket index;
//! * `rtt` — the bucket's inclusive upper bound (`2^i − 1`), which
//!   [`dart_telemetry::histogram::bucket_index`] maps back to bucket `i`;
//! * `weight` — the bucket count (clamped at ≈4.29 M per bucket by the
//!   fixed-point encoding; beyond any trace the testkit runs).
//!
//! The testkit reconstructs the snapshot from these rows and judges it at
//! distribution level: engine p50/p99 bucket indices within ±1 of the
//! oracle's exact-RTT histogram (the `Histogram` judgement contract,
//! DESIGN.md §5g).

use dart_core::{
    DartConfig, DartEngine, EngineStats, RttMonitor, RttSample, SampleSink, SampleWeight,
};
use dart_packet::{FlowKey, Nanos, PacketMeta, SeqNum};
use dart_telemetry::histogram::{bucket_le, Histogram};

/// The histogram monitor: registry name `dart-hist`.
pub struct HistMonitor {
    engine: DartEngine,
    hist: Histogram,
    last_ts: Nanos,
    flushed: bool,
}

impl HistMonitor {
    /// Build around a Dart engine configured by `cfg`.
    pub fn new(cfg: DartConfig) -> HistMonitor {
        HistMonitor {
            engine: DartEngine::new(cfg),
            hist: Histogram::new(),
            last_ts: 0,
            flushed: false,
        }
    }

    /// The sentinel flow key carried by exported bucket rows.
    pub fn bucket_flow() -> FlowKey {
        FlowKey::from_raw(0, 0, 0, 0)
    }
}

impl RttMonitor for HistMonitor {
    fn name(&self) -> &str {
        "dart-hist"
    }

    fn describe(&self) -> String {
        "P4TG-style data-plane histogram: Dart matching binned into log2 \
         registers, snapshot-only export"
            .to_string()
    }

    fn on_packet(&mut self, pkt: &PacketMeta, _sink: &mut dyn SampleSink) {
        self.last_ts = self.last_ts.max(pkt.ts);
        let hist = &self.hist;
        let mut bin = |s: RttSample| hist.observe(s.rtt);
        self.engine.on_packet(pkt, &mut bin);
    }

    fn on_batch(&mut self, pkts: &[PacketMeta], _sink: &mut dyn SampleSink) {
        if let Some(last) = pkts.last() {
            self.last_ts = self.last_ts.max(last.ts);
        }
        let hist = &self.hist;
        let mut bin = |s: RttSample| hist.observe(s.rtt);
        self.engine.on_batch(pkts, &mut bin);
    }

    fn flush(&mut self, sink: &mut dyn SampleSink) {
        if self.flushed {
            return;
        }
        self.flushed = true;
        let hist = &self.hist;
        let mut bin = |s: RttSample| hist.observe(s.rtt);
        self.engine.flush(&mut bin);
        // Export: one weighted row per non-empty bucket, bucket index
        // recoverable from either `eack` or `bucket_index(rtt)`.
        let snap = self.hist.snapshot();
        for (i, &count) in snap.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let upper = bucket_le(i).unwrap_or(u64::MAX);
            sink.on_sample(
                RttSample::new(Self::bucket_flow(), SeqNum(i as u32), upper, self.last_ts)
                    .with_weight(SampleWeight::from_f64(count as f64)),
            );
        }
    }

    fn stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_core::run_monitor_slice;
    use dart_packet::{Direction, PacketBuilder};
    use dart_telemetry::histogram::bucket_index;

    fn exchange(rtt: Nanos, port: u16, ts: Nanos) -> Vec<PacketMeta> {
        let f = FlowKey::from_raw(0x0a00_0001, port, 0x5db8_d822, 443);
        vec![
            PacketBuilder::new(f, ts)
                .seq(0u32)
                .payload(1000)
                .dir(Direction::Outbound)
                .build(),
            PacketBuilder::new(f.reverse(), ts + rtt)
                .ack(1000u32)
                .dir(Direction::Inbound)
                .build(),
        ]
    }

    #[test]
    fn bins_matches_and_exports_bucket_rows() {
        let mut pkts = Vec::new();
        pkts.extend(exchange(20_000_000, 40_001, 0)); // ~20 ms
        pkts.extend(exchange(21_000_000, 40_002, 1_000)); // same bucket
        pkts.extend(exchange(200_000_000, 40_003, 2_000)); // ~200 ms
        pkts.sort_by_key(|p| p.ts);
        let mut eng = HistMonitor::new(DartConfig::default());
        let (rows, stats) = run_monitor_slice(&mut eng, &pkts);
        assert_eq!(stats.packets, pkts.len() as u64);
        assert_eq!(stats.samples, 3, "Dart matched all three exchanges");
        // Two distinct buckets, counts 2 and 1.
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.flow, HistMonitor::bucket_flow());
            assert_eq!(bucket_index(row.rtt) as u32, row.eack.raw());
        }
        let counts: Vec<u64> = rows
            .iter()
            .map(|r| r.weight.as_f64().round() as u64)
            .collect();
        assert_eq!(counts.iter().sum::<u64>(), 3);
        assert!(counts.contains(&2));
    }

    #[test]
    fn flush_is_idempotent_and_export_is_flush_only() {
        let pkts = exchange(10_000_000, 40_009, 0);
        let mut eng = HistMonitor::new(DartConfig::default());
        let mut rows: Vec<RttSample> = Vec::new();
        for p in &pkts {
            eng.on_packet(p, &mut rows);
        }
        assert!(rows.is_empty(), "no per-sample stream before flush");
        eng.flush(&mut rows);
        let after_first = rows.len();
        assert!(after_first > 0);
        let stats = eng.stats();
        eng.flush(&mut rows);
        assert_eq!(rows.len(), after_first, "second flush emitted");
        assert_eq!(eng.stats(), stats);
    }
}
