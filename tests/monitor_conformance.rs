//! Conformance properties for the [`RttMonitor`] contract, checked for
//! every engine in the standard registry (plus the dynamically named
//! sharded variants): whatever an engine does internally, driving it
//! through the trait must be indistinguishable from its batch path.
//!
//! Four contracts from `dart_core::monitor`'s module docs, each over the
//! whole output — samples and engine events, recorded by one sink,
//! [`Emissions`], in emission order:
//!
//! * **Batch/streaming equivalence** — feeding packets one at a time via
//!   `on_packet` then flushing yields byte-identical output and stats to
//!   the block driver (`run_monitor`) on a fresh instance.
//! * **Block-split invariance** — delivering the stream through `on_batch`
//!   over *any* split into blocks (empty and size-1 included) is
//!   indistinguishable from the per-packet path. For the baselines that
//!   is a real `on_packet` body under the default `on_batch` loop; for the
//!   Dart rows, whose engine has one body, "per-packet" is the one-packet
//!   split of it.
//! * **Flush idempotence** — a second `flush` emits nothing and leaves
//!   `stats()` unchanged, through the batch path too.
//! * **Chunked sources** — streaming through a [`PacketSource`] that hands
//!   out bounded, copied chunks equals the zero-copy slice path, so traces
//!   never need full materialization.

use dart::baselines::EngineRegistry;
use dart::core::{
    run_monitor, DartConfig, EngineEvent, EngineStats, RttMonitor, RttSample, SampleSink,
};
use dart::packet::{FlowKey, PacketError, PacketMeta, PacketSource, SliceSource};
use dart::sim::scenario::{campus, CampusConfig};
use dart::sim::spin::SpinFlowConfig;
use dart::sim::spin_flow;
use proptest::prelude::*;

/// Randomized lossy/reordered campus workloads, kept small enough for a
/// property-test budget across ~13 engines.
fn trace_params() -> impl Strategy<Value = (u64, usize, f64, f64)> {
    (
        0u64..10_000, // seed
        15usize..60,  // connections
        0.0f64..0.05, // mean loss
        0.0f64..0.02, // reorder probability
    )
}

/// A mixed TCP + QUIC capture: every conformance contract is checked over
/// traffic both packet families see, so the spin-bit engine's edge state
/// and the SEQ/ACK engines' blindness to QUIC get the same coverage.
fn make_trace(seed: u64, connections: usize, loss: f64, reorder: f64) -> Vec<PacketMeta> {
    let mut pkts = campus(CampusConfig {
        connections,
        duration: dart::packet::SECOND,
        seed,
        mean_loss: loss,
        reorder,
        ..CampusConfig::default()
    })
    .packets;
    for i in 0..2u32 {
        pkts.extend(spin_flow(SpinFlowConfig {
            flow: FlowKey::from_raw(0x0a0c_0000 + i, 42_000 + i as u16, 0x5db8_d9f0 + i, 443),
            duration: dart::packet::SECOND,
            seed: seed ^ (0x51C0 + i as u64),
            ..SpinFlowConfig::default()
        }));
    }
    pkts.sort_by_key(|p| p.ts);
    pkts
}

/// Every name the conformance suite exercises: the static registry plus a
/// dynamically resolved shard count.
fn engine_names(registry: &EngineRegistry) -> Vec<String> {
    let mut names: Vec<String> = registry.names().iter().map(|s| s.to_string()).collect();
    names.push("dart-sharded-3".to_string());
    names
}

/// One thing a monitor emitted.
#[derive(Debug, PartialEq)]
enum Emission {
    Sample(RttSample),
    Event(EngineEvent),
}

/// The one recording sink: everything a monitor emits, in emission order.
#[derive(Debug, Default, PartialEq)]
struct Emissions(Vec<Emission>);

impl SampleSink for Emissions {
    fn on_sample(&mut self, sample: RttSample) {
        self.0.push(Emission::Sample(sample));
    }

    fn on_event(&mut self, ev: EngineEvent) {
        self.0.push(Emission::Event(ev));
    }
}

/// Drive `monitor` through the block driver to the end of `source`,
/// recording everything it emits.
fn record(monitor: &mut dyn RttMonitor, source: impl PacketSource) -> (Vec<Emission>, EngineStats) {
    let mut out = Emissions::default();
    let stats = run_monitor(monitor, source, &mut out).unwrap();
    (out.0, stats)
}

/// A source that copies the trace out through `next_chunk`, at most 97
/// packets a pull, where the slice source lends it in place.
struct Chunked<'a>(&'a [PacketMeta]);

impl PacketSource for Chunked<'_> {
    fn next_chunk(&mut self, buf: &mut Vec<PacketMeta>, max: usize) -> Result<usize, PacketError> {
        let (chunk, rest) = self.0.split_at(max.min(97).min(self.0.len()));
        buf.clear();
        buf.extend_from_slice(chunk);
        self.0 = rest;
        Ok(buf.len())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batch (`run_monitor_slice`) and per-packet streaming produce
    /// identical sample streams and identical final stats for every
    /// registered engine, and a second flush is a no-op.
    #[test]
    fn streaming_equals_batch_and_flush_is_idempotent(
        (seed, conns, loss, reorder) in trace_params()
    ) {
        let pkts = make_trace(seed, conns, loss, reorder);
        let registry = EngineRegistry::standard();
        let cfg = DartConfig::default();
        for name in engine_names(&registry) {
            let mut batch = registry.build(&name, &cfg).unwrap();
            let (expected, expected_stats) =
                record(batch.monitor.as_mut(), SliceSource::new(&pkts));

            let mut streamed = registry.build(&name, &cfg).unwrap();
            let mut got = Emissions::default();
            for p in &pkts {
                streamed.monitor.on_packet(p, &mut got);
            }
            streamed.monitor.flush(&mut got);
            prop_assert_eq!(&got.0, &expected, "output diverges for {}", &name);
            prop_assert_eq!(streamed.monitor.stats(), expected_stats,
                "stats diverge for {}", &name);

            // Idempotence: flushing again must change nothing.
            let before = got.0.len();
            streamed.monitor.flush(&mut got);
            prop_assert_eq!(got.0.len(), before, "second flush emitted for {}", &name);
            prop_assert_eq!(streamed.monitor.stats(), expected_stats,
                "second flush changed stats for {}", &name);
        }
    }

    /// Delivering the trace through `on_batch` over a random split into
    /// blocks — empty and size-1 blocks included — produces byte-identical
    /// samples and stats to the per-packet path, for every registered
    /// engine (default fallback and Dart's specialized batch pipeline),
    /// and flushing again through the batch path is a no-op.
    #[test]
    fn batched_splits_equal_per_packet(
        (seed, conns, loss, reorder) in trace_params(),
        splits in prop::collection::vec(0usize..70, 1..40)
    ) {
        let pkts = make_trace(seed, conns, loss, reorder);
        let registry = EngineRegistry::standard();
        let cfg = DartConfig::default();
        for name in engine_names(&registry) {
            let mut per_packet = registry.build(&name, &cfg).unwrap();
            let mut expected = Emissions::default();
            for p in &pkts {
                per_packet.monitor.on_packet(p, &mut expected);
            }
            per_packet.monitor.flush(&mut expected);
            let expected_stats = per_packet.monitor.stats();

            let mut batched = registry.build(&name, &cfg).unwrap();
            let mut got = Emissions::default();
            let mut off = 0;
            let mut s = 0;
            while off < pkts.len() {
                // Cycle the random split list; finish with the tail so the
                // whole trace is always delivered.
                let len = if s < splits.len() {
                    splits[s].min(pkts.len() - off)
                } else {
                    pkts.len() - off
                };
                batched.monitor.on_batch(&pkts[off..off + len], &mut got);
                off += len;
                s += 1;
            }
            batched.monitor.flush(&mut got);
            prop_assert_eq!(&got, &expected, "batched output diverges for {}", &name);
            prop_assert_eq!(batched.monitor.stats(), expected_stats,
                "batched stats diverge for {}", &name);

            // Flush idempotence through the batch path.
            let before = got.0.len();
            batched.monitor.flush(&mut got);
            prop_assert_eq!(got.0.len(), before, "second flush emitted for {}", &name);
            prop_assert_eq!(batched.monitor.stats(), expected_stats,
                "second flush changed stats for {}", &name);
        }
    }

    /// Driving a [`PacketSource`] that copies bounded chunks equals the
    /// slice path for every registered engine.
    #[test]
    fn chunked_source_equals_slice(
        (seed, conns, loss, reorder) in trace_params()
    ) {
        let pkts = make_trace(seed, conns, loss, reorder);
        let registry = EngineRegistry::standard();
        let cfg = DartConfig::default();
        for name in engine_names(&registry) {
            let mut batch = registry.build(&name, &cfg).unwrap();
            let (expected, expected_stats) =
                record(batch.monitor.as_mut(), SliceSource::new(&pkts));

            let mut sourced = registry.build(&name, &cfg).unwrap();
            let (got, stats) = record(sourced.monitor.as_mut(), Chunked(&pkts));
            prop_assert_eq!(&got, &expected, "output diverges for {}", &name);
            prop_assert_eq!(stats, expected_stats, "stats diverge for {}", &name);
        }
    }
}
