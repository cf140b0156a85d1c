//! Property tests for the flow-sharded engine: sharding must not change
//! what Dart measures, only how the work is scheduled.
//!
//! Two contracts (see `dart_core::sharded` for why they differ):
//!
//! * With unlimited tables (no cross-flow hash interaction) the sharded
//!   engine reproduces the serial engine's samples *exactly* — same
//!   samples, same merged order — at every shard count, on arbitrarily
//!   lossy/reordered traces.
//! * With constrained (hardware-shaped) tables, one shard driven through
//!   the full threaded feeder/worker/merge path is bit-identical to the
//!   serial engine: samples, order, and every stats counter.

use dart::core::{
    run_monitor, DartConfig, DartEngine, EngineEvent, RttMonitor, RttSample, SampleSink,
    ShardedConfig, ShardedMonitor,
};
use dart::packet::{FlowKey, PacketMeta, SliceSource};
use dart::sim::scenario::{campus, CampusConfig};
use dart_testkit::run_per_packet;
use proptest::prelude::*;
use std::collections::HashMap;

/// Randomized lossy/reordered campus workloads, kept small enough for a
/// property-test budget.
fn trace_params() -> impl Strategy<Value = (u64, usize, f64, f64)> {
    (
        0u64..10_000, // seed
        20usize..100, // connections
        0.0f64..0.05, // mean loss
        0.0f64..0.02, // reorder probability
    )
}

fn make_trace(
    seed: u64,
    connections: usize,
    loss: f64,
    reorder: f64,
) -> Vec<dart::packet::PacketMeta> {
    campus(CampusConfig {
        connections,
        duration: dart::packet::SECOND,
        seed,
        mean_loss: loss,
        reorder,
        ..CampusConfig::default()
    })
    .packets
}

/// What a flush hands its sink: the samples and the events, each in
/// emission order.
#[derive(Default)]
struct Emitted {
    samples: Vec<RttSample>,
    events: Vec<EngineEvent>,
}

impl SampleSink for Emitted {
    fn on_sample(&mut self, s: RttSample) {
        self.samples.push(s);
    }

    fn on_event(&mut self, ev: EngineEvent) {
        self.events.push(ev);
    }
}

/// A whole-trace sharded replay through the full threaded
/// feeder/worker/merge path (at one shard too): the merged stream its
/// flush emitted, and the flushed monitor, whose accessors report the
/// counters.
fn run_sharded(cfg: ShardedConfig, pkts: &[PacketMeta]) -> (Emitted, ShardedMonitor) {
    let mut monitor = ShardedMonitor::new(cfg);
    let mut out = Emitted::default();
    run_monitor(&mut monitor, SliceSource::new(pkts), &mut out)
        .expect("slice sources are infallible");
    (out, monitor)
}

/// Per-flow sample multiset: flow → sorted (eack, rtt, ts) triples.
fn per_flow(samples: &[RttSample]) -> HashMap<FlowKey, Vec<(u32, u64, u64)>> {
    let mut map: HashMap<FlowKey, Vec<(u32, u64, u64)>> = HashMap::new();
    for s in samples {
        map.entry(s.flow)
            .or_default()
            .push((s.eack.raw(), s.rtt, s.ts));
    }
    for v in map.values_mut() {
        v.sort_unstable();
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Unlimited tables: every shard count reproduces the serial samples
    /// exactly, in the same merged order.
    #[test]
    fn unlimited_sharded_equals_serial((seed, conns, loss, reorder) in trace_params()) {
        let pkts = make_trace(seed, conns, loss, reorder);
        let (serial, serial_stats) = run_per_packet(&mut DartEngine::new(DartConfig::unlimited()), &pkts);
        for shards in [1usize, 2, 4, 8] {
            let (out, monitor) =
                run_sharded(ShardedConfig::new(DartConfig::unlimited(), shards), &pkts);
            prop_assert_eq!(&out.samples, &serial, "shards = {}", shards);
            prop_assert_eq!(monitor.stats().packets, serial_stats.packets);
            prop_assert_eq!(monitor.stats().samples, serial_stats.samples);
        }
    }

    /// Unlimited tables: the per-flow RTT sample multiset is shard-count
    /// invariant (a flow's measurements never depend on which shard ran it).
    #[test]
    fn per_flow_multiset_is_shard_invariant((seed, conns, loss, reorder) in trace_params()) {
        let pkts = make_trace(seed, conns, loss, reorder);
        let (serial, _) = run_per_packet(&mut DartEngine::new(DartConfig::unlimited()), &pkts);
        let reference = per_flow(&serial);
        for shards in [2usize, 4, 8] {
            let (out, _) = run_sharded(ShardedConfig::new(DartConfig::unlimited(), shards), &pkts);
            prop_assert_eq!(per_flow(&out.samples), reference.clone(), "shards = {}", shards);
        }
    }

    /// Constrained tables, one shard, full threaded path: bit-identical to
    /// the serial engine — the faithful-reproduction mode.
    #[test]
    fn one_shard_threaded_is_bit_identical((seed, conns, loss, reorder) in trace_params()) {
        let pkts = make_trace(seed, conns, loss, reorder);
        let cfg = DartConfig::default().with_rt(1 << 12).with_pt(1 << 8, 1);
        let (serial, serial_stats) = run_per_packet(&mut DartEngine::new(cfg), &pkts);
        let (out, monitor) = run_sharded(ShardedConfig::new(cfg, 1).with_batch_size(256), &pkts);
        prop_assert_eq!(out.samples, serial);
        prop_assert_eq!(monitor.stats(), serial_stats);
    }

    /// Sharded runs are reproducible: identical output across repeated runs
    /// regardless of thread scheduling, at any batch size.
    #[test]
    fn sharded_runs_are_reproducible(
        (seed, conns, loss, reorder) in trace_params(),
        batch in 1usize..2048,
    ) {
        let pkts = make_trace(seed, conns, loss, reorder);
        let cfg = DartConfig::default().with_rt(1 << 12).with_pt(1 << 8, 1);
        let sharded = ShardedConfig::new(cfg, 4).with_batch_size(batch);
        let (a, a_monitor) = run_sharded(sharded, &pkts);
        let (b, b_monitor) = run_sharded(sharded, &pkts);
        prop_assert_eq!(a.samples, b.samples);
        prop_assert_eq!(a_monitor.stats(), b_monitor.stats());
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a_monitor.per_shard(), b_monitor.per_shard());
    }
}
