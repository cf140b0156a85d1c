//! One stream at any drain cadence: the sharded runtime emits its samples
//! and engine events in drain rounds while it runs, and whatever the
//! driver's split of the trace and wherever `drain` is called, everything
//! its sink receives, concatenated, is the serial engine's stream — samples
//! and events interleaved as the serial engine emits them. At one shard on
//! the default (constrained) configuration, and at any shard count under
//! unlimited tables, where no cross-flow interaction depends on the shard.

use dart::core::{
    DartConfig, DartEngine, EngineEvent, RttMonitor, RttSample, SampleSink, ShardedConfig,
    ShardedMonitor,
};
use dart::packet::{PacketMeta, SECOND};
use dart::sim::scenario::{campus, CampusConfig};
use proptest::prelude::*;

/// One emission, as the sink saw it.
#[derive(Debug, PartialEq)]
enum Out {
    Sample(RttSample),
    Event(EngineEvent),
}

/// Everything a sink received, in order.
#[derive(Default)]
struct Stream(Vec<Out>);

impl SampleSink for Stream {
    fn on_sample(&mut self, s: RttSample) {
        self.0.push(Out::Sample(s));
    }

    fn on_event(&mut self, ev: EngineEvent) {
        self.0.push(Out::Event(ev));
    }
}

/// The serial engine's stream over the whole trace.
fn serial(cfg: DartConfig, pkts: &[PacketMeta]) -> Vec<Out> {
    let mut engine = DartEngine::new(cfg);
    let mut out = Stream::default();
    engine.on_batch(pkts, &mut out);
    engine.flush(&mut out);
    out.0
}

/// The sharded stream with the trace cut into pieces by `steps`, taken in
/// turn and cycled: `(len, how)` feeds the next `len` packets through
/// `on_batch` (`how` even) or one `on_packet` each (odd), and drains
/// after them when `how >= 2`. The flush ends the run.
fn sharded(cfg: ShardedConfig, pkts: &[PacketMeta], steps: &[(usize, u8)]) -> Vec<Out> {
    let mut monitor = ShardedMonitor::new(cfg);
    let mut out = Stream::default();
    let mut rest = pkts;
    for &(len, how) in steps.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (piece, tail) = rest.split_at(len.min(rest.len()));
        rest = tail;
        if how % 2 == 0 {
            monitor.on_batch(piece, &mut out);
        } else {
            for p in piece {
                monitor.on_packet(p, &mut out);
            }
        }
        if how >= 2 {
            monitor.drain(&mut out);
        }
    }
    monitor.flush(&mut out);
    out.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn drains_concatenate_to_the_serial_stream(
        seed in 0u64..10_000,
        connections in 10usize..60,
        loss in 0.0f64..0.05,
        steps in prop::collection::vec((1usize..600, 0u8..4), 1..24),
        shards in 2usize..5,
        batch in 1usize..300,
    ) {
        let pkts = campus(CampusConfig {
            connections,
            duration: SECOND,
            seed,
            mean_loss: loss,
            ..CampusConfig::default()
        })
        .packets;
        let one = ShardedConfig::new(DartConfig::default(), 1).with_batch_size(batch);
        prop_assert_eq!(
            sharded(one, &pkts, &steps),
            serial(DartConfig::default(), &pkts),
            "one shard, default tables"
        );
        let many = ShardedConfig::new(DartConfig::unlimited(), shards).with_batch_size(batch);
        prop_assert_eq!(
            sharded(many, &pkts, &steps),
            serial(DartConfig::unlimited(), &pkts),
            "{} shards, unlimited tables",
            shards
        );
    }
}
