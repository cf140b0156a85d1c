//! Shared by the in-process daemon suites.

use dart_core::sharded::ShardedConfig;
use dart_core::{DartConfig, RttSample, SampleSink};
use dart_packet::{Direction, FlowKey, Nanos, PacketBuilder, PacketMeta};
use dart_tools::DaemonConfig;
use std::time::Duration;

/// `count` rounds of one data/ACK exchange on each of `flows` flows.
pub fn exchanges(flows: u32, count: u32) -> Vec<PacketMeta> {
    let mut pkts = Vec::new();
    for e in 0..count {
        for fi in 0..flows {
            let flow = FlowKey::from_raw(0x0a00_0100 + fi, 40_000 + fi as u16, 0x5db8_d822, 443);
            let t = (e as Nanos) * 10_000_000 + (fi as Nanos) * 1_000;
            pkts.push(
                PacketBuilder::new(flow, t)
                    .seq(e * 1460)
                    .payload(1460)
                    .dir(Direction::Outbound)
                    .build(),
            );
            pkts.push(
                PacketBuilder::new(flow.reverse(), t + 5_000_000)
                    .ack((e * 1460).wrapping_add(1460))
                    .dir(Direction::Inbound)
                    .build(),
            );
        }
    }
    pkts.sort_by_key(|p| p.ts);
    pkts
}

/// Two shards, small blocks, and rotation/retention periods short enough
/// for a test to cross several.
pub fn cfg() -> DaemonConfig {
    DaemonConfig {
        sharded: ShardedConfig::new(DartConfig::default(), 2).with_batch_size(64),
        block_pkts: 128,
        rotate_every: Duration::from_millis(20),
        retain: 50_000_000,
        ..DaemonConfig::default()
    }
}

/// A sink that counts the samples reaching it: a daemon run's count must
/// be the `samples` its report counts.
#[derive(Default)]
pub struct Counting(pub u64);

impl SampleSink for Counting {
    fn on_sample(&mut self, _: RttSample) {
        self.0 += 1;
    }
}
