//! Packet-accounting conservation across epoch rotations: every packet a
//! driver feeds must land in exactly one `EngineStats` bucket — processed
//! (`stats.packets`) or shed (`stats.monitor_miss`) — no matter how many
//! rotations interleave with the feed. This is the invariant the daemon's
//! `/healthz` `fed` figure and `DaemonReport::packets` both lean on: a
//! rotation may sweep table state (later ACKs then miss and re-insert),
//! but it must never create or destroy a packet's accounting.

use dart::core::sharded::{ShardedConfig, ShardedMonitor};
use dart::core::{DartConfig, DartEngine, EpochRotation, RttMonitor, RttSample};
use dart::packet::{
    CycleSource, Direction, FlowKey, Nanos, PacketBuilder, PacketMeta, PacketSource,
};

/// `flows` connections, `count` data/ACK exchanges each, time-sorted —
/// plus one trailing data packet per flow whose ACK never arrives, so
/// every pass leaves in-flight tracker state for rotations to sweep.
fn exchanges(flows: u32, count: u32) -> Vec<PacketMeta> {
    let mut pkts = Vec::new();
    for fi in 0..flows {
        let flow = FlowKey::from_raw(0x0a00_0100 + fi, 40_000 + fi as u16, 0x5db8_d822, 443);
        for e in 0..count {
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
        pkts.push(
            PacketBuilder::new(flow, (count as Nanos) * 10_000_000 + (fi as Nanos) * 1_000)
                .seq(count * 1460)
                .payload(1460)
                .dir(Direction::Outbound)
                .build(),
        );
    }
    pkts.sort_by_key(|p| p.ts);
    pkts
}

/// Feed a cycled trace through a monitor in blocks, rotating every
/// `rotate_every_blocks` with a cutoff trailing the newest timestamp.
/// Returns (packets fed, rotations performed, merged rotation totals).
fn drive(
    monitor: &mut dyn RttMonitor,
    passes: u64,
    rotate_every_blocks: usize,
    retain: Nanos,
) -> (u64, u64, EpochRotation) {
    let pkts = exchanges(16, 6);
    let mut source = CycleSource::with_gap(pkts, 1_000_000).with_passes(passes);
    let mut buf: Vec<PacketMeta> = Vec::new();
    let mut sink: Vec<RttSample> = Vec::new();
    let mut fed = 0u64;
    let mut max_ts: Nanos = 0;
    let mut blocks = 0usize;
    let mut rotations = 0u64;
    let mut carried = EpochRotation::default();
    loop {
        let n = source
            .next_chunk(&mut buf, 64)
            .expect("in-memory source is infallible");
        if n == 0 {
            break;
        }
        fed += n as u64;
        max_ts = max_ts.max(buf[n - 1].ts);
        monitor.on_batch(&buf[..n], &mut sink);
        blocks += 1;
        if blocks.is_multiple_of(rotate_every_blocks) {
            carried.merge(&monitor.rotate_epoch(max_ts.saturating_sub(retain)));
            rotations += 1;
        }
    }
    monitor.flush(&mut sink);
    (fed, rotations, carried)
}

#[test]
fn serial_engine_conserves_packets_across_rotations() {
    let mut engine = DartEngine::new(DartConfig::default());
    let (fed, rotations, rotation) = drive(&mut engine, 4, 3, 20_000_000);
    assert!(rotations >= 4, "rotation cadence did not fire: {rotations}");
    let stats = RttMonitor::stats(&engine);
    assert_eq!(
        fed,
        stats.packets + stats.monitor_miss,
        "fed != processed + shed: {stats:?}"
    );
    assert!(stats.samples > 0, "rotation starved the engine: {stats:?}");
    // The trailing cutoff must actually sweep between passes: flows recur
    // every pass, so each rotation sees candidates older than the window.
    assert!(
        rotation.flows_dropped + rotation.records_dropped > 0,
        "rotations never swept anything: {rotation:?}"
    );
}

#[test]
fn sharded_monitor_conserves_packets_across_rotations() {
    for shards in [1usize, 4] {
        let cfg = ShardedConfig::new(DartConfig::default(), shards).with_batch_size(32);
        let mut monitor = ShardedMonitor::new(cfg);
        let (fed, rotations, _) = drive(&mut monitor, 4, 3, 20_000_000);
        assert!(rotations >= 4);
        monitor.flush(&mut Vec::new());
        let stats = monitor.stats();
        assert_eq!(
            fed,
            stats.packets + stats.monitor_miss,
            "shards={shards}: fed != processed + shed: {stats:?}"
        );
        assert!(stats.samples > 0, "shards={shards}: no samples");
    }
}

#[test]
fn rotation_free_and_rotation_heavy_runs_account_identically() {
    // Rotations may move packets between buckets (a swept flow's ACK
    // becomes a miss-then-reinsert) but the bucket *sum* is invariant.
    let mut quiet = DartEngine::new(DartConfig::default());
    let (fed_q, _, _) = drive(&mut quiet, 3, usize::MAX, 0);
    let mut stormy = DartEngine::new(DartConfig::default());
    let (fed_s, rotations, _) = drive(&mut stormy, 3, 1, 0);
    assert_eq!(fed_q, fed_s, "same source, same feed");
    assert!(
        rotations >= 8,
        "every-block rotation expected, got {rotations}"
    );
    let (qs, ss) = (RttMonitor::stats(&quiet), RttMonitor::stats(&stormy));
    assert_eq!(qs.packets + qs.monitor_miss, fed_q);
    assert_eq!(ss.packets + ss.monitor_miss, fed_s);
    // Aggressive rotation (cutoff = newest ts) costs samples, never
    // accounting: the stormy run emits no more than the quiet one.
    assert!(
        ss.samples <= qs.samples,
        "rotation fabricated samples: {} > {}",
        ss.samples,
        qs.samples
    );
}
