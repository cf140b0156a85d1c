//! Regression coverage for the ±1 sample divergence across shard counts
//! first seen on the campus benchmark trace (14644 samples at 1–2 shards,
//! 14645 at 4–8).
//!
//! The per-shard telemetry counters localize it: sharding splits flows
//! over N engines that each own a full-size Packet Tracker, so PT hash
//! collisions drop as the shard count grows (`pt_displaced` fell 1010 →
//! 259 between 2 and 8 shards on the benchmark trace) and a displaced
//! record that died under recirculation pressure at a low shard count
//! survives to match its ACK at a higher one (`pt_matched` +1). That is
//! expected behavior — per-shard tables change collision pressure, not a
//! merge bug — and this test pins the mechanism with a minimal two-flow
//! reproduction.

use dart_core::{
    run_monitor_slice, shard_of, DartConfig, DartEngine, EngineStats, RttSample, ShardedConfig,
    ShardedMonitor,
};
use dart_packet::{Direction, FlowKey, PacketBuilder, PacketMeta, MILLISECOND};

fn run_sharded(
    cfg: DartConfig,
    shards: usize,
    pkts: &[PacketMeta],
) -> (Vec<RttSample>, EngineStats) {
    run_monitor_slice(
        &mut ShardedMonitor::new(ShardedConfig::new(cfg, shards)),
        pkts,
    )
}

/// Two flows that land on different shards at 2 shards.
fn flows_on_distinct_shards() -> (FlowKey, FlowKey) {
    let fa = FlowKey::from_raw(0x0a00_0001, 40000, 0x5db8_d822, 443);
    let want = 1 - shard_of(&fa, 2);
    for n in 2..1000u32 {
        let fb = FlowKey::from_raw(0x0a00_0000 + n, 40000, 0x5db8_d822, 443);
        if shard_of(&fb, 2) == want {
            return (fa, fb);
        }
    }
    unreachable!("the symmetric hash spreads 1000 flows over 2 shards");
}

/// Interleaved single-exchange flows: SEQ a, SEQ b, ACK a, ACK b.
fn colliding_trace(fa: FlowKey, fb: FlowKey) -> Vec<PacketMeta> {
    let mut pkts = Vec::new();
    for (i, &f) in [fa, fb].iter().enumerate() {
        pkts.push(
            PacketBuilder::new(f, i as u64 * 1_000)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
        );
    }
    for (i, &f) in [fa, fb].iter().enumerate() {
        pkts.push(
            PacketBuilder::new(f.reverse(), 20 * MILLISECOND + i as u64 * 1_000)
                .ack(100u32)
                .dir(Direction::Inbound)
                .build(),
        );
    }
    pkts
}

#[test]
fn per_shard_tables_relax_pt_collision_pressure() {
    let (fa, fb) = flows_on_distinct_shards();
    let pkts = colliding_trace(fa, fb);
    // One PT slot and no recirculation budget: in the serial engine the
    // second SEQ displaces the first flow's record, which self-destructs.
    let cfg = DartConfig::default().with_pt(1, 1).with_max_recirc(0);

    let (serial_samples, serial) = run_monitor_slice(&mut DartEngine::new(cfg), &pkts);
    assert_eq!(
        serial_samples.len(),
        1,
        "serial: one record lost to the collision"
    );
    assert_eq!(serial.pt_displaced, 1);
    assert_eq!(serial.recirc_cap_dropped, 1);
    assert_eq!(serial.ack_advanced, 2, "both ACKs advanced the range");
    assert_eq!(serial.pt_matched, 1, "only the surviving record matched");

    // Sharded over 2: each flow gets its own engine (and its own PT slot),
    // so the collision never happens and both samples survive.
    let (sharded_samples, sharded) = run_sharded(cfg, 2, &pkts);
    assert_eq!(sharded_samples.len(), 2, "sharded: no collision, no loss");
    assert_eq!(sharded.pt_displaced, 0);
    assert_eq!(sharded.recirc_cap_dropped, 0);
    assert_eq!(sharded.pt_matched, 2);

    // The divergence is exactly the collision-pressure delta the counters
    // admit to — the benchmark trace's ±1 in miniature.
    assert_eq!(
        sharded_samples.len() - serial_samples.len(),
        (serial.pt_displaced - sharded.pt_displaced) as usize
    );
}

#[test]
fn identical_shard_counts_stay_deterministic() {
    // The divergence exists only *across* shard counts; repeated runs at
    // one count are byte-identical (the testkit depends on this).
    let (fa, fb) = flows_on_distinct_shards();
    let pkts = colliding_trace(fa, fb);
    let cfg = DartConfig::default().with_pt(1, 1).with_max_recirc(0);
    for shards in [2, 4] {
        let a = run_sharded(cfg, shards, &pkts);
        let b = run_sharded(cfg, shards, &pkts);
        assert_eq!(a.0, b.0, "shards={shards}: nondeterministic samples");
        assert_eq!(a.1, b.1, "shards={shards}: nondeterministic stats");
    }
}
