//! Tests for the §4/§7 engine extensions: flow-selection rules, the victim
//! cache, and the RT-copy recirculation-avoidance approximation.

use dart_core::{
    run_monitor_slice, DartConfig, DartEngine, FlowFilter, FlowRule, Leg, RttMonitor, RttSample,
};
use dart_packet::{Direction, FlowKey, Nanos, PacketBuilder, PacketMeta, MILLISECOND};
use std::net::Ipv4Addr;

fn flow(n: u32) -> FlowKey {
    FlowKey::from_raw(0x0a08_0000 + n, 40000 + (n % 1000) as u16, 0x5db8_d822, 443)
}

fn exchange(f: FlowKey, seq: u32, len: u32, t: Nanos, rtt: Nanos) -> [PacketMeta; 2] {
    [
        PacketBuilder::new(f, t)
            .seq(seq)
            .payload(len)
            .dir(Direction::Outbound)
            .build(),
        PacketBuilder::new(f.reverse(), t + rtt)
            .ack(seq + len)
            .dir(Direction::Inbound)
            .build(),
    ]
}

#[test]
fn flow_filter_restricts_tracking() {
    let mut engine = DartEngine::new(DartConfig::unlimited());
    // Only flows to the 93.184.216.0/24 prefix are monitored.
    engine.set_flow_filter(FlowFilter::new([FlowRule::to_prefix(
        Ipv4Addr::new(93, 184, 216, 0),
        24,
    )]));
    let tracked = FlowKey::new(
        Ipv4Addr::new(10, 8, 0, 1),
        40001,
        Ipv4Addr::new(93, 184, 216, 34),
        443,
    );
    // Note: `flow()`'s default destination IS inside the monitored /24, so
    // pick a destination clearly outside it.
    let ignored = FlowKey::new(
        Ipv4Addr::new(10, 8, 0, 2),
        40002,
        Ipv4Addr::new(8, 8, 8, 8),
        443,
    );

    let mut samples: Vec<RttSample> = Vec::new();
    for p in exchange(tracked, 0, 100, 0, 10 * MILLISECOND) {
        engine.on_packet(&p, &mut samples);
    }
    for p in exchange(ignored, 0, 100, 1_000_000, 10 * MILLISECOND) {
        engine.on_packet(&p, &mut samples);
    }
    assert_eq!(samples.len(), 1);
    assert_eq!(samples[0].flow, tracked);
    assert_eq!(engine.stats().filtered_flows, 2);
    assert_eq!(engine.rt_occupancy(), 1);

    // Clearing the rules resumes full tracking at runtime.
    engine.set_flow_filter(FlowFilter::all());
    for p in exchange(ignored, 100, 100, 2_000_000, 10 * MILLISECOND) {
        engine.on_packet(&p, &mut samples);
    }
    assert_eq!(samples.len(), 2);
}

#[test]
fn victim_cache_rescues_evicted_records() {
    // 1-slot PT: flow B displaces flow A's record. Without the cache the
    // eviction costs a recirculation (and the sample is at risk); with the
    // cache, A's ACK matches from the cache with zero recirculations.
    let base = DartConfig::default().with_rt(1 << 12).with_pt(1, 1);
    let mk_trace = || {
        let a = flow(10);
        let b = flow(11);
        vec![
            PacketBuilder::new(a, 0)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            PacketBuilder::new(b, 1_000_000)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            PacketBuilder::new(a.reverse(), 30_000_000)
                .ack(100u32)
                .dir(Direction::Inbound)
                .build(),
            PacketBuilder::new(b.reverse(), 31_000_000)
                .ack(100u32)
                .dir(Direction::Inbound)
                .build(),
        ]
    };

    let (plain, plain_stats) = run_monitor_slice(&mut DartEngine::new(base), &mk_trace());
    let (cached, cached_stats) = run_monitor_slice(
        &mut DartEngine::new(base.with_victim_cache(16)),
        &mk_trace(),
    );

    assert_eq!(cached.len(), 2, "both samples collected with the cache");
    assert_eq!(cached_stats.victim_cache_hits, 1);
    assert_eq!(cached_stats.recirc_issued, 0);
    assert!(plain_stats.recirc_issued >= 1);
    assert!(plain.len() <= cached.len());
}

#[test]
fn victim_cache_spills_oldest_to_recirculation() {
    // Cache of 1: a second eviction spills the first record onward.
    let cfg = DartConfig::default()
        .with_rt(1 << 12)
        .with_pt(1, 1)
        .with_victim_cache(1)
        .with_max_recirc(2);
    let pkts: Vec<PacketMeta> = (0..3u32)
        .map(|i| {
            PacketBuilder::new(flow(20 + i), i as Nanos * 1_000_000)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build()
        })
        .collect();
    let (_, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &pkts);
    assert_eq!(stats.victim_cached, 2);
    // The spilled record went to the normal recirculation path.
    assert!(stats.recirc_issued >= 1);
}

#[test]
fn rt_copy_avoids_recirculation_entirely() {
    // Same displacement scenario as above, but with the RT-copy check: the
    // evicted (still valid) record is reinserted at the end of the pipeline
    // with no recirculation at all.
    let cfg = DartConfig::default()
        .with_rt(1 << 12)
        .with_pt(4, 2)
        .with_max_recirc(4)
        .with_rt_copy(100_000); // 100 µs sync lag
    let mut pkts = Vec::new();
    for i in 0..8u32 {
        pkts.extend(exchange(
            flow(30 + i),
            0,
            100,
            i as Nanos * 300_000,
            40 * MILLISECOND,
        ));
    }
    pkts.sort_by_key(|p| p.ts);
    let (_, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &pkts);
    assert_eq!(stats.recirc_issued, 0, "rt-copy replaces recirculation");
    assert!(stats.rt_copy_reinserted + stats.rt_copy_dropped > 0);
}

#[test]
fn rt_copy_staleness_can_drop_valid_records() {
    // The copy lags: a record evicted immediately after its flow is created
    // is judged against a shadow that hasn't heard of the flow yet → drop.
    // This is the documented accuracy cost of the approximation.
    let cfg = DartConfig::default()
        .with_rt(1 << 12)
        .with_pt(1, 1)
        .with_rt_copy(10_000_000_000); // absurd 10 s lag
    let a = flow(40);
    let b = flow(41);
    let pkts = vec![
        PacketBuilder::new(a, 0)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build(),
        PacketBuilder::new(b, 1_000)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build(),
        PacketBuilder::new(a.reverse(), 20_000_000)
            .ack(100u32)
            .dir(Direction::Inbound)
            .build(),
    ];
    let (samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &pkts);
    assert_eq!(stats.rt_copy_dropped, 1);
    assert!(samples.is_empty(), "the lagging copy sacrificed the sample");
}

#[test]
fn rt_copy_follows_a_piggybacked_ack() {
    // Both legs, 1-slot PT: A's first record survives A's second segment
    // (the copy validates it, the cycle break gives the older record the
    // slot back), then a data segment from the far end acknowledges both
    // segments. That ACK must reach A's shadow: once the sync lag has
    // passed, the dead record is evicted by flow C's packet and has to be
    // dropped. Judged against A's old range it would be reinserted over
    // C's live record, and C's sample lost.
    let cfg = DartConfig::default()
        .with_leg(Leg::Both)
        .with_rt(1 << 12)
        .with_pt(1, 1)
        .with_max_recirc(4)
        .with_rt_copy(1_000);
    let (a, c) = (flow(50), flow(51));
    let data = |f: FlowKey, seq: u32, t: Nanos| {
        PacketBuilder::new(f, t)
            .seq(seq)
            .payload(100)
            .dir(Direction::Outbound)
            .build()
    };
    let pkts = [
        data(a, 0, 0),
        data(a, 100, 50_000),
        PacketBuilder::new(a.reverse(), 100_000)
            .seq(500u32)
            .payload(50)
            .ack(200u32)
            .dir(Direction::Inbound)
            .build(),
        data(c, 0, 200_000),
        PacketBuilder::new(c.reverse(), 300_000)
            .ack(100u32)
            .dir(Direction::Inbound)
            .build(),
    ];
    let (samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &pkts);
    assert_eq!(stats.dual_role_recirc, 1, "the ACK rode on a data segment");
    assert_eq!(stats.rt_copy_dropped, 1, "A's acknowledged record is dead");
    assert_eq!(stats.rt_copy_reinserted, 2);
    assert_eq!(samples.len(), 1);
    assert_eq!(samples[0].flow, c);
}

#[test]
fn features_compose_with_full_workload() {
    // All three features on at once over a busy synthetic pattern: engine
    // stays consistent.
    let cfg = DartConfig::default()
        .with_rt(1 << 10)
        .with_pt(1 << 6, 2)
        .with_victim_cache(8)
        .with_rt_copy(50_000)
        .with_max_recirc(3);
    let mut engine = DartEngine::new(cfg);
    engine.set_flow_filter(FlowFilter::new([FlowRule::to_port(443)]));
    let mut samples: Vec<RttSample> = Vec::new();
    let mut t = 0;
    for round in 0..200u32 {
        let f = flow(round % 50);
        for p in exchange(f, round * 200, 200, t, 15 * MILLISECOND) {
            engine.on_packet(&p, &mut samples);
        }
        t += 700_000;
    }
    engine.flush(&mut samples);
    let s = engine.stats();
    assert!(!samples.is_empty());
    assert_eq!(s.samples as usize, samples.len());
    assert_eq!(
        s.recirc_issued,
        s.recirc_stale_dropped + s.recirc_reinserted + s.recirc_cycles_broken
    );
}
