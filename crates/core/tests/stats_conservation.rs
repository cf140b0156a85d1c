//! Property suite: `EngineStats` conservation laws.
//!
//! Every packet offered to the engine lands in exactly one disposition
//! bucket, so the counters must always satisfy
//!
//! ```text
//! packets == syn_skipped + filtered_flows + no_role
//!          + (seq_tracked + seq_retransmission + seq_wraparound + seq_rt_collision)
//!          + (ack_advanced + ack_duplicate + ack_stale + ack_optimistic + ack_no_flow)
//!          - dual_role_recirc
//! ```
//!
//! The SEQ group partitions `handle_seq_at` calls (`seq_hole_reset` is a
//! refinement of `seq_tracked`, not a separate bucket) and the ACK group
//! partitions `handle_ack_at` calls; `dual_role_recirc` corrects for packets
//! that fired both roles (possible only in `Leg::Both`). On top of that,
//! every sample comes from a Packet Tracker match (`samples == pt_matched`)
//! and, with telemetry attached, the RTT histogram observes each match
//! exactly once (`histogram count == pt_matched`).

use dart_core::{run_monitor_slice, DartConfig, DartEngine, EngineStats, Leg};
use dart_packet::{Direction, FlowKey, PacketBuilder, PacketMeta};
use proptest::prelude::*;

fn check_conservation(stats: &EngineStats) {
    let seq_fired = stats.seq_tracked
        + stats.seq_retransmission
        + stats.seq_wraparound
        + stats.seq_rt_collision;
    let ack_fired = stats.ack_advanced
        + stats.ack_duplicate
        + stats.ack_stale
        + stats.ack_optimistic
        + stats.ack_no_flow;
    assert_eq!(
        stats.packets,
        stats.syn_skipped + stats.filtered_flows + stats.no_role + seq_fired + ack_fired
            - stats.dual_role_recirc,
        "disposition counters do not partition the packet count: {stats:?}"
    );
    assert_eq!(
        stats.samples, stats.pt_matched,
        "every sample must come from a PT match: {stats:?}"
    );
    assert!(
        stats.seq_hole_reset <= stats.seq_tracked,
        "hole resets refine seq_tracked: {stats:?}"
    );
}

/// One generated packet: enough degrees of freedom to reach every
/// disposition bucket (SYNs, pure ACKs, piggybacked data+ACK, stale and
/// optimistic ACK values, retransmitted left edges, both directions).
fn arb_packet(flows: u32) -> impl Strategy<Value = (u32, bool, bool, bool, u32, u32, u32)> {
    (
        0..flows,      // flow index
        any::<bool>(), // outbound?
        any::<bool>(), // carries data?
        any::<bool>(), // syn flag
        0u32..1 << 16, // seq
        0u32..1 << 17, // ack (range beyond seq: stale + optimistic)
        1u32..1500,    // payload length when data
    )
}

fn build_trace(raw: &[(u32, bool, bool, bool, u32, u32, u32)]) -> Vec<PacketMeta> {
    raw.iter()
        .enumerate()
        .map(|(i, &(flow, outbound, data, syn, seq, ack, len))| {
            let f = FlowKey::from_raw(0x0a00_0001 + flow, 40000, 0x5db8_d822, 443);
            let (f, dir) = if outbound {
                (f, Direction::Outbound)
            } else {
                (f.reverse(), Direction::Inbound)
            };
            let mut b = PacketBuilder::new(f, i as u64 * 1_000).ack(ack).dir(dir);
            if data {
                b = b.seq(seq).payload(len);
            }
            if syn {
                b = b.syn();
            }
            b.build()
        })
        .collect()
}

fn run_with(cfg: DartConfig, packets: &[PacketMeta]) -> EngineStats {
    let mut engine = DartEngine::new(cfg);
    let (samples, stats) = run_monitor_slice(&mut engine, packets);
    assert_eq!(samples.len() as u64, stats.samples);
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conservation_default_config(raw in proptest::collection::vec(arb_packet(6), 0..400)) {
        let packets = build_trace(&raw);
        check_conservation(&run_with(DartConfig::default(), &packets));
    }

    #[test]
    fn conservation_under_pressure(raw in proptest::collection::vec(arb_packet(8), 0..400)) {
        // Tiny tables + recirculation + victim cache: the lossy paths.
        let cfg = DartConfig::default()
            .with_rt(8)
            .with_pt(4, 1)
            .with_max_recirc(2)
            .with_victim_cache(2);
        let packets = build_trace(&raw);
        check_conservation(&run_with(cfg, &packets));
    }

    #[test]
    fn conservation_both_legs(raw in proptest::collection::vec(arb_packet(6), 0..400)) {
        // Leg::Both is the only mode where a packet can fire both roles,
        // exercising the dual_role_recirc correction term.
        let cfg = DartConfig::default().with_leg(Leg::Both);
        let packets = build_trace(&raw);
        let stats = run_with(cfg, &packets);
        check_conservation(&stats);
    }
}

mod degraded {
    use super::*;
    use dart_core::{PacketHook, RttMonitor, ShardedConfig, ShardedMonitor};
    use std::sync::Arc;

    /// Silence the backtraces of injected panics (payloads starting with
    /// `"chaos:"`) so the property run's output stays readable; everything
    /// else still reaches the previous hook.
    fn quiet_injected_panics() {
        use std::sync::Once;
        static QUIET: Once = Once::new();
        QUIET.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.starts_with("chaos:"))
                    || info
                        .payload()
                        .downcast_ref::<&str>()
                        .is_some_and(|s| s.starts_with("chaos:"));
                if !injected {
                    previous(info);
                }
            }));
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A seeded mid-run shard panic never aborts, respawns the shard,
        /// the runtime's books balance (`fed == packets + monitor_miss`),
        /// and the per-engine disposition partition still holds on the
        /// merged degraded counters (the supervised counters live
        /// *outside* the partition).
        #[test]
        fn degraded_runs_conserve_counters(
            raw in proptest::collection::vec(arb_packet(6), 20..300),
            panic_frac in 0.0f64..1.0,
        ) {
            quiet_injected_panics();
            let packets = build_trace(&raw);
            let target = (packets.len() as f64 * panic_frac) as u64;
            let hook: PacketHook = Arc::new(move |idx, _shard| {
                if idx == target {
                    panic!("chaos: property panic at packet {target}");
                }
            });
            let cfg = ShardedConfig::new(DartConfig::default(), 3).with_batch_size(4);
            let mut monitor = ShardedMonitor::spawn(cfg, None, Some(hook));
            for p in &packets {
                monitor.on_packet(p, &mut Vec::new());
            }
            monitor.flush(&mut Vec::new());
            let stats = monitor.stats();
            prop_assert!(!monitor.failures().is_empty(), "the injected panic must be recorded");
            prop_assert_eq!(stats.shard_restarts, 1);
            prop_assert_eq!(
                stats.packets + stats.monitor_miss,
                packets.len() as u64,
                "runtime books must balance: {:?}", stats
            );
            check_conservation(&stats);
        }
    }
}

mod telemetry_laws {
    use super::*;
    use dart_core::telemetry::RTT_NS;
    use dart_core::EngineTelemetry;
    use dart_telemetry::MetricRegistry;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn rtt_histogram_count_equals_pt_matched(
            raw in proptest::collection::vec(arb_packet(6), 0..400)
        ) {
            let packets = build_trace(&raw);
            let registry = MetricRegistry::new();
            let mut engine = DartEngine::new(DartConfig::default());
            engine.attach_telemetry(EngineTelemetry::register(&registry, 0));
            let (_, stats) = run_monitor_slice(&mut engine, &packets);
            check_conservation(&stats);
            let hist = registry.histogram(RTT_NS.name, &[("shard", "0")], "");
            prop_assert_eq!(hist.count(), stats.pt_matched);
        }
    }
}
