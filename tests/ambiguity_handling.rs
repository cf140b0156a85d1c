//! Cross-tool correctness under TCP's ambiguities (paper §2.2): crafted
//! packet sequences where the strawman produces wrong samples, Dart
//! refuses, and tcptrace (Karn) agrees with Dart.

use dart::baselines::{Strawman, StrawmanConfig, TcpTrace, TcpTraceConfig};
use dart::core::{run_monitor_slice, DartConfig, DartEngine};
use dart::packet::{Direction, FlowKey, PacketBuilder, PacketMeta, MILLISECOND};

fn flow() -> FlowKey {
    FlowKey::from_raw(0x0a08_0001, 40123, 0x5db8_d822, 443)
}

/// The retransmission-ambiguity scenario: data at t=0, retransmit at t=50ms,
/// ACK at t=60ms. The true RTT is unknowable (60 or 10 ms?).
fn retransmission_trace() -> Vec<PacketMeta> {
    let f = flow();
    vec![
        PacketBuilder::new(f, 0)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build(),
        PacketBuilder::new(f, 50 * MILLISECOND)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build(),
        PacketBuilder::new(f.reverse(), 60 * MILLISECOND)
            .ack(100u32)
            .dir(Direction::Inbound)
            .build(),
    ]
}

#[test]
fn dart_and_tcptrace_refuse_ambiguous_retransmission_sample() {
    let trace = retransmission_trace();
    let (dart, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &trace);
    assert!(dart.is_empty(), "dart must not guess: {dart:?}");
    let (tt, _) = run_monitor_slice(&mut TcpTrace::new(TcpTraceConfig::default()), &trace);
    assert!(tt.is_empty(), "tcptrace (Karn) must not guess: {tt:?}");
}

#[test]
fn strawman_guesses_wrong_on_retransmission() {
    // The §2.1 strawman refreshes the timestamp and reports 10 ms — an
    // ambiguous, underestimated sample. This is the defect Dart exists to
    // fix; assert it so the baseline stays honest.
    let mut sm = Strawman::new(StrawmanConfig {
        slots: 64,
        timeout: None,
        ..StrawmanConfig::default()
    });
    let (out, _) = run_monitor_slice(&mut sm, &retransmission_trace());
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rtt, 10 * MILLISECOND);
}

#[test]
fn reordering_inflation_is_suppressed() {
    // §2.2's P1..P4 scenario: P2 reordered in the network; the cumulative
    // ACK after the hole fills would inflate P4's RTT. Dart must not emit
    // it.
    let f = flow();
    let seg = |seq: u32, t| {
        PacketBuilder::new(f, t)
            .seq(seq)
            .payload(100)
            .dir(Direction::Outbound)
            .build()
    };
    let ack = |n: u32, t| {
        PacketBuilder::new(f.reverse(), t)
            .ack(n)
            .dir(Direction::Inbound)
            .build()
    };
    let trace = vec![
        seg(0, 0),
        seg(100, MILLISECOND),
        seg(200, 2 * MILLISECOND),
        seg(300, 3 * MILLISECOND),
        ack(100, 10 * MILLISECOND), // acks P1
        ack(100, 11 * MILLISECOND), // dup: P2 missing at receiver
        ack(100, 12 * MILLISECOND), // dup again
        ack(400, 80 * MILLISECOND), // P2 finally arrived: cumulative ACK
    ];
    let (dart, stats) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &trace);
    // Only P1's honest sample; the inflated 77 ms sample for P4 is refused.
    assert_eq!(dart.len(), 1);
    assert_eq!(dart[0].rtt, 10 * MILLISECOND);
    assert!(stats.ack_duplicate >= 1);
}

#[test]
fn optimistic_acks_do_not_deflate() {
    // §7: a misbehaving receiver ACKs data before it arrives. Dart ignores
    // ACKs beyond the right edge, so no deflated sample appears.
    let f = flow();
    let trace = vec![
        PacketBuilder::new(f, 0)
            .seq(0u32)
            .payload(1000)
            .dir(Direction::Outbound)
            .build(),
        // Optimistic ACK for bytes never sent.
        PacketBuilder::new(f.reverse(), MILLISECOND)
            .ack(5000u32)
            .dir(Direction::Inbound)
            .build(),
        // Legitimate ACK afterwards.
        PacketBuilder::new(f.reverse(), 20 * MILLISECOND)
            .ack(1000u32)
            .dir(Direction::Inbound)
            .build(),
    ];
    let (dart, stats) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &trace);
    assert_eq!(stats.ack_optimistic, 1);
    assert_eq!(dart.len(), 1);
    assert_eq!(dart[0].rtt, 20 * MILLISECOND, "only the honest sample");
}

#[test]
fn holes_keep_only_highest_range() {
    // Fig 4d: the monitor misses a middle segment; Dart tracks only the
    // contiguous range ahead of the hole, so the pre-hole segment's late
    // ACK is not matched while the post-hole segment's is.
    let f = flow();
    let trace = vec![
        PacketBuilder::new(f, 0)
            .seq(0u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build(),
        // [100, 200) never seen by the monitor; [200, 300) arrives.
        PacketBuilder::new(f, 2 * MILLISECOND)
            .seq(200u32)
            .payload(100)
            .dir(Direction::Outbound)
            .build(),
        // Receiver saw everything: cumulative ACKs.
        PacketBuilder::new(f.reverse(), 10 * MILLISECOND)
            .ack(100u32)
            .dir(Direction::Inbound)
            .build(),
        PacketBuilder::new(f.reverse(), 12 * MILLISECOND)
            .ack(300u32)
            .dir(Direction::Inbound)
            .build(),
    ];
    let (dart, stats) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &trace);
    assert_eq!(stats.seq_hole_reset, 1);
    // Only the post-hole segment samples (ack 100 is below the reset left
    // edge); tcptrace gets both — the Fig 9a count gap in miniature.
    assert_eq!(dart.len(), 1);
    assert_eq!(dart[0].eack.raw(), 300);
    let (tt, _) = run_monitor_slice(&mut TcpTrace::new(TcpTraceConfig::default()), &trace);
    assert_eq!(tt.len(), 2);
}

#[test]
fn wraparound_costs_dart_but_not_tcptrace() {
    // §4: Dart resets at the wrap and foregoes top-of-space samples;
    // tcptrace unwraps and keeps them.
    let f = flow();
    let trace = vec![
        PacketBuilder::new(f, 0)
            .seq(u32::MAX - 199)
            .payload(100)
            .dir(Direction::Outbound)
            .build(),
        PacketBuilder::new(f, MILLISECOND)
            .seq(u32::MAX - 99)
            .payload(200) // crosses zero
            .dir(Direction::Outbound)
            .build(),
        PacketBuilder::new(f.reverse(), 15 * MILLISECOND)
            .ack(u32::MAX - 99)
            .dir(Direction::Inbound)
            .build(),
        PacketBuilder::new(f.reverse(), 16 * MILLISECOND)
            .ack(100u32)
            .dir(Direction::Inbound)
            .build(),
    ];
    let (dart, stats) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &trace);
    assert_eq!(stats.seq_wraparound, 1);
    assert!(
        dart.is_empty(),
        "dart forgoes wrap-adjacent samples: {dart:?}"
    );
    let (tt, _) = run_monitor_slice(&mut TcpTrace::new(TcpTraceConfig::default()), &trace);
    assert_eq!(tt.len(), 2, "tcptrace unwraps and keeps both");
}
