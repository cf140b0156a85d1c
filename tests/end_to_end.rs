//! End-to-end integration: synthetic campus traffic → Dart engine →
//! analytics, checked against the offline baselines — the whole paper
//! pipeline in one process.

use dart::baselines::{TcpTrace, TcpTraceConfig};
use dart::core::{run_monitor_slice, DartConfig, DartEngine, RttMonitor, SynPolicy};
use dart::sim::scenario::{campus, syn_flood, CampusConfig, SynFloodConfig};

fn small_campus() -> dart::sim::scenario::GeneratedTrace {
    campus(CampusConfig {
        connections: 600,
        duration: 10 * dart::packet::SECOND,
        ..CampusConfig::default()
    })
}

#[test]
fn constrained_dart_tracks_the_unlimited_baseline() {
    let trace = small_campus();
    let (baseline, _) = run_monitor_slice(
        &mut DartEngine::new(DartConfig::unlimited()),
        &trace.packets,
    );
    let cfg = DartConfig::default().with_rt(1 << 12).with_pt(1 << 10, 1);
    let (samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &trace.packets);

    assert!(!baseline.is_empty());
    let fraction = samples.len() as f64 / baseline.len() as f64;
    assert!(
        fraction > 0.9 && fraction <= 1.02,
        "constrained Dart collected {fraction:.3} of baseline samples"
    );
    // The engine's own accounting agrees with what came out.
    assert_eq!(stats.samples as usize, samples.len());
    assert_eq!(stats.pt_matched, stats.samples);
}

#[test]
fn dart_never_collects_more_than_tcptrace() {
    // Fig 9a's ordering must hold on any trace.
    let trace = small_campus();
    for syn in [SynPolicy::Include, SynPolicy::Skip] {
        let (dart, _) = run_monitor_slice(
            &mut DartEngine::new(DartConfig::unlimited().with_syn(syn)),
            &trace.packets,
        );
        let mut tcptrace = TcpTrace::new(TcpTraceConfig {
            syn_policy: syn,
            quadrant_quirk: true,
            ..TcpTraceConfig::default()
        });
        let (tt, _) = run_monitor_slice(&mut tcptrace, &trace.packets);
        assert!(
            dart.len() <= tt.len(),
            "dart {} > tcptrace {} under {syn:?}",
            dart.len(),
            tt.len()
        );
        // ...but it collects the vast majority.
        assert!(dart.len() as f64 >= tt.len() as f64 * 0.7);
    }
}

#[test]
fn syn_flood_cannot_inflate_the_tables() {
    let trace = syn_flood(SynFloodConfig {
        syns: 5_000,
        background: 20,
        duration: 2 * dart::packet::SECOND,
        ..SynFloodConfig::default()
    });
    let cfg = DartConfig::default().with_rt(1 << 14).with_pt(1 << 12, 1);
    let mut engine = dart::core::DartEngine::new(cfg);
    let (samples, _) = dart::core::run_monitor_slice(&mut engine, &trace.packets);

    // Only the ~20 legitimate connections may hold RT entries.
    assert!(
        engine.rt_occupancy() <= 30,
        "RT bloated to {} entries under SYN flood",
        engine.rt_occupancy()
    );
    assert!(engine.stats().syn_skipped >= 5_000);
    // Legitimate traffic still measured.
    assert!(!samples.is_empty());
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let trace = small_campus();
        let cfg = DartConfig::default().with_rt(1 << 12).with_pt(1 << 9, 2);
        run_monitor_slice(&mut DartEngine::new(cfg), &trace.packets).0
    };
    assert_eq!(run(), run());
}

#[test]
fn samples_respect_propagation_floors() {
    // With per-hop jitter of ±4%, no sample can be more than ~8% below its
    // path's base RTT; most sit above it (receiver delays add).
    let trace = small_campus();
    let (samples, _) = run_monitor_slice(
        &mut DartEngine::new(DartConfig::unlimited()),
        &trace.packets,
    );
    let mut below = 0;
    for s in &samples {
        let conn = trace
            .conns
            .iter()
            .find(|c| c.flow == s.flow)
            .expect("sample from unknown flow");
        if (s.rtt as f64) < conn.base_ext_rtt as f64 * 0.9 {
            below += 1;
        }
    }
    assert_eq!(below, 0, "{below} samples below the physical floor");
}

#[test]
fn both_legs_sum_to_end_to_end() {
    // §2.1: consecutive external + internal leg RTTs compose the full
    // client-to-server RTT. Check on a clean single connection.
    use dart::core::Leg;
    use dart::packet::FlowKey;
    use dart::sim::netsim::{simulate, ConnSpec};

    let flow = FlowKey::from_raw(0x0a08_0101, 40001, 0x5db8_d822, 443);
    let mut spec = ConnSpec::simple(flow, 0, 600, 600);
    spec.path.jitter = 0.0;
    spec.path.int_owd = 2 * dart::packet::MILLISECOND;
    spec.path.ext_owd = 10 * dart::packet::MILLISECOND;
    let out = simulate(vec![spec], 7);

    let (ext, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &out.packets);
    let (int, _) = run_monitor_slice(
        &mut DartEngine::new(DartConfig::unlimited().with_leg(Leg::Internal)),
        &out.packets,
    );
    assert!(!ext.is_empty() && !int.is_empty());
    // External-leg samples ≈ 20 ms, internal ≈ 4 ms (plus receiver delays).
    let e = ext.iter().map(|s| s.rtt).min().unwrap();
    let i = int.iter().map(|s| s.rtt).min().unwrap();
    assert!((20 * dart::packet::MILLISECOND..30 * dart::packet::MILLISECOND).contains(&e));
    assert!((4 * dart::packet::MILLISECOND..10 * dart::packet::MILLISECOND).contains(&i));
    // Composition ≈ the 24 ms end-to-end floor.
    assert!(e + i >= 24 * dart::packet::MILLISECOND);
}
