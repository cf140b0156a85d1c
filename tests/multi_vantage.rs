//! §7's multi-vantage-point deployment: Dart instances at several points on
//! the path decompose the end-to-end RTT into per-segment legs, localizing
//! where latency lives.

use dart::core::{run_monitor_slice, DartConfig, DartEngine};
use dart::packet::{FlowKey, MILLISECOND};
use dart::sim::netsim::{ConnSpec, NetSim};

fn attack_free_conn(n: u16, ext_ms: u64) -> ConnSpec {
    let mut spec = ConnSpec::simple(
        FlowKey::from_raw(0x0a08_0909, 42_000 + n, 0x2d4f_a1b2, 443),
        n as u64 * 50 * MILLISECOND,
        600,
        600,
    );
    spec.path.jitter = 0.0;
    spec.path.int_owd = MILLISECOND;
    spec.path.ext_owd = ext_ms * MILLISECOND / 2;
    spec
}

#[test]
fn downstream_vantage_points_see_shorter_external_rtts() {
    // 40 ms external RTT; VPs at 25%, 50%, 75% of the way to the server.
    let specs: Vec<ConnSpec> = (0..30).map(|i| attack_free_conn(i, 40)).collect();
    let out = NetSim::new(specs, 11)
        .with_extra_vantage_points([0.25, 0.5, 0.75])
        .run();
    assert_eq!(out.vp_traces.len(), 3);

    // Run an independent Dart at each vantage point.
    let mut mins = Vec::new();
    let (primary, _) =
        run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &out.packets);
    assert!(!primary.is_empty());
    mins.push(primary.iter().map(|s| s.rtt).min().unwrap());
    for vp in &out.vp_traces {
        let (samples, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), vp);
        assert!(!samples.is_empty(), "vantage point collected nothing");
        mins.push(samples.iter().map(|s| s.rtt).min().unwrap());
    }

    // External-leg RTT shrinks monotonically toward the server:
    // ~40, ~30, ~20, ~10 ms.
    for w in mins.windows(2) {
        assert!(
            w[1] < w[0],
            "downstream VP did not see a shorter RTT: {mins:?}"
        );
    }
    let expect = [40u64, 30, 20, 10];
    for (m, e) in mins.iter().zip(expect) {
        let ms = *m as f64 / 1e6;
        assert!(
            (ms - e as f64).abs() < 3.0,
            "expected ≈{e} ms, measured {ms:.2} ms (all: {mins:?})"
        );
    }
}

#[test]
fn leg_decomposition_localizes_latency() {
    // §7's use case: "identifying which part of the network is responsible
    // for performance degradation". The segment between the 50% VP and the
    // server carries the bulk of a 100 ms path; the decomposition exposes it.
    let specs: Vec<ConnSpec> = (0..30).map(|i| attack_free_conn(i, 100)).collect();
    let out = NetSim::new(specs, 12)
        .with_extra_vantage_points([0.5])
        .run();
    let (at_monitor, _) =
        run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &out.packets);
    let (at_mid, _) = run_monitor_slice(
        &mut DartEngine::new(DartConfig::unlimited()),
        &out.vp_traces[0],
    );
    let m0 = at_monitor.iter().map(|s| s.rtt).min().unwrap();
    let m1 = at_mid.iter().map(|s| s.rtt).min().unwrap();
    // Segment RTT between the two vantage points = difference of their
    // external-leg RTTs ≈ 50 ms.
    let segment = m0 - m1;
    let ms = segment as f64 / 1e6;
    assert!((ms - 50.0).abs() < 5.0, "segment RTT {ms:.2} ms");
}

#[test]
fn vantage_traces_are_time_ordered() {
    let specs: Vec<ConnSpec> = (0..10).map(|i| attack_free_conn(i, 30)).collect();
    let out = NetSim::new(specs, 13)
        .with_extra_vantage_points([0.3, 0.9])
        .run();
    for vp in &out.vp_traces {
        assert!(vp.windows(2).all(|w| w[0].ts <= w[1].ts));
    }
}
