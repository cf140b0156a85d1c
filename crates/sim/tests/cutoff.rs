//! Tests of the §3.2 silent-cut-off behavior: a server that stops ACKing
//! mid-transfer strands the client's in-flight records.

use dart_packet::{Direction, FlowKey, MILLISECOND};
use dart_sim::netsim::{simulate, ConnSpec};

fn base_spec(cutoff: Option<u64>) -> ConnSpec {
    let flow = FlowKey::from_raw(0x0a08_2222, 43210, 0x0808_0101, 443);
    let mut spec = ConnSpec::simple(flow, 0, 50_000, 500);
    spec.path.jitter = 0.0;
    spec.path.int_owd = MILLISECOND;
    spec.path.ext_owd = 5 * MILLISECOND;
    spec.server_cutoff = cutoff;
    spec
}

#[test]
fn cutoff_server_stops_acking() {
    let healthy = simulate(vec![base_spec(None)], 1);
    let cut = simulate(vec![base_spec(Some(10_000))], 1);

    // Healthy: all 50 KB delivered. Cut: delivery stops near the cut point.
    assert_eq!(healthy.reports[0].bytes_c2s, 50_000);
    let delivered = cut.reports[0].bytes_c2s;
    assert!(
        (10_000..25_000).contains(&delivered),
        "delivery should stall near the cutoff: {delivered}"
    );

    // The client keeps retransmitting into the void before giving up.
    assert!(cut.reports[0].retransmissions >= 3);

    // After the cut, no more server packets appear at the monitor.
    let cut_ts = cut
        .packets
        .iter()
        .filter(|p| p.dir == Direction::Inbound)
        .map(|p| p.ts)
        .max()
        .unwrap();
    let client_after: usize = cut
        .packets
        .iter()
        .filter(|p| p.dir == Direction::Outbound && p.ts > cut_ts)
        .count();
    assert!(
        client_after >= 3,
        "client should still be talking after the server went dark"
    );
}

#[test]
fn stranded_records_squat_in_darts_pt() {
    use dart_core::{run_monitor_slice, DartConfig, DartEngine};

    let out = simulate(vec![base_spec(Some(10_000))], 2);
    let cfg = DartConfig::default().with_rt(1 << 10).with_pt(1 << 10, 1);
    let mut engine = dart_core::DartEngine::new(cfg);
    let (samples, _) = dart_core::run_monitor_slice(&mut engine, &out.packets);
    // Records for the never-ACKed tail are stranded in the PT, exactly the
    // state lazy eviction exists to reclaim.
    assert!(
        engine.pt_occupancy() > 0,
        "expected stranded PT records after a cut-off"
    );
    // The delivered prefix still produced samples.
    assert!(!samples.is_empty());
    let (unlimited, _) =
        run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &out.packets);
    assert!(unlimited.len() >= samples.len());
}
