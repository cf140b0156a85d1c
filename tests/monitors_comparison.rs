//! Every monitoring approach the paper discusses, run on the same synthetic
//! campus trace — the §8 related-work comparison as executable assertions.

use dart::analytics::{CongestionConfig, CongestionMonitor};
use dart::baselines::{
    Dapper, DapperConfig, LeanRtt, Pping, PpingConfig, Strawman, StrawmanConfig,
};
use dart::core::{
    run_monitor, run_monitor_slice, DartConfig, DartEngine, EngineEvent, Leg, RttMonitor,
    RttSample, SampleSink,
};
use dart::packet::SliceSource;
use dart::sim::scenario::{campus, CampusConfig};

fn trace() -> dart::sim::scenario::GeneratedTrace {
    campus(CampusConfig {
        connections: 600,
        duration: 10 * dart::packet::SECOND,
        ts_frac: 0.6,
        ..CampusConfig::default()
    })
}

#[test]
fn dart_collects_far_more_samples_than_dapper() {
    // §8: Dapper tracks one packet per window — too few samples per unit
    // time for windowed analytics.
    let t = trace();
    let (dart, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &t.packets);
    let mut dapper = Dapper::new(DapperConfig::default());
    let (dapper_samples, _) = run_monitor_slice(&mut dapper, &t.packets);
    assert!(
        dart.len() as f64 > dapper_samples.len() as f64 * 1.5,
        "dart {} vs dapper {}",
        dart.len(),
        dapper_samples.len()
    );
    assert!(dapper.stats().skipped_busy > 0);
}

#[test]
fn pping_is_blind_to_optionless_flows_and_coarse_clocks() {
    // §8's critiques of timestamp-based measurement, as observable facts.
    // (pping can out-COUNT Dart on download-heavy traffic because it also
    // harvests the pure-ACK stream — the problem is coverage and precision,
    // not volume.)
    let t = trace();
    let (dart, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &t.packets);
    let mut pping = Pping::new(PpingConfig::default());
    let (pping_samples, _) = run_monitor_slice(&mut pping, &t.packets);

    // (1) A large share of traffic carries no option at all — invisible.
    assert!(pping.stats().no_option > 0, "option-less traffic exists");
    // (2) Coarse clocks collapse same-tick packets into one TSval.
    assert!(pping.stats().tsval_repeats > 0, "coarse ticks exist");

    // (3) Entire flows measured by Dart yield *zero* pping samples.
    let dart_flows: std::collections::HashSet<_> =
        dart.iter().map(|s| s.flow.canonical()).collect();
    let pping_flows: std::collections::HashSet<_> =
        pping_samples.iter().map(|s| s.flow.canonical()).collect();
    let blind = dart_flows.difference(&pping_flows).count();
    assert!(
        blind * 4 >= dart_flows.len(),
        "expected >=25% of Dart-measured flows invisible to pping: {blind}/{}",
        dart_flows.len()
    );
}

#[test]
fn lean_average_is_skewed_by_ack_thinning() {
    // The sum-based estimator's per-flow averages drift from Dart's matched
    // per-flow averages on real traffic (cumulative/delayed ACKs break its
    // pairing assumption).
    let t = trace();
    let (dart, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &t.packets);
    let mut lean = LeanRtt::new(Leg::External);
    run_monitor_slice(&mut lean, &t.packets);
    // Per-flow matched averages from Dart.
    let mut per_flow: std::collections::HashMap<_, (u64, u64)> = Default::default();
    for s in &dart {
        let e = per_flow.entry(s.flow).or_insert((0, 0));
        e.0 += s.rtt;
        e.1 += 1;
    }
    let mut compared = 0;
    let mut skewed = 0;
    for (flow, (sum, n)) in per_flow {
        if n < 10 {
            continue;
        }
        let dart_avg = sum / n;
        if let Some(est) = lean.estimate(&flow) {
            if let Some(lean_avg) = est.avg_rtt {
                compared += 1;
                let err = (lean_avg as f64 - dart_avg as f64).abs() / dart_avg as f64;
                if err > 0.25 {
                    skewed += 1;
                }
            }
        }
    }
    assert!(compared >= 10, "not enough comparable flows: {compared}");
    assert!(
        skewed * 2 > compared,
        "expected most lean estimates skewed >25%: {skewed}/{compared}"
    );
}

#[test]
fn strawman_emits_samples_dart_refuses() {
    // On lossy traffic the strawman reports ambiguous retransmission
    // samples; Dart refuses them by design.
    let t = trace();
    let (_, dart_stats) =
        run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &t.packets);
    let mut sm = Strawman::new(StrawmanConfig {
        slots: 1 << 16,
        timeout: None,
        ..StrawmanConfig::default()
    });
    let _ = run_monitor_slice(&mut sm, &t.packets);
    // Dart saw retransmissions and refused to track them.
    assert!(dart_stats.seq_retransmission > 0);
    // The strawman inserted everything anyway.
    assert!(sm.stats().inserted as usize > dart_stats.seq_tracked as usize);
}

/// The analytics end of the engine's sink: every event goes straight to
/// the congestion monitor.
struct Alerting {
    monitor: CongestionMonitor,
    collapses: u64,
    alerts: u64,
}

impl SampleSink for Alerting {
    fn on_sample(&mut self, _: RttSample) {}

    fn on_event(&mut self, ev: EngineEvent) {
        if matches!(ev, EngineEvent::RangeCollapse { .. }) {
            self.collapses += 1;
        }
        if self.monitor.offer(&ev).is_some() {
            self.alerts += 1;
        }
    }
}

#[test]
fn engine_events_drive_the_congestion_monitor() {
    let t = trace();
    let mut engine = DartEngine::new(DartConfig::unlimited());
    let mut sink = Alerting {
        monitor: CongestionMonitor::new(CongestionConfig {
            window: dart::packet::SECOND,
            collapse_threshold: 3,
        }),
        collapses: 0,
        alerts: 0,
    };
    run_monitor(&mut engine, SliceSource::new(&t.packets), &mut sink).unwrap();
    let collapses = engine.stats().range_collapses;
    assert_eq!(
        sink.collapses, collapses,
        "every collapse surfaced as an event"
    );
    // The lossy campus trace has at least one flow collapsing repeatedly.
    assert!(sink.alerts > 0, "no congestion alerts on a lossy trace");
    assert_eq!(sink.monitor.total_collapses(), collapses);
}
