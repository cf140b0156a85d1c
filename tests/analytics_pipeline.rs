//! Engine → analytics integration: min-filtering, per-prefix aggregation,
//! the preemptive-discard hook, and bufferbloat detection riding on real
//! engine output.

use dart::analytics::{
    min_discard_pair, BufferbloatConfig, BufferbloatDetector, MinFilter, PrefixAggregator, Window,
};
use dart::core::{run_monitor_slice, DartConfig, DartEngine, RttMonitor, RttSample};
use dart::packet::{FlowKey, MILLISECOND, SECOND};
use dart::sim::netsim::{simulate, ConnSpec};
use dart::sim::scenario::{campus, CampusConfig};

#[test]
fn preemptive_discard_saves_recirculations_without_hurting_the_min() {
    let trace = campus(CampusConfig {
        connections: 400,
        duration: 8 * SECOND,
        ..CampusConfig::default()
    });
    // Tight PT to force evictions.
    let cfg = DartConfig::default()
        .with_rt(1 << 12)
        .with_pt(1 << 6, 1)
        .with_max_recirc(4);

    // Plain run.
    let (plain_samples, plain_stats) = run_monitor_slice(&mut DartEngine::new(cfg), &trace.packets);

    // Discard-filter run.
    let (sink, filter) = min_discard_pair(SECOND, Vec::new());
    let mut engine = DartEngine::with_filter(cfg, Box::new(filter));
    let mut sink = sink;
    for p in &trace.packets {
        engine.on_packet(p, &mut sink);
    }
    engine.flush(&mut sink);
    let filtered_stats = engine.stats();
    let filtered_samples = sink.into_inner();

    assert!(
        filtered_stats.recirc_filtered > 0,
        "filter never fired — PT not under pressure?"
    );
    assert!(filtered_stats.recirc_issued < plain_stats.recirc_issued);

    // The quantity the analytics cares about — the windowed minimum — is
    // unaffected: discarded records could never have beaten it.
    let window_mins = |samples: &[RttSample]| {
        let mut f = MinFilter::new(Window::Time(SECOND));
        let mut mins = Vec::new();
        for s in samples {
            if let Some(w) = f.offer(s.rtt, s.ts) {
                mins.push(w.min_rtt);
            }
        }
        mins
    };
    let plain_mins = window_mins(&plain_samples);
    let filtered_mins = window_mins(&filtered_samples);
    assert_eq!(plain_mins.len(), filtered_mins.len());
    for (a, b) in plain_mins.iter().zip(&filtered_mins) {
        // Identical or better-than within jitter of sampling differences.
        let diff = (*a as i64 - *b as i64).abs() as f64 / (*a).max(1) as f64;
        assert!(diff < 0.25, "window min diverged: {a} vs {b}");
    }
}

#[test]
fn prefix_aggregation_sees_every_sampled_prefix() {
    let trace = campus(CampusConfig {
        connections: 300,
        duration: 5 * SECOND,
        ..CampusConfig::default()
    });
    let (samples, _) = run_monitor_slice(
        &mut DartEngine::new(DartConfig::unlimited()),
        &trace.packets,
    );
    let mut agg = PrefixAggregator::new(24, Window::Count(4));
    let mut total = 0u64;
    for s in &samples {
        agg.offer(s);
        total += 1;
    }
    assert!(agg.prefixes() > 5, "expected many destination /24s");
    let counted: u64 = agg.snapshot().iter().map(|(p, _)| agg.count(p)).sum();
    assert_eq!(counted, total);
}

#[test]
fn bufferbloat_detector_fires_on_inflating_connection() {
    // A path whose external delay steps up 8x mid-trace, with continuous
    // short transfers: the detector should flag a sustained episode.
    let flow = FlowKey::from_raw(0x0a08_0303, 41001, 0x08080808, 443);
    let mut specs = Vec::new();
    for i in 0..120u64 {
        let mut spec = ConnSpec::simple(
            FlowKey::from_raw(0x0a08_0303, 41001 + i as u16, 0x08080808, 443),
            i * 100 * MILLISECOND,
            400,
            800,
        );
        spec.path.jitter = 0.02;
        spec.path.ext_owd = 5 * MILLISECOND;
        // Bloat starts at t = 6 s.
        spec.path.ext_owd_step = Some((6 * SECOND, 40 * MILLISECOND));
        specs.push(spec);
    }
    let out = simulate(specs, 99);
    let (samples, _) =
        run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &out.packets);
    assert!(!samples.is_empty());

    let mut det = BufferbloatDetector::new(BufferbloatConfig {
        window: Window::Count(6),
        inflation: 4.0,
        sustain: 2,
    });
    let mut events = 0;
    for s in &samples {
        if det.offer(s.rtt, s.ts).is_some() {
            events += 1;
        }
    }
    assert!(events >= 1, "bufferbloat never detected");
    let _ = flow;
}
