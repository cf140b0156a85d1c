//! Telemetry overhead: the same serial replay bare vs. with the full
//! `EngineTelemetry` hooks attached (per-shard counters, RTT histogram,
//! recirculation gauges). The <3% overhead budget in DESIGN.md §5d is the
//! `instrumented` / `bare` ratio here.
//!
//! The `staged` row adds the driver loop's per-stage timing
//! (`drive_timed`: `StageTimers` around decode/match/flush, the loop
//! `dartmon serve` runs) on top of the attached hooks — the clock is in the
//! driver, once per *block*, so the row must stay inside the same <3%
//! budget.
//!
//! Neither row is a build variant: `bare` is the engine with no hooks
//! attached (the `telemetry` field is `None`, so the hot path pays one
//! untaken branch per sync point), `instrumented` the same engine with
//! them attached at run time.
//!
//! The `churn_*` rows repeat bare/instrumented on the geometry where the
//! attach cost is actually spent — RT 4096 / PT 512 / recirc 2 / both legs
//! (the ledger's `churn-pressure`), where PT displacement keeps the
//! recirculation port busy and the port publishes its depth gauge and
//! histogram on every submit and pop. The 3% budget holds on the default
//! rows only; see DESIGN.md §5d and EXPERIMENTS.md "One build (PR 20)".
//!
//! ```text
//! cargo bench -p dart-bench --bench telemetry_overhead
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dart_bench::{standard_trace, TraceScale};
use dart_core::{
    drive_timed, run_monitor_slice, DartConfig, DartEngine, EngineTelemetry, Leg, RttSample,
    StageTimers, DEFAULT_BLOCK_PKTS,
};
use dart_packet::SliceSource;
use dart_telemetry::MetricRegistry;

fn telemetry_overhead(c: &mut Criterion) {
    let trace = standard_trace(TraceScale::Small);
    let cfg = DartConfig::default();
    let churn = DartConfig::default()
        .with_leg(Leg::Both)
        .with_rt(4096)
        .with_pt(512, 1)
        .with_max_recirc(2);
    let mut g = c.benchmark_group("telemetry_overhead");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.sample_size(20);

    for (prefix, cfg) in [("", cfg), ("churn_", churn)] {
        g.bench_function(format!("{prefix}bare"), |b| {
            b.iter(|| {
                let mut engine = DartEngine::new(cfg);
                run_monitor_slice(&mut engine, &trace.packets).0.len()
            });
        });

        g.bench_function(format!("{prefix}instrumented"), |b| {
            let registry = MetricRegistry::new();
            b.iter(|| {
                let mut engine = DartEngine::new(cfg);
                engine.attach_telemetry(EngineTelemetry::register(&registry, 0));
                run_monitor_slice(&mut engine, &trace.packets).0.len()
            });
        });
    }

    g.bench_function("staged", |b| {
        let registry = MetricRegistry::new();
        let stage = StageTimers::register(&registry);
        b.iter(|| {
            let mut engine = DartEngine::new(cfg);
            engine.attach_telemetry(EngineTelemetry::register(&registry, 0));
            let mut sink: Vec<RttSample> = Vec::new();
            // The loop `run_monitor_slice` and the daemon run, with the
            // stage clock as the only addition.
            drive_timed(
                &mut engine,
                &mut SliceSource::new(&trace.packets),
                &mut sink,
                &stage,
                |_, _, _| Some(DEFAULT_BLOCK_PKTS),
            )
            .expect("slice sources are infallible");
            sink.len()
        });
    });

    g.finish();
}

criterion_group!(benches, telemetry_overhead);
criterion_main!(benches);
