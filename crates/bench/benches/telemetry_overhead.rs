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
//! The `bare` row compiled with `--no-default-features` is the true
//! feature-off baseline; compiled with default features it still measures
//! the engine without hooks attached (the `telemetry` field is `None`, so
//! the hot path pays one untaken branch per sync interval). Run both to
//! separate "feature compiled in" from "hooks attached":
//!
//! ```text
//! cargo bench -p dart-bench --bench telemetry_overhead
//! cargo bench -p dart-bench --bench telemetry_overhead --no-default-features
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dart_bench::{standard_trace, TraceScale};
use dart_core::{run_monitor_slice, DartConfig, DartEngine};

fn telemetry_overhead(c: &mut Criterion) {
    let trace = standard_trace(TraceScale::Small);
    let cfg = DartConfig::default();
    let mut g = c.benchmark_group("telemetry_overhead");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.sample_size(20);

    g.bench_function("bare", |b| {
        b.iter(|| {
            let mut engine = DartEngine::new(cfg);
            run_monitor_slice(&mut engine, &trace.packets).0.len()
        });
    });

    #[cfg(feature = "telemetry")]
    g.bench_function("instrumented", |b| {
        use dart_core::EngineTelemetry;
        use dart_telemetry::MetricRegistry;
        let registry = MetricRegistry::new();
        b.iter(|| {
            let mut engine = DartEngine::new(cfg);
            engine.attach_telemetry(EngineTelemetry::register(&registry, 0));
            run_monitor_slice(&mut engine, &trace.packets).0.len()
        });
    });

    #[cfg(feature = "telemetry")]
    g.bench_function("staged", |b| {
        use dart_core::{drive_timed, EngineTelemetry, RttSample, StageTimers, DEFAULT_BLOCK_PKTS};
        use dart_packet::SliceSource;
        use dart_telemetry::MetricRegistry;
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
                |_, _| Some(DEFAULT_BLOCK_PKTS),
            )
            .expect("slice sources are infallible");
            sink.len()
        });
    });

    g.finish();
}

criterion_group!(benches, telemetry_overhead);
criterion_main!(benches);
