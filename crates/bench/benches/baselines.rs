//! Side-by-side processing cost of Dart and every baseline on the same
//! trace — the software-performance context for §1's "RTT monitoring in
//! software is computationally expensive".

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dart_baselines::{Fridge, FridgeConfig, Strawman, StrawmanConfig, TcpTrace, TcpTraceConfig};
use dart_bench::{standard_trace, TraceScale};
use dart_core::{run_monitor_slice, DartConfig, DartEngine};

fn baseline_costs(c: &mut Criterion) {
    let trace = standard_trace(TraceScale::Small);
    let mut g = c.benchmark_group("baselines");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.sample_size(10);

    g.bench_function("dart_constrained", |b| {
        b.iter(|| {
            let cfg = DartConfig::default().with_rt(1 << 13).with_pt(1 << 12, 1);
            run_monitor_slice(&mut DartEngine::new(cfg), &trace.packets)
                .0
                .len()
        });
    });

    g.bench_function("tcptrace", |b| {
        b.iter(|| {
            let mut tt = TcpTrace::new(TcpTraceConfig::default());
            run_monitor_slice(&mut tt, &trace.packets).0.len()
        });
    });

    g.bench_function("strawman", |b| {
        b.iter(|| {
            let mut sm = Strawman::new(StrawmanConfig {
                slots: 1 << 12,
                ..StrawmanConfig::default()
            });
            run_monitor_slice(&mut sm, &trace.packets).0.len()
        });
    });

    g.bench_function("fridge", |b| {
        b.iter(|| {
            let mut fr = Fridge::new(FridgeConfig {
                slots: 1 << 12,
                ..FridgeConfig::default()
            });
            run_monitor_slice(&mut fr, &trace.packets).0.len()
        });
    });

    g.finish();
}

criterion_group!(benches, baseline_costs);
criterion_main!(benches);
