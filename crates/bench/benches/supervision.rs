//! Supervision overhead: what the fault-tolerant sharded runtime costs on
//! the healthy path. Every row replays the same trace with zero injected
//! faults, so the differences are pure supervision machinery — the
//! per-block `catch_unwind`, the watchdog-guarded ring hand-off, the health
//! bookkeeping — plus, for the `hooked` row, one dynamic call per packet
//! through an installed no-op [`PacketHook`] (the chaos-injection seam),
//! made in a loop of its own before each block enters the engine.
//!
//! The `serial` row is the un-sharded engine; `sharded4` runs four shards
//! under the one supervision rule (respawn, then shed), and
//! `sharded4/hooked` the same with the no-op hook. The rule acts only
//! *after* a failure, so `sharded4` over `serial` is what the healthy path
//! pays for the hand-off and its supervision, and `sharded4/hooked` over
//! `sharded4` is the cost of the hook seam alone.
//!
//! ```text
//! cargo bench -p dart-bench --bench supervision
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dart_bench::{standard_trace, TraceScale};
use dart_core::{
    run_monitor_slice, DartConfig, DartEngine, PacketHook, RttMonitor, ShardedConfig,
    ShardedMonitor,
};
use std::sync::Arc;

fn run_sharded(
    cfg: ShardedConfig,
    hook: Option<PacketHook>,
    packets: &[dart_packet::PacketMeta],
) -> usize {
    let mut monitor = ShardedMonitor::spawn(cfg, None, hook);
    let mut samples = Vec::new();
    for p in packets {
        monitor.on_packet(p, &mut samples);
    }
    monitor.flush(&mut samples);
    samples.len()
}

fn supervision_overhead(c: &mut Criterion) {
    let trace = standard_trace(TraceScale::Small);
    let cfg = DartConfig::default();
    let mut g = c.benchmark_group("supervision_overhead");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.sample_size(20);

    g.bench_function("serial", |b| {
        b.iter(|| {
            let mut engine = DartEngine::new(cfg);
            run_monitor_slice(&mut engine, &trace.packets).0.len()
        });
    });

    g.bench_function("sharded4", |b| {
        b.iter(|| run_sharded(ShardedConfig::new(cfg, 4), None, &trace.packets));
    });

    g.bench_function("sharded4/hooked", |b| {
        b.iter(|| {
            let noop: PacketHook = Arc::new(|_, _| {});
            run_sharded(ShardedConfig::new(cfg, 4), Some(noop), &trace.packets)
        });
    });

    g.finish();
}

criterion_group!(benches, supervision_overhead);
criterion_main!(benches);
