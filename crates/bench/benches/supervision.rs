//! Supervision overhead: what the fault-tolerant sharded runtime costs on
//! the healthy path. Every row replays the same trace with zero injected
//! faults, so the differences are pure supervision machinery — the
//! per-block `catch_unwind`, the watchdog-guarded ring hand-off, the health
//! bookkeeping — plus, for the `hooked` row, one dynamic call per packet
//! through an installed no-op [`PacketHook`] (the chaos-injection seam),
//! made in a loop of its own before each block enters the engine.
//!
//! The `serial` row is the un-sharded engine; `sharded4/*` rows run four
//! shards under each [`FailurePolicy`]. Policies only diverge *after* a
//! failure, so on this healthy trace they should be within noise of each
//! other — a spread here means the policy dispatch leaked onto the hot
//! path.
//!
//! ```text
//! cargo bench -p dart-bench --bench supervision
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dart_bench::{standard_trace, TraceScale};
use dart_core::{
    run_monitor_slice, DartConfig, DartEngine, FailurePolicy, PacketHook, ShardedConfig,
    ShardedMonitor,
};
use std::sync::Arc;

fn run_sharded(
    cfg: ShardedConfig,
    hook: Option<PacketHook>,
    packets: &[dart_packet::PacketMeta],
) -> usize {
    let mut monitor = match hook {
        Some(hook) => ShardedMonitor::with_packet_hook(cfg, hook),
        None => ShardedMonitor::new(cfg),
    };
    for p in packets {
        monitor.feed(p);
    }
    monitor.into_run().samples.len()
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

    for policy in [
        FailurePolicy::FailFast,
        FailurePolicy::RestartShard,
        FailurePolicy::ShedLoad,
    ] {
        g.bench_function(format!("sharded4/{policy}"), |b| {
            b.iter(|| {
                let sharded = ShardedConfig::new(cfg, 4).with_policy(policy);
                run_sharded(sharded, None, &trace.packets)
            });
        });
    }

    g.bench_function("sharded4/hooked", |b| {
        b.iter(|| {
            let sharded = ShardedConfig::new(cfg, 4).with_policy(FailurePolicy::FailFast);
            let noop: PacketHook = Arc::new(|_, _| {});
            run_sharded(sharded, Some(noop), &trace.packets)
        });
    });

    g.finish();
}

criterion_group!(benches, supervision_overhead);
criterion_main!(benches);
