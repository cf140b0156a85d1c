//! Engine throughput: packets/second through the Dart pipeline in its
//! hardware-shaped and idealized configurations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dart_bench::{standard_trace, TraceScale};
use dart_core::{run_monitor_slice, DartConfig, DartEngine, ShardedConfig, ShardedMonitor};
use dart_packet::SECOND;
use dart_sim::scenario::{campus, CampusConfig};

fn engine_throughput(c: &mut Criterion) {
    let trace = standard_trace(TraceScale::Small);
    let mut g = c.benchmark_group("engine_throughput");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.sample_size(10);

    let configs: Vec<(&str, DartConfig)> = vec![
        ("unlimited", DartConfig::unlimited()),
        (
            "constrained_pt12",
            DartConfig::default().with_rt(1 << 13).with_pt(1 << 12, 1),
        ),
        (
            "constrained_pt8",
            DartConfig::default().with_rt(1 << 13).with_pt(1 << 8, 1),
        ),
        (
            "constrained_8stage",
            DartConfig::default()
                .with_rt(1 << 13)
                .with_pt(1 << 12, 8)
                .with_max_recirc(4),
        ),
    ];
    for (name, cfg) in configs {
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| {
                run_monitor_slice(&mut DartEngine::new(*cfg), &trace.packets)
                    .0
                    .len()
            });
        });
    }
    g.finish();
}

/// Sharded vs serial replay. Under `cargo bench` this uses a ~10⁶-packet
/// campus trace (the size where hand-off overhead is amortized and the
/// shard comparison is meaningful); under `cargo test`'s `--test` sweep it
/// drops to the small trace so test runs stay fast.
fn sharded_vs_serial(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let trace = if test_mode {
        standard_trace(TraceScale::Small)
    } else {
        let t = campus(CampusConfig {
            connections: 3_200,
            duration: 60 * SECOND,
            ..CampusConfig::default()
        });
        eprintln!("sharded_vs_serial trace: {} packets", t.len());
        t
    };
    let cfg = DartConfig::default();
    let mut g = c.benchmark_group("sharded_vs_serial");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.sample_size(5);

    g.bench_function("serial", |b| {
        b.iter(|| {
            run_monitor_slice(&mut DartEngine::new(cfg), &trace.packets)
                .0
                .len()
        });
    });
    for shards in [2usize, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("sharded", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let mut monitor = ShardedMonitor::new(ShardedConfig::new(cfg, shards));
                    run_monitor_slice(&mut monitor, &trace.packets).0.len()
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, engine_throughput, sharded_vs_serial);
criterion_main!(benches);
