//! One Criterion bench per paper artifact: times the `dart_bench::figures`
//! function that regenerates it at small scale — the experiment the bins
//! print and `tests/paper_shapes.rs` gates, not a copy of it — so
//! `cargo bench` exercises the entire evaluation pipeline end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use dart_bench::figures::{self, SweepAxis};
use dart_bench::{standard_trace, TraceScale};

fn figures(c: &mut Criterion) {
    let scale = TraceScale::Small;
    let trace = standard_trace(scale);
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);

    g.bench_function("table1_resources", |b| b.iter(figures::table1));
    g.bench_function("fig6_internal_leg", |b| {
        b.iter(|| figures::fig6(scale, &trace))
    });
    g.bench_function("fig8_attack_detection", |b| b.iter(figures::fig8));
    g.bench_function("fig9_four_way", |b| b.iter(|| figures::fig9(&trace)));
    g.bench_function("fig10_handshake_skipping", |b| {
        b.iter(|| figures::fig10(&trace))
    });
    for (name, axis) in [
        ("fig11_pt_size_sweep", SweepAxis::PtSize),
        ("fig12_stage_sweep", SweepAxis::Stages),
        ("fig13_recirc_sweep", SweepAxis::Recirc),
    ] {
        g.bench_function(name, |b| b.iter(|| figures::sweep(axis, scale, &trace)));
    }

    g.finish();
}

criterion_group!(benches, figures);
criterion_main!(benches);
