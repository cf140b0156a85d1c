//! Ablation benches for the design choices DESIGN.md calls out: each
//! compares sample yield/accuracy with a mechanism enabled vs disabled,
//! reporting via Criterion timing plus eprintln'd quality metrics on the
//! first iteration.

use criterion::{criterion_group, criterion_main, Criterion};
use dart_analytics::min_discard_pair;
use dart_baselines::{Strawman, StrawmanConfig};
use dart_bench::{standard_trace, tcptrace_const, AccuracyReport, TraceScale};
use dart_core::{run_monitor_slice, DartConfig, DartEngine, RttMonitor, SynPolicy};
use dart_packet::{SignatureWidth, MILLISECOND, SECOND};
use std::sync::Once;

fn quality_once(label: &str, once: &Once, f: impl FnOnce() -> String) {
    let msg = f();
    once.call_once(|| eprintln!("[ablation:{label}] {msg}"));
}

/// Lazy eviction + recirculation (Dart) vs timeout / evict-on-collision
/// (strawman policies) at the same table size.
fn ablation_eviction(c: &mut Criterion) {
    let trace = standard_trace(TraceScale::Small);
    let (baseline, _) = tcptrace_const(&trace.packets);
    let slots = 1 << 8;
    let mut g = c.benchmark_group("ablation_eviction");
    g.sample_size(10);

    static ONCE_A: Once = Once::new();
    g.bench_function("dart_lazy_recirc", |b| {
        b.iter(|| {
            let cfg = DartConfig::default()
                .with_rt(1 << 13)
                .with_pt(slots, 1)
                .with_max_recirc(4);
            let (samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &trace.packets);
            quality_once("eviction", &ONCE_A, || {
                AccuracyReport::compare(&baseline, &samples, &stats).row("dart")
            });
            samples.len()
        });
    });

    for (name, timeout, evict) in [
        ("strawman_timeout", Some(250 * MILLISECOND), false),
        ("strawman_evict", None, true),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut sm = Strawman::new(StrawmanConfig {
                    slots,
                    timeout,
                    evict_on_collision: evict,
                    ..StrawmanConfig::default()
                });
                run_monitor_slice(&mut sm, &trace.packets).0.len()
            });
        });
    }
    g.finish();
}

/// The Range Tracker's contribution: Dart with the RT in front vs the
/// strawman tracking everything (ambiguous samples included).
fn ablation_rt(c: &mut Criterion) {
    let trace = standard_trace(TraceScale::Small);
    let mut g = c.benchmark_group("ablation_range_tracker");
    g.sample_size(10);
    g.bench_function("with_rt", |b| {
        b.iter(|| {
            let cfg = DartConfig::default().with_rt(1 << 13).with_pt(1 << 12, 1);
            run_monitor_slice(&mut DartEngine::new(cfg), &trace.packets)
                .0
                .len()
        });
    });
    g.bench_function("without_rt_strawman", |b| {
        b.iter(|| {
            let mut sm = Strawman::new(StrawmanConfig {
                slots: 1 << 12,
                timeout: None,
                ..StrawmanConfig::default()
            });
            run_monitor_slice(&mut sm, &trace.packets).0.len()
        });
    });
    g.finish();
}

/// Preemptive discard (§3.3): min-filter-aware recirculation vs
/// recirculate-everything, recirculation volume compared.
fn ablation_discard(c: &mut Criterion) {
    let trace = standard_trace(TraceScale::Small);
    let mut g = c.benchmark_group("ablation_discard");
    g.sample_size(10);
    static ONCE_D: Once = Once::new();
    g.bench_function("discard_filter", |b| {
        b.iter(|| {
            let cfg = DartConfig::default()
                .with_rt(1 << 13)
                .with_pt(1 << 7, 1)
                .with_max_recirc(4);
            let (sink, filter) = min_discard_pair(SECOND, Vec::new());
            let mut engine = DartEngine::with_filter(cfg, Box::new(filter));
            let mut sink = sink;
            for p in &trace.packets {
                engine.on_packet(p, &mut sink);
            }
            engine.flush(&mut sink);
            quality_once("discard", &ONCE_D, || {
                format!(
                    "filtered={} issued={}",
                    engine.stats().recirc_filtered,
                    engine.stats().recirc_issued
                )
            });
            engine.stats().recirc_issued
        });
    });
    g.bench_function("recirculate_all", |b| {
        b.iter(|| {
            let cfg = DartConfig::default()
                .with_rt(1 << 13)
                .with_pt(1 << 7, 1)
                .with_max_recirc(4);
            let (_, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &trace.packets);
            stats.recirc_issued
        });
    });
    g.finish();
}

/// Flow-signature width (§4): shorter signatures risk false matches,
/// longer ones spend SRAM; compare sample counts across widths.
fn ablation_sig_width(c: &mut Criterion) {
    let trace = standard_trace(TraceScale::Small);
    let mut g = c.benchmark_group("ablation_sig_width");
    g.sample_size(10);
    for (name, width) in [
        ("w16", SignatureWidth::W16),
        ("w32", SignatureWidth::W32),
        ("w64", SignatureWidth::W64),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = DartConfig::default().with_rt(1 << 13).with_pt(1 << 12, 1);
                cfg.sig_width = width;
                run_monitor_slice(&mut DartEngine::new(cfg), &trace.packets)
                    .0
                    .len()
            });
        });
    }
    g.finish();
}

/// SYN policy (Fig. 10 in bench form).
fn ablation_syn(c: &mut Criterion) {
    let trace = standard_trace(TraceScale::Small);
    let mut g = c.benchmark_group("ablation_syn_policy");
    g.sample_size(10);
    for (name, policy) in [("skip", SynPolicy::Skip), ("include", SynPolicy::Include)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let cfg = DartConfig::unlimited().with_syn(policy);
                run_monitor_slice(&mut DartEngine::new(cfg), &trace.packets)
                    .0
                    .len()
            });
        });
    }
    g.finish();
}

/// §7 victim cache: recirculations saved vs samples gained per cache size.
fn ablation_victim_cache(c: &mut Criterion) {
    let trace = standard_trace(TraceScale::Small);
    let (baseline, _) = tcptrace_const(&trace.packets);
    let mut g = c.benchmark_group("ablation_victim_cache");
    g.sample_size(10);
    static ONCE_V: Once = Once::new();
    for cache in [0usize, 16, 64, 256] {
        g.bench_function(format!("cache_{cache}"), |b| {
            b.iter(|| {
                let cfg = DartConfig::default()
                    .with_rt(1 << 13)
                    .with_pt(1 << 7, 1)
                    .with_victim_cache(cache)
                    .with_max_recirc(2);
                let (samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &trace.packets);
                if cache == 256 {
                    quality_once("victim_cache", &ONCE_V, || {
                        format!(
                            "cache=256: {} | hits={} recirc={}",
                            AccuracyReport::compare(&baseline, &samples, &stats).row("vc256"),
                            stats.victim_cache_hits,
                            stats.recirc_issued
                        )
                    });
                }
                samples.len()
            });
        });
    }
    g.finish();
}

/// §7 RT copy: recirculation-free operation vs the accuracy cost of the
/// copy's sync lag.
fn ablation_rt_copy(c: &mut Criterion) {
    let trace = standard_trace(TraceScale::Small);
    let (baseline, _) = tcptrace_const(&trace.packets);
    let mut g = c.benchmark_group("ablation_rt_copy");
    g.sample_size(10);
    static ONCE_RC: Once = Once::new();
    let base_cfg = || {
        DartConfig::default()
            .with_rt(1 << 13)
            .with_pt(1 << 7, 1)
            .with_max_recirc(2)
    };
    g.bench_function("recirculation", |b| {
        b.iter(|| {
            run_monitor_slice(&mut DartEngine::new(base_cfg()), &trace.packets)
                .0
                .len()
        });
    });
    for sync_us in [10u64, 1000, 100_000] {
        g.bench_function(format!("rt_copy_{sync_us}us"), |b| {
            b.iter(|| {
                let cfg = base_cfg().with_rt_copy(sync_us * 1_000);
                let (samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &trace.packets);
                if sync_us == 100_000 {
                    quality_once("rt_copy", &ONCE_RC, || {
                        format!(
                            "sync=100ms: {} | reinserted={} dropped={} recirc={}",
                            AccuracyReport::compare(&baseline, &samples, &stats).row("copy"),
                            stats.rt_copy_reinserted,
                            stats.rt_copy_dropped,
                            stats.recirc_issued
                        )
                    });
                }
                samples.len()
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablation_eviction,
    ablation_rt,
    ablation_discard,
    ablation_sig_width,
    ablation_syn,
    ablation_victim_cache,
    ablation_rt_copy
);
criterion_main!(benches);
