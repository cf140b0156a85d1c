//! The block body's cost against block size: the same serial replay fed
//! through `on_packet` — the engine's one body over one-packet
//! blocks, the `per_packet` series and the left end of the curve — and
//! through `on_batch` at block sizes 32, 256, and 1024. What DESIGN.md
//! §5f says blocks buy is the `batch/*` / `per_packet` ratio here; the
//! ledger's `core.engine.exact.{batch,packet,block1}_ns_per_pkt` rows
//! (`bash crates/perf/run.sh --trace 1`) are the full-trace numbers.
//!
//! ```text
//! cargo bench -p dart-bench --bench batch_pipeline
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dart_bench::{standard_trace, TraceScale};
use dart_core::{DartConfig, DartEngine, RttMonitor, RttSample};

const BLOCK_SIZES: [usize; 3] = [32, 256, 1024];

fn batch_pipeline(c: &mut Criterion) {
    let trace = standard_trace(TraceScale::Small);
    let cfg = DartConfig::default();
    let mut g = c.benchmark_group("batch_pipeline");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.sample_size(20);

    g.bench_function("per_packet", |b| {
        b.iter(|| {
            let mut engine = DartEngine::new(cfg);
            let mut samples: Vec<RttSample> = Vec::new();
            for pkt in &trace.packets {
                engine.on_packet(pkt, &mut samples);
            }
            engine.flush(&mut samples);
            samples.len()
        });
    });

    for bs in BLOCK_SIZES {
        g.bench_function(BenchmarkId::new("batch", bs), |b| {
            b.iter(|| {
                let mut engine = DartEngine::new(cfg);
                let mut samples: Vec<RttSample> = Vec::new();
                for chunk in trace.packets.chunks(bs) {
                    engine.on_batch(chunk, &mut samples);
                }
                engine.flush(&mut samples);
                samples.len()
            });
        });
    }

    g.finish();
}

criterion_group!(benches, batch_pipeline);
criterion_main!(benches);
