//! What building a trace costs, per generated packet: the stand-in for the
//! paper's campus capture (DESIGN.md §1) that every figure, golden and
//! ledger workload is built from.
//!
//! * `campus_shape` — `campus()` at the `campus-native` workload's
//!   arrival rate (3200 connections per 60 s), cut to 15 s;
//! * `churn_shape` — `campus()` at the `churn-pressure` rate (8000 per
//!   4 s), cut to 1 s: about forty times the connections in flight, so the
//!   event queue is that much deeper;
//! * `synthesize_frame` — the Ethernet/IPv4/TCP frame a pcap export writes
//!   for each packet, over the campus-shape packets.
//!
//! The rate column is generated packets per second.
//!
//! ```text
//! cargo bench -p dart-bench --bench sim
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dart_packet::parse::synthesize_frame;
use dart_packet::SECOND;
use dart_sim::scenario::{campus, CampusConfig};

fn shape(connections: usize, secs: u64) -> CampusConfig {
    CampusConfig {
        connections,
        duration: secs * SECOND,
        seed: 55_846,
        ..CampusConfig::default()
    }
}

fn sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.sample_size(5);
    for (name, cfg) in [
        ("campus_shape", shape(800, 15)),
        ("churn_shape", shape(2000, 1)),
    ] {
        g.throughput(Throughput::Elements(campus(cfg).len() as u64));
        g.bench_function(name, |b| b.iter(|| campus(cfg).len()));
    }

    let packets = campus(shape(800, 15)).packets;
    g.throughput(Throughput::Elements(packets.len() as u64));
    g.sample_size(10);
    g.bench_function("synthesize_frame", |b| {
        b.iter(|| {
            packets
                .iter()
                .map(|p| black_box(synthesize_frame(p)).len())
                .sum::<usize>()
        });
    });
    g.finish();
}

criterion_group!(benches, sim);
criterion_main!(benches);
