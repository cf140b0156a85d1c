//! Where a pcap packet's decode time goes, split at public API over a
//! snaplen-96 capture of `standard_trace` — the shape `campus-pcap`
//! replays — from the floor up:
//!
//! * `window_copy` — `Read` of the capture into a window of the readers'
//!   size (six 1024-record native blocks), nothing decoded: the copy every
//!   block reader pays;
//! * `next_frame` — `PcapReader::next_frame` walking the record headers;
//! * `parse_ethernet_frame` — the wire parse and direction classification
//!   over frames split up front, no reader at all;
//! * `pcap_source` — `PcapSource` drained in 1024-packet blocks: all of the
//!   above in one pass, what `analyze`'s read-ahead helper runs;
//! * `trace_reader` — the native `TraceReader` over the same packets, the
//!   floor for the `PacketMeta` push;
//! * `engine_batch` — the serial engine over the same packets in
//!   1024-packet blocks, the pace the decode has to keep.
//!
//! ```text
//! cargo bench -p dart-bench --bench decode
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dart_bench::{standard_trace, TraceScale};
use dart_core::{DartConfig, DartEngine, RttSample};
use dart_packet::parse::{parse_ethernet_frame, synthesize_frame, PrefixClassifier};
use dart_packet::pcap::{linktype, PcapReader, PcapWriter};
use dart_packet::trace::{self, TraceReader};
use dart_packet::{PacketMeta, PacketSource, PcapSource};
use std::io::Read;
use std::net::Ipv4Addr;

/// What `campus-pcap` keeps of each frame: headers and options fit in 66.
const SNAPLEN: usize = 96;
/// The block readers' window: six 1024-record blocks of the native trace.
const WINDOW_BYTES: usize = 6 * 1024 * trace::RECORD_LEN;
const BLOCK: usize = 1024;

fn classifier() -> PrefixClassifier {
    PrefixClassifier::new([(Ipv4Addr::new(10, 0, 0, 0), 8)])
}

/// Pull `source` dry in `BLOCK`-packet blocks; the packet count.
fn drain(mut source: impl PacketSource) -> usize {
    let mut block = Vec::with_capacity(BLOCK);
    let mut n = 0;
    loop {
        match source.next_chunk(&mut block, BLOCK).expect("decode") {
            0 => return n,
            k => n += black_box(&block[..k]).len(),
        }
    }
}

fn decode(c: &mut Criterion) {
    let trace = standard_trace(TraceScale::Small);
    // The captured frames back to back, as the reader's window holds
    // them, and where each one starts.
    let mut frame_bytes = Vec::new();
    let mut frames = Vec::with_capacity(trace.len());
    let mut pcap = Vec::new();
    let mut w = PcapWriter::new(&mut pcap, linktype::ETHERNET).expect("pcap header");
    for p in &trace.packets {
        let frame = synthesize_frame(p);
        let frame = &frame[..frame.len().min(SNAPLEN)];
        w.write_record(p.ts, frame).expect("pcap record");
        frames.push((p.ts, frame_bytes.len()..frame_bytes.len() + frame.len()));
        frame_bytes.extend_from_slice(frame);
    }
    w.finish().expect("pcap flush");
    let native = trace::to_bytes(&trace.packets);

    let mut g = c.benchmark_group("decode");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.sample_size(20);

    g.bench_function("window_copy", |b| {
        let mut window = vec![0u8; WINDOW_BYTES];
        b.iter(|| {
            let mut input = &pcap[..];
            let mut bytes = 0;
            loop {
                match input.read(&mut window).expect("slice read") {
                    0 => return bytes,
                    n => bytes += black_box(&window[..n]).len(),
                }
            }
        });
    });

    g.bench_function("next_frame", |b| {
        b.iter(|| {
            let mut reader = PcapReader::new(&pcap[..]).expect("pcap header");
            let mut n = 0;
            while let Some(frame) = reader.next_frame().expect("record") {
                black_box(frame);
                n += 1;
            }
            n
        });
    });

    g.bench_function("parse_ethernet_frame", |b| {
        let classifier = classifier();
        b.iter(|| {
            frames
                .iter()
                .filter_map(|(ts, at)| {
                    parse_ethernet_frame(*ts, &frame_bytes[at.clone()], &classifier).ok()
                })
                .map(black_box::<PacketMeta>)
                .count()
        });
    });

    g.bench_function("pcap_source", |b| {
        b.iter(|| drain(PcapSource::new(&pcap[..], classifier()).expect("pcap header")));
    });

    g.bench_function("trace_reader", |b| {
        b.iter(|| drain(TraceReader::new(&native[..]).expect("trace header")));
    });

    g.bench_function("engine_batch", |b| {
        let cfg = DartConfig::default();
        b.iter(|| {
            let mut engine = DartEngine::new(cfg);
            let mut samples: Vec<RttSample> = Vec::new();
            for block in trace.packets.chunks(BLOCK) {
                engine.process_batch(block, &mut samples);
            }
            engine.flush();
            samples.len()
        });
    });

    g.finish();
}

criterion_group!(benches, decode);
criterion_main!(benches);
