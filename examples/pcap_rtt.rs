//! A `pping`-style command-line tool: read a pcap capture, run Dart over
//! it, and print per-packet RTT samples plus a summary — or, with no
//! argument, synthesize a demo capture first and then analyze it
//! (exercising the full pcap write → read → parse → measure path).
//!
//! ```text
//! cargo run --example pcap_rtt [capture.pcap] [internal-prefix]
//! ```
//!
//! `internal-prefix` (default `10.0.0.0/8`) tells the monitor which side of
//! the capture is "inside"; data flowing away from it is measured on the
//! external leg.

use dart::analytics::RttDistribution;
use dart::core::{DartConfig, DartEngine, RttMonitor, RttSample};
use dart::packet::parse::PrefixClassifier;
use dart::packet::{pcap, PacketSource, PcapSource};
use dart::sim::scenario::{campus, CampusConfig};
use std::net::Ipv4Addr;

fn parse_prefix(s: &str) -> (Ipv4Addr, u8) {
    let (addr, len) = s.split_once('/').unwrap_or((s, "8"));
    (
        addr.parse().expect("bad prefix address"),
        len.parse().expect("bad prefix length"),
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next();
    let prefix = parse_prefix(&args.next().unwrap_or_else(|| "10.0.0.0/8".into()));
    let classifier = PrefixClassifier::new([prefix]);

    // Obtain capture bytes: from disk, or synthesized on the spot.
    let bytes = match &path {
        Some(p) => {
            println!("reading {p}");
            std::fs::read(p).expect("read pcap file")
        }
        None => {
            println!("no capture given — synthesizing a demo capture");
            let trace = campus(CampusConfig {
                connections: 120,
                duration: 3 * dart::packet::SECOND,
                ..CampusConfig::default()
            });
            let buf = pcap::to_bytes(&trace.packets);
            println!(
                "synthesized {} packets ({} bytes of pcap)",
                trace.len(),
                buf.len()
            );
            buf
        }
    };

    let mut source = PcapSource::new(&bytes[..], classifier).expect("pcap header");
    let mut packets = Vec::new();
    source.read_to_end(&mut packets).expect("parse pcap");
    println!(
        "parsed {} TCP packets ({} non-TCP/unsupported skipped)\n",
        packets.len(),
        source.skipped()
    );

    let mut dart = DartEngine::new(DartConfig::default().with_rt(1 << 14).with_pt(1 << 13, 1));
    let mut samples: Vec<RttSample> = Vec::new();
    let mut shown = 0;
    for p in &packets {
        let before = samples.len();
        dart.on_packet(p, &mut samples);
        if samples.len() > before && shown < 10 {
            let s = samples.last().unwrap();
            println!(
                "[{:10.6}s] {} rtt={:.3} ms",
                s.ts as f64 / 1e9,
                s.flow,
                s.rtt_ms()
            );
            shown += 1;
        }
    }
    dart.flush(&mut samples);
    if samples.len() > shown {
        println!("... and {} more samples", samples.len() - shown);
    }

    let mut dist = RttDistribution::from_samples(samples.iter().map(|s| s.rtt));
    println!("\nsummary:");
    println!("  samples : {}", dist.len());
    for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
        if let Some(v) = dist.percentile(p) {
            println!("  {label}     : {:.3} ms", v as f64 / 1e6);
        }
    }
    let stats = dart.stats();
    println!(
        "  tracked : {} data packets, {} retransmissions refused, {} recirculations",
        stats.seq_tracked, stats.seq_retransmission, stats.recirc_issued
    );
}
