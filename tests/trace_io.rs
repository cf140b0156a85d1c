//! Trace I/O integration: a simulated workload survives the full
//! native-format and pcap round trips, and every consumer (Dart, tcptrace)
//! produces identical results from the stored copy.

use dart::baselines::{TcpTrace, TcpTraceConfig};
use dart::core::{run_monitor_slice, DartConfig, DartEngine};
use dart::packet::parse::PrefixClassifier;
use dart::packet::trace::{self, TraceReader};
use dart::packet::{pcap, PacketError, PacketMeta, PacketSource, PcapSource};
use dart::sim::scenario::{campus, CampusConfig};
use std::net::Ipv4Addr;

/// A whole native trace, read back through its one source.
fn read_native(bytes: &[u8]) -> Result<Vec<PacketMeta>, PacketError> {
    let mut packets = Vec::new();
    TraceReader::new(bytes)?.read_to_end(&mut packets)?;
    Ok(packets)
}

fn small_trace() -> dart::sim::scenario::GeneratedTrace {
    campus(CampusConfig {
        connections: 120,
        duration: 3 * dart::packet::SECOND,
        ..CampusConfig::default()
    })
}

#[test]
fn native_round_trip_preserves_analysis_results() {
    let t = small_trace();
    let bytes = trace::to_bytes(&t.packets);
    let restored = read_native(&bytes).unwrap();
    assert_eq!(restored, t.packets);

    let (direct, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::default()), &t.packets);
    let (replayed, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::default()), &restored);
    assert_eq!(direct, replayed);
}

#[test]
fn pcap_round_trip_preserves_analysis_results() {
    let t = small_trace();
    let buf = pcap::to_bytes(&t.packets);

    let classifier = PrefixClassifier::new([(Ipv4Addr::new(10, 0, 0, 0), 8u8)]);
    let mut source = PcapSource::new(&buf[..], classifier).unwrap();
    let mut restored = Vec::new();
    source.read_to_end(&mut restored).unwrap();
    assert_eq!(source.skipped(), 0);
    assert_eq!(restored, t.packets);

    // Both Dart and tcptrace agree between the live and replayed copies.
    let (d1, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::default()), &t.packets);
    let (d2, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::default()), &restored);
    assert_eq!(d1, d2);
    let (t1, _) = run_monitor_slice(&mut TcpTrace::new(TcpTraceConfig::default()), &t.packets);
    let (t2, _) = run_monitor_slice(&mut TcpTrace::new(TcpTraceConfig::default()), &restored);
    assert_eq!(t1, t2);
}

#[test]
fn pcap_file_is_readable_by_format_rules() {
    // The emitted file honors the nanosecond-pcap header layout: magic,
    // version 2.4, and per-record lengths that walk the file exactly.
    let t = small_trace();
    let buf = pcap::to_bytes(&t.packets);
    assert_eq!(&buf[0..4], &0xa1b2_3c4du32.to_le_bytes());
    assert_eq!(u16::from_le_bytes([buf[4], buf[5]]), 2);
    assert_eq!(u16::from_le_bytes([buf[6], buf[7]]), 4);
    let mut off = 24;
    let mut records = 0;
    while off < buf.len() {
        let incl = u32::from_le_bytes(buf[off + 8..off + 12].try_into().unwrap()) as usize;
        off += 16 + incl;
        records += 1;
    }
    assert_eq!(off, buf.len());
    assert_eq!(records, t.packets.len());
}

#[test]
fn truncated_native_trace_fails_loudly() {
    let t = small_trace();
    let mut bytes = trace::to_bytes(&t.packets);
    bytes.truncate(bytes.len() - 7);
    assert!(read_native(&bytes).is_err());
}
