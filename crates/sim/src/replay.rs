//! Trace replay: feed stored traces (native or pcap) through any consumer —
//! the `tcpreplay`-through-the-switch workflow of paper §5, in software.

use dart_packet::parse::{DirectionClassifier, LinkLayer};
use dart_packet::pcap::PcapReader;
use dart_packet::trace::TraceReader;
use dart_packet::{PacketError, PacketMeta};
use std::io::Read;

/// A transformation applied to a captured packet sequence between loading
/// and consumption — the seam where fault injectors (packet drop,
/// duplication, reordering, truncation) plug into the replay path without
/// the consumer knowing the trace was doctored.
///
/// Implementations must be deterministic for a given internal state (e.g.
/// seeded RNG): replaying the same stored trace through the same transform
/// twice must yield identical packet sequences, since every differential
/// harness downstream relies on byte-reproducible inputs.
pub trait TraceTransform {
    /// Consume the captured packets and return the transformed sequence.
    fn apply(&mut self, packets: Vec<PacketMeta>) -> Vec<PacketMeta>;
}

/// The no-op transform: replay the capture as stored.
#[derive(Clone, Copy, Debug, Default)]
pub struct Identity;

impl TraceTransform for Identity {
    fn apply(&mut self, packets: Vec<PacketMeta>) -> Vec<PacketMeta> {
        packets
    }
}

/// Read an entire native trace from a reader.
pub fn load_native<R: Read>(reader: R) -> Result<Vec<PacketMeta>, PacketError> {
    TraceReader::new(reader)?.packets().collect()
}

/// Read a native trace and pass it through `transform` — the replay-side
/// fault-injection hook.
pub fn load_native_with<R: Read>(
    reader: R,
    transform: &mut dyn TraceTransform,
) -> Result<Vec<PacketMeta>, PacketError> {
    Ok(transform.apply(load_native(reader)?))
}

/// Read an entire pcap capture (Ethernet or raw-IP link type), parsing
/// IPv4/TCP frames and classifying directions. Frames the monitor does not
/// see (non-TCP, fragments, ARP, truncated or malformed headers...) are
/// skipped, exactly as the hardware parser would pass them through
/// unmonitored; `skipped` counts them. A damaged record or an unsupported
/// link type is an error.
pub fn load_pcap<R: Read>(
    reader: R,
    classifier: &dyn DirectionClassifier,
) -> Result<(Vec<PacketMeta>, u64), PacketError> {
    let mut pcap = PcapReader::new(reader)?;
    let link = LinkLayer::from_linktype(pcap.link)?;
    let mut packets = Vec::new();
    let mut skipped = 0u64;
    while let Some(frame) = pcap.next_frame()? {
        match link.parse(frame.ts, frame.data, classifier) {
            Ok(meta) => packets.push(meta),
            Err(_) => skipped += 1,
        }
    }
    Ok((packets, skipped))
}

/// Write packets as a pcap file (synthesized Ethernet frames).
pub fn dump_pcap<W: std::io::Write>(packets: &[PacketMeta], out: W) -> Result<u64, PacketError> {
    let mut w = dart_packet::pcap::PcapWriter::new(out, dart_packet::pcap::linktype::ETHERNET)?;
    for p in packets {
        let frame = dart_packet::parse::synthesize_frame(p);
        w.write_record(p.ts, &frame)?;
    }
    let n = w.records_written();
    w.finish()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{campus, CampusConfig};
    use dart_packet::parse::PrefixClassifier;
    use dart_packet::trace;
    use std::net::Ipv4Addr;

    #[test]
    fn native_round_trip_via_replay() {
        let t = campus(CampusConfig {
            connections: 30,
            duration: dart_packet::SECOND,
            ..CampusConfig::default()
        });
        let bytes = trace::to_bytes(&t.packets);
        let back = load_native(&bytes[..]).unwrap();
        assert_eq!(back, t.packets);
    }

    #[test]
    fn transform_hook_sees_and_replaces_the_capture() {
        struct KeepHalf;
        impl TraceTransform for KeepHalf {
            fn apply(&mut self, packets: Vec<PacketMeta>) -> Vec<PacketMeta> {
                let keep = packets.len() / 2;
                packets.into_iter().take(keep).collect()
            }
        }
        let t = campus(CampusConfig {
            connections: 20,
            duration: dart_packet::SECOND,
            ..CampusConfig::default()
        });
        let bytes = trace::to_bytes(&t.packets);
        let full = load_native_with(&bytes[..], &mut Identity).unwrap();
        assert_eq!(full, t.packets);
        let half = load_native_with(&bytes[..], &mut KeepHalf).unwrap();
        assert_eq!(half.len(), t.packets.len() / 2);
        assert_eq!(half[..], t.packets[..half.len()]);
    }

    #[test]
    fn pcap_round_trip_preserves_every_tcp_packet() {
        let t = campus(CampusConfig {
            connections: 30,
            duration: dart_packet::SECOND,
            ..CampusConfig::default()
        });
        let mut buf = Vec::new();
        let n = dump_pcap(&t.packets, &mut buf).unwrap();
        assert_eq!(n as usize, t.packets.len());
        let classifier = PrefixClassifier::new([(Ipv4Addr::new(10, 0, 0, 0), 8u8)]);
        let (back, skipped) = load_pcap(&buf[..], &classifier).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(back, t.packets);
    }
}
