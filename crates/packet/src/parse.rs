//! Wire-format parsing: Ethernet/IPv4/TCP frames → [`PacketMeta`], and the
//! reverse synthesis used to write pcap files from simulated traffic.

use crate::error::PacketError;
use crate::ethernet::{ethertype, EthernetHeader};
use crate::flow::FlowKey;
use crate::ipv4::{protocol, Ipv4Header};
use crate::meta::{Direction, Nanos, PacketMeta};
use crate::pcap::linktype;
use crate::seq::SeqNum;
use crate::tcp::{timestamps_in, TcpFlags, TcpHeader};

/// A classifier deciding each packet's [`Direction`] relative to the monitor,
/// typically from the source address (e.g. "10.0.0.0/8 is internal").
pub trait DirectionClassifier {
    /// Classify a packet by its flow key.
    fn classify(&self, flow: &FlowKey) -> Direction;
}

/// Classifies by internal IPv4 prefixes: a packet *from* an internal address
/// is outbound, everything else inbound.
#[derive(Clone, Debug, Default)]
pub struct PrefixClassifier {
    prefixes: Vec<(u32, u32)>, // (network, mask)
}

impl PrefixClassifier {
    /// Build from `(address, prefix_len)` pairs describing the internal side.
    pub fn new(prefixes: impl IntoIterator<Item = (std::net::Ipv4Addr, u8)>) -> Self {
        let prefixes = prefixes
            .into_iter()
            .map(|(addr, len)| {
                let mask = if len == 0 {
                    0
                } else {
                    u32::MAX << (32 - len as u32)
                };
                (u32::from(addr) & mask, mask)
            })
            .collect();
        PrefixClassifier { prefixes }
    }

    /// True when `addr` is inside any internal prefix.
    pub fn is_internal(&self, addr: std::net::Ipv4Addr) -> bool {
        let a = u32::from(addr);
        self.prefixes.iter().any(|&(net, mask)| a & mask == net)
    }
}

impl DirectionClassifier for PrefixClassifier {
    fn classify(&self, flow: &FlowKey) -> Direction {
        if self.is_internal(flow.src_ip) {
            Direction::Outbound
        } else {
            Direction::Inbound
        }
    }
}

/// Which parser a capture's records go through, chosen once from the pcap
/// link type when the capture is opened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LinkLayer {
    /// `LINKTYPE_ETHERNET`: records are Ethernet II frames.
    Ethernet,
    /// `LINKTYPE_RAW`: records start at the IP header.
    RawIp,
}

impl LinkLayer {
    /// The parser for a pcap global header's link type; a capture of any
    /// other type cannot be decoded at all, which is the file's fault
    /// ([`PacketError::BadTrace`]), not a frame's.
    pub fn from_linktype(link: u32) -> Result<LinkLayer, PacketError> {
        match link {
            linktype::ETHERNET => Ok(LinkLayer::Ethernet),
            linktype::RAW => Ok(LinkLayer::RawIp),
            other => Err(PacketError::BadTrace(format!(
                "unsupported pcap link type {other}"
            ))),
        }
    }

    /// Parse one captured record into a [`PacketMeta`]. Every error is
    /// damage inside a well-framed record — the network's, not the file's —
    /// so capture readers skip and count it, as the hardware parser would
    /// pass the frame through unmonitored.
    #[inline]
    pub fn parse<C: DirectionClassifier + ?Sized>(
        self,
        ts: Nanos,
        record: &[u8],
        classifier: &C,
    ) -> Result<PacketMeta, PacketError> {
        match self {
            LinkLayer::Ethernet => parse_ethernet_frame(ts, record, classifier),
            LinkLayer::RawIp => parse_ipv4_packet(ts, record, classifier),
        }
    }
}

fn truncated(layer: &'static str, needed: usize, got: usize) -> PacketError {
    PacketError::Truncated { layer, needed, got }
}

fn malformed(layer: &'static str, reason: &'static str) -> PacketError {
    PacketError::Malformed { layer, reason }
}

fn unsupported(what: &'static str) -> PacketError {
    PacketError::Unsupported { what }
}

/// Parse a full Ethernet frame into a [`PacketMeta`].
///
/// Returns [`PacketError::Unsupported`] for non-IPv4 ethertypes, non-TCP
/// protocols, and IP fragments other than the first — the same traffic a
/// Dart deployment would pass through unmonitored.
#[inline]
pub fn parse_ethernet_frame<C: DirectionClassifier + ?Sized>(
    ts: Nanos,
    frame: &[u8],
    classifier: &C,
) -> Result<PacketMeta, PacketError> {
    let Some((eth, packet)) = frame.split_first_chunk::<{ EthernetHeader::LEN }>() else {
        return Err(truncated("ethernet", EthernetHeader::LEN, frame.len()));
    };
    if u16::from_be_bytes([eth[12], eth[13]]) != ethertype::IPV4 {
        return Err(unsupported("non-ipv4 ethertype"));
    }
    parse_ipv4_packet(ts, packet, classifier)
}

/// Parse an IPv4 packet (starting at the IP header) into a [`PacketMeta`].
///
/// One pass over the borrowed bytes: each layer is bounds-checked once and
/// the fields the monitor keeps are read at fixed offsets from the IHL /
/// data-offset bases; nothing is copied or allocated. The checks run in the
/// order the [`Ipv4Header`] and then the [`TcpHeader`] decoder make them,
/// and raise the same errors (DESIGN.md §5c, "The wire parse").
#[inline]
pub fn parse_ipv4_packet<C: DirectionClassifier + ?Sized>(
    ts: Nanos,
    packet: &[u8],
    classifier: &C,
) -> Result<PacketMeta, PacketError> {
    let Some((ip, _)) = packet.split_first_chunk::<{ Ipv4Header::MIN_LEN }>() else {
        return Err(truncated("ipv4", Ipv4Header::MIN_LEN, packet.len()));
    };
    if ip[0] >> 4 != 4 {
        return Err(malformed("ipv4", "version is not 4"));
    }
    let ip_len = (ip[0] & 0x0F) as usize * 4;
    if ip_len < Ipv4Header::MIN_LEN {
        return Err(malformed("ipv4", "ihl below 5"));
    }
    let Some(segment) = packet.get(ip_len..) else {
        return Err(truncated("ipv4", ip_len, packet.len()));
    };
    if ip[9] != protocol::TCP {
        return Err(unsupported("non-tcp protocol"));
    }
    if u16::from_be_bytes([ip[6], ip[7]]) & 0x1FFF != 0 {
        return Err(unsupported("ip fragment"));
    }
    let Some((tcp, _)) = segment.split_first_chunk::<{ TcpHeader::MIN_LEN }>() else {
        return Err(truncated("tcp", TcpHeader::MIN_LEN, segment.len()));
    };
    let tcp_len = (tcp[12] >> 4) as usize * 4;
    if tcp_len < TcpHeader::MIN_LEN {
        return Err(malformed("tcp", "data offset below 5"));
    }
    let Some(options) = segment.get(TcpHeader::MIN_LEN..tcp_len) else {
        return Err(truncated("tcp", tcp_len, segment.len()));
    };
    // The payload is what the length fields say, not what the capture
    // kept: a snap length cuts the bytes, not the count.
    let total_len = u16::from_be_bytes([ip[2], ip[3]]) as usize;
    let flow = FlowKey::from_raw(
        u32::from_be_bytes(crate::arr(&ip[12..16])),
        u16::from_be_bytes([tcp[0], tcp[1]]),
        u32::from_be_bytes(crate::arr(&ip[16..20])),
        u16::from_be_bytes([tcp[2], tcp[3]]),
    );
    Ok(PacketMeta {
        ts,
        flow,
        seq: SeqNum(u32::from_be_bytes(crate::arr(&tcp[4..8]))),
        ack: SeqNum(u32::from_be_bytes(crate::arr(&tcp[8..12]))),
        payload_len: total_len.saturating_sub(ip_len + tcp_len) as u32,
        flags: TcpFlags(tcp[13]),
        dir: classifier.classify(&flow),
        tsopt: timestamps_in(options),
    })
}

/// Synthesize an Ethernet/IPv4/TCP frame from a [`PacketMeta`], with a dummy
/// payload of the recorded length. Used when exporting simulated traffic to
/// pcap for inspection with standard tools.
pub fn synthesize_frame(meta: &PacketMeta) -> Vec<u8> {
    let options = match meta.tsopt {
        Some((tsval, tsecr)) => TcpHeader::timestamp_option(tsval, tsecr),
        None => Vec::new(),
    };
    let opt_padded = options.len().div_ceil(4) * 4;
    let tcp = TcpHeader {
        src_port: meta.flow.src_port,
        dst_port: meta.flow.dst_port,
        seq: meta.seq,
        ack: meta.ack,
        data_offset: ((TcpHeader::MIN_LEN + opt_padded) / 4) as u8,
        flags: meta.flags,
        options,
        ..TcpHeader::default()
    };
    let total_len = (Ipv4Header::MIN_LEN + tcp.header_len()) as u16 + meta.payload_len as u16;
    let ip = Ipv4Header {
        total_len,
        src: meta.flow.src_ip,
        dst: meta.flow.dst_ip,
        proto: protocol::TCP,
        ..Ipv4Header::default()
    };
    let mut frame = Vec::with_capacity(EthernetHeader::LEN + total_len as usize);
    EthernetHeader::synthetic_ipv4().encode(&mut frame);
    ip.encode(&mut frame);
    tcp.encode(&mut frame);
    frame.resize(frame.len() + meta.payload_len as usize, 0);
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::PacketBuilder;
    use crate::tcp::TcpFlags;
    use std::net::Ipv4Addr;

    fn classifier() -> PrefixClassifier {
        PrefixClassifier::new([(Ipv4Addr::new(10, 0, 0, 0), 8)])
    }

    #[test]
    fn prefix_classifier_directions() {
        let c = classifier();
        assert!(c.is_internal(Ipv4Addr::new(10, 1, 2, 3)));
        assert!(!c.is_internal(Ipv4Addr::new(8, 8, 8, 8)));
        let outbound = FlowKey::new(Ipv4Addr::new(10, 0, 0, 5), 1, Ipv4Addr::new(1, 1, 1, 1), 2);
        assert_eq!(c.classify(&outbound), Direction::Outbound);
        assert_eq!(c.classify(&outbound.reverse()), Direction::Inbound);
    }

    #[test]
    fn synthesize_then_parse_round_trips() {
        let meta = PacketBuilder::new(
            FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 9),
                50000,
                Ipv4Addr::new(93, 184, 216, 34),
                443,
            ),
            123_456_789,
        )
        .seq(1000u32)
        .ack(2000u32)
        .payload(137)
        .flags(TcpFlags::PSH)
        .build();
        let frame = synthesize_frame(&meta);
        let parsed = parse_ethernet_frame(meta.ts, &frame, &classifier()).unwrap();
        assert_eq!(parsed, meta);
    }

    #[test]
    fn timestamp_option_survives_synthesis() {
        let meta = PacketBuilder::new(
            FlowKey::new(Ipv4Addr::new(10, 0, 0, 9), 1, Ipv4Addr::new(1, 1, 1, 1), 2),
            42,
        )
        .seq(7u32)
        .payload(99)
        .tsopt(0xDEAD, 0xBEEF)
        .build();
        let frame = synthesize_frame(&meta);
        let parsed = parse_ethernet_frame(42, &frame, &classifier()).unwrap();
        assert_eq!(parsed, meta);
        assert_eq!(parsed.tsopt, Some((0xDEAD, 0xBEEF)));
    }

    #[test]
    fn non_tcp_is_unsupported() {
        let meta = PacketBuilder::new(
            FlowKey::new(Ipv4Addr::new(10, 0, 0, 9), 1, Ipv4Addr::new(1, 1, 1, 1), 2),
            0,
        )
        .build();
        let mut frame = synthesize_frame(&meta);
        frame[EthernetHeader::LEN + 9] = protocol::UDP; // rewrite protocol field
                                                        // Checksum now wrong, but decode doesn't verify; protocol check fires first.
        assert!(matches!(
            parse_ethernet_frame(0, &frame, &classifier()).unwrap_err(),
            PacketError::Unsupported {
                what: "non-tcp protocol"
            }
        ));
    }

    #[test]
    fn fragments_are_unsupported() {
        let meta = PacketBuilder::new(
            FlowKey::new(Ipv4Addr::new(10, 0, 0, 9), 1, Ipv4Addr::new(1, 1, 1, 1), 2),
            0,
        )
        .build();
        let mut frame = synthesize_frame(&meta);
        // Set a nonzero fragment offset.
        frame[EthernetHeader::LEN + 6] = 0x00;
        frame[EthernetHeader::LEN + 7] = 0x10;
        assert!(matches!(
            parse_ethernet_frame(0, &frame, &classifier()).unwrap_err(),
            PacketError::Unsupported {
                what: "ip fragment"
            }
        ));
    }

    #[test]
    fn payload_len_recovered_from_lengths() {
        // A pure ACK has payload 0 even though the frame has no padding info.
        let meta = PacketBuilder::new(
            FlowKey::new(Ipv4Addr::new(10, 0, 0, 9), 1, Ipv4Addr::new(1, 1, 1, 1), 2),
            7,
        )
        .ack(999u32)
        .build();
        let frame = synthesize_frame(&meta);
        let parsed = parse_ethernet_frame(7, &frame, &classifier()).unwrap();
        assert_eq!(parsed.payload_len, 0);
        assert!(parsed.is_pure_ack());
    }
}
