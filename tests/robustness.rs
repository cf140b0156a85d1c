//! Robustness: parsers and loaders must never panic on arbitrary bytes —
//! a monitoring device eats whatever the network feeds it.

use dart::packet::ethernet::{ethertype, EthernetHeader};
use dart::packet::ipv4::{internet_checksum, protocol, Ipv4Header};
use dart::packet::parse::{
    parse_ethernet_frame, synthesize_frame, DirectionClassifier, PrefixClassifier,
};
use dart::packet::pcap::PcapReader;
use dart::packet::tcp::{TcpFlags, TcpHeader};
use dart::packet::trace::TraceReader;
use dart::packet::{FlowKey, PacketBuilder, PacketError, PacketMeta, PacketSource, SeqNum};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn classifier() -> PrefixClassifier {
    PrefixClassifier::new([(Ipv4Addr::new(10, 0, 0, 0), 8u8)])
}

/// The frame parse composed from the header structs' own decoders — what
/// `parse_ethernet_frame` was before it read the fields where they lie, and
/// the reference it must agree with on every byte string.
fn reference_parse(
    ts: u64,
    frame: &[u8],
    classifier: &PrefixClassifier,
) -> Result<PacketMeta, PacketError> {
    let eth = EthernetHeader::decode(frame)?;
    if eth.ethertype != ethertype::IPV4 {
        return Err(PacketError::Unsupported {
            what: "non-ipv4 ethertype",
        });
    }
    let packet = &frame[EthernetHeader::LEN..];
    let ip = Ipv4Header::decode(packet)?;
    if ip.proto != protocol::TCP {
        return Err(PacketError::Unsupported {
            what: "non-tcp protocol",
        });
    }
    if ip.flags_frag & 0x1FFF != 0 {
        return Err(PacketError::Unsupported {
            what: "ip fragment",
        });
    }
    let tcp = TcpHeader::decode(&packet[ip.header_len()..])?;
    let flow = FlowKey::new(ip.src, tcp.src_port, ip.dst, tcp.dst_port);
    Ok(PacketMeta {
        ts,
        flow,
        seq: tcp.seq,
        ack: tcp.ack,
        payload_len: ip.payload_len().saturating_sub(tcp.header_len()) as u32,
        flags: tcp.flags,
        dir: classifier.classify(&flow),
        tsopt: tcp.timestamps(),
    })
}

/// The frame export composed from the header structs' own encoders — what
/// `synthesize_frame` was before it wrote every header into the one buffer,
/// and the reference it must reproduce byte for byte.
fn reference_frame(meta: &PacketMeta) -> Vec<u8> {
    let options = match meta.tsopt {
        Some((tsval, tsecr)) => TcpHeader::timestamp_option(tsval, tsecr),
        None => Vec::new(),
    };
    let tcp = TcpHeader {
        src_port: meta.flow.src_port,
        dst_port: meta.flow.dst_port,
        seq: meta.seq,
        ack: meta.ack,
        data_offset: ((TcpHeader::MIN_LEN + options.len()) / 4) as u8,
        flags: meta.flags,
        options,
        ..TcpHeader::default()
    };
    let ip = Ipv4Header {
        total_len: (Ipv4Header::MIN_LEN + tcp.header_len()) as u16 + meta.payload_len as u16,
        src: meta.flow.src_ip,
        dst: meta.flow.dst_ip,
        proto: protocol::TCP,
        ..Ipv4Header::default()
    };
    let mut frame = Vec::new();
    EthernetHeader::synthetic_ipv4().encode(&mut frame);
    ip.encode(&mut frame);
    tcp.encode(&mut frame);
    frame.resize(frame.len() + meta.payload_len as usize, 0);
    frame
}

/// Both parsers over `frame`: the same packet, or the same error down to
/// its layer, reason and byte counts.
fn assert_parsers_agree(frame: &[u8]) {
    let classifier = classifier();
    let describe = |r: Result<PacketMeta, PacketError>| r.map_err(|e| format!("{e:?}"));
    assert_eq!(
        describe(parse_ethernet_frame(7, frame, &classifier)),
        describe(reference_parse(7, frame, &classifier)),
        "frame {frame:02x?}"
    );
}

/// The canonical data packet: 14 + 20 + 32 = 66 header bytes, timestamp
/// option included, 32 bytes of payload.
fn data_frame() -> Vec<u8> {
    let meta = PacketBuilder::new(
        FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 5),
            40000,
            Ipv4Addr::new(1, 2, 3, 4),
            443,
        ),
        7,
    )
    .seq(100u32)
    .ack(200u32)
    .payload(32)
    .tsopt(1, 2)
    .build();
    synthesize_frame(&meta)
}

/// One TCP option: the kinds real stacks send, the timestamp option among
/// them, an end-of-list, and an arbitrary kind/length pair that may lie
/// about its length.
fn tcp_option() -> impl Strategy<Value = Vec<u8>> {
    (0u8..7, any::<u32>(), any::<u32>()).prop_map(|(pick, a, b)| match pick {
        0 => vec![1],                                         // NOP
        1 => vec![2, 4, (a >> 8) as u8, a as u8],             // MSS
        2 => vec![3, 3, a as u8],                             // window scale
        3 => vec![4, 2],                                      // SACK permitted
        4 => TcpHeader::timestamp_option(a, b)[2..].to_vec(), // timestamps, bare
        5 => vec![0],                                         // end of list
        _ => vec![a as u8, b as u8, (a >> 8) as u8, (b >> 8) as u8],
    })
}

/// An Ethernet/IPv4/TCP frame with `ip_words` words of IP options (IHL
/// 5..=15), TCP options `before` and `after` an optional timestamp option
/// cut to the 40 bytes a data offset of 15 allows, and a `total_len` that
/// is honest or, given `lie`, whatever it says.
fn layered_frame(
    ip_words: usize,
    before: Vec<Vec<u8>>,
    ts: Option<(u32, u32)>,
    after: Vec<Vec<u8>>,
    lie: Option<u16>,
) -> Vec<u8> {
    let mut options = before.concat();
    if let Some((tsval, tsecr)) = ts {
        options.extend(TcpHeader::timestamp_option(tsval, tsecr));
    }
    options.extend(after.concat());
    options.truncate(40);
    let tcp = TcpHeader {
        src_port: 40000,
        dst_port: 443,
        seq: SeqNum(100),
        ack: SeqNum(200),
        flags: TcpFlags::ACK | TcpFlags::PSH,
        options,
        ..TcpHeader::default()
    };
    let mut segment = Vec::new();
    tcp.encode(&mut segment);
    segment.extend([0xEE; 32]);
    let ip_options = vec![1u8; ip_words * 4]; // IP NOPs
    let honest = (Ipv4Header::MIN_LEN + ip_options.len() + segment.len()) as u16;
    let ip = Ipv4Header {
        total_len: lie.unwrap_or(honest),
        src: Ipv4Addr::new(10, 0, 0, 5),
        dst: Ipv4Addr::new(1, 2, 3, 4),
        options: ip_options,
        ..Ipv4Header::default()
    };
    let mut frame = Vec::new();
    EthernetHeader::synthetic_ipv4().encode(&mut frame);
    ip.encode(&mut frame);
    frame.extend(segment);
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes through the frame parser: errors allowed, panics not.
    #[test]
    fn frame_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = parse_ethernet_frame(0, &bytes, &classifier());
    }

    /// Any packet the simulator can describe: the frame written in one
    /// buffer is the struct encoders' byte for byte, its IPv4 checksum
    /// verifies, and it parses back to the packet.
    #[test]
    fn synthesize_frame_equals_struct_encoders(
        addrs in (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>()),
        seq in any::<u32>(),
        ack in any::<u32>(),
        payload_len in 0u32..3_000,
        flags in any::<u8>(),
        ts in (any::<bool>(), any::<u32>(), any::<u32>()),
        at in any::<u64>(),
    ) {
        let flow = FlowKey::from_raw(addrs.0, addrs.2, addrs.1, addrs.3);
        let meta = PacketMeta {
            ts: at,
            flow,
            seq: SeqNum(seq),
            ack: SeqNum(ack),
            payload_len,
            flags: TcpFlags(flags),
            dir: classifier().classify(&flow),
            tsopt: ts.0.then_some((ts.1, ts.2)),
        };
        let frame = synthesize_frame(&meta);
        prop_assert_eq!(&frame, &reference_frame(&meta));
        prop_assert_eq!(internet_checksum(&frame[EthernetHeader::LEN..][..Ipv4Header::MIN_LEN]), 0);
        prop_assert_eq!(parse_ethernet_frame(at, &frame, &classifier()).ok(), Some(meta));
    }

    /// Arbitrary bytes, and a valid frame with a few bytes overwritten:
    /// the one-pass parser and the struct decoders agree on the outcome.
    #[test]
    fn fused_parser_equals_struct_decoders_on_hostile_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        corrupt_at in prop::collection::vec((0usize..66, any::<u8>()), 1..7),
    ) {
        assert_parsers_agree(&bytes);
        let mut frame = data_frame();
        for (pos, val) in corrupt_at {
            frame[pos] = val;
        }
        assert_parsers_agree(&frame);
    }

    /// Every IHL and data offset, with options before, after and instead
    /// of the timestamp option, a `total_len` that may undercount the
    /// headers (the payload saturates to 0), any cut, any two bytes
    /// overwritten.
    #[test]
    fn fused_parser_equals_struct_decoders_on_every_header_length(
        ip_words in 0usize..=10,
        before in prop::collection::vec(tcp_option(), 0..4),
        ts in (any::<bool>(), any::<u32>(), any::<u32>()),
        after in prop::collection::vec(tcp_option(), 0..4),
        lie in (any::<bool>(), 0u16..140),
        cut in 0usize..240,
        corrupt_at in prop::collection::vec((0usize..150, any::<u8>()), 0..3),
    ) {
        let ts = ts.0.then_some((ts.1, ts.2));
        let lie = lie.0.then_some(lie.1);
        let mut frame = layered_frame(ip_words, before, ts, after, lie);
        assert_parsers_agree(&frame);
        for (pos, val) in corrupt_at {
            if pos < frame.len() {
                frame[pos] = val;
            }
        }
        assert_parsers_agree(&frame);
        frame.truncate(cut);
        assert_parsers_agree(&frame);
    }

    /// Arbitrary bytes as a pcap stream: reader returns errors, not panics,
    /// and always terminates.
    #[test]
    fn pcap_reader_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        if let Ok(mut reader) = PcapReader::new(&bytes[..]) {
            for _ in 0..64 {
                if !matches!(reader.next_frame(), Ok(Some(_))) {
                    break;
                }
            }
        }
    }

    /// Arbitrary bytes as a native trace.
    #[test]
    fn trace_reader_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        if let Ok(mut reader) = TraceReader::new(&bytes[..]) {
            let _ = reader.read_to_end(&mut Vec::new());
        }
    }

    /// Arbitrary TCP option bytes through the timestamp scanner.
    #[test]
    fn tcp_option_walker_never_panics(options in prop::collection::vec(any::<u8>(), 0..40)) {
        let hdr = TcpHeader {
            options,
            ..TcpHeader::default()
        };
        let _ = hdr.timestamps();
    }

    /// A valid frame with a few corrupted bytes: parse may fail or yield a
    /// different packet, but must not panic, and a successful parse must be
    /// internally consistent.
    #[test]
    fn corrupted_valid_frames_never_panic(
        corrupt_at in prop::collection::vec((0usize..60, any::<u8>()), 1..6)
    ) {
        let mut frame = data_frame();
        for (pos, val) in corrupt_at {
            if pos < frame.len() {
                frame[pos] = val;
            }
        }
        if let Ok(parsed) = parse_ethernet_frame(7, &frame, &classifier()) {
            // eACK arithmetic must still be self-consistent.
            let _ = parsed.eack();
            let _ = parsed.is_pure_ack();
        }
    }
}

/// The canonical frame cut at every length through its 66 header bytes
/// and with every header byte set to every value, and every layered shape
/// the property above draws from, parsed whole: the deterministic floor
/// under the two properties.
#[test]
fn fused_parser_equals_struct_decoders_at_every_cut_byte_and_header_length() {
    let frame = data_frame();
    assert!(parse_ethernet_frame(7, &frame, &classifier()).is_ok());
    for cut in 0..=66 {
        assert_parsers_agree(&frame[..cut]);
    }
    for at in 0..66 {
        let mut frame = frame.clone();
        for value in 0..=255 {
            frame[at] = value;
            assert_parsers_agree(&frame);
        }
    }
    let mss = vec![2, 4, 5, 0xb4];
    for ip_words in 0..=10 {
        for tcp_words in 0..=10 {
            let filler = vec![vec![1u8]; tcp_words * 4];
            for lie in [None, Some(0), Some(39), Some(40), Some(65_535)] {
                let ts = Some((0xAABB_CCDD, 0x1122_3344));
                let shapes = [
                    layered_frame(ip_words, filler.clone(), None, vec![], lie),
                    layered_frame(ip_words, filler.clone(), ts, vec![], lie),
                    layered_frame(ip_words, vec![], ts, filler.clone(), lie),
                    layered_frame(ip_words, vec![mss.clone()], ts, filler.clone(), lie),
                ];
                for frame in shapes {
                    assert_parsers_agree(&frame);
                }
            }
        }
    }
    // The shapes above do reach both ends of both length fields, and the
    // timestamp option is found behind other options.
    let longest = layered_frame(10, vec![vec![1u8]; 28], Some((1, 2)), vec![], None);
    assert_eq!((longest[14] & 0x0F, longest[14 + 60 + 12] >> 4), (15, 15));
    let parsed = parse_ethernet_frame(7, &longest, &classifier()).expect("a valid frame");
    assert_eq!((parsed.tsopt, parsed.payload_len), (Some((1, 2)), 32));
    let short = layered_frame(0, vec![], None, vec![], Some(39));
    let parsed = parse_ethernet_frame(7, &short, &classifier()).expect("a valid frame");
    assert_eq!(parsed.payload_len, 0, "total_len under the headers");
}
