//! The block-granular readers against their whole-buffer references: however
//! a serialised capture is cut into `read()`s — single bytes, dry spells
//! through `Follow`, a torn tail when the tail is stopped — and however the
//! consumer mixes `next_packet` with `next_chunk`, the packet stream is the
//! one `trace::from_bytes` decodes from the same bytes — for pcap, the
//! packets the capture was synthesized from — a torn tail is reported
//! exactly once, and no byte sequence makes the pcap reader allocate past
//! its fixed window. The sources that write their own
//! `next_chunk` over other inputs — `SliceSource`, `CycleSource` and
//! `Reconnecting` — are held to the same pull-mix invariance.

mod common;

use common::{allocations, largest_allocation};
use dart::packet::parse::{synthesize_frame, DirectionClassifier, PrefixClassifier};
use dart::packet::pcap::{linktype, PcapReader, PcapWriter};
use dart::packet::trace::{self, TraceReader};
use dart::packet::{
    CycleSource, Direction, FlowKey, Follow, PacketMeta, PacketSource, PcapSource, Reconnecting,
    SeqNum, SliceSource, TcpFlags,
};
use dart::sim::replay::load_pcap;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::Read;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A scripted input: every `read` serves (a prefix of) the next chunk, an
/// empty chunk is one dry read, and running out sets the stop flag — a
/// deterministic stand-in for a fifo whose producer pauses and then exits.
struct Scripted {
    chunks: VecDeque<Vec<u8>>,
    stop: Arc<AtomicBool>,
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(chunk) = self.chunks.front_mut() else {
            self.stop.store(true, Ordering::Relaxed);
            return Ok(0);
        };
        let n = chunk.len().min(buf.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        chunk.drain(..n);
        if chunk.is_empty() {
            self.chunks.pop_front();
        }
        Ok(n)
    }
}

/// `bytes` behind a `Follow`, handed out in reads of `lens` bytes (cycled;
/// zero is a dry spell the tail has to sleep through).
fn tail(bytes: &[u8], lens: &[usize]) -> Follow<Scripted> {
    let mut chunks = VecDeque::new();
    let mut rest = bytes;
    for &len in lens.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (head, tail) = rest.split_at(len.min(rest.len()));
        chunks.push_back(head.to_vec());
        rest = tail;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let scripted = Scripted {
        chunks,
        stop: Arc::clone(&stop),
    };
    Follow::new(scripted, stop).with_sleeper(Box::new(|_| {}))
}

/// Pull `source` dry the way `pulls` says (cycled): zero is `next_packet`,
/// anything else `next_chunk` with that `max`. Returns the packets in the
/// order yielded and every error met on the way.
fn drain_mixed(source: &mut dyn PacketSource, pulls: &[usize]) -> (Vec<PacketMeta>, Vec<String>) {
    let mut packets = Vec::new();
    let mut errors = Vec::new();
    let mut block = Vec::new();
    for &max in pulls.iter().cycle() {
        let pulled = if max == 0 {
            source.next_packet().map(|p| {
                block.clear();
                block.extend(p);
                block.len()
            })
        } else {
            source.next_chunk(&mut block, max)
        };
        match pulled {
            Ok(0) => break,
            Ok(n) => {
                assert!(n <= max.max(1), "block of {n} for max {max}");
                assert_eq!(n, block.len());
                packets.extend_from_slice(&block);
            }
            Err(e) => {
                errors.push(e.to_string());
                assert!(errors.len() < 64, "source never ends: {errors:?}");
            }
        }
    }
    (packets, errors)
}

type Fields = (
    u64,
    (u32, u16, u32, u16),
    (u32, u32, u32),
    u8,
    bool,
    (bool, u32, u32),
);

fn packet(
    (ts, flow, (seq, ack, payload), flags, inbound, (has_ts, tsval, tsecr)): Fields,
) -> PacketMeta {
    PacketMeta {
        ts,
        flow: FlowKey::from_raw(flow.0, flow.1, flow.2, flow.3),
        seq: SeqNum(seq),
        ack: SeqNum(ack),
        payload_len: payload,
        flags: TcpFlags(flags),
        dir: if inbound {
            Direction::Inbound
        } else {
            Direction::Outbound
        },
        tsopt: has_ts.then_some((tsval, tsecr)),
    }
}

fn packets(max: usize) -> impl Strategy<Value = Vec<PacketMeta>> {
    let fields = (
        any::<u64>(),
        (any::<u32>(), any::<u16>(), any::<u32>(), any::<u16>()),
        (any::<u32>(), any::<u32>(), 0u32..1400),
        any::<u8>(),
        any::<bool>(),
        (any::<bool>(), any::<u32>(), any::<u32>()),
    );
    prop::collection::vec(fields.prop_map(packet), 0..max)
}

/// Read lengths: mostly a few records' worth, single bytes and dry spells
/// among them (and one read that is never dry, so the input advances).
fn read_lens() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..200, 0..24).prop_map(|mut lens| {
        lens.push(7);
        lens
    })
}

/// Pull sizes: `next_packet` (0), small blocks, and the daemon's 1024.
fn pulls() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(
        (0usize..40).prop_map(|m| if m > 32 { 1024 } else { m }),
        1..12,
    )
}

fn classifier() -> PrefixClassifier {
    PrefixClassifier::new([(Ipv4Addr::new(10, 0, 0, 0), 8u8)])
}

/// A pcap of `packets`' synthesized frames; every frame whose index is in
/// `foreign` is one the parser skips: a non-IPv4 ethertype, or a header
/// field no IPv4/TCP packet can carry.
fn pcap_bytes(packets: &[PacketMeta], foreign: &[usize]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let mut w = PcapWriter::new(&mut bytes, linktype::ETHERNET).unwrap();
    for (i, p) in packets.iter().enumerate() {
        let mut frame = synthesize_frame(p);
        if foreign.contains(&i) {
            match i % 4 {
                0 => frame[12..14].copy_from_slice(&[0x08, 0x06]), // ARP
                1 => frame[14] = 0x65,                             // IP version 6
                2 => frame[14] = 0x43,                             // IHL 3
                _ => frame[14 + 20 + 12] = 0x40,                   // data offset 4
            }
        }
        w.write_record(pcap_ts(p.ts), &frame).unwrap();
    }
    w.finish().unwrap();
    bytes
}

/// A timestamp as a pcap record keeps it: 32-bit seconds.
fn pcap_ts(ts: u64) -> u64 {
    ts % (u64::from(u32::MAX) * 1_000_000_000)
}

/// What `pcap_bytes(packets, foreign)` decodes to, worked out from the
/// packets themselves: every one not in `foreign`, with the timestamp the
/// record keeps and the direction the classifier gives, and the count of
/// frames skipped.
fn synthesized(packets: &[PacketMeta], foreign: &[usize]) -> (Vec<PacketMeta>, u64) {
    let classifier = classifier();
    let kept: Vec<PacketMeta> = packets
        .iter()
        .enumerate()
        .filter(|(i, _)| !foreign.contains(i))
        .map(|(_, p)| PacketMeta {
            ts: pcap_ts(p.ts),
            dir: classifier.classify(&p.flow),
            ..*p
        })
        .collect();
    let skipped = (packets.len() - kept.len()) as u64;
    (kept, skipped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn trace_blocks_equal_from_bytes_however_the_input_is_cut(
        packets in packets(300),
        lens in read_lens(),
        pulls in pulls(),
    ) {
        let bytes = trace::to_bytes(&packets);
        let mut source = TraceReader::new(tail(&bytes, &lens)).unwrap();
        let (streamed, errors) = drain_mixed(&mut source, &pulls);
        prop_assert_eq!(errors, Vec::<String>::new());
        prop_assert_eq!(streamed, trace::from_bytes(&bytes).unwrap());
    }

    #[test]
    fn torn_trace_tail_is_one_truncated_record_error(
        packets in packets(120),
        torn in 1usize..43,
        lens in read_lens(),
        pulls in pulls(),
    ) {
        prop_assume!(!packets.is_empty());
        let bytes = trace::to_bytes(&packets);
        let cut = bytes.len() - torn;
        let mut source = TraceReader::new(tail(&bytes[..cut], &lens)).unwrap();
        let (streamed, errors) = drain_mixed(&mut source, &pulls);
        prop_assert_eq!(&streamed[..], &packets[..packets.len() - 1]);
        prop_assert_eq!(errors.len(), 1, "{:?}", errors);
        prop_assert!(errors[0].contains("truncated record"), "{}", errors[0]);
        prop_assert!(trace::from_bytes(&bytes[..cut]).is_err());
    }

    #[test]
    fn pcap_blocks_equal_the_synthesized_packets_however_the_input_is_cut(
        packets in packets(120),
        foreign in prop::collection::vec(0usize..120, 0..6),
        lens in read_lens(),
        pulls in pulls(),
    ) {
        let bytes = pcap_bytes(&packets, &foreign);
        let (reference, skipped) = synthesized(&packets, &foreign);
        let mut source = PcapSource::new(tail(&bytes, &lens), classifier()).unwrap();
        let (streamed, errors) = drain_mixed(&mut source, &pulls);
        prop_assert_eq!(errors, Vec::<String>::new());
        prop_assert_eq!(streamed, reference);
        prop_assert_eq!(source.skipped(), skipped);
    }

    #[test]
    fn torn_pcap_tail_is_one_truncated_record_error(
        packets in packets(60),
        torn in 1usize..50,
        lens in read_lens(),
        pulls in pulls(),
    ) {
        prop_assume!(!packets.is_empty());
        let bytes = pcap_bytes(&packets, &[]);
        let whole = pcap_bytes(&packets[..packets.len() - 1], &[]).len();
        let cut = bytes.len() - torn;
        prop_assume!(cut > whole);
        let (reference, _) = synthesized(&packets[..packets.len() - 1], &[]);
        let mut source = PcapSource::new(tail(&bytes[..cut], &lens), classifier()).unwrap();
        let (streamed, errors) = drain_mixed(&mut source, &pulls);
        prop_assert_eq!(streamed, reference);
        prop_assert_eq!(errors.len(), 1, "{:?}", errors);
        prop_assert!(errors[0].contains("truncated record"), "{}", errors[0]);
        prop_assert!(load_pcap(&bytes[..cut], &classifier()).is_err());
    }

    /// However it is pulled — packet by packet, in blocks of 1, 2, 7 or
    /// 1024, or mixed — a source yields one stream: a slice its packets; a
    /// cycle each pass rebased by the period, including inside a block that
    /// straddles a pass boundary (the trace is shorter than the largest
    /// cap), with every pass counted; a recovering trace reader everything
    /// but the records it skips.
    #[test]
    fn every_source_yields_one_stream_however_pulled(
        packets in packets(40),
        passes in 1u64..4,
        bad in prop::collection::vec(0usize..40, 0..4),
        lens in read_lens(),
        pulls in pulls(),
    ) {
        let patterns = [vec![0], vec![1], vec![2], vec![7], vec![1024], pulls];
        for pattern in &patterns {
            let (streamed, errors) = drain_mixed(&mut SliceSource::new(&packets), pattern);
            prop_assert_eq!(errors, Vec::<String>::new());
            prop_assert_eq!(&streamed, &packets, "slice, pulls {:?}", pattern);

            let mut cycle = CycleSource::with_gap(packets.clone(), 5).with_passes(passes);
            let period = cycle.period();
            let rebased: Vec<PacketMeta> = (0..passes)
                .flat_map(|k| packets.iter().map(move |p| PacketMeta {
                    ts: p.ts.saturating_add(period.saturating_mul(k)),
                    ..*p
                }))
                .collect();
            let (streamed, errors) = drain_mixed(&mut cycle, pattern);
            prop_assert_eq!(errors, Vec::<String>::new());
            prop_assert_eq!(&streamed, &rebased, "cycle, pulls {:?}", pattern);
            let counted = if packets.is_empty() { 0 } else { passes };
            prop_assert_eq!(cycle.passes_completed(), counted);

            let mut damaged = trace::to_bytes(&packets);
            let mut skipped: Vec<usize> = bad.iter().copied().filter(|&i| i < packets.len()).collect();
            for &i in &skipped {
                damaged[16 + i * trace::RECORD_LEN + 33] = 0xFF; // direction byte
            }
            let reader = TraceReader::new(tail(&damaged, &lens)).unwrap();
            let mut recovering = Reconnecting::with_initial(reader, Box::new(|_| None));
            let (streamed, errors) = drain_mixed(&mut recovering, pattern);
            prop_assert_eq!(errors, Vec::<String>::new());
            skipped.sort_unstable();
            skipped.dedup();
            let kept: Vec<PacketMeta> = packets
                .iter()
                .enumerate()
                .filter(|(i, _)| skipped.binary_search(i).is_err())
                .map(|(_, p)| *p)
                .collect();
            prop_assert_eq!(&streamed, &kept, "reconnecting, pulls {:?}", pattern);
            prop_assert_eq!(recovering.counters().decode_errors(), skipped.len() as u64);
        }
    }

    /// Arbitrary bytes behind a valid global header: whatever lengths the
    /// record headers claim, the reader's one window is all it allocates.
    #[test]
    fn pcap_reader_allocation_is_bounded_on_arbitrary_bytes(
        snaplen: u32,
        body in prop::collection::vec(any::<u8>(), 0..600),
        pulls in pulls(),
    ) {
        let mut bytes = Vec::new();
        PcapWriter::new(&mut bytes, linktype::ETHERNET).unwrap().finish().unwrap();
        bytes[16..20].copy_from_slice(&snaplen.to_le_bytes());
        bytes.extend_from_slice(&body);
        let largest = largest_allocation(|| {
            let mut source = PcapSource::new(&bytes[..], classifier()).unwrap();
            let _ = drain_mixed(&mut source, &pulls);
            for record in PcapReader::new(&bytes[..]).unwrap().records().take(64) {
                if record.is_err() {
                    break;
                }
            }
        });
        prop_assert!(largest <= ALLOCATION_CAP, "allocated {} bytes at once", largest);
    }
}

/// The reader's window is six 1024-record blocks of the native trace —
/// 264 192 bytes — and outgrows the largest snap length it accepts
/// (256 KiB plus a record header); nothing else scales with the input.
const ALLOCATION_CAP: usize = 6 * 1024 * 43;

#[test]
fn a_hostile_record_length_is_refused_not_allocated() {
    let mut bytes = Vec::new();
    let mut w = PcapWriter::new(&mut bytes, linktype::ETHERNET).unwrap();
    w.write_record(1, &[0xAA; 60]).unwrap();
    w.finish().unwrap();
    // A second record header claiming 200 MiB, then a few stray bytes.
    bytes.extend_from_slice(&[0u8; 8]);
    bytes.extend_from_slice(&(200u32 << 20).to_le_bytes());
    bytes.extend_from_slice(&(200u32 << 20).to_le_bytes());
    bytes.extend_from_slice(&[0x55; 40]);

    let largest = largest_allocation(|| {
        let mut reader = PcapReader::new(&bytes[..]).unwrap();
        assert_eq!(reader.next_record().unwrap().unwrap().data, vec![0xAA; 60]);
        let err = reader.next_record().unwrap_err().to_string();
        assert!(err.contains("exceeds snap length"), "{err}");
    });
    assert!(
        largest <= ALLOCATION_CAP,
        "allocated {largest} bytes at once"
    );

    // One byte over the declared snap length is already too long; the
    // snap length itself is not.
    for (incl, accepted) in [(96usize, true), (97, false)] {
        let mut bytes = Vec::new();
        PcapWriter::new(&mut bytes, linktype::ETHERNET)
            .unwrap()
            .write_record(1, &vec![0xAA; incl])
            .unwrap();
        bytes[16..20].copy_from_slice(&96u32.to_le_bytes());
        let got = PcapReader::new(&bytes[..]).unwrap().next_record();
        assert_eq!(got.is_ok(), accepted, "incl_len {incl}: {got:?}");
    }
}

/// `n` data packets of one outbound flow, one in every `ts_every` of them
/// carrying a timestamp option.
fn steady(n: u32, ts_every: u32) -> Vec<PacketMeta> {
    (0..n)
        .map(|i| {
            packet((
                u64::from(i) * 1000,
                (0x0a00_0001, 40_000, 0x5db8_d822, 443),
                (i * 1460, 0, 1460),
                0x10,
                false,
                (i % ts_every == 0, i, i + 1),
            ))
        })
        .collect()
}

#[test]
fn single_byte_reads_with_dry_spells_lose_nothing() {
    let packets = steady(200, 3);
    let bytes = trace::to_bytes(&packets);
    // Every byte its own read, every seventh read dry.
    let lens = [1, 1, 1, 1, 1, 1, 0];
    let follow = tail(&bytes, &lens);
    let polls = follow.poll_counter();
    let mut source = TraceReader::new(follow).unwrap();
    let (streamed, errors) = drain_mixed(&mut source, &[1024]);
    assert_eq!(errors, Vec::<String>::new());
    assert_eq!(streamed, packets);
    assert!(
        polls.load(Ordering::Relaxed) > 1000,
        "the dry spells were slept through"
    );
}

/// Both block readers decode out of their one window into the caller's one
/// block: once the first block has sized it, a run allocates nothing more —
/// in particular nothing per packet, timestamp option or not.
#[test]
fn steady_state_decode_allocates_nothing() {
    // Short payloads, so that one window holds more than one block.
    let packets: Vec<PacketMeta> = steady(10_000, 1)
        .into_iter()
        .map(|p| PacketMeta {
            payload_len: 24,
            ..p
        })
        .collect();
    let pcap = pcap_bytes(&packets, &[]);
    let native = trace::to_bytes(&packets);
    let readers: [(&str, Box<dyn PacketSource>); 2] = [
        (
            "pcap",
            Box::new(PcapSource::new(&pcap[..], classifier()).unwrap()),
        ),
        ("trace", Box::new(TraceReader::new(&native[..]).unwrap())),
    ];
    for (name, mut source) in readers {
        let mut block = Vec::new();
        let mut decoded = source.next_chunk(&mut block, 1024).unwrap();
        assert_eq!(decoded, 1024, "{name}: a full first block");
        let after_first = allocations(|| loop {
            match source.next_chunk(&mut block, 1024).unwrap() {
                0 => break,
                n => decoded += n,
            }
        });
        assert_eq!(decoded, packets.len(), "{name}");
        assert_eq!(after_first, 0, "{name}: allocations after the first block");
    }
}

/// Damage inside a well-framed record is the network's, not the file's: a
/// header field no IPv4/TCP packet can carry costs that one frame, counted,
/// and the capture reads on — streamed, or collected by `load_pcap`.
#[test]
fn a_malformed_frame_is_skipped_and_counted_not_fatal() {
    let packets = steady(50, 3);
    let cases = [
        (14, 0x65, "ip version 6 under the ipv4 ethertype"),
        (14, 0x43, "ihl 3"),
        (14 + 20 + 12, 0x40, "tcp data offset 4"),
    ];
    for (at, byte, what) in cases {
        let mut bytes = Vec::new();
        let mut w = PcapWriter::new(&mut bytes, linktype::ETHERNET).unwrap();
        for (i, p) in packets.iter().enumerate() {
            let frame = synthesize_frame(p);
            if i == 20 {
                let mut bad = frame.clone();
                bad[at] = byte;
                w.write_record(p.ts, &bad).unwrap();
            }
            w.write_record(p.ts, &frame).unwrap();
        }
        w.finish().unwrap();

        let mut source = PcapSource::new(&bytes[..], classifier()).unwrap();
        let (streamed, errors) = drain_mixed(&mut source, &[0, 7, 1024]);
        assert_eq!(errors, Vec::<String>::new(), "{what}");
        assert_eq!((&streamed, source.skipped()), (&packets, 1), "{what}");
        let (loaded, skipped) = load_pcap(&bytes[..], &classifier()).unwrap();
        assert_eq!((&loaded, skipped), (&packets, 1), "{what}");
    }
}

/// The global header's link type picks the parser once, at open: a raw-IP
/// capture of the same packets decodes to the same stream as its Ethernet
/// twin, and a link type with no parser is refused there by number instead
/// of being read as 100 % skipped frames.
#[test]
fn the_link_type_selects_the_parser_or_fails_the_open() {
    let packets = steady(300, 3);
    let capture = |link: u32, strip: usize| {
        let mut bytes = Vec::new();
        let mut w = PcapWriter::new(&mut bytes, link).unwrap();
        for p in &packets {
            w.write_record(p.ts, &synthesize_frame(p)[strip..]).unwrap();
        }
        w.finish().unwrap();
        bytes
    };
    for (link, strip) in [(linktype::ETHERNET, 0), (linktype::RAW, 14)] {
        let bytes = capture(link, strip);
        let mut source = PcapSource::new(&bytes[..], classifier()).unwrap();
        let (streamed, errors) = drain_mixed(&mut source, &[1024]);
        assert_eq!(errors, Vec::<String>::new(), "link type {link}");
        assert_eq!((&streamed, source.skipped()), (&packets, 0), "{link}");
        let (loaded, skipped) = load_pcap(&bytes[..], &classifier()).unwrap();
        assert_eq!((&loaded, skipped), (&packets, 0), "link type {link}");
    }
    let cooked = capture(113, 0); // LINKTYPE_LINUX_SLL
    let refusals = [
        PcapSource::new(&cooked[..], classifier()).err(),
        load_pcap(&cooked[..], &classifier()).err(),
    ];
    for refusal in refusals {
        let refusal = refusal.expect("refused at open").to_string();
        assert!(
            refusal.contains("unsupported pcap link type 113"),
            "{refusal}"
        );
    }
}
