//! Trace file opening/loading/saving with format auto-detection.

use dart_core::monitor::ReadAhead;
use dart_packet::parse::PrefixClassifier;
use dart_packet::trace::{TraceReader, RECORD_LEN};
use dart_packet::{PacketError, PacketMeta, PacketSource, PcapSource};
use std::fs::File;
use std::io::{Chain, Cursor, ErrorKind, Read};
use std::net::Ipv4Addr;

/// Parse an `A.B.C.D/L` prefix string.
pub fn parse_prefix(s: &str) -> Result<(Ipv4Addr, u8), String> {
    let (addr, len) = s.split_once('/').unwrap_or((s, "8"));
    let addr: Ipv4Addr = addr.parse().map_err(|_| format!("bad address in {s:?}"))?;
    let len: u8 = len
        .parse()
        .map_err(|_| format!("bad prefix length in {s:?}"))?;
    if len > 32 {
        return Err(format!("prefix length {len} out of range"));
    }
    Ok((addr, len))
}

/// An input with its four sniffed magic bytes chained back in front: no
/// seek, so a fifo works, and no `BufReader`, since the readers' own window
/// is the buffer.
type Sniffed<R> = Chain<Cursor<[u8; 4]>, R>;

/// A trace being decoded block by block out of one reusable read window:
/// pcap (either endianness / resolution) or the native format.
pub enum TraceSource<R: Read> {
    /// The native fixed-record format.
    Native(TraceReader<Sniffed<R>>),
    /// A pcap capture, parsed and direction-classified on the fly.
    Pcap(PcapSource<Sniffed<R>, PrefixClassifier>),
}

impl<R: Read> TraceSource<R> {
    /// Tell the format of `input` by its magic and open the matching reader.
    fn sniff(mut input: R, internal: (Ipv4Addr, u8)) -> Result<Self, String> {
        let mut magic = [0u8; 4];
        input.read_exact(&mut magic).map_err(|e| match e.kind() {
            ErrorKind::UnexpectedEof => "file too short to identify".to_string(),
            _ => e.to_string(),
        })?;
        let is_pcap = matches!(
            u32::from_le_bytes(magic),
            0xa1b2_c3d4 | 0xa1b2_3c4d | 0xd4c3_b2a1 | 0x4d3c_b2a1
        );
        let input = Cursor::new(magic).chain(input);
        if is_pcap {
            PcapSource::new(input, PrefixClassifier::new([internal])).map(TraceSource::Pcap)
        } else {
            TraceReader::new(input).map(TraceSource::Native)
        }
        .map_err(err)
    }

    /// Pcap frames skipped so far as non-TCP or truncated (the native
    /// format has none).
    pub fn skipped(&self) -> u64 {
        match self {
            TraceSource::Native(_) => 0,
            TraceSource::Pcap(pcap) => pcap.skipped(),
        }
    }

    /// Drain the source into a vector. `len` is the input's length in bytes
    /// where known, else 0; it sizes the vector for native input (at most
    /// one record over, for the header; pcap records vary, so no guess).
    fn collect(mut self, len: u64) -> Result<(Vec<PacketMeta>, u64), String> {
        let hint = match self {
            TraceSource::Native(_) => usize::try_from(len).unwrap_or(0) / RECORD_LEN,
            TraceSource::Pcap(_) => 0,
        };
        let mut packets = Vec::with_capacity(hint);
        self.read_to_end(&mut packets).map_err(err)?;
        Ok((packets, self.skipped()))
    }
}

/// The packet stream, whichever format it is decoded from.
impl<R: Read> PacketSource for TraceSource<R> {
    fn next_chunk(&mut self, buf: &mut Vec<PacketMeta>, max: usize) -> Result<usize, PacketError> {
        match self {
            TraceSource::Native(trace) => trace.next_chunk(buf, max),
            TraceSource::Pcap(pcap) => pcap.next_chunk(buf, max),
        }
    }
}

/// Open the trace at `path` (a file or a fifo) for streaming, decoded one
/// block ahead of the engine on a helper thread where a core is left
/// beside the `busy` threads of the monitor it feeds (DESIGN.md §5c).
pub fn open_source(
    path: &str,
    internal: (Ipv4Addr, u8),
    busy: usize,
) -> Result<ReadAhead<TraceSource<File>>, String> {
    open(path, internal).map(|source| ReadAhead::new(source, busy))
}

fn open(path: &str, internal: (Ipv4Addr, u8)) -> Result<TraceSource<File>, String> {
    let file = File::open(path).map_err(|e| format!("read {path}: {e}"))?;
    TraceSource::sniff(file, internal)
}

/// Open an already-open input (a live tail) by its magic, boxed for the
/// combinators that hold a source chosen at run time.
pub fn open_boxed<R: Read + Send + 'static>(
    input: R,
    internal: (Ipv4Addr, u8),
) -> Result<Box<dyn PacketSource + Send>, String> {
    Ok(match TraceSource::sniff(input, internal)? {
        TraceSource::Native(trace) => Box::new(trace),
        TraceSource::Pcap(pcap) => Box::new(pcap),
    })
}

/// Load a whole trace from a path, collected: the packets and the number
/// of skipped (non-TCP) pcap records. For the commands that need random
/// access to the packets; everything else streams ([`open_source`]).
pub fn load_file(path: &str, internal: (Ipv4Addr, u8)) -> Result<(Vec<PacketMeta>, u64), String> {
    let source = open(path, internal)?;
    source.collect(std::fs::metadata(path).map_or(0, |m| m.len()))
}

/// Save packets to `path`, choosing the format by extension (`.pcap` gets
/// synthesized frames, anything else the native format).
pub fn save_file(path: &str, packets: &[PacketMeta]) -> Result<(), String> {
    let bytes = if path.ends_with(".pcap") {
        dart_packet::pcap::to_bytes(packets)
    } else {
        dart_packet::trace::to_bytes(packets)
    };
    std::fs::write(path, bytes).map_err(|e| format!("write {path}: {e}"))
}

fn err(e: PacketError) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_sim::scenario::{campus, CampusConfig};

    fn tiny() -> Vec<PacketMeta> {
        campus(CampusConfig {
            connections: 20,
            duration: dart_packet::SECOND,
            ..CampusConfig::default()
        })
        .packets
    }

    #[test]
    fn prefix_parsing() {
        assert_eq!(
            parse_prefix("10.0.0.0/8").unwrap(),
            (Ipv4Addr::new(10, 0, 0, 0), 8)
        );
        assert_eq!(parse_prefix("10.0.0.0").unwrap().1, 8);
        assert!(parse_prefix("10.0.0.0/40").is_err());
        assert!(parse_prefix("not-an-ip/8").is_err());
    }

    /// Sniff and collect a trace held in memory.
    fn load_slice(bytes: &[u8]) -> Result<(Vec<PacketMeta>, u64), String> {
        let internal = (Ipv4Addr::new(10, 0, 0, 0), 8);
        TraceSource::sniff(bytes, internal)?.collect(bytes.len() as u64)
    }

    #[test]
    fn auto_detects_both_formats() {
        let pkts = tiny();
        // Native bytes.
        let native = dart_packet::trace::to_bytes(&pkts);
        let (a, skipped) = load_slice(&native).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(a, pkts);
        // Pcap bytes.
        let pcap = dart_packet::pcap::to_bytes(&pkts);
        let (b, _) = load_slice(&pcap).unwrap();
        assert_eq!(b, pkts);
    }

    #[test]
    fn short_or_garbage_input_errors() {
        assert!(load_slice(&[1, 2]).is_err());
        assert!(load_slice(&[0u8; 64]).is_err());
    }

    #[test]
    fn save_and_load_round_trip_via_files() {
        let pkts = tiny();
        let dir = std::env::temp_dir();
        let internal = (Ipv4Addr::new(10, 0, 0, 0), 8);
        for name in ["dartmon_test.trace", "dartmon_test.pcap"] {
            let path = dir.join(name);
            let path = path.to_str().unwrap();
            save_file(path, &pkts).unwrap();
            let (back, _) = load_file(path, internal).unwrap();
            assert_eq!(back, pkts);
            let _ = std::fs::remove_file(path);
        }
    }
}
