//! Trace file loading/saving with format auto-detection.

use dart_packet::parse::PrefixClassifier;
use dart_packet::{PacketError, PacketMeta};
use dart_sim::replay::{dump_pcap, load_pcap};
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

/// Load a trace from bytes, auto-detecting pcap (either endianness /
/// resolution) vs the native format by magic. Returns the packets and the
/// number of skipped (non-TCP) pcap records.
pub fn load_bytes(
    bytes: &[u8],
    internal: (Ipv4Addr, u8),
) -> Result<(Vec<PacketMeta>, u64), String> {
    if bytes.len() < 4 {
        return Err("file too short to identify".into());
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
    let is_pcap = matches!(magic, 0xa1b2_c3d4 | 0xa1b2_3c4d | 0xd4c3_b2a1 | 0x4d3c_b2a1);
    if is_pcap {
        let classifier = PrefixClassifier::new([internal]);
        load_pcap(bytes, &classifier).map_err(err)
    } else {
        dart_packet::trace::from_bytes(bytes)
            .map(|p| (p, 0))
            .map_err(err)
    }
}

/// Load a trace from a path.
pub fn load_file(path: &str, internal: (Ipv4Addr, u8)) -> Result<(Vec<PacketMeta>, u64), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    load_bytes(&bytes, internal)
}

/// Save packets to `path`, choosing the format by extension (`.pcap` gets
/// synthesized frames, anything else the native format).
pub fn save_file(path: &str, packets: &[PacketMeta]) -> Result<(), String> {
    let bytes = if path.ends_with(".pcap") {
        let mut buf = Vec::new();
        dump_pcap(packets, &mut buf).map_err(err)?;
        buf
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

    #[test]
    fn auto_detects_both_formats() {
        let pkts = tiny();
        let internal = (Ipv4Addr::new(10, 0, 0, 0), 8);
        // Native bytes.
        let native = dart_packet::trace::to_bytes(&pkts);
        let (a, skipped) = load_bytes(&native, internal).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(a, pkts);
        // Pcap bytes.
        let mut pcap = Vec::new();
        dart_sim::replay::dump_pcap(&pkts, &mut pcap).unwrap();
        let (b, _) = load_bytes(&pcap, internal).unwrap();
        assert_eq!(b, pkts);
    }

    #[test]
    fn short_or_garbage_input_errors() {
        let internal = (Ipv4Addr::new(10, 0, 0, 0), 8);
        assert!(load_bytes(&[1, 2], internal).is_err());
        assert!(load_bytes(&[0u8; 64], internal).is_err());
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
