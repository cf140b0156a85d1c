//! Native binary trace format: a compact stream of [`PacketMeta`] records.
//!
//! Replaying multi-million-packet workloads through parameter sweeps is the
//! dominant cost of the evaluation (paper §6 replays a 135M-packet trace per
//! configuration). Storing fully-parsed [`PacketMeta`] records — 43 bytes
//! each, no per-replay re-parse — keeps sweeps fast. `pcap` import/export is
//! available via [`crate::pcap`] for interop.
//!
//! Format: 16-byte header (`MAGIC`, version, record count), then fixed-width
//! little-endian records.

use crate::buffer::{ReadBuf, WINDOW_BYTES};
use crate::error::PacketError;
use crate::flow::FlowKey;
use crate::meta::{Direction, Nanos, PacketMeta};
use crate::seq::SeqNum;
use crate::source::PacketSource;
use crate::tcp::TcpFlags;
use std::io::{Read, Write};

const MAGIC: [u8; 4] = *b"DART";
const VERSION: u32 = 2;
/// Bytes per record on disk.
pub const RECORD_LEN: usize = 43;

/// Writes a native trace stream.
pub struct TraceWriter<W: Write> {
    out: W,
    count: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Start a trace. The header's record count field always stores
    /// `u64::MAX` ("unknown") — nothing finalizes it, the writer may be a
    /// plain stream — and readers read to EOF.
    pub fn new(mut out: W) -> Result<Self, PacketError> {
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        out.write_all(&u64::MAX.to_le_bytes())?;
        Ok(TraceWriter { out, count: 0 })
    }

    /// Append one record.
    pub fn write(&mut self, m: &PacketMeta) -> Result<(), PacketError> {
        let mut rec = [0u8; RECORD_LEN];
        rec[0..8].copy_from_slice(&m.ts.to_le_bytes());
        rec[8..12].copy_from_slice(&m.flow.src_ip.octets());
        rec[12..16].copy_from_slice(&m.flow.dst_ip.octets());
        rec[16..18].copy_from_slice(&m.flow.src_port.to_le_bytes());
        rec[18..20].copy_from_slice(&m.flow.dst_port.to_le_bytes());
        rec[20..24].copy_from_slice(&m.seq.raw().to_le_bytes());
        rec[24..28].copy_from_slice(&m.ack.raw().to_le_bytes());
        rec[28..32].copy_from_slice(&m.payload_len.to_le_bytes());
        rec[32] = m.flags.0;
        rec[33] = match m.dir {
            Direction::Outbound => 0,
            Direction::Inbound => 1,
        };
        if let Some((tsval, tsecr)) = m.tsopt {
            rec[34] = 1;
            rec[35..39].copy_from_slice(&tsval.to_le_bytes());
            rec[39..43].copy_from_slice(&tsecr.to_le_bytes());
        }
        self.out.write_all(&rec)?;
        self.count += 1;
        Ok(())
    }

    /// Records written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> Result<W, PacketError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Reads a native trace stream block by block.
///
/// The reader owns a reusable byte window of several 1024-record blocks and
/// asks the input for more only when no complete record is buffered, so a
/// live tail (`TraceReader<Follow<File>>`) costs one `read()` per block of
/// records rather than one per record, and never waits on the input while
/// it holds records it could hand over. A record split across two reads is
/// completed by the next one; only the input's end-of-file makes a torn
/// record an error.
pub struct TraceReader<R: Read> {
    input: R,
    window: ReadBuf,
}

/// Validate the 16-byte stream header.
fn check_header(hdr: &[u8; 16]) -> Result<(), PacketError> {
    if hdr[0..4] != MAGIC {
        return Err(PacketError::BadTrace("bad trace magic".into()));
    }
    let version = u32::from_le_bytes(crate::arr(&hdr[4..8]));
    if version != VERSION {
        return Err(PacketError::BadTrace(format!(
            "unsupported trace version {version}"
        )));
    }
    Ok(())
}

/// Decode one `RECORD_LEN`-byte record. Inline: the reader's loop is
/// instantiated in the crate that names its input type.
#[inline]
fn decode_record(rec: &[u8]) -> Result<PacketMeta, PacketError> {
    let ts = Nanos::from_le_bytes(crate::arr(&rec[0..8]));
    let src_ip = u32::from_be_bytes(crate::arr(&rec[8..12]));
    let dst_ip = u32::from_be_bytes(crate::arr(&rec[12..16]));
    let src_port = u16::from_le_bytes(crate::arr(&rec[16..18]));
    let dst_port = u16::from_le_bytes(crate::arr(&rec[18..20]));
    let seq = SeqNum(u32::from_le_bytes(crate::arr(&rec[20..24])));
    let ack = SeqNum(u32::from_le_bytes(crate::arr(&rec[24..28])));
    let payload_len = u32::from_le_bytes(crate::arr(&rec[28..32]));
    let flags = TcpFlags(rec[32]);
    let dir = match rec[33] {
        0 => Direction::Outbound,
        1 => Direction::Inbound,
        _ => return Err(PacketError::BadTrace("bad direction byte".into())),
    };
    let tsopt = match rec[34] {
        0 => None,
        1 => Some((
            u32::from_le_bytes(crate::arr(&rec[35..39])),
            u32::from_le_bytes(crate::arr(&rec[39..43])),
        )),
        _ => return Err(PacketError::BadTrace("bad tsopt flag byte".into())),
    };
    Ok(PacketMeta {
        ts,
        flow: FlowKey::from_raw(src_ip, src_port, dst_ip, dst_port),
        seq,
        ack,
        payload_len,
        flags,
        dir,
        tsopt,
    })
}

fn truncated_record(got: usize) -> PacketError {
    PacketError::BadTrace(format!("truncated record: {got} of {RECORD_LEN} bytes"))
}

impl<R: Read> TraceReader<R> {
    /// Open a trace, validating the header.
    pub fn new(mut input: R) -> Result<Self, PacketError> {
        let mut hdr = [0u8; 16];
        input.read_exact(&mut hdr)?;
        check_header(&hdr)?;
        Ok(TraceReader {
            input,
            window: ReadBuf::with_capacity(WINDOW_BYTES),
        })
    }

    /// Read until a complete record is buffered; `Ok(false)` at clean EOF.
    /// End-of-file inside a record is a corrupt trace: the torn bytes are
    /// dropped and reported once.
    fn buffer_record(&mut self) -> Result<bool, PacketError> {
        while self.window.data().len() < RECORD_LEN {
            if self.window.fill(&mut self.input)? == 0 {
                return match self.window.clear() {
                    0 => Ok(false),
                    torn => Err(truncated_record(torn)),
                };
            }
        }
        Ok(true)
    }

    /// Iterate over remaining records.
    pub fn packets(self) -> TracePackets<R> {
        TracePackets { reader: self }
    }
}

/// Decodes every complete buffered record, up to `max`, in one pass. The
/// input is read only when no complete record is buffered, so the block is
/// short when the feed runs dry. A bad record ends the block before it and
/// is reported, and consumed, by the next call.
impl<R: Read> PacketSource for TraceReader<R> {
    fn next_chunk(&mut self, out: &mut Vec<PacketMeta>, max: usize) -> Result<usize, PacketError> {
        out.clear();
        if max == 0 || !self.buffer_record()? {
            return Ok(0);
        }
        let mut failed = None;
        for rec in self.window.data().chunks_exact(RECORD_LEN).take(max) {
            match decode_record(rec) {
                Ok(p) => out.push(p),
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        self.window.consume(out.len() * RECORD_LEN);
        match failed {
            Some(e) if out.is_empty() => {
                self.window.consume(RECORD_LEN);
                Err(e)
            }
            _ => Ok(out.len()),
        }
    }
}

/// Iterator adapter over a [`TraceReader`].
pub struct TracePackets<R: Read> {
    reader: TraceReader<R>,
}

impl<R: Read> Iterator for TracePackets<R> {
    type Item = Result<PacketMeta, PacketError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.reader.next_packet().transpose()
    }
}

/// Serialize a whole trace to a byte vector.
#[allow(clippy::expect_used)] // Vec<u8> writes are infallible
pub fn to_bytes(packets: &[PacketMeta]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + packets.len() * RECORD_LEN);
    let mut w = TraceWriter::new(&mut buf).expect("vec write cannot fail");
    for p in packets {
        w.write(p).expect("vec write cannot fail");
    }
    w.finish().expect("vec write cannot fail");
    buf
}

/// Deserialize a whole trace from bytes, straight out of the slice.
pub fn from_bytes(mut bytes: &[u8]) -> Result<Vec<PacketMeta>, PacketError> {
    let mut hdr = [0u8; 16];
    bytes.read_exact(&mut hdr)?;
    check_header(&hdr)?;
    let mut packets = Vec::with_capacity(bytes.len() / RECORD_LEN);
    let mut records = bytes.chunks_exact(RECORD_LEN);
    for rec in &mut records {
        packets.push(decode_record(rec)?);
    }
    match records.remainder().len() {
        0 => Ok(packets),
        torn => Err(truncated_record(torn)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::PacketBuilder;

    fn sample_packets() -> Vec<PacketMeta> {
        let f = FlowKey::from_raw(0x0a00_0001, 443, 0xc0a8_0005, 51111);
        vec![
            PacketBuilder::new(f, 100)
                .seq(1u32)
                .payload(1000)
                .dir(Direction::Inbound)
                .build(),
            PacketBuilder::new(f.reverse(), 250)
                .ack(1001u32)
                .dir(Direction::Outbound)
                .build(),
            PacketBuilder::new(f, 300).seq(1001u32).syn().build(),
            PacketBuilder::new(f, 400)
                .seq(1002u32)
                .payload(10)
                .tsopt(77, 88)
                .build(),
        ]
    }

    #[test]
    fn round_trip() {
        let pkts = sample_packets();
        let bytes = to_bytes(&pkts);
        assert_eq!(bytes.len(), 16 + pkts.len() * RECORD_LEN);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, pkts);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&sample_packets());
        bytes[0] = b'X';
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = to_bytes(&sample_packets());
        bytes[4] = 99;
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_record_errors() {
        let mut bytes = to_bytes(&sample_packets());
        bytes.truncate(bytes.len() - 1);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = to_bytes(&[]);
        assert_eq!(from_bytes(&bytes).unwrap(), Vec::<PacketMeta>::new());
    }
}
