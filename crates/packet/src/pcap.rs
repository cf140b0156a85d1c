//! Classic libpcap file format reader and writer.
//!
//! Implements the original `pcap` capture format (magic `0xa1b2c3d4`, and the
//! nanosecond-resolution variant `0xa1b23c4d`), both endiannesses on read.
//! This is how the repository interoperates with `tcpdump`/`tcpreplay`-style
//! workflows: simulated traces can be exported for inspection in Wireshark,
//! and real captures can be replayed through Dart (paper §5).

use crate::buffer::ReadBuf;
use crate::error::PacketError;
use crate::meta::PacketMeta;
use crate::parse::synthesize_frame;
use std::io::{Read, Write};

/// Link types we emit/understand.
pub mod linktype {
    /// LINKTYPE_ETHERNET.
    pub const ETHERNET: u32 = 1;
    /// LINKTYPE_RAW (raw IP).
    pub const RAW: u32 = 101;
}

const MAGIC_US: u32 = 0xa1b2_c3d4;
const MAGIC_NS: u32 = 0xa1b2_3c4d;
/// The snap length [`PcapWriter`] declares, whatever it is handed.
pub const WRITER_SNAPLEN: u32 = 65_535;

/// Writes a pcap file with nanosecond timestamps.
pub struct PcapWriter<W: Write> {
    out: W,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header.
    pub fn new(mut out: W, link: u32) -> Result<Self, PacketError> {
        out.write_all(&MAGIC_NS.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&WRITER_SNAPLEN.to_le_bytes())?;
        out.write_all(&link.to_le_bytes())?;
        Ok(PcapWriter { out })
    }

    /// Append one record.
    pub fn write_record(&mut self, ts_nanos: u64, data: &[u8]) -> Result<(), PacketError> {
        let secs = (ts_nanos / 1_000_000_000) as u32;
        let nanos = (ts_nanos % 1_000_000_000) as u32;
        self.out.write_all(&secs.to_le_bytes())?;
        self.out.write_all(&nanos.to_le_bytes())?;
        self.out.write_all(&(data.len() as u32).to_le_bytes())?;
        self.out.write_all(&(data.len() as u32).to_le_bytes())?;
        self.out.write_all(data)?;
        Ok(())
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> Result<W, PacketError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// A captured record, borrowed from the reader's buffer: timestamp in
/// nanoseconds plus the captured bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PcapFrame<'a> {
    /// Capture timestamp, nanoseconds since the epoch of the trace.
    pub ts: u64,
    /// Captured frame bytes (possibly truncated to the snap length).
    pub data: &'a [u8],
    /// Original (untruncated) length on the wire.
    pub orig_len: u32,
}

/// Longest capture length the reader accepts. A global header may declare
/// more (or zero, "unlimited"); records are still held to this.
pub const MAX_SNAPLEN: u32 = 256 * 1024;
const RECORD_HEADER_LEN: usize = 16;
/// The window of a reader whose header declares no snap length, or one
/// over [`MAX_SNAPLEN`]: 264 192 bytes, the longest record accepted (256
/// KiB and its header) with room to spare — six 1024-record blocks of the
/// native trace.
pub const WINDOW_BYTES: usize = 6 * 1024 * crate::trace::RECORD_LEN;
const _: () = assert!(RECORD_HEADER_LEN + (MAX_SNAPLEN as usize) < WINDOW_BYTES);

/// The window of a reader whose global header declares `snaplen`: one
/// record of that length and its header, and a byte to spare (a fill
/// always has room to read), but never less than the native reader's two
/// blocks (88 064 bytes). A longer record is refused before it is waited
/// for, so it never needs the room. A header that declares 0 or more than
/// [`MAX_SNAPLEN`] gets [`WINDOW_BYTES`].
pub fn window_bytes(snaplen: u32) -> usize {
    match snaplen {
        1..=MAX_SNAPLEN => {
            (RECORD_HEADER_LEN + snaplen as usize + 1).max(crate::trace::WINDOW_BYTES)
        }
        _ => WINDOW_BYTES,
    }
}

/// Reads a pcap file block by block, normalizing timestamps to nanoseconds.
///
/// Records are decoded out of one reusable byte window, sized by the
/// capture's declared snap length ([`window_bytes`]), and the input is
/// read only when the next record is not completely buffered. A record
/// whose header claims more than the capture's snap length is corrupt
/// ([`PacketError::BadTrace`]) — its length is never trusted with an
/// allocation, nor with the window.
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    input: R,
    window: ReadBuf,
    format: RecordFormat,
    /// Link type from the global header.
    pub link: u32,
}

/// What the global header says of the records behind it.
#[derive(Clone, Copy, Debug)]
struct RecordFormat {
    swapped: bool,
    nanos: bool,
    snaplen: u32,
}

impl RecordFormat {
    fn u32_at(&self, b: [u8; 4]) -> u32 {
        let v = u32::from_le_bytes(b);
        if self.swapped {
            v.swap_bytes()
        } else {
            v
        }
    }

    /// The record at the front of `data` and its length there, header
    /// included, once all of it is buffered; `Ok(None)` until then. A
    /// captured length over the snap length is corrupt, and cannot be
    /// trusted to skip the record either. Inline: the generic readers that
    /// call it per record are instantiated downstream.
    #[inline]
    fn record_in<'a>(&self, data: &'a [u8]) -> Result<Option<(PcapFrame<'a>, usize)>, PacketError> {
        let Some((hdr, rest)) = data.split_first_chunk::<RECORD_HEADER_LEN>() else {
            return Ok(None);
        };
        let field = |at: usize| self.u32_at(crate::arr(&hdr[at..at + 4]));
        let incl = field(8);
        if incl > self.snaplen {
            return Err(PacketError::BadTrace(format!(
                "record length {incl} exceeds snap length {}",
                self.snaplen
            )));
        }
        let Some(data) = rest.get(..incl as usize) else {
            return Ok(None);
        };
        let (secs, frac) = (field(0) as u64, field(4) as u64);
        let frame = PcapFrame {
            ts: secs * 1_000_000_000 + if self.nanos { frac } else { frac * 1_000 },
            data,
            orig_len: field(12),
        };
        Ok(Some((frame, RECORD_HEADER_LEN + data.len())))
    }
}

impl<R: Read> PcapReader<R> {
    /// Open a reader, consuming and validating the global header.
    pub fn new(mut input: R) -> Result<Self, PacketError> {
        let mut hdr = [0u8; 24];
        input.read_exact(&mut hdr)?;
        let magic = u32::from_le_bytes(crate::arr(&hdr[0..4]));
        let (swapped, nanos) = match magic {
            MAGIC_US => (false, false),
            MAGIC_NS => (false, true),
            m if m.swap_bytes() == MAGIC_US => (true, false),
            m if m.swap_bytes() == MAGIC_NS => (true, true),
            _ => return Err(PacketError::BadTrace("unknown pcap magic".into())),
        };
        let unlimited = RecordFormat {
            swapped,
            nanos,
            snaplen: MAX_SNAPLEN,
        };
        let declared = unlimited.u32_at(crate::arr(&hdr[16..20]));
        let format = match declared {
            0 => unlimited,
            declared => RecordFormat {
                snaplen: declared.min(MAX_SNAPLEN),
                ..unlimited
            },
        };
        let link = format.u32_at(crate::arr(&hdr[20..24]));
        Ok(PcapReader {
            input,
            window: ReadBuf::with_capacity(window_bytes(declared)),
            format,
            link,
        })
    }

    /// Append one `read()` to the window: `Ok(false)` is clean end-of-file,
    /// end-of-file inside a record an error reported once.
    pub(crate) fn fill(&mut self) -> Result<bool, PacketError> {
        if self.window.fill(&mut self.input)? > 0 {
            return Ok(true);
        }
        match self.window.clear() {
            0 => Ok(false),
            torn => Err(PacketError::BadTrace(format!(
                "truncated record: {torn} bytes before end-of-file"
            ))),
        }
    }

    /// Hand the completely buffered records, oldest first, to `each` until
    /// it answers `false` or the next record is not all here yet; the input
    /// is not read. A bad record header ends the walk as an error after the
    /// records before it have been handed over; the header is dropped, so
    /// the caller can resynchronize.
    pub(crate) fn drain_buffered(
        &mut self,
        mut each: impl FnMut(PcapFrame<'_>) -> bool,
    ) -> Result<(), PacketError> {
        let data = self.window.data();
        let mut at = 0;
        let walked = loop {
            match self.format.record_in(&data[at..]) {
                Ok(Some((frame, len))) => {
                    at += len;
                    if !each(frame) {
                        break Ok(());
                    }
                }
                Ok(None) => break Ok(()),
                Err(e) => {
                    at += RECORD_HEADER_LEN;
                    break Err(e);
                }
            }
        };
        self.window.consume(at);
        walked
    }

    /// The next record, borrowed from the reader's buffer; `Ok(None)` at
    /// clean end-of-file.
    pub fn next_frame(&mut self) -> Result<Option<PcapFrame<'_>>, PacketError> {
        let format = self.format;
        let len = loop {
            match format.record_in(self.window.data()) {
                Ok(Some((_, len))) => break len,
                Ok(None) => {}
                Err(e) => {
                    self.window.consume(RECORD_HEADER_LEN);
                    return Err(e);
                }
            }
            if !self.fill()? {
                return Ok(None);
            }
        };
        Ok(format
            .record_in(self.window.take(len))?
            .map(|(frame, _)| frame))
    }
}

/// Serialize a whole trace to a pcap byte vector: one synthesized Ethernet
/// frame per packet.
#[allow(clippy::expect_used)] // Vec<u8> writes are infallible
pub fn to_bytes(packets: &[PacketMeta]) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = PcapWriter::new(&mut buf, linktype::ETHERNET).expect("vec write cannot fail");
    for p in packets {
        w.write_record(p.ts, &synthesize_frame(p))
            .expect("vec write cannot fail");
    }
    w.finish().expect("vec write cannot fail");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn write_then_read_round_trips() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, linktype::ETHERNET).unwrap();
            w.write_record(1_500_000_123, &[1, 2, 3, 4]).unwrap();
            w.write_record(2_000_000_456, &[5, 6]).unwrap();
            w.finish().unwrap();
        }
        let mut r = PcapReader::new(Cursor::new(&buf)).unwrap();
        assert_eq!(r.link, linktype::ETHERNET);
        let first = r.next_frame().unwrap().unwrap();
        assert_eq!((first.ts, first.data), (1_500_000_123, &[1, 2, 3, 4][..]));
        let second = r.next_frame().unwrap().unwrap();
        assert_eq!((second.ts, second.orig_len), (2_000_000_456, 2));
        assert_eq!(r.next_frame().unwrap(), None, "two frames walked");
    }

    #[test]
    fn microsecond_magic_scales_timestamps() {
        // Hand-build a classic microsecond pcap with one record.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_US.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&4u16.to_le_bytes());
        buf.extend_from_slice(&0i32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&65535u32.to_le_bytes());
        buf.extend_from_slice(&linktype::RAW.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes()); // secs
        buf.extend_from_slice(&500u32.to_le_bytes()); // usecs
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(0xAB);
        let mut r = PcapReader::new(Cursor::new(&buf)).unwrap();
        assert_eq!(r.next_frame().unwrap().unwrap().ts, 3_000_500_000);
    }

    #[test]
    fn big_endian_file_is_readable() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_NS.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&65535u32.to_be_bytes());
        buf.extend_from_slice(&linktype::ETHERNET.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&7u32.to_be_bytes());
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[9, 9]);
        let mut r = PcapReader::new(Cursor::new(&buf)).unwrap();
        assert_eq!(r.link, linktype::ETHERNET);
        let frame = r.next_frame().unwrap().unwrap();
        assert_eq!((frame.ts, frame.data), (1_000_000_007, &[9, 9][..]));
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = vec![0u8; 24];
        assert!(matches!(
            PcapReader::new(Cursor::new(&buf)).unwrap_err(),
            PacketError::BadTrace(_)
        ));
    }

    #[test]
    fn truncated_record_errors() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, linktype::ETHERNET).unwrap();
            w.write_record(0, &[1, 2, 3, 4]).unwrap();
            w.finish().unwrap();
        }
        buf.truncate(buf.len() - 2); // chop the record body
        let mut r = PcapReader::new(Cursor::new(&buf)).unwrap();
        assert!(r.next_frame().is_err());
    }
}
