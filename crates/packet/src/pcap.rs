//! Classic libpcap file format reader and writer.
//!
//! Implements the original `pcap` capture format (magic `0xa1b2c3d4`, and the
//! nanosecond-resolution variant `0xa1b23c4d`), both endiannesses on read.
//! This is how the repository interoperates with `tcpdump`/`tcpreplay`-style
//! workflows: simulated traces can be exported for inspection in Wireshark,
//! and real captures can be replayed through Dart (paper §5).

use crate::buffer::{ReadBuf, WINDOW_BYTES};
use crate::error::PacketError;
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

/// A captured record: timestamp in nanoseconds plus the captured bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcapRecord {
    /// Capture timestamp, nanoseconds since the epoch of the trace.
    pub ts: u64,
    /// Captured frame bytes (possibly truncated to the snap length).
    pub data: Vec<u8>,
    /// Original (untruncated) length on the wire.
    pub orig_len: u32,
}

/// Writes a pcap file with nanosecond timestamps.
pub struct PcapWriter<W: Write> {
    out: W,
    records: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header.
    pub fn new(mut out: W, link: u32) -> Result<Self, PacketError> {
        out.write_all(&MAGIC_NS.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&65535u32.to_le_bytes())?; // snaplen
        out.write_all(&link.to_le_bytes())?;
        Ok(PcapWriter { out, records: 0 })
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
        self.records += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> Result<W, PacketError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// A record borrowed from the reader's buffer: what [`PcapRecord`] holds,
/// without the per-record allocation.
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
const MAX_SNAPLEN: u32 = 256 * 1024;
const RECORD_HEADER_LEN: usize = 16;
// The longest record accepted must fit the window with room to spare.
const _: () = assert!(RECORD_HEADER_LEN + (MAX_SNAPLEN as usize) < WINDOW_BYTES);

/// Reads a pcap file block by block, normalizing timestamps to nanoseconds.
///
/// Records are decoded out of one reusable byte window, and the input is
/// read only when the next record is not completely buffered. A record
/// whose header claims more than the capture's snap length is corrupt
/// ([`PacketError::BadTrace`]) — its length is never trusted with an
/// allocation.
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
        let Some((hdr, rest)) = crate::split_head::<RECORD_HEADER_LEN>(data) else {
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
        let format = match unlimited.u32_at(crate::arr(&hdr[16..20])) {
            0 => unlimited,
            declared => RecordFormat {
                snaplen: declared.min(MAX_SNAPLEN),
                ..unlimited
            },
        };
        let link = format.u32_at(crate::arr(&hdr[20..24]));
        Ok(PcapReader {
            input,
            window: ReadBuf::with_capacity(WINDOW_BYTES),
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

    /// Read the next record; `Ok(None)` at clean end-of-file.
    pub fn next_record(&mut self) -> Result<Option<PcapRecord>, PacketError> {
        Ok(self.next_frame()?.map(|f| PcapRecord {
            ts: f.ts,
            data: f.data.to_vec(),
            orig_len: f.orig_len,
        }))
    }

    /// Iterate over all remaining records.
    pub fn records(self) -> PcapRecords<R> {
        PcapRecords { reader: self }
    }
}

/// Iterator adapter over a [`PcapReader`].
pub struct PcapRecords<R: Read> {
    reader: PcapReader<R>,
}

impl<R: Read> Iterator for PcapRecords<R> {
    type Item = Result<PcapRecord, PacketError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.reader.next_record().transpose()
    }
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
            assert_eq!(w.records_written(), 2);
            w.finish().unwrap();
        }
        let r = PcapReader::new(Cursor::new(&buf)).unwrap();
        assert_eq!(r.link, linktype::ETHERNET);
        let recs: Vec<_> = r.records().collect::<Result<_, _>>().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ts, 1_500_000_123);
        assert_eq!(recs[0].data, vec![1, 2, 3, 4]);
        assert_eq!(recs[1].ts, 2_000_000_456);
        assert_eq!(recs[1].orig_len, 2);
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
        let r = PcapReader::new(Cursor::new(&buf)).unwrap();
        let recs: Vec<_> = r.records().collect::<Result<_, _>>().unwrap();
        assert_eq!(recs[0].ts, 3_000_500_000);
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
        let r = PcapReader::new(Cursor::new(&buf)).unwrap();
        assert_eq!(r.link, linktype::ETHERNET);
        let recs: Vec<_> = r.records().collect::<Result<_, _>>().unwrap();
        assert_eq!(recs[0].ts, 1_000_000_007);
        assert_eq!(recs[0].data, vec![9, 9]);
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
        let r = PcapReader::new(Cursor::new(&buf)).unwrap();
        let results: Vec<_> = r.records().collect();
        assert!(results[0].is_err());
    }
}
