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
    swapped: bool,
    nanos: bool,
    snaplen: u32,
    /// Link type from the global header.
    pub link: u32,
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
        let read_u32 = |b: &[u8]| {
            let v = u32::from_le_bytes(crate::arr(b));
            if swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let snaplen = match read_u32(&hdr[16..20]) {
            0 => MAX_SNAPLEN,
            declared => declared.min(MAX_SNAPLEN),
        };
        let link = read_u32(&hdr[20..24]);
        Ok(PcapReader {
            input,
            window: ReadBuf::with_capacity(WINDOW_BYTES),
            swapped,
            nanos,
            snaplen,
            link,
        })
    }

    fn u32_at(&self, b: &[u8]) -> u32 {
        let v = u32::from_le_bytes(crate::arr(b));
        if self.swapped {
            v.swap_bytes()
        } else {
            v
        }
    }

    /// The captured length of the record at the front of the window, once
    /// that record is completely buffered. With `may_read` the input is
    /// read until it is (`Ok(None)` then means clean end-of-file);
    /// without, `Ok(None)` means the record is not all here yet.
    fn buffer_record(&mut self, may_read: bool) -> Result<Option<usize>, PacketError> {
        loop {
            let have = self.window.data().len();
            if have >= RECORD_HEADER_LEN {
                let incl = self.u32_at(&self.window.data()[8..12]);
                if incl > self.snaplen {
                    // The length cannot be trusted to skip the record:
                    // drop its header and let the caller resynchronize.
                    self.window.consume(RECORD_HEADER_LEN);
                    return Err(PacketError::BadTrace(format!(
                        "record length {incl} exceeds snap length {}",
                        self.snaplen
                    )));
                }
                if have >= RECORD_HEADER_LEN + incl as usize {
                    return Ok(Some(incl as usize));
                }
            }
            if !may_read {
                return Ok(None);
            }
            if self.window.fill(&mut self.input)? == 0 {
                return match self.window.clear() {
                    0 => Ok(None),
                    torn => Err(PacketError::BadTrace(format!(
                        "truncated record: {torn} bytes before end-of-file"
                    ))),
                };
            }
        }
    }

    /// The next record, borrowed from the reader's buffer. With `may_read`
    /// the input is read until the record is complete and `Ok(None)` is
    /// clean end-of-file; without, only an already buffered record is
    /// returned and `Ok(None)` means "not yet".
    pub(crate) fn frame(&mut self, may_read: bool) -> Result<Option<PcapFrame<'_>>, PacketError> {
        let Some(incl) = self.buffer_record(may_read)? else {
            return Ok(None);
        };
        let hdr = &self.window.data()[..RECORD_HEADER_LEN];
        let secs = self.u32_at(&hdr[0..4]) as u64;
        let frac = self.u32_at(&hdr[4..8]) as u64;
        let orig_len = self.u32_at(&hdr[12..16]);
        let ts = secs * 1_000_000_000 + if self.nanos { frac } else { frac * 1_000 };
        let record = self.window.take(RECORD_HEADER_LEN + incl);
        Ok(Some(PcapFrame {
            ts,
            data: &record[RECORD_HEADER_LEN..],
            orig_len,
        }))
    }

    /// The next record, borrowed from the reader's buffer; `Ok(None)` at
    /// clean end-of-file.
    pub fn next_frame(&mut self) -> Result<Option<PcapFrame<'_>>, PacketError> {
        self.frame(true)
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
