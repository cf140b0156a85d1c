//! The reusable read window behind the block-granular trace and pcap
//! readers.
//!
//! `std::io::BufReader` refills only once its buffer is empty, so it cannot
//! hold the torn front of a record while asking the input for the rest.
//! [`ReadBuf`] can: unconsumed bytes are moved to the front and one `read()`
//! is appended behind them. The readers call [`ReadBuf::fill`] only when no
//! complete record is buffered, which is what makes their input cost one
//! system call per block instead of one per record.

use std::io::{self, Read};

/// A fixed-capacity byte window over an input stream. Each reader sizes
/// its own to its records: [`crate::trace::WINDOW_BYTES`] holds two blocks
/// of native records, and a pcap reader's ([`crate::pcap::window_bytes`])
/// one record of the snap length its capture declares, never less than
/// the native window, or the longest record accepted
/// ([`crate::pcap::WINDOW_BYTES`]) when the capture declares none. A busy
/// native feed is handed over in full blocks; a window of one block plus a
/// record would alternate 1024- and 1-packet blocks, and every short block
/// costs a hand-off of its own.
#[derive(Debug)]
pub(crate) struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ReadBuf {
    /// A window of `capacity` bytes; `capacity` must exceed the longest
    /// record the caller waits for, or [`ReadBuf::fill`] has no room left
    /// to complete it.
    pub(crate) fn with_capacity(capacity: usize) -> ReadBuf {
        ReadBuf {
            buf: vec![0; capacity],
            start: 0,
            end: 0,
        }
    }

    /// The bytes read but not yet consumed.
    pub(crate) fn data(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Drop the first `n` unconsumed bytes.
    pub(crate) fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.end - self.start);
        self.start += n;
    }

    /// Drop everything unconsumed and return how many bytes that was — at
    /// end-of-file, the length of a record the input never finished.
    pub(crate) fn clear(&mut self) -> usize {
        let dropped = self.end - self.start;
        self.start = self.end;
        dropped
    }

    /// Drop the first `n` unconsumed bytes and lend them out; they stay
    /// intact until the next [`ReadBuf::fill`].
    pub(crate) fn take(&mut self, n: usize) -> &[u8] {
        let taken = self.start..self.start + n;
        self.consume(n);
        &self.buf[taken]
    }

    /// Append one `read()` to the unconsumed bytes and return its length;
    /// zero is the input's end-of-file.
    pub(crate) fn fill(&mut self, input: &mut impl Read) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        debug_assert!(self.end < self.buf.len(), "window too small for a record");
        loop {
            match input.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}
