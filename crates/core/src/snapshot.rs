//! Crash-consistent engine snapshots: a versioned, checksummed binary
//! format for checkpointing flow state across process restarts.
//!
//! The paper's monitor runs continuously in the data plane; a software
//! daemon that loses every Range Tracker entry, Packet Tracker record and
//! counter the moment its process dies cannot honour that contract. This
//! module gives the engine a control-plane serialization of everything the
//! conservation law (`fed == packets + monitor_miss`) and the in-flight
//! measurements depend on:
//!
//! * both flow tables under every backend (exact, sketch, precision),
//!   including the exact RT's activity-generation epoch,
//! * the victim cache and the recirculation queue (records mid-loop),
//! * the probabilistic-admission gate's heavy-hitter book,
//! * all [`crate::EngineStats`] counters, name-tagged so a snapshot taken
//!   by an older build restores cleanly into a newer one.
//!
//! # Format
//!
//! ```text
//! magic "DSNP" | version u32 | payload_len u64 | payload | fnv1a-64(payload)
//! ```
//!
//! All integers little-endian. The payload is engine-defined (see
//! [`RttMonitor::snapshot`](crate::RttMonitor::snapshot)); this module only
//! guarantees framing: a [`Snapshot`] that deserializes at all, and a
//! [`SnapReader::open`] that opens, has a verified checksum, so a crash
//! mid-checkpoint-write can never restore half a table.
//!
//! # Restoring from a file
//!
//! [`RttMonitor::restore_file`](crate::RttMonitor::restore_file) mirrors the
//! streamed checkpoint: [`SnapReader::open`] hashes the file through a
//! 16 KiB window and refuses it before any state changes unless the
//! trailer matches; then the payload is decoded from the same handle, a
//! window at a time, each shard's section by its own worker at its own
//! offset. What a restore holds beside the tables is a window per reader,
//! whatever the size of the file.
//!
//! # Crash consistency
//!
//! [`Snapshot::to_file`] and the streamed
//! [`RttMonitor::checkpoint_to`](crate::RttMonitor::checkpoint_to) write a
//! sibling temporary file, fsync it, and rename it over the destination —
//! the POSIX publish idiom. A reader therefore observes either the
//! previous complete snapshot or the new complete snapshot, never a torn
//! one; a crash between fsync and rename leaves a stale `.tmp` that
//! [`SnapReader::open`] ignores, and a write that fails removes its
//! `.tmp` itself.

use dart_packet::flow::{fnv1a_64, fnv1a_64_fold, FNV1A_64_OFFSET};
use std::fmt;
use std::fs;
use std::io::{self, Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::Arc;

/// Leading magic of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"DSNP";
/// Current format version. Bumped on any layout change; older versions are
/// refused rather than misread.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why a snapshot could not be produced, parsed, or restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure while persisting or loading.
    Io(io::Error),
    /// The bytes are not a complete, checksum-valid snapshot (truncated
    /// write, bit rot, or not a snapshot at all).
    Corrupt(String),
    /// The snapshot is valid but was taken under an incompatible
    /// configuration (different backend, table geometry, or signature
    /// width) — restoring it would silently mis-key every table.
    Mismatch(String),
    /// The monitor implementation does not support checkpointing.
    Unsupported(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            SnapshotError::Mismatch(why) => write!(f, "snapshot mismatch: {why}"),
            SnapshotError::Unsupported(what) => write!(f, "snapshot unsupported: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

/// Counters are incremented for as long as the engine runs, so a restored
/// one must leave room to count in: 2^60 is centuries of packets at line
/// rate, and anything above it is refused as hostile rather than left to
/// overflow on some later packet.
pub(crate) fn sane_count(what: &str, value: u64) -> Result<u64, SnapshotError> {
    if value > 1 << 60 {
        return Err(SnapshotError::Corrupt(format!(
            "counter `{what}` reads {value}, beyond anything a run can count to"
        )));
    }
    Ok(value)
}

/// Bytes of frame ahead of the payload: magic, version, payload length.
const FRAME_HEADER_LEN: usize = 16;
/// Bytes of frame behind the payload: its fnv1a-64 checksum.
const FRAME_TRAILER_LEN: usize = 8;
/// Bytes a file [`SnapWriter`] stages before it hands them to the file:
/// what a checkpoint holds beside the tables, whatever their size.
const STAGE_LEN: usize = 64 * 1024;
/// Bytes a counting [`SnapWriter`] stages.
const COUNT_STAGE_LEN: usize = 4 * 1024;

/// Where a [`SnapWriter`]'s bytes go.
#[derive(Debug)]
enum Sink {
    /// Kept in the writer's buffer, which is the result.
    Vec,
    /// Counted and dropped.
    Count,
    /// Written to a checkpoint's temporary file.
    File(fs::File),
}

/// Little-endian writer of a snapshot payload, or of a whole frame around
/// one, used by every serializer. One writer, three sinks: a `Vec` that
/// keeps the bytes ([`SnapWriter::new`], [`SnapWriter::framed`]), a byte
/// counter ([`SnapWriter::counter`]) and a checkpoint file
/// ([`RttMonitor::checkpoint_to`](crate::RttMonitor::checkpoint_to)). The
/// last two stage their bytes in a small fixed buffer (64 KiB for the
/// file, which hashes the payload as it passes), so what they hold never
/// grows with the state they write.
#[derive(Debug)]
pub struct SnapWriter {
    /// Bytes not yet handed to the sink: all of them, for the `Vec` sink.
    buf: Vec<u8>,
    /// `buf.len()` from which the staged bytes go to the sink (never, for
    /// the `Vec` sink).
    drain_at: usize,
    /// Leading bytes of `buf` that are the frame header, not payload: a
    /// framed writer's until its first stage is drained.
    head: usize,
    /// Payload bytes already handed to the sink.
    drained: u64,
    /// fnv1a-64 of the payload handed to the file sink so far.
    hash: u64,
    sink: Sink,
    /// The first error the file sink returned; later bytes are dropped and
    /// finishing reports it.
    error: Option<io::Error>,
}

impl Default for SnapWriter {
    fn default() -> SnapWriter {
        SnapWriter::new()
    }
}

impl SnapWriter {
    fn with_sink(sink: Sink, framed: bool) -> SnapWriter {
        let head = if framed { FRAME_HEADER_LEN } else { 0 };
        let drain_at = match sink {
            Sink::Vec => usize::MAX,
            // Counting needs no more than a cache-resident stage.
            Sink::Count => COUNT_STAGE_LEN,
            Sink::File(_) => STAGE_LEN,
        };
        // A stage has room for the widest put that crosses its end.
        let mut buf = match sink {
            Sink::Vec => Vec::new(),
            _ => Vec::with_capacity(drain_at + 8),
        };
        // The header's payload length is patched in at the finish.
        buf.resize(head, 0);
        if framed {
            buf[0..4].copy_from_slice(&SNAPSHOT_MAGIC);
            buf[4..8].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        }
        SnapWriter {
            buf,
            drain_at,
            head,
            drained: 0,
            hash: FNV1A_64_OFFSET,
            sink,
            error: None,
        }
    }

    /// Start an empty payload, kept in memory ([`SnapWriter::into_payload`]).
    pub fn new() -> SnapWriter {
        SnapWriter::with_sink(Sink::Vec, false)
    }

    /// Start a frame kept in memory ([`SnapWriter::into_snapshot`]): the
    /// header is written ahead of the payload, so finishing does not copy
    /// it.
    pub fn framed() -> SnapWriter {
        SnapWriter::with_sink(Sink::Vec, true)
    }

    /// Start a payload that is only counted ([`SnapWriter::len`]): what a
    /// section will take, without holding it.
    pub fn counter() -> SnapWriter {
        SnapWriter::with_sink(Sink::Count, false)
    }

    /// Make room, in one allocation, for `additional` more payload bytes
    /// and the frame trailer behind them. A streaming writer holds no more
    /// than its stage and ignores this.
    pub fn reserve(&mut self, additional: usize) {
        if matches!(self.sink, Sink::Vec) {
            self.buf.reserve(additional + FRAME_TRAILER_LEN);
        }
    }

    /// Hand the staged bytes to the sink once a stage is full.
    #[inline]
    fn staged(&mut self) {
        if self.buf.len() >= self.drain_at {
            self.drain();
        }
    }

    /// Hand every staged byte to the sink; the file sink hashes the
    /// payload among them.
    fn drain(&mut self) {
        let payload = &self.buf[self.head..];
        self.drained += payload.len() as u64;
        if let Sink::File(file) = &mut self.sink {
            self.hash = fnv1a_64_fold(self.hash, payload);
            if self.error.is_none() {
                if let Err(e) = file.write_all(&self.buf) {
                    self.error = Some(e);
                }
            }
        }
        self.buf.clear();
        self.head = 0;
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.put_fixed(&[v]);
    }

    /// Append a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.put_fixed(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.put_fixed(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.put_fixed(&v.to_le_bytes());
    }

    /// Append a `usize` as a u64 (snapshots are architecture-portable).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append at most 8 bytes: they may cross the stage's end, by that much.
    #[inline]
    fn put_fixed(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
        self.staged();
    }

    /// Append raw bytes (caller encodes the length), a stage at a time.
    pub fn put_bytes(&mut self, mut b: &[u8]) {
        while !b.is_empty() {
            let (now, rest) = b.split_at(b.len().min(self.drain_at - self.buf.len()));
            self.buf.extend_from_slice(now);
            self.staged();
            b = rest;
        }
    }

    /// Append a length-prefixed short string (u16 length).
    pub fn put_str(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize, "snapshot string too long");
        self.put_u16(s.len() as u16);
        self.put_bytes(s.as_bytes());
    }

    /// Finish an in-memory payload, yielding its raw bytes.
    pub fn into_payload(mut self) -> Vec<u8> {
        debug_assert!(matches!(self.sink, Sink::Vec), "not an in-memory writer");
        self.buf.drain(..self.head);
        self.buf
    }

    /// Finish as a complete in-memory [`Snapshot`]: a
    /// [`SnapWriter::framed`] writer patches the payload length into the
    /// header it wrote and appends the checksum, so the payload is never
    /// copied; a bare one is framed by [`Snapshot::from_payload`].
    pub fn into_snapshot(self) -> Snapshot {
        debug_assert!(matches!(self.sink, Sink::Vec), "not an in-memory writer");
        if self.head == 0 {
            return Snapshot::from_payload(self.buf);
        }
        let mut bytes = self.buf;
        let payload_len = bytes.len() - FRAME_HEADER_LEN;
        bytes[8..16].copy_from_slice(&(payload_len as u64).to_le_bytes());
        let checksum = fnv1a_64(&bytes[FRAME_HEADER_LEN..]);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        Snapshot {
            bytes,
            payload_at: FRAME_HEADER_LEN,
            payload_len,
        }
    }

    /// Finish a framed file writer: the last stage, the checksum, and the
    /// payload length patched into the header. Returns the file and the
    /// frame's size in bytes.
    fn finish_file(mut self) -> Result<(fs::File, u64), SnapshotError> {
        self.drain();
        let (payload_len, checksum) = (self.drained, self.hash);
        if let Some(e) = self.error {
            return Err(e.into());
        }
        let Sink::File(mut file) = self.sink else {
            unreachable!("finish_file on a writer that is not a file writer");
        };
        file.write_all(&checksum.to_le_bytes())?;
        file.seek(SeekFrom::Start(8))?;
        file.write_all(&payload_len.to_le_bytes())?;
        Ok((
            file,
            (FRAME_HEADER_LEN + FRAME_TRAILER_LEN) as u64 + payload_len,
        ))
    }

    /// Payload bytes written so far.
    pub fn len(&self) -> usize {
        self.drained as usize + self.buf.len() - self.head
    }

    /// True when no payload has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Bytes a file [`SnapReader`] asks the file for at a time, and so what a
/// restore holds beside the tables it fills: the frame check hashes the
/// payload through this window, and each reader decodes through its own.
const READ_WINDOW: usize = 16 * 1024;

/// Where a [`SnapReader`]'s bytes come from.
#[derive(Debug)]
enum Source<'a> {
    /// All in memory.
    Slice(&'a [u8]),
    /// Read positionally from a file, into a window that holds the bytes
    /// being decoded and at most [`READ_WINDOW`] behind them.
    File {
        file: Arc<fs::File>,
        window: Vec<u8>,
    },
}

/// Little-endian reader of a snapshot payload, or of one range of it, used
/// by every deserializer. One reader, two sources: a slice
/// ([`SnapReader::new`]) and a snapshot file ([`SnapReader::open`]), which
/// it reads a small window at a time, so a restore never holds the file.
/// Every getter fails loudly on truncation instead of panicking, so a
/// corrupt payload surfaces as [`SnapshotError::Corrupt`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    src: Source<'a>,
    /// Consumed bytes of the chunk in hand: the slice, or the window.
    pos: usize,
    /// File offset of the first byte behind the window.
    next: u64,
    /// Bytes of the range behind the chunk in hand, not yet read (none
    /// for a slice).
    unread: u64,
    /// Bytes of the range, consumed or not.
    len: u64,
}

impl<'a> SnapReader<'a> {
    /// Read from the start of `payload`.
    pub fn new(payload: &'a [u8]) -> SnapReader<'a> {
        SnapReader {
            src: Source::Slice(payload),
            pos: 0,
            next: 0,
            unread: 0,
            len: payload.len() as u64,
        }
    }

    /// Read the `len` bytes of `file` from offset `at`.
    fn file(file: Arc<fs::File>, at: u64, len: u64) -> SnapReader<'static> {
        let window =
            Vec::with_capacity(READ_WINDOW.min(usize::try_from(len).unwrap_or(usize::MAX)));
        SnapReader {
            src: Source::File { file, window },
            pos: 0,
            next: at,
            unread: len,
            len,
        }
    }

    /// Open the snapshot file at `path` and check its frame — magic,
    /// version, length and the fnv1a-64 checksum of the payload — in one
    /// pass through the reader's window; then read the payload from its
    /// start. A torn, truncated or altered file is refused here, before
    /// any state is decoded from it; a stale `.tmp` beside it is ignored.
    pub fn open(path: &Path) -> Result<SnapReader<'static>, SnapshotError> {
        let file = fs::File::open(path)?;
        let size = file.metadata()?.len();
        let mut r = SnapReader::file(Arc::new(file), 0, size);
        let payload_len = check_frame(&mut r)?;
        Ok(SnapReader::file(
            r.into_file(),
            FRAME_HEADER_LEN as u64,
            payload_len,
        ))
    }

    /// The file a file reader reads.
    fn into_file(self) -> Arc<fs::File> {
        match self.src {
            Source::File { file, .. } => file,
            Source::Slice(_) => unreachable!("into_file on a slice reader"),
        }
    }

    /// The chunk in hand: the whole slice, or the window.
    #[inline]
    fn chunk(&self) -> &[u8] {
        match &self.src {
            Source::Slice(s) => s,
            Source::File { window, .. } => window,
        }
    }

    fn truncated(&self, n: usize) -> SnapshotError {
        SnapshotError::Corrupt(format!(
            "truncated snapshot payload: needed {n} bytes at offset {}, {} remain",
            self.len - self.remaining() as u64,
            self.remaining()
        ))
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        if n > self.chunk().len() - self.pos {
            self.fill(n)?;
        }
        let at = self.pos;
        self.pos += n;
        Ok(&self.chunk()[at..at + n])
    }

    /// Make the window hold `n` unconsumed bytes, reading as many as fit
    /// behind the ones it has; fails when the range holds fewer.
    #[cold]
    fn fill(&mut self, n: usize) -> Result<(), SnapshotError> {
        let have = self.chunk().len() - self.pos;
        if (n - have) as u64 > self.unread {
            return Err(self.truncated(n));
        }
        let Source::File { file, window } = &mut self.src else {
            return Err(self.truncated(n));
        };
        window.drain(..self.pos);
        self.pos = 0;
        let more =
            (n.max(READ_WINDOW) - have).min(usize::try_from(self.unread).unwrap_or(usize::MAX));
        window.resize(have + more, 0);
        read_exact_at(file, &mut window[have..], self.next).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                SnapshotError::Corrupt("snapshot file shrank after its frame was checked".into())
            } else {
                SnapshotError::Io(e)
            }
        })?;
        self.next += more as u64;
        self.unread -= more as u64;
        Ok(())
    }

    /// Read `N` bytes.
    #[inline]
    fn get_array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn get_u16(&mut self) -> Result<u16, SnapshotError> {
        self.get_array().map(u16::from_le_bytes)
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        self.get_array().map(u32::from_le_bytes)
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        self.get_array().map(u64::from_le_bytes)
    }

    /// Read a u64 and narrow it to `usize`, rejecting values this
    /// architecture cannot index.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::Corrupt(format!("snapshot count {v} exceeds usize")))
    }

    /// Read the next slot index of a `what` table section: inside the
    /// table's `size` slots and above `prev`, the index before it. Writers
    /// walk a table in ascending slot order, so an index that repeats or
    /// steps back — and with it any count the table cannot hold — is no
    /// checkpoint of ours.
    pub(crate) fn get_slot(
        &mut self,
        what: &str,
        size: usize,
        prev: &mut Option<usize>,
    ) -> Result<usize, SnapshotError> {
        let idx = self.get_usize()?;
        if idx >= size || prev.is_some_and(|p| idx <= p) {
            return Err(SnapshotError::Corrupt(format!(
                "{what} index {idx} is outside the {size} slots or does not follow {prev:?}"
            )));
        }
        *prev = Some(idx);
        Ok(idx)
    }

    /// Read `n` raw bytes, lent until the next read.
    pub fn get_bytes(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        self.take(n)
    }

    /// Read a length-prefixed short string written by
    /// [`SnapWriter::put_str`], lent until the next read.
    pub fn get_str(&mut self) -> Result<&str, SnapshotError> {
        let len = usize::from(self.get_u16()?);
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| SnapshotError::Corrupt("snapshot string is not UTF-8".into()))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.chunk().len() - self.pos + usize::try_from(self.unread).unwrap_or(usize::MAX)
    }

    /// Hand over the next `len` bytes as a [`Section`] another thread
    /// decodes with a reader of its own: of a file, where they lie in it;
    /// of a slice, a copy.
    pub(crate) fn section(&mut self, len: usize) -> Result<Section, SnapshotError> {
        if len > self.remaining() {
            return Err(self.truncated(len));
        }
        let Source::File { file, window } = &mut self.src else {
            return Ok(Section::Bytes(self.take(len)?.to_vec()));
        };
        let have = window.len() - self.pos;
        let at = self.next - have as u64;
        if len <= have {
            self.pos += len;
        } else {
            let skip = (len - have) as u64;
            window.clear();
            self.pos = 0;
            self.next += skip;
            self.unread -= skip;
        }
        Ok(Section::File {
            file: Arc::clone(file),
            at,
            len: len as u64,
        })
    }
}

/// A range of a payload that another thread decodes: what
/// [`SnapReader::section`] hands over.
#[derive(Debug)]
pub(crate) enum Section {
    /// Copied out of an in-memory payload.
    Bytes(Vec<u8>),
    /// `len` bytes at offset `at` of a checked snapshot file.
    File {
        file: Arc<fs::File>,
        at: u64,
        len: u64,
    },
}

impl Section {
    /// A reader of the section's bytes, from their start.
    pub(crate) fn reader(&self) -> SnapReader<'_> {
        match self {
            Section::Bytes(bytes) => SnapReader::new(bytes),
            Section::File { file, at, len } => SnapReader::file(Arc::clone(file), *at, *len),
        }
    }
}

/// Fill `buf` from `file` at offset `at`, leaving the file's own position
/// alone, so that readers of one file on several threads never meet.
#[cfg(unix)]
fn read_exact_at(file: &fs::File, buf: &mut [u8], at: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, at)
}

/// Fill `buf` from `file` at offset `at`. Without positional reads the
/// file's position moves, so readers of one file must take turns, which
/// a restore does: the feeder waits for each shard's answer.
#[cfg(not(unix))]
fn read_exact_at(mut file: &fs::File, buf: &mut [u8], at: u64) -> io::Result<()> {
    use std::io::Read as _;
    file.seek(SeekFrom::Start(at))?;
    file.read_exact(buf)
}

/// Check the frame `r` reads, whole: magic, version, a payload length
/// that is what the frame holds, and the payload's fnv1a-64 against the
/// trailer, hashed a window at a time. Returns the payload's length.
fn check_frame(r: &mut SnapReader<'_>) -> Result<u64, SnapshotError> {
    let size = r.remaining();
    if size < FRAME_HEADER_LEN + FRAME_TRAILER_LEN {
        return Err(SnapshotError::Corrupt(format!(
            "{size} bytes is shorter than the minimal frame"
        )));
    }
    if r.get_array::<4>()? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::Corrupt("bad magic (not a snapshot)".into()));
    }
    let version = r.get_u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::Mismatch(format!(
            "snapshot version {version}, this build reads {SNAPSHOT_VERSION}"
        )));
    }
    let len = r.get_u64()?;
    let expected_total = len
        .checked_add((FRAME_HEADER_LEN + FRAME_TRAILER_LEN) as u64)
        .ok_or_else(|| SnapshotError::Corrupt("payload length overflows".into()))?;
    if size as u64 != expected_total {
        return Err(SnapshotError::Corrupt(format!(
            "frame is {size} bytes, header promises {expected_total} (truncated write?)"
        )));
    }
    let mut hash = FNV1A_64_OFFSET;
    while r.remaining() > FRAME_TRAILER_LEN {
        let n = (r.remaining() - FRAME_TRAILER_LEN).min(READ_WINDOW);
        hash = fnv1a_64_fold(hash, r.take(n)?);
    }
    let stored = r.get_u64()?;
    if stored != hash {
        return Err(SnapshotError::Corrupt(format!(
            "checksum mismatch: stored {stored:#018x}, computed {hash:#018x}"
        )));
    }
    Ok(len)
}

/// A complete framed snapshot: magic, version, length, payload, checksum.
///
/// Constructing one via [`Snapshot::from_bytes`] / [`Snapshot::from_file`]
/// verifies the frame end to end, so holding a `Snapshot` is proof the
/// payload arrived intact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
    payload_at: usize,
    payload_len: usize,
}

impl Snapshot {
    /// Frame a finished `payload` into a snapshot by copying it behind a
    /// header. Serializers write into [`SnapWriter::framed`] instead and
    /// skip the copy.
    pub fn from_payload(payload: Vec<u8>) -> Snapshot {
        let mut w = SnapWriter::framed();
        w.reserve(payload.len());
        w.put_bytes(&payload);
        w.into_snapshot()
    }

    /// Parse and verify a framed snapshot.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot, SnapshotError> {
        let len = check_frame(&mut SnapReader::new(&bytes))?;
        Ok(Snapshot {
            payload_len: len as usize,
            payload_at: FRAME_HEADER_LEN,
            bytes,
        })
    }

    /// The verified payload.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[self.payload_at..self.payload_at + self.payload_len]
    }

    /// The full frame (what [`Snapshot::to_file`] persists).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume into the full frame bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Persist atomically: write `<path>.tmp`, fsync, rename over `path`.
    /// A crash at any point leaves either the previous snapshot or this
    /// one at `path` — never a torn file.
    pub fn to_file(&self, path: &Path) -> Result<(), SnapshotError> {
        publish(path, |mut file| {
            file.write_all(&self.bytes)?;
            Ok((file, ()))
        })
    }

    /// Load a snapshot file into memory: [`SnapReader::open`] checks it,
    /// and its payload is copied into a frame. A restore reads the file
    /// through the reader instead
    /// ([`RttMonitor::restore_file`](crate::RttMonitor::restore_file)).
    pub fn from_file(path: &Path) -> Result<Snapshot, SnapshotError> {
        let mut r = SnapReader::open(path)?;
        let mut w = SnapWriter::framed();
        w.reserve(r.remaining());
        while r.remaining() > 0 {
            let n = r.remaining().min(READ_WINDOW);
            w.put_bytes(r.get_bytes(n)?);
        }
        Ok(w.into_snapshot())
    }
}

/// Stream a frame into `path` the way [`Snapshot::to_file`] publishes
/// one: `fill` writes the payload into a framed writer over `<path>.tmp`,
/// whose bytes go to the file a stage at a time, hashed as they pass.
/// Returns the frame's size. The file is byte-identical to
/// `to_file` of the [`SnapWriter::framed`] snapshot `fill` would write.
pub(crate) fn write_file(
    path: &Path,
    fill: impl FnOnce(SnapWriter) -> Result<SnapWriter, SnapshotError>,
) -> Result<u64, SnapshotError> {
    publish(path, |file| {
        fill(SnapWriter::with_sink(Sink::File(file), true))?.finish_file()
    })
}

/// Publish `path` atomically: `write` fills a fresh `<path>.tmp` and hands
/// the file back, which is then fsynced and renamed over `path`. On any
/// error the temporary file is removed and whatever was at `path` stays.
fn publish<T>(
    path: &Path,
    write: impl FnOnce(fs::File) -> Result<(fs::File, T), SnapshotError>,
) -> Result<T, SnapshotError> {
    let tmp = tmp_path(path);
    let published = fs::File::create(&tmp)
        .map_err(SnapshotError::from)
        .and_then(|file| {
            let (file, out) = write(file)?;
            file.sync_all()?;
            drop(file);
            fs::rename(&tmp, path)?;
            Ok(out)
        });
    if published.is_err() {
        let _ = fs::remove_file(&tmp);
        return published;
    }
    // Publish the rename itself (best-effort: directory fsync is not
    // available on every platform, and the rename already ordered the
    // data).
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    published
}

/// The sibling temporary path a snapshot file is staged through (same
/// directory, so the final rename is atomic).
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_payload() -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u8(7);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(0xDEAD_BEEF_CAFE_F00D);
        w.put_usize(42);
        w.put_str("dart");
        w.put_bytes(&[1, 2, 3]);
        w.into_payload()
    }

    #[test]
    fn writer_reader_round_trip() {
        let payload = sample_payload();
        let mut r = SnapReader::new(&payload);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(r.get_usize().unwrap(), 42);
        assert_eq!(r.get_str().unwrap(), "dart");
        assert_eq!(r.get_bytes(3).unwrap(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_read_is_an_error_not_a_panic() {
        let payload = vec![1u8, 2];
        let mut r = SnapReader::new(&payload);
        assert!(matches!(r.get_u64(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn frame_round_trips() {
        let snap = Snapshot::from_payload(sample_payload());
        let back = Snapshot::from_bytes(snap.as_bytes().to_vec()).unwrap();
        assert_eq!(back.payload(), sample_payload().as_slice());
        assert_eq!(back, snap);
    }

    /// The frame as the module docs specify it, assembled by hand: what
    /// every build since format version 1 has written.
    fn frame_by_hand(payload: &[u8]) -> Vec<u8> {
        let mut bytes = b"DSNP".to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&fnv1a_64(payload).to_le_bytes());
        bytes
    }

    #[test]
    fn in_place_framing_is_the_version_1_frame() {
        for payload in [Vec::new(), sample_payload(), vec![0xA5; 70_000]] {
            let mut framed = SnapWriter::framed();
            framed.reserve(payload.len());
            framed.put_bytes(&payload);
            assert_eq!(framed.len(), payload.len());
            let in_place = framed.into_snapshot();
            assert_eq!(in_place.as_bytes(), frame_by_hand(&payload));
            assert_eq!(in_place.payload(), payload.as_slice());
            // The copying path and a bare writer frame identically.
            assert_eq!(Snapshot::from_payload(payload.clone()), in_place);
            let mut bare = SnapWriter::new();
            bare.put_bytes(&payload);
            assert_eq!(bare.into_snapshot(), in_place);
            // A frame written before in-place framing existed still loads.
            let old = Snapshot::from_bytes(frame_by_hand(&payload)).unwrap();
            assert_eq!(old, in_place);
        }
    }

    /// Scratch directory unique to this process and `test`.
    fn scratch_dir(test: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dart-snapshot-test-{}-{:x}",
            std::process::id(),
            fnv1a_64(test.as_bytes())
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Write `payload` through a writer `reps` times over, in puts of every
    /// width, so stages are crossed mid-put.
    fn write_mixed(w: &mut SnapWriter, payload: &[u8], reps: usize) {
        for i in 0..reps {
            w.put_u8(i as u8);
            w.put_u16(i as u16);
            w.put_u32(i as u32);
            w.put_u64(i as u64);
            w.put_str("dart");
            w.put_bytes(payload);
        }
    }

    #[test]
    fn every_sink_writes_the_same_bytes() {
        let dir = scratch_dir("every_sink_writes_the_same_bytes");
        let path = dir.join("state.dsnp");
        // Empty, under one stage, and several stages with a put wider than
        // a stage.
        for (payload, reps) in [
            (Vec::new(), 0),
            (sample_payload(), 3),
            (vec![0xA5; 3 * STAGE_LEN + 5], 4),
            (sample_payload(), 20_000),
        ] {
            let mut kept = SnapWriter::framed();
            write_mixed(&mut kept, &payload, reps);
            let kept = kept.into_snapshot();
            let mut counted = SnapWriter::counter();
            write_mixed(&mut counted, &payload, reps);
            assert_eq!(counted.len(), kept.payload().len());
            let written = write_file(&path, |mut w| {
                write_mixed(&mut w, &payload, reps);
                assert_eq!(w.len(), kept.payload().len());
                Ok(w)
            })
            .unwrap();
            assert_eq!(written, kept.as_bytes().len() as u64);
            assert_eq!(fs::read(&path).unwrap(), kept.as_bytes());
            assert_eq!(Snapshot::from_file(&path).unwrap(), kept);
            assert!(!tmp_path(&path).exists());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_write_removes_its_temporary_file_and_keeps_the_last() {
        let dir = scratch_dir("a_failed_write_removes_its_temporary_file");
        let path = dir.join("state.dsnp");
        let snap = Snapshot::from_payload(sample_payload());
        snap.to_file(&path).unwrap();
        // The serializer fails half-way.
        let failed = write_file(&path, |mut w| {
            w.put_bytes(&[7; 2 * STAGE_LEN]);
            Err(SnapshotError::Unsupported("a shard went away".into()))
        });
        assert!(matches!(failed, Err(SnapshotError::Unsupported(_))));
        assert!(!tmp_path(&path).exists());
        assert_eq!(Snapshot::from_file(&path).unwrap(), snap);
        // The rename fails: the destination is a directory.
        let taken = dir.join("taken");
        fs::create_dir_all(taken.join("inside")).unwrap();
        assert!(matches!(write_file(&taken, Ok), Err(SnapshotError::Io(_))));
        assert!(matches!(snap.to_file(&taken), Err(SnapshotError::Io(_))));
        assert!(!tmp_path(&taken).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_framed_writer_still_yields_its_bare_payload() {
        let mut framed = SnapWriter::framed();
        assert!(framed.is_empty());
        framed.put_str("dart");
        let mut bare = SnapWriter::new();
        bare.put_str("dart");
        assert_eq!(framed.into_payload(), bare.into_payload());
    }

    #[test]
    fn bit_flip_is_detected() {
        let snap = Snapshot::from_payload(sample_payload());
        let mut bytes = snap.into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            Snapshot::from_bytes(bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_frame_is_detected() {
        let snap = Snapshot::from_payload(sample_payload());
        let mut bytes = snap.into_bytes();
        bytes.truncate(bytes.len() - 5);
        assert!(matches!(
            Snapshot::from_bytes(bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_refused() {
        let snap = Snapshot::from_payload(vec![0u8; 16]);
        let mut bad_magic = snap.as_bytes().to_vec();
        bad_magic[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(bad_magic),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut bad_version = snap.into_bytes();
        bad_version[4] = 99;
        assert!(matches!(
            Snapshot::from_bytes(bad_version),
            Err(SnapshotError::Mismatch(_))
        ));
    }

    #[test]
    fn empty_payload_frames_fine() {
        let snap = Snapshot::from_payload(Vec::new());
        let back = Snapshot::from_bytes(snap.into_bytes()).unwrap();
        assert!(back.payload().is_empty());
    }

    #[test]
    fn atomic_file_round_trip() {
        let dir = scratch_dir("atomic_file_round_trip");
        let path = dir.join("state.dsnp");
        let snap = Snapshot::from_payload(sample_payload());
        snap.to_file(&path).unwrap();
        // No staging file left behind.
        assert!(!tmp_path(&path).exists());
        let back = Snapshot::from_file(&path).unwrap();
        assert_eq!(back.payload(), snap.payload());
        // Overwrite publishes the new state.
        let snap2 = Snapshot::from_payload(vec![9u8; 64]);
        snap2.to_file(&path).unwrap();
        assert_eq!(
            Snapshot::from_file(&path).unwrap().payload(),
            &[9u8; 64][..]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Read back what [`write_mixed`] wrote, `reps` times over.
    fn read_mixed(r: &mut SnapReader<'_>, payload: &[u8], reps: usize) {
        for i in 0..reps {
            assert_eq!(r.get_u8().unwrap(), i as u8);
            assert_eq!(r.get_u16().unwrap(), i as u16);
            assert_eq!(r.get_u32().unwrap(), i as u32);
            assert_eq!(r.get_u64().unwrap(), i as u64);
            assert_eq!(r.get_str().unwrap(), "dart");
            assert_eq!(r.get_bytes(payload.len()).unwrap(), payload);
        }
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.get_u8(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn a_file_reader_reads_what_a_slice_reader_does() {
        let dir = scratch_dir("a_file_reader_reads_what_a_slice_reader_does");
        let path = dir.join("state.dsnp");
        // Gets that cross the window's end, and one wider than the window.
        for (payload, reps) in [
            (Vec::new(), 0),
            (sample_payload(), 3),
            (sample_payload(), 5_000),
            (vec![0xA5; 3 * READ_WINDOW + 5], 3),
        ] {
            let written = write_file(&path, |mut w| {
                write_mixed(&mut w, &payload, reps);
                Ok(w)
            })
            .unwrap();
            let mut r = SnapReader::open(&path).unwrap();
            assert_eq!(r.remaining() as u64, written - 24);
            read_mixed(&mut r, &payload, reps);
            let kept = Snapshot::from_file(&path).unwrap();
            read_mixed(&mut SnapReader::new(kept.payload()), &payload, reps);
            // A section is the same bytes, read by a reader of its own,
            // wherever it starts and however long it is.
            for start in [0, 1, READ_WINDOW - 3, READ_WINDOW + 7] {
                let len = kept
                    .payload()
                    .len()
                    .saturating_sub(start)
                    .min(2 * READ_WINDOW + 1);
                if start > kept.payload().len() {
                    continue;
                }
                let mut file = SnapReader::open(&path).unwrap();
                let mut slice = SnapReader::new(kept.payload());
                for r in [&mut file, &mut slice] {
                    r.get_bytes(start).unwrap();
                    let section = r.section(len).unwrap();
                    let mut inner = section.reader();
                    assert_eq!(inner.remaining(), len);
                    assert_eq!(
                        inner.get_bytes(len).unwrap(),
                        &kept.payload()[start..start + len]
                    );
                    assert_eq!(r.remaining(), kept.payload().len() - start - len);
                    assert!(r.section(r.remaining() + 1).is_err());
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_damaged_file_is_refused_by_open() {
        let dir = scratch_dir("a_damaged_file_is_refused_by_open");
        let path = dir.join("state.dsnp");
        let honest = Snapshot::from_payload(vec![0x5A; 2 * READ_WINDOW + 9]);
        let bytes = honest.as_bytes();
        let n = bytes.len();
        let mut cases = vec![bytes[..n - 1].to_vec(), [bytes, &[0]].concat()];
        for cut in [0, 3, 16, 23, n / 2] {
            cases.push(bytes[..cut].to_vec());
        }
        for at in [0, 4, 8, 16, n / 2, n - 8, n - 1] {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 1;
            cases.push(flipped);
        }
        for damaged in cases {
            fs::write(&path, &damaged).unwrap();
            let opened = SnapReader::open(&path);
            assert!(opened.is_err(), "{} bytes opened", damaged.len());
            assert_eq!(
                format!("{:?}", Snapshot::from_bytes(damaged).err()),
                format!("{:?}", opened.err()),
                "the file and the slice are refused alike"
            );
        }
        assert!(matches!(
            SnapReader::open(&dir.join("absent.dsnp")),
            Err(SnapshotError::Io(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tmp_file_never_parses() {
        // Simulate a crash mid-write: a prefix of the frame on disk.
        let snap = Snapshot::from_payload(sample_payload());
        for cut in [0, 3, 10, 20] {
            let torn = snap.as_bytes()[..cut.min(snap.as_bytes().len())].to_vec();
            assert!(Snapshot::from_bytes(torn).is_err(), "cut at {cut}");
        }
    }
}
