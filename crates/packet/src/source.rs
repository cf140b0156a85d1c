//! Streaming packet sources: feed a monitor without materializing a trace.
//!
//! A [`PacketSource`] hands out [`PacketMeta`] a block at a time in capture
//! order, so engines can process traces far larger than RAM. Sources exist
//! for every place packets come from:
//!
//! * [`SliceSource`] — an in-memory trace (tests, the bench harness), lent
//!   out as borrowed subslices;
//! * [`TraceReader`](crate::trace::TraceReader) — the native on-disk
//!   format, decoded a block of buffered records at a time;
//! * [`PcapSource`] — a pcap capture, parsed and direction-classified on
//!   the fly out of the reader's buffer, skipping non-TCP frames like the
//!   hardware parser would;
//! * [`Follow`] — a [`Read`] adapter that turns end-of-file into "wait for
//!   more", so the trace/pcap readers can tail a growing capture file or a
//!   fifo that a producer is still writing (the daemon's live ingest);
//! * [`CycleSource`] — an owned trace replayed in a loop with timestamps
//!   rebased each pass, so a finite capture drives an indefinitely long
//!   run with ever-advancing time (soak tests, epoch-rotation exercise).
//!
//! Every source writes one pull, [`PacketSource::next_chunk`]: fill a
//! reusable buffer with the next block. [`PacketSource::next_block`] lends
//! that block out as a slice — the driver loop's pull, which the zero-copy
//! sources override to skip the buffer — and [`PacketSource::next_packet`]
//! is the one-packet block, for tests and small tools.

use crate::error::PacketError;
use crate::meta::{Nanos, PacketMeta};
use crate::parse::{DirectionClassifier, LinkLayer};
use crate::pcap::PcapReader;
use std::io::Read;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A stream of packets in capture order, pulled a block at a time.
pub trait PacketSource {
    /// Fill `buf` (cleared first) with up to `max` packets; returns how
    /// many were read. Chunked consumers reuse one allocation instead of
    /// collecting the whole trace. The contract:
    ///
    /// * a block may be short — a live source hands over what it has
    ///   decoded instead of waiting for `max`, so it never sleeps on its
    ///   input while holding packets;
    /// * zero means end of stream (and stays so on every later call),
    ///   never "nothing yet";
    /// * errors surface at block boundaries: the packets decoded before a
    ///   bad record are returned first and the error by the next call, so
    ///   `Err` never discards packets.
    fn next_chunk(&mut self, buf: &mut Vec<PacketMeta>, max: usize) -> Result<usize, PacketError>;

    /// The next block of up to `max` packets as a slice; an empty slice
    /// means end of stream. This is the batch drivers' pull point: the
    /// default buffers through `next_chunk`, while sources that already
    /// hold their packets in memory, like [`SliceSource`], override it to
    /// hand out a borrowed subslice with no copy at all.
    fn next_block<'a>(
        &'a mut self,
        buf: &'a mut Vec<PacketMeta>,
        max: usize,
    ) -> Result<&'a [PacketMeta], PacketError> {
        let n = self.next_chunk(buf, max)?;
        Ok(&buf[..n])
    }

    /// The next packet, `Ok(None)` at (and after) end of stream: the
    /// one-packet block, so it mixes freely with the block pulls.
    fn next_packet(&mut self) -> Result<Option<PacketMeta>, PacketError> {
        Ok(self.next_block(&mut Vec::new(), 1)?.first().copied())
    }
}

/// Boxed sources are sources — this is what lets combinators like
/// `Reconnecting` wrap a `Box<dyn PacketSource + Send>` chosen at runtime
/// by file type. Both pulls forward, so a concrete source's no-copy
/// [`PacketSource::next_block`] survives the indirection.
impl<P: PacketSource + ?Sized> PacketSource for Box<P> {
    fn next_chunk(&mut self, buf: &mut Vec<PacketMeta>, max: usize) -> Result<usize, PacketError> {
        (**self).next_chunk(buf, max)
    }

    fn next_block<'a>(
        &'a mut self,
        buf: &'a mut Vec<PacketMeta>,
        max: usize,
    ) -> Result<&'a [PacketMeta], PacketError> {
        (**self).next_block(buf, max)
    }
}

/// A source over a borrowed, fully materialized trace.
#[derive(Clone, Debug)]
pub struct SliceSource<'a> {
    packets: &'a [PacketMeta],
    next: usize,
}

impl<'a> SliceSource<'a> {
    /// Stream `packets` in order.
    pub fn new(packets: &'a [PacketMeta]) -> Self {
        SliceSource { packets, next: 0 }
    }

    /// Packets not yet yielded.
    pub fn remaining(&self) -> usize {
        self.packets.len() - self.next
    }

    /// Step past the next block of up to `max` packets and return it.
    fn take(&mut self, max: usize) -> &'a [PacketMeta] {
        let start = self.next;
        self.next += max.min(self.remaining());
        &self.packets[start..self.next]
    }
}

impl PacketSource for SliceSource<'_> {
    fn next_chunk(&mut self, buf: &mut Vec<PacketMeta>, max: usize) -> Result<usize, PacketError> {
        buf.clear();
        buf.extend_from_slice(self.take(max));
        Ok(buf.len())
    }

    /// Zero-copy override: the block is a subslice of the backing trace;
    /// `buf` is untouched.
    fn next_block<'a>(
        &'a mut self,
        _buf: &'a mut Vec<PacketMeta>,
        max: usize,
    ) -> Result<&'a [PacketMeta], PacketError> {
        Ok(self.take(max))
    }
}

impl<'a> From<&'a [PacketMeta]> for SliceSource<'a> {
    fn from(packets: &'a [PacketMeta]) -> Self {
        SliceSource::new(packets)
    }
}

impl<'a> From<&'a Vec<PacketMeta>> for SliceSource<'a> {
    fn from(packets: &'a Vec<PacketMeta>) -> Self {
        SliceSource::new(packets)
    }
}

/// A streaming pcap source: each record is parsed and direction-classified
/// where it lies in the reader's window, by the parser the capture's link
/// type selects. Frames the monitor would not see (non-TCP, fragments,
/// truncated, malformed) are skipped and counted, as the hardware parser
/// would pass them through; only a damaged *record* or the input itself is
/// an error. This is the one pcap decode loop: `dart_sim`'s `load_pcap` is
/// this source collected.
pub struct PcapSource<R: Read, C: DirectionClassifier> {
    reader: PcapReader<R>,
    link: LinkLayer,
    classifier: C,
    skipped: u64,
    /// An error met mid-block, held back until the block before it has
    /// been handed over.
    deferred: Option<PacketError>,
}

impl<R: Read, C: DirectionClassifier> PcapSource<R, C> {
    /// Open a pcap stream; fails on a bad global header or a link type
    /// other than Ethernet and raw IP.
    pub fn new(input: R, classifier: C) -> Result<Self, PacketError> {
        let reader = PcapReader::new(input)?;
        Ok(PcapSource {
            link: LinkLayer::from_linktype(reader.link)?,
            reader,
            classifier,
            skipped: 0,
            deferred: None,
        })
    }

    /// Frames skipped so far as unparseable/unmonitored.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }
}

/// Decodes the buffered records until `max` packets are taken or they run
/// out; an error behind decoded packets is deferred to the next call.
impl<R: Read, C: DirectionClassifier> PacketSource for PcapSource<R, C> {
    fn next_chunk(&mut self, buf: &mut Vec<PacketMeta>, max: usize) -> Result<usize, PacketError> {
        buf.clear();
        if let Some(e) = self.deferred.take() {
            return Err(e);
        }
        while buf.len() < max {
            let walked = self.reader.drain_buffered(|frame| {
                match self.link.parse(frame.ts, frame.data, &self.classifier) {
                    Ok(meta) => buf.push(meta),
                    Err(_) => self.skipped += 1,
                }
                buf.len() < max
            });
            match walked {
                Ok(()) => {
                    // Only an empty block may wait on the input.
                    if !buf.is_empty() || !self.reader.fill()? {
                        break;
                    }
                }
                Err(e) if buf.is_empty() => return Err(e),
                Err(e) => {
                    self.deferred = Some(e);
                    break;
                }
            }
        }
        Ok(buf.len())
    }
}

/// The cap on [`Follow`]'s dry-read sleep (or its base interval, if that
/// is longer).
const MAX_POLL: Duration = Duration::from_millis(640);

/// A [`Read`] adapter that tails a growing input: where the inner reader
/// reports end-of-file, `Follow` sleeps briefly and retries, so a
/// `TraceReader<Follow<File>>` or `PcapSource<Follow<File>, _>` keeps
/// yielding packets as a producer appends to the file (or writes into a
/// fifo). End-of-file becomes real — a final `Ok(0)` — only once the
/// shared stop flag is set.
///
/// The poll sleep backs off: the first dry read waits the base interval
/// (10 ms by default), each consecutive dry read doubles the wait up to a
/// 640 ms cap, and any data resets the ladder. A daemon tailing an idle
/// capture therefore wakes O(log idle-time + idle-time/cap) times instead
/// of once per base interval, while a busy stream still sees the base
/// latency.
///
/// The readers ask this adapter for more only when they hold no complete
/// record, and take whatever one `read` returns: a busy feed is decoded a
/// block per `read`, and the dry-read sleep never delays packets already
/// decoded. A record split mid-write stays in the reader's buffer until a
/// later `read` completes it, so a torn record is never surfaced while the
/// producer is still writing — only the final end-of-file (stop flag set)
/// can strand one, and the reader reports that once.
pub struct Follow<R> {
    inner: R,
    stop: Arc<AtomicBool>,
    poll: Duration,
    /// The next dry-read sleep (reset to `poll` whenever data arrives).
    current: Duration,
    /// Dry-read sleeps performed, shared so tests (and gauges) can
    /// observe poll pressure after the adapter moves into a reader.
    polls: Arc<AtomicU64>,
    sleeper: Box<dyn FnMut(Duration) + Send>,
}

impl<R: Read> Follow<R> {
    /// Tail `inner`, sleeping 10 ms at end-of-data (doubling to a 640 ms
    /// cap while the input stays dry), until `stop` is set (at which
    /// point end-of-data becomes end-of-file).
    pub fn new(inner: R, stop: Arc<AtomicBool>) -> Follow<R> {
        let poll = Duration::from_millis(10);
        Follow {
            inner,
            stop,
            poll,
            current: poll,
            polls: Arc::new(AtomicU64::new(0)),
            sleeper: Box::new(std::thread::sleep),
        }
    }

    /// Override the base end-of-data poll interval (the backoff ladder
    /// starts here after every successful read).
    pub fn with_poll_interval(mut self, poll: Duration) -> Follow<R> {
        self.poll = poll;
        self.current = poll;
        self
    }

    /// Replace the sleep implementation (virtual time in tests).
    pub fn with_sleeper(mut self, sleeper: Box<dyn FnMut(Duration) + Send>) -> Follow<R> {
        self.sleeper = sleeper;
        self
    }

    /// A handle counting dry-read sleeps, usable after the adapter moves
    /// into a reader.
    pub fn poll_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.polls)
    }
}

impl<R: Read> Read for Follow<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        loop {
            match self.inner.read(buf) {
                Ok(0) => {
                    if self.stop.load(Ordering::Relaxed) {
                        return Ok(0);
                    }
                    self.polls.fetch_add(1, Ordering::Relaxed);
                    (self.sleeper)(self.current);
                    self.current = (self.current * 2).min(MAX_POLL).max(self.poll);
                }
                other => {
                    if matches!(other, Ok(n) if n > 0) {
                        self.current = self.poll;
                    }
                    return other;
                }
            }
        }
    }
}

/// An owned trace replayed in a loop with timestamps rebased each pass:
/// pass `k` yields the original packets with `k × period` added to every
/// timestamp, where the period spans the trace plus a configurable
/// inter-pass gap. Time therefore advances monotonically forever — exactly
/// what a long-lived daemon needs to exercise epoch rotation from a finite
/// capture.
///
/// Flow keys repeat across passes by design (it is the same capture), so
/// under rotation each pass's flows look like returning flows whose stale
/// state the previous rotation swept.
#[derive(Clone, Debug)]
pub struct CycleSource {
    packets: Vec<PacketMeta>,
    next: usize,
    offset: Nanos,
    period: Nanos,
    passes_done: u64,
    max_passes: Option<u64>,
    ended: bool,
}

impl CycleSource {
    /// Loop `packets` (capture order assumed) with a 1 ms inter-pass gap.
    /// An empty trace is an immediately-ended source.
    pub fn new(packets: Vec<PacketMeta>) -> CycleSource {
        Self::with_gap(packets, crate::meta::MILLISECOND)
    }

    /// Loop `packets` with `gap` nanoseconds of virtual idle time between
    /// the last packet of one pass and the first of the next.
    pub fn with_gap(packets: Vec<PacketMeta>, gap: Nanos) -> CycleSource {
        let span = match (packets.first(), packets.last()) {
            (Some(first), Some(last)) => last.ts.saturating_sub(first.ts),
            _ => 0,
        };
        CycleSource {
            ended: packets.is_empty(),
            packets,
            next: 0,
            offset: 0,
            period: span.saturating_add(gap).max(1),
            passes_done: 0,
            max_passes: None,
        }
    }

    /// Stop after `passes` full replays instead of looping forever (the
    /// unbounded default is for daemons that end via their own shutdown
    /// signal, not stream exhaustion). Zero passes is an ended source.
    pub fn with_passes(mut self, passes: u64) -> CycleSource {
        self.max_passes = Some(passes);
        self.ended |= passes == 0;
        self
    }

    /// Full passes completed so far.
    pub fn passes_completed(&self) -> u64 {
        self.passes_done
    }

    /// The timestamp advance applied per pass (trace span + gap).
    pub fn period(&self) -> Nanos {
        self.period
    }
}

/// A block may straddle a pass boundary: the packets after it carry the
/// next pass's offset. A pass counts as completed once a pull reaches past
/// its last packet.
impl PacketSource for CycleSource {
    fn next_chunk(&mut self, buf: &mut Vec<PacketMeta>, max: usize) -> Result<usize, PacketError> {
        buf.clear();
        while buf.len() < max && !self.ended {
            if self.next == self.packets.len() {
                self.passes_done += 1;
                if self.max_passes.is_some_and(|n| self.passes_done >= n) {
                    self.ended = true;
                    break;
                }
                self.next = 0;
                self.offset = self.offset.saturating_add(self.period);
            }
            let end = self.next + (max - buf.len()).min(self.packets.len() - self.next);
            let offset = self.offset;
            buf.extend(self.packets[self.next..end].iter().map(|p| PacketMeta {
                ts: p.ts.saturating_add(offset),
                ..*p
            }));
            self.next = end;
        }
        Ok(buf.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowKey;
    use crate::meta::PacketBuilder;
    use crate::trace::TraceReader;

    fn pkt(ts: u64) -> PacketMeta {
        let flow = FlowKey::from_raw(0x0a00_0001, 443, 0xc0a8_0001, 55_000);
        PacketBuilder::new(flow, ts)
            .seq(ts as u32)
            .payload(100)
            .build()
    }

    #[test]
    fn slice_source_streams_in_order_and_ends() {
        let packets = vec![pkt(1), pkt(2), pkt(3)];
        let mut src = SliceSource::new(&packets);
        assert_eq!(src.remaining(), 3);
        assert_eq!(src.next_packet().unwrap(), Some(packets[0]));
        assert_eq!(src.next_packet().unwrap(), Some(packets[1]));
        assert_eq!(src.next_packet().unwrap(), Some(packets[2]));
        assert_eq!(src.next_packet().unwrap(), None);
        // End of stream is sticky.
        assert_eq!(src.next_packet().unwrap(), None);
    }

    #[test]
    fn next_chunk_reuses_buffer_and_reports_counts() {
        let packets: Vec<PacketMeta> = (0..5).map(pkt).collect();
        let mut src = SliceSource::new(&packets);
        let mut buf = Vec::new();
        assert_eq!(src.next_chunk(&mut buf, 2).unwrap(), 2);
        assert_eq!(buf, &packets[0..2]);
        assert_eq!(src.next_chunk(&mut buf, 2).unwrap(), 2);
        assert_eq!(buf, &packets[2..4]);
        assert_eq!(src.next_chunk(&mut buf, 2).unwrap(), 1);
        assert_eq!(buf, &packets[4..5]);
        assert_eq!(src.next_chunk(&mut buf, 2).unwrap(), 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn slice_source_blocks_are_borrowed_subslices() {
        let packets: Vec<PacketMeta> = (0..5).map(pkt).collect();
        let mut src = SliceSource::new(&packets);
        let mut buf = Vec::new();
        let b1 = src.next_block(&mut buf, 2).unwrap().to_vec();
        assert_eq!(b1, &packets[0..2]);
        let b2 = src.next_block(&mut buf, 4).unwrap().to_vec();
        assert_eq!(b2, &packets[2..5]);
        assert!(src.next_block(&mut buf, 4).unwrap().is_empty());
        assert!(
            buf.is_empty(),
            "slice blocks never touch the scratch buffer"
        );
        // Mixed pulls stay in order: packet-wise after block-wise.
        let mut src = SliceSource::new(&packets);
        let _ = src.next_block(&mut buf, 2).unwrap();
        assert_eq!(src.next_packet().unwrap(), Some(packets[2]));
    }

    #[test]
    fn default_next_block_buffers_through_chunk() {
        let packets: Vec<PacketMeta> = (0..3).map(pkt).collect();
        let bytes = crate::trace::to_bytes(&packets);
        let mut src = TraceReader::new(&bytes[..]).unwrap();
        let mut buf = Vec::new();
        let b1 = src.next_block(&mut buf, 2).unwrap().to_vec();
        assert_eq!(b1, &packets[0..2]);
        let b2 = src.next_block(&mut buf, 2).unwrap().to_vec();
        assert_eq!(b2, &packets[2..3]);
        assert!(src.next_block(&mut buf, 2).unwrap().is_empty());
    }

    /// A scripted reader: each `read` yields the next chunk, an empty
    /// chunk models "no data yet", and exhaustion flips the stop flag —
    /// a deterministic stand-in for a fifo with a slow producer.
    struct Scripted {
        chunks: std::collections::VecDeque<Vec<u8>>,
        stop: Arc<AtomicBool>,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.chunks.front_mut() {
                None => {
                    self.stop.store(true, Ordering::Relaxed);
                    Ok(0)
                }
                Some(chunk) if chunk.is_empty() => {
                    // A dry spell: one 0-byte read, then the next chunk.
                    self.chunks.pop_front();
                    Ok(0)
                }
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    chunk.drain(..n);
                    if chunk.is_empty() {
                        self.chunks.pop_front();
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn follow_tails_across_data_gaps_and_torn_records() {
        let packets: Vec<PacketMeta> = (0..4).map(pkt).collect();
        let bytes = crate::trace::to_bytes(&packets);
        // Script: header+first record, a dry spell, a *partial* record
        // (torn write), the rest. Follow must wait through the gaps and
        // never surface a torn record to the trace reader.
        let cut_a = bytes.len() / 3;
        let cut_b = cut_a + 5;
        let stop = Arc::new(AtomicBool::new(false));
        let scripted = Scripted {
            chunks: [
                bytes[..cut_a].to_vec(),
                Vec::new(),
                Vec::new(),
                bytes[cut_a..cut_b].to_vec(),
                Vec::new(),
                bytes[cut_b..].to_vec(),
            ]
            .into_iter()
            .collect(),
            stop: Arc::clone(&stop),
        };
        let follow = Follow::new(scripted, stop).with_poll_interval(Duration::from_millis(1));
        let mut src = TraceReader::new(follow).expect("header arrives eventually");
        let mut back = Vec::new();
        while let Some(p) = PacketSource::next_packet(&mut src).expect("no torn records") {
            back.push(p);
        }
        assert_eq!(back, packets);
    }

    #[test]
    fn follow_poll_backoff_is_sublinear_in_wait_time() {
        use std::sync::Mutex;

        /// Dry until `ready_at` on a virtual clock, then one payload.
        struct DryUntil {
            ready_at: Duration,
            clock: Arc<Mutex<Duration>>,
            payload: Vec<u8>,
            stop: Arc<AtomicBool>,
        }

        impl Read for DryUntil {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if *self.clock.lock().unwrap() < self.ready_at {
                    return Ok(0);
                }
                if self.payload.is_empty() {
                    self.stop.store(true, Ordering::Relaxed);
                    return Ok(0);
                }
                let n = self.payload.len().min(buf.len());
                buf[..n].copy_from_slice(&self.payload[..n]);
                self.payload.drain(..n);
                Ok(n)
            }
        }

        let clock = Arc::new(Mutex::new(Duration::ZERO));
        let stop = Arc::new(AtomicBool::new(false));
        let reader = DryUntil {
            ready_at: Duration::from_secs(10),
            clock: Arc::clone(&clock),
            payload: vec![7u8; 16],
            stop: Arc::clone(&stop),
        };
        let sleeper_clock = Arc::clone(&clock);
        let mut follow = Follow::new(reader, stop).with_sleeper(Box::new(move |d| {
            *sleeper_clock.lock().unwrap() += d;
        }));
        let polls = follow.poll_counter();
        let mut buf = [0u8; 16];
        assert_eq!(follow.read(&mut buf).unwrap(), 16, "data after the wait");
        // A fixed 10 ms poll would sleep ~1000 times across 10 s of dry
        // input; the doubling ladder (10 ms → 640 ms cap) needs about
        // 6 doubling steps plus ~15 capped sleeps.
        let dry_polls = polls.load(Ordering::Relaxed);
        assert!(
            (10..=40).contains(&dry_polls),
            "expected a few dozen backoff polls, got {dry_polls}"
        );
        // Data resets the ladder: the final end-of-stream read is
        // immediate (stop flag), so the count stops moving.
        assert_eq!(follow.read(&mut buf).unwrap(), 0);
        assert_eq!(polls.load(Ordering::Relaxed), dry_polls);
    }

    #[test]
    fn cycle_source_rebases_each_pass() {
        let packets = vec![pkt(0), pkt(10), pkt(20)];
        let mut src = CycleSource::with_gap(packets.clone(), 5).with_passes(2);
        assert_eq!(src.period(), 25, "span 20 + gap 5");
        let mut ts = Vec::new();
        while let Some(p) = src.next_packet().unwrap() {
            ts.push(p.ts);
        }
        assert_eq!(ts, vec![0, 10, 20, 25, 35, 45]);
        assert_eq!(src.passes_completed(), 2);
        // End is sticky and the pass count stops moving.
        assert_eq!(src.next_packet().unwrap(), None);
        assert_eq!(src.passes_completed(), 2);
    }

    #[test]
    fn cycle_source_preserves_flows_and_payloads() {
        let packets = vec![pkt(3), pkt(9)];
        let mut src = CycleSource::new(packets.clone()).with_passes(2);
        let first = src.next_packet().unwrap().expect("pass 1");
        assert_eq!(first, packets[0]);
        let _ = src.next_packet().unwrap();
        let again = src.next_packet().unwrap().expect("pass 2");
        assert_eq!(again.flow, packets[0].flow);
        assert_eq!(again.seq, packets[0].seq);
        assert_eq!(again.ts, packets[0].ts + src.period());
    }

    #[test]
    fn empty_cycle_source_ends_immediately() {
        let mut src = CycleSource::new(Vec::new());
        assert_eq!(src.next_packet().unwrap(), None);
        assert_eq!(src.passes_completed(), 0);
        // So is a trace asked for no passes at all.
        let mut src = CycleSource::new(vec![pkt(1)]).with_passes(0);
        assert_eq!(src.next_packet().unwrap(), None);
        assert_eq!(src.passes_completed(), 0);
    }

    #[test]
    fn trace_reader_source_round_trips() {
        let packets: Vec<PacketMeta> = (0..10).map(pkt).collect();
        let bytes = crate::trace::to_bytes(&packets);
        let mut src = TraceReader::new(&bytes[..]).unwrap();
        let mut back = Vec::new();
        while let Some(p) = PacketSource::next_packet(&mut src).unwrap() {
            back.push(p);
        }
        assert_eq!(back, packets);
    }
}
