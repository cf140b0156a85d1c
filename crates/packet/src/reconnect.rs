//! Ingest-failure recovery: a [`PacketSource`] combinator that survives
//! decode errors and transport outages instead of aborting the run.
//!
//! A long-lived monitoring daemon reads from things that fail: a fifo whose
//! producer restarts, an NFS-mounted capture that stalls, a trace with a
//! few torn records at a rotation boundary. [`Reconnecting`] wraps any
//! inner source with two independent recovery policies:
//!
//! * **Decode tolerance** — decode-class errors ([`PacketError::Truncated`],
//!   [`PacketError::Malformed`], [`PacketError::Unsupported`],
//!   [`PacketError::BadTrace`]) are *skipped and counted* rather than
//!   surfaced, on the theory that one bad record should not end a run that
//!   has been healthy for a week. `--strict-decode` semantics
//!   ([`Reconnecting::with_strict_decode`]) restore fail-on-first-error for
//!   operators who prefer loud ingestion. A cap of 4096 *consecutive*
//!   skips keeps a permanently desynchronized stream from spinning
//!   forever: past the cap the stream is declared broken and handed to the
//!   reconnect policy.
//! * **Reconnection** — I/O-class errors drop the inner source and rebuild
//!   it through a caller-supplied factory, under exponential backoff from
//!   50 ms to 5 s with deterministic jitter and a budget of 8 attempts per
//!   outage. The factory receives the attempt number and may itself
//!   decline (`None`) — that consumes an attempt and backs off like a
//!   failed open.
//!
//! Every outcome is counted in a shared [`SourceCounters`] handle that the
//! telemetry plane can keep after the source moves into the feed loop
//! (`dart_source_reconnects_total`, `dart_source_decode_errors_total`).
//!
//! Both policies recover one block pull at a time: the first connection
//! is made by the first pull (attempt `0`, no backoff before it), and the
//! inner source ends a block before a bad record and reports it on the
//! next pull, so every bad record is one skip and no good packet on either
//! side of it is dropped.
//!
//! Backoff is deterministic: the jitter derives from a fixed seed and the
//! attempt number, never from wall-clock entropy, so recovery schedules
//! replay identically in tests. Sleeping is injectable for the same reason.

use crate::error::PacketError;
use crate::meta::PacketMeta;
use crate::source::PacketSource;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Consecutive decode errors tolerated before the stream is declared
/// desynchronized and rebuilt.
const DECODE_SKIP_CAP: u32 = 4096;
/// Connection attempts allowed per outage (the initial open of each outage
/// is attempt 1) before the source is declared dead.
const RETRY_BUDGET: u32 = 8;
/// The pause before the second attempt of an outage, doubling with each
/// attempt after it up to the maximum.
const BASE_BACKOFF: Duration = Duration::from_millis(50);
const MAX_BACKOFF: Duration = Duration::from_secs(5);
/// Seed of the deterministic backoff jitter.
const JITTER_SEED: u64 = 0xDA27_0001;

/// Shared, cloneable recovery counters: clone a handle before the source
/// moves into the feed loop and the telemetry plane can publish them live.
#[derive(Clone, Debug, Default)]
pub struct SourceCounters {
    reconnects: Arc<AtomicU64>,
    decode_errors: Arc<AtomicU64>,
    io_errors: Arc<AtomicU64>,
}

impl SourceCounters {
    /// Successful reconnections (`dart_source_reconnects_total`).
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Records skipped as undecodable
    /// (`dart_source_decode_errors_total`).
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }

    /// I/O-class stream failures that triggered the reconnect policy.
    pub fn io_errors(&self) -> u64 {
        self.io_errors.load(Ordering::Relaxed)
    }
}

/// Builds (and rebuilds) the inner source. Receives the attempt number:
/// `0` for the initial connection, `1..` for reconnections after a
/// failure. Returning `None` means "cannot connect right now" and consumes
/// one attempt from the retry budget.
pub type SourceFactory<S> = Box<dyn FnMut(u32) -> Option<S> + Send>;

/// A [`PacketSource`] wrapper that skips undecodable records and rebuilds
/// a failed transport under bounded, deterministic backoff — see the
/// module docs for the full policy.
pub struct Reconnecting<S> {
    source: Option<S>,
    factory: SourceFactory<S>,
    counters: SourceCounters,
    strict_decode: bool,
    consecutive_skips: u32,
    /// Failed connection attempts in the current outage.
    attempts: u32,
    sleeper: Box<dyn FnMut(Duration) + Send>,
    /// Set once the retry budget is exhausted; every later call returns
    /// the same terminal error.
    failed: bool,
}

/// True for errors that condemn one record, not the stream.
fn is_decode_error(e: &PacketError) -> bool {
    matches!(
        e,
        PacketError::Truncated { .. }
            | PacketError::Malformed { .. }
            | PacketError::Unsupported { .. }
            | PacketError::BadTrace(_)
    )
}

/// SplitMix64 finalizer: a cheap, deterministic bit mixer for jitter.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The backoff after failed attempt `n` (1-based within an outage):
/// `50 ms × 2ⁿ⁻¹` capped at 5 s, plus up to 50% jitter derived from the
/// seed and `n` — fully deterministic.
fn backoff(attempt: u32) -> Duration {
    let base = BASE_BACKOFF.as_nanos() as u64;
    let max = MAX_BACKOFF.as_nanos() as u64;
    let shift = attempt.saturating_sub(1).min(20);
    let exp = base.saturating_mul(1u64 << shift).min(max);
    let jitter = mix64(JITTER_SEED ^ u64::from(attempt)) % (exp / 2 + 1);
    Duration::from_nanos(exp.saturating_add(jitter))
}

impl<S: PacketSource> Reconnecting<S> {
    /// Wrap `factory`'s sources. The first connection happens lazily on
    /// the first pull.
    pub fn new(factory: SourceFactory<S>) -> Reconnecting<S> {
        Reconnecting {
            source: None,
            factory,
            counters: SourceCounters::default(),
            strict_decode: false,
            consecutive_skips: 0,
            attempts: 0,
            sleeper: Box::new(std::thread::sleep),
            failed: false,
        }
    }

    /// Wrap an already-open source; `factory` is only consulted after a
    /// failure.
    pub fn with_initial(source: S, factory: SourceFactory<S>) -> Reconnecting<S> {
        let mut r = Reconnecting::new(factory);
        r.source = Some(source);
        r
    }

    /// Fail on the first undecodable record instead of skipping it
    /// (`--strict-decode`).
    pub fn with_strict_decode(mut self, strict: bool) -> Reconnecting<S> {
        self.strict_decode = strict;
        self
    }

    /// Replace the sleep implementation (virtual time in tests).
    pub fn with_sleeper(mut self, sleeper: Box<dyn FnMut(Duration) + Send>) -> Reconnecting<S> {
        self.sleeper = sleeper;
        self
    }

    /// A counters handle to keep (or register with telemetry) after the
    /// source moves into the feed loop.
    pub fn counters(&self) -> SourceCounters {
        self.counters.clone()
    }

    /// Drop the broken source and rebuild it under backoff. `Ok` leaves
    /// `self.source` connected; `Err` means the budget ran out.
    fn reconnect(&mut self, cause: &str) -> Result<(), PacketError> {
        self.source = None;
        loop {
            self.attempts += 1;
            if self.attempts > RETRY_BUDGET {
                self.failed = true;
                return Err(PacketError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "source lost ({cause}); retry budget of {RETRY_BUDGET} attempts exhausted"
                    ),
                )));
            }
            // First attempt of an outage reconnects immediately; later
            // ones back off exponentially.
            if self.attempts > 1 {
                let pause = backoff(self.attempts - 1);
                (self.sleeper)(pause);
            }
            if let Some(src) = (self.factory)(self.attempts) {
                self.source = Some(src);
                self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                self.attempts = 0;
                return Ok(());
            }
        }
    }
}

impl<S: PacketSource> Reconnecting<S> {
    /// Run one pull against the inner source under both recovery policies:
    /// decode-class errors are skipped and counted (up to the consecutive
    /// cap), I/O-class errors rebuild the source, and the pull is retried
    /// until it yields a block or the end of the stream.
    fn recovering<T>(
        &mut self,
        mut pull: impl FnMut(&mut S) -> Result<T, PacketError>,
    ) -> Result<T, PacketError> {
        if self.failed {
            return Err(PacketError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "source previously declared dead (retry budget exhausted)",
            )));
        }
        loop {
            if self.source.is_none() {
                self.reconnect("not yet connected")?;
            }
            let Some(src) = self.source.as_mut() else {
                unreachable!("reconnect() leaves a source or errors");
            };
            match pull(src) {
                Ok(yielded) => {
                    // A genuine end of stream stays an end of stream: the
                    // inner source (e.g. a Follow-tailed fifo) decides
                    // when the data is really over.
                    self.consecutive_skips = 0;
                    return Ok(yielded);
                }
                Err(e) if is_decode_error(&e) => {
                    if self.strict_decode {
                        return Err(e);
                    }
                    self.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                    self.consecutive_skips += 1;
                    if self.consecutive_skips >= DECODE_SKIP_CAP {
                        // The stream never recovers alignment: stop
                        // skipping and rebuild it.
                        self.consecutive_skips = 0;
                        self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                        self.reconnect("decode-skip cap reached")?;
                    }
                    // Skip the bad record and try the next one.
                }
                // The guard above catches every decode-class variant, so
                // this is the I/O-class (transport) path.
                Err(e) => {
                    self.counters.io_errors.fetch_add(1, Ordering::Relaxed);
                    self.reconnect(&e.to_string())?;
                }
            }
        }
    }
}

/// One recovery pass per block, not per packet.
impl<S: PacketSource> PacketSource for Reconnecting<S> {
    fn next_chunk(&mut self, buf: &mut Vec<PacketMeta>, max: usize) -> Result<usize, PacketError> {
        self.recovering(|src| src.next_chunk(buf, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowKey;
    use crate::meta::PacketBuilder;
    use std::sync::Mutex;

    fn pkt(ts: u64) -> PacketMeta {
        let flow = FlowKey::from_raw(0x0a00_0001, 443, 0xc0a8_0001, 55_000);
        PacketBuilder::new(flow, ts)
            .seq(ts as u32)
            .payload(100)
            .build()
    }

    /// A scripted source: each step is a one-packet block, an error, or
    /// the end.
    enum Step {
        Pkt(u64),
        Decode,
        Io,
        End,
    }

    struct Scripted {
        steps: std::vec::IntoIter<Step>,
    }

    impl Scripted {
        fn new(steps: Vec<Step>) -> Scripted {
            Scripted {
                steps: steps.into_iter(),
            }
        }
    }

    impl PacketSource for Scripted {
        fn next_chunk(
            &mut self,
            buf: &mut Vec<PacketMeta>,
            _: usize,
        ) -> Result<usize, PacketError> {
            buf.clear();
            match self.steps.next() {
                None | Some(Step::End) => {}
                Some(Step::Pkt(ts)) => buf.push(pkt(ts)),
                Some(Step::Decode) => return Err(PacketError::BadTrace("torn record".into())),
                Some(Step::Io) => {
                    return Err(PacketError::Io(io::Error::new(
                        io::ErrorKind::BrokenPipe,
                        "producer died",
                    )))
                }
            }
            Ok(buf.len())
        }
    }

    /// Collect every packet the source yields (panics on error).
    fn drain<S: PacketSource>(src: &mut S) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(p) = src.next_packet().expect("source must recover") {
            out.push(p.ts);
        }
        out
    }

    fn no_sleep() -> Box<dyn FnMut(Duration) + Send> {
        Box::new(|_| {})
    }

    #[test]
    fn decode_errors_are_skipped_and_counted() {
        let mut src = Reconnecting::with_initial(
            Scripted::new(vec![
                Step::Pkt(1),
                Step::Decode,
                Step::Pkt(2),
                Step::Decode,
                Step::Decode,
                Step::Pkt(3),
                Step::End,
            ]),
            Box::new(|_| None),
        )
        .with_sleeper(no_sleep());
        let counters = src.counters();
        assert_eq!(drain(&mut src), vec![1, 2, 3]);
        assert_eq!(counters.decode_errors(), 3);
        assert_eq!(counters.reconnects(), 0);
    }

    #[test]
    fn strict_decode_surfaces_the_first_bad_record() {
        let mut src = Reconnecting::with_initial(
            Scripted::new(vec![Step::Pkt(1), Step::Decode, Step::Pkt(2)]),
            Box::new(|_| None),
        )
        .with_strict_decode(true)
        .with_sleeper(no_sleep());
        assert_eq!(src.next_packet().unwrap().unwrap().ts, 1);
        assert!(matches!(src.next_packet(), Err(PacketError::BadTrace(_))));
    }

    #[test]
    fn io_failure_reconnects_and_resumes() {
        // The replacement source picks up where the broken one left off.
        let mut src = Reconnecting::with_initial(
            Scripted::new(vec![Step::Pkt(1), Step::Io]),
            Box::new(|attempt| {
                assert!(attempt >= 1);
                Some(Scripted::new(vec![Step::Pkt(2), Step::End]))
            }),
        )
        .with_sleeper(no_sleep());
        let counters = src.counters();
        assert_eq!(drain(&mut src), vec![1, 2]);
        assert_eq!(counters.reconnects(), 1);
        assert_eq!(counters.io_errors(), 1);
    }

    #[test]
    fn retry_budget_bounds_the_outage_and_is_sticky() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls2 = Arc::clone(&calls);
        let mut src: Reconnecting<Scripted> = Reconnecting::new(Box::new(move |_| {
            calls2.fetch_add(1, Ordering::Relaxed);
            None
        }))
        .with_sleeper(no_sleep());
        assert!(matches!(src.next_packet(), Err(PacketError::Io(_))));
        let budget = u64::from(RETRY_BUDGET);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            budget,
            "budget caps attempts"
        );
        // Dead is dead: no further factory calls.
        assert!(matches!(src.next_packet(), Err(PacketError::Io(_))));
        assert_eq!(calls.load(Ordering::Relaxed), budget);
    }

    #[test]
    fn backoff_is_exponential_bounded_and_deterministic() {
        let sleeps = Arc::new(Mutex::new(Vec::new()));
        let record = |log: &Arc<Mutex<Vec<Duration>>>| {
            let log = Arc::clone(log);
            Box::new(move |d: Duration| log.lock().unwrap().push(d))
                as Box<dyn FnMut(Duration) + Send>
        };
        let run = |log: Arc<Mutex<Vec<Duration>>>| {
            let mut src: Reconnecting<Scripted> =
                Reconnecting::new(Box::new(|_| None)).with_sleeper(record(&log));
            let _ = src.next_packet();
        };
        run(Arc::clone(&sleeps));
        let first: Vec<Duration> = sleeps.lock().unwrap().clone();
        // Attempt 1 is immediate; 7 backoffs follow for attempts 2..=8.
        assert_eq!(first.len(), RETRY_BUDGET as usize - 1);
        // Every pause is within [exp, 1.5×exp] of the ideal exponential
        // (jitter ≤ 50%), and past the budget's reach the 5 s cap holds.
        let ideal = (1..).map(|attempt| (BASE_BACKOFF * 2u32.pow(attempt - 1)).min(MAX_BACKOFF));
        let reachable = first.iter().copied();
        let capped = (RETRY_BUDGET..RETRY_BUDGET + 4).map(backoff);
        for (d, lo) in reachable.chain(capped).zip(ideal) {
            let hi = lo + lo / 2;
            assert!(d >= lo && d <= hi, "pause {d:?} outside [{lo:?}, {hi:?}]");
        }
        // Deterministic: a second run produces the identical schedule.
        let sleeps2 = Arc::new(Mutex::new(Vec::new()));
        run(Arc::clone(&sleeps2));
        assert_eq!(first, *sleeps2.lock().unwrap());
    }

    #[test]
    fn decode_skip_cap_escalates_to_reconnect() {
        let cap = DECODE_SKIP_CAP as usize;
        let mut src = Reconnecting::with_initial(
            Scripted::new((0..=cap).map(|_| Step::Decode).collect()),
            Box::new(|_| Some(Scripted::new(vec![Step::Pkt(9), Step::End]))),
        )
        .with_sleeper(no_sleep());
        let counters = src.counters();
        assert_eq!(drain(&mut src), vec![9]);
        assert_eq!(counters.decode_errors(), cap as u64, "capped skips counted");
        assert_eq!(counters.reconnects(), 1, "then the stream was rebuilt");
    }

    /// A native trace of packets `0..n` (timestamps) with the direction
    /// byte of every record in `bad` corrupted.
    fn trace_with_bad_records(n: u64, bad: &[usize]) -> Vec<u8> {
        let packets: Vec<PacketMeta> = (0..n).map(pkt).collect();
        let mut bytes = crate::trace::to_bytes(&packets);
        for &record in bad {
            bytes[16 + record * crate::trace::RECORD_LEN + 33] = 0xFF;
        }
        bytes
    }

    fn reader(bytes: Vec<u8>) -> crate::trace::TraceReader<io::Cursor<Vec<u8>>> {
        crate::trace::TraceReader::new(io::Cursor::new(bytes)).expect("valid header")
    }

    /// Drain block-wise, returning every block's timestamps.
    fn drain_blocks<S: PacketSource>(src: &mut S, max: usize) -> Vec<Vec<u64>> {
        let mut blocks = Vec::new();
        let mut buf = Vec::new();
        while src.next_chunk(&mut buf, max).expect("source must recover") > 0 {
            blocks.push(buf.iter().map(|p| p.ts).collect());
        }
        blocks
    }

    #[test]
    fn a_bad_record_mid_block_costs_one_error_and_no_packet() {
        let mut src = Reconnecting::with_initial(
            reader(trace_with_bad_records(10, &[4])),
            Box::new(|_| None),
        )
        .with_sleeper(no_sleep());
        let counters = src.counters();
        // The block ends before the bad record; the next one starts after.
        assert_eq!(
            drain_blocks(&mut src, 1024),
            vec![vec![0, 1, 2, 3], vec![5, 6, 7, 8, 9]]
        );
        assert_eq!(counters.decode_errors(), 1);
        assert_eq!(counters.reconnects(), 0);
        assert_eq!(counters.io_errors(), 0);
    }

    #[test]
    fn block_pulls_account_like_packet_pulls() {
        let bytes = trace_with_bad_records(40, &[0, 7, 8, 21, 39]);
        let by_packet = {
            let mut src = Reconnecting::with_initial(reader(bytes.clone()), Box::new(|_| None))
                .with_sleeper(no_sleep());
            (drain(&mut src), src.counters().decode_errors())
        };
        for max in [1, 3, 1024] {
            let mut src = Reconnecting::with_initial(reader(bytes.clone()), Box::new(|_| None))
                .with_sleeper(no_sleep());
            let by_block: Vec<u64> = drain_blocks(&mut src, max).concat();
            assert_eq!((by_block, src.counters().decode_errors()), by_packet);
        }
        assert_eq!(by_packet.1, 5);
    }

    #[test]
    fn skip_cap_in_block_mode_triggers_exactly_one_reconnect() {
        // A cap's worth of consecutive bad records; the good packets
        // before them are delivered first, the rest of the broken stream
        // is abandoned with the reconnect.
        let cap = DECODE_SKIP_CAP as usize;
        let bad: Vec<usize> = (2..2 + cap).collect();
        let mut src = Reconnecting::with_initial(
            reader(trace_with_bad_records(cap as u64 + 10, &bad)),
            Box::new(|_| Some(reader(trace_with_bad_records(2, &[])))),
        )
        .with_sleeper(no_sleep());
        let counters = src.counters();
        assert_eq!(drain_blocks(&mut src, 1024), vec![vec![0, 1], vec![0, 1]]);
        assert_eq!(counters.decode_errors(), cap as u64);
        assert_eq!(counters.reconnects(), 1);
    }

    #[test]
    fn strict_decode_fails_on_the_first_bad_record_of_a_block() {
        let mut src =
            Reconnecting::with_initial(reader(trace_with_bad_records(6, &[2])), Box::new(|_| None))
                .with_strict_decode(true)
                .with_sleeper(no_sleep());
        let mut buf = Vec::new();
        assert_eq!(src.next_chunk(&mut buf, 1024).unwrap(), 2);
        assert!(matches!(
            src.next_chunk(&mut buf, 1024),
            Err(PacketError::BadTrace(_))
        ));
        assert_eq!(src.counters().decode_errors(), 0);
    }

    #[test]
    fn end_of_stream_is_not_an_outage() {
        let mut src = Reconnecting::with_initial(
            Scripted::new(vec![Step::Pkt(1), Step::End]),
            Box::new(|_| panic!("EOF must not trigger reconnection")),
        )
        .with_sleeper(no_sleep());
        assert_eq!(drain(&mut src), vec![1]);
        assert_eq!(src.next_packet().unwrap(), None, "end stays sticky");
    }
}
