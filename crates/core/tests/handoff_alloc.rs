//! Both hand-offs over the ring recycle their blocks. The sharded one: once
//! `queue_depth + 2` of them are in circulation per shard (one filling,
//! `queue_depth` queued, one being processed), feeding allocates nothing —
//! on the feeder or on a worker. The read-ahead source: once its helper has
//! filled `READ_AHEAD_DEPTH + 2`, decoding and matching allocate nothing on
//! either thread. Neither grows the live heap with the number of blocks.
//!
//! One test only: the counters below are process-wide, so nothing else may
//! run in this binary while it measures.

use dart_core::monitor::READ_AHEAD_DEPTH;
use dart_core::{
    drive, DartConfig, DartEngine, PacketHook, ReadAhead, RttMonitor, RttSample, ShardedConfig,
    ShardedMonitor,
};
use dart_packet::trace::TraceReader;
use dart_packet::{Direction, FlowKey, PacketBuilder, PacketError, PacketMeta, PacketSource};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// The system allocator, counting every request of every thread and the
/// bytes currently allocated.
struct Counting;

static REQUESTS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

fn note(grown: isize) {
    REQUESTS.fetch_add(1, Ordering::Relaxed);
    LIVE_BYTES.fetch_add(grown, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only two atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const BLOCK: usize = 1024;

/// `blocks` driver blocks of data/ACK exchanges over 64 long-lived flows:
/// both shards of a two-shard monitor get traffic in every block, and the
/// engines' fixed-size tables see nothing that would make them allocate.
fn steady_trace(blocks: usize) -> Vec<PacketMeta> {
    let flows: Vec<FlowKey> = (0..64u32)
        .map(|n| FlowKey::from_raw(0x0a00_0000 + n, 40000 + n as u16, 0x5db8_d822, 443))
        .collect();
    let mut pkts = Vec::with_capacity(blocks * BLOCK);
    for round in 0.. {
        for (n, flow) in flows.iter().enumerate() {
            if pkts.len() == blocks * BLOCK {
                return pkts;
            }
            let at = (round * flows.len() + n) as u64 * 2_000;
            let seq = round as u32 * 1460;
            pkts.push(
                PacketBuilder::new(*flow, at)
                    .seq(seq)
                    .payload(1460)
                    .dir(Direction::Outbound)
                    .build(),
            );
            pkts.push(
                PacketBuilder::new(flow.reverse(), at + 1_000)
                    .ack(seq.wrapping_add(1460))
                    .dir(Direction::Inbound)
                    .build(),
            );
        }
    }
    unreachable!()
}

/// The allocator's books: requests so far, bytes live.
fn books() -> (usize, isize) {
    (
        REQUESTS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    )
}

const MEASURED: usize = 96;

#[test]
fn steady_state_hand_off_allocates_nothing() {
    sharded_hand_off();
    read_ahead();
}

fn sharded_hand_off() {
    for shards in [1usize, 2] {
        let cfg = ShardedConfig::new(DartConfig::default(), shards);
        let warm_up = cfg.queue_depth + 2;
        let pkts = steady_trace(warm_up + MEASURED);
        let mut blocks = pkts.chunks(BLOCK);

        // Hold every worker at its first packet until its ring is full, so
        // that all `queue_depth + 2` blocks of each shard come into being
        // during the warm-up however the threads are scheduled. Each worker
        // meets the feeder at the gate twice: to say it has taken its first
        // block off the ring, and to be let go.
        let gate = Arc::new(Barrier::new(shards + 1));
        let arrived: Arc<Vec<AtomicBool>> =
            Arc::new((0..shards).map(|_| AtomicBool::new(false)).collect());
        let hook: PacketHook = {
            let (gate, arrived) = (Arc::clone(&gate), Arc::clone(&arrived));
            Arc::new(move |_idx, shard| {
                if !arrived[shard].swap(true, Ordering::Relaxed) {
                    gate.wait();
                    gate.wait();
                }
            })
        };
        let mut monitor = ShardedMonitor::spawn(cfg, None, Some(hook));
        let mut samples = 0u64;
        let mut sink = |_: RttSample| samples += 1;
        monitor.on_batch(blocks.next().expect("first block"), &mut sink);
        gate.wait();
        // One block held by each worker; now `queue_depth` queued behind
        // it, which leaves the feeder holding the next one to fill.
        for block in blocks.by_ref().take(cfg.queue_depth) {
            monitor.on_batch(block, &mut sink);
        }
        gate.wait();
        monitor.on_batch(blocks.next().expect("last warm-up block"), &mut sink);
        // A drain is answered only after everything sent before it has
        // been processed: the workers are idle when it returns.
        monitor.drain(&mut sink);

        let (requests, live) = books();
        for block in blocks {
            monitor.on_batch(block, &mut sink);
        }
        // The feeder can be at most `queue_depth + 1` blocks ahead of a
        // worker, so at least 64 of the measured blocks are done by now.
        assert!(MEASURED - (cfg.queue_depth + 1) >= 64);
        assert_eq!(
            REQUESTS.load(Ordering::Relaxed) - requests,
            0,
            "{shards} shard(s): allocations while feeding {MEASURED} blocks in steady state"
        );
        assert!(
            LIVE_BYTES.load(Ordering::Relaxed) <= live,
            "{shards} shard(s): the live heap grew while feeding in steady state"
        );

        monitor.flush(&mut sink);
        let stats = RttMonitor::stats(&monitor);
        assert_eq!(stats.packets, pkts.len() as u64);
        assert_eq!(stats.monitor_miss, 0);
        assert!(stats.samples > 0);
        assert_eq!(samples, stats.samples);
    }
}

/// A source counting the blocks it has filled.
struct Counted<S> {
    inner: S,
    fills: Arc<AtomicUsize>,
}

impl<S: PacketSource> PacketSource for Counted<S> {
    fn next_chunk(&mut self, buf: &mut Vec<PacketMeta>, max: usize) -> Result<usize, PacketError> {
        let filled = self.inner.next_chunk(buf, max);
        self.fills.fetch_add(1, Ordering::Relaxed);
        filled
    }
}

fn read_ahead() {
    let ahead = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
    // One block held by the driver, `READ_AHEAD_DEPTH` queued, and the one
    // the helper is blocked sending; inline, the driver's one.
    let warm_up = if ahead { READ_AHEAD_DEPTH + 2 } else { 1 };
    let pkts = steady_trace(warm_up + MEASURED + 2);
    let trace = TraceReader::new(Cursor::new(dart_packet::trace::to_bytes(&pkts))).expect("header");
    let fills = Arc::new(AtomicUsize::new(0));
    let mut source = ReadAhead::new(
        Counted {
            inner: trace,
            fills: Arc::clone(&fills),
        },
        1,
    );
    let mut engine = DartEngine::new(DartConfig::default());
    let (mut samples, mut pulls, mut marks) = (0u64, 0, Vec::with_capacity(2));
    let stats = drive(
        &mut engine,
        &mut source,
        &mut |_: RttSample| samples += 1,
        |_, _, _| {
            pulls += 1;
            if pulls == 2 {
                // The driver holds the first block: let every other block
                // that can be in flight come into being.
                while fills.load(Ordering::Relaxed) < warm_up {
                    std::thread::yield_now();
                }
            }
            if pulls == 2 || pulls == 2 + MEASURED {
                marks.push(books());
            }
            Some(BLOCK)
        },
    )
    .expect("an intact trace");
    assert_eq!(stats.packets, pkts.len() as u64);
    assert!(samples > 0);
    let [(requests, live), (after, live_after)] = marks[..] else {
        panic!("{} marks", marks.len());
    };
    assert_eq!(
        after - requests,
        0,
        "read-ahead: allocations while decoding {MEASURED} blocks in steady state"
    );
    assert!(
        live_after <= live,
        "read-ahead: the live heap grew while decoding in steady state"
    );
}
