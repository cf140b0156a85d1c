//! The sharded runtime holds what is in flight, not what it has seen:
//! samples leave the workers in drain rounds while the monitor runs, so
//! feeding four times the blocks through a two-shard monitor raises the
//! live heap's high-water mark by no more than a fixed bound. The
//! allocator's books are process-wide, so the feeder and every shard
//! worker are counted.
//!
//! One test only: the counters below are process-wide, so nothing else may
//! run in this binary while it measures.

use dart_core::{DartConfig, PacketHook, RttMonitor, RttSample, ShardedConfig, ShardedMonitor};
use dart_packet::{Direction, FlowKey, PacketBuilder, PacketMeta};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::{Arc, Barrier};

/// The system allocator, keeping the bytes currently allocated by every
/// thread and their high-water mark.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

fn note(grown: isize) {
    let live = LIVE_BYTES.fetch_add(grown, Ordering::Relaxed) + grown;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
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
        note(-(layout.size() as isize));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What four times the blocks may add to the live heap's peak.
const BOUND: isize = 256 << 10;

const BLOCK: usize = 1024;

/// Driver block `k` of an endless run of data/ACK exchanges over 64
/// long-lived flows: every ACK closes a sample, and the tables hold the
/// same 64 flows however long the run is.
fn block(k: usize, out: &mut Vec<PacketMeta>) {
    out.clear();
    for i in k * BLOCK / 2..(k + 1) * BLOCK / 2 {
        let flow = FlowKey::from_raw(
            0x0a00_0000 + (i % 64) as u32,
            40000 + (i % 64) as u16,
            0x5db8_d822,
            443,
        );
        let at = i as u64 * 2_000;
        let seq = (i / 64) as u32 * 1460;
        out.push(
            PacketBuilder::new(flow, at)
                .seq(seq)
                .payload(1460)
                .dir(Direction::Outbound)
                .build(),
        );
        out.push(
            PacketBuilder::new(flow.reverse(), at + 1_000)
                .ack(seq.wrapping_add(1460))
                .dir(Direction::Inbound)
                .build(),
        );
    }
}

#[test]
fn four_times_the_blocks_hold_no_more_at_the_peak() {
    const FIRST: usize = 64;
    let shards = 2;
    let cfg = ShardedConfig::new(DartConfig::default(), shards);
    // Hold every worker at its first packet until its ring is full, so
    // that all `queue_depth + 2` hand-off blocks of each shard come into
    // being during the first run however the threads are scheduled (as in
    // `handoff_alloc.rs`): the second run may then only reuse them.
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
    let mut samples = 0u64;
    let mut sink = |_: RttSample| samples += 1;
    let mut pkts = Vec::with_capacity(BLOCK);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let mut monitor = ShardedMonitor::spawn(cfg, None, Some(hook));
    for k in 0..FIRST {
        block(k, &mut pkts);
        monitor.on_batch(&pkts, &mut sink);
        if k == 0 || k == cfg.queue_depth {
            gate.wait();
        }
    }
    let first_rise = PEAK_BYTES.load(Ordering::Relaxed) - before;
    for k in FIRST..5 * FIRST {
        block(k, &mut pkts);
        monitor.on_batch(&pkts, &mut sink);
    }
    monitor.flush(&mut sink);
    let rise = PEAK_BYTES.load(Ordering::Relaxed) - before;
    let stats = monitor.stats();
    assert_eq!(stats.packets, (5 * FIRST * BLOCK) as u64);
    assert_eq!(stats.samples, samples, "the sink counts what the books do");
    assert!(
        samples >= (5 * FIRST * BLOCK / 2 - 64) as u64,
        "every ACK samples"
    );
    assert!(
        rise - first_rise <= BOUND,
        "{FIRST} blocks raised the live heap's peak by {first_rise} B, {} blocks more and \
         the flush by {} B more (bound {BOUND} B)",
        4 * FIRST,
        rise - first_rise
    );
}
