//! A checkpoint holds no copy of the state: streaming a sharded checkpoint
//! to a file raises the process's live-heap high-water mark by a fixed
//! bound — the writer's stage and the control messages — however large
//! the snapshot. The allocator's books are process-wide, so the feeder and
//! every shard worker are counted.
//!
//! One test only: the counters below are process-wide, so nothing else may
//! run in this binary while it measures.

use dart_core::telemetry::SHARD_CHANNEL_BATCHES;
use dart_core::{DartConfig, RttMonitor, RttSample, ShardedConfig, ShardedMonitor};
use dart_packet::{Direction, FlowKey, PacketBuilder, PacketMeta};
use dart_telemetry::MetricRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::{Duration, Instant};

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

/// What a checkpoint may add to the live heap at its peak.
const BOUND: isize = 256 << 10;

/// One unacknowledged data packet on each of `flows` flows: every flow
/// leaves a Range Tracker entry and a Packet Tracker record behind.
fn open_flows(flows: u32) -> Vec<PacketMeta> {
    (0..flows)
        .map(|n| {
            let flow = FlowKey::from_raw(
                0x0a00_0000 + n,
                40000 + (n % 20_000) as u16,
                0x5db8_d822,
                443,
            );
            PacketBuilder::new(flow, u64::from(n) * 1_000)
                .seq(n)
                .payload(1460)
                .dir(Direction::Outbound)
                .build()
        })
        .collect()
}

/// Wait until every shard worker has processed every block handed to it
/// (its ring-depth gauge reads zero), so that the tables stop growing.
fn wait_idle(registry: &MetricRegistry, shards: usize) {
    let row = SHARD_CHANNEL_BATCHES;
    let deadline = Instant::now() + Duration::from_secs(30);
    for shard in 0..shards {
        let depth = registry.gauge(row.name, &[("shard", &shard.to_string())], row.help);
        while depth.get() > 0 {
            assert!(Instant::now() < deadline, "shard {shard} never went idle");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[test]
fn a_streamed_checkpoint_holds_no_copy_of_the_state() {
    let cfg = ShardedConfig::new(DartConfig::default(), 2);
    let registry = MetricRegistry::new();
    let mut monitor = ShardedMonitor::spawn(cfg, Some(&registry), None);
    let mut sink: Vec<RttSample> = Vec::new();
    for block in open_flows(24_000).chunks(1024) {
        monitor.on_batch(block, &mut sink);
    }
    wait_idle(&registry, cfg.shards);
    // A checkpoint is taken drained.
    monitor.drain(&mut sink);
    // The monitor's first checkpoint: nothing of an earlier one is kept.
    let path =
        std::env::temp_dir().join(format!("dart-checkpoint-alloc-{}.dsnp", std::process::id()));
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(before, Ordering::Relaxed);
    let written = monitor.checkpoint_to(&path).expect("streamed checkpoint");
    let rise = PEAK_BYTES.load(Ordering::Relaxed) - before;
    assert!(
        written > 1 << 20,
        "a {written} B checkpoint is too small to tell"
    );
    assert!(
        rise <= BOUND,
        "a checkpoint of {written} B raised the live heap's peak by {rise} B (bound {BOUND} B)"
    );
    let held = monitor.snapshot().expect("snapshot");
    assert!(
        std::fs::read(&path).expect("read back") == held.as_bytes(),
        "the file is not the snapshot"
    );
    std::fs::remove_file(&path).expect("clean up");
    monitor.flush(&mut sink);
}
