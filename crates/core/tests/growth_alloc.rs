//! No table holds its growth twice: a default-geometry engine fed the
//! `campus-native` trace, then rotated, then checkpointed, never raises the
//! live heap's high-water mark more than a fixed bound above where each of
//! those steps starts or ends, whichever is higher. A packed register
//! array grows — and shrinks after a sweep — one arena of 256 slots at a
//! time, so what a growth holds twice is one arena's records, never the
//! table; and the tables' own books (`dart_table_resident_bytes`) are what
//! the allocator holds for them.
//!
//! One test only: the counters below are process-wide, so nothing else may
//! run in this binary while it measures.

use dart_core::telemetry::{EngineTelemetry, TABLES, TABLE_RESIDENT_BYTES};
use dart_core::{DartConfig, DartEngine, RttMonitor, RttSample};
use dart_packet::SECOND;
use dart_sim::scenario::{campus, CampusConfig};
use dart_telemetry::MetricRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

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

/// What a step's live-heap peak may exceed the higher of the live heaps it
/// starts and ends with by: the checkpoint's 64 KiB stage fits, a table's
/// whole growth does not. With one hash map per table the feed overshot
/// by 637 968 B, the Packet Tracker map's last doubling (its 0.67 MB of
/// old buckets beside the new 1.31 MB).
const BOUND: isize = 128 << 10;

/// What the engine holds beside its two tables: the batch scratch, the
/// recirculation queue and the struct's own boxes (41 544 B measured).
const ENGINE_REST: isize = 64 << 10;

/// `campus-native`'s packets at full scale: `campus(4000, 75 s)` of the
/// default seed cut to 1 000 blocks of 1 024.
fn campus_native() -> Vec<dart_packet::PacketMeta> {
    let mut packets = campus(CampusConfig {
        connections: 4000,
        duration: 75 * SECOND,
        ..CampusConfig::default()
    })
    .packets;
    packets.truncate(1_024_000);
    packets
}

/// Run `step` and return how far the live heap's peak during it rose above
/// the live heap it left — or the one it found, for a step that gives
/// memory back, such as a rotation's sweep.
fn overshoot(step: impl FnOnce()) -> isize {
    let start = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(start, Ordering::Relaxed);
    step();
    PEAK_BYTES.load(Ordering::Relaxed) - start.max(LIVE_BYTES.load(Ordering::Relaxed))
}

#[test]
fn growth_rotation_and_checkpoint_each_cost_at_most_one_segment() {
    let packets = campus_native();
    assert_eq!(
        packets.len(),
        1_024_000,
        "the trace is shorter than the cut"
    );
    let registry = MetricRegistry::new();
    let telemetry = EngineTelemetry::register(&registry, 0);
    let resident: Vec<_> = TABLES
        .iter()
        .map(|table| {
            let row = TABLE_RESIDENT_BYTES;
            registry.gauge(row.name, &[("shard", "0"), ("table", table)], row.help)
        })
        .collect();
    let path = std::env::temp_dir().join(format!("dart-growth-alloc-{}.dsnp", std::process::id()));

    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut engine = DartEngine::new(DartConfig::default());
    engine.attach_telemetry(telemetry);
    let check = |name: &str, rise: isize, engine: &mut DartEngine| {
        // The gauges are published at every batch boundary; publish the
        // rotation's sweep too.
        engine.on_batch(&[], &mut |_: RttSample| {});
        let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
        let tables: isize = resident.iter().map(|g| g.get() as isize).sum();
        eprintln!(
            "{name}: peak {rise} B over the step's ends; the engine holds {held} B, \
             the tables report {tables} B"
        );
        assert!(
            rise <= BOUND,
            "{name}: the live heap peaked {rise} B above the step's ends (bound {BOUND} B)"
        );
        assert!(
            tables <= held && held <= tables + ENGINE_REST,
            "{name}: the tables report {tables} B, the engine holds {held} B \
             (at most {ENGINE_REST} B of it outside the tables)"
        );
    };

    let mut samples = 0u64;
    let rise = overshoot(|| {
        let mut sink = |_: RttSample| samples += 1;
        for block in packets.chunks(1024) {
            engine.on_batch(block, &mut sink);
        }
    });
    check("feed", rise, &mut engine);
    let last = packets[packets.len() - 1].ts;
    let rise = overshoot(|| {
        engine.rotate_epoch(last.saturating_sub(2 * SECOND));
    });
    check("rotate", rise, &mut engine);
    let rise = overshoot(|| {
        engine.checkpoint_to(&path).expect("checkpoint");
    });
    check("checkpoint", rise, &mut engine);
    assert!(
        samples > 10_000,
        "{samples} samples: the feed measured nothing"
    );
    std::fs::remove_file(&path).expect("clean up");
    engine.flush(&mut |_: RttSample| {});
}
