//! A daemon's memory over its whole life: a default-geometry 2-shard
//! monitor is restored from a checkpoint file, fed, rotated, checkpointed,
//! reloaded (a fresh monitor spawned beside the retiring one, which is then
//! flushed) and shut down, as `dartmon serve --restore` runs it. At no step
//! does the live heap rise more than 64 KiB above what the monitors alive
//! in it hold at rest, at the step's start or end: their tables' resident
//! bytes (`dart_table_resident_bytes`, printed beside each step) and the
//! rest beside them (rings, blocks, drain buffers, engines) — for a reload,
//! the retiring monitor's state and what a fresh monitor holds. A restore
//! reads the checkpoint a window at a time, so the file's size is not in
//! the bound: holding it whole, as `fs::read` did, overshoots by more than
//! the file. A fresh monitor holds under 1 MB beside its tables: its drain
//! buffers start empty and grow to what rounds deliver.
//!
//! One test only: the counters below are process-wide, so nothing else may
//! run in this binary while it measures.

use dart_core::telemetry::{EPOCH_ROTATIONS, TABLES, TABLE_RESIDENT_BYTES};
use dart_core::{DartConfig, RttMonitor, RttSample, ShardedConfig, ShardedMonitor};
use dart_packet::{PacketMeta, SECOND};
use dart_sim::scenario::{campus, CampusConfig};
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

/// What a step's live heap may peak at above the rest state of the
/// monitors alive in it. A restore's two 16 KiB read windows (the feeder's
/// and the worker's) fit, with room for a table arena's growth; the
/// checkpoint file, 357 802 B, does not.
const BOUND: isize = 64 << 10;

/// The same for a checkpoint, whose 64 KiB file stage is held while each
/// shard counts its section through a 4 KiB stage of its own, with the
/// replies that carry them (73 030 B measured).
const CHECKPOINT_BOUND: isize = BOUND + (12 << 10);

/// What a fresh monitor may hold beside its tables: under 1 MB.
const FRESH_REST: isize = 1_000_000;

const SHARDS: usize = 2;

/// A monitor with its own registry, so that its tables' gauges are its own.
struct Instrumented {
    monitor: ShardedMonitor,
    registry: MetricRegistry,
}

impl Instrumented {
    /// Spawn a monitor and wait until every worker has built its engine
    /// (which publishes the tables' gauges).
    fn spawn(cfg: ShardedConfig) -> Instrumented {
        let registry = MetricRegistry::new();
        let monitor = ShardedMonitor::spawn(cfg, Some(&registry), None);
        let spawned = Instrumented { monitor, registry };
        spawned.wait_until("the workers build their engines", |m| {
            (0..SHARDS).all(|shard| TABLES.iter().all(|t| m.resident(shard, t) > 0))
        });
        spawned
    }

    fn resident(&self, shard: usize, table: &str) -> isize {
        let row = TABLE_RESIDENT_BYTES;
        let labels = [("shard", shard.to_string()), ("table", table.to_string())];
        let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
        self.registry.gauge(row.name, &labels, row.help).get() as isize
    }

    /// The resident bytes of every shard's tables.
    fn tables(&self) -> isize {
        (0..SHARDS)
            .map(|shard| {
                TABLES
                    .iter()
                    .map(|t| self.resident(shard, t))
                    .sum::<isize>()
            })
            .sum()
    }

    fn rotations(&self) -> u64 {
        let row = EPOCH_ROTATIONS;
        (0..SHARDS)
            .map(|shard| {
                let shard = shard.to_string();
                self.registry
                    .counter(row.name, &[("shard", &shard)], row.help)
                    .get()
            })
            .sum()
    }

    fn wait_until(&self, what: &str, done: impl Fn(&Instrumented) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done(self) {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// `campus-native`'s packets: `campus(4000, 75 s)` of the default seed.
fn campus_native(n: usize) -> Vec<PacketMeta> {
    let mut packets = campus(CampusConfig {
        connections: 4000,
        duration: 75 * SECOND,
        ..CampusConfig::default()
    })
    .packets;
    packets.truncate(n);
    packets
}

/// Feed `packets` a block at a time, draining after each block as the
/// daemon's boundary does before a checkpoint.
fn feed(monitor: &mut ShardedMonitor, packets: &[PacketMeta], samples: &mut u64) {
    let mut sink = |_: RttSample| *samples += 1;
    for block in packets.chunks(1024) {
        monitor.on_batch(block, &mut sink);
        monitor.drain(&mut sink);
    }
}

/// Run `step` and return the live heap's peak during it.
fn peak(step: impl FnOnce()) -> isize {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    step();
    PEAK_BYTES.load(Ordering::Relaxed)
}

#[test]
fn every_step_of_a_daemons_life_peaks_within_64_kib_of_its_tables() {
    let packets = campus_native(1_024_000);
    assert_eq!(
        packets.len(),
        1_024_000,
        "the trace is shorter than the cut"
    );
    let (first, second) = packets.split_at(512_000);
    let cfg = ShardedConfig::new(DartConfig::default(), SHARDS);
    let path =
        std::env::temp_dir().join(format!("dart-lifecycle-alloc-{}.dsnp", std::process::id()));
    let mut samples = 0u64;

    // The checkpoint the walk starts from: a monitor that saw the first
    // half of the trace.
    {
        let mut monitor = ShardedMonitor::new(cfg);
        feed(&mut monitor, first, &mut samples);
        monitor.checkpoint_to(&path).expect("checkpoint");
        monitor.flush(&mut |_: RttSample| {});
    }
    let file = std::fs::metadata(&path).expect("checkpoint written").len();

    // What a fresh monitor holds: its empty tables and the rest.
    let floor = LIVE_BYTES.load(Ordering::Relaxed);
    let probe = Instrumented::spawn(cfg);
    let fresh_held = LIVE_BYTES.load(Ordering::Relaxed) - floor;
    eprintln!(
        "checkpoint file {file} B; a fresh monitor holds {fresh_held} B, {} B of it tables",
        probe.tables()
    );
    // Beside its tables: the rings, the engines' rest and drain buffers
    // that start empty.
    let beside = fresh_held - probe.tables();
    assert!(
        beside < FRESH_REST,
        "a fresh monitor holds {beside} B beside its tables (bound {FRESH_REST} B)"
    );
    drop(probe);

    // Each step's peak against what the monitors alive in it hold at rest:
    // at its start or its end, whichever is more.
    let held = || LIVE_BYTES.load(Ordering::Relaxed) - floor;
    let check_within = |bound: isize, name: &str, peak: isize, at_rest: isize, tables: isize| {
        let peak = peak - floor;
        eprintln!(
            "{name}: peak {peak} B, at rest {at_rest} B (+{} B); the tables report {tables} B",
            peak - at_rest
        );
        assert!(
            peak <= at_rest + bound,
            "{name}: the live heap peaked {} B above the {at_rest} B the monitors hold \
             at rest (bound {bound} B)",
            peak - at_rest
        );
    };
    let check = |name: &str, peak: isize, at_rest: isize, tables: isize| {
        check_within(BOUND, name, peak, at_rest, tables)
    };

    let mut live = None;
    let start = held();
    let top = peak(|| {
        let mut spawned = Instrumented::spawn(cfg);
        spawned.monitor.restore_file(&path).expect("restore");
        live = Some(spawned);
    });
    let mut live = live.expect("restored");
    check("restore", top, start.max(held()), live.tables());

    let start = held();
    let top = peak(|| feed(&mut live.monitor, second, &mut samples));
    check("feed", top, start.max(held()), live.tables());

    let start = held();
    let rotations = live.rotations();
    let top = peak(|| {
        let last = second[second.len() - 1].ts;
        live.monitor.rotate_epoch(last.saturating_sub(2 * SECOND));
        live.wait_until("every shard rotates", |m| {
            m.rotations() == rotations + SHARDS as u64
        });
    });
    check("rotate", top, start.max(held()), live.tables());

    let start = held();
    let top = peak(|| {
        live.monitor.checkpoint_to(&path).expect("checkpoint");
    });
    check_within(
        CHECKPOINT_BOUND,
        "checkpoint",
        top,
        start.max(held()),
        live.tables(),
    );

    // The retiring monitor's state, and a fresh monitor beside it.
    let start = held();
    let mut fresh = None;
    let top = peak(|| {
        let spawned = Instrumented::spawn(cfg);
        live.monitor.flush(&mut |_: RttSample| {});
        fresh = Some(spawned);
    });
    drop(live);
    let fresh = fresh.expect("spawned");
    check("reload", top, start + fresh_held, fresh.tables());

    let start = held();
    let tables = fresh.tables();
    let top = peak(|| {
        let mut fresh = fresh;
        fresh.monitor.flush(&mut |_: RttSample| {});
    });
    check("shutdown", top, start.max(held()), tables);

    assert!(
        samples > 10_000,
        "{samples} samples: the feed measured nothing"
    );
    assert!(
        file > 4 * BOUND as u64,
        "a {file}-byte checkpoint is too small to tell a held file from a window"
    );
    std::fs::remove_file(&path).expect("clean up");
}
