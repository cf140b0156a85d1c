//! A register array holds what it reports at every occupancy: a 2^20-slot
//! array of 24-byte records, filled past a quarter of its slots, swept to a
//! tenth and filled again, never raises the live heap more than 64 KiB
//! above its own `resident_bytes()` — no step pours the table into a new
//! form while the old one is held — and `resident_bytes()` is what the
//! allocator holds for it after every step.
//!
//! One test only: the counters below are process-wide, so nothing else may
//! run in this binary while it measures.

use dart_switch::{Packed, RegisterArray, LIVE};
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

/// A 24-byte record, the exact RT's and PT's width.
#[derive(Clone, Copy)]
struct Record(u32);

impl Packed for Record {
    type Words = [u64; 3];
    fn pack(&self) -> [u64; 3] {
        [u64::from(self.0), 0, LIVE]
    }
    fn unpack(words: &[u64; 3]) -> Record {
        Record(words[0] as u32)
    }
}

const SIZE: usize = 1 << 20;

/// One past a quarter of the slots.
const FILLED: u32 = (SIZE / 4) as u32 + 1;

/// What a step's live heap may rise above the array's resident bytes, at
/// the higher of the step's two ends.
const SLACK: isize = 64 << 10;

/// Distinct slots for distinct values: an odd multiplier permutes the
/// indices modulo a power of two.
fn slot(v: u32) -> usize {
    (v as usize).wrapping_mul(0x9E37_79B1) % SIZE
}

#[test]
fn filling_past_a_quarter_holds_the_peak_to_what_the_array_reports() {
    let base = LIVE_BYTES.load(Ordering::Relaxed);
    let mut array: RegisterArray<Record> = RegisterArray::new("t", SIZE);
    // The highest peak of any step, and its overshoot of the reported bytes.
    let highest = std::cell::Cell::new((0, 0));
    // Nothing is printed until the end: a captured print allocates.
    let step = |name: &str,
                array: &mut RegisterArray<Record>,
                work: &dyn Fn(&mut RegisterArray<Record>)| {
        let before = array.resident_bytes() as isize;
        PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
        work(array);
        let after = array.resident_bytes() as isize;
        let held = LIVE_BYTES.load(Ordering::Relaxed) - base;
        let peak = PEAK_BYTES.load(Ordering::Relaxed) - base;
        let (top, over) = highest.get();
        highest.set((top.max(peak), over.max(peak - before.max(after))));
        assert_eq!(
            held, after,
            "{name}: the array reports {after} B and holds {held} B"
        );
        assert!(
            peak <= before.max(after) + SLACK,
            "{name}: the live heap peaked at {peak} B, the array reports {before} → {after} B"
        );
    };
    // The fill in sixteenths, so that no moment of it escapes the bound.
    for part in 0..16u32 {
        step("fill", &mut array, &|a| {
            for v in (part * FILLED).div_ceil(16)..((part + 1) * FILLED).div_ceil(16) {
                a.write(slot(v), Record(v));
            }
        });
    }
    assert_eq!(array.occupancy(), FILLED as usize);
    step("sweep", &mut array, &|a| {
        a.sweep(|r| r.0 % 10 == 0);
    });
    assert_eq!(array.occupancy(), FILLED.div_ceil(10) as usize);
    for part in 0..16u32 {
        step("refill", &mut array, &|a| {
            for v in (part * FILLED).div_ceil(16)..((part + 1) * FILLED).div_ceil(16) {
                a.write(slot(v), Record(v));
            }
        });
    }
    assert_eq!(array.occupancy(), FILLED as usize);
    for v in (0..FILLED).step_by(97) {
        assert_eq!(array.read(slot(v)).map(|r| r.0), Some(v));
    }
    let (top, over) = highest.get();
    eprintln!(
        "peak {top} B, at most {over} B above the reported bytes; {} B reported at the end",
        array.resident_bytes()
    );
}
