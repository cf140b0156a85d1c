//! The allocator the allocation-bounding suites share (`block_readers`,
//! `snapshot_hostile`, `cold_tables`): the system allocator, keeping
//! per-thread books of what was asked of it. Every test — and every proptest
//! case — runs on one thread, so a measurement sees only its own work.

#![allow(dead_code)] // each suite uses its own subset of the helpers

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, remembering per thread the largest single request,
/// how many requests there were, how many bytes they asked for, and how many
/// of those bytes came through `alloc_zeroed`.
pub struct Watermark;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static REQUESTS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static ZEROED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only const-initialised
// thread-local `Cell`s (no allocation, no destructor) and tolerates the
// thread-locals being gone during thread teardown.
unsafe impl GlobalAlloc for Watermark {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        let _ = ZEROED.try_with(|zeroed| zeroed.set(zeroed.get() + layout.size()));
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
    let _ = REQUESTS.try_with(|requests| requests.set(requests.get() + 1));
    let _ = BYTES.try_with(|bytes| bytes.set(bytes.get() + size));
}

#[global_allocator]
static ALLOCATOR: Watermark = Watermark;

/// The largest single allocation `work` makes on this thread.
pub fn largest_allocation(work: impl FnOnce()) -> usize {
    LARGEST.with(|largest| largest.set(0));
    work();
    LARGEST.with(Cell::get)
}

/// How many allocations (and reallocations) `work` makes on this thread.
pub fn allocations(work: impl FnOnce()) -> usize {
    let before = REQUESTS.with(Cell::get);
    work();
    REQUESTS.with(Cell::get) - before
}

/// The bytes `work` requests on this thread — every allocation and every
/// reallocation's new size, freed or not, so an upper bound on its peak —
/// and how many of them arrived through `alloc_zeroed`.
pub fn requested_bytes(work: impl FnOnce()) -> (usize, usize) {
    let before = (BYTES.with(Cell::get), ZEROED.with(Cell::get));
    work();
    (
        BYTES.with(Cell::get) - before.0,
        ZEROED.with(Cell::get) - before.1,
    )
}
