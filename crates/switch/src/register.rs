//! Register arrays: stateful per-stage memory with the Tofino's access
//! discipline.
//!
//! A register array lives in exactly one pipeline stage and a packet may
//! perform **one** read-modify-write on **one** slot as it traverses that
//! stage (paper §4, "Accessing memory sequentially"). Revisiting a register
//! requires recirculating the packet. The [`RegisterArray::rmw`] access is
//! the only pattern the hardware supports; the per-access compute
//! constraints live in [`crate::salu`].

use std::fmt;

/// The bit [`Packed::pack`] sets in the last word of every record it
/// writes, so that no record — not even one whose fields are all zero — packs
/// to the all-zero words that mean "empty slot".
pub const LIVE: u64 = 1 << 63;

/// A record that lives in a register slot as fixed-width integer words, the
/// way a Tofino register does (and the way `rt_salu`/`pt_salu` in
/// `dart-core` model it): `Words` is `[u64; N]`, the slot array is a plain
/// `Vec<[u64; N]>`, and an all-zero slot is an empty one.
pub trait Packed: Copy {
    /// The word form, `[u64; N]`.
    type Words: Copy + Default + AsRef<[u64]>;

    /// The record as words. Must set [`LIVE`] in a bit no field uses (a
    /// record with no spare bit takes one more word rather than giving up a
    /// value bit), so the result is never all zero.
    fn pack(&self) -> Self::Words;

    /// The record `words` were packed from.
    fn unpack(words: &Self::Words) -> Self;
}

/// Is this slot occupied? Decided in the slot itself: OR of its words.
#[inline]
fn live<W: AsRef<[u64]>>(words: &W) -> bool {
    words.as_ref().iter().fold(0, |acc, w| acc | w) != 0
}

/// The record in `slot`, if it holds one.
#[inline]
fn get<Rec: Packed>(slot: &Rec::Words) -> Option<Rec> {
    live(slot).then(|| Rec::unpack(slot))
}

/// The control plane's index of occupied slots: one bit per slot and their
/// count, kept in step on every empty↔occupied transition. Checkpoint
/// serialization and epoch sweeps walk the bitmap instead of the slot
/// vector, so their cost scales with occupancy — a sparse 2^20 table walk
/// touches 128 KiB of words, not tens of megabytes of slots (most of them
/// pages that do not exist yet) — and the count makes `occupancy()` O(1).
/// The data plane never reads it: there, occupancy is the slot's words.
struct Occupancy {
    bitmap: Vec<u64>,
    count: usize,
}

impl Occupancy {
    #[inline]
    fn mark(&mut self, idx: usize, occupied: bool) {
        if occupied {
            self.count += 1;
            self.bitmap[idx / 64] |= 1u64 << (idx % 64);
        } else {
            self.count -= 1;
            self.bitmap[idx / 64] &= !(1u64 << (idx % 64));
        }
    }
}

/// Store `new` into `slot` — slot `idx`, which held a record iff `was`.
/// Empty over empty stores nothing: the slot's page may still be the shared
/// zero page, and writing zeros to it would make the kernel hand over a
/// private one.
#[inline]
fn put<Rec: Packed>(
    slot: &mut Rec::Words,
    index: &mut Occupancy,
    idx: usize,
    was: bool,
    new: Option<Rec>,
) {
    match new {
        Some(value) => {
            *slot = value.pack();
            if !was {
                index.mark(idx, true);
            }
        }
        None if was => {
            *slot = Rec::Words::default();
            index.mark(idx, false);
        }
        None => {}
    }
}

/// A fixed-size register array holding one `Rec` per slot, as words.
pub struct RegisterArray<Rec: Packed> {
    name: &'static str,
    /// `vec![zero; size]` of plain integers reaches `alloc_zeroed`: building
    /// the array writes nothing, and a slot no packet ever touched is a page
    /// the kernel never had to hand over.
    slots: Vec<Rec::Words>,
    index: Occupancy,
}

impl<Rec: Packed> RegisterArray<Rec> {
    /// Allocate an array of `size` empty slots.
    pub fn new(name: &'static str, size: usize) -> Self {
        assert!(size > 0, "register array must have at least one slot");
        RegisterArray {
            name,
            slots: vec![Rec::Words::default(); size],
            index: Occupancy {
                bitmap: vec![0; size.div_ceil(64)],
                count: 0,
            },
        }
    }

    /// Array name (for resource reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of slots.
    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// Read the slot at `idx`.
    pub fn read(&self, idx: usize) -> Option<Rec> {
        get(&self.slots[idx])
    }

    /// Warm the slot at `idx` into cache without performing a register
    /// access: the batch pipeline issues these for a whole block before its
    /// match loop so the table probes overlap in the memory system.
    /// (`black_box` forces the load of every word, so a slot straddling two
    /// cache lines warms both; the crate forbids unsafe, so an explicit
    /// prefetch intrinsic is not available.)
    #[inline]
    pub fn prefetch(&self, idx: usize) {
        std::hint::black_box(live(&self.slots[idx]));
    }

    /// Overwrite the slot at `idx`, returning the previous occupant.
    pub fn write(&mut self, idx: usize, value: Rec) -> Option<Rec> {
        let slot = &mut self.slots[idx];
        let prev = get(slot);
        put(slot, &mut self.index, idx, prev.is_some(), Some(value));
        prev
    }

    /// Clear the slot at `idx`, returning the previous occupant.
    pub fn clear(&mut self, idx: usize) -> Option<Rec> {
        let slot = &mut self.slots[idx];
        let prev = get::<Rec>(slot);
        put::<Rec>(slot, &mut self.index, idx, prev.is_some(), None);
        prev
    }

    /// Single-traversal read-modify-write: the only pattern the hardware
    /// supports. `f` observes the current occupant and returns the new slot
    /// contents plus a result forwarded to the caller.
    pub fn rmw<R>(&mut self, idx: usize, f: impl FnOnce(Option<Rec>) -> (Option<Rec>, R)) -> R {
        let slot = &mut self.slots[idx];
        let old = get(slot);
        let was = old.is_some();
        let (new, result) = f(old);
        put(slot, &mut self.index, idx, was, new);
        result
    }

    /// Number of occupied slots (control-plane visibility only; a real
    /// data plane cannot scan its registers). O(1): tracked across every
    /// mutation so checkpoint serialization never needs a counting scan
    /// of a multi-megabyte array on top of its entry walk.
    pub fn occupancy(&self) -> usize {
        self.index.count
    }

    /// Control-plane sweep: clear every occupied slot `keep` rejects,
    /// returning `(kept, cleared)`. Like [`RegisterArray::occupancy`] this
    /// is a control-plane scan — the switch CPU walking the array between
    /// epochs, not a data-plane register access.
    pub fn sweep(&mut self, mut keep: impl FnMut(&Rec) -> bool) -> (u64, u64) {
        let (mut kept, mut cleared) = (0u64, 0u64);
        for word_idx in 0..self.index.bitmap.len() {
            let mut word = self.index.bitmap[word_idx];
            while word != 0 {
                let idx = word_idx * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let slot = &mut self.slots[idx];
                if keep(&Rec::unpack(slot)) {
                    kept += 1;
                } else {
                    put::<Rec>(slot, &mut self.index, idx, true, None);
                    cleared += 1;
                }
            }
        }
        (kept, cleared)
    }

    /// Iterate occupied slots (control-plane only). Walks the occupancy
    /// bitmap, so the cost is proportional to `size / 64` plus the number
    /// of occupied slots — not to the full slot vector.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Rec)> + '_ {
        self.index
            .bitmap
            .iter()
            .enumerate()
            .flat_map(|(word_idx, &bits)| {
                let mut word = bits;
                std::iter::from_fn(move || {
                    if word == 0 {
                        return None;
                    }
                    let bit = word.trailing_zeros();
                    word &= word - 1;
                    Some(word_idx * 64 + bit as usize)
                })
            })
            .map(|idx| (idx, Rec::unpack(&self.slots[idx])))
    }

    /// Control-plane slot load: place `value` at `idx`. This is the restore
    /// half of [`RegisterArray::iter`] — the switch CPU repopulating a table
    /// from a checkpoint, not a packet traversing the stage.
    pub fn load(&mut self, idx: usize, value: Rec) {
        let slot = &mut self.slots[idx];
        put(slot, &mut self.index, idx, live(slot), Some(value));
    }
}

impl<Rec: Packed> fmt::Debug for RegisterArray<Rec> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegisterArray")
            .field("name", &self.name)
            .field("size", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The suites' records: an integer in one word, LIVE beside it.
    impl Packed for u32 {
        type Words = [u64; 1];
        fn pack(&self) -> [u64; 1] {
            [u64::from(*self) | LIVE]
        }
        fn unpack(words: &[u64; 1]) -> u32 {
            words[0] as u32
        }
    }

    impl Packed for u8 {
        type Words = [u64; 1];
        fn pack(&self) -> [u64; 1] {
            [u64::from(*self) | LIVE]
        }
        fn unpack(words: &[u64; 1]) -> u8 {
            words[0] as u8
        }
    }

    #[test]
    fn read_write_clear() {
        let mut r: RegisterArray<u32> = RegisterArray::new("t", 4);
        assert_eq!(r.read(0), None);
        assert_eq!(r.write(0, 42), None);
        assert_eq!(r.read(0), Some(42));
        assert_eq!(r.write(0, 43), Some(42));
        assert_eq!(r.clear(0), Some(43));
        assert_eq!(r.read(0), None);
    }

    #[test]
    fn rmw_replaces_and_returns() {
        let mut r: RegisterArray<u32> = RegisterArray::new("t", 2);
        r.write(1, 7);
        let evicted = r.rmw(1, |old| (Some(9), old));
        assert_eq!(evicted, Some(7));
        assert_eq!(r.read(1), Some(9));
    }

    #[test]
    fn occupancy_counts() {
        let mut r: RegisterArray<u8> = RegisterArray::new("t", 8);
        r.write(1, 1);
        r.write(5, 2);
        assert_eq!(r.occupancy(), 2);
        r.clear(1);
        assert_eq!(r.occupancy(), 1);
    }

    /// The record whose every field is zero is a record: it reads back
    /// occupied, is counted, walked, swept and cleared like any other.
    #[test]
    fn the_all_zero_record_is_occupied() {
        let mut r: RegisterArray<u32> = RegisterArray::new("t", 4);
        assert_eq!(r.write(2, 0), None);
        assert_eq!(r.read(2), Some(0));
        assert_eq!(r.occupancy(), 1);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![(2, 0)]);
        assert_eq!(r.rmw(2, |old| (old, old)), Some(0));
        assert_eq!(r.sweep(|v| *v == 0), (1, 0));
        assert_eq!(r.clear(2), Some(0));
        assert_eq!(r.occupancy(), 0);
    }

    #[test]
    fn sweep_clears_rejected_without_counting_accesses() {
        let mut r: RegisterArray<u8> = RegisterArray::new("t", 8);
        r.write(0, 10);
        r.write(3, 20);
        r.write(5, 30);
        let (kept, cleared) = r.sweep(|v| *v >= 20);
        assert_eq!((kept, cleared), (2, 1));
        assert_eq!(r.occupancy(), 2);
        assert_eq!(r.read(0), None);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        let r: RegisterArray<u8> = RegisterArray::new("t", 2);
        r.read(2);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_size_rejected() {
        let _ = RegisterArray::<u8>::new("t", 0);
    }

    proptest! {
        /// Any sequence of accesses against the obvious model — a
        /// `Vec` of `Option`s, which is what the array used to be — leaves
        /// equal contents, occupancy and walk order.
        #[test]
        fn behaves_like_a_vec_of_options(
            ops in prop::collection::vec((0u8..6, 0usize..70, 0u32..4), 0..200),
        ) {
            const SIZE: usize = 70; // two bitmap words, the second partial
            let mut array: RegisterArray<u32> = RegisterArray::new("t", SIZE);
            let mut model: Vec<Option<u32>> = vec![None; SIZE];
            for (op, idx, value) in ops {
                match op {
                    0 => prop_assert_eq!(array.read(idx), model[idx]),
                    1 => prop_assert_eq!(array.write(idx, value), model[idx].replace(value)),
                    2 => prop_assert_eq!(array.clear(idx), model[idx].take()),
                    3 => {
                        // One closure covering all four transitions: an empty
                        // slot stays empty or fills, a full one empties or
                        // changes, by the value's parity.
                        let step = |old: Option<u32>| match (old, value % 2) {
                            (None, 0) | (Some(_), 1) => None,
                            (None, _) => Some(value),
                            (Some(v), _) => Some(v.wrapping_add(value)),
                        };
                        let seen = array.rmw(idx, |old| (step(old), old));
                        prop_assert_eq!(seen, model[idx]);
                        model[idx] = step(model[idx]);
                    }
                    4 => {
                        let keep = |v: &u32| *v != value;
                        let before = model.iter().flatten().count() as u64;
                        for slot in &mut model {
                            if slot.is_some_and(|v| !keep(&v)) {
                                *slot = None;
                            }
                        }
                        let kept = model.iter().flatten().count() as u64;
                        prop_assert_eq!(array.sweep(keep), (kept, before - kept));
                    }
                    _ => {
                        array.load(idx, value);
                        model[idx] = Some(value);
                    }
                }
                prop_assert_eq!(array.occupancy(), model.iter().flatten().count());
            }
            let walked: Vec<(usize, u32)> = array.iter().collect();
            let expected: Vec<(usize, u32)> = model
                .iter()
                .enumerate()
                .filter_map(|(idx, slot)| slot.map(|v| (idx, v)))
                .collect();
            prop_assert_eq!(walked, expected);
            for (idx, slot) in model.iter().enumerate() {
                prop_assert_eq!(get::<u32>(&array.slots[idx]), *slot);
                prop_assert_eq!(array.index.bitmap[idx / 64] >> (idx % 64) & 1 == 1, slot.is_some());
            }
        }
    }
}
