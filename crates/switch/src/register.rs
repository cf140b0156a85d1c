//! Register arrays: stateful per-stage memory with the Tofino's access
//! discipline.
//!
//! A register array lives in exactly one pipeline stage and a packet may
//! perform **one** read-modify-write on **one** slot as it traverses that
//! stage (paper §4, "Accessing memory sequentially"). Revisiting a register
//! requires recirculating the packet. The [`RegisterArray::rmw`] access is
//! the only pattern the hardware supports; the per-access compute
//! constraints live in [`crate::salu`].
//!
//! The array models a fixed number of slots and holds what is stored in
//! them: a large array keeps its occupied slots' records packed in slot
//! order, found through its occupancy bitmap by one popcount, in arenas of
//! 256 slots that grow, and shrink after a sweep, each on its own, so a
//! growth or a shrink holds one arena twice, never the table. A small
//! array is a plain word array.

use std::fmt;

/// The bit [`Packed::pack`] sets in the last word of every record it
/// writes, so that no record — not even one whose fields are all zero — packs
/// to the all-zero words that mean "empty slot".
pub const LIVE: u64 = 1 << 63;

/// An array whose word array is at most this many bytes is that word array:
/// the frontier geometries (an RT of 4 096 × 24 B, a PT of 512 × 24 B) run
/// near full, where a packed arena's shifts are longest, and packed their
/// engine pass is ≈ 30 % slower (DESIGN.md §5f, "Cold tables").
const DENSE_FROM_BYTES: usize = 256 << 10;

/// The 64-slot groups that share one arena of a packed array. It sets both
/// costs of the layout: an insert or a clear shifts at most the
/// `64 * GROUPS` records of one arena, and beside the bitmap each arena
/// costs a `Vec` header and each group its start, 1 bit per slot at 4.
const GROUPS: usize = 4;

/// A record that lives in a register slot as fixed-width integer words, the
/// way a Tofino register does (and the way `rt_salu`/`pt_salu` in
/// `dart-core` model it): `Words` is `[u64; N]`, and an all-zero slot of the
/// word array is an empty one.
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

/// The positions of `word`'s set bits, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = (word != 0).then(|| word.trailing_zeros() as usize);
        word &= word.wrapping_sub(1);
        bit
    })
}

/// One bit per slot and their count, kept in step on every empty↔occupied
/// transition. It is a packed array's index — a slot's record is ranked
/// among its group's set bits — and the control plane's: checkpoint
/// serialization and epoch sweeps walk the bitmap, in slot order, so their
/// cost scales with occupancy (a 2^20 table walk touches 128 KiB of
/// words), and the count makes `occupancy()` O(1). A word array's data
/// plane never reads it: there, occupancy is the slot's words.
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

/// A fixed-size register array holding one `Rec` per slot, as words.
///
/// It models `size` slots whatever it holds. An array whose word array
/// would exceed 256 KiB is *packed*: each group of 64 slots is one word of
/// the occupancy bitmap, and its occupied slots' records sit in slot order
/// in the arena its [`GROUPS`] groups share, from the group's start on, so
/// slot `64g + b` is at `start + popcount(word & ((1 << b) − 1))` — one
/// bitmap load, one popcount, one record load, at any occupancy. A smaller
/// array is the word array. The form is chosen at construction and
/// invisible at the API: every access, walk and sweep reads and writes the
/// same records, in the same slot order, either way.
pub struct RegisterArray<Rec: Packed> {
    name: &'static str,
    size: usize,
    /// Word array: every slot, all-zero words for an empty one. Packed:
    /// empty, so that the word array's bounds check is also the test of
    /// the form, and a word array pays nothing for the other one.
    /// `vec![zero; size]` of plain integers reaches `alloc_zeroed`:
    /// building it writes nothing, and a slot no packet ever touched is a
    /// page the kernel never had to hand over.
    slots: Vec<Rec::Words>,
    /// Packed: one arena per [`GROUPS`] groups, their records in slot
    /// order. Word array: empty.
    arenas: Vec<Vec<Rec::Words>>,
    /// Packed: per group, the position of its first record in its arena.
    starts: Vec<u16>,
    /// Packed: the buffers of arenas that emptied, cleared, for the next
    /// empty arena that fills, so that records coming and going across the
    /// table reuse a buffer instead of allocating one per arena they touch.
    spare: Vec<Vec<Rec::Words>>,
    /// The records the arenas and the spare buffers have room for, summed
    /// as they grow and shrink.
    room: usize,
    /// An empty slot's words, for a packed read of an unoccupied slot.
    empty: Rec::Words,
    index: Occupancy,
}

impl<Rec: Packed> RegisterArray<Rec> {
    /// Allocate an array of `size` empty slots. A packed array allocates
    /// its bitmap, its group starts and its empty arenas' headers here; a
    /// word array its words and bitmap, zeroed and unwritten.
    pub fn new(name: &'static str, size: usize) -> Self {
        let dense = size.saturating_mul(std::mem::size_of::<Rec::Words>()) <= DENSE_FROM_BYTES;
        Self::with_form(name, size, dense)
    }

    fn with_form(name: &'static str, size: usize, dense: bool) -> Self {
        assert!(size > 0, "register array must have at least one slot");
        let groups = size.div_ceil(64);
        let (slots, arenas, starts) = if dense {
            (vec![Rec::Words::default(); size], Vec::new(), Vec::new())
        } else {
            let arenas = vec![Vec::new(); groups.div_ceil(GROUPS)];
            (Vec::new(), arenas, vec![0; groups])
        };
        RegisterArray {
            name,
            size,
            slots,
            arenas,
            starts,
            spare: Vec::new(),
            room: 0,
            empty: Rec::Words::default(),
            index: Occupancy {
                bitmap: vec![0; groups],
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
        self.size
    }

    /// The words of slot `idx`, all zero for an empty one.
    #[inline]
    fn words(&self, idx: usize) -> &Rec::Words {
        match self.slots.get(idx) {
            Some(slot) => slot,
            None => self.packed_words(idx),
        }
    }

    // The packed accesses are out of line, so that the access every word
    // array makes stays what it was: a bounds check and a few
    // instructions, with the record read where it lies.

    /// Where slot `idx` of a packed array has its record, or would have
    /// it: its arena, the position there, and whether it is occupied.
    #[inline]
    fn locate(&self, idx: usize) -> (usize, usize, bool) {
        assert!(
            idx < self.size,
            "slot {idx} out of range for {} slots",
            self.size
        );
        let (group, bit) = (idx / 64, idx % 64);
        let word = self.index.bitmap[group];
        let rank = (word & ((1u64 << bit) - 1)).count_ones() as usize;
        let at = usize::from(self.starts[group]) + rank;
        (group / GROUPS, at, word >> bit & 1 == 1)
    }

    #[inline(never)]
    fn packed_words(&self, idx: usize) -> &Rec::Words {
        match self.locate(idx) {
            (arena, at, true) => &self.arenas[arena][at],
            _ => &self.empty,
        }
    }

    /// Read the slot at `idx`.
    pub fn read(&self, idx: usize) -> Option<Rec> {
        get(self.words(idx))
    }

    /// Warm the slot at `idx` into cache without performing a register
    /// access: the batch pipeline issues these for a whole block before its
    /// match loop so the table probes overlap in the memory system.
    /// (`black_box` forces the load of every word, so a slot straddling two
    /// cache lines warms both. The crate forbids unsafe, so an explicit
    /// prefetch intrinsic is not available.) A packed array does nothing
    /// here: where its record lies is known only after the bitmap word is
    /// loaded, and its bitmap and arenas are a fraction of the word array
    /// they stand in for.
    #[inline]
    pub fn prefetch(&self, idx: usize) {
        if let Some(slot) = self.slots.get(idx) {
            std::hint::black_box(live(slot));
        }
    }

    /// Overwrite the slot at `idx`, returning the previous occupant.
    pub fn write(&mut self, idx: usize, value: Rec) -> Option<Rec> {
        self.rmw(idx, |old| (Some(value), old))
    }

    /// Clear the slot at `idx`, returning the previous occupant.
    pub fn clear(&mut self, idx: usize) -> Option<Rec> {
        self.rmw(idx, |old| (None, old))
    }

    /// Single-traversal read-modify-write: the only pattern the hardware
    /// supports. `f` observes the current occupant and returns the new slot
    /// contents plus a result forwarded to the caller.
    ///
    /// An access that finds a slot empty and leaves it empty stores
    /// nothing: a word array's page may still be the shared zero page, and
    /// writing zeros to it would make the kernel hand over a private one;
    /// a packed arena does not move.
    pub fn rmw<R>(&mut self, idx: usize, f: impl FnOnce(Option<Rec>) -> (Option<Rec>, R)) -> R {
        let Some(slot) = self.slots.get_mut(idx) else {
            return self.packed_rmw(idx, f);
        };
        let old = get(slot);
        let (new, result) = f(old);
        match new {
            Some(value) => {
                *slot = value.pack();
                if old.is_none() {
                    self.index.mark(idx, true);
                }
            }
            None if old.is_some() => {
                *slot = Rec::Words::default();
                self.index.mark(idx, false);
            }
            None => {}
        }
        result
    }

    /// One lookup: an update writes the record where it lies; a fill or an
    /// empty shifts the records after it in its arena by one and moves the
    /// later starts of that arena.
    #[inline(never)]
    fn packed_rmw<R>(&mut self, idx: usize, f: impl FnOnce(Option<Rec>) -> (Option<Rec>, R)) -> R {
        let (arena, at, held) = self.locate(idx);
        let records = &mut self.arenas[arena];
        let old = held.then(|| Rec::unpack(&records[at]));
        let (new, result) = f(old);
        match new {
            Some(value) if held => records[at] = value.pack(),
            Some(value) => {
                if records.capacity() == 0 {
                    *records = self.spare.pop().unwrap_or_default();
                }
                let room = records.capacity();
                if records.len() == room {
                    // Doubling from one record, so that an arena of one
                    // record holds one.
                    records.reserve_exact(room.max(1));
                }
                records.insert(at, value.pack());
                self.room += records.capacity() - room;
                self.shift(idx, true);
            }
            None if held => {
                records.remove(at);
                if records.is_empty() {
                    self.spare.push(std::mem::take(records));
                }
                self.shift(idx, false);
            }
            None => {}
        }
        result
    }

    /// Mark slot `idx` of a packed array filled or emptied, and move the
    /// starts of the groups after it in its arena by the one record.
    fn shift(&mut self, idx: usize, filled: bool) {
        self.index.mark(idx, filled);
        let group = idx / 64;
        let end = ((group / GROUPS + 1) * GROUPS).min(self.starts.len());
        for start in &mut self.starts[group + 1..end] {
            *start = if filled { *start + 1 } else { *start - 1 };
        }
    }

    /// Number of occupied slots (control-plane visibility only; a real
    /// data plane cannot scan its registers). O(1): tracked across every
    /// mutation so checkpoint serialization never needs a counting scan
    /// of a multi-megabyte array on top of its entry walk.
    pub fn occupancy(&self) -> usize {
        self.index.count
    }

    /// Bytes the array holds for its slots and its occupancy bitmap
    /// (control-plane visibility only): what the allocator holds for it.
    /// A word array's is the whole word array — an upper bound on what is
    /// resident, since a page no packet stored to never is; a packed
    /// array's, the arenas' headers and the records they have room for,
    /// and a start per group.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(self.slots.as_slice())
            + std::mem::size_of_val(self.arenas.as_slice())
            + self.spare.capacity() * std::mem::size_of::<Vec<Rec::Words>>()
            + self.room * std::mem::size_of::<Rec::Words>()
            + std::mem::size_of_val(self.starts.as_slice())
            + std::mem::size_of_val(self.index.bitmap.as_slice())
    }

    /// The record in occupied slot `idx` (a set bitmap bit).
    fn occupant(&self, idx: usize) -> Rec {
        Rec::unpack(self.words(idx))
    }

    /// Control-plane sweep: clear every occupied slot `keep` rejects,
    /// returning `(kept, cleared)`. Like [`RegisterArray::occupancy`] this
    /// is a control-plane scan — the switch CPU walking the array between
    /// epochs, not a data-plane register access. A packed array compacts
    /// each arena in one pass and shrinks it to fit, one arena at a time,
    /// so that what a rotation clears is given back.
    pub fn sweep(&mut self, mut keep: impl FnMut(&Rec) -> bool) -> (u64, u64) {
        let (mut kept, mut cleared) = (0u64, 0u64);
        if self.arenas.is_empty() {
            for group in 0..self.index.bitmap.len() {
                for bit in set_bits(self.index.bitmap[group]) {
                    let idx = group * 64 + bit;
                    if keep(&self.occupant(idx)) {
                        kept += 1;
                    } else {
                        self.clear(idx);
                        cleared += 1;
                    }
                }
            }
            return (kept, cleared);
        }
        let Self {
            arenas,
            starts,
            spare,
            room,
            index,
            ..
        } = self;
        for (arena, records) in arenas.iter_mut().enumerate() {
            // Kept records move down over the cleared, in slot order.
            let (mut from, mut to) = (0, 0);
            let groups = arena * GROUPS..((arena + 1) * GROUPS).min(starts.len());
            for (start, word) in starts[groups.clone()]
                .iter_mut()
                .zip(&mut index.bitmap[groups])
            {
                *start = to as u16;
                for bit in set_bits(*word) {
                    let record = records[from];
                    from += 1;
                    if keep(&Rec::unpack(&record)) {
                        records[to] = record;
                        to += 1;
                        kept += 1;
                    } else {
                        *word &= !(1 << bit);
                        cleared += 1;
                    }
                }
            }
            *room -= records.capacity();
            records.truncate(to);
            records.shrink_to_fit();
            *room += records.capacity();
        }
        *room -= spare.iter().map(Vec::capacity).sum::<usize>();
        *spare = Vec::new();
        index.count -= cleared as usize;
        (kept, cleared)
    }

    /// Iterate occupied slots in slot order (control-plane only). Walks the
    /// occupancy bitmap, so the cost is proportional to `size / 64` plus
    /// the number of occupied slots — not to the full slot vector.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Rec)> + '_ {
        self.index
            .bitmap
            .iter()
            .enumerate()
            .flat_map(|(group, &word)| set_bits(word).map(move |bit| group * 64 + bit))
            .map(|idx| (idx, self.occupant(idx)))
    }

    /// Control-plane slot load: place `value` at `idx`. This is the restore
    /// half of [`RegisterArray::iter`] — the switch CPU repopulating a
    /// table from a checkpoint, not a packet traversing the stage.
    pub fn load(&mut self, idx: usize, value: Rec) {
        self.write(idx, value);
    }
}

impl<Rec: Packed> fmt::Debug for RegisterArray<Rec> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegisterArray")
            .field("name", &self.name)
            .field("size", &self.size)
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

    /// A record as wide as [`Packed::Words`] gets, so that an array past
    /// the word-array line stays small enough for a model test: 1 024
    /// slots of 256 bytes are 256 KiB.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Wide(u32);

    impl Packed for Wide {
        type Words = [u64; 32];
        fn pack(&self) -> [u64; 32] {
            let mut words = [0; 32];
            words[0] = u64::from(self.0);
            words[31] = LIVE;
            words
        }
        fn unpack(words: &[u64; 32]) -> Wide {
            Wide(words[0] as u32)
        }
    }

    impl From<u32> for Wide {
        fn from(v: u32) -> Wide {
            Wide(v)
        }
    }

    impl From<Wide> for u32 {
        fn from(w: Wide) -> u32 {
            w.0
        }
    }

    /// Past the line by one bitmap word and a partial one: five arenas,
    /// the last of two groups, the second of them partial.
    const WIDE_SIZE: usize = 1024 + 70;

    fn is_packed<Rec: Packed>(array: &RegisterArray<Rec>) -> bool {
        array.slots.is_empty()
    }

    /// The form follows the size, and a packed array built empty holds its
    /// bitmap, a start per group and its arenas' headers, nothing else.
    #[test]
    fn the_form_follows_the_size() {
        let r: RegisterArray<Wide> = RegisterArray::new("t", WIDE_SIZE);
        assert!(is_packed(&r));
        let groups = WIDE_SIZE.div_ceil(64);
        let headers = groups.div_ceil(GROUPS) * std::mem::size_of::<Vec<[u64; 32]>>();
        assert_eq!(r.resident_bytes(), groups * 8 + groups * 2 + headers);
        let small: RegisterArray<Wide> = RegisterArray::new("t", 1024);
        assert!(!is_packed(&small));
        assert_eq!(small.resident_bytes(), 1024 * 256 + 16 * 8);
    }

    /// A sweep gives back what it clears: a packed 2^20 array that loses
    /// 90 % of its records shrinks its arenas to fit, to at most half its
    /// bytes, and every record still reads back after the array is filled
    /// again.
    #[test]
    fn a_sweep_that_clears_most_records_shrinks_the_segments() {
        const SIZE: usize = 1 << 20;
        const FILLED: u32 = 100_000;
        let mut r: RegisterArray<u32> = RegisterArray::new("t", SIZE);
        let slot = |v: u32| (v as usize).wrapping_mul(0x9E37_79B9) % SIZE;
        for v in 0..FILLED {
            r.write(slot(v), v);
        }
        assert!(is_packed(&r));
        let full = r.resident_bytes();
        let stored = r.occupancy();
        let (kept, cleared) = r.sweep(|v| v % 10 == 0);
        assert_eq!(kept + cleared, stored as u64);
        assert!(
            cleared * 10 >= stored as u64 * 9 - 10,
            "{cleared} of {stored} cleared"
        );
        let swept = r.resident_bytes();
        assert!(
            swept * 2 <= full,
            "{full} B before the sweep, {swept} B after"
        );
        assert_eq!(r.room, r.occupancy());
        for v in 0..FILLED {
            r.write(slot(v), v);
        }
        assert_eq!(r.occupancy(), stored);
        for (idx, v) in r.iter() {
            assert_eq!(slot(v), idx);
        }
        for v in 0..FILLED {
            let held = r.read(slot(v)).expect("refilled");
            assert_eq!(slot(held), slot(v));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_bounds_panics_when_sparse() {
        let r: RegisterArray<Wide> = RegisterArray::new("t", WIDE_SIZE);
        r.read(WIDE_SIZE);
    }

    /// Run `ops` — `(op, slot, value)`, op 0..=5 for read, write, clear,
    /// rmw, sweep and load — against `array` and against the obvious
    /// model, a `Vec` of `Option`s (what the array used to be), and require
    /// equal results, contents, occupancy and walk order; of a packed
    /// array, also that each group's start counts the records before it in
    /// its arena, and that the arenas and spare buffers hold what
    /// `resident_bytes` says.
    fn check_against_model<Rec>(
        mut array: RegisterArray<Rec>,
        ops: Vec<(u8, usize, u32)>,
    ) -> Result<(), TestCaseError>
    where
        Rec: Packed + From<u32> + Into<u32>,
    {
        let mut model: Vec<Option<u32>> = vec![None; array.size()];
        let read = |r: Option<Rec>| r.map(Into::into);
        for (op, idx, value) in ops {
            match op {
                0 => prop_assert_eq!(read(array.read(idx)), model[idx]),
                1 => prop_assert_eq!(
                    read(array.write(idx, value.into())),
                    model[idx].replace(value)
                ),
                2 => prop_assert_eq!(read(array.clear(idx)), model[idx].take()),
                3 => {
                    // One closure covering all four transitions: an empty
                    // slot stays empty or fills, a full one empties or
                    // changes, by the value's parity.
                    let step = |old: Option<u32>| match (old, value % 2) {
                        (None, 0) | (Some(_), 1) => None,
                        (None, _) => Some(value),
                        (Some(v), _) => Some(v.wrapping_add(value)),
                    };
                    let seen = array.rmw(idx, |old| {
                        let old = read(old);
                        (step(old).map(Rec::from), old)
                    });
                    prop_assert_eq!(seen, model[idx]);
                    model[idx] = step(model[idx]);
                }
                4 => {
                    let keep = |v: u32| v != value;
                    let before = model.iter().flatten().count() as u64;
                    for slot in &mut model {
                        if slot.is_some_and(|v| !keep(v)) {
                            *slot = None;
                        }
                    }
                    let kept = model.iter().flatten().count() as u64;
                    prop_assert_eq!(array.sweep(|v| keep((*v).into())), (kept, before - kept));
                }
                _ => {
                    array.load(idx, value.into());
                    model[idx] = Some(value);
                }
            }
            prop_assert_eq!(array.occupancy(), model.iter().flatten().count());
        }
        let walked: Vec<(usize, u32)> = array.iter().map(|(idx, v)| (idx, v.into())).collect();
        let expected: Vec<(usize, u32)> = model
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| slot.map(|v| (idx, v)))
            .collect();
        prop_assert_eq!(walked, expected);
        for (idx, slot) in model.iter().enumerate() {
            prop_assert_eq!(read(array.read(idx)), *slot);
            prop_assert_eq!(
                array.index.bitmap[idx / 64] >> (idx % 64) & 1 == 1,
                slot.is_some()
            );
        }
        for (group, &start) in array.starts.iter().enumerate() {
            let first = group / GROUPS * GROUPS;
            let before: u32 = array.index.bitmap[first..group]
                .iter()
                .map(|w| w.count_ones())
                .sum();
            prop_assert_eq!(u32::from(start), before);
        }
        let buffers = || array.arenas.iter().chain(&array.spare);
        prop_assert_eq!(array.room, buffers().map(Vec::capacity).sum::<usize>());
        prop_assert!(array.spare.iter().all(Vec::is_empty));
        let held: usize = array.arenas.iter().map(Vec::len).sum();
        prop_assert_eq!(
            held,
            if is_packed(&array) {
                array.occupancy()
            } else {
                0
            }
        );
        Ok(())
    }

    /// Ops where fills outweigh clears and a sweep is one op in `sweep_one_in`.
    fn filling_ops(
        size: usize,
        sweep_one_in: u16,
        len: std::ops::Range<usize>,
    ) -> impl Strategy<Value = Vec<(u8, usize, u32)>> {
        prop::collection::vec(
            (0..sweep_one_in, 0..size, 0u32..4).prop_map(|(op, idx, value)| {
                let op = if op == 0 {
                    4
                } else {
                    [0, 1, 2, 3, 5][usize::from(op % 5)]
                };
                (op, idx, value)
            }),
            len,
        )
    }

    /// Three arenas and a partial one: 3 × 256 + 70 slots.
    const SPAN: usize = 3 * 64 * GROUPS + 70;

    proptest! {
        /// Any sequence of accesses on a word array behaves like the model.
        #[test]
        fn behaves_like_a_vec_of_options(
            ops in prop::collection::vec((0u8..6, 0usize..70, 0u32..4), 0..200),
        ) {
            const SIZE: usize = 70; // two bitmap words, the second partial
            check_against_model::<u32>(RegisterArray::new("t", SIZE), ops)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The same on a packed array spanning several arenas, the last
        /// group partial, under any mix of accesses.
        #[test]
        fn behaves_like_a_vec_of_options_across_arenas(
            ops in prop::collection::vec((0u8..6, 0usize..SPAN, 0u32..4), 0..1200),
        ) {
            check_against_model::<u32>(RegisterArray::with_form("t", SPAN, false), ops)?;
        }

        /// Fills outweigh clears and a sweep is one op in 200, so the
        /// arenas run near full, where an insert shifts the most records,
        /// and are swept and refilled.
        #[test]
        fn behaves_like_a_vec_of_options_when_inserts_dominate(
            ops in filling_ops(SPAN, 200, 1500..4000),
        ) {
            check_against_model::<u32>(RegisterArray::with_form("t", SPAN, false), ops)?;
        }

        /// The widest record, on an array packed by its size.
        #[test]
        fn behaves_like_a_vec_of_options_with_wide_records(
            ops in filling_ops(WIDE_SIZE, 1000, 800..2400),
        ) {
            let array = RegisterArray::new("t", WIDE_SIZE);
            prop_assert!(is_packed(&array));
            check_against_model::<Wide>(array, ops)?;
        }
    }
}
