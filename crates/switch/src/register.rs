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
//! them: a large array keeps only its occupied slots, split by slot index
//! across 64 maps that grow, and shrink after a sweep, one at a time, until
//! a quarter of its slots are occupied, and is a plain word array from then
//! on. A growth or a shrink holds one of the 64 maps twice, never the table.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The bit [`Packed::pack`] sets in the last word of every record it
/// writes, so that no record — not even one whose fields are all zero — packs
/// to the all-zero words that mean "empty slot".
pub const LIVE: u64 = 1 << 63;

/// An array whose dense form is at most this many bytes is dense from
/// construction: the frontier geometries (an RT of 4 096 × 24 B, a PT of
/// 512 × 24 B) never see the maps.
const DENSE_FROM_BYTES: usize = 256 << 10;

/// A sparse array turns dense, once and for good, when more than
/// `size / DENSE_SHARE` of its slots are occupied: past that point the maps'
/// buckets cost about what the word array does, and the word array's
/// accesses are cheaper.
const DENSE_SHARE: usize = 4;

/// The maps a sparse array's occupied slots are split across. A map that
/// doubles holds its old buckets beside its new ones until the move ends;
/// split 64 ways, that transient is a 64th of the store.
const SEGMENTS: usize = 64;

/// A sweep shrinks a segment to fit when it is left holding fewer than
/// `capacity / SHRINK_SHARE` records, one segment at a time.
const SHRINK_SHARE: usize = 4;

/// The multiplier whose product's top bits pick a slot's segment. It is
/// not [`SlotHasher`]'s: hashbrown takes a bucket from the low bits of
/// that product and a tag from its top seven, and a segment picked from
/// either would leave every key in a segment on a fraction of the buckets
/// or sharing a few tags. Nor is any odd constant as good as another: the
/// segment must not correlate with the index's low bits, which decide the
/// bucket, and with some constants (the golden ratio's among them) a
/// segment's indices reach half the buckets that as many random keys
/// would. With this one they reach as many, at every table size from 2^12
/// to 2^20 slots and every map size up to a segment's share of them.
const SEGMENT_MUL: u64 = 0xE703_7ED1_A0B4_28DB;

/// The segment slot `key` of a sparse array lives in.
#[inline]
fn segment(key: u32) -> usize {
    (u64::from(key).wrapping_mul(SEGMENT_MUL) >> (64 - SEGMENTS.trailing_zeros())) as usize
}

/// A record that lives in a register slot as fixed-width integer words, the
/// way a Tofino register does (and the way `rt_salu`/`pt_salu` in
/// `dart-core` model it): `Words` is `[u64; N]`, and an all-zero slot of the
/// dense word array is an empty one.
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
/// serialization and epoch sweeps walk the bitmap, in slot order, whatever
/// form the slots are stored in, so their cost scales with occupancy — a
/// sparse 2^20 table walk touches 128 KiB of words — and the count makes
/// `occupancy()` O(1) and decides when a sparse array turns dense. The data
/// plane never reads it: there, occupancy is the slot's words or the map's
/// key.
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

/// The segments' hasher. A slot index is a CRC output reduced to the table
/// size, so its low bits are already uniform but its high bits are zero;
/// hashbrown takes the bucket from the low bits and a tag from the top
/// seven, and one odd multiply fills those. It is not keyed: the keys are
/// indices below `size`, so flows chosen to collide can put at most
/// `size / buckets` keys on one probe sequence — under a thousand of a
/// 2^20-slot table, tens of 16-bucket group probes — and a fixed hash keeps
/// the maps' growth, and the bytes they report, the same from run to run.
/// The segment is a function of the index too, so flows chosen to land in
/// one segment can fill at most its `size / 64` indices: that segment then
/// grows as the single map of an unsegmented array would, never worse.
#[derive(Default)]
struct SlotHasher(u64);

impl Hasher for SlotHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u32(&mut self, idx: u32) {
        self.0 = u64::from(idx).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One segment of a sparse array: occupied slots' words, by index.
type SlotMap<W> = HashMap<u32, W, BuildHasherDefault<SlotHasher>>;

/// Bytes hashbrown allocates for a map of `capacity`: a power of two of
/// buckets, each a key and the words, then one control byte per bucket
/// and a trailing 16-byte group. `capacity()` is what the buckets hold at
/// the load factor of 7/8 less any tombstones, so the bucket count is the
/// power of two that capacity rounds up to.
fn map_bytes<W>(capacity: usize) -> usize {
    let buckets = match capacity {
        0 => return 0,
        cap if cap < 8 => (cap + 1).next_power_of_two(),
        cap => (cap * 8 / 7).next_power_of_two(),
    };
    const GROUP: usize = 16;
    (buckets * std::mem::size_of::<(u32, W)>()).next_multiple_of(GROUP) + buckets + GROUP
}

/// A fixed-size register array holding one `Rec` per slot, as words.
///
/// It models `size` slots whatever it holds. An array whose word array
/// would exceed 256 KiB starts *sparse* — 64 maps from slot index to the
/// words of the occupied slots, each slot's map picked by its index — and
/// turns *dense*, the word array, once and for good when more than a
/// quarter of its slots are occupied; a smaller array is dense from
/// construction. The form is invisible at the API: every access, walk and
/// sweep reads and writes the same records, in the same slot order, either
/// way.
pub struct RegisterArray<Rec: Packed> {
    name: &'static str,
    size: usize,
    /// Dense: every slot, all-zero words for an empty one. Sparse: empty,
    /// so that the dense access's bounds check is also the test of the
    /// form, and a dense table pays nothing for the sparse one.
    /// `vec![zero; size]` of plain integers reaches `alloc_zeroed`:
    /// building it writes nothing, and a slot no packet ever touched is a
    /// page the kernel never had to hand over.
    slots: Vec<Rec::Words>,
    /// Sparse: the occupied slots, in [`SEGMENTS`] maps. Dense: empty, no
    /// allocation.
    sparse: Vec<SlotMap<Rec::Words>>,
    /// An empty slot's words, for a sparse read of a slot the map lacks.
    empty: Rec::Words,
    index: Occupancy,
}

impl<Rec: Packed> RegisterArray<Rec> {
    /// Allocate an array of `size` empty slots. Sparse arrays allocate
    /// only their occupancy bitmap and their empty segments here; dense
    /// ones their word array and bitmap, zeroed and unwritten.
    pub fn new(name: &'static str, size: usize) -> Self {
        assert!(size > 0, "register array must have at least one slot");
        let dense_bytes = size.saturating_mul(std::mem::size_of::<Rec::Words>());
        let dense = dense_bytes <= DENSE_FROM_BYTES || u32::try_from(size).is_err();
        RegisterArray {
            name,
            size,
            slots: if dense {
                vec![Rec::Words::default(); size]
            } else {
                Vec::new()
            },
            sparse: if dense {
                Vec::new()
            } else {
                (0..SEGMENTS).map(|_| SlotMap::default()).collect()
            },
            empty: Rec::Words::default(),
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
        self.size
    }

    /// The map key of slot `idx` of a sparse array: the bounds check the
    /// word array's indexing makes for a dense one.
    #[inline]
    fn key(&self, idx: usize) -> u32 {
        assert!(
            idx < self.size,
            "slot {idx} out of range for {} slots",
            self.size
        );
        idx as u32
    }

    /// The words of slot `idx`, all zero for an empty one.
    #[inline]
    fn words(&self, idx: usize) -> &Rec::Words {
        match self.slots.get(idx) {
            Some(slot) => slot,
            None => self.sparse_words(idx),
        }
    }

    // The sparse accesses are out of line, so that the dense access every
    // small table makes stays what it was: a bounds check and a few
    // instructions, with the record read where it lies.

    #[inline(never)]
    fn sparse_words(&self, idx: usize) -> &Rec::Words {
        let key = self.key(idx);
        self.sparse[segment(key)].get(&key).unwrap_or(&self.empty)
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
    /// prefetch intrinsic is not available.) A sparse array does nothing
    /// here: the warming read would be a whole map probe, the access that
    /// follows probes again, and the map is a fraction of the word array it
    /// stands in for.
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
    /// nothing: a dense slot's page may still be the shared zero page, and
    /// writing zeros to it would make the kernel hand over a private one;
    /// a sparse array gains no key.
    pub fn rmw<R>(&mut self, idx: usize, f: impl FnOnce(Option<Rec>) -> (Option<Rec>, R)) -> R {
        let Some(slot) = self.slots.get_mut(idx) else {
            return self.sparse_rmw(idx, f);
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

    /// One probe: the entry found is the one updated, filled or removed.
    #[inline(never)]
    fn sparse_rmw<R>(&mut self, idx: usize, f: impl FnOnce(Option<Rec>) -> (Option<Rec>, R)) -> R {
        let key = self.key(idx);
        let (was, now, result) = match self.sparse[segment(key)].entry(key) {
            Entry::Occupied(mut slot) => {
                let (new, result) = f(Some(Rec::unpack(slot.get())));
                match new {
                    Some(value) => *slot.get_mut() = value.pack(),
                    None => {
                        slot.remove();
                    }
                }
                (true, new.is_some(), result)
            }
            Entry::Vacant(slot) => {
                let (new, result) = f(None);
                if let Some(value) = new {
                    slot.insert(value.pack());
                }
                (false, new.is_some(), result)
            }
        };
        if was != now {
            self.index.mark(idx, now);
            if self.index.count > self.size / DENSE_SHARE {
                self.densify();
            }
        }
        result
    }

    /// Pour a sparse array into the word array, for good, a segment at a
    /// time: each map is freed as soon as it is poured.
    #[cold]
    fn densify(&mut self) {
        let mut slots = vec![Rec::Words::default(); self.size];
        for map in std::mem::take(&mut self.sparse) {
            for (key, words) in map {
                slots[key as usize] = words;
            }
        }
        self.slots = slots;
    }

    /// Number of occupied slots (control-plane visibility only; a real
    /// data plane cannot scan its registers). O(1): tracked across every
    /// mutation so checkpoint serialization never needs a counting scan
    /// of a multi-megabyte array on top of its entry walk.
    pub fn occupancy(&self) -> usize {
        self.index.count
    }

    /// Bytes the array holds for its slots and its occupancy bitmap
    /// (control-plane visibility only). Dense, that is the whole word array
    /// — an upper bound on what is resident, since a page no packet stored
    /// to never is; sparse, the segment headers and the sum over segments
    /// of each map's buckets, each a key, the words and a control byte.
    pub fn resident_bytes(&self) -> usize {
        let maps: usize = self
            .sparse
            .iter()
            .map(|map| map_bytes::<Rec::Words>(map.capacity()))
            .sum();
        std::mem::size_of_val(self.slots.as_slice())
            + std::mem::size_of_val(self.sparse.as_slice())
            + maps
            + std::mem::size_of_val(self.index.bitmap.as_slice())
    }

    /// The record in occupied slot `idx` (a set bitmap bit).
    fn occupant(&self, idx: usize) -> Rec {
        Rec::unpack(self.words(idx))
    }

    /// Control-plane sweep: clear every occupied slot `keep` rejects,
    /// returning `(kept, cleared)`. Like [`RegisterArray::occupancy`] this
    /// is a control-plane scan — the switch CPU walking the array between
    /// epochs, not a data-plane register access. A sparse array then
    /// shrinks to fit each segment left under a quarter full, one segment
    /// at a time, so that what a rotation clears is given back.
    pub fn sweep(&mut self, mut keep: impl FnMut(&Rec) -> bool) -> (u64, u64) {
        let (mut kept, mut cleared) = (0u64, 0u64);
        for word_idx in 0..self.index.bitmap.len() {
            let mut word = self.index.bitmap[word_idx];
            while word != 0 {
                let idx = word_idx * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if keep(&self.occupant(idx)) {
                    kept += 1;
                } else {
                    self.clear(idx);
                    cleared += 1;
                }
            }
        }
        for map in &mut self.sparse {
            if map.len() < map.capacity() / SHRINK_SHARE {
                map.shrink_to_fit();
            }
        }
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
            .map(|idx| (idx, self.occupant(idx)))
    }

    /// Control-plane slot load: place `value` at `idx`, in whichever form
    /// the array is in. This is the restore half of
    /// [`RegisterArray::iter`] — the switch CPU repopulating a table from a
    /// checkpoint, not a packet traversing the stage.
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
    /// the dense-from-construction line stays small enough for a model
    /// test: 1 024 slots of 256 bytes are 256 KiB.
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

    /// Past the line by one bitmap word and a partial one.
    const WIDE_SIZE: usize = 1024 + 70;

    fn is_dense<Rec: Packed>(array: &RegisterArray<Rec>) -> bool {
        !array.slots.is_empty()
    }

    #[test]
    fn a_large_array_starts_sparse_and_turns_dense_past_a_quarter() {
        let mut r: RegisterArray<Wide> = RegisterArray::new("t", WIDE_SIZE);
        assert!(!is_dense(&r));
        let bitmap = WIDE_SIZE.div_ceil(64) * 8;
        let segments = SEGMENTS * std::mem::size_of::<SlotMap<[u64; 32]>>();
        assert_eq!(r.resident_bytes(), bitmap + segments);
        let quarter = WIDE_SIZE / DENSE_SHARE;
        for idx in 0..quarter {
            r.write(idx * 3, Wide(idx as u32));
        }
        assert!(!is_dense(&r));
        assert!(r.resident_bytes() < WIDE_SIZE * 256 / 2);
        r.load(1, Wide(7));
        assert!(is_dense(&r));
        assert_eq!(r.resident_bytes(), WIDE_SIZE * 256 + bitmap);
        // Dense for good: emptying it does not bring the map back.
        let (kept, cleared) = r.sweep(|_| false);
        assert_eq!((kept, cleared), (0, quarter as u64 + 1));
        assert!(is_dense(&r));
        assert_eq!(r.read(3), None);
        // A small array never sees the map.
        assert!(is_dense(&RegisterArray::<Wide>::new("t", 1024)));
    }

    /// The segment is an even split of the index space, and it is not
    /// decided by the bits hashbrown uses: the indices of one segment reach
    /// as many buckets of a map sized for them as random keys would, and
    /// every tag.
    #[test]
    fn segments_split_the_indices_evenly() {
        const SIZE: u32 = 1 << 20;
        let mut counts = [0u32; SEGMENTS];
        for key in 0..SIZE {
            counts[segment(key)] += 1;
        }
        let even = SIZE / SEGMENTS as u32;
        for (seg, &n) in counts.iter().enumerate() {
            assert!(
                n.abs_diff(even) < even / 100,
                "segment {seg}: {n} of {SIZE}"
            );
        }
        let hash = |key: u32| {
            let mut h = SlotHasher::default();
            h.write_u32(key);
            h.finish()
        };
        // One segment's keys, in a map of 2^14 buckets, its size alone.
        let keys: Vec<u32> = (0..SIZE).filter(|&k| segment(k) == 5).collect();
        let mut buckets = vec![false; 1 << 14];
        let mut tags = [false; 128];
        for &key in &keys {
            buckets[(hash(key) & ((1 << 14) - 1)) as usize] = true;
            tags[(hash(key) >> 57) as usize] = true;
        }
        let reached = buckets.iter().filter(|&&b| b).count();
        // Uniform keys reach 1 − 1/e ≈ 63.2 % of as many buckets as keys.
        assert!(reached > (1 << 14) * 62 / 100, "{reached} buckets reached");
        assert!(tags.iter().all(|&t| t), "a tag value is never used");
    }

    /// A sweep gives back what it clears: a sparse 2^20 array that loses
    /// 90 % of its records shrinks the segments left under a quarter full,
    /// to at most half its bytes, and every record still reads back after
    /// the array is filled again.
    #[test]
    fn a_sweep_that_clears_most_records_shrinks_the_segments() {
        const SIZE: usize = 1 << 20;
        const FILLED: u32 = 100_000;
        let mut r: RegisterArray<u32> = RegisterArray::new("t", SIZE);
        let slot = |v: u32| (v as usize).wrapping_mul(0x9E37_79B9) % SIZE;
        for v in 0..FILLED {
            r.write(slot(v), v);
        }
        assert!(!is_dense(&r));
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

    /// `resident_bytes` is what the segments allocate: each map's buckets
    /// from its capacity, a power of two of them however many tombstones
    /// a map holds.
    #[test]
    fn map_bytes_follow_hashbrown_buckets() {
        let mut map: SlotMap<[u64; 3]> = SlotMap::default();
        assert_eq!(map_bytes::<[u64; 3]>(map.capacity()), 0);
        map.insert(1, [1; 3]);
        // Four buckets of 32 B, four control bytes and a trailing group.
        assert_eq!(map_bytes::<[u64; 3]>(map.capacity()), 4 * 32 + 4 + 16);
        for key in 0..28_000 {
            map.insert(key, [1; 3]);
        }
        let full = 32_768 * 33 + 16;
        assert_eq!(map_bytes::<[u64; 3]>(map.capacity()), full);
        for key in (0..28_000).step_by(2) {
            map.remove(&key);
        }
        assert_eq!(map_bytes::<[u64; 3]>(map.capacity()), full);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_bounds_panics_when_sparse() {
        let r: RegisterArray<Wide> = RegisterArray::new("t", WIDE_SIZE);
        r.read(WIDE_SIZE);
    }

    /// Run `ops` — `(op, slot, value)`, op 0..=5 for read, write, clear,
    /// rmw, sweep and load — against an array of `size` slots and against
    /// the obvious model, a `Vec` of `Option`s (what the array used to be),
    /// and require equal results, contents, occupancy and walk order.
    fn check_against_model<Rec>(
        size: usize,
        ops: Vec<(u8, usize, u32)>,
    ) -> Result<(), TestCaseError>
    where
        Rec: Packed + From<u32> + Into<u32>,
    {
        let mut array: RegisterArray<Rec> = RegisterArray::new("t", size);
        let mut model: Vec<Option<u32>> = vec![None; size];
        let dense_bytes = size * std::mem::size_of::<Rec::Words>();
        prop_assert_eq!(is_dense(&array), dense_bytes <= DENSE_FROM_BYTES);
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
        Ok(())
    }

    proptest! {
        /// Any sequence of accesses on a dense array behaves like the model.
        #[test]
        fn behaves_like_a_vec_of_options(
            ops in prop::collection::vec((0u8..6, 0usize..70, 0u32..4), 0..200),
        ) {
            const SIZE: usize = 70; // two bitmap words, the second partial
            check_against_model::<u32>(SIZE, ops)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The same on an array that starts sparse: fills outweigh clears
        /// and a sweep is one op in 1 000, so nearly every sequence crosses a quarter
        /// of the slots occupied, and keep going in the dense form.
        #[test]
        fn behaves_like_a_vec_of_options_across_the_turn_to_dense(
            ops in prop::collection::vec(
                (0u16..1000, 0usize..WIDE_SIZE, 0u32..4)
                    .prop_map(|(op, idx, value)| {
                        let op = if op == 0 { 4 } else { [0, 1, 2, 3, 5][usize::from(op % 5)] };
                        (op, idx, value)
                    }),
                800..2400,
            ),
        ) {
            check_against_model::<Wide>(WIDE_SIZE, ops)?;
        }
    }
}
