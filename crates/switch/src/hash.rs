//! Hash units: CRC-based hash function generators, modeling the Tofino's
//! hash engines.
//!
//! Match-action pipelines index register arrays with CRC hashes computed by
//! dedicated hash units; a P4 program declares one unit per hash it needs
//! (Dart's Table 1 reports "Hash Units" usage). Each [`HashUnit`] here is
//! the same reflected CRC-32 with its own seed, which gives a multi-stage
//! Packet Tracker its k "ways" — and which makes those ways *related*, not
//! independent: a CRC is linear over GF(2), so for keys of one length
//! `crc32(s1, x) ^ crc32(s2, x)` is a constant of `(s1, s2, len)` and never
//! of `x`. Two units spread one key to different slots, but two keys that
//! share a power-of-two-sized slot under one unit share one under every
//! unit. Anything that needs bits independent of an index (a fingerprint
//! stored *in* the indexed cell, say) must come from outside this family;
//! DESIGN.md §5f "One linear map" lists what follows from that.

/// Slice-by-8 lookup tables for the reflected IEEE polynomial:
/// `CRC32_TABLES[k][b]` is the CRC state after byte `b` followed by `k`
/// zero bytes. A real hash unit computes the whole CRC in one cycle of
/// dedicated XOR trees; the software analogue folds eight key bytes per
/// step through eight independent loads instead of eight dependent ones,
/// which matters because every RT/PT probe hashes an 8–12 byte key.
static CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Fold four key bytes, already XORed into the CRC state as `word`, through
/// tables `BASE + 3 ..= BASE`: byte 0 of the word has the most zero bytes
/// still to pass after it.
#[inline(always)]
fn fold4<const BASE: usize>(word: u32) -> u32 {
    let t = &CRC32_TABLES;
    t[BASE + 3][(word & 0xFF) as usize]
        ^ t[BASE + 2][((word >> 8) & 0xFF) as usize]
        ^ t[BASE + 1][((word >> 16) & 0xFF) as usize]
        ^ t[BASE][(word >> 24) as usize]
}

#[inline(always)]
fn le_word(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// CRC-32 (IEEE, reflected) over `data`, starting from `seed`: eight bytes
/// a step, then at most one four-byte step, then at most three single bytes.
#[inline]
pub fn crc32(seed: u32, data: &[u8]) -> u32 {
    let mut crc = !seed;
    let mut steps = data.chunks_exact(8);
    for step in &mut steps {
        crc = fold4::<4>(crc ^ le_word(step)) ^ fold4::<0>(le_word(&step[4..]));
    }
    let mut tail = steps.remainder();
    if tail.len() >= 4 {
        crc = fold4::<0>(crc ^ le_word(tail));
        tail = &tail[4..];
    }
    for &b in tail {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// One hardware hash unit: a seeded CRC-32 plus an output bit-width.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HashUnit {
    seed: u32,
    bits: u32,
}

impl HashUnit {
    /// Create a unit producing `bits`-wide outputs (1..=32). Units with
    /// different `id`s are the same CRC under different seeds (see the
    /// module doc for what that does and does not buy).
    pub fn new(id: u32, bits: u32) -> HashUnit {
        assert!((1..=32).contains(&bits), "hash output width must be 1..=32");
        // Derive a well-mixed seed from the unit id.
        let seed = (id.wrapping_mul(0x9E37_79B9)) ^ 0xDEAD_BEEF;
        HashUnit { seed, bits }
    }

    /// Output width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Hash `data` to a `bits`-wide value.
    #[inline]
    pub fn hash(&self, data: &[u8]) -> u32 {
        let h = crc32(self.seed, data);
        if self.bits == 32 {
            h
        } else {
            h & ((1u32 << self.bits) - 1)
        }
    }

    /// Hash `data` to an index in `0..size`. `size` need not be a power of
    /// two; non-power-of-two sizes use a multiply-shift range reduction.
    #[inline]
    pub fn index(&self, data: &[u8], size: usize) -> usize {
        debug_assert!(size > 0);
        if size.is_power_of_two() {
            (crc32(self.seed, data) as usize) & (size - 1)
        } else {
            ((crc32(self.seed, data) as u64 * size as u64) >> 32) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_reference_vector() {
        // Standard CRC-32 of "123456789" with zero seed is 0xCBF43926.
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
    }

    /// The original bit-serial loop: the reference every kernel answer is
    /// held to.
    fn crc32_bitwise(seed: u32, data: &[u8]) -> u32 {
        let mut crc = !seed;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// The slice-by-8 kernel must be bit-identical to the bit-serial loop
    /// for arbitrary seeds and lengths — every stored table index in the
    /// repo depends on it. Lengths 0..=64 cover every tail shape (8-byte
    /// steps with and without the 4-byte step and 0..=3 single bytes), and
    /// the sub-slice starts move the key across every alignment.
    #[test]
    fn crc32_table_matches_bit_serial() {
        let data: Vec<u8> = (0u32..72)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        for s in 0u32..64 {
            let seed = s.wrapping_mul(0x0123_4567) ^ (s << 27);
            for start in 0..8 {
                for len in 0..=64 {
                    let key = &data[start..start + len];
                    assert_eq!(
                        crc32(seed, key),
                        crc32_bitwise(seed, key),
                        "seed {seed:#x} start {start} len {len}"
                    );
                }
            }
        }
    }

    /// The production units at the production key widths, from the byte
    /// loop this kernel replaced: RT (`0xA0`, 8-byte signature), exact PT
    /// stages (`0xB0..`) and sketch PT ways (`0xB8..`) and `0xD7` over the
    /// 12-byte (signature, eACK), the ledger's 13-byte probe. An index change
    /// fails here before it fails a golden.
    #[test]
    fn production_units_known_answers() {
        let key: [u8; 13] = [
            0x0a, 0x00, 0x00, 0x07, 0x9c, 0x40, 0x08, 0x08, 0x08, 0x08, 0x01, 0xbb, 0x18,
        ];
        for (id, len, want) in [
            (0xA0, 8, 0x7E80_2A9Au32),
            (0xB0, 12, 0x350F_14F3),
            (0xB1, 12, 0x850C_5494),
            (0xB2, 12, 0xFA60_F734),
            (0xB3, 12, 0x4E28_1AE2),
            (0xB8, 12, 0x18B2_8F26),
            (0xB9, 12, 0x89D1_DF9F),
            (0xBA, 12, 0x5B3A_DD77),
            (0xBB, 12, 0x626E_F4BE),
            (0xD7, 12, 0xB17F_6AF6),
            (0x00, 13, 0x822B_8A1F),
        ] {
            let got = HashUnit::new(id, 32).hash(&key[..len]);
            assert_eq!(got, want, "unit {id:#x} over {len} bytes: {got:#010x}");
        }
    }

    /// A CRC is linear over GF(2): the seed only adds a constant that
    /// depends on the key's length. Distinct units are therefore the same
    /// map shifted, not independent maps (module doc; DESIGN.md §5f).
    #[test]
    fn two_seeds_differ_by_a_constant_of_the_length_alone() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [0usize, 1, 4, 8, 12, 13, 31] {
            let (s1, s2) = (next() as u32, next() as u32);
            let zeros = vec![0u8; len];
            let constant = crc32(s1, &zeros) ^ crc32(s2, &zeros);
            for _ in 0..200 {
                let key: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                assert_eq!(crc32(s1, &key) ^ crc32(s2, &key), constant, "len {len}");
            }
            // ... so two keys sharing a power-of-two slot under one unit
            // share one under every unit: the slots differ by a fixed XOR.
            let (a, b) = (HashUnit::new(0xB8, 32), HashUnit::new(0xB9, 32));
            let offset = a.index(&zeros, 128) ^ b.index(&zeros, 128);
            for _ in 0..200 {
                let key: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                assert_eq!(a.index(&key, 128) ^ b.index(&key, 128), offset);
            }
        }
    }

    proptest::proptest! {
        /// `HashUnit::index` is what the reference CRC says it is, for
        /// power-of-two sizes (mask) and odd ones (multiply-shift).
        #[test]
        fn index_matches_the_reference(
            id: u32,
            key in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..40),
            log2 in 0u32..24,
            odd in 1usize..5_000_000,
        ) {
            let unit = HashUnit::new(id, 32);
            let h = crc32_bitwise(unit.seed, &key);
            let pow2 = 1usize << log2;
            proptest::prop_assert_eq!(unit.index(&key, pow2), h as usize & (pow2 - 1));
            let odd = odd | 1;
            proptest::prop_assert_eq!(
                unit.index(&key, odd),
                ((h as u64 * odd as u64) >> 32) as usize
            );
        }
    }

    #[test]
    fn units_with_different_ids_differ() {
        let a = HashUnit::new(0, 32);
        let b = HashUnit::new(1, 32);
        assert_ne!(a.hash(b"hello"), b.hash(b"hello"));
    }

    #[test]
    fn width_masks_output() {
        let u = HashUnit::new(3, 10);
        for i in 0u32..100 {
            assert!(u.hash(&i.to_le_bytes()) < 1024);
        }
    }

    #[test]
    fn index_stays_in_bounds_any_size() {
        let u = HashUnit::new(7, 32);
        for size in [1usize, 2, 3, 1000, 1024, 131072] {
            for i in 0u32..200 {
                assert!(u.index(&i.to_le_bytes(), size) < size);
            }
        }
    }

    #[test]
    fn index_distribution_is_roughly_uniform() {
        let u = HashUnit::new(11, 32);
        let size = 64;
        let mut counts = vec![0u32; size];
        let n = 64_000u32;
        for i in 0..n {
            counts[u.index(&i.to_le_bytes(), size)] += 1;
        }
        let expected = n / size as u32;
        for (slot, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < expected as u64 / 2,
                "slot {slot} count {c} far from expected {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "hash output width")]
    fn zero_width_rejected() {
        HashUnit::new(0, 0);
    }
}
