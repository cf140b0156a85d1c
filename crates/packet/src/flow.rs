//! Flow identification: the TCP connection 4-tuple and its compressed
//! data-plane signatures.
//!
//! Dart keys its Range Tracker by the connection 4-tuple and its Packet
//! Tracker by the 4-tuple plus the expected ACK number. Since a hardware
//! register key cannot hold the full 12-byte tuple, the prototype compresses
//! it to a fixed 4-byte hash (paper §4, "Constrained signature wordsize");
//! [`FlowSignature`] reproduces that compression, including the possibility
//! of collisions.

use crate::seq::SeqNum;
use std::fmt;
use std::net::Ipv4Addr;

/// A TCP connection 4-tuple as observed in one direction.
///
/// `src`/`dst` are the IP addresses and ports of the packet carrying this
/// key. The two directions of one connection yield keys that are each
/// other's [`reverse`](FlowKey::reverse); [`canonical`](FlowKey::canonical)
/// maps both onto a single representative for per-connection bookkeeping.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source TCP port.
    pub src_port: u16,
    /// Destination TCP port.
    pub dst_port: u16,
}

impl FlowKey {
    /// Build a flow key from addresses and ports.
    pub fn new(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
        }
    }

    /// Convenience constructor from raw u32 addresses (host byte order).
    pub fn from_raw(src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16) -> Self {
        FlowKey::new(
            Ipv4Addr::from(src_ip),
            src_port,
            Ipv4Addr::from(dst_ip),
            dst_port,
        )
    }

    /// The same connection seen from the opposite direction: an ACK for a
    /// data packet with key `k` arrives with key `k.reverse()`.
    #[inline]
    pub fn reverse(&self) -> FlowKey {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// A direction-independent representative of the connection: the
    /// lexicographically smaller of the key and its reverse.
    #[inline]
    pub fn canonical(&self) -> FlowKey {
        let rev = self.reverse();
        if *self <= rev {
            *self
        } else {
            rev
        }
    }

    /// True when this key and `other` name the same connection (possibly in
    /// opposite directions).
    #[inline]
    pub fn same_connection(&self, other: &FlowKey) -> bool {
        *self == *other || *self == other.reverse()
    }

    /// Direction-independent 64-bit hash of the connection: both directions
    /// of one flow map to the same value, so data packets and their ACKs
    /// land on the same engine shard. Allocation-free (hashes the canonical
    /// key's stack-resident wire bytes).
    ///
    /// The FNV-1a base hash diffuses poorly into its low bits (correlated
    /// tuples can collide modulo small shard counts), so the result is
    /// passed through a SplitMix64-style avalanche finalizer — every input
    /// bit affects every output bit, making `hash % shards` well balanced.
    #[inline]
    pub fn symmetric_hash(&self) -> u64 {
        let h = fnv1a_64(&self.canonical().to_bytes());
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The 12-byte wire representation (src ip, dst ip, src port, dst port,
    /// all big-endian) used as hash input — mirrors what the P4 prototype
    /// feeds its hash units.
    #[inline]
    pub fn to_bytes(&self) -> [u8; 12] {
        let mut b = [0u8; 12];
        b[0..4].copy_from_slice(&self.src_ip.octets());
        b[4..8].copy_from_slice(&self.dst_ip.octets());
        b[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        b[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        b
    }

    /// Compress to a fixed-width data-plane signature.
    #[inline]
    pub fn signature(&self, width: SignatureWidth) -> FlowSignature {
        FlowSignature::of(self, width)
    }
}

impl fmt::Debug for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{}",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The number of bits retained when compressing a [`FlowKey`] into a
/// register-resident signature. The Tofino prototype uses 32 bits; narrower
/// and wider variants exist for the signature-width ablation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum SignatureWidth {
    /// 16-bit signature: high collision rate, minimal SRAM.
    W16,
    /// 32-bit signature: the prototype's choice (paper §4).
    #[default]
    W32,
    /// 64-bit signature: near-zero collision rate, double the SRAM.
    W64,
}

impl SignatureWidth {
    /// Number of bits retained.
    pub fn bits(self) -> u32 {
        match self {
            SignatureWidth::W16 => 16,
            SignatureWidth::W32 => 32,
            SignatureWidth::W64 => 64,
        }
    }

    /// Mask applied to the 64-bit base hash.
    fn mask(self) -> u64 {
        match self {
            SignatureWidth::W16 => 0xFFFF,
            SignatureWidth::W32 => 0xFFFF_FFFF,
            SignatureWidth::W64 => u64::MAX,
        }
    }
}

/// A compressed flow identifier as stored in data-plane registers.
///
/// Two distinct connections may share a signature (a hash collision); Dart
/// tolerates this at the cost of rare mismatched samples, exactly as the
/// hardware prototype does.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowSignature(pub u64);

impl FlowSignature {
    /// Compress `key` with an FNV-1a based mix truncated to `width` bits.
    #[inline]
    pub fn of(key: &FlowKey, width: SignatureWidth) -> FlowSignature {
        let h = fnv1a_64(&key.to_bytes());
        // Fold the top half in so narrow widths still see all input bits.
        let folded = h ^ (h >> 32) ^ (h >> 17);
        FlowSignature(match width {
            SignatureWidth::W64 => h,
            _ => folded & width.mask(),
        })
    }

    /// Raw signature value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// The Packet Tracker key: flow signature plus the expected ACK number of a
/// tracked data packet (paper Fig. 2: "Flow, eACK").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PacketId {
    /// Compressed flow identity.
    pub sig: FlowSignature,
    /// The ACK number that will acknowledge this data packet.
    pub eack: SeqNum,
}

impl PacketId {
    /// Build a packet identifier.
    pub fn new(sig: FlowSignature, eack: SeqNum) -> Self {
        PacketId { sig, eack }
    }
}

/// The state [`fnv1a_64`] starts from: the hash of no bytes.
pub const FNV1A_64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a hash, the base mix for flow signatures and table indexing.
#[inline]
pub fn fnv1a_64(data: &[u8]) -> u64 {
    fnv1a_64_fold(FNV1A_64_OFFSET, data)
}

/// Continue an FNV-1a hash in state `h` over `data`, so a stream can be
/// hashed as it passes: `fnv1a_64_fold(fnv1a_64(a), b)` is `fnv1a_64` of
/// `a` followed by `b`.
#[inline]
pub fn fnv1a_64_fold(mut h: u64, data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey::from_raw(0x0a00_0001, 443, 0xc0a8_0102, 51234)
    }

    #[test]
    fn reverse_round_trips() {
        let k = key();
        assert_eq!(k.reverse().reverse(), k);
        assert_ne!(k.reverse(), k);
    }

    #[test]
    fn canonical_is_direction_independent() {
        let k = key();
        assert_eq!(k.canonical(), k.reverse().canonical());
    }

    #[test]
    fn same_connection_detects_both_directions() {
        let k = key();
        assert!(k.same_connection(&k));
        assert!(k.same_connection(&k.reverse()));
        let other = FlowKey::from_raw(1, 2, 3, 4);
        assert!(!k.same_connection(&other));
    }

    #[test]
    fn signature_depends_on_direction() {
        // The RT is looked up with the SEQ-direction key for data packets and
        // the reversed key for ACKs; signatures must differ per direction.
        let k = key();
        assert_ne!(
            k.signature(SignatureWidth::W32),
            k.reverse().signature(SignatureWidth::W32)
        );
    }

    #[test]
    fn signature_widths_mask_correctly() {
        let k = key();
        assert!(k.signature(SignatureWidth::W16).raw() <= 0xFFFF);
        assert!(k.signature(SignatureWidth::W32).raw() <= u32::MAX as u64);
    }

    #[test]
    fn signature_is_deterministic() {
        let k = key();
        assert_eq!(
            k.signature(SignatureWidth::W32),
            k.signature(SignatureWidth::W32)
        );
    }

    #[test]
    fn symmetric_hash_is_direction_independent() {
        let k = key();
        assert_eq!(k.symmetric_hash(), k.reverse().symmetric_hash());
        let other = FlowKey::from_raw(1, 2, 3, 4);
        assert_ne!(k.symmetric_hash(), other.symmetric_hash());
    }

    #[test]
    fn symmetric_hash_low_bits_are_balanced() {
        // Correlated tuples (sequential ip + port, the shape a scenario
        // generator produces) must still spread across `hash % n` — the raw
        // FNV-1a value does not guarantee this, the finalizer does.
        let mut buckets = [0u32; 4];
        for n in 0..256u32 {
            let k = FlowKey::from_raw(0x0a00_0000 + n, 40000 + n as u16, 0x5db8_d822, 443);
            buckets[(k.symmetric_hash() % 4) as usize] += 1;
        }
        for (i, b) in buckets.iter().enumerate() {
            assert!((32..=96).contains(b), "bucket {i} holds {b} of 256");
        }
    }

    #[test]
    fn wire_bytes_are_big_endian() {
        let k = FlowKey::from_raw(0x01020304, 0x0506, 0x0708090a, 0x0b0c);
        assert_eq!(k.to_bytes(), [1, 2, 3, 4, 7, 8, 9, 10, 5, 6, 11, 12]);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // Known FNV-1a 64 test vector.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
