//! IPv4 header representation and wire encoding/decoding.

use crate::error::PacketError;
use bytes::{Buf, BufMut};
use std::net::Ipv4Addr;

/// IP protocol numbers Dart cares about.
pub mod protocol {
    /// TCP (the only protocol Dart tracks).
    pub const TCP: u8 = 6;
    /// UDP (passed through unmonitored).
    pub const UDP: u8 = 17;
    /// ICMP.
    pub const ICMP: u8 = 1;
}

/// A decoded IPv4 header. Options are preserved raw.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ipv4Header {
    /// Internet header length in 32-bit words (5..=15).
    pub ihl: u8,
    /// DSCP + ECN byte.
    pub tos: u8,
    /// Total datagram length in bytes (header + payload).
    pub total_len: u16,
    /// Identification field.
    pub ident: u16,
    /// Flags (3 bits) + fragment offset (13 bits).
    pub flags_frag: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol (see [`protocol`]).
    pub proto: u8,
    /// Header checksum as on the wire.
    pub checksum: u16,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Raw option bytes.
    pub options: Vec<u8>,
}

impl Ipv4Header {
    /// Minimum header length in bytes.
    pub const MIN_LEN: usize = 20;

    /// Header length in bytes implied by `ihl`.
    #[inline]
    pub fn header_len(&self) -> usize {
        self.ihl as usize * 4
    }

    /// Length of the IP payload (e.g. the TCP segment) in bytes.
    #[inline]
    pub fn payload_len(&self) -> usize {
        (self.total_len as usize).saturating_sub(self.header_len())
    }

    /// Decode an IPv4 header from the front of `buf`.
    pub fn decode(buf: &[u8]) -> Result<Ipv4Header, PacketError> {
        if buf.len() < Self::MIN_LEN {
            return Err(PacketError::Truncated {
                layer: "ipv4",
                needed: Self::MIN_LEN,
                got: buf.len(),
            });
        }
        let mut b = buf;
        let ver_ihl = b.get_u8();
        if ver_ihl >> 4 != 4 {
            return Err(PacketError::Malformed {
                layer: "ipv4",
                reason: "version is not 4",
            });
        }
        let ihl = ver_ihl & 0x0F;
        if ihl < 5 {
            return Err(PacketError::Malformed {
                layer: "ipv4",
                reason: "ihl below 5",
            });
        }
        let tos = b.get_u8();
        let total_len = b.get_u16();
        let ident = b.get_u16();
        let flags_frag = b.get_u16();
        let ttl = b.get_u8();
        let proto = b.get_u8();
        let checksum = b.get_u16();
        let src = Ipv4Addr::from(b.get_u32());
        let dst = Ipv4Addr::from(b.get_u32());
        let hlen = ihl as usize * 4;
        if buf.len() < hlen {
            return Err(PacketError::Truncated {
                layer: "ipv4",
                needed: hlen,
                got: buf.len(),
            });
        }
        let options = buf[Self::MIN_LEN..hlen].to_vec();
        Ok(Ipv4Header {
            ihl,
            tos,
            total_len,
            ident,
            flags_frag,
            ttl,
            proto,
            checksum,
            src,
            dst,
            options,
        })
    }

    /// Encode onto `out` with a freshly computed checksum, summed over the
    /// encoded bytes where they lie.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let padded = self.options.len().div_ceil(4) * 4;
        let ihl = ((Self::MIN_LEN + padded) / 4) as u8;
        out.put_u8((4 << 4) | ihl);
        out.put_u8(self.tos);
        out.put_u16(self.total_len);
        out.put_u16(self.ident);
        out.put_u16(self.flags_frag);
        out.put_u8(self.ttl);
        out.put_u8(self.proto);
        out.put_u16(0); // checksum, filled in below
        out.put_u32(u32::from(self.src));
        out.put_u32(u32::from(self.dst));
        out.extend_from_slice(&self.options);
        for _ in self.options.len()..padded {
            out.push(0);
        }
        let sum = internet_checksum(&out[start..]);
        out[start + 10..start + 12].copy_from_slice(&sum.to_be_bytes());
    }
}

impl Default for Ipv4Header {
    fn default() -> Self {
        Ipv4Header {
            ihl: 5,
            tos: 0,
            total_len: 20,
            ident: 0,
            flags_frag: 0x4000, // don't fragment
            ttl: 64,
            proto: protocol::TCP,
            checksum: 0,
            src: Ipv4Addr::UNSPECIFIED,
            dst: Ipv4Addr::UNSPECIFIED,
            options: Vec::new(),
        }
    }
}

/// RFC 1071 internet checksum.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u16::from_be_bytes([c[0], c[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let hdr = Ipv4Header {
            total_len: 1500,
            ident: 0x1234,
            ttl: 57,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(192, 168, 1, 2),
            ..Ipv4Header::default()
        };
        let mut wire = Vec::new();
        hdr.encode(&mut wire);
        assert_eq!(wire.len(), 20);
        let back = Ipv4Header::decode(&wire).unwrap();
        assert_eq!(back.src, hdr.src);
        assert_eq!(back.dst, hdr.dst);
        assert_eq!(back.total_len, 1500);
        // The decoded checksum must verify: checksum over the full header is 0.
        assert_eq!(internet_checksum(&wire), 0);
    }

    #[test]
    fn payload_len_subtracts_header() {
        let hdr = Ipv4Header {
            total_len: 60,
            ..Ipv4Header::default()
        };
        assert_eq!(hdr.payload_len(), 40);
    }

    #[test]
    fn rejects_non_v4() {
        let mut wire = Vec::new();
        Ipv4Header::default().encode(&mut wire);
        wire[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Header::decode(&wire).unwrap_err(),
            PacketError::Malformed { layer: "ipv4", .. }
        ));
    }

    #[test]
    fn rejects_truncated() {
        assert!(Ipv4Header::decode(&[0u8; 8]).is_err());
    }

    #[test]
    fn checksum_reference_vector() {
        // Example from RFC 1071 discussions: header with known checksum.
        let wire: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert_eq!(internet_checksum(&wire), 0xb861);
    }
}
