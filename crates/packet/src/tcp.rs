//! TCP header representation, flags, and wire encoding/decoding.

use crate::error::PacketError;
use crate::seq::SeqNum;
use bytes::{Buf, BufMut};

/// TCP control flags (the low 8 bits of the flags field).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN: no more data from sender.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: urgent pointer is significant.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// Marker: this record describes a QUIC short-header packet, not a TCP
    /// segment. Bits 0x40/0x80 are unused by the TCP flag set this crate
    /// models, so QUIC spin observations reuse the same 43-byte trace
    /// record with `seq`/`ack`/`payload_len` zeroed and carry the spin bit
    /// in [`TcpFlags::SPIN`]. SEQ/ACK-based classification
    /// (`PacketMeta::is_seq`/`is_ack`) treats marked packets as having no
    /// role, so TCP engines and the TCP oracle are uniformly blind to them.
    pub const QUIC: TcpFlags = TcpFlags(0x40);
    /// The QUIC spin-bit value (RFC 9000 §17.4), meaningful only when
    /// [`TcpFlags::QUIC`] is set.
    pub const SPIN: TcpFlags = TcpFlags(0x80);

    /// No flags set.
    pub const EMPTY: TcpFlags = TcpFlags(0);

    /// Union of two flag sets.
    #[inline]
    pub const fn or(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// True if every flag in `mask` is set.
    #[inline]
    pub const fn contains(self, mask: TcpFlags) -> bool {
        self.0 & mask.0 == mask.0
    }

    /// True if any flag in `mask` is set.
    #[inline]
    pub const fn intersects(self, mask: TcpFlags) -> bool {
        self.0 & mask.0 != 0
    }

    /// SYN is set (covers both SYN and SYN-ACK — the packets Dart's `-SYN`
    /// policy ignores entirely, paper §3.1).
    #[inline]
    pub const fn is_syn(self) -> bool {
        self.0 & Self::SYN.0 != 0
    }

    /// ACK is set.
    #[inline]
    pub const fn is_ack(self) -> bool {
        self.0 & Self::ACK.0 != 0
    }

    /// FIN is set.
    #[inline]
    pub const fn is_fin(self) -> bool {
        self.0 & Self::FIN.0 != 0
    }

    /// RST is set.
    #[inline]
    pub const fn is_rst(self) -> bool {
        self.0 & Self::RST.0 != 0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        self.or(rhs)
    }
}

impl std::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names = [
            (Self::FIN, 'F'),
            (Self::SYN, 'S'),
            (Self::RST, 'R'),
            (Self::PSH, 'P'),
            (Self::ACK, 'A'),
            (Self::URG, 'U'),
            (Self::QUIC, 'Q'),
            (Self::SPIN, 'B'),
        ];
        let mut any = false;
        for (flag, c) in names {
            if self.contains(flag) {
                write!(f, "{c}")?;
                any = true;
            }
        }
        if !any {
            write!(f, ".")?;
        }
        Ok(())
    }
}

/// A decoded TCP header. Options are preserved as raw bytes; Dart itself
/// never inspects options (it works from sequence/ack numbers alone).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: SeqNum,
    /// Acknowledgment number (meaningful when the ACK flag is set).
    pub ack: SeqNum,
    /// Header length in 32-bit words (5..=15).
    pub data_offset: u8,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Checksum as on the wire (not validated by the monitor).
    pub checksum: u16,
    /// Urgent pointer.
    pub urgent: u16,
    /// Raw option bytes (may be empty).
    pub options: Vec<u8>,
}

impl TcpHeader {
    /// Minimum header length in bytes.
    pub const MIN_LEN: usize = 20;

    /// Header length in bytes as implied by `data_offset`.
    #[inline]
    pub fn header_len(&self) -> usize {
        self.data_offset as usize * 4
    }

    /// Decode a TCP header from the front of `buf`.
    pub fn decode(buf: &[u8]) -> Result<TcpHeader, PacketError> {
        if buf.len() < Self::MIN_LEN {
            return Err(PacketError::Truncated {
                layer: "tcp",
                needed: Self::MIN_LEN,
                got: buf.len(),
            });
        }
        let mut b = buf;
        let src_port = b.get_u16();
        let dst_port = b.get_u16();
        let seq = SeqNum(b.get_u32());
        let ack = SeqNum(b.get_u32());
        let off_flags = b.get_u16();
        let data_offset = (off_flags >> 12) as u8;
        let flags = TcpFlags((off_flags & 0xFF) as u8);
        let window = b.get_u16();
        let checksum = b.get_u16();
        let urgent = b.get_u16();
        if data_offset < 5 {
            return Err(PacketError::Malformed {
                layer: "tcp",
                reason: "data offset below 5",
            });
        }
        let hlen = data_offset as usize * 4;
        if buf.len() < hlen {
            return Err(PacketError::Truncated {
                layer: "tcp",
                needed: hlen,
                got: buf.len(),
            });
        }
        let options = buf[Self::MIN_LEN..hlen].to_vec();
        Ok(TcpHeader {
            src_port,
            dst_port,
            seq,
            ack,
            data_offset,
            flags,
            window,
            checksum,
            urgent,
            options,
        })
    }

    /// Encode onto `out`. `data_offset` must agree with the padded option
    /// length; encoding pads options with NOPs to a 4-byte boundary.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let padded = self.options.len().div_ceil(4) * 4;
        let data_offset = ((Self::MIN_LEN + padded) / 4) as u16;
        out.put_u16(self.src_port);
        out.put_u16(self.dst_port);
        out.put_u32(self.seq.raw());
        out.put_u32(self.ack.raw());
        out.put_u16((data_offset << 12) | self.flags.0 as u16);
        out.put_u16(self.window);
        out.put_u16(self.checksum);
        out.put_u16(self.urgent);
        out.extend_from_slice(&self.options);
        for _ in self.options.len()..padded {
            out.push(0x01); // NOP
        }
    }
}

/// TCP option kinds this crate understands.
pub mod option {
    /// End of option list.
    pub const EOL: u8 = 0;
    /// No-operation padding.
    pub const NOP: u8 = 1;
    /// RFC 7323 timestamps (kind 8, length 10).
    pub const TIMESTAMPS: u8 = 8;
}

/// Extract the RFC 7323 timestamp option `(TSval, TSecr)` from a header's
/// raw option bytes, if present and well-formed. The walk borrows the bytes
/// where they lie, so the frame parser runs it over the capture buffer.
///
/// The layout every stack emits, `NOP NOP kind-8 len-10` first, is read at
/// fixed offsets; anything else takes the walk, which is the definition.
/// Forced inline: the pcap record loop is instantiated downstream, where a
/// plain `#[inline]` left this an out-of-line call per packet (DESIGN.md
/// §5c, "Across the crate boundary").
#[inline(always)]
pub fn timestamps_in(opts: &[u8]) -> Option<(u32, u32)> {
    if let [option::NOP, option::NOP, option::TIMESTAMPS, 10, values @ ..] = opts {
        if let Some((values, _)) = crate::split_head::<8>(values) {
            let tsval = u32::from_be_bytes(crate::arr(&values[0..4]));
            let tsecr = u32::from_be_bytes(crate::arr(&values[4..8]));
            return Some((tsval, tsecr));
        }
    }
    walk_timestamps(opts)
}

/// The option walk behind [`timestamps_in`]: every option in order, each
/// skipped by its length byte, until the timestamp option or the end.
fn walk_timestamps(mut opts: &[u8]) -> Option<(u32, u32)> {
    while let [kind, rest @ ..] = opts {
        match *kind {
            option::EOL => return None,
            option::NOP => opts = rest,
            option::TIMESTAMPS => {
                // kind(1) + len(1) + tsval(4) + tsecr(4)
                if rest.len() >= 9 && rest[0] == 10 {
                    let tsval = u32::from_be_bytes(crate::arr(&rest[1..5]));
                    let tsecr = u32::from_be_bytes(crate::arr(&rest[5..9]));
                    return Some((tsval, tsecr));
                }
                return None;
            }
            _ => {
                // Any other option: skip by its length byte.
                let [len, tail @ ..] = rest else { return None };
                let skip = (*len as usize).checked_sub(2)?;
                if tail.len() < skip {
                    return None;
                }
                opts = &tail[skip..];
            }
        }
    }
    None
}

impl TcpHeader {
    /// Extract the RFC 7323 timestamp option `(TSval, TSecr)`, if present
    /// and well-formed.
    pub fn timestamps(&self) -> Option<(u32, u32)> {
        timestamps_in(&self.options)
    }

    /// Encode a timestamp option (with two leading NOPs for alignment, as
    /// real stacks emit it) into an options byte vector.
    pub fn timestamp_option(tsval: u32, tsecr: u32) -> Vec<u8> {
        let mut v = Vec::with_capacity(12);
        v.push(option::NOP);
        v.push(option::NOP);
        v.push(option::TIMESTAMPS);
        v.push(10);
        v.extend_from_slice(&tsval.to_be_bytes());
        v.extend_from_slice(&tsecr.to_be_bytes());
        v
    }
}

impl Default for TcpHeader {
    fn default() -> Self {
        TcpHeader {
            src_port: 0,
            dst_port: 0,
            seq: SeqNum::ZERO,
            ack: SeqNum::ZERO,
            data_offset: 5,
            flags: TcpFlags::EMPTY,
            window: 65535,
            checksum: 0,
            urgent: 0,
            options: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn flags_display_and_predicates() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.is_syn());
        assert!(f.is_ack());
        assert!(!f.is_fin());
        assert_eq!(f.to_string(), "SA");
        assert_eq!(TcpFlags::EMPTY.to_string(), ".");
    }

    #[test]
    fn quic_marker_bits_render_and_stay_disjoint() {
        assert_eq!(TcpFlags::QUIC.0 & 0x3F, 0, "QUIC must not alias a TCP flag");
        assert_eq!(TcpFlags::SPIN.0 & 0x3F, 0, "SPIN must not alias a TCP flag");
        assert_eq!((TcpFlags::QUIC | TcpFlags::SPIN).to_string(), "QB");
        assert!(!(TcpFlags::QUIC | TcpFlags::SPIN).is_ack());
    }

    #[test]
    fn header_round_trip_no_options() {
        let hdr = TcpHeader {
            src_port: 443,
            dst_port: 51000,
            seq: SeqNum(123456),
            ack: SeqNum(654321),
            data_offset: 5,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 29200,
            checksum: 0xBEEF,
            urgent: 0,
            options: vec![],
        };
        let mut wire = Vec::new();
        hdr.encode(&mut wire);
        assert_eq!(wire.len(), 20);
        let back = TcpHeader::decode(&wire).unwrap();
        assert_eq!(back, hdr);
    }

    #[test]
    fn header_round_trip_with_options() {
        let hdr = TcpHeader {
            options: vec![2, 4, 5, 0xb4, 1, 1], // MSS + 2 NOP, padded to 8
            ..TcpHeader::default()
        };
        let mut wire = Vec::new();
        hdr.encode(&mut wire);
        assert_eq!(wire.len(), 28);
        let back = TcpHeader::decode(&wire).unwrap();
        assert_eq!(back.header_len(), 28);
        assert_eq!(&back.options[..6], &hdr.options[..]);
    }

    #[test]
    fn timestamp_option_round_trips() {
        let hdr = TcpHeader {
            options: TcpHeader::timestamp_option(0xAABBCCDD, 0x11223344),
            ..TcpHeader::default()
        };
        let mut wire = Vec::new();
        hdr.encode(&mut wire);
        let back = TcpHeader::decode(&wire).unwrap();
        assert_eq!(back.timestamps(), Some((0xAABBCCDD, 0x11223344)));
    }

    #[test]
    fn timestamps_absent_when_no_option() {
        assert_eq!(TcpHeader::default().timestamps(), None);
        // An MSS option alone is skipped correctly.
        let hdr = TcpHeader {
            options: vec![2, 4, 5, 0xb4],
            ..TcpHeader::default()
        };
        assert_eq!(hdr.timestamps(), None);
    }

    #[test]
    fn malformed_option_list_is_safe() {
        let hdr = TcpHeader {
            options: vec![8, 10, 1], // truncated timestamp option
            ..TcpHeader::default()
        };
        assert_eq!(hdr.timestamps(), None);
        let hdr2 = TcpHeader {
            options: vec![99], // unknown kind with no length byte
            ..TcpHeader::default()
        };
        assert_eq!(hdr2.timestamps(), None);
    }

    /// Option bytes that mostly open with `NOP NOP kind-8`, half of those
    /// with length 10, followed by 0–12 arbitrary bytes — the fixed-offset
    /// arm's case, its near misses and its short tails — and otherwise any
    /// 0–40 bytes.
    fn option_bytes() -> impl Strategy<Value = Vec<u8>> {
        (
            0u8..4,
            any::<u8>(),
            prop::collection::vec(any::<u8>(), 0..=12),
            prop::collection::vec(any::<u8>(), 0..=40),
        )
            .prop_map(|(pick, len, tail, any)| match pick {
                0 => [&[1, 1, 8, 10][..], &tail].concat(),
                1 => [&[1, 1, 8, len][..], &tail].concat(),
                2 => [&[1, 1, 8][..], &tail].concat(),
                _ => any,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn fixed_offset_arm_equals_the_walk(opts in option_bytes()) {
            prop_assert_eq!(timestamps_in(&opts), walk_timestamps(&opts), "{:?}", opts);
        }
    }

    #[test]
    fn decode_rejects_truncated() {
        let err = TcpHeader::decode(&[0u8; 10]).unwrap_err();
        assert!(matches!(err, PacketError::Truncated { layer: "tcp", .. }));
    }

    #[test]
    fn decode_rejects_bad_offset() {
        let mut wire = Vec::new();
        TcpHeader::default().encode(&mut wire);
        wire[12] = 0x20; // data offset 2 (< 5)
        assert!(matches!(
            TcpHeader::decode(&wire).unwrap_err(),
            PacketError::Malformed { layer: "tcp", .. }
        ));
    }
}
