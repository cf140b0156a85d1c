//! # dart-packet
//!
//! Packet substrate for the Dart reproduction: protocol header types,
//! wrapping TCP sequence arithmetic, flow identification and data-plane
//! signatures, wire-format parsing, and trace I/O (native format + libpcap).
//!
//! Everything downstream — the Dart engine, the baselines, the simulator,
//! and the benchmark harness — speaks [`PacketMeta`], the monitor's compact
//! view of one TCP packet.
//!
//! ```
//! use dart_packet::{FlowKey, PacketBuilder, SeqNum};
//!
//! let flow = FlowKey::from_raw(0x0a000001, 443, 0xc0a80001, 55000);
//! let data = PacketBuilder::new(flow, 1_000_000).seq(100u32).payload(1460).build();
//! assert_eq!(data.eack(), SeqNum(1560));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod buffer;
pub mod error;
pub mod ethernet;
pub mod flow;
pub mod ipv4;
pub mod ipv6;
pub mod meta;
pub mod parse;
pub mod payload;
pub mod pcap;
pub mod reconnect;
pub mod seq;
pub mod source;
pub mod tcp;
pub mod trace;

pub use error::PacketError;
pub use flow::{FlowKey, FlowSignature, PacketId, SignatureWidth};
pub use meta::{Direction, Nanos, PacketBuilder, PacketMeta, MICROSECOND, MILLISECOND, SECOND};
pub use reconnect::{Reconnecting, SourceCounters, SourceFactory};
pub use seq::SeqNum;
pub use source::{CycleSource, Follow, PacketSource, PcapSource, SliceSource};
pub use tcp::TcpFlags;

/// Copy the first `N` bytes of `b` into a fixed array. Callers pass
/// compile-time in-bounds slices of fixed-size buffers (a shorter slice
/// panics like the indexing it replaces), so field decoding avoids
/// `try_into().unwrap()` under the crate's unwrap-denying lint.
pub(crate) fn arr<const N: usize>(b: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&b[..N]);
    out
}
