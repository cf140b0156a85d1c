//! # dart
//!
//! A from-scratch Rust reproduction of **Dart** — *Continuous In-Network
//! Round-Trip Time Monitoring* (Sengupta, Kim, Rexford; SIGCOMM 2022): an
//! inline, real-time, continuous RTT measurement system designed for
//! programmable data planes, together with every substrate its evaluation
//! depends on.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] (`dart-core`) — the Dart engine: Range Tracker, Packet
//!   Tracker, lazy eviction with second-chance recirculation, and the
//!   flow-sharded parallel replay engine (`core::sharded`);
//! * [`packet`] (`dart-packet`) — headers, flow keys, sequence arithmetic,
//!   pcap/native trace I/O (a capture streams through a `PacketSource`, or
//!   is read whole by its `read_to_end`);
//! * [`switch`] (`dart-switch`) — the programmable-switch model: register
//!   arrays, hash units, recirculation port, resource estimation;
//! * [`analytics`] (`dart-analytics`) — min-filtering, change detection,
//!   per-prefix aggregation, distribution utilities;
//! * [`baselines`] (`dart-baselines`) — tcptrace-style ground truth,
//!   the strawman tracker, the fridge sampler;
//! * [`sim`] (`dart-sim`) — the deterministic TCP network simulator and
//!   the campus / interception-attack / SYN-flood scenarios: it generates
//!   traces, and [`packet`] reads and writes them.
//!
//! ## Quickstart
//!
//! ```
//! use dart::core::{DartConfig, DartEngine, RttMonitor, RttSample};
//! use dart::packet::{Direction, FlowKey, PacketBuilder};
//!
//! // A monitor sees an outbound data packet and its returning ACK.
//! let flow = FlowKey::from_raw(0x0a000001, 44123, 0x5db8d822, 443);
//! let data = PacketBuilder::new(flow, 0)
//!     .seq(0u32).payload(1460).dir(Direction::Outbound).build();
//! let ack = PacketBuilder::new(flow.reverse(), 23_000_000)
//!     .ack(1460u32).dir(Direction::Inbound).build();
//!
//! let mut dart = DartEngine::new(DartConfig::default());
//! let mut samples: Vec<RttSample> = Vec::new();
//! dart.on_packet(&data, &mut samples);
//! dart.on_packet(&ack, &mut samples);
//! assert_eq!(samples[0].rtt_ms(), 23.0);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench/src/bin/` for
//! the harness that regenerates every table and figure of the paper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use dart_analytics as analytics;
pub use dart_baselines as baselines;
pub use dart_core as core;
pub use dart_packet as packet;
pub use dart_sim as sim;
pub use dart_switch as switch;
