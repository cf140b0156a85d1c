//! # dart-baselines
//!
//! The comparators the paper evaluates Dart against:
//!
//! * [`tcptrace::TcpTrace`] — the offline software ground truth (§6.1):
//!   unlimited memory, full per-flow segment lists, sequence unwrapping,
//!   Karn-style retransmission exclusion, and an optional emulation of real
//!   tcptrace's quadrant double-sample quirk.
//! * [`strawman::Strawman`] — the §2.1 strawman (after Chen et al. \[12\]):
//!   one hash table, no ambiguity handling, timeout/evict-on-collision
//!   memory management with its documented bias against long RTTs.
//! * [`fridge::Fridge`] — a Zheng-et-al-style unbiased delay sampler (§8),
//!   emitting correction-weighted samples.
//! * [`dapper::Dapper`] — a Dapper-style one-packet-per-window tracker (§8).
//! * [`lean::LeanRtt`] — a Liu-et-al-style sum-based average-RTT estimator
//!   (§8), O(1) state but fragile to loss and ACK thinning.
//! * [`pping::Pping`] — a pping-style TCP-timestamp matcher (§8), blind to
//!   option-less traffic and quantized by the sender's timestamp clock.
//!
//! Plus the encrypted-transport engine family (§7's extension path):
//!
//! * [`spin::SpinMonitor`] — a QUIC spin-bit edge tracker with
//!   reorder/loss rejection heuristics; measures traffic the SEQ/ACK
//!   engines cannot see at all.
//! * [`histo::HistMonitor`] — P4TG-style in-dataplane histogram: Dart
//!   matching binned into log2 registers, exporting only the snapshot
//!   (no per-sample stream).
//!
//! `tcptrace_const` — the constant-per-flow-state variant the paper actually
//! sweeps against in §6.2 — is Dart itself with unlimited tables:
//! `dart_core::DartConfig::unlimited()`.
//!
//! No engine here restates a measurement rule: which direction plays the
//! SEQ or ACK role on a leg is `dart_core::Leg::{seq_role, ack_role}`, and
//! which packets `-SYN` drops is `dart_core::SynPolicy::skips`, the same
//! code Dart's decode runs. [`seglist`] holds tcptrace's per-flow segment
//! list and sequence unwrapper.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Baselines run inside the same process as the engine: panicking unwraps
// are banned from lib code, as in `dart-core` (tests keep them).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dapper;
pub mod fridge;
pub mod histo;
pub mod lean;
pub mod pping;
pub mod registry;
pub mod seglist;
pub mod spin;
pub mod strawman;
pub mod tcptrace;

pub use dapper::{Dapper, DapperConfig, DapperStats};
pub use fridge::{Fridge, FridgeConfig, FridgeStats, WeightedSample};
pub use histo::HistMonitor;
pub use lean::{LeanEstimate, LeanRtt};
pub use pping::{Pping, PpingConfig, PpingStats};
pub use registry::{BuiltEngine, EngineEntry, EngineRegistry, Judgement};
pub use seglist::{SegOutcome, Segment, SegmentList, SeqUnwrapper};
pub use spin::{SpinConfig, SpinMonitor};
pub use strawman::{Strawman, StrawmanConfig, StrawmanStats};
pub use tcptrace::{TcpTrace, TcpTraceConfig, TcpTraceStats};
