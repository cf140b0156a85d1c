//! # dart-core
//!
//! The paper's contribution: **Dart** (Data-plane Actionable Round-trip
//! Times), an inline, real-time, continuous RTT measurement system
//! (Sengupta, Kim, Rexford — SIGCOMM 2022).
//!
//! The engine matches TCP data packets with their acknowledgments under
//! hardware constraints — one-way associative register tables, no revisiting
//! memory, bounded recirculation — while staying correct under TCP
//! retransmission, reordering, cumulative/duplicate ACKs, optimistic ACKs,
//! and sequence wraparound:
//!
//! * [`range::MeasurementRange`] — the per-flow Fig. 4 state machine;
//! * [`range_tracker::RangeTracker`] — the RT table (§3.1);
//! * [`packet_tracker::PacketTracker`] — the PT table with lazy eviction
//!   (§3.2);
//! * [`engine::DartEngine`] — the full pipeline with second-chance
//!   recirculation, cycle detection, and the analytics discard hook (§3.3);
//! * [`program()`] — the data-plane program a configuration runs (Table 1).
//!
//! ```
//! use dart_core::{DartConfig, DartEngine, RttMonitor, RttSample};
//! use dart_packet::{Direction, FlowKey, PacketBuilder};
//!
//! let flow = FlowKey::from_raw(0x0a000001, 44123, 0x5db8d822, 443);
//! let data = PacketBuilder::new(flow, 0)
//!     .seq(0u32).payload(1460).dir(Direction::Outbound).build();
//! let ack = PacketBuilder::new(flow.reverse(), 23_000_000)
//!     .ack(1460u32).dir(Direction::Inbound).build();
//!
//! let mut engine = DartEngine::new(DartConfig::default());
//! let mut samples: Vec<RttSample> = Vec::new();
//! engine.on_packet(&data, &mut samples);
//! engine.on_packet(&ack, &mut samples);
//! assert_eq!(samples[0].rtt, 23_000_000); // 23 ms
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The engine must never take down its host process: panicking unwraps are
// banned from lib code (tests keep them). Intentional exceptions carry an
// `#[allow]` with a justification at the call site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod config;
pub mod engine;
pub mod error;
pub mod filter;
pub mod monitor;
pub mod packet_tracker;
pub mod program;
pub mod pt_salu;
pub mod range;
pub mod range_tracker;
mod ring;
pub mod rt_salu;
pub mod sample;
pub mod sharded;
pub mod sketch;
pub mod snapshot;
pub mod stats;
pub mod telemetry;

pub use backend::{PtTable, RtTable};
pub use config::{AdmissionMode, Backend, DartConfig, Leg, PtMode, RtMode, SynPolicy};
pub use engine::{DartEngine, RecircFilter};
pub use error::{FailureKind, ShardFailure};
pub use filter::{FlowFilter, FlowRule, PrefixMatch};
pub use monitor::{
    drive, drive_timed, run_monitor, run_monitor_slice, tick_every, EpochRotation, Progress,
    ReadAhead, RttMonitor, Stage, DEFAULT_BLOCK_PKTS,
};
pub use packet_tracker::{PacketTracker, PtInsert, PtRecord};
pub use program::{program, Unlimited};
pub use pt_salu::{SaluPtSlot, SlotRecord};
pub use range::{AckVerdict, MeasurementRange, SeqVerdict};
pub use range_tracker::{RangeTracker, RtAckOutcome, RtSeqOutcome, RtSlot};
pub use rt_salu::SaluRangeTracker;
pub use sample::{EngineEvent, RttSample, SampleSink, SampleWeight};
pub use sharded::{
    shard_of, PacketHook, ShardedConfig, ShardedMonitor, SupervisorHealth, MAX_RESTARTS,
};
pub use sketch::{
    Admission, AdmissionGate, CountMinSketch, HeavyHitters, SketchPacketTracker, SketchRangeTracker,
};
pub use snapshot::{
    SnapReader, SnapWriter, Snapshot, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use stats::EngineStats;
pub use telemetry::{EngineTelemetry, MeteredMonitor, StageTimers, SYNC_INTERVAL_PKTS};
