//! # dart-switch
//!
//! A behavioural model of the programmable-switch substrate Dart runs on:
//! seeded CRC hash units, stateful register arrays with the one-access-per-
//! traversal discipline, a bounded recirculation port, and a resource
//! estimator and placer that compile a program layout against Tofino-like
//! target profiles (the program itself is `dart_core::program`'s, which
//! regenerates the paper's Table 1).
//!
//! The Dart engine (`dart-core`) builds its Range Tracker and Packet Tracker
//! on [`RegisterArray`] + [`HashUnit`] and routes evicted records through
//! [`RecircPort`], so the hardware constraints the paper grapples with —
//! one-way associativity, no revisiting memory, bounded recirculation — are
//! enforced by construction rather than assumed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// The engine's tables and recirculation port live here: panicking unwraps
// are banned from lib code, as in `dart-core` (tests keep them).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod hash;
pub mod placement;
pub mod profile;
pub mod program;
pub mod recirc;
pub mod register;
pub mod resources;
pub mod salu;

pub use hash::{crc32, HashUnit};
pub use placement::{place, Placement, PlacementError};
pub use profile::TargetProfile;
pub use program::{ProgramSpec, TableKind, TableSpec};
pub use recirc::{RecircPort, RecircStats, Recirculated, DEPTH_BUCKETS};
pub use register::{Packed, RegisterArray, LIVE};
pub use resources::{estimate, ResourceReport};
pub use salu::{Cmp, Condition, Guard, Operand, OutputSel, SaluProgram, SaluResult, Update};
