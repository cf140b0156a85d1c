//! # dart-sim
//!
//! The network and workload substrate of the Dart reproduction: a
//! deterministic discrete-event simulator with real TCP endpoint state
//! machines (slow start/AIMD, RTO and fast retransmit, delayed and
//! cumulative ACKs, out-of-order buffering), a two-leg path with a
//! monitoring vantage point in the middle, and scenario generators for the
//! paper's workloads:
//!
//! * [`scenario::campus`] — the synthetic campus trace (the anonymized
//!   Princeton trace substitute; see DESIGN.md §1);
//! * [`scenario::interception`] — the §5.2 BGP interception attack;
//! * [`scenario::syn_flood`] — the §3.1 robustness stressor.
//!
//! It only generates traces: reading and writing them, native or pcap, is
//! `dart-packet`'s.
//!
//! ```
//! use dart_sim::scenario::{campus, CampusConfig};
//!
//! let trace = campus(CampusConfig {
//!     connections: 50,
//!     duration: dart_packet::SECOND,
//!     ..CampusConfig::default()
//! });
//! assert!(!trace.is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod adversarial;
pub mod endpoint;
mod event;
pub mod flowgen;
pub mod netsim;
pub mod rng;
pub mod scenario;
pub mod spin;

pub use adversarial::{
    churn_storm, interception_storm, quic_mix, wireless_tail, ChurnStormConfig,
    InterceptionStormConfig, QuicMixConfig, ScenarioKind, WirelessTailConfig,
};
pub use endpoint::{Action, AppSend, ConnState, Endpoint, EndpointCfg, SimPacket};
pub use flowgen::{Access, AddressPlan, ExternalRttModel, InternalRttModel, SizeModel};
pub use netsim::{simulate, ConnReport, ConnSpec, Exchange, NetSim, PathParams, SimOutput};
pub use rng::SimRng;
pub use scenario::{
    campus, interception, syn_flood, AttackConfig, CampusConfig, ConnInfo, GeneratedTrace,
    SpinInfo, SynFloodConfig,
};
pub use spin::{spin_flow, SpinFlowConfig};
