//! # dart-testkit
//!
//! The differential-testing kit for the Dart reproduction: every RTT
//! engine in this workspace, run against an omniscient oracle over the
//! same (optionally fault-injected) capture, with failing traces shrunk to
//! minimal replayable reproducers.
//!
//! The pieces (see DESIGN.md §5b for the fidelity contract):
//!
//! * [`oracle`] — unbounded-memory ground truth: the exact valid sample
//!   set for a capture, and per-sample classification of engine output as
//!   exact / ambiguous / impossible;
//! * [`faults`] — seeded, deterministic trace faults (drop, duplicate,
//!   reorder, truncate) applied to a capture before any consumer sees
//!   it, plus doctored engine configs and `dart-switch`-derived register
//!   sweeps;
//! * [`diff`] — the differential runner checking **soundness** (no
//!   fabricated samples) and **bounded loss** (missed samples accounted
//!   for by `EngineStats` counters) across serial, sharded, and baseline
//!   implementations;
//! * [`chaos`] — seeded *runtime* faults (shard panic, worker stall, slow
//!   consumer) injected through the supervised `ShardedMonitor`'s packet
//!   hook, with oracle-backed soundness checks on the degraded output;
//! * [`spin_oracle`] — spin-edge ground truth for QUIC traffic the
//!   SEQ/ACK oracle cannot see: every emitted period must anchor both
//!   endpoints to observed spin transitions;
//! * [`scenarios`] — adversarial scenario suites (QUIC mixes, churn
//!   storms, interception, wireless tails) running the full differential
//!   matrix with the spin and histogram engines judged;
//! * [`recovery`] — the kill–restart harness: seeded crash points
//!   (mid-block, mid-rotation, mid-checkpoint-write) driven through
//!   checkpoint/restore cycles and judged against the oracle — zero
//!   fabricated samples, loss bounded by the checkpoint interval;
//! * [`shrink`] — `ddmin` trace minimization writing reproducers under
//!   `tests/shrunk/`;
//! * [`broken`] — an intentionally unsound engine proving the harness
//!   catches what it claims to catch.
//!
//! ```
//! use dart_sim::scenario::{campus, CampusConfig};
//! use dart_testkit::{run_diff, DiffConfig};
//!
//! let trace = campus(CampusConfig {
//!     connections: 20,
//!     duration: dart_packet::SECOND,
//!     ..CampusConfig::default()
//! });
//! let report = run_diff(&DiffConfig::default(), None, &trace.packets, None);
//! assert!(report.pass());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod broken;
pub mod chaos;
pub mod diff;
pub mod faults;
pub mod oracle;
pub mod recovery;
pub mod scenarios;
pub mod shrink;
pub mod spin_oracle;

pub use broken::run_trace_skewed;
pub use chaos::{
    chaos_hook, quiet_chaos_panics, run_chaos, ChaosConfig, ChaosReport, RuntimeFault,
};
pub use diff::{
    hist_within_tolerance, loss_budget, oracle_histogram, run_diff, snapshot_from_rows, DiffConfig,
    DiffReport, EngineOutcome,
};
pub use faults::{
    apply_config_fault, backend_sweep, ConfigFault, FaultConfig, FaultInjector, FaultLog,
};
pub use oracle::{run_oracle, OracleConfig, OracleReport, SampleClass, ScoreCard};
pub use recovery::{
    recovery_oracle, recovery_reference, recovery_trace, run_recovery, run_recovery_judged,
    run_recovery_matrix, CrashPoint, RecoveryConfig, RecoveryReport,
};
pub use scenarios::{
    run_scenario, run_scenario_matrix, scenario_artifact_dir, scenario_diff_config,
    write_scorecards, ScenarioConfig, ScenarioOutcome,
};
pub use shrink::{ddmin, shrink_and_save, shrunk_dir, write_artifact};
pub use spin_oracle::{run_spin_oracle, SpinClass, SpinReport};

use dart_core::{EngineStats, RttMonitor, RttSample};
use dart_packet::PacketMeta;

/// The one-packet-block extreme of split invariance: `monitor` fed one
/// [`RttMonitor::on_packet`] call per packet, then flushed. The golden,
/// backend-conformance and sharded-determinism suites pin this stream
/// beside the block path ([`dart_core::run_monitor_slice`]) and irregular
/// splits.
pub fn run_per_packet<M: RttMonitor + ?Sized>(
    monitor: &mut M,
    packets: &[PacketMeta],
) -> (Vec<RttSample>, EngineStats) {
    let mut samples = Vec::new();
    for p in packets {
        monitor.on_packet(p, &mut samples);
    }
    monitor.flush(&mut samples);
    (samples, monitor.stats())
}
