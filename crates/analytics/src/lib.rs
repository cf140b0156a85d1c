//! # dart-analytics
//!
//! The analytics module of the Dart architecture (paper Fig. 3, §3.3):
//! consumers of the engine's RTT sample stream.
//!
//! * [`minfilter`] — windowed minimum RTT (propagation-delay tracking);
//! * [`change`] — the suspect/confirm interception-attack detector (Fig. 8);
//! * [`congestion`] — collapse-frequency congestion monitoring (§3.1) and
//!   optimistic-ACK reporting (§7) over the engine's event stream;
//! * [`prefix`] — per-remote-prefix aggregation (§3.1/§3.3);
//! * [`discard`] — the preemptive useless-sample discard hook wired into the
//!   engine's recirculation path (§3.3);
//! * [`bufferbloat`] — sustained-inflation detection (§7);
//! * [`dist`] — percentiles, CDF/CCDF tables, and the §6.2 RTT-collection-
//!   error metrics the benchmark harness reports;
//! * [`sketch`] — constant-memory P² quantile estimation for
//!   control planes that cannot buffer the full sample stream.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Analytics run inside the monitoring process: panicking unwraps are banned
// from lib code, as in `dart-core` (tests keep them).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bufferbloat;
pub mod change;
pub mod congestion;
pub mod discard;
pub mod dist;
pub mod minfilter;
pub mod prefix;
pub mod sketch;

pub use bufferbloat::{BloatEvent, BufferbloatConfig, BufferbloatDetector};
pub use change::{ChangeDetector, ChangeDetectorConfig, Verdict};
pub use congestion::{CongestionAlert, CongestionConfig, CongestionMonitor, OptimisticAckReporter};
pub use discard::{min_discard_pair, MinTrackingSink, PreemptiveDiscard};
pub use dist::{collection_error_at, max_error_5_to_95, RttDistribution};
pub use minfilter::{MinFilter, Window, WindowMin};
pub use prefix::{Prefix, PrefixAggregator};
pub use sketch::{CountMinSketch, HeavyHitters, P2Quantile, RttQuantiles};
