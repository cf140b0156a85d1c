//! # dart-telemetry
//!
//! Zero-dependency observability for the Dart reproduction: the paper's
//! whole point is *continuous* monitoring (§3, §6), so the replay engines
//! must be watchable while they run, not just summarized afterwards.
//!
//! Four pieces, all `std`-only (the build environment is offline and the
//! workspace policy is vendored-or-nothing for external crates):
//!
//! * [`Counter`] / [`Gauge`] — cheap `Arc`-shared atomic handles, safe to
//!   update from shard worker threads while the driver scrapes;
//! * [`Histogram`] — fixed-bucket log2 histograms for RTT samples, batch
//!   processing latency, and recirculation queue depth;
//! * [`MetricRegistry`] — named metrics with label sets and windowed
//!   [`Snapshot`]s (each scrape reports cumulative totals *and* the delta
//!   since the previous scrape);
//! * [`EventLog`] — a bounded ring buffer of structured events (level +
//!   component + key/value fields) with JSONL export;
//! * [`HttpServer`] — an embedded `std`-only HTTP server exposing all of
//!   the above live (`/metrics`, `/healthz`, `/snapshot`, `/events`) plus
//!   the daemon control plane (`/control/shutdown`, `/control/reload`).
//!
//! Two exposition formats: Prometheus text ([`Snapshot::prometheus`]) and
//! JSONL time-series ([`Snapshot::jsonl_line`], one snapshot per line).
//! [`schema`] holds the in-repo checker CI runs against both.
//!
//! ## Naming scheme (normative, see DESIGN.md §5d)
//!
//! Every metric is prefixed `dart_`. Counters end in `_total`; histograms
//! carry a unit suffix (`_ns` for nanoseconds); gauges are bare nouns.
//! Per-shard series carry a `shard="N"` label — the serial engine is
//! `shard="0"`, so dashboards need no special case for `--shards 1`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod events;
pub mod histogram;
pub mod json;
pub mod metric;
pub mod registry;
pub mod schema;
pub mod server;
pub mod snapshot;

pub use events::{Event, EventLog, Level};
pub use histogram::{Histogram, HistogramSnapshot};
pub use metric::{Counter, Gauge};
pub use registry::{MetricKind, MetricRegistry};
pub use schema::{check_jsonl_series, check_prometheus, SchemaReport};
pub use server::{HealthProvider, HttpServer};
pub use snapshot::{render_rows, MetricSample, MetricValue, Snapshot};

/// Lock a mutex, recovering from poisoning. Telemetry state (counter maps,
/// event rings) stays internally consistent under panics elsewhere — every
/// critical section completes its structural updates before returning — so
/// observability keeps working while the process unwinds and reports.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
