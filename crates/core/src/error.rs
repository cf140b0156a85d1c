//! Typed failures of the supervised sharded runtime.
//!
//! A hardware Dart cannot abort: the switch keeps forwarding whatever the
//! measurement pipeline does, so the paper's design degrades (lazy
//! eviction, bounded recirculation) instead of failing. The software
//! runtime holds itself to the same standard — a shard worker that panics
//! or stalls becomes a [`ShardFailure`] record and, at most, a typed
//! [`EngineError`], never a process abort. How the run proceeds after a
//! failure is the [`FailurePolicy`]; what actually happened is preserved in
//! [`ShardedRun::failures`](crate::ShardedRun) and in the
//! `shard_restarts` / `flows_lost` / `monitor_miss` counters of
//! [`EngineStats`](crate::EngineStats).

use crate::sharded::ShardedRun;
use std::fmt;
use std::time::Duration;

/// What the supervised runtime does when a shard worker fails.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Stop feeding on the first failure and surface it: the run ends with
    /// `Err(EngineError::ShardFailed)` carrying the partial merged output
    /// of everything processed before the failure.
    #[default]
    FailFast,
    /// Respawn the failed shard with fresh RT/PT state and keep measuring.
    /// The discarded engine's live flows are counted in `flows_lost`, the
    /// unprocessed packets in `monitor_miss`, and each respawn in
    /// `shard_restarts`. New traffic measures normally; ACKs of lost flows
    /// surface as `ack_no_flow`.
    RestartShard,
    /// Stop measuring the failed shard's traffic but keep every other
    /// shard running: the paper's lazy-eviction stance — measure less,
    /// never measure wrong. Dropped packets are counted in `monitor_miss`.
    ShedLoad,
}

impl FailurePolicy {
    /// Stable lowercase name (CLI flag value, report label).
    pub fn name(&self) -> &'static str {
        match self {
            FailurePolicy::FailFast => "failfast",
            FailurePolicy::RestartShard => "restart",
            FailurePolicy::ShedLoad => "shed",
        }
    }
}

impl fmt::Display for FailurePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for FailurePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<FailurePolicy, String> {
        match s.to_ascii_lowercase().as_str() {
            "failfast" | "fail-fast" => Ok(FailurePolicy::FailFast),
            "restart" | "restart-shard" => Ok(FailurePolicy::RestartShard),
            "shed" | "shed-load" => Ok(FailurePolicy::ShedLoad),
            other => Err(format!(
                "unknown failure policy `{other}` (expected failfast | restart | shed)"
            )),
        }
    }
}

/// How one shard worker failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The worker panicked while processing a batch; `message` is the
    /// panic payload when it was a string.
    Panicked {
        /// Rendered panic payload.
        message: String,
    },
    /// The watchdog timed out: the feeder could not hand off a batch (or
    /// the run could not collect the worker's result) within the deadline.
    Stalled {
        /// How long the watchdog waited before declaring the stall.
        waited: Duration,
    },
    /// A worker's event-sink handle outlived the engine, so the shard's
    /// events were recovered by draining the shared buffer instead of
    /// unwrapping it. Non-fatal: samples, events, and counters are intact.
    SinkLeaked,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panicked { message } => write!(f, "panicked: {message}"),
            FailureKind::Stalled { waited } => {
                write!(f, "stalled (watchdog waited {} ms)", waited.as_millis())
            }
            FailureKind::SinkLeaked => f.write_str("event sink leaked (events drained)"),
        }
    }
}

/// One shard failure observed by the supervised runtime. Every failure —
/// fatal or survived — is recorded in
/// [`ShardedRun::failures`](crate::ShardedRun) in shard order.
#[derive(Clone, Debug, Eq)]
pub struct ShardFailure {
    /// Which shard failed.
    pub shard: usize,
    /// Global trace index of the packet being processed (or queued) when
    /// the failure was detected, when known.
    pub at_packet: Option<u64>,
    /// What happened.
    pub kind: FailureKind,
    /// Under [`FailurePolicy::RestartShard`], how long the shard stood
    /// still while its replacement engine was built and wired up, in
    /// microseconds; `None` when the failure respawned nothing.
    pub respawn_us: Option<u64>,
}

/// The same failure is the same shard, packet and kind: how long the
/// respawn took is a measurement of one run, and two runs of one seed must
/// still compare equal.
impl PartialEq for ShardFailure {
    fn eq(&self, other: &ShardFailure) -> bool {
        (self.shard, self.at_packet, &self.kind) == (other.shard, other.at_packet, &other.kind)
    }
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} {}", self.shard, self.kind)?;
        if let Some(at) = self.at_packet {
            write!(f, " at packet {at}")?;
        }
        if let Some(us) = self.respawn_us {
            write!(f, " (respawned in {us} us)")?;
        }
        Ok(())
    }
}

/// Error surfaced by the supervised sharded runtime instead of a panic.
#[derive(Debug)]
pub enum EngineError {
    /// A shard failed under [`FailurePolicy::FailFast`]. `partial` is the
    /// merged output of everything processed before (and despite) the
    /// failure — degraded, but every sample in it is sound.
    ShardFailed {
        /// The first fatal failure.
        failure: ShardFailure,
        /// Partial merged run: samples, events, and counters accumulated
        /// up to the failure, with `monitor_miss` covering the rest.
        partial: Box<ShardedRun>,
    },
    /// A packet was fed to a monitor that already flushed. The packet was
    /// dropped without being processed; the cached merged run is
    /// unaffected.
    FedAfterFlush,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ShardFailed { failure, partial } => write!(
                f,
                "{failure} (partial run kept: {} samples, {} packets missed, {} flows lost)",
                partial.samples.len(),
                partial.stats.monitor_miss,
                partial.stats.flows_lost,
            ),
            EngineError::FedAfterFlush => {
                f.write_str("packet fed to a flushed ShardedMonitor (dropped)")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// Take the partial merged run out of the error (empty for
    /// [`EngineError::FedAfterFlush`]).
    pub fn into_partial(self) -> ShardedRun {
        match self {
            EngineError::ShardFailed { partial, .. } => *partial,
            EngineError::FedAfterFlush => ShardedRun::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_aliases_and_rejects_unknown() {
        for (text, want) in [
            ("failfast", FailurePolicy::FailFast),
            ("fail-fast", FailurePolicy::FailFast),
            ("RESTART", FailurePolicy::RestartShard),
            ("restart-shard", FailurePolicy::RestartShard),
            ("shed", FailurePolicy::ShedLoad),
            ("shed-load", FailurePolicy::ShedLoad),
        ] {
            assert_eq!(text.parse::<FailurePolicy>().unwrap(), want, "{text}");
        }
        assert!("abort".parse::<FailurePolicy>().is_err());
        assert_eq!(FailurePolicy::default(), FailurePolicy::FailFast);
    }

    #[test]
    fn failure_and_error_render() {
        let failure = ShardFailure {
            shard: 2,
            at_packet: Some(1042),
            kind: FailureKind::Panicked {
                message: "chaos: injected panic".into(),
            },
            respawn_us: Some(310),
        };
        let text = failure.to_string();
        assert!(text.contains("shard 2"), "{text}");
        assert!(text.contains("packet 1042"), "{text}");
        assert!(text.contains("respawned in 310 us"), "{text}");
        // The respawn time is a measurement, not part of what failed.
        let mut timed_otherwise = failure.clone();
        timed_otherwise.respawn_us = None;
        assert_eq!(timed_otherwise, failure);
        let err = EngineError::ShardFailed {
            failure,
            partial: Box::default(),
        };
        assert!(err.to_string().contains("partial run kept"));
        let run = err.into_partial();
        assert!(run.samples.is_empty());
    }

    #[test]
    fn stall_renders_wait() {
        let kind = FailureKind::Stalled {
            waited: Duration::from_millis(250),
        };
        assert!(kind.to_string().contains("250 ms"));
    }
}
