//! Typed failures of the supervised sharded runtime.
//!
//! A hardware Dart cannot abort: the switch keeps forwarding whatever the
//! measurement pipeline does, so the paper's design degrades (lazy
//! eviction, bounded recirculation) instead of failing. The software
//! runtime holds itself to the same standard — a shard worker that panics
//! or stalls becomes a [`ShardFailure`] record, never a process abort: the
//! shard is respawned, or sheds its traffic once its restart budget is
//! spent, and every other shard keeps measuring. What happened is preserved
//! in [`ShardedMonitor::failures`](crate::ShardedMonitor::failures) after
//! the flush and in the `shard_restarts` / `flows_lost` / `monitor_miss`
//! counters of [`EngineStats`](crate::EngineStats).

use std::fmt;
use std::time::Duration;

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
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Panicked { message } => write!(f, "panicked: {message}"),
            FailureKind::Stalled { waited } => {
                write!(f, "stalled (watchdog waited {} ms)", waited.as_millis())
            }
        }
    }
}

/// One shard failure observed by the supervised runtime. Every failure is
/// listed by [`ShardedMonitor::failures`](crate::ShardedMonitor::failures)
/// in shard order.
#[derive(Clone, Debug, Eq)]
pub struct ShardFailure {
    /// Which shard failed.
    pub shard: usize,
    /// Global trace index of the packet being processed (or queued) when
    /// the failure was detected, when known.
    pub at_packet: Option<u64>,
    /// What happened.
    pub kind: FailureKind,
    /// How long the shard stood still while its replacement engine was
    /// built and wired up, in microseconds; `None` when the failure
    /// respawned nothing (the shard shed its traffic instead).
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

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn stall_renders_wait() {
        let kind = FailureKind::Stalled {
            waited: Duration::from_millis(250),
        };
        assert!(kind.to_string().contains("250 ms"));
    }
}
