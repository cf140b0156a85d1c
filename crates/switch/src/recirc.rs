//! The recirculation port: bounded-bandwidth re-entry into the pipeline.
//!
//! Dart's lazy-eviction mechanism sends evicted Packet Tracker records back
//! through the ingress pipeline (paper §3.2). Recirculation bandwidth on a
//! real switch is a scarce fraction of forwarding bandwidth, so the paper's
//! headline overhead metric is *recirculations incurred per packet*. This
//! model queues recirculated records, enforces a per-record recirculation
//! cap, and accounts totals for that metric.

use std::collections::VecDeque;

/// A record traveling through the recirculation port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recirculated<T> {
    /// The payload being recirculated.
    pub record: T,
    /// How many times this record has recirculated so far (including the
    /// trip it is currently on).
    pub trips: u32,
}

/// Statistics exposed by the recirculation port.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecircStats {
    /// Total records accepted for recirculation.
    pub accepted: u64,
    /// Records refused because they reached the per-record trip cap.
    pub refused_cap: u64,
    /// High-water mark of the queue depth.
    pub max_queue_depth: usize,
    /// The queue depth each accepted submission left behind, as a log2
    /// distribution: bucket `i` counts depths of bit length `i` (`2^(i-1) ≤
    /// depth < 2^i`), the last bucket everything deeper. Whoever publishes
    /// metrics reads it at its own sync points; the port touches no shared
    /// state per operation.
    pub depth_log2: [u64; DEPTH_BUCKETS],
    /// Sum of those depths.
    pub depth_sum: u64,
}

/// Buckets in [`RecircStats::depth_log2`]: depths up to 2^14 resolved, and
/// the loop is drained every packet.
pub const DEPTH_BUCKETS: usize = 16;

/// The recirculation port model.
#[derive(Debug)]
pub struct RecircPort<T> {
    queue: VecDeque<Recirculated<T>>,
    max_trips: u32,
    stats: RecircStats,
}

impl<T> RecircPort<T> {
    /// Create a port allowing each record at most `max_trips` passes.
    /// `max_trips == 0` disables recirculation entirely.
    pub fn new(max_trips: u32) -> Self {
        RecircPort {
            queue: VecDeque::new(),
            max_trips,
            stats: RecircStats::default(),
        }
    }

    /// The per-record trip cap.
    pub fn max_trips(&self) -> u32 {
        self.max_trips
    }

    /// Submit `record` for another pass through the pipeline. `prior_trips`
    /// is how many passes it has already made. Returns `Err(record)` when
    /// the cap is exhausted — the caller must let the record self-destruct
    /// (paper §3.2, "we also set a limit \[on\] the number of recirculations
    /// per SEQ packet").
    pub fn submit(&mut self, record: T, prior_trips: u32) -> Result<(), T> {
        if prior_trips >= self.max_trips {
            self.stats.refused_cap += 1;
            return Err(record);
        }
        self.queue.push_back(Recirculated {
            record,
            trips: prior_trips + 1,
        });
        self.stats.accepted += 1;
        let depth = self.queue.len();
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth);
        let bucket = (usize::BITS - depth.leading_zeros()) as usize;
        self.stats.depth_log2[bucket.min(DEPTH_BUCKETS - 1)] += 1;
        self.stats.depth_sum += depth as u64;
        Ok(())
    }

    /// Take the next record re-entering the ingress pipeline, if any.
    pub fn pop(&mut self) -> Option<Recirculated<T>> {
        self.queue.pop_front()
    }

    /// Inspect the next record without removing it.
    pub fn peek(&self) -> Option<&Recirculated<T>> {
        self.queue.front()
    }

    /// Records currently in flight around the loop.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RecircStats {
        self.stats
    }

    /// Iterate the queued records front-to-back (control plane: the
    /// checkpoint writer walking the loop, not a data-plane pop).
    pub fn iter(&self) -> impl Iterator<Item = &Recirculated<T>> {
        self.queue.iter()
    }

    /// Control-plane restore: replace the queue contents and accumulated
    /// statistics with a checkpointed state. Entries keep their recorded
    /// trip counts; nothing here counts toward the accepted/refused books
    /// beyond what the restored `stats` already carries.
    pub fn restore(&mut self, entries: Vec<Recirculated<T>>, stats: RecircStats) {
        self.queue = entries.into();
        self.stats = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_and_pop_fifo() {
        let mut port: RecircPort<u32> = RecircPort::new(4);
        port.submit(1, 0).unwrap();
        port.submit(2, 0).unwrap();
        assert_eq!(port.in_flight(), 2);
        assert_eq!(port.pop().unwrap().record, 1);
        assert_eq!(port.pop().unwrap().record, 2);
        assert!(port.pop().is_none());
    }

    #[test]
    fn trips_increment() {
        let mut port: RecircPort<&str> = RecircPort::new(8);
        port.submit("x", 2).unwrap();
        assert_eq!(port.pop().unwrap().trips, 3);
    }

    #[test]
    fn cap_refuses_and_returns_record() {
        let mut port: RecircPort<String> = RecircPort::new(2);
        assert!(port.submit("a".into(), 1).is_ok());
        let back = port.submit("b".into(), 2).unwrap_err();
        assert_eq!(back, "b");
        assert_eq!(port.stats().refused_cap, 1);
        assert_eq!(port.stats().accepted, 1);
    }

    #[test]
    fn zero_cap_disables_recirculation() {
        let mut port: RecircPort<u8> = RecircPort::new(0);
        assert!(port.submit(9, 0).is_err());
    }

    #[test]
    fn depth_statistics_are_kept_per_submission() {
        let mut port: RecircPort<u8> = RecircPort::new(10);
        for i in 0..5 {
            port.submit(i, 0).unwrap(); // leaves depths 1, 2, 3, 4, 5
        }
        port.pop();
        // A cap refusal is no submission: the books stay as they are.
        let _ = port.submit(9, 10);
        let stats = port.stats();
        assert_eq!(stats.depth_log2[..4], [0, 1, 2, 2]);
        assert_eq!(stats.depth_log2.iter().sum::<u64>(), stats.accepted);
        assert_eq!(stats.depth_sum, 15);
        // Depths past the resolved range land in the last bucket.
        let mut deep: RecircPort<u32> = RecircPort::new(1);
        for i in 0..(1 << 14) + 3 {
            deep.submit(i, 0).unwrap();
        }
        assert_eq!(deep.stats().depth_log2[DEPTH_BUCKETS - 1], 4);
    }

    #[test]
    fn queue_high_water_mark() {
        let mut port: RecircPort<u8> = RecircPort::new(10);
        for i in 0..5 {
            port.submit(i, 0).unwrap();
        }
        port.pop();
        port.pop();
        port.submit(9, 0).unwrap();
        assert_eq!(port.stats().max_queue_depth, 5);
    }
}
