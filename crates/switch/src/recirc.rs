//! The recirculation port: bounded-bandwidth re-entry into the pipeline.
//!
//! Dart's lazy-eviction mechanism sends evicted Packet Tracker records back
//! through the ingress pipeline (paper §3.2). Recirculation bandwidth on a
//! real switch is a scarce fraction of forwarding bandwidth, so the paper's
//! headline overhead metric is *recirculations incurred per packet*. This
//! model queues recirculated records, enforces a per-record recirculation
//! cap, and accounts totals for that metric.

use std::collections::VecDeque;

use dart_telemetry::{Gauge, Histogram};

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
}

/// The recirculation port model.
#[derive(Debug)]
pub struct RecircPort<T> {
    queue: VecDeque<Recirculated<T>>,
    max_trips: u32,
    stats: RecircStats,
    /// Live queue-depth gauge plus at-submission depth histogram, when
    /// attached.
    telemetry: Option<(Gauge, Histogram)>,
}

impl<T> RecircPort<T> {
    /// Create a port allowing each record at most `max_trips` passes.
    /// `max_trips == 0` disables recirculation entirely.
    pub fn new(max_trips: u32) -> Self {
        RecircPort {
            queue: VecDeque::new(),
            max_trips,
            stats: RecircStats::default(),
            telemetry: None,
        }
    }

    /// Attach a live queue-depth gauge and an at-submission depth
    /// histogram. The gauge tracks [`RecircPort::in_flight`] exactly (set
    /// on every submit and pop); the histogram records the depth each
    /// accepted submission found.
    pub fn set_telemetry(&mut self, depth: Gauge, depth_dist: Histogram) {
        depth.set(self.queue.len() as i64);
        self.telemetry = Some((depth, depth_dist));
    }

    fn publish_depth(&self, observe: bool) {
        if let Some((gauge, dist)) = &self.telemetry {
            gauge.set(self.queue.len() as i64);
            if observe {
                dist.observe(self.queue.len() as u64);
            }
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
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
        self.publish_depth(true);
        Ok(())
    }

    /// Take the next record re-entering the ingress pipeline, if any.
    pub fn pop(&mut self) -> Option<Recirculated<T>> {
        let popped = self.queue.pop_front();
        if popped.is_some() {
            self.publish_depth(false);
        }
        popped
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
        self.publish_depth(false);
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
    fn telemetry_tracks_live_depth() {
        let mut port: RecircPort<u8> = RecircPort::new(10);
        let gauge = dart_telemetry::Gauge::new();
        let dist = dart_telemetry::Histogram::new();
        port.submit(1, 0).unwrap();
        port.set_telemetry(gauge.clone(), dist.clone());
        assert_eq!(gauge.get(), 1, "attach publishes the current depth");
        port.submit(2, 0).unwrap();
        port.submit(3, 0).unwrap();
        assert_eq!(gauge.get(), 3);
        assert_eq!(dist.count(), 2, "only post-attach submissions observed");
        port.pop();
        assert_eq!(gauge.get(), 2);
        // A cap refusal leaves the depth untouched.
        let _ = port.submit(4, 10);
        assert_eq!(gauge.get(), 2);
        assert_eq!(dist.count(), 2);
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
