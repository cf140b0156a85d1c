//! Engine counters: everything the evaluation metrics are computed from.

use crate::snapshot::{sane_count, SnapReader, SnapWriter, SnapshotError};

/// Counters accumulated by a [`crate::engine::DartEngine`] over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Packets offered to the engine.
    pub packets: u64,
    /// Packets skipped because the SYN flag was set under `SynPolicy::Skip`.
    pub syn_skipped: u64,

    /// Data packets admitted into the Packet Tracker.
    pub seq_tracked: u64,
    /// Data packets rejected as retransmissions (range collapsed).
    pub seq_retransmission: u64,
    /// Data packets that reset the range past a hole (tracked).
    pub seq_hole_reset: u64,
    /// Data packets that triggered a sequence wraparound reset (untracked).
    pub seq_wraparound: u64,
    /// Data packets not tracked because the RT slot was held by another
    /// live flow (hash collision, older flow favored).
    pub seq_rt_collision: u64,

    /// ACKs that advanced a left edge and consulted the PT.
    pub ack_advanced: u64,
    /// Duplicate ACKs (range collapsed).
    pub ack_duplicate: u64,
    /// ACKs below the left edge (ignored).
    pub ack_stale: u64,
    /// Optimistic ACKs above the right edge (ignored).
    pub ack_optimistic: u64,
    /// ACKs for flows with no RT entry (ignored).
    pub ack_no_flow: u64,

    /// Range collapses (retransmission + duplicate-ACK inferences) — the
    /// per-flow congestion indicator §3.1 suggests exporting.
    pub range_collapses: u64,

    /// PT insertions into an empty slot.
    pub pt_stored: u64,
    /// PT displacements (a record evicted an occupant at its entry stage).
    pub pt_displaced: u64,
    /// PT matches that produced an RTT sample.
    pub pt_matched: u64,

    /// Records submitted to the recirculation port.
    pub recirc_issued: u64,
    /// Recirculated records found stale at RT re-validation (self-destruct).
    pub recirc_stale_dropped: u64,
    /// Recirculated records re-admitted into the PT.
    pub recirc_reinserted: u64,
    /// Records dropped at the per-record recirculation cap.
    pub recirc_cap_dropped: u64,
    /// Eviction cycles broken by the cycle detector (§3.2).
    pub recirc_cycles_broken: u64,
    /// Records dropped by the analytics preemptive-discard filter (§3.3).
    pub recirc_filtered: u64,
    /// Dual-role (SEQ+ACK) packets that cost a recirculation in `Leg::Both`
    /// mode (§5).
    pub dual_role_recirc: u64,
    /// Packets that fired neither the SEQ nor the ACK role: wrong direction
    /// for the measured leg, or neither payload nor ACK flag. Together with
    /// the skip/filter counters this makes the disposition accounting
    /// exhaustive (see the conservation-law test suite).
    pub no_role: u64,
    /// Packets ignored because no flow-selection rule matched (§4).
    pub filtered_flows: u64,
    /// Evicted records parked in the victim cache (§7).
    pub victim_cached: u64,
    /// ACK matches served from the victim cache.
    pub victim_cache_hits: u64,
    /// Evicted records re-validated by the RT copy and reinserted without
    /// recirculating (§7).
    pub rt_copy_reinserted: u64,
    /// Evicted records the RT copy declared stale (dropped, no
    /// recirculation).
    pub rt_copy_dropped: u64,

    /// Sketch backend: live records overwritten inside a full sketch way
    /// set (RT recency eviction or PT oldest-cell overwrite). Each one is a
    /// silently dropped in-flight measurement, surfacing later as
    /// `ack_no_flow` / unmatched `ack_advanced` and covered by the loss
    /// budget.
    pub sketch_overwritten: u64,
    /// Precision backend: evicted records denied recirculation by the
    /// probabilistic admission gate (neither heavy hitter nor coin-flip
    /// survivor).
    pub recirc_admission_denied: u64,
    /// Precision backend: evicted records admitted to recirculation because
    /// their flow is a tracked heavy hitter (bypassing the coin flip).
    pub recirc_admission_hh: u64,

    /// RTT samples emitted.
    pub samples: u64,

    /// Spin-bit engine: QUIC spin transitions (edges) observed, across all
    /// tracked flow directions.
    pub spin_edges: u64,
    /// Spin-bit engine: edge-to-edge periods discarded by the
    /// reordering/loss rejection heuristics instead of being emitted.
    pub spin_rejected: u64,

    /// Supervised-runtime counter: shard engines respawned with fresh
    /// RT/PT state after a worker panic (at most
    /// [`MAX_RESTARTS`](crate::MAX_RESTARTS) per shard).
    pub shard_restarts: u64,
    /// Supervised-runtime counter: live Range Tracker flows discarded with
    /// a failed shard engine. Their in-flight measurements can no longer
    /// close; subsequent ACKs surface as `ack_no_flow`.
    pub flows_lost: u64,
    /// Supervised-runtime counter: packets the runtime dropped without
    /// offering them to a healthy engine — the failed batch of a panicking
    /// shard, traffic shed after a failure, or packets queued to an
    /// abandoned (hung) worker. Not part of the `packets` disposition
    /// partition: `fed == packets + monitor_miss`.
    pub monitor_miss: u64,
}

/// Defines [`EngineStats::merge`] and [`EngineStats::metric_rows`] over
/// every counter field. The exhaustive destructure (no `..`) makes adding a
/// field without merging it a compile error, and keeps the telemetry
/// exporters in lockstep with the struct: a new counter shows up in the
/// metric rows (and therefore in every exposition format) automatically.
macro_rules! merge_counters {
    ($($field:ident),* $(,)?) => {
        impl EngineStats {
            /// Fold another run's counters into this one. Used by the
            /// sharded engine to combine per-shard stats into a whole-trace
            /// view.
            pub fn merge(&mut self, other: &EngineStats) {
                let EngineStats { $($field),* } = *other;
                $( self.$field += $field; )*
            }

            /// Every counter as a `(name, value)` row, in declaration
            /// order — the single source the telemetry exporters and the
            /// shared text formatter render from.
            pub fn metric_rows(&self) -> Vec<(&'static str, u64)> {
                vec![ $( (stringify!($field), self.$field) ),* ]
            }

            /// Set one counter by its metric-row name, returning whether the
            /// name exists. The snapshot restore path uses this so counters
            /// are matched by name rather than position: a checkpoint taken
            /// before a new counter was added still restores every field it
            /// knows about.
            pub fn set_metric(&mut self, name: &str, value: u64) -> bool {
                match name {
                    $( stringify!($field) => { self.$field = value; true } )*
                    _ => false,
                }
            }
        }
    };
}

impl EngineStats {
    /// Serialize the counters as a name-tagged block — the forward-compatible
    /// shape every snapshot section uses for its books.
    pub(crate) fn snapshot_into(&self, w: &mut SnapWriter) {
        let rows = self.metric_rows();
        w.put_u32(rows.len() as u32);
        for (name, value) in rows {
            w.put_str(name);
            w.put_u64(value);
        }
    }

    /// Read a block written by [`EngineStats::snapshot_into`]. Unknown names
    /// are tolerated (a newer writer may track counters this build does
    /// not), absent ones keep their zero default, and a value no run can
    /// count to is refused (see [`sane_count`]).
    pub(crate) fn restore_from(r: &mut SnapReader<'_>) -> Result<EngineStats, SnapshotError> {
        let mut stats = EngineStats::default();
        let rows = r.get_u32()?;
        for _ in 0..rows {
            // A row is a `put_str` name and its value, read in one piece:
            // a file reader lends a name only until its next read.
            let len = usize::from(r.get_u16()?);
            let (name, value) = r.get_bytes(len + 8)?.split_at(len);
            let name = std::str::from_utf8(name)
                .map_err(|_| SnapshotError::Corrupt("snapshot string is not UTF-8".into()))?;
            let value = sane_count(name, u64::from_le_bytes(value.try_into().unwrap_or([0; 8])))?;
            let _ = stats.set_metric(name, value);
        }
        Ok(stats)
    }
}

merge_counters!(
    packets,
    syn_skipped,
    seq_tracked,
    seq_retransmission,
    seq_hole_reset,
    seq_wraparound,
    seq_rt_collision,
    ack_advanced,
    ack_duplicate,
    ack_stale,
    ack_optimistic,
    ack_no_flow,
    range_collapses,
    pt_stored,
    pt_displaced,
    pt_matched,
    recirc_issued,
    recirc_stale_dropped,
    recirc_reinserted,
    recirc_cap_dropped,
    recirc_cycles_broken,
    recirc_filtered,
    dual_role_recirc,
    no_role,
    filtered_flows,
    victim_cached,
    victim_cache_hits,
    rt_copy_reinserted,
    rt_copy_dropped,
    sketch_overwritten,
    recirc_admission_denied,
    recirc_admission_hh,
    samples,
    spin_edges,
    spin_rejected,
    shard_restarts,
    flows_lost,
    monitor_miss,
);

impl std::ops::Add for EngineStats {
    type Output = EngineStats;

    fn add(mut self, rhs: EngineStats) -> EngineStats {
        self.merge(&rhs);
        self
    }
}

impl std::ops::AddAssign for EngineStats {
    fn add_assign(&mut self, rhs: EngineStats) {
        self.merge(&rhs);
    }
}

impl std::iter::Sum for EngineStats {
    fn sum<I: Iterator<Item = EngineStats>>(iter: I) -> EngineStats {
        iter.fold(EngineStats::default(), |acc, s| acc + s)
    }
}

impl EngineStats {
    /// The paper's overhead metric: recirculations incurred per packet
    /// processed (Fig. 11c/12c/13c).
    pub fn recirc_per_packet(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            (self.recirc_issued + self.dual_role_recirc) as f64 / self.packets as f64
        }
    }

    /// Fraction of tracked data packets that eventually produced a sample.
    pub fn sample_yield(&self) -> f64 {
        if self.seq_tracked == 0 {
            0.0
        } else {
            self.samples as f64 / self.seq_tracked as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recirc_per_packet_zero_when_idle() {
        assert_eq!(EngineStats::default().recirc_per_packet(), 0.0);
    }

    #[test]
    fn recirc_per_packet_computes_ratio() {
        let s = EngineStats {
            packets: 200,
            recirc_issued: 30,
            dual_role_recirc: 10,
            ..EngineStats::default()
        };
        assert!((s.recirc_per_packet() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_every_counter() {
        let a = EngineStats {
            packets: 10,
            samples: 3,
            recirc_issued: 2,
            ..EngineStats::default()
        };
        let b = EngineStats {
            packets: 5,
            samples: 1,
            ack_advanced: 7,
            ..EngineStats::default()
        };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.packets, 15);
        assert_eq!(m.samples, 4);
        assert_eq!(m.recirc_issued, 2);
        assert_eq!(m.ack_advanced, 7);
        assert_eq!(m, a + b);
        assert_eq!(m, [a, b].into_iter().sum());
        let mut aa = a;
        aa += b;
        assert_eq!(aa, m);
    }

    #[test]
    fn sum_of_empty_is_default() {
        let s: EngineStats = std::iter::empty().sum();
        assert_eq!(s, EngineStats::default());
    }

    #[test]
    fn metric_rows_cover_every_field() {
        let s = EngineStats {
            packets: 7,
            no_role: 2,
            samples: 1,
            ..EngineStats::default()
        };
        let rows = s.metric_rows();
        // One row per field, in declaration order, values carried through.
        assert_eq!(rows.first(), Some(&("packets", 7)));
        assert_eq!(rows.last(), Some(&("monitor_miss", 0)));
        assert!(rows.contains(&("samples", 1)));
        assert!(rows.contains(&("no_role", 2)));
        let total: u64 = rows.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 10, "exactly the three set fields");
    }

    #[test]
    fn set_metric_round_trips_every_row() {
        let s = EngineStats {
            packets: 11,
            ack_no_flow: 4,
            monitor_miss: 9,
            ..EngineStats::default()
        };
        let mut restored = EngineStats::default();
        for (name, value) in s.metric_rows() {
            assert!(restored.set_metric(name, value), "unknown row {name}");
        }
        assert_eq!(restored, s);
        assert!(!restored.set_metric("not_a_counter", 1));
    }

    #[test]
    fn sample_yield_ratio() {
        let s = EngineStats {
            seq_tracked: 50,
            samples: 40,
            ..EngineStats::default()
        };
        assert!((s.sample_yield() - 0.8).abs() < 1e-12);
    }
}
