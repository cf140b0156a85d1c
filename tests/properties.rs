//! Property-based tests over the core data structures and the engine:
//! invariants that must hold for *any* packet stream, not just the crafted
//! ones.

use dart::core::{
    run_monitor_slice, AckVerdict, DartConfig, DartEngine, EngineStats, MeasurementRange,
    PacketTracker, PtInsert, PtMode, SaluRangeTracker, SeqVerdict,
};
use dart::packet::{
    Direction, FlowKey, PacketBuilder, PacketMeta, SeqNum, SignatureWidth, TcpFlags,
};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------- SeqNum --

proptest! {
    #[test]
    fn seqnum_ordering_is_antisymmetric(a: u32, b: u32) {
        let (x, y) = (SeqNum(a), SeqNum(b));
        if x != y {
            // Exactly one of lt/gt unless they're 2^31 apart (distance
            // saturates at i32::MIN, where both lt hold asymmetrically).
            if x.distance(y) != i32::MIN {
                prop_assert_ne!(x.lt(y), y.lt(x));
            }
        } else {
            prop_assert!(!x.lt(y) && !x.gt(y));
        }
    }

    #[test]
    fn seqnum_add_then_sub_roundtrips(a: u32, n: u32) {
        prop_assert_eq!(SeqNum(a).add(n).sub(n), SeqNum(a));
    }

    #[test]
    fn seqnum_in_range_matches_distances(x: u32, lo: u32, len in 0u32..i32::MAX as u32) {
        let (x, lo) = (SeqNum(x), SeqNum(lo));
        let hi = lo.add(len);
        let expected = {
            let dx = x.raw().wrapping_sub(lo.raw());
            dx > 0 && dx <= len
        };
        prop_assert_eq!(x.in_range(lo, hi), expected);
    }
}

// --------------------------------------------- FlowKey::symmetric_hash --

proptest! {
    /// Both directions of a connection hash identically, for ANY 4-tuple —
    /// the property that lets the RT/PT index a connection from either leg
    /// and the sharded engine keep a flow's two legs on one shard.
    #[test]
    fn symmetric_hash_is_direction_independent(
        src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16,
    ) {
        let k = FlowKey::from_raw(src_ip, src_port, dst_ip, dst_port);
        prop_assert_eq!(k.symmetric_hash(), k.reverse().symmetric_hash());
        // reverse() is an involution, so the canonical form is well-defined.
        prop_assert_eq!(k.reverse().reverse(), k);
    }

    /// Shard balance under *correlated* tuples: sequential client hosts in
    /// one subnet opening sequential ephemeral ports to one server — the
    /// address-plan shape the campus generator emits, and exactly the input
    /// that collapsed low-bit-degenerate hashes onto a few shards before
    /// the SplitMix64 finalizer. A chi-squared statistic over `hash % m`
    /// must stay far below the degenerate regime for every shard count the
    /// sharded engine is run with.
    #[test]
    fn symmetric_hash_low_bits_balance_correlated_tuples(
        subnet in 0u32..(1 << 24),
        port_base in 1024u16..40_000,
    ) {
        const FLOWS: usize = 2_048;
        const SERVER: u32 = 0x5db8_d822;
        let hashes: Vec<u64> = (0..FLOWS)
            .map(|i| {
                // 16 ephemeral ports per host, hosts sequential in a /24-ish
                // block — both fields stride by 1.
                let host = (subnet << 8) | (i as u32 / 16);
                let port = port_base.wrapping_add(i as u16);
                FlowKey::from_raw(host, port, SERVER, 443).symmetric_hash()
            })
            .collect();
        for m in [2usize, 4, 8] {
            let mut buckets = vec![0u64; m];
            for h in &hashes {
                buckets[(*h % m as u64) as usize] += 1;
            }
            let expected = FLOWS as f64 / m as f64;
            let chi2: f64 = buckets
                .iter()
                .map(|&o| {
                    let d = o as f64 - expected;
                    d * d / expected
                })
                .sum();
            // 99.99th percentile of chi^2 with df=7 is ~29; a degenerate
            // hash scores in the thousands (~FLOWS * (m-1)). 100 separates
            // the regimes with no flake risk.
            prop_assert!(
                chi2 < 100.0,
                "hash % {} unbalanced: buckets {:?} (chi2 {:.1})",
                m, buckets, chi2
            );
        }
    }
}

// --------------------------------------------------- EngineStats::merge --

/// Fully randomized counters. The exhaustive struct literal (no `..`)
/// breaks the build if a counter is added without extending this strategy,
/// mirroring the `merge_counters!` guarantee.
fn engine_stats() -> impl Strategy<Value = EngineStats> {
    // Bounded well under u64::MAX / 4 so sums of a few stats cannot wrap.
    prop::collection::vec(0u64..(1 << 40), 38).prop_map(|v| {
        let mut it = v.into_iter();
        let mut n = move || it.next().unwrap();
        EngineStats {
            packets: n(),
            syn_skipped: n(),
            seq_tracked: n(),
            seq_retransmission: n(),
            seq_hole_reset: n(),
            seq_wraparound: n(),
            seq_rt_collision: n(),
            ack_advanced: n(),
            ack_duplicate: n(),
            ack_stale: n(),
            ack_optimistic: n(),
            ack_no_flow: n(),
            range_collapses: n(),
            pt_stored: n(),
            pt_displaced: n(),
            pt_matched: n(),
            recirc_issued: n(),
            recirc_stale_dropped: n(),
            recirc_reinserted: n(),
            recirc_cap_dropped: n(),
            recirc_cycles_broken: n(),
            recirc_filtered: n(),
            dual_role_recirc: n(),
            no_role: n(),
            filtered_flows: n(),
            victim_cached: n(),
            victim_cache_hits: n(),
            rt_copy_reinserted: n(),
            rt_copy_dropped: n(),
            sketch_overwritten: n(),
            recirc_admission_denied: n(),
            recirc_admission_hh: n(),
            samples: n(),
            spin_edges: n(),
            spin_rejected: n(),
            shard_restarts: n(),
            flows_lost: n(),
            monitor_miss: n(),
        }
    })
}

proptest! {
    /// `default` is the identity of `merge`, on both sides.
    #[test]
    fn stats_merge_identity(s in engine_stats()) {
        let mut left = s;
        left.merge(&EngineStats::default());
        prop_assert_eq!(left, s);
        let mut right = EngineStats::default();
        right.merge(&s);
        prop_assert_eq!(right, s);
    }

    /// Shard merge order cannot matter: commutative and associative, so
    /// the sharded engine's fold is well-defined for any shard ordering.
    #[test]
    fn stats_merge_commutes_and_associates(
        a in engine_stats(), b in engine_stats(), c in engine_stats(),
    ) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    /// `Sum`, `Add`, `AddAssign`, and `merge` agree on randomized stats.
    #[test]
    fn stats_sum_agrees_with_merge(
        a in engine_stats(), b in engine_stats(), c in engine_stats(),
    ) {
        let summed: EngineStats = [a, b, c].into_iter().sum();
        prop_assert_eq!(summed, a + b + c);
        let mut merged = a;
        merged.merge(&b);
        merged.merge(&c);
        prop_assert_eq!(summed, merged);
        let mut assigned = a;
        assigned += b;
        assigned += c;
        prop_assert_eq!(summed, assigned);
    }
}

// ------------------------------------------------------ MeasurementRange --

/// A random stream of small SEQ/ACK operations near a base point.
fn range_ops() -> impl Strategy<Value = (u32, Vec<(bool, u32, u32)>)> {
    (
        any::<u32>(),
        prop::collection::vec((any::<bool>(), 0u32..5_000, 1u32..1_500), 1..60),
    )
}

proptest! {
    /// After any op sequence, the range stays well-formed: left is never
    /// circularly ahead of right by more than the window we operated in.
    #[test]
    fn measurement_range_left_never_passes_right((base, ops) in range_ops()) {
        let start = SeqNum(base);
        let mut mr = MeasurementRange::open(start, start.add(100));
        for (is_seq, off, len) in ops {
            if is_seq {
                let s = start.add(off);
                mr.on_seq(s, s.add(len));
            } else {
                mr.on_ack(start.add(off), true);
            }
            prop_assert!(
                mr.left.leq(mr.right),
                "left {} passed right {}", mr.left, mr.right
            );
        }
    }

    /// A retransmission verdict always collapses; Extend always moves the
    /// right edge to the packet's eACK.
    #[test]
    fn measurement_range_verdict_postconditions((base, ops) in range_ops()) {
        let start = SeqNum(base);
        let mut mr = MeasurementRange::open(start, start.add(1));
        for (is_seq, off, len) in ops {
            if is_seq {
                let s = start.add(off);
                let e = s.add(len);
                match mr.on_seq(s, e) {
                    SeqVerdict::Retransmission => prop_assert!(mr.is_collapsed()),
                    SeqVerdict::Extend | SeqVerdict::HoleReset => {
                        prop_assert_eq!(mr.right, e)
                    }
                    SeqVerdict::Wraparound => prop_assert_eq!(mr.left, SeqNum::ZERO),
                }
            } else {
                let a = start.add(off);
                if mr.on_ack(a, true) == AckVerdict::Advance {
                    prop_assert_eq!(mr.left, a);
                }
            }
        }
    }
}

proptest! {
    /// The stateful-ALU decomposition of the Range Tracker is bit-equivalent
    /// to the behavioural Fig. 4 state machine on ANY operation sequence —
    /// the §4 implementability claim, property-tested.
    #[test]
    fn salu_range_tracker_equals_behavioural_model(
        base: u32,
        ops in prop::collection::vec(
            (any::<bool>(), 0u32..10_000, 1u32..1_500, any::<bool>()),
            1..80,
        )
    ) {
        let mut salu = SaluRangeTracker::new();
        let mut model: Option<MeasurementRange> = None;
        for (is_seq, off, len, pure) in ops {
            if is_seq {
                let seq = base.wrapping_add(off);
                let eack = seq.wrapping_add(len);
                let sv = salu.on_seq(seq, eack);
                let mv = match &mut model {
                    None => {
                        model = Some(MeasurementRange::open(SeqNum(seq), SeqNum(eack)));
                        SeqVerdict::Extend
                    }
                    Some(m) => m.on_seq(SeqNum(seq), SeqNum(eack)),
                };
                prop_assert_eq!(sv, mv);
            } else if let Some(m) = &mut model {
                let ack = base.wrapping_add(off);
                let sv = salu.on_ack(ack, pure).expect("occupied");
                let mv = m.on_ack(SeqNum(ack), pure);
                prop_assert_eq!(sv, mv);
            }
            if let Some(m) = &model {
                prop_assert_eq!(salu.edges(), Some((m.left.raw(), m.right.raw())));
            }
        }
    }
}

// --------------------------------------------------------- PacketTracker --

proptest! {
    /// Whatever the insertion order, a constrained PT never exceeds its
    /// capacity and every successful match returns a timestamp that was
    /// actually inserted for that identity.
    #[test]
    fn packet_tracker_occupancy_and_match_fidelity(
        slots_log in 2u32..7,
        stages in 1usize..5,
        inserts in prop::collection::vec((0u32..64, 1u32..100_000, 0u64..1_000_000), 1..200)
    ) {
        let slots = 1usize << slots_log;
        prop_assume!(slots >= stages);
        let mut pt = PacketTracker::new(PtMode::Constrained { slots, stages });
        let mut inserted: HashMap<(u32, u32), Vec<u64>> = HashMap::new();
        for (fl, eack, ts) in &inserts {
            let f = FlowKey::from_raw(0x0a00_0000 + fl, 40000, 0x01020304, 443);
            let sig = f.signature(SignatureWidth::W32);
            pt.insert_new(&f, sig, SeqNum(*eack), *ts);
            inserted.entry((*fl, *eack)).or_default().push(*ts);
            prop_assert!(pt.occupancy() <= pt.capacity());
        }
        for (fl, eack, _) in &inserts {
            let f = FlowKey::from_raw(0x0a00_0000 + fl, 40000, 0x01020304, 443);
            let sig = f.signature(SignatureWidth::W32);
            if let Some(ts) = pt.match_ack(&f, sig, SeqNum(*eack)) {
                prop_assert!(
                    inserted[&(*fl, *eack)].contains(&ts),
                    "match returned a timestamp never inserted"
                );
                // Consumed: an immediate re-match cannot return it again.
                let again = pt.match_ack(&f, sig, SeqNum(*eack));
                prop_assert!(again.is_none() || again != Some(ts));
            }
        }
    }

    /// Eviction conservation: every insert outcome accounts for records —
    /// nothing is silently duplicated.
    #[test]
    fn packet_tracker_conserves_records(
        inserts in prop::collection::vec((0u32..32, 1u32..50), 1..100)
    ) {
        let mut pt = PacketTracker::new(PtMode::Constrained { slots: 8, stages: 2 });
        let mut live: i64 = 0;
        for (i, (fl, eack)) in inserts.iter().enumerate() {
            let f = FlowKey::from_raw(0x0a00_0000 + fl, 40000, 0x01020304, 443);
            let sig = f.signature(SignatureWidth::W32);
            match pt.insert_new(&f, sig, SeqNum(*eack), i as u64) {
                PtInsert::Stored => live += 1,
                PtInsert::StoredOverwriting => {} // sketch only: +1 in, -1 out
                PtInsert::StoredEvicting(_) => {} // +1 in, -1 out
                PtInsert::CycleBroken { .. } => {}
            }
            // `Stored` may also be a same-identity refresh, so occupancy is
            // at most `live`, never more.
            prop_assert!(pt.occupancy() as i64 <= live);
        }
    }
}

// ------------------------------------------------------------ The engine --

/// Random single-flow packet streams: data packets with increasing-ish
/// sequence numbers, ACKs somewhere nearby, occasional SYN/FIN noise.
fn packet_stream() -> impl Strategy<Value = Vec<PacketMeta>> {
    let flow = FlowKey::from_raw(0x0a080001, 40777, 0x5db8d822, 443);
    prop::collection::vec((any::<bool>(), 0u32..20_000, 1u32..1_460, 0u8..4), 1..120).prop_map(
        move |ops| {
            let mut t = 0u64;
            ops.into_iter()
                .map(|(is_data, off, len, flag)| {
                    t += 1_000_000;
                    if is_data {
                        let mut b = PacketBuilder::new(flow, t)
                            .seq(1000 + off)
                            .payload(len)
                            .dir(Direction::Outbound);
                        if flag == 3 {
                            b = b.flags(TcpFlags::PSH);
                        }
                        b.build()
                    } else {
                        PacketBuilder::new(flow.reverse(), t)
                            .ack(1000 + off)
                            .dir(Direction::Inbound)
                            .build()
                    }
                })
                .collect()
        },
    )
}

proptest! {
    /// For ANY packet stream: every sample the engine emits corresponds to
    /// a previously seen data packet with exactly that eACK, and the RTT
    /// equals the gap between that data packet's capture and the ACK's.
    #[test]
    fn every_sample_is_justified_by_the_trace(pkts in packet_stream()) {
        let (samples, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &pkts);
        // Oracle: all (eack -> ts) sightings of data packets.
        let mut sightings: HashMap<u32, Vec<u64>> = HashMap::new();
        let mut justified = vec![];
        for p in &pkts {
            if p.is_seq() && p.dir == Direction::Outbound {
                sightings.entry(p.eack().raw()).or_default().push(p.ts);
            }
            if p.is_ack() && p.dir == Direction::Inbound {
                justified.push(p.ts);
            }
        }
        for s in &samples {
            let ts_list = sightings.get(&s.eack.raw());
            prop_assert!(ts_list.is_some(), "sample for never-seen eACK {}", s.eack);
            let ok = ts_list
                .unwrap()
                .iter()
                .any(|&dt| s.ts.saturating_sub(dt) == s.rtt);
            prop_assert!(ok, "sample rtt {} not derivable from trace", s.rtt);
        }
    }

    /// Constrained Dart is a strict subset of unlimited Dart in sample
    /// count, for any stream and any table geometry.
    #[test]
    fn constrained_never_beats_unlimited(
        pkts in packet_stream(),
        pt_log in 1u32..8,
        stages in 1usize..3,
    ) {
        let (unlimited, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &pkts);
        let slots = 1usize << pt_log;
        prop_assume!(slots >= stages);
        let cfg = DartConfig::default().with_rt(1 << 10).with_pt(slots, stages);
        let (constrained, _) = run_monitor_slice(&mut DartEngine::new(cfg), &pkts);
        prop_assert!(constrained.len() <= unlimited.len());
    }

    /// The engine never panics and its counters stay consistent on any
    /// stream.
    #[test]
    fn engine_counter_consistency(pkts in packet_stream()) {
        let cfg = DartConfig::default().with_rt(1 << 8).with_pt(1 << 6, 2).with_max_recirc(3);
        let (samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &pkts);
        prop_assert_eq!(stats.packets as usize, pkts.len());
        prop_assert_eq!(stats.samples as usize, samples.len());
        prop_assert_eq!(stats.samples, stats.pt_matched);
        // Every recirculation is resolved exactly once.
        prop_assert_eq!(
            stats.recirc_issued,
            stats.recirc_stale_dropped + stats.recirc_reinserted + stats.recirc_cycles_broken
        );
    }
}
