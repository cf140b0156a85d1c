//! Histogram-engine accuracy: across the adversarial scenario matrix, the
//! `dart-hist` engine's exported log2 buckets must put p50 and p99 within
//! ±1 bucket of the oracle's exact-RTT histogram — the `Histogram`
//! judgement contract (DESIGN.md §5g), checked here directly against the
//! testkit helpers so a regression names the drifted quantile.

use dart::baselines::HistMonitor;
use dart::core::{run_monitor_slice, DartConfig};
use dart::packet::PacketMeta;
use dart::sim::adversarial::ScenarioKind;
use dart::sim::scenario::{campus, CampusConfig};
use dart_testkit::{
    hist_within_tolerance, oracle_histogram, run_oracle, snapshot_from_rows, FaultConfig,
    FaultInjector, OracleConfig,
};
use proptest::prelude::*;

/// Pinned seeds shared with `tests/spin_oracle.rs`; the EXPERIMENTS.md
/// scorecard quotes these runs.
const PINNED_SEEDS: [u64; 10] = [
    0x0001, 0x003A, 0x007F, 0x00B2, 0x00C4, 0x011D, 0x01E5, 0x029A, 0x033C, 0x03F7,
];

/// Bin the capture through `dart-hist` and assert p50/p99 within ±1 log2
/// bucket of the oracle's valid-sample histogram.
fn assert_hist_tracks(pkts: &[PacketMeta], label: &str) {
    let oracle = run_oracle(OracleConfig::default(), pkts);
    let oracle_snap = oracle_histogram(&oracle);
    let mut eng = HistMonitor::new(DartConfig::default());
    let (rows, _) = run_monitor_slice(&mut eng, pkts);
    let (engine_snap, malformed) = snapshot_from_rows(&rows);
    assert!(malformed.is_empty(), "{label}: out-of-range buckets");
    if oracle_snap.count() == 0 {
        // Nothing measurable in the capture (all-QUIC or fully churned):
        // the engine must not invent a distribution either.
        assert_eq!(engine_snap.count(), 0, "{label}: binned phantom RTTs");
        return;
    }
    assert!(
        hist_within_tolerance(&engine_snap, &oracle_snap, 1),
        "{label}: p50 {:?} vs {:?}, p99 {:?} vs {:?} (engine vs oracle buckets)",
        engine_snap.quantile_bucket(0.5),
        oracle_snap.quantile_bucket(0.5),
        engine_snap.quantile_bucket(0.99),
        oracle_snap.quantile_bucket(0.99),
    );
}

#[test]
fn pinned_matrix_within_one_bucket_clean() {
    for &seed in &PINNED_SEEDS {
        for kind in ScenarioKind::ALL {
            let pkts = kind.generate(0.1, seed).packets;
            assert_hist_tracks(&pkts, &format!("{kind} seed {seed:#x}"));
        }
    }
}

#[test]
fn pinned_matrix_within_one_bucket_stressed() {
    for &seed in &PINNED_SEEDS {
        for kind in ScenarioKind::ALL {
            let clean = kind.generate(0.1, seed).packets;
            let faulted = FaultInjector::new(FaultConfig::stress(seed)).apply(clean);
            assert_hist_tracks(&faulted, &format!("{kind} seed {seed:#x} stressed"));
        }
    }
}

#[test]
fn empty_capture_yields_empty_histogram() {
    assert_hist_tracks(&[], "empty capture");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The ±1-bucket contract holds for ANY campus workload, not just the
    /// adversarial generators.
    #[test]
    fn campus_workloads_stay_within_one_bucket(
        seed in 0u64..1_000_000,
        connections in 20usize..80,
        loss in 0.0f64..0.05,
    ) {
        let pkts = campus(CampusConfig {
            connections,
            duration: dart::packet::SECOND,
            seed,
            mean_loss: loss,
            ..CampusConfig::default()
        })
        .packets;
        let oracle = run_oracle(OracleConfig::default(), &pkts);
        let oracle_snap = oracle_histogram(&oracle);
        let mut eng = HistMonitor::new(DartConfig::default());
        let (rows, _) = run_monitor_slice(&mut eng, &pkts);
        let (engine_snap, malformed) = snapshot_from_rows(&rows);
        prop_assert!(malformed.is_empty());
        if oracle_snap.count() > 0 {
            prop_assert!(
                hist_within_tolerance(&engine_snap, &oracle_snap, 1),
                "p50 {:?} vs {:?}, p99 {:?} vs {:?}",
                engine_snap.quantile_bucket(0.5),
                oracle_snap.quantile_bucket(0.5),
                engine_snap.quantile_bucket(0.99),
                oracle_snap.quantile_bucket(0.99),
            );
        }
    }
}
