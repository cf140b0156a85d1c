//! Crash-consistency acceptance: the pinned seeds × crash-points ×
//! backends recovery matrix, driven through the production loop
//! (`dart_core::drive`). The daemon-level checkpoint/restore round trip
//! lives with the daemon, in `crates/tools/tests/daemon_restart.rs`.
//!
//! These live in their own test binary (not `recovery.rs` unit tests)
//! because they are CPU-heavy: cargo runs test binaries one at a time, so
//! this load cannot starve timing-sensitive tests elsewhere.

use dart_core::sharded::ShardedConfig;
use dart_core::{Backend, DartConfig};
use dart_testkit::{recovery_trace, run_recovery_matrix, CrashPoint, RecoveryConfig};

/// The ten pinned matrix seeds. Chosen once, never rotated: a failure at
/// one of these replays exactly (seed → trace, crash position, torn cut).
const SEEDS: [u64; 10] = [
    0xC4A5_0001,
    0xC4A5_0002,
    0xC4A5_0003,
    0xC4A5_0004,
    0xC4A5_0005,
    0xC4A5_0006,
    0xC4A5_0007,
    0xC4A5_0008,
    0xC4A5_0009,
    0xC4A5_000A,
];

const BACKENDS: [Backend; 3] = [Backend::Exact, Backend::Sketch, Backend::Precision];

#[test]
fn recovery_matrix_holds_for_every_seed_crash_point_and_backend() {
    let results = run_recovery_matrix(&SEEDS, &BACKENDS, &RecoveryConfig::default());
    assert_eq!(
        results.len(),
        SEEDS.len() * BACKENDS.len() * CrashPoint::ALL.len()
    );
    let failures: Vec<String> = results
        .iter()
        .filter(|(_, report)| !report.pass())
        .map(|(cfg, report)| {
            format!(
                "seed {:#x} / {} / {:?}: {report}",
                cfg.seed, cfg.crash, cfg.backend
            )
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {} matrix cells failed:\n{}",
        failures.len(),
        results.len(),
        failures.join("\n")
    );
    // Every mid-checkpoint-write cell must have proven the torn frame is
    // rejected — a vacuous pass here would hide a checksum regression.
    for (cfg, report) in &results {
        if cfg.crash == CrashPoint::MidCheckpointWrite {
            assert!(
                report.torn_write_detected,
                "seed {:#x}: torn frame accepted",
                cfg.seed
            );
        }
        assert!(
            report.lost > 0,
            "seed {:#x}: crash did not lose anything",
            cfg.seed
        );
        assert_eq!(
            report.card.impossible + report.card.cross_anchored,
            0,
            "seed {:#x}: fabricated samples after restore",
            cfg.seed
        );
    }
}

#[test]
fn snapshot_restore_round_trips_byte_identical_state_on_exact() {
    // Acceptance: checkpoint → restore → immediate checkpoint must
    // reproduce the exact same payload on the exact backend (restore is
    // lossless, not merely consistent).
    use dart_core::sharded::ShardedMonitor;
    use dart_core::{RttMonitor, RttSample};

    let pkts = recovery_trace(SEEDS[0]);
    let cfg = ShardedConfig::new(DartConfig::default(), 2).with_batch_size(64);
    let mut monitor = ShardedMonitor::new(cfg);
    let mut sink: Vec<RttSample> = Vec::new();
    monitor.on_batch(&pkts[..pkts.len() / 2], &mut sink);
    monitor.drain(&mut sink);
    let snap = monitor.snapshot().expect("checkpoint");
    drop(monitor);

    let mut restored = ShardedMonitor::new(cfg);
    restored.restore(&snap).expect("restore");
    let again = restored.snapshot().expect("re-checkpoint");
    assert_eq!(
        snap.payload(),
        again.payload(),
        "restore must round-trip byte-identical state"
    );
}

#[test]
fn checkpoint_pause_stays_under_ten_milliseconds_at_design_scale() {
    // Acceptance: the feed-loop pause for a checkpoint (serialize every
    // shard's tables + frame the snapshot) must stay under 10 ms at the
    // default design-scale table sizes (RT 2^20, PT 2^17) so a cadence of
    // seconds costs well under 1% of ingest time. The minimum over a few
    // runs is asserted: the design target is the pause itself, not
    // scheduler tail jitter on a loaded CI box.
    use dart_core::sharded::ShardedMonitor;
    use dart_core::{RttMonitor, RttSample};
    use std::time::{Duration, Instant};

    for backend in BACKENDS {
        let pkts = recovery_trace(SEEDS[1]);
        let cfg =
            ShardedConfig::new(DartConfig::default().with_backend(backend), 2).with_batch_size(256);
        let mut monitor = ShardedMonitor::new(cfg);
        let mut sink: Vec<RttSample> = Vec::new();
        monitor.on_batch(&pkts, &mut sink);
        monitor.drain(&mut sink);
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let start = Instant::now();
            let snap = monitor.snapshot().expect("checkpoint");
            best = best.min(start.elapsed());
            assert!(!snap.payload().is_empty());
        }
        assert!(
            best < Duration::from_millis(10),
            "{backend:?}: checkpoint pause {best:?} over the 10 ms budget"
        );
    }
}
