//! The chaos suite: pinned seeds for CI (report written as a build
//! artifact) plus a property sweep over random seeds.
//!
//! An injected shard panic mid-run ends in a degraded run — never a process
//! abort — whose flush reports the failure, in which the shard was
//! respawned, the degradation is accounted in `EngineStats`, and every
//! surviving RTT sample is sound against the oracle.

use dart_packet::PacketMeta;
use dart_sim::scenario::{campus, CampusConfig};
use dart_testkit::{run_chaos, ChaosConfig};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Seeds the CI job runs every time; a regression on any of them is
/// reproducible from the uploaded report alone.
const PINNED_SEEDS: [u64; 4] = [1, 7, 21, 42];

fn trace(seed: u64) -> Vec<PacketMeta> {
    campus(CampusConfig {
        connections: 40,
        duration: dart_packet::SECOND,
        seed,
        ..CampusConfig::default()
    })
    .packets
}

/// Append the suite's reports to the build-artifact file CI uploads.
fn save_artifact(name: &str, text: &str) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("chaos");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(name), text);
    }
}

#[test]
fn pinned_seed_panic_sweep_passes_every_policy() {
    let mut artifact = String::new();
    for seed in PINNED_SEEDS {
        let packets = trace(seed);
        let report = run_chaos(&ChaosConfig::seeded_panic(seed, packets.len()), &packets);
        let _ = writeln!(artifact, "{report}\n");
        assert!(report.pass(), "seed {seed}:\n{report}");
        // The injected panic is recorded, and the shard respawned once.
        assert_eq!(report.failures.len(), 1, "seed {seed}:\n{report}");
        assert_eq!(
            report.stats.shard_restarts, 1,
            "seed {seed}: one respawn:\n{report}"
        );
        assert!(
            report.stats.samples > 0,
            "seed {seed}: the run keeps measuring:\n{report}"
        );
    }
    save_artifact("pinned-panic.txt", &artifact);
}

#[test]
fn pinned_seed_stall_is_survived() {
    let mut artifact = String::new();
    for seed in [3u64, 9] {
        let packets = trace(seed);
        let report = run_chaos(&ChaosConfig::seeded_stall(seed, packets.len()), &packets);
        let _ = writeln!(artifact, "{report}\n");
        assert!(report.pass(), "{report}");
        assert!(
            report
                .failures
                .iter()
                .any(|f| matches!(f.kind, dart_core::FailureKind::Stalled { .. })),
            "watchdog must have fired:\n{report}"
        );
    }
    save_artifact("pinned-stall.txt", &artifact);
}

#[test]
fn pinned_seed_backpressure_is_lossless() {
    let packets: Vec<PacketMeta> = trace(5).into_iter().take(2_000).collect();
    let report = run_chaos(&ChaosConfig::seeded_slow(5), &packets);
    assert!(report.pass(), "{report}");
    assert!(report.failures.is_empty(), "{report}");
    assert_eq!(report.stats.monitor_miss, 0, "{report}");
    save_artifact("pinned-slow.txt", &report.to_string());
}

/// Shared trace for the property sweep (building one campus trace per case
/// would dominate the runtime).
fn shared_trace() -> &'static [PacketMeta] {
    static TRACE: OnceLock<Vec<PacketMeta>> = OnceLock::new();
    TRACE.get_or_init(|| trace(77))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seed: a mid-run shard panic never aborts, the shard respawns,
    /// and the degraded output holds every invariant the harness checks
    /// (conservation, soundness, bounded loss).
    #[test]
    fn random_seed_panic_never_aborts(seed in any::<u64>()) {
        let packets = shared_trace();
        let cfg = ChaosConfig::seeded_panic(seed, packets.len());
        let report = run_chaos(&cfg, packets);
        prop_assert!(report.pass(), "{}", report);
        prop_assert_eq!(report.stats.shard_restarts, 1, "{}", report);
    }
}
