//! The pinned-seed adversarial scenario suite: every scenario kind, clean
//! and stressed, with the spin and histogram engines judged alongside the
//! Dart rows. CI's `scenarios` job runs exactly this test binary and
//! uploads `target/tmp/scenarios/` (the scorecards) on every run plus
//! `tests/shrunk/` when a run fails.

use dart_core::Backend;
use dart_packet::PacketMeta;
use dart_sim::adversarial::ScenarioKind;
use dart_testkit::{
    run_diff, run_scenario, run_scenario_matrix, scenario_artifact_dir, scenario_diff_config,
    shrink_and_save, write_scorecards, FaultConfig, FaultInjector, ScenarioConfig,
};

/// Pinned suite seeds; the scorecard numbers in EXPERIMENTS.md come from
/// these, so treat them as part of the suite.
const SCALE: f64 = 0.2;
const SEED: u64 = 0xD1A7;
const FAULT_SEED: u64 = 0x0F17;

/// Assert a scenario passed; on failure, shrink the (faulted) capture to
/// a minimal reproducer under `tests/shrunk/` and panic with its path.
fn assert_scenario_passes(cfg: &ScenarioConfig) {
    let outcome = run_scenario(cfg);
    if outcome.pass() {
        return;
    }
    let mut capture: Vec<PacketMeta> = cfg.kind.generate(cfg.scale, cfg.seed).packets;
    if let Some(fault) = cfg.fault {
        capture = FaultInjector::new(fault).apply(capture);
    }
    let diff_cfg = scenario_diff_config();
    let mut fails = move |t: &[PacketMeta]| !run_diff(&diff_cfg, None, t, None).pass();
    let name = format!(
        "scenario-{}-{}",
        cfg.kind,
        if cfg.fault.is_some() {
            "stressed"
        } else {
            "clean"
        }
    );
    let (minimal, path) =
        shrink_and_save(&name, &capture, &mut fails).expect("persist shrunk reproducer");
    panic!(
        "scenario failed; shrunk to {} packets at {}:\n{outcome}",
        minimal.len(),
        path.display()
    );
}

#[test]
fn every_scenario_passes_clean() {
    for kind in ScenarioKind::ALL {
        assert_scenario_passes(&ScenarioConfig::clean(kind, SCALE, SEED));
    }
}

#[test]
fn every_scenario_passes_stressed() {
    for kind in ScenarioKind::ALL {
        assert_scenario_passes(&ScenarioConfig::stressed(kind, SCALE, SEED, FAULT_SEED));
    }
}

#[test]
fn spin_engine_is_exercised_and_sound_on_every_scenario() {
    for kind in ScenarioKind::ALL {
        let outcome = run_scenario(&ScenarioConfig::clean(kind, SCALE, SEED));
        assert!(outcome.spin_flows > 0, "{kind}: no spin traffic generated");
        assert!(outcome.spin_edges > 0, "{kind}: no spin edges observed");
        let spin = outcome
            .report
            .outcomes
            .iter()
            .find(|o| o.name == "spin")
            .unwrap_or_else(|| panic!("{kind}: spin row missing"));
        assert_eq!(spin.sound, Some(true), "{kind}:\n{outcome}");
        assert_eq!(spin.card.impossible, 0, "{kind}: fabricated periods");
        assert!(
            spin.card.exact + spin.card.ambiguous > 0,
            "{kind}: spin engine emitted nothing:\n{outcome}"
        );
    }
}

#[test]
fn histogram_engine_tracks_the_oracle_distribution() {
    for kind in ScenarioKind::ALL {
        let outcome = run_scenario(&ScenarioConfig::clean(kind, SCALE, SEED));
        let hist = outcome
            .report
            .outcomes
            .iter()
            .find(|o| o.name == "dart-hist")
            .unwrap_or_else(|| panic!("{kind}: dart-hist row missing"));
        assert_eq!(
            hist.sound,
            Some(true),
            "{kind}: p50/p99 drifted:\n{outcome}"
        );
        assert!(hist.card.exact > 0, "{kind}: nothing binned:\n{outcome}");
    }
}

#[test]
fn matrix_writes_scorecard_artifacts() {
    let outcomes = run_scenario_matrix(SCALE, SEED, Some(FAULT_SEED), Backend::Exact);
    assert_eq!(outcomes.len(), 2 * ScenarioKind::ALL.len());
    let dir = scenario_artifact_dir();
    let summary = write_scorecards(&dir, &outcomes).expect("write scorecards");
    let text = std::fs::read_to_string(&summary).expect("read scorecard");
    for kind in ScenarioKind::ALL {
        assert!(text.contains(&kind.to_string()), "missing {kind}:\n{text}");
        assert!(
            dir.join(format!("{kind}.txt")).exists(),
            "per-scenario card missing for {kind}"
        );
        assert!(
            dir.join(format!("{kind}-stressed.txt")).exists(),
            "stressed card missing for {kind}"
        );
    }
    assert!(!text.contains("FAIL"), "scorecard has failures:\n{text}");
}

/// The lossy backends are held to the exact one's standard: every run of
/// the matrix passes, and their serial row is judged `ExactAnchored` with
/// no impossible sample allowed.
#[test]
fn sketch_and_precision_pass_the_matrix() {
    assert_eq!(scenario_diff_config().impossible_budget, 0);
    for backend in [Backend::Sketch, Backend::Precision] {
        let outcomes = run_scenario_matrix(SCALE, SEED, Some(FAULT_SEED), backend);
        assert_eq!(outcomes.len(), 2 * ScenarioKind::ALL.len());
        for outcome in outcomes {
            let dart = &outcome.report.outcomes[0];
            assert_eq!(dart.name, backend.engine_name());
            assert_eq!(dart.sound, Some(true), "{outcome}");
            assert_eq!(dart.card.impossible, 0, "{outcome}");
            assert!(outcome.pass(), "{outcome}");
        }
    }
}

#[test]
fn stressed_runs_fault_the_capture_spin_truth_included() {
    let cfg = ScenarioConfig::stressed(ScenarioKind::WirelessTail, SCALE, SEED, FAULT_SEED);
    let outcome = run_scenario(&cfg);
    let faults = outcome.report.faults.as_ref().expect("fault log recorded");
    assert!(faults.dropped > 0, "stress layer did nothing: {faults:?}");
    // The spin oracle judged the faulted capture, not the clean one: the
    // fault layer re-applies deterministically from the config, so an
    // independent replay must observe the same edge set.
    let faulted = FaultInjector::new(FaultConfig::stress(FAULT_SEED))
        .apply(cfg.kind.generate(cfg.scale, cfg.seed).packets);
    assert_eq!(
        outcome.spin_edges,
        dart_testkit::run_spin_oracle(&faulted).edge_count(),
        "edge truth not derived from the faulted capture"
    );
    assert!(outcome.pass(), "{outcome}");
}
