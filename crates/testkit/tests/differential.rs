//! The pinned-seed differential suite: every engine vs. the oracle, clean
//! and faulted, plus the broken-engine canary and the shrinker acceptance
//! check. CI runs exactly this (`cargo test -p dart-testkit`) and uploads
//! `tests/shrunk/` when it fails.

use dart_core::{
    run_monitor_slice, Backend, DartConfig, DartEngine, ShardedConfig, ShardedMonitor,
};
use dart_packet::trace::TraceReader;
use dart_packet::{PacketMeta, PacketSource};
use dart_sim::scenario::{campus, CampusConfig};
use dart_testkit::oracle::{run_oracle, OracleConfig, SampleClass};
use dart_testkit::{
    apply_config_fault, backend_sweep, ddmin, run_diff, run_trace_skewed, shrink_and_save,
    ConfigFault, DiffConfig, FaultConfig,
};

/// Pinned trace seeds; changing these invalidates the calibrated
/// expectations below, so treat them as part of the suite.
const TRACE_SEEDS: [u64; 3] = [101, 202, 303];
const FAULT_SEEDS: [u64; 2] = [7, 77];

fn trace(seed: u64) -> Vec<PacketMeta> {
    campus(CampusConfig {
        connections: 80,
        duration: 2 * dart_packet::SECOND,
        seed,
        ..CampusConfig::default()
    })
    .packets
}

/// Assert a differential report passed; on failure, shrink the trace to a
/// minimal reproducer, persist it under `tests/shrunk/`, and panic with
/// the artifact path (CI uploads the directory).
fn assert_diff_passes(name: &str, cfg: &DiffConfig, packets: &[PacketMeta]) {
    let report = run_diff(cfg, None, packets, None);
    if report.pass() {
        return;
    }
    let shrink_cfg = cfg.clone();
    let mut fails = move |t: &[PacketMeta]| !run_diff(&shrink_cfg, None, t, None).pass();
    let (minimal, path) = shrink_and_save(name, packets, &mut fails)
        .expect("writing the shrunk reproducer must succeed");
    panic!(
        "differential check '{name}' failed; {}-packet reproducer at {}\n{report}",
        minimal.len(),
        path.display()
    );
}

#[test]
fn clean_traces_pass_for_all_engines_and_shards() {
    for seed in TRACE_SEEDS {
        assert_diff_passes(
            &format!("clean-{seed}"),
            &DiffConfig::default(),
            &trace(seed),
        );
    }
}

#[test]
fn faulted_traces_pass_for_all_engines_and_shards() {
    for trace_seed in TRACE_SEEDS {
        let packets = trace(trace_seed);
        for fault_seed in FAULT_SEEDS {
            let report = run_diff(
                &DiffConfig::default(),
                Some(FaultConfig::stress(fault_seed)),
                &packets,
                None,
            );
            assert!(
                report.pass(),
                "trace seed {trace_seed}, fault seed {fault_seed}:\n{report}"
            );
        }
    }
}

#[test]
fn recirculation_exhaustion_stays_sound_with_admitted_loss() {
    let cfg = DiffConfig {
        engine: apply_config_fault(DartConfig::default(), ConfigFault::RecircExhaustion),
        baselines: false,
        ..DiffConfig::default()
    };
    for seed in TRACE_SEEDS {
        assert_diff_passes(&format!("no-recirc-{seed}"), &cfg, &trace(seed));
    }
}

#[test]
fn starved_tables_stay_sound_with_admitted_loss() {
    let cfg = DiffConfig {
        engine: apply_config_fault(DartConfig::default(), ConfigFault::TinyTables),
        baselines: false,
        ..DiffConfig::default()
    };
    for seed in TRACE_SEEDS {
        let packets = trace(seed);
        let report = run_diff(&cfg, None, &packets, None);
        assert!(report.pass(), "seed {seed}:\n{report}");
        // Tiny tables must actually hurt: the oracle out-measures the
        // engine, otherwise this config exercises nothing.
        let dart = &report.outcomes[0];
        assert!(
            dart.card.missed() > 0,
            "seed {seed}: starved tables should lose samples\n{report}"
        );
    }
}

#[test]
fn narrow_signatures_alias_within_an_explicit_budget() {
    // W16 signatures may alias flows; soundness gets a small explicit
    // budget instead of zero. The budget is part of the fidelity contract:
    // if aliasing exceeds it, the hash layout regressed.
    let cfg = DiffConfig {
        engine: apply_config_fault(DartConfig::default(), ConfigFault::NarrowSignature),
        impossible_budget: 10,
        baselines: false,
        ..DiffConfig::default()
    };
    for seed in TRACE_SEEDS {
        let report = run_diff(&cfg, None, &trace(seed), None);
        assert!(report.pass(), "seed {seed}:\n{report}");
    }
}

#[test]
fn register_sweep_configs_all_pass() {
    let packets = trace(TRACE_SEEDS[0]);
    let profile = dart_switch::TargetProfile::tofino1();
    for (i, engine) in backend_sweep(&profile, &[1 << 14, 1 << 17], Backend::Exact)
        .into_iter()
        .enumerate()
    {
        let cfg = DiffConfig {
            engine,
            shards: vec![1],
            baselines: false,
            ..DiffConfig::default()
        };
        assert_diff_passes(&format!("sweep-{i}"), &cfg, &packets);
    }
}

#[test]
fn broken_engine_is_caught_and_shrunk_small() {
    let packets = trace(404);
    let oracle_cfg = OracleConfig::default();
    let skew = 3; // nanoseconds: a subtle off-by-a-tick bug

    let is_broken = |t: &[PacketMeta]| {
        let oracle = run_oracle(oracle_cfg, t);
        let (samples, _) = run_trace_skewed(DartConfig::default(), skew, t);
        samples
            .iter()
            .any(|s| oracle.classify(s) == SampleClass::Impossible)
    };

    // Detection: the doctored engine violates soundness on the full trace.
    assert!(is_broken(&packets), "canary engine must be detected");

    // Shrinking: the reproducer is tiny (acceptance bound: ≤ 200 packets;
    // in practice one data packet and one ACK).
    let mut fails = is_broken;
    let minimal = ddmin(&packets, &mut fails);
    assert!(
        minimal.len() <= 200,
        "reproducer too large: {} packets",
        minimal.len()
    );
    assert!(is_broken(&minimal), "reproducer must still fail");

    // The artifact replays byte-identically through the native format.
    let path = dart_testkit::write_artifact("broken-engine-canary", &minimal).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let mut back = Vec::new();
    TraceReader::new(&bytes[..])
        .unwrap()
        .read_to_end(&mut back)
        .unwrap();
    assert_eq!(back, minimal);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("txt"));
}

#[test]
fn sharded_and_serial_agree_on_faulted_traces() {
    // The differential runner compares each against the oracle; this pins
    // the stronger property that they agree with each other exactly.
    use std::collections::HashMap;
    for seed in FAULT_SEEDS {
        let mut injector = dart_testkit::FaultInjector::new(FaultConfig::stress(seed));
        let faulted = injector.apply(trace(TRACE_SEEDS[0]));
        let (serial, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::default()), &faulted);
        let mut monitor = ShardedMonitor::new(ShardedConfig::new(DartConfig::default(), 4));
        let (sharded, _) = run_monitor_slice(&mut monitor, &faulted);
        let count = |samples: &[dart_core::RttSample]| {
            let mut m: HashMap<_, u64> = HashMap::new();
            for s in samples {
                *m.entry((s.flow, s.eack.raw(), s.rtt, s.ts)).or_default() += 1;
            }
            m
        };
        assert_eq!(count(&serial), count(&sharded), "fault seed {seed}");
    }
}
