//! Differential coverage of the flow-state backends.
//!
//! Three layers:
//!
//! * **Sweeps** — [`backend_sweep`] configs (equal SRAM budgets per index
//!   across backends) run through the full differential matrix with
//!   `dart@sketch` / `dart@precision` judged by their registry contracts;
//! * **Exact parity** — the refactored `dart` entry replayed through the
//!   registry, the direct engine, and the batched monitor path must be
//!   byte-identical (samples and counters), which is what the frontier
//!   benchmark's throughput comparison rests on;
//! * **Reproducer regeneration** — `UPDATE_SHRUNK=1` re-derives the
//!   committed ddmin-minimal sketch-divergence artifact.

use dart_baselines::EngineRegistry;
use dart_core::{run_monitor_slice, Backend, DartConfig, DartEngine, RttMonitor};
use dart_packet::PacketMeta;
use dart_sim::scenario::{campus, CampusConfig};
use dart_switch::TargetProfile;
use dart_testkit::{backend_sweep, run_diff, run_per_packet, shrink_and_save, DiffConfig};

fn trace(seed: u64, connections: usize) -> Vec<PacketMeta> {
    campus(CampusConfig {
        connections,
        duration: dart_packet::SECOND,
        seed,
        mean_loss: 0.02,
        reorder: 0.01,
        ..CampusConfig::default()
    })
    .packets
}

/// Every point of a reduced SRAM sweep, for every backend, must pass the
/// differential suite under its registry judgement: `dart@sketch` and
/// `dart@precision` are `ExactAnchored`, so fabrication, cross-anchoring,
/// and unaccounted loss all fail here — across table sizes, not just the
/// default operating point.
#[test]
fn backend_sweeps_pass_the_differential_matrix() {
    let pkts = trace(0xF007, 80);
    for backend in [Backend::Sketch, Backend::Precision] {
        for cfg in backend_sweep(&TargetProfile::tofino1(), &[512, 4096], backend) {
            let name = backend.engine_name();
            let diff = DiffConfig {
                engine: cfg,
                shards: vec![1],
                impossible_budget: 0,
                baselines: true,
                baseline_engines: vec![name.to_string()],
            };
            let report = run_diff(&diff, None, &pkts, None);
            assert!(
                report.pass(),
                "{name} failed at {:?}/{:?}:\n{report}",
                cfg.rt,
                cfg.pt
            );
        }
    }
}

/// Exact parity across every construction path: the registry's `dart`
/// entry (built through the backend seam), a directly constructed engine,
/// and the batched `run_monitor_slice` driver must agree byte-for-byte on
/// samples and the full counter set.
#[test]
fn exact_backend_is_identical_across_construction_and_batch_paths() {
    let pkts = trace(0xE4AC, 70);
    for cfg in [
        DartConfig::default(),
        DartConfig::default().with_rt(1 << 10).with_pt(256, 2),
    ] {
        let (direct_samples, direct_stats) = run_per_packet(&mut DartEngine::new(cfg), &pkts);

        let registry = EngineRegistry::standard();
        let mut built = registry.build("dart", &cfg).expect("dart is registered");
        let (reg_samples, reg_stats) = run_monitor_slice(built.monitor.as_mut(), &pkts);
        assert_eq!(reg_samples, direct_samples, "registry path diverged");
        assert_eq!(reg_stats, direct_stats, "registry counters diverged");

        let mut engine = DartEngine::new(cfg);
        let (batch_samples, batch_stats) =
            run_monitor_slice(&mut engine as &mut dyn RttMonitor, &pkts);
        assert_eq!(batch_samples, direct_samples, "batch path diverged");
        assert_eq!(batch_stats, direct_stats, "batch counters diverged");
    }
}

/// An explicit `Backend::Exact` round-trip is the identity on results: a
/// config normalised through `with_backend(Exact)` replays identically to
/// the untouched config.
#[test]
fn with_backend_exact_is_an_identity_on_results() {
    let pkts = trace(0x1DE0, 50);
    let base = DartConfig::default().with_pt(128, 2);
    let (a, sa) = run_per_packet(&mut DartEngine::new(base), &pkts);
    let (b, sb) = run_per_packet(
        &mut DartEngine::new(base.with_backend(Backend::Exact)),
        &pkts,
    );
    assert_eq!(a, b);
    assert_eq!(sa, sb);
}

/// `fails` predicate for the shrinker: the sketch backend emits strictly
/// fewer samples than exact on starved 2-way tables — the overwrite
/// divergence the committed reproducer pins.
fn sketch_diverges(pkts: &[PacketMeta]) -> bool {
    let cfg_exact = DartConfig::default().with_rt(2).with_pt(2, 2);
    let (exact, _) = run_per_packet(&mut DartEngine::new(cfg_exact), pkts);
    let (sketch, stats) = run_per_packet(
        &mut DartEngine::new(cfg_exact.with_backend(Backend::Sketch)),
        pkts,
    );
    sketch.len() < exact.len() && stats.sketch_overwritten > 0
}

/// Regenerate the committed divergence reproducer (normally a no-op):
///
/// ```text
/// UPDATE_SHRUNK=1 cargo test -p dart-testkit --test backends
/// ```
///
/// then `git add -f tests/shrunk/backend-sketch-overwrite-minimal.*`.
/// The facade test `backend_soundness::shrunk_sketch_divergence_stays_sound`
/// replays the artifact on every run.
#[test]
fn regenerate_sketch_divergence_reproducer() {
    if std::env::var("UPDATE_SHRUNK").is_err() {
        return;
    }
    let full = (0..64u64)
        .map(|s| trace(0xD1CE ^ s, 12))
        .find(|t| sketch_diverges(t))
        .expect("no diverging seed found in the search budget");
    let (minimal, path) = shrink_and_save("backend-sketch-overwrite-minimal", &full, &mut |t| {
        sketch_diverges(t)
    })
    .expect("artifact write failed");
    assert!(sketch_diverges(&minimal));
    eprintln!("wrote {} ({} packets)", path.display(), minimal.len());
}
