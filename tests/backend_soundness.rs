//! Oracle-judged soundness of the non-exact flow-state backends.
//!
//! The sketch and precision backends trade recall for memory; what they
//! must never trade away is soundness. Against the testkit oracle, over
//! randomized lossy campus traffic and starved tables:
//!
//! * **no fabrication** — no emitted sample the oracle classifies as
//!   impossible, and (Dart anchors exact left edges) none cross-anchored;
//! * **bounded loss** — every oracle-valid sample a backend misses is
//!   accounted for by its own counters via the testkit loss budget, with
//!   sketch overwrites surfacing as unmatched advances or flowless ACKs
//!   and admission denials as unmatched advances.
//!
//! Two committed ddmin-shrunk reproducers (see `tests/shrunk/README.md`)
//! pin the smallest known sketch *divergence* (intended, and sound) and
//! the three packets on which the sketch PT used to *fabricate*.

use dart::core::{
    run_monitor_slice, AdmissionMode, Backend, DartConfig, DartEngine, EngineStats, Leg, RttMonitor,
};
use dart::packet::PacketMeta;
use dart::sim::scenario::{campus, CampusConfig};
use dart_testkit::{loss_budget, run_oracle, OracleConfig};
use proptest::prelude::*;

fn trace(seed: u64, connections: usize) -> Vec<PacketMeta> {
    campus(CampusConfig {
        connections,
        duration: dart::packet::SECOND,
        seed,
        mean_loss: 0.02,
        reorder: 0.01,
        ..CampusConfig::default()
    })
    .packets
}

/// Run one backend over a capture and judge it against the oracle:
/// fabrication is a failure anywhere; every miss must fit the loss budget.
fn judge(cfg: DartConfig, pkts: &[PacketMeta]) -> Result<EngineStats, TestCaseError> {
    let mut engine = DartEngine::new(cfg);
    let (samples, stats) = run_monitor_slice(&mut engine as &mut dyn RttMonitor, pkts);
    let oracle = run_oracle(
        OracleConfig {
            syn_policy: cfg.syn_policy,
            leg: cfg.leg,
        },
        pkts,
    );
    let card = oracle.score(&samples);
    prop_assert_eq!(
        card.impossible + card.cross_anchored,
        0,
        "{:?}: fabricated/cross-anchored samples",
        cfg.backend()
    );
    prop_assert!(
        card.missed() <= loss_budget(&stats),
        "{:?}: missed {} samples but counters only admit to {}",
        cfg.backend(),
        card.missed(),
        loss_budget(&stats)
    );
    Ok(stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The sketch backend under heavy churn pressure: tiny 2-way tables
    /// force recency evictions and fingerprint overwrites, all of which
    /// must land in counters, never in fabricated samples.
    #[test]
    fn sketch_backend_is_sound_under_pressure(
        seed in 0u64..(1 << 32),
        conns in 8usize..48,
    ) {
        let pkts = trace(seed, conns);
        let mut overwrites = 0u64;
        for cfg in [
            DartConfig::default().with_backend(Backend::Sketch),
            DartConfig::default()
                .with_rt(1 << 7)
                .with_pt(64, 2)
                .with_backend(Backend::Sketch),
        ] {
            overwrites += judge(cfg, &pkts)?.sketch_overwritten;
        }
        // The starved config must actually exercise the overwrite paths —
        // a sweep that never overwrites proves nothing.
        if conns >= 24 {
            prop_assert!(overwrites > 0, "pressure config never overwrote");
        }
    }

    /// The precision backend: exact tables, but evicted records must win a
    /// coin flip (or heavy-hitter status) to recirculate. Denied records
    /// may only cost recall the counters admit to.
    #[test]
    fn precision_backend_is_sound_under_pressure(
        seed in 0u64..(1 << 32),
        conns in 8usize..48,
    ) {
        let pkts = trace(seed, conns);
        let mut gated = 0u64;
        // The default gate's heavy-hitter capacity (64) can exceed the
        // trace's whole flow population, in which case every flow is heavy
        // and nothing is ever denied — a correct but toothless run. The
        // pressure config pins a 4-entry heavy-hitter table so the coin
        // actually flips.
        for cfg in [
            DartConfig::default().with_backend(Backend::Precision),
            DartConfig::default()
                .with_rt(1 << 10)
                .with_pt(8, 1)
                .with_admission(AdmissionMode::Probabilistic {
                    sample_shift: 2,
                    hh_capacity: 4,
                    seed: 0x5EED,
                }),
        ] {
            let stats = judge(cfg, &pkts)?;
            gated += stats.recirc_admission_denied + stats.recirc_admission_hh;
            // Admission only gates the recirculation path: nothing may be
            // both denied and recirculated.
            prop_assert!(
                stats.recirc_issued + stats.recirc_admission_denied
                    <= stats.pt_displaced + stats.victim_cached,
                "admission accounting exceeds evictions"
            );
        }
        // Evictions on campus traffic skew toward elephants, which
        // legitimately bypass as heavy hitters — so per-trace denial
        // counts can be zero. Require only that the gate ruled at all;
        // `precision_gate_denies_on_pinned_trace` pins actual denial.
        if conns >= 24 {
            prop_assert!(gated > 0, "pressure config never consulted the gate");
        }
    }
}

/// A pinned trace on which the precision gate demonstrably *denies*: the
/// coin path costs recall (accounted), not just the heavy-hitter bypass.
#[test]
fn precision_gate_denies_on_pinned_trace() {
    let pkts = trace(0xABCD, 24);
    let cfg = DartConfig::default()
        .with_rt(1 << 10)
        .with_pt(8, 1)
        .with_admission(AdmissionMode::Probabilistic {
            sample_shift: 2,
            hh_capacity: 4,
            seed: 0x5EED,
        });
    let mut engine = DartEngine::new(cfg);
    let (_, stats) = run_monitor_slice(&mut engine as &mut dyn RttMonitor, &pkts);
    assert!(stats.recirc_admission_denied > 0, "{stats:?}");
    assert!(stats.recirc_admission_hh > 0, "{stats:?}");
    // Denied records never reach the recirculation port.
    assert!(stats.recirc_issued <= stats.pt_displaced - stats.recirc_admission_denied);
}

/// A reproducer committed under `tests/shrunk/`.
fn shrunk(name: &str) -> Vec<PacketMeta> {
    let path = format!("{}/tests/shrunk/{name}.trace", env!("CARGO_MANIFEST_DIR"));
    let bytes = std::fs::read(path).expect("committed reproducer missing");
    dart::packet::trace::from_bytes(&bytes).expect("reproducer must parse")
}

/// Replay the committed ddmin-shrunk reproducer: the smallest capture on
/// which the sketch backend loses a sample the exact backend keeps (a
/// sketch-overwrite divergence). The divergence itself is intended — the
/// assertion is that it stays *sound*: the loss is visible in
/// `sketch_overwritten`-adjacent counters and fits the loss budget, and
/// the exact backend still samples.
#[test]
fn shrunk_sketch_divergence_stays_sound() {
    let pkts = shrunk("backend-sketch-overwrite-minimal");
    let cfg_exact = DartConfig::default().with_rt(2).with_pt(2, 2);
    let cfg_sketch = cfg_exact.with_backend(Backend::Sketch);

    let mut exact = DartEngine::new(cfg_exact);
    let (exact_samples, _) = run_monitor_slice(&mut exact as &mut dyn RttMonitor, &pkts);
    let mut sketch = DartEngine::new(cfg_sketch);
    let (sketch_samples, stats) = run_monitor_slice(&mut sketch as &mut dyn RttMonitor, &pkts);

    assert!(
        sketch_samples.len() < exact_samples.len(),
        "reproducer no longer diverges: exact {} vs sketch {} samples",
        exact_samples.len(),
        sketch_samples.len()
    );
    assert!(stats.sketch_overwritten > 0, "divergence must be counted");
    let oracle = run_oracle(
        OracleConfig {
            syn_policy: cfg_sketch.syn_policy,
            leg: cfg_sketch.leg,
        },
        &pkts,
    );
    let card = oracle.score(&sketch_samples);
    assert_eq!(card.impossible + card.cross_anchored, 0);
    assert!(card.missed() <= loss_budget(&stats));
}

/// The geometry of the sketch-fingerprint fabrication, since fixed: both
/// legs through a 4 096-slot RT and a 512-cell, 4-way sketch PT.
fn fabrication_cfg() -> DartConfig {
    DartConfig::default()
        .with_leg(Leg::Both)
        .with_rt(4096)
        .with_pt(512, 1)
        .with_max_recirc(2)
        .with_backend(Backend::Sketch)
}

/// The three packets ddmin left of the 3.36 M-packet capture below: a data
/// packet, a data packet of another flow that shares its PT cell, and the
/// first one's ACK. When the sketch PT's fingerprint was a CRC sibling of
/// its way index the two identities — cell-mates, so equal in seven
/// fingerprint bits for free — collided in the other 25 as well: the
/// second insert took the cell for its own ("same identity: refresh the
/// timestamp") and the ACK then measured from the *other flow's* send
/// time. With an index-independent fingerprint both keep their cells.
#[test]
fn shrunk_sketch_fabrication_is_gone() {
    let pkts = shrunk("backend-sketch-fingerprint-minimal");
    assert_eq!(pkts.len(), 3);
    let stats = judge(fabrication_cfg(), &pkts).unwrap();
    assert_eq!((stats.pt_stored, stats.samples), (2, 1));
}

/// The capture the witness above was shrunk from, end to end (`dartmon
/// generate --connections 10000 --duration-secs 5 --seed 0`): 1.48 M
/// overwrites, 619 035 exact samples, and — at the parent — one impossible.
/// A minute in a debug build, so tier-1 skips it; CI's `backend frontier`
/// job runs the same capture through the release `dartmon diff`, and
/// `cargo test --release --test backend_soundness -- --ignored` runs this.
#[test]
#[ignore = "3.36 M packets through engine and oracle: run with --release -- --ignored"]
fn sketch_fabricates_nothing_on_the_roadmap_reproducer() {
    let pkts = campus(CampusConfig {
        connections: 10_000,
        duration: 5 * dart::packet::SECOND,
        seed: 0,
        ..CampusConfig::default()
    })
    .packets;
    let stats = judge(fabrication_cfg(), &pkts).unwrap();
    assert!(stats.sketch_overwritten > 1_000_000, "{stats:?}");
}
