//! Spin-engine soundness against the spin-edge oracle: under any seeded
//! combination of drop, duplication, and reordering, at any table
//! pressure, the engine must never emit a period the oracle classifies as
//! fabricated (`Impossible`) — the `SpinEdge` judgement contract.
//!
//! Structure of the argument these tests pin down empirically: the engine
//! and the oracle read the *same* (faulted) capture in the same order, so
//! the engine's per-flow `last_bit` always agrees with the oracle's, a
//! detected flip is an oracle edge by construction, and `last_edge` only
//! ever holds real edge timestamps — every emitted sample anchors both
//! endpoints to observed transitions, even when eviction or the rejection
//! heuristics discard state in between. At worst a sample is `Spanning`,
//! never `Impossible`.

use dart::baselines::{SpinConfig, SpinMonitor};
use dart::core::{run_monitor_slice, RttSample};
use dart::packet::trace::TraceReader;
use dart::packet::{FlowKey, PacketMeta, PacketSource, SeqNum, MILLISECOND};
use dart::sim::adversarial::ScenarioKind;
use dart::sim::spin::SpinFlowConfig;
use dart::sim::spin_flow;
use dart_testkit::{ddmin, run_spin_oracle, FaultConfig, FaultInjector, SpinClass};
use proptest::prelude::*;

/// Pinned seeds for the acceptance sweep (ISSUE 7): ten seeds, every
/// scenario kind, stress faults, zero fabricated samples. Treat these as
/// part of the suite — the numbers in EXPERIMENTS.md come from them.
const PINNED_SEEDS: [u64; 10] = [
    0x0001, 0x003A, 0x007F, 0x00B2, 0x00C4, 0x011D, 0x01E5, 0x029A, 0x033C, 0x03F7,
];

/// Run the spin engine at the given table size and score it against the
/// spin-edge oracle over the same capture; panic on any fabrication.
fn assert_spin_sound(pkts: &[PacketMeta], slots: usize, label: &str) {
    let oracle = run_spin_oracle(pkts);
    let mut eng = SpinMonitor::new(SpinConfig {
        slots,
        ..SpinConfig::default()
    });
    let (samples, stats) = run_monitor_slice(&mut eng, pkts);
    assert_eq!(stats.packets, pkts.len() as u64, "{label}: packets lost");
    let card = oracle.score(&samples);
    assert_eq!(
        card.impossible, 0,
        "{label}: fabricated periods (slots={slots}): {:?}",
        card.impossible_samples
    );
}

#[test]
fn pinned_seeds_zero_impossible_across_every_scenario() {
    for &seed in &PINNED_SEEDS {
        for kind in ScenarioKind::ALL {
            let clean = kind.generate(0.1, seed).packets;
            let faulted = FaultInjector::new(FaultConfig::stress(seed)).apply(clean);
            let label = format!("{kind} seed {seed:#x}");
            // Comfortable table, then a 64-slot one where collisions and
            // evictions are constant.
            assert_spin_sound(&faulted, 4096, &label);
            assert_spin_sound(&faulted, 64, &label);
        }
    }
}

#[test]
fn oracle_catches_fabricated_periods() {
    // The canary: a sample whose endpoints are NOT observed transitions
    // must be classified Impossible — otherwise the suite above proves
    // nothing.
    let pkts = spin_flow(SpinFlowConfig {
        seed: 42,
        ..SpinFlowConfig::default()
    });
    let oracle = run_spin_oracle(&pkts);
    let flow = pkts[0].flow;
    let edges = oracle.edges_of(&flow);
    assert!(edges.len() >= 2, "generator produced too few edges");
    let (a, b) = (edges[0], edges[1]);
    // Real consecutive edges: exact.
    let good = RttSample::new(flow, SeqNum(1), b - a, b);
    assert_eq!(oracle.classify(&good), SpinClass::Exact);
    // Same end, off-by-a-nanosecond start: fabricated.
    let skewed = RttSample::new(flow, SeqNum(1), b - a + 1, b);
    assert_eq!(oracle.classify(&skewed), SpinClass::Impossible);
    // Unknown flow entirely.
    let alien = RttSample::new(FlowKey::from_raw(9, 9, 9, 9), SeqNum(1), b - a, b);
    assert_eq!(oracle.classify(&alien), SpinClass::Impossible);
}

#[test]
fn ddmin_shrinks_spin_traces_without_seq_ack_structure() {
    // Satellite: the shrinker must handle captures with no SEQ/ACK
    // packets at all. Minimize "the capture still contains >= 2 edges of
    // the first flow" down to the 3-packet witness (seed, flip, flip).
    let pkts = spin_flow(SpinFlowConfig {
        seed: 7,
        loss: 0.0,
        ..SpinFlowConfig::default()
    });
    assert!(pkts.iter().all(|p| !p.is_seq() && !p.is_ack()));
    let flow = pkts[0].flow;
    let mut fails = |t: &[PacketMeta]| run_spin_oracle(t).edges_of(&flow).len() >= 2;
    let minimal = ddmin(&pkts, &mut fails);
    assert_eq!(
        minimal.len(),
        3,
        "two edges need exactly three spin packets: {minimal:?}"
    );
    assert!(minimal.iter().all(|p| p.spin().is_some()));

    // Pinned reproducer: the committed artifact must match what the
    // shrinker derives today, and replay losslessly through the native
    // trace format (QUIC marker and spin bits included).
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/shrunk");
    let path = dir.join("spin-mix-minimal.trace");
    let bytes = dart::packet::trace::to_bytes(&minimal);
    match std::fs::read(&path) {
        Ok(committed) => {
            assert_eq!(
                committed, bytes,
                "committed spin reproducer diverged from the shrinker's \
                 output; regenerate tests/shrunk/spin-mix-minimal.*"
            );
            let mut back = Vec::new();
            TraceReader::new(&committed[..])
                .and_then(|mut reader| reader.read_to_end(&mut back))
                .expect("replayable artifact");
            assert_eq!(back, minimal);
            assert!(back.iter().all(|p| p.spin().is_some()), "spin bits lost");
        }
        Err(_) => {
            // Bootstrap: write the artifact pair for committing.
            std::fs::write(&path, &bytes).expect("write trace artifact");
            let listing: String = minimal.iter().map(|p| format!("{p}\n")).collect();
            std::fs::write(dir.join("spin-mix-minimal.txt"), listing).expect("write listing");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For ANY fault mix and ANY table pressure, the spin engine stays
    /// sound on generated QUIC traffic — and every emitted RTT clears the
    /// engine's own minimum-period heuristic.
    #[test]
    fn spin_engine_never_fabricates(
        seed in 0u64..1_000_000,
        drop in 0.0f64..0.10,
        duplicate in 0.0f64..0.05,
        reorder in 0.0f64..0.05,
        slots in 1usize..128,
    ) {
        let mut pkts: Vec<PacketMeta> = Vec::new();
        for i in 0..3u32 {
            pkts.extend(spin_flow(SpinFlowConfig {
                flow: FlowKey::from_raw(
                    0x0a0d_0000 + i, 43_000 + i as u16, 0x5db8_d9a0 + i, 443,
                ),
                seed: seed ^ i as u64,
                ..SpinFlowConfig::default()
            }));
        }
        pkts.sort_by_key(|p| p.ts);
        let fault = FaultConfig {
            drop,
            duplicate,
            reorder,
            ..FaultConfig::stress(seed)
        };
        let faulted = FaultInjector::new(fault).apply(pkts);
        let oracle = run_spin_oracle(&faulted);
        let mut eng = SpinMonitor::new(SpinConfig { slots, ..SpinConfig::default() });
        let (samples, _) = run_monitor_slice(&mut eng, &faulted);
        let card = oracle.score(&samples);
        prop_assert_eq!(card.impossible, 0, "fabricated: {:?}", card.impossible_samples);
        for s in &samples {
            prop_assert!(s.rtt >= MILLISECOND, "rejection heuristic leaked {}", s.rtt);
        }
    }
}
