//! Exact-backend conformance: the refactored backend seam must leave the
//! `exact` engine **byte-identical** to the pre-refactor engine.
//!
//! The golden digests under `tests/golden/exact_backend.txt` were generated
//! from the engine *before* the `RtTable`/`PtTable` seam was introduced
//! (same pinned traces, same configs; `streaming=` is the one-packet split
//! — the engine has one body, `on_packet` is a one-packet block of it — and
//! `batch=` an irregular one, pinned separately as bytes). Any
//! behavioural drift in the exact backend — a reordered table probe, a
//! changed eviction decision, a different sample or counter — changes a
//! digest and fails here. Regenerate (only when a divergence is both
//! intended and understood) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p dart --test backend_conformance
//! ```
//!
//! The digests cover only the counters that existed before the seam, so
//! adding *new* counters (admission/sketch accounting) cannot disturb
//! them.

use dart::core::{DartConfig, DartEngine, EngineStats, Leg, RttMonitor, RttSample};
use dart::packet::{FlowKey, PacketMeta};
use dart::sim::scenario::{campus, CampusConfig};
use dart::sim::spin::SpinFlowConfig;
use dart::sim::spin_flow;
use dart_testkit::run_per_packet;
use std::fmt::Write as _;

/// The counter set that predates the backend seam: digests are computed
/// over exactly these rows, in this order, so newly added counters cannot
/// retroactively invalidate the goldens.
const PRE_SEAM_COUNTERS: &[&str] = &[
    "packets",
    "syn_skipped",
    "seq_tracked",
    "seq_retransmission",
    "seq_hole_reset",
    "seq_wraparound",
    "seq_rt_collision",
    "ack_advanced",
    "ack_duplicate",
    "ack_stale",
    "ack_optimistic",
    "ack_no_flow",
    "range_collapses",
    "pt_stored",
    "pt_displaced",
    "pt_matched",
    "recirc_issued",
    "recirc_stale_dropped",
    "recirc_reinserted",
    "recirc_cap_dropped",
    "recirc_cycles_broken",
    "recirc_filtered",
    "dual_role_recirc",
    "no_role",
    "filtered_flows",
    "victim_cached",
    "victim_cache_hits",
    "rt_copy_reinserted",
    "rt_copy_dropped",
    "samples",
    "spin_edges",
    "spin_rejected",
    "shard_restarts",
    "flows_lost",
    "monitor_miss",
];

/// FNV-1a over the full byte-level content of a run: every sample field
/// plus every pre-seam counter.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn sample(&mut self, s: &RttSample) {
        self.bytes(&u32::from(s.flow.src_ip).to_le_bytes());
        self.bytes(&s.flow.src_port.to_le_bytes());
        self.bytes(&u32::from(s.flow.dst_ip).to_le_bytes());
        self.bytes(&s.flow.dst_port.to_le_bytes());
        self.bytes(&s.eack.raw().to_le_bytes());
        self.u64(s.rtt);
        self.u64(s.ts);
        self.bytes(&s.weight.0.to_le_bytes());
    }

    fn stats(&mut self, stats: &EngineStats) {
        let rows = stats.metric_rows();
        for name in PRE_SEAM_COUNTERS {
            let (_, v) = rows
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("counter {name} vanished from metric_rows"));
            self.bytes(name.as_bytes());
            self.u64(*v);
        }
    }
}

/// The pinned workload: a lossy, reordered campus mix with two QUIC spin
/// flows folded in (the engine must ignore them identically).
fn trace(seed: u64, connections: usize) -> Vec<PacketMeta> {
    let mut pkts = campus(CampusConfig {
        connections,
        duration: dart::packet::SECOND,
        seed,
        mean_loss: 0.02,
        reorder: 0.01,
        ..CampusConfig::default()
    })
    .packets;
    for i in 0..2u32 {
        pkts.extend(spin_flow(SpinFlowConfig {
            flow: FlowKey::from_raw(0x0a0c_0000 + i, 42_000 + i as u16, 0x5db8_d9f0 + i, 443),
            duration: dart::packet::SECOND,
            seed: seed ^ (0x51C0 + u64::from(i)),
            ..SpinFlowConfig::default()
        }));
    }
    pkts.sort_by_key(|p| p.ts);
    pkts
}

/// Every (name, config) family the goldens pin: the paper operating point,
/// tight tables under eviction pressure, multi-stage + deep recirculation,
/// the victim cache, the RT copy, both legs, and the unlimited
/// idealization.
fn config_cases() -> Vec<(&'static str, DartConfig)> {
    vec![
        ("default", DartConfig::default()),
        (
            "tiny-tables",
            DartConfig::default().with_rt(1 << 10).with_pt(256, 1),
        ),
        (
            "multi-stage-recirc",
            DartConfig::default()
                .with_rt(1 << 12)
                .with_pt(1 << 10, 4)
                .with_max_recirc(4),
        ),
        (
            "victim-cache",
            DartConfig::default()
                .with_rt(1 << 11)
                .with_pt(128, 2)
                .with_victim_cache(8),
        ),
        (
            "rt-copy",
            DartConfig::default()
                .with_rt(1 << 11)
                .with_pt(128, 1)
                .with_rt_copy(1_000_000),
        ),
        ("both-legs", DartConfig::default().with_leg(Leg::Both)),
        ("unlimited", DartConfig::unlimited()),
    ]
}

/// One streaming replay digest: per-packet `on_packet` + flush.
fn digest_streaming(cfg: DartConfig, pkts: &[PacketMeta]) -> u64 {
    let (samples, stats) = run_per_packet(&mut DartEngine::new(cfg), pkts);
    let mut d = Digest::new();
    d.u64(samples.len() as u64);
    for s in &samples {
        d.sample(s);
    }
    d.stats(&stats);
    d.0
}

/// One batch replay digest: `on_batch` over irregular splits + flush.
fn digest_batch(cfg: DartConfig, pkts: &[PacketMeta]) -> u64 {
    let split_lens = [256usize, 1, 0, 1024, 7, 64, 3];
    let mut engine = DartEngine::new(cfg);
    let mut samples: Vec<RttSample> = Vec::new();
    let (mut off, mut s) = (0usize, 0usize);
    while off < pkts.len() {
        let len = split_lens[s % split_lens.len()].min(pkts.len() - off);
        engine.on_batch(&pkts[off..off + len], &mut samples);
        off += len;
        s += 1;
    }
    engine.flush(&mut samples);
    let mut d = Digest::new();
    d.u64(samples.len() as u64);
    for s in &samples {
        d.sample(s);
    }
    d.stats(&engine.stats());
    d.0
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exact_backend.txt")
}

fn compute_goldens() -> String {
    let traces = [(0xDA27u64, 160usize), (0x1234, 90), (0xBEEF, 40)];
    let mut out = String::new();
    for (seed, conns) in traces {
        let pkts = trace(seed, conns);
        for (name, cfg) in config_cases() {
            let s = digest_streaming(cfg, &pkts);
            let b = digest_batch(cfg, &pkts);
            writeln!(
                out,
                "{seed:#x}/{conns} {name} streaming={s:016x} batch={b:016x}"
            )
            .unwrap();
        }
    }
    out
}

/// Split-invariance across *every* backend: streaming and batch replays of
/// the same capture must be byte-identical — samples, order, and the full
/// counter set — for any block split. The exact backend inherits this from
/// the goldens; the sketch and precision backends must honour the same
/// contract (pure resolution + deterministic table transitions), which is
/// exactly what lets the frontier benchmarks use the batch path.
mod split_invariance {
    use super::*;
    use dart::core::Backend;
    use proptest::prelude::*;

    fn digest_full(samples: &[RttSample], stats: &EngineStats) -> u64 {
        let mut d = Digest::new();
        d.u64(samples.len() as u64);
        for s in samples {
            d.sample(s);
        }
        // All rows, not just the pre-seam set: admission/sketch counters
        // must agree across paths too.
        for (name, v) in stats.metric_rows() {
            d.bytes(name.as_bytes());
            d.u64(v);
        }
        d.0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn every_backend_is_split_invariant(
            seed in 0u64..(1 << 32),
            conns in 8usize..40,
            splits in proptest::collection::vec(0usize..200, 1..8),
        ) {
            let pkts = trace(seed, conns);
            // Zero-length blocks are legal, but an all-zero cycle would
            // never advance the replay.
            let mut splits = splits;
            if splits.iter().all(|&l| l == 0) {
                splits.push(17);
            }
            for backend in [Backend::Exact, Backend::Sketch, Backend::Precision] {
                let cfg = DartConfig::default()
                    .with_rt(1 << 10)
                    .with_pt(256, 2)
                    .with_backend(backend);

                let (s_samples, s_stats) = run_per_packet(&mut DartEngine::new(cfg), &pkts);

                let mut batch = DartEngine::new(cfg);
                let mut b_samples: Vec<RttSample> = Vec::new();
                let (mut off, mut s) = (0usize, 0usize);
                while off < pkts.len() {
                    let len = splits[s % splits.len()].min(pkts.len() - off);
                    batch.on_batch(&pkts[off..off + len], &mut b_samples);
                    off += len;
                    s += 1;
                }
                batch.flush(&mut b_samples);

                prop_assert_eq!(
                    digest_full(&s_samples, &s_stats),
                    digest_full(&b_samples, &batch.stats()),
                    "{:?} backend diverged between streaming and batch", backend
                );
            }
        }
    }
}

/// The seam-parity gate: recompute every digest with the current engine
/// and compare against the committed pre-refactor goldens.
#[test]
fn exact_backend_matches_pre_refactor_goldens() {
    let got = compute_goldens();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_path().parent().unwrap()).unwrap();
        std::fs::write(golden_path(), &got).unwrap();
        eprintln!("wrote {}", golden_path().display());
        return;
    }
    let expected = std::fs::read_to_string(golden_path())
        .expect("tests/golden/exact_backend.txt missing: run with UPDATE_GOLDEN=1 to create");
    for (g, e) in got.lines().zip(expected.lines()) {
        assert_eq!(
            g, e,
            "exact-backend digest diverged from pre-refactor golden"
        );
    }
    assert_eq!(
        got.lines().count(),
        expected.lines().count(),
        "golden case count changed"
    );
}
