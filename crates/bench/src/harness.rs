//! Shared experiment plumbing: standard traces, standard runs, and the
//! scaled sweep grids.
//!
//! The paper's trace is 135.78M packets over 15 minutes; the default
//! harness trace is ~50–100× smaller (set `DART_SCALE` or use
//! [`TraceScale`]), so table-size sweeps are shifted left by a matching
//! number of doublings. EXPERIMENTS.md records the mapping per figure.

use crate::metrics::AccuracyReport;
use dart_baselines::EngineRegistry;
use dart_core::{run_monitor_slice, DartConfig, EngineStats, RttSample, SynPolicy};
use dart_packet::{PacketMeta, SECOND};
use dart_sim::scenario::{campus, CampusConfig, GeneratedTrace};

/// Harness trace sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceScale {
    /// ~50k packets: unit-test sized, seconds per sweep.
    Small,
    /// ~0.9M packets: the default for figure regeneration.
    Default,
    /// ~2.3M packets: closer-to-paper pressure, minutes per sweep.
    Large,
}

impl TraceScale {
    /// Read from the `DART_SCALE` environment variable
    /// (`small`/`default`/`large`).
    pub fn from_env() -> TraceScale {
        match std::env::var("DART_SCALE").as_deref() {
            Ok("small") => TraceScale::Small,
            Ok("large") => TraceScale::Large,
            _ => TraceScale::Default,
        }
    }

    /// Connection count for this scale.
    pub fn connections(self) -> usize {
        match self {
            TraceScale::Small => 500,
            TraceScale::Default => 8_000,
            TraceScale::Large => 20_000,
        }
    }

    /// Trace duration for this scale.
    pub fn duration(self) -> u64 {
        match self {
            TraceScale::Small => 10 * SECOND,
            TraceScale::Default => 60 * SECOND,
            TraceScale::Large => 120 * SECOND,
        }
    }

    /// The PT-size sweep grid (log2 sizes), shifted to where this scale's
    /// pressure lives (the paper sweeps 2^10..2^20 on a 135M-packet trace).
    pub fn pt_sweep_log2(self) -> std::ops::RangeInclusive<u32> {
        match self {
            TraceScale::Small => 4..=12,
            TraceScale::Default => 6..=16,
            TraceScale::Large => 8..=18,
        }
    }

    /// The fixed PT size used by the stage/recirculation sweeps,
    /// corresponding to the paper's 2^17 choice.
    pub fn pt_fixed(self) -> usize {
        match self {
            TraceScale::Small => 1 << 6,
            TraceScale::Default => 1 << 9,
            TraceScale::Large => 1 << 11,
        }
    }

    /// An RT size comfortably larger than the flow count ("large enough to
    /// accommodate all flows", §6.2).
    pub fn rt_large(self) -> usize {
        (self.connections() * 4).next_power_of_two()
    }
}

/// Generate the standard campus trace for a scale (deterministic).
pub fn standard_trace(scale: TraceScale) -> GeneratedTrace {
    campus(CampusConfig {
        connections: scale.connections(),
        duration: scale.duration(),
        ..CampusConfig::default()
    })
}

/// Resolve `name` from the standard [`EngineRegistry`] and stream `packets`
/// through it. Every harness run goes through this one path, so a newly
/// registered engine is immediately sweepable. Panics on an unknown name —
/// harness callers pass literals or validated CLI input.
pub fn run_engine(
    name: &str,
    cfg: DartConfig,
    packets: &[PacketMeta],
) -> (Vec<RttSample>, EngineStats) {
    let mut built = EngineRegistry::standard()
        .build(name, &cfg)
        .unwrap_or_else(|e| panic!("harness: {e}"));
    run_monitor_slice(built.monitor.as_mut(), packets)
}

/// The §6.2 baseline: `tcptrace_const` = Dart with unlimited, fully
/// associative tables and `-SYN`.
pub fn tcptrace_const(packets: &[PacketMeta]) -> (Vec<RttSample>, EngineStats) {
    run_engine("dart", DartConfig::unlimited(), packets)
}

/// A hardware-shaped Dart config for sweeps: large RT, constrained PT.
pub fn sweep_config(
    scale: TraceScale,
    pt_slots: usize,
    stages: usize,
    max_recirc: u32,
) -> DartConfig {
    DartConfig::default()
        .with_rt(scale.rt_large())
        .with_pt(pt_slots, stages)
        .with_max_recirc(max_recirc)
}

/// Run one sweep point through the serial engine and score it against the
/// baseline.
pub fn run_point(
    cfg: DartConfig,
    packets: &[PacketMeta],
    baseline: &[RttSample],
) -> AccuracyReport {
    let (samples, stats) = run_engine("dart", cfg, packets);
    AccuracyReport::compare(baseline, &samples, &stats)
}

/// Variants of Fig. 9's four-way comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig9Variant {
    /// tcptrace with handshake RTTs.
    TcptracePlusSyn,
    /// tcptrace without handshake RTTs.
    TcptraceMinusSyn,
    /// Dart (unlimited memory) with handshake RTTs.
    DartPlusSyn,
    /// Dart (unlimited memory) without handshake RTTs.
    DartMinusSyn,
}

/// Run one Fig. 9 variant over a trace. The tcptrace variants resolve the
/// registry's `tcptrace-quirk` entry, matching real tcptrace's quadrant
/// double-sample behaviour; the Dart variants are `dart` with unlimited
/// tables.
pub fn run_fig9_variant(v: Fig9Variant, packets: &[PacketMeta]) -> Vec<RttSample> {
    let (name, syn) = match v {
        Fig9Variant::DartPlusSyn => ("dart", SynPolicy::Include),
        Fig9Variant::DartMinusSyn => ("dart", SynPolicy::Skip),
        Fig9Variant::TcptracePlusSyn => ("tcptrace-quirk", SynPolicy::Include),
        Fig9Variant::TcptraceMinusSyn => ("tcptrace-quirk", SynPolicy::Skip),
    };
    run_engine(name, DartConfig::unlimited().with_syn(syn), packets).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(TraceScale::Small.connections() < TraceScale::Default.connections());
        assert!(TraceScale::Default.connections() < TraceScale::Large.connections());
        assert!(TraceScale::Small.pt_fixed() < TraceScale::Large.pt_fixed());
    }

    #[test]
    fn small_trace_pipeline_runs() {
        let t = standard_trace(TraceScale::Small);
        assert!(t.len() > 10_000);
        let (baseline, _) = tcptrace_const(&t.packets);
        assert!(!baseline.is_empty());
        let cfg = sweep_config(TraceScale::Small, 1 << 10, 1, 1);
        let rep = run_point(cfg, &t.packets, &baseline);
        assert!(rep.fraction_collected > 0.3);
        assert!(rep.fraction_collected <= 1.05);
    }

    #[test]
    fn sharded_point_matches_serial_point() {
        let t = standard_trace(TraceScale::Small);
        let (baseline, _) = tcptrace_const(&t.packets);
        let cfg = sweep_config(TraceScale::Small, 1 << 10, 1, 1);
        let serial = run_point(cfg, &t.packets, &baseline);
        let (samples, stats) = run_engine("dart-sharded-4", cfg, &t.packets);
        let sharded = AccuracyReport::compare(&baseline, &samples, &stats);
        // Cross-flow collision patterns differ with shard count, but the
        // overall accuracy must stay in the same regime.
        assert!((serial.fraction_collected - sharded.fraction_collected).abs() < 0.1);
    }

    #[test]
    fn fig9_variants_are_distinct() {
        let t = standard_trace(TraceScale::Small);
        let tc_plus = run_fig9_variant(Fig9Variant::TcptracePlusSyn, &t.packets);
        let tc_minus = run_fig9_variant(Fig9Variant::TcptraceMinusSyn, &t.packets);
        let dart_plus = run_fig9_variant(Fig9Variant::DartPlusSyn, &t.packets);
        let dart_minus = run_fig9_variant(Fig9Variant::DartMinusSyn, &t.packets);
        // +SYN collects handshake samples on top of -SYN.
        assert!(tc_plus.len() > tc_minus.len());
        assert!(dart_plus.len() > dart_minus.len());
        // tcptrace collects at least as many samples as Dart (Fig. 9a).
        assert!(tc_plus.len() >= dart_plus.len());
        assert!(tc_minus.len() >= dart_minus.len());
    }
}
