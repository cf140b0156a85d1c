//! A deliberately unsound engine: the differential harness's canary.
//!
//! The skewed runner executes the real [`DartEngine`] and then adds a
//! constant to every emitted RTT. The resulting samples anchor to no
//! captured transmission, so the oracle classifies them as
//! [`Impossible`](crate::oracle::SampleClass::Impossible) — exactly the
//! violation the soundness invariant exists to catch. The differential
//! suite uses it to prove, from fixed seeds, that a broken engine is (a)
//! detected and (b) shrunk to a minimal reproducer; if this canary ever
//! passes, the harness itself has rotted.

use dart_core::{run_monitor_slice, DartConfig, DartEngine, EngineStats, RttSample};
use dart_packet::{Nanos, PacketMeta};

/// Run the real engine, then skew every sample's RTT by `offset`
/// nanoseconds — a stand-in for a timestamp-arithmetic bug.
pub fn run_trace_skewed(
    cfg: DartConfig,
    offset: Nanos,
    packets: &[PacketMeta],
) -> (Vec<RttSample>, EngineStats) {
    let (mut samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), packets);
    for s in &mut samples {
        s.rtt += offset;
    }
    (samples, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{run_oracle, OracleConfig, SampleClass};
    use dart_sim::scenario::{campus, CampusConfig};

    #[test]
    fn skew_fabricates_every_sample() {
        let t = campus(CampusConfig {
            connections: 30,
            duration: dart_packet::SECOND,
            seed: 5,
            ..CampusConfig::default()
        });
        let oracle = run_oracle(OracleConfig::default(), &t.packets);
        let (samples, _) = run_trace_skewed(DartConfig::default(), 1, &t.packets);
        assert!(!samples.is_empty());
        assert!(samples
            .iter()
            .all(|s| oracle.classify(s) == SampleClass::Impossible));
    }
}
