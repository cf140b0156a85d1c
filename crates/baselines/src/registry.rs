//! The engine registry: every [`RttMonitor`] implementation reachable by
//! name, with the metadata the drivers need to run and judge it.
//!
//! Registering an engine here is all it takes to appear in the benchmark
//! harness, the differential runner's scorecard, and the `dartmon`
//! `--engine` flags — "add an engine, get every comparison for free".
//!
//! Entries are constructed from a shared [`DartConfig`]: each engine maps
//! the fields that mean something to it (`syn_policy`, `leg`) onto its own
//! configuration and leaves the rest to its defaults, so one CLI/testkit
//! configuration drives heterogeneous engines coherently.

use crate::dapper::{Dapper, DapperConfig};
use crate::fridge::{Fridge, FridgeConfig};
use crate::histo::HistMonitor;
use crate::lean::LeanRtt;
use crate::pping::{Pping, PpingConfig};
use crate::spin::{SpinConfig, SpinMonitor};
use crate::strawman::{Strawman, StrawmanConfig};
use crate::tcptrace::{TcpTrace, TcpTraceConfig};
use dart_core::{
    Backend, DartConfig, DartEngine, EngineTelemetry, MeteredMonitor, RttMonitor, ShardedConfig,
    ShardedMonitor,
};
use dart_telemetry::MetricRegistry;

/// How strictly the differential runner may judge an engine's output
/// against the oracle (see `dart-testkit`'s `diff` module).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Judgement {
    /// Matches exact left edges and accounts for every miss: impossible
    /// *and* cross-anchored samples are bugs (within an explicit aliasing
    /// budget), and missed samples must fit the engine's own loss counters.
    ExactAnchored,
    /// Stores real transmission times, so fabricated samples are bugs, but
    /// keeps no loss accounting and may legitimately cross-anchor
    /// (cumulative ACK semantics).
    Anchored,
    /// Aliases flows or measures a different clock by design: scored for
    /// the record, never asserted.
    Reported,
    /// Judged against QUIC spin-bit edge ground truth: every emitted
    /// sample must anchor both of its endpoints to observed spin
    /// transitions of its flow direction (a sample that does not is
    /// fabricated — Impossible). Non-consecutive edge pairs are reported
    /// as spanning, like `Ambiguous`; loss accounting is not asserted.
    SpinEdge,
    /// Judged at distribution level: the engine exports weighted log2
    /// bucket rows instead of per-match samples, and its p50/p99 bucket
    /// indices must land within ±1 of the oracle valid-sample histogram.
    Histogram,
}

/// One registered engine: identity, judgement contract, and constructor.
pub struct EngineEntry {
    /// Registry key and report row label.
    pub name: &'static str,
    /// One-line description for CLI listings.
    pub description: &'static str,
    /// How the testkit judges this engine.
    pub judgement: Judgement,
    build: fn(&DartConfig) -> Box<dyn RttMonitor>,
}

impl EngineEntry {
    /// Construct a fresh monitor from the shared configuration.
    pub fn build(&self, cfg: &DartConfig) -> Box<dyn RttMonitor> {
        (self.build)(cfg)
    }
}

/// A monitor resolved by name, paired with its judgement contract.
pub struct BuiltEngine {
    /// The constructed monitor.
    pub monitor: Box<dyn RttMonitor>,
    /// The judgement promised by its registry entry.
    pub judgement: Judgement,
}

/// The name → engine table.
pub struct EngineRegistry {
    entries: Vec<EngineEntry>,
}

/// Shard count encoded in a `dart-sharded-N` name, if it is one.
pub fn sharded_shards(name: &str) -> Option<usize> {
    let n = name.strip_prefix("dart-sharded-")?.parse().ok()?;
    (n >= 1).then_some(n)
}

/// The configuration the serial Dart engine `name` runs: `dart` runs `cfg`
/// as given, `dart@sketch` and `dart@precision` set their backend on it,
/// as their registry entries do. `None` for any other engine.
pub fn serial_dart_config(name: &str, cfg: &DartConfig) -> Option<DartConfig> {
    [Backend::Exact, Backend::Sketch, Backend::Precision]
        .into_iter()
        .find(|b| b.engine_name() == name)
        .map(|b| match b {
            Backend::Exact => *cfg,
            b => cfg.with_backend(b),
        })
}

impl EngineRegistry {
    /// The standard registry: the engines of the comparison suite
    /// (`dart`, `dart-sharded-4`, `tcptrace`, `fridge`, `pping`, `dapper`,
    /// `strawman`, `lean`), plus `tcptrace-quirk` (the Fig. 9
    /// ground-truth variant with tcptrace's quadrant double-sample bug),
    /// the encrypted-transport family — `spin` (QUIC spin-bit edges) and
    /// `dart-hist` (snapshot-only log2 histogram export) — and the
    /// alternative flow-state backends `dart@sketch` (recency-aged sketch
    /// tables) and `dart@precision` (probabilistic recirculation
    /// admission).
    pub fn standard() -> EngineRegistry {
        EngineRegistry {
            entries: vec![
                EngineEntry {
                    name: "dart",
                    description: "Dart: RT/PT pipeline with lazy eviction and recirculation",
                    judgement: Judgement::ExactAnchored,
                    build: |cfg| Box::new(DartEngine::new(*cfg)),
                },
                EngineEntry {
                    name: "dart@sketch",
                    description: "Dart on recency-aged sketch RT/PT tables (DUNE-style)",
                    // Sketch tables *lose* state (recency eviction, oldest-
                    // cell overwrite) but never fabricate: every match
                    // verifies a (sig, eACK) fingerprint and the RT rules
                    // ACKs exactly, so samples stay exactly anchored and
                    // losses land in counters the loss budget reads.
                    judgement: Judgement::ExactAnchored,
                    build: |cfg| Box::new(DartEngine::new(cfg.with_backend(Backend::Sketch))),
                },
                EngineEntry {
                    name: "dart@precision",
                    description:
                        "Dart with probabilistic recirculation admission (heavy hitters bypass)",
                    // Exact tables; the admission gate only *drops* evicted
                    // records before recirculation, which the loss budget
                    // already accounts as unmatched advances.
                    judgement: Judgement::ExactAnchored,
                    build: |cfg| Box::new(DartEngine::new(cfg.with_backend(Backend::Precision))),
                },
                EngineEntry {
                    name: "dart-sharded-4",
                    description: "Dart over 4 symmetric-hash flow shards, deterministic merge",
                    judgement: Judgement::ExactAnchored,
                    build: |cfg| Box::new(ShardedMonitor::new(ShardedConfig::new(*cfg, 4))),
                },
                EngineEntry {
                    name: "tcptrace",
                    description: "tcptrace: unlimited segment lists, Karn exclusion",
                    judgement: Judgement::Anchored,
                    build: |cfg| {
                        Box::new(TcpTrace::new(TcpTraceConfig {
                            syn_policy: cfg.syn_policy,
                            leg: cfg.leg,
                            quadrant_quirk: false,
                        }))
                    },
                },
                EngineEntry {
                    name: "tcptrace-quirk",
                    description: "tcptrace with the quadrant double-sample bug (Fig. 9)",
                    judgement: Judgement::Anchored,
                    build: |cfg| {
                        Box::new(TcpTrace::new(TcpTraceConfig {
                            syn_policy: cfg.syn_policy,
                            leg: cfg.leg,
                            quadrant_quirk: true,
                        }))
                    },
                },
                EngineEntry {
                    name: "fridge",
                    description: "Fridge: evict-on-collision sampler, survival-corrected weights",
                    judgement: Judgement::Reported,
                    build: |cfg| {
                        Box::new(Fridge::new(FridgeConfig {
                            syn_policy: cfg.syn_policy,
                            leg: cfg.leg,
                            ..FridgeConfig::default()
                        }))
                    },
                },
                EngineEntry {
                    name: "pping",
                    description: "pping: TSval/TSecr echo matching",
                    judgement: Judgement::Reported,
                    build: |cfg| {
                        Box::new(Pping::new(PpingConfig {
                            leg: cfg.leg,
                            ..PpingConfig::default()
                        }))
                    },
                },
                EngineEntry {
                    name: "dapper",
                    description: "Dapper: one outstanding packet per flow",
                    judgement: Judgement::Reported,
                    build: |cfg| {
                        Box::new(Dapper::new(DapperConfig {
                            syn_policy: cfg.syn_policy,
                            leg: cfg.leg,
                        }))
                    },
                },
                EngineEntry {
                    name: "strawman",
                    description: "Strawman: single (flow, eACK) table, biased eviction",
                    judgement: Judgement::Reported,
                    build: |cfg| {
                        Box::new(Strawman::new(StrawmanConfig {
                            syn_policy: cfg.syn_policy,
                            leg: cfg.leg,
                            ..StrawmanConfig::default()
                        }))
                    },
                },
                EngineEntry {
                    name: "lean",
                    description: "Lean: timestamp sums, per-flow averages at flush",
                    judgement: Judgement::Reported,
                    build: |cfg| Box::new(LeanRtt::new(cfg.leg)),
                },
                EngineEntry {
                    name: "spin",
                    description: "QUIC spin-bit edge tracker with reorder/loss rejection",
                    judgement: Judgement::SpinEdge,
                    build: |_cfg| Box::new(SpinMonitor::new(SpinConfig::default())),
                },
                EngineEntry {
                    name: "dart-hist",
                    description: "Dart matches binned into log2 registers, snapshot-only export",
                    judgement: Judgement::Histogram,
                    build: |cfg| Box::new(HistMonitor::new(*cfg)),
                },
            ],
        }
    }

    /// All registered entries, in registration order.
    pub fn entries(&self) -> &[EngineEntry] {
        &self.entries
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Look up a statically registered entry.
    pub fn get(&self, name: &str) -> Option<&EngineEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Validate `name` without constructing anything, returning the
    /// judgement a [`build`](EngineRegistry::build) of it would carry.
    /// Useful for checking CLI input before allocating tables or spawning
    /// shard workers.
    pub fn judgement(&self, name: &str) -> Result<Judgement, String> {
        if let Some(entry) = self.get(name) {
            return Ok(entry.judgement);
        }
        if sharded_shards(name).is_some() {
            return Ok(Judgement::ExactAnchored);
        }
        Err(self.unknown(name))
    }

    fn unknown(&self, name: &str) -> String {
        format!(
            "unknown engine {name:?} (registered: {})",
            self.names().join(", ")
        )
    }

    /// Construct the engine registered under `name` from `cfg`. Beyond the
    /// static entries, any `dart-sharded-N` (N ≥ 1) resolves to an N-shard
    /// Dart with the `dart` judgement contract.
    pub fn build(&self, name: &str, cfg: &DartConfig) -> Result<BuiltEngine, String> {
        let judgement = self.judgement(name)?;
        let monitor: Box<dyn RttMonitor> = if let Some(entry) = self.get(name) {
            entry.build(cfg)
        } else if let Some(shards) = sharded_shards(name) {
            Box::new(ShardedMonitor::new(ShardedConfig::new(*cfg, shards)))
        } else {
            return Err(self.unknown(name));
        };
        Ok(BuiltEngine { monitor, judgement })
    }

    /// [`build`](EngineRegistry::build) with instrumentation attached to
    /// `metrics`: Dart engines get in-engine per-shard series
    /// (`dart_shard_*`, `dart_rtt_ns{shard}`, recirculation gauges) — every
    /// serial one as `shard="0"` — and every other engine is wrapped in a
    /// [`MeteredMonitor`], which mirrors its run-level counters without
    /// touching baseline code.
    pub fn build_instrumented(
        &self,
        name: &str,
        cfg: &DartConfig,
        metrics: &MetricRegistry,
    ) -> Result<BuiltEngine, String> {
        let judgement = self.judgement(name)?;
        let monitor: Box<dyn RttMonitor> = if let Some(cfg) = serial_dart_config(name, cfg) {
            let mut engine = DartEngine::new(cfg);
            engine.attach_telemetry(EngineTelemetry::register(metrics, 0));
            Box::new(engine)
        } else if let Some(shards) = sharded_shards(name) {
            Box::new(ShardedMonitor::spawn(
                ShardedConfig::new(*cfg, shards),
                Some(metrics),
                None,
            ))
        } else if let Some(entry) = self.get(name) {
            Box::new(MeteredMonitor::new(entry.build(cfg), metrics))
        } else {
            return Err(self.unknown(name));
        };
        Ok(BuiltEngine { monitor, judgement })
    }
}

impl Default for EngineRegistry {
    fn default() -> Self {
        EngineRegistry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_core::run_monitor_slice;
    use dart_core::telemetry::{Surface, RUN_COUNTERS, SHARD_COUNTERS, VOCABULARY};
    use dart_packet::{Direction, FlowKey, PacketBuilder, PacketMeta};

    fn exchange() -> Vec<PacketMeta> {
        let f = FlowKey::from_raw(0x0a00_0001, 40123, 0x5db8_d822, 443);
        vec![
            PacketBuilder::new(f, 0)
                .seq(0u32)
                .payload(1460)
                .dir(Direction::Outbound)
                .build(),
            PacketBuilder::new(f.reverse(), 20_000_000)
                .ack(1460u32)
                .dir(Direction::Inbound)
                .build(),
        ]
    }

    #[test]
    fn standard_registry_contains_the_comparison_engines() {
        let reg = EngineRegistry::standard();
        for name in [
            "dart",
            "dart@sketch",
            "dart@precision",
            "dart-sharded-4",
            "tcptrace",
            "fridge",
            "pping",
            "dapper",
            "strawman",
            "lean",
            "spin",
            "dart-hist",
        ] {
            assert!(reg.get(name).is_some(), "missing registry entry {name}");
        }
        assert_eq!(reg.judgement("spin"), Ok(Judgement::SpinEdge));
        assert_eq!(reg.judgement("dart-hist"), Ok(Judgement::Histogram));
    }

    #[test]
    fn every_entry_builds_and_runs() {
        let reg = EngineRegistry::standard();
        let packets = exchange();
        for entry in reg.entries() {
            let mut built = reg.build(entry.name, &DartConfig::default()).unwrap();
            assert_eq!(built.monitor.name(), entry.name, "name mismatch");
            assert!(!built.monitor.describe().is_empty());
            let (_, stats) = run_monitor_slice(built.monitor.as_mut(), &packets);
            assert_eq!(
                stats.packets,
                packets.len() as u64,
                "{} dropped packets",
                entry.name
            );
        }
    }

    #[test]
    fn sharded_names_resolve_dynamically() {
        let reg = EngineRegistry::standard();
        let built = reg.build("dart-sharded-7", &DartConfig::default()).unwrap();
        assert_eq!(built.monitor.name(), "dart-sharded-7");
        assert_eq!(built.judgement, Judgement::ExactAnchored);
        assert!(reg.build("dart-sharded-0", &DartConfig::default()).is_err());
        assert!(reg.build("dart-sharded-x", &DartConfig::default()).is_err());
    }

    /// Every engine `dartmon` can name: each scraped family is a row of
    /// that engine's surface in the vocabulary, and its packet counter is
    /// synced.
    #[test]
    fn build_instrumented_registers_series_for_every_engine() {
        let reg = EngineRegistry::standard();
        let packets = exchange();
        for name in reg.names().into_iter().chain(["dart-sharded-2"]) {
            let metrics = MetricRegistry::new();
            let mut built = reg
                .build_instrumented(name, &DartConfig::default(), &metrics)
                .unwrap();
            assert_eq!(built.monitor.name(), name);
            let (_, stats) = run_monitor_slice(built.monitor.as_mut(), &packets);
            assert_eq!(stats.packets, packets.len() as u64);
            let serial = [Backend::Exact, Backend::Sketch, Backend::Precision]
                .iter()
                .any(|b| b.engine_name() == name);
            let (surface, counters) = match (serial, sharded_shards(name)) {
                (true, _) => (Surface::Analyze, SHARD_COUNTERS),
                (false, Some(_)) => (Surface::Sharded, SHARD_COUNTERS),
                (false, None) => (Surface::Baseline, RUN_COUNTERS),
            };
            let rows: Vec<String> = (VOCABULARY.iter())
                .filter(|row| row.surfaces.contains(&surface))
                .flat_map(|row| row.instances())
                .map(|(family, _)| family)
                .collect();
            let snap = metrics.scrape();
            for s in &snap.samples {
                assert!(
                    rows.contains(&s.name),
                    "{name}: {} is no {surface:?} row",
                    s.name
                );
            }
            // Both packets of the one flow land on a single shard, so sum
            // the packet counter across every registered series.
            let family = counters.name_for("packets");
            let total: u64 = snap
                .samples
                .iter()
                .filter(|s| s.name == family)
                .map(|s| match &s.value {
                    dart_telemetry::MetricValue::Counter { total, .. } => *total,
                    other => panic!("expected counter, got {other:?}"),
                })
                .sum();
            assert_eq!(total, stats.packets, "{name}: {family} never synced");
        }
    }

    #[test]
    fn unknown_names_list_the_registry() {
        let err = EngineRegistry::standard()
            .build("nonsense", &DartConfig::default())
            .err()
            .expect("unknown name must be rejected");
        assert!(
            err.contains("nonsense") && err.contains("tcptrace"),
            "{err}"
        );
    }
}
