//! The differential runner: every implementation, one faulted capture, two
//! invariants.
//!
//! For a given (possibly faulted) trace the runner resolves each configured
//! engine through the [`EngineRegistry`] — the serial `dart`, `dart-sharded-N`
//! at each requested shard count, and any requested baselines — streams the
//! trace through the common [`RttMonitor`](dart_core::RttMonitor) path,
//! scores each sample stream against the [`oracle`](crate::oracle), and
//! checks the invariants each entry's [`Judgement`] promises:
//!
//! * **Soundness** — the engine emits no sample the oracle classifies as
//!   [`Impossible`](crate::oracle::SampleClass::Impossible). Table pressure
//!   may lose samples or (with collapse state evicted) emit *ambiguous*
//!   ones, but a fabricated RTT is a bug at any table size. Configurations
//!   that alias flows on purpose (16-bit signatures) get an explicit
//!   `impossible_budget` instead of zero.
//! * **Bounded loss** — every oracle-valid sample the engine misses must be
//!   accounted for by its own [`EngineStats`] counters: the closing ACK of
//!   a missed sample was necessarily classified by the engine as advanced-
//!   but-unmatched, duplicate, stale, optimistic, or flowless. Recall may
//!   degrade under pressure, but only in ways the counters admit to.
//!
//! Baselines are scored for the accuracy table (EXPERIMENTS.md) but only
//! checked for soundness when their design promises it (`tcptrace` stores
//! real transmission times; `fridge` may alias across flows, so it is
//! reported, not asserted).

use crate::faults::{FaultConfig, FaultInjector, FaultLog};
use crate::oracle::{run_oracle, OracleConfig, OracleReport, ScoreCard};
use crate::spin_oracle::{run_spin_oracle, SpinReport};
use dart_baselines::{EngineRegistry, Judgement};
use dart_core::{run_monitor_slice, DartConfig, EngineStats, RttSample};
use dart_packet::PacketMeta;
use dart_telemetry::histogram::{Histogram, HistogramSnapshot, BUCKETS};
use dart_telemetry::{EventLog, MetricRegistry};
use std::fmt;

/// What to run and how strictly to judge it.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Engine configuration shared by every run (baselines map the fields
    /// that mean something to them — see the registry).
    pub engine: DartConfig,
    /// Shard counts to exercise (1 = the serial engine; N > 1 resolves to
    /// the registry's `dart-sharded-N`).
    pub shards: Vec<usize>,
    /// Impossible samples tolerated per Dart run. Zero for 32-bit
    /// signatures; small and explicit for aliasing sweeps (W16).
    pub impossible_budget: u64,
    /// Also score the engines in `baseline_engines`.
    pub baselines: bool,
    /// Registry names of the non-Dart engines to score when `baselines` is
    /// set. Defaults to the report's historical rows.
    pub baseline_engines: Vec<String>,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            engine: DartConfig::default(),
            shards: vec![1, 4],
            impossible_budget: 0,
            baselines: true,
            baseline_engines: vec!["tcptrace".to_string(), "fridge".to_string()],
        }
    }
}

impl DiffConfig {
    /// The registry names this configuration runs, in report order. The
    /// serial Dart row carries its flow-state backend's registry name
    /// (`dart@sketch`/`dart@precision`) so reports read as the engine
    /// actually run; building that name re-applies `with_backend`, which
    /// is idempotent on an already-normalized config.
    pub fn engine_names(&self) -> Vec<String> {
        let serial = self.engine.backend().engine_name();
        let mut names: Vec<String> = self
            .shards
            .iter()
            .map(|&s| {
                if s <= 1 {
                    serial.to_string()
                } else {
                    format!("dart-sharded-{s}")
                }
            })
            .collect();
        if self.baselines {
            names.extend(self.baseline_engines.iter().cloned());
        }
        names
    }
}

/// One implementation's verdict against the oracle.
#[derive(Clone, Debug)]
pub struct EngineOutcome {
    /// Registry name (`dart`, `dart-sharded-4`, `tcptrace`, `fridge`, …).
    pub name: String,
    /// Sample classification and precision/recall accounting.
    pub card: ScoreCard,
    /// Engine counters (baselines fill only the subset they track).
    pub stats: Option<EngineStats>,
    /// Bounded-loss budget derived from `stats` (only for engines whose
    /// judgement asserts bounded loss).
    pub loss_budget: Option<u64>,
    /// Soundness verdict; `None` means not asserted for this runner.
    pub sound: Option<bool>,
    /// Bounded-loss verdict; `None` means not asserted for this runner.
    pub loss_bounded: Option<bool>,
}

impl EngineOutcome {
    /// True unless an asserted invariant failed.
    pub fn ok(&self) -> bool {
        self.sound != Some(false) && self.loss_bounded != Some(false)
    }
}

/// The full differential verdict for one trace.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Size of the oracle's valid sample set.
    pub oracle_valid: u64,
    /// Per-implementation outcomes, Dart engines first.
    pub outcomes: Vec<EngineOutcome>,
    /// What the fault injector did, when one was used.
    pub faults: Option<FaultLog>,
}

impl DiffReport {
    /// True when every asserted invariant held.
    pub fn pass(&self) -> bool {
        self.outcomes.iter().all(EngineOutcome::ok)
    }

    /// The outcomes that violated an invariant.
    pub fn failures(&self) -> Vec<&EngineOutcome> {
        self.outcomes.iter().filter(|o| !o.ok()).collect()
    }

    /// Per-engine nonzero counters rendered through the shared
    /// `dart-telemetry` row formatter — the same path `dartmon stats`
    /// uses — instead of `EngineStats` debug output. One block per
    /// outcome that recorded counters; engines whose counters are all
    /// zero are skipped.
    pub fn counters_text(&self) -> String {
        let mut out = String::new();
        for o in &self.outcomes {
            if let Some(stats) = &o.stats {
                let rows: Vec<(&str, u64)> = stats
                    .metric_rows()
                    .into_iter()
                    .filter(|(_, v)| *v > 0)
                    .collect();
                if rows.is_empty() {
                    continue;
                }
                out.push('\n');
                out.push_str(&dart_telemetry::render_rows(
                    &format!("counters[{}]", o.name),
                    &rows,
                ));
            }
        }
        out
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "oracle: {} valid samples", self.oracle_valid)?;
        if let Some(log) = &self.faults {
            writeln!(
                f,
                "faults: {} dropped, {} duplicated, {} reordered{}",
                log.dropped,
                log.duplicated,
                log.reordered,
                match log.truncated_to {
                    Some(n) => format!(", truncated to {n} packets"),
                    None => String::new(),
                }
            )?;
        }
        writeln!(
            f,
            "{:<16} {:>7} {:>7} {:>7} {:>7} {:>9} {:>8} {:>7} {:>7}",
            "runner", "exact", "ambig", "cross", "imposs", "precision", "recall", "sound", "loss"
        )?;
        for o in &self.outcomes {
            let verdict = |v: Option<bool>| match v {
                Some(true) => "ok",
                Some(false) => "FAIL",
                None => "-",
            };
            writeln!(
                f,
                "{:<16} {:>7} {:>7} {:>7} {:>7} {:>9.4} {:>8.4} {:>7} {:>7}",
                o.name,
                o.card.exact,
                o.card.ambiguous,
                o.card.cross_anchored,
                o.card.impossible,
                o.card.precision(),
                o.card.recall(),
                verdict(o.sound),
                verdict(o.loss_bounded),
            )?;
        }
        write!(f, "verdict: {}", if self.pass() { "PASS" } else { "FAIL" })
    }
}

/// The bounded-loss budget a run's own counters admit to: the closing ACK
/// of every missed valid sample is in exactly one of these buckets.
/// (`seq_wraparound` covers samples the oracle takes across a wrap that
/// Dart deliberately forgoes by resetting the range.)
pub fn loss_budget(stats: &EngineStats) -> u64 {
    stats.ack_advanced.saturating_sub(stats.pt_matched)
        + stats.ack_duplicate
        + stats.ack_stale
        + stats.ack_optimistic
        + stats.ack_no_flow
        + stats.seq_wraparound
}

/// Build the oracle-side RTT histogram: every valid sample's exact RTT,
/// binned through the same log2 buckets the `dart-hist` engine uses. This
/// is the reference distribution for the [`Judgement::Histogram`]
/// tolerance check.
pub fn oracle_histogram(oracle: &OracleReport) -> HistogramSnapshot {
    let h = Histogram::new();
    for s in &oracle.valid {
        h.observe(s.rtt);
    }
    h.snapshot()
}

/// Reconstruct a histogram snapshot from the weighted bucket rows a
/// [`Judgement::Histogram`] engine exports (`eack` = bucket index,
/// `weight` = count). Returns the snapshot plus any malformed rows
/// (bucket index out of range) — those are fabrications and fail
/// soundness outright.
pub fn snapshot_from_rows(samples: &[RttSample]) -> (HistogramSnapshot, Vec<RttSample>) {
    let mut buckets = vec![0u64; BUCKETS];
    let mut malformed = Vec::new();
    for s in samples {
        let i = s.eack.raw() as usize;
        if i >= BUCKETS {
            malformed.push(*s);
            continue;
        }
        buckets[i] += s.weight.as_f64().round() as u64;
    }
    let sum = 0; // bucket rows carry counts, not raw values
    (HistogramSnapshot { buckets, sum }, malformed)
}

/// True when `engine`'s p50 and p99 bucket indices are each within
/// `tol` log2 buckets of `oracle`'s — the distribution-level accuracy
/// claim a data-plane histogram makes (DESIGN.md §5g). Quantiles both
/// undefined (both histograms empty) count as agreement; one-sided
/// emptiness does not.
pub fn hist_within_tolerance(
    engine: &HistogramSnapshot,
    oracle: &HistogramSnapshot,
    tol: usize,
) -> bool {
    [0.5, 0.99].iter().all(
        |&q| match (engine.quantile_bucket(q), oracle.quantile_bucket(q)) {
            (Some(e), Some(o)) => e.abs_diff(o) <= tol,
            (None, None) => true,
            _ => false,
        },
    )
}

/// Score one sample stream and apply the invariants the engine's registry
/// [`Judgement`] promises. Everything engine-specific lives in the registry
/// metadata; this function is the same for every runner.
#[allow(clippy::too_many_arguments)]
fn judge_engine(
    name: String,
    judgement: Judgement,
    samples: &[RttSample],
    stats: EngineStats,
    oracle: &OracleReport,
    spin: &SpinReport,
    oracle_hist: &HistogramSnapshot,
    impossible_budget: u64,
) -> EngineOutcome {
    let (card, sound, loss_bounded, budget) = match judgement {
        // Dart matches exact left edges only, so a cross-anchored sample
        // is as much a bug as a fabricated one — and every miss must fit
        // the engine's own loss counters.
        Judgement::ExactAnchored => {
            let card = oracle.score(samples);
            let budget = loss_budget(&stats);
            let sound = Some(card.impossible + card.cross_anchored <= impossible_budget);
            let loss = Some(card.missed() <= budget);
            (card, sound, loss, Some(budget))
        }
        // Real transmission times stored, so fabricated samples are bugs;
        // no loss accounting, and cross-anchoring is legitimate
        // (cumulative ACK semantics).
        Judgement::Anchored => {
            let card = oracle.score(samples);
            let sound = Some(card.impossible == 0);
            (card, sound, None, None)
        }
        // Aliases flows or measures a different clock by design: scored
        // for the record, never asserted.
        Judgement::Reported => (oracle.score(samples), None, None, None),
        // Spin engines are judged by the spin-edge oracle instead of the
        // SEQ/ACK one: every emitted period must anchor both endpoints to
        // observed transitions. Loss is expected (rejection heuristics)
        // and not budgeted.
        Judgement::SpinEdge => {
            let card = spin.score(samples);
            let sound = Some(card.impossible <= impossible_budget);
            (card, sound, None, None)
        }
        // Histogram engines export bucket rows, not per-sample streams:
        // reconstruct the snapshot and require p50/p99 within ±1 log2
        // bucket of the oracle's exact-RTT histogram. With no oracle
        // distribution to compare against, only well-formedness (no
        // out-of-range buckets) is asserted.
        Judgement::Histogram => {
            let (snap, malformed) = snapshot_from_rows(samples);
            let binned = snap.count();
            let mut card = ScoreCard {
                exact: binned,
                impossible: malformed.len() as u64,
                impossible_samples: malformed,
                valid_total: oracle_hist.count(),
                ..ScoreCard::default()
            };
            card.valid_matched = card.exact.min(card.valid_total);
            let well_formed = card.impossible == 0;
            let sound = if oracle_hist.count() == 0 {
                Some(well_formed)
            } else {
                Some(well_formed && hist_within_tolerance(&snap, oracle_hist, 1))
            };
            (card, sound, None, None)
        }
    };
    EngineOutcome {
        name,
        sound,
        loss_bounded,
        card,
        stats: Some(stats),
        loss_budget: budget,
    }
}

/// The differential suite: apply the seeded `fault` configuration to
/// `packets` if there is one (oracle and engines share the faulted
/// capture — see the module docs on capture-relative truth), run the
/// oracle and every configured implementation over the result, and judge
/// each against it.
///
/// Engines are resolved through the [`EngineRegistry`]: each outcome comes
/// from the same streaming path ([`run_monitor_slice`]) and is judged by the
/// [`Judgement`] its registry entry declares — there is no per-engine glue
/// here.
///
/// With `telemetry`, engines are built through
/// [`EngineRegistry::build_instrumented`], so Dart runs publish their
/// per-shard series into the registry and baselines get run-level mirrors,
/// and the loop narrates into the event log (one entry per engine started
/// and judged). The report is the same either way.
///
/// # Panics
///
/// Panics when a name in `cfg` is not in the registry; validate user input
/// with [`EngineRegistry::build`] before constructing a [`DiffConfig`].
pub fn run_diff(
    cfg: &DiffConfig,
    fault: Option<FaultConfig>,
    packets: &[PacketMeta],
    telemetry: Option<(&MetricRegistry, &EventLog)>,
) -> DiffReport {
    let mut injector = fault.map(FaultInjector::new);
    let faulted = injector.as_mut().map(|i| i.apply(packets.to_vec()));
    let packets = faulted.as_deref().unwrap_or(packets);

    let oracle = run_oracle(
        OracleConfig {
            syn_policy: cfg.engine.syn_policy,
            leg: cfg.engine.leg,
        },
        packets,
    );
    let spin = run_spin_oracle(packets);
    let oracle_hist = oracle_histogram(&oracle);

    let registry = EngineRegistry::standard();
    let mut outcomes = Vec::new();
    let packet_count = packets.len().to_string();
    for name in cfg.engine_names() {
        let built = match telemetry {
            Some((metrics, events)) => {
                events.info(
                    "diff",
                    "engine start",
                    &[("engine", &name), ("packets", &packet_count)],
                );
                registry.build_instrumented(&name, &cfg.engine, metrics)
            }
            None => registry.build(&name, &cfg.engine),
        };
        let mut built = built.unwrap_or_else(|e| panic!("diff config: {e}"));
        let (samples, stats) = run_monitor_slice(built.monitor.as_mut(), packets);
        let outcome = judge_engine(
            name,
            built.judgement,
            &samples,
            stats,
            &oracle,
            &spin,
            &oracle_hist,
            cfg.impossible_budget,
        );
        if let Some((_, events)) = telemetry {
            events.info(
                "diff",
                "engine judged",
                &[
                    ("engine", &outcome.name),
                    ("exact", &outcome.card.exact.to_string()),
                    ("impossible", &outcome.card.impossible.to_string()),
                    ("ok", if outcome.ok() { "true" } else { "false" }),
                ],
            );
        }
        outcomes.push(outcome);
    }

    DiffReport {
        oracle_valid: oracle.valid_count() as u64,
        outcomes,
        faults: injector.map(|i| i.log()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_core::telemetry::{RUN_COUNTERS, SHARD_COUNTERS};
    use dart_sim::scenario::{campus, CampusConfig};

    fn trace(seed: u64) -> Vec<PacketMeta> {
        campus(CampusConfig {
            connections: 60,
            duration: dart_packet::SECOND,
            seed,
            ..CampusConfig::default()
        })
        .packets
    }

    #[test]
    fn clean_trace_passes_both_invariants() {
        let report = run_diff(&DiffConfig::default(), None, &trace(1), None);
        assert!(report.pass(), "clean trace must pass:\n{report}");
        assert!(report.oracle_valid > 0, "campus trace has valid samples");
    }

    #[test]
    fn faulted_trace_still_passes() {
        let report = run_diff(
            &DiffConfig::default(),
            Some(FaultConfig::stress(9)),
            &trace(2),
            None,
        );
        assert!(report.pass(), "faulted trace must pass:\n{report}");
        assert!(report.faults.unwrap().dropped > 0);
    }

    #[test]
    fn counters_render_through_shared_formatter() {
        let report = run_diff(&DiffConfig::default(), None, &trace(4), None);
        let text = report.counters_text();
        assert!(text.contains("counters[dart]"), "{text}");
        assert!(text.contains("packets"), "{text}");
        assert!(!text.contains("EngineStats"), "debug formatting leaked");
    }

    #[test]
    fn instrumented_diff_matches_plain_and_narrates() {
        let packets = trace(5);
        let plain = run_diff(&DiffConfig::default(), None, &packets, None);
        let metrics = MetricRegistry::new();
        let events = EventLog::new(64);
        let inst = run_diff(
            &DiffConfig::default(),
            None,
            &packets,
            Some((&metrics, &events)),
        );
        assert_eq!(
            inst.to_string(),
            plain.to_string(),
            "telemetry changed results"
        );
        assert!(inst.pass());
        let snap = metrics.scrape();
        assert!(
            snap.samples
                .iter()
                .any(|s| s.name == SHARD_COUNTERS.name_for("packets")),
            "per-shard series registered"
        );
        assert!(
            snap.samples
                .iter()
                .any(|s| s.name == RUN_COUNTERS.name_for("packets")),
            "baseline run-level series registered"
        );
        // One start + one judged entry per engine.
        assert_eq!(
            events.len_logged(),
            2 * DiffConfig::default().engine_names().len() as u64
        );
    }

    #[test]
    fn report_renders_every_runner() {
        let report = run_diff(&DiffConfig::default(), None, &trace(3), None);
        let text = report.to_string();
        for name in ["dart", "dart-sharded-4", "tcptrace", "fridge", "verdict"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }
}
