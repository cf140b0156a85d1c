//! Adversarial scenario suites: the judged end-to-end harness for the
//! encrypted-transport engine family.
//!
//! Each scenario comes from `dart_sim::adversarial` — mixed TCP + QUIC
//! captures engineered to stress a specific failure mode (QUIC-dominated
//! mixes, SYN-flood flow churn, mid-trace path interception, wireless
//! heavy tails). This module runs the full differential suite over them
//! with the spin and histogram engines included, so every run judges:
//!
//! * the Dart engines by the SEQ/ACK oracle (exact-anchored + bounded
//!   loss, exactly as in [`diff`](crate::diff));
//! * `spin` by the [spin-edge oracle](crate::spin_oracle) — zero
//!   fabricated periods at any table pressure;
//! * `dart-hist` by the histogram-tolerance judgement — p50/p99 within
//!   ±1 log2 bucket of the oracle's exact-RTT distribution.
//!
//! Runs are pure functions of [`ScenarioConfig`] (seed included), so a CI
//! failure replays locally from the printed config alone. Scorecard
//! artifacts in the `ChaosReport` style land under
//! [`scenario_artifact_dir`] for CI upload.

use crate::diff::{run_diff, DiffConfig, DiffReport};
use crate::faults::FaultConfig;
use crate::spin_oracle::run_spin_oracle;
use dart_core::Backend;
use dart_sim::adversarial::ScenarioKind;
use std::fmt;
use std::path::{Path, PathBuf};

/// One scenario run, fully determined.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioConfig {
    /// Which adversarial generator to run.
    pub kind: ScenarioKind,
    /// Traffic-volume multiplier (1.0 = the generator's default size;
    /// CI runs reduced scale, perf sweeps run >1).
    pub scale: f64,
    /// Generator seed (forked internally per traffic class).
    pub seed: u64,
    /// Optional capture-level fault layer on top of the generated trace.
    pub fault: Option<FaultConfig>,
    /// Flow-state backend the Dart rows run under — per-backend scorecards
    /// are how the accuracy frontier gets adversarial coverage.
    pub backend: Backend,
}

impl ScenarioConfig {
    /// A clean run of `kind` at `scale`.
    pub fn clean(kind: ScenarioKind, scale: f64, seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            kind,
            scale,
            seed,
            fault: None,
            backend: Backend::Exact,
        }
    }

    /// A run with the stress fault layer (drop/dup/reorder/truncate)
    /// seeded from `fault_seed`.
    pub fn stressed(kind: ScenarioKind, scale: f64, seed: u64, fault_seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            fault: Some(FaultConfig::stress(fault_seed)),
            ..ScenarioConfig::clean(kind, scale, seed)
        }
    }

    /// The same run under a different flow-state backend.
    pub fn with_backend(mut self, backend: Backend) -> ScenarioConfig {
        self.backend = backend;
        self
    }
}

/// The differential configuration scenario runs use: the Dart engines
/// plus the software ground truth and the two encrypted-transport
/// engines this harness exists to judge.
pub fn scenario_diff_config() -> DiffConfig {
    DiffConfig {
        baseline_engines: vec![
            "tcptrace".to_string(),
            "spin".to_string(),
            "dart-hist".to_string(),
        ],
        ..DiffConfig::default()
    }
}

/// Verdict of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The configuration that produced this outcome.
    pub config: ScenarioConfig,
    /// Packets in the generated (pre-fault) capture.
    pub packets: u64,
    /// Spin flows the generator mixed in.
    pub spin_flows: u64,
    /// Spin edges the oracle observed on the capture the engines saw.
    pub spin_edges: u64,
    /// The full differential report (Dart, tcptrace, spin, dart-hist).
    pub report: DiffReport,
}

impl ScenarioOutcome {
    /// True when every asserted invariant held.
    pub fn pass(&self) -> bool {
        self.report.pass()
    }
}

impl fmt::Display for ScenarioOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario[{}] scale {} · seed {:#x}{}{}",
            self.config.kind,
            self.config.scale,
            self.config.seed,
            match &self.config.fault {
                Some(fc) => format!(" · fault seed {:#x}", fc.seed),
                None => String::new(),
            },
            match self.config.backend {
                Backend::Exact => String::new(),
                other => format!(" · backend {other}"),
            }
        )?;
        writeln!(
            f,
            "  {} packets · {} spin flows · {} spin edges observed",
            self.packets, self.spin_flows, self.spin_edges
        )?;
        write!(f, "{}", self.report)
    }
}

/// Generate the scenario, apply the optional fault layer, and run the
/// full differential suite over it.
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioOutcome {
    let trace = cfg.kind.generate(cfg.scale, cfg.seed);
    let mut diff_cfg = scenario_diff_config();
    diff_cfg.engine = diff_cfg.engine.with_backend(cfg.backend);
    let report = run_diff(&diff_cfg, cfg.fault, &trace.packets, None);
    // Edge truth on the capture the engines actually saw: re-apply the
    // same seeded fault (FaultInjector is deterministic in its config).
    let spin_edges = match cfg.fault {
        Some(fault) => {
            let mut injector = crate::faults::FaultInjector::new(fault);
            run_spin_oracle(&injector.apply(trace.packets.clone())).edge_count()
        }
        None => run_spin_oracle(&trace.packets).edge_count(),
    };
    ScenarioOutcome {
        config: *cfg,
        packets: trace.packets.len() as u64,
        spin_flows: trace.spin_flows.len() as u64,
        spin_edges,
        report,
    }
}

/// Run every scenario kind at the same scale, clean and (when
/// `fault_seed` is given) stressed — the acceptance sweep the CI
/// `scenarios` job and `dartmon scenarios` report. All Dart rows run
/// under `backend`, so the sweep produces a per-backend scorecard.
pub fn run_scenario_matrix(
    scale: f64,
    seed: u64,
    fault_seed: Option<u64>,
    backend: Backend,
) -> Vec<ScenarioOutcome> {
    let mut outcomes = Vec::new();
    for kind in ScenarioKind::ALL {
        outcomes.push(run_scenario(
            &ScenarioConfig::clean(kind, scale, seed).with_backend(backend),
        ));
        if let Some(fs) = fault_seed {
            outcomes.push(run_scenario(
                &ScenarioConfig::stressed(kind, scale, seed, fs).with_backend(backend),
            ));
        }
    }
    outcomes
}

/// Repository-root directory where scenario scorecards are written
/// (`target/tmp/scenarios/`; CI uploads it as the run's artifact).
pub fn scenario_artifact_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/tmp/scenarios")
}

/// Persist one scorecard per outcome (`<kind>[-stressed].txt`, the
/// Display rendering plus the counter blocks) and a one-line-per-run
/// `scorecard.txt` summary. Returns the summary path.
pub fn write_scorecards(dir: &Path, outcomes: &[ScenarioOutcome]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut summary = String::new();
    for o in outcomes {
        let mut stem = match o.config.fault {
            Some(_) => format!("{}-stressed", o.config.kind),
            None => o.config.kind.to_string(),
        };
        if o.config.backend != Backend::Exact {
            stem.push_str(&format!("@{}", o.config.backend));
        }
        let mut text = o.to_string();
        text.push('\n');
        text.push_str(&o.report.counters_text());
        std::fs::write(dir.join(format!("{stem}.txt")), text)?;
        let spin_row = o.report.outcomes.iter().find(|e| e.name == "spin");
        summary.push_str(&format!(
            "{stem}: {} · {} pkts · spin impossible {} · {}\n",
            if o.pass() { "PASS" } else { "FAIL" },
            o.packets,
            spin_row.map_or(0, |e| e.card.impossible),
            match o.config.fault {
                Some(fc) => format!("fault seed {:#x}", fc.seed),
                None => "clean".to_string(),
            },
        ));
    }
    let path = dir.join("scorecard.txt");
    std::fs::write(&path, summary)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_runs_are_deterministic() {
        let cfg = ScenarioConfig::clean(ScenarioKind::QuicMix, 0.15, 0xD7);
        let a = run_scenario(&cfg);
        let b = run_scenario(&cfg);
        assert_eq!(a.report.to_string(), b.report.to_string());
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.spin_edges, b.spin_edges);
    }

    #[test]
    fn scenario_config_includes_the_new_engines() {
        let names = scenario_diff_config().engine_names();
        for name in ["dart", "dart-sharded-4", "tcptrace", "spin", "dart-hist"] {
            assert!(names.contains(&name.to_string()), "{names:?}");
        }
    }

    #[test]
    fn backend_runs_tag_display_and_scorecard_stem() {
        let dir = std::env::temp_dir().join("dart-scenario-backend-selftest");
        let outcome = run_scenario(
            &ScenarioConfig::clean(ScenarioKind::ChurnStorm, 0.1, 3).with_backend(Backend::Sketch),
        );
        assert!(outcome.to_string().contains("backend sketch"), "{outcome}");
        write_scorecards(&dir, std::slice::from_ref(&outcome)).unwrap();
        assert!(
            dir.join("churn-storm@sketch.txt").exists(),
            "backend-suffixed scorecard missing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scorecards_are_written() {
        let dir = std::env::temp_dir().join("dart-scenario-selftest");
        let outcome = run_scenario(&ScenarioConfig::clean(ScenarioKind::ChurnStorm, 0.1, 3));
        let summary = write_scorecards(&dir, std::slice::from_ref(&outcome)).unwrap();
        let text = std::fs::read_to_string(&summary).unwrap();
        assert!(text.contains("churn-storm"), "{text}");
        assert!(
            dir.join("churn-storm.txt").exists(),
            "per-scenario scorecard missing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
