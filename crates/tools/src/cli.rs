//! Argument parsing for `dartmon` — plain `std`, no dependencies.

use std::collections::HashMap;

/// A parsed subcommand.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Synthesize a campus trace to a file.
    Generate {
        /// Output path (`.pcap` or `.trace`).
        out: String,
    },
    /// Run Dart over a trace and report.
    Analyze {
        /// Input path.
        input: String,
    },
    /// Dart vs every baseline on one trace.
    Compare {
        /// Input path.
        input: String,
    },
    /// Windowed min-RTT change detection over a trace.
    Detect {
        /// Input path.
        input: String,
    },
    /// Differential check: every engine vs. the ground-truth oracle.
    Diff {
        /// Input path.
        input: String,
    },
    /// Run one engine and print the full telemetry snapshot.
    Stats {
        /// Input path.
        input: String,
    },
    /// Inject a seeded runtime fault into the supervised sharded engine
    /// and verify the degraded output against the oracle.
    Chaos {
        /// Input path.
        input: String,
    },
    /// Run the adversarial scenario matrix and write judged scorecards.
    Scenarios,
    /// Long-lived monitoring daemon: feed a live source through the
    /// supervised sharded engine with the observability server attached.
    Serve {
        /// Input path (trace to follow or cycle).
        input: String,
    },
    /// Print the data-plane resource report.
    Resources,
    /// Print usage.
    Help,
}

/// Option flags shared across subcommands.
#[derive(Clone, Debug, Default)]
pub struct Options {
    flags: HashMap<String, String>,
}

impl Options {
    /// Look up `--name value` as a string.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// Look up and parse a numeric flag.
    pub fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse {v:?}")),
        }
    }

    /// Insert (tests).
    pub fn set(&mut self, name: &str, value: &str) {
        self.flags.insert(name.into(), value.into());
    }
}

/// Usage text.
pub const USAGE: &str = "\
dartmon — continuous RTT monitoring over packet traces (Dart, SIGCOMM 2022)

USAGE:
    dartmon <command> [args] [--flag value]...

COMMANDS:
    generate <out.pcap|out.trace>   synthesize a campus-style trace
        --connections N   (default 500)     --duration-secs S (default 10)
        --seed X          (default 0xDA27)
    analyze <input>                 run one engine, print RTT report
                                    (alias: replay)
        --engine NAME     (any registered engine, default dart;
                           dart-sharded-N follows --shards and
                           dart@sketch/dart@precision follow --backend)
        --backend exact|sketch|precision (flow-state backend for the Dart
                           config, default exact)
        --leg external|internal|both (default external)
        --pt N (slots, default 131072)  --stages K (default 1)
        --rt N (slots, default 1048576) --max-recirc R (default 1)
        --shards N (flow-sharded parallel engines, default 1 = serial;
                           capped at available_parallelism with a warning)
        --csv <path>      dump per-sample CSV
        --metrics-out <path>        append one JSONL telemetry snapshot
                                    per interval during the replay
        --metrics-interval N        packets between snapshots
                                    (default 100000; needs --metrics-out)
        --metrics-prom <path>       write final Prometheus text exposition
        --events-out <path>         write the structured event log (JSONL)
    stats <input>                   run one engine, print every metric
                                    (same engine flags as analyze)
    compare <input>                 registered engines side by side
        --engine NAME[,NAME...]|all (default all)
    detect <input>                  min-RTT change detection (attack alarm)
        --window N (samples, default 8)  --ratio F (default 2.0)
    diff <input>                    engines vs. ground-truth oracle (testkit)
        --engine NAME[,NAME...]|all (extra engines beside the Dart rows,
                           default tcptrace,fridge)
        --shards N        (also run flow-sharded engine, default 4,
                           capped at available_parallelism)
        --fault-seed X    (inject seeded drop/dup/reorder faults first)
        --impossible-budget B (tolerated fabricated samples, default 0)
        plus the analyze engine flags (--backend/--leg/--pt/--rt/--stages/
        --max-recirc) and the telemetry sinks (--metrics-out/--metrics-prom/
        --events-out capture one final snapshot and the runner's event
        narration)

Engines are resolved from the shared registry: dart, dart@sketch,
dart@precision, dart-sharded-N, tcptrace, tcptrace-quirk, fridge, pping,
dapper, strawman, lean, spin, dart-hist.
    chaos <input>                   inject a seeded runtime fault into the
                                    supervised sharded engine (testkit): a
                                    failed shard respawns with fresh tables,
                                    up to 8 times, then sheds its traffic
        --fault panic|stall|slow    (default panic: a shard worker panics
                           mid-run and is respawned; stall: a worker hangs
                           past the watchdog and is abandoned; slow:
                           backpressure only, no failure)
        --seed X          (default 0xC405; picks the poisoned packet)
        plus the analyze engine flags (--leg/--pt/--rt/--stages/--max-recirc)
    scenarios                       adversarial scenario matrix (testkit):
                                    generated mixed TCP+QUIC captures judged
                                    engine-by-engine (Dart by the SEQ/ACK
                                    oracle, spin by edge truth, dart-hist by
                                    +-1-bucket quantiles)
        --scenario NAME[,NAME...]|all (quic-mix | churn-storm | interception
                           | wireless-tail, default all)
        --scale F         (traffic multiplier, default 0.2 = CI size)
        --seed X          (generator seed, default 0xD1A7)
        --fault-seed X    (also run each scenario with the seeded stress
                           fault layer: drop/dup/reorder/truncate)
        --out DIR         (scorecard directory, default target/tmp/scenarios)
        --backend exact|sketch|precision (flow-state backend for the Dart
                           rows; non-exact runs tag their scorecards
                           `<kind>@<backend>.txt`)
    serve <input>                   long-lived monitoring daemon (telemetry):
                                    supervised sharded engine on a live
                                    source, observability plane over HTTP
                                    (GET /metrics /healthz /snapshot /events,
                                    POST /control/shutdown /control/reload)
        --listen ADDR     (bind address, default 127.0.0.1:9464)
        --mode once|follow|cycle    (once: read the trace to EOF and exit;
                           follow: tail the file/fifo until a shutdown is
                           POSTed; cycle: loop the trace, rebasing
                           timestamps each pass — default once)
        --passes N        (cycle mode: stop after N >= 1 passes, default endless)
        --rotate-millis M (wall-clock epoch rotation period, default 900000)
        --retain-secs S   (rotation keeps flows touched in the last S
                           seconds of trace time, default 10)
        --block N         (packets per ingest block, default 1024)
        --snapshot-path P (write crash-consistent state snapshots to P:
                           at every rotation, on POST /control/checkpoint,
                           and once more at shutdown)
        --checkpoint-millis M (also checkpoint every M ms of wall clock;
                           needs --snapshot-path)
        --restore P       (restore engine state from snapshot P at startup;
                           a torn or mismatched snapshot fails loudly)
        --strict-decode true|false (follow mode: fail on the first
                           undecodable record instead of skipping and
                           counting it, default false)
        plus the analyze engine flags (--shards/--backend/--leg/--pt/--rt/
        --stages/--max-recirc)
        SIGINT/SIGTERM drain through the same path as /control/shutdown
        (final checkpoint included)
    resources                       Table-1 style resource report: prices
                                    the data-plane program the engine flags
                                    configure on Tofino 1 and Tofino 2 and
                                    places it (stages used, or what does
                                    not fit)
        plus the analyze engine flags (--backend/--pt/--rt/--stages)
    help                            this text

Input files may be classic pcap (auto-detected) or the native .trace format.
The internal side for pcap direction classification defaults to 10.0.0.0/8
(--internal-prefix A.B.C.D/L to override).
";

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<(Command, Options), String> {
    let mut pos: Vec<&String> = Vec::new();
    let mut opts = Options::default();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            opts.flags.insert(name.to_string(), value.to_string());
            i += 2;
        } else {
            pos.push(a);
            i += 1;
        }
    }
    let cmd = match pos.first().map(|s| s.as_str()) {
        None | Some("help") => Command::Help,
        Some("resources") => Command::Resources,
        Some("scenarios") => Command::Scenarios,
        Some(
            c @ ("generate" | "analyze" | "replay" | "compare" | "detect" | "diff" | "stats"
            | "chaos" | "serve"),
        ) => {
            let arg = pos
                .get(1)
                .ok_or_else(|| format!("{c} needs a file argument"))?
                .to_string();
            match c {
                "generate" => Command::Generate { out: arg },
                "analyze" | "replay" => Command::Analyze { input: arg },
                "compare" => Command::Compare { input: arg },
                "diff" => Command::Diff { input: arg },
                "stats" => Command::Stats { input: arg },
                "chaos" => Command::Chaos { input: arg },
                "serve" => Command::Serve { input: arg },
                _ => Command::Detect { input: arg },
            }
        }
        // A bare existing file is the legacy pre-subcommand shorthand for
        // `detect <file>`; anything else is a typo and must not silently
        // run change detection on it.
        Some(other) if std::path::Path::new(other).is_file() => Command::Detect {
            input: other.to_string(),
        },
        Some(other) => {
            let hint = closest_command(other)
                .map(|c| format!(" — did you mean `{c}`?"))
                .unwrap_or_default();
            return Err(format!(
                "unknown command {other:?}{hint} (try `dartmon help`)"
            ));
        }
    };
    Ok((cmd, opts))
}

/// Every accepted subcommand name, for the did-you-mean hint.
const COMMANDS: [&str; 12] = [
    "generate",
    "analyze",
    "replay",
    "compare",
    "detect",
    "diff",
    "stats",
    "chaos",
    "scenarios",
    "serve",
    "resources",
    "help",
];

/// The known command within Levenshtein distance 2 of `input`, if any
/// (ties go to the earlier entry in [`COMMANDS`]).
fn closest_command(input: &str) -> Option<&'static str> {
    COMMANDS
        .iter()
        .map(|&c| (levenshtein(input, c), c))
        .filter(|&(d, _)| d <= 2)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c)
}

/// Classic two-row edit distance; command names are short, so no need
/// for anything cleverer.
fn levenshtein(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0; b.len() + 1];
    for (i, ca) in a.chars().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_subcommands_and_flags() {
        let (cmd, opts) = parse(&v(&["analyze", "x.pcap", "--pt", "4096"])).unwrap();
        assert_eq!(
            cmd,
            Command::Analyze {
                input: "x.pcap".into()
            }
        );
        assert_eq!(opts.get_num("pt", 0usize).unwrap(), 4096);
        assert_eq!(opts.get_num("stages", 7usize).unwrap(), 7);
    }

    #[test]
    fn replay_is_an_analyze_alias_and_stats_parses() {
        let (cmd, _) = parse(&v(&["replay", "x.trace"])).unwrap();
        assert_eq!(
            cmd,
            Command::Analyze {
                input: "x.trace".into()
            }
        );
        // Flags may come before the subcommand (the acceptance invocation
        // is `dartmon --metrics-out m.jsonl ... replay trace`).
        let (cmd, opts) = parse(&v(&["--metrics-out", "m.jsonl", "replay", "x.trace"])).unwrap();
        assert_eq!(
            cmd,
            Command::Analyze {
                input: "x.trace".into()
            }
        );
        assert_eq!(opts.get("metrics-out"), Some("m.jsonl"));
        let (cmd, _) = parse(&v(&["stats", "x.trace"])).unwrap();
        assert_eq!(
            cmd,
            Command::Stats {
                input: "x.trace".into()
            }
        );
    }

    #[test]
    fn missing_file_argument_errors() {
        assert!(parse(&v(&["analyze"])).is_err());
        assert!(parse(&v(&["generate", "--seed", "1"])).is_err());
    }

    #[test]
    fn unknown_command_errors() {
        assert!(parse(&v(&["frobnicate"])).is_err());
    }

    #[test]
    fn unknown_command_suggests_the_closest_subcommand() {
        let err = parse(&v(&["anaylze", "x.trace"])).unwrap_err();
        assert!(err.contains("did you mean `analyze`"), "{err}");
        let err = parse(&v(&["sevre", "x.trace"])).unwrap_err();
        assert!(err.contains("did you mean `serve`"), "{err}");
        // Nothing within distance 2: no hint, still an error.
        let err = parse(&v(&["frobnicate"])).unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
        assert!(err.contains("dartmon help"), "{err}");
    }

    #[test]
    fn bare_existing_file_is_legacy_detect_shorthand() {
        let path = std::env::temp_dir().join("dartmon_cli_legacy.trace");
        std::fs::write(&path, b"x").unwrap();
        let arg = path.to_str().unwrap().to_string();
        let (cmd, _) = parse(std::slice::from_ref(&arg)).unwrap();
        assert_eq!(cmd, Command::Detect { input: arg });
        let _ = std::fs::remove_file(&path);
        // The same spelling without a file behind it is a typo, not detect.
        assert!(parse(&v(&["/nonexistent/no.trace"])).is_err());
    }

    #[test]
    fn serve_parses_with_flags() {
        let (cmd, opts) = parse(&v(&["serve", "x.trace", "--mode", "cycle"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                input: "x.trace".into()
            }
        );
        assert_eq!(opts.get("mode"), Some("cycle"));
        assert!(parse(&v(&["serve"])).is_err());
    }

    #[test]
    fn scenarios_takes_no_file_argument() {
        let (cmd, opts) = parse(&v(&[
            "scenarios",
            "--scale",
            "0.1",
            "--scenario",
            "quic-mix",
        ]))
        .unwrap();
        assert_eq!(cmd, Command::Scenarios);
        assert_eq!(opts.get("scenario"), Some("quic-mix"));
        assert_eq!(opts.get_num("scale", 1.0f64).unwrap(), 0.1);
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse(&[]).unwrap().0, Command::Help);
    }

    #[test]
    fn flag_without_value_errors() {
        assert!(parse(&v(&["analyze", "x", "--pt"])).is_err());
    }

    #[test]
    fn bad_numeric_flag_errors() {
        let (_, opts) = parse(&v(&["analyze", "x", "--pt", "abc"])).unwrap();
        assert!(opts.get_num("pt", 0usize).is_err());
    }
}
