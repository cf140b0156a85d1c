//! `dart-perf`: the performance ledger.
//!
//! One command generates the inputs of four workloads from a seed, drives
//! the shipped `dartmon` binary untraced for the end-to-end metrics, then
//! replays the same pipeline in-process under spans for the per-layer
//! ns/packet budget, judges every output against the oracle, and prints
//! each metric by name. See `README.md` beside this crate for why each
//! workload and metric exists; `catalog.rs` is the vocabulary.
//!
//! ```text
//! dart-perf [--workload NAME] [--trace 0|1] [--seed N] [--seconds S]
//!           [--quick] [--repeat K] [--dartmon PATH]
//! dart-perf --print-benchmark-json
//! ```
//!
//! With `--workload` and `--trace` (how the benchmark driver calls it) the
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`. Any correctness violation, failed
//! child, non-200 scrape or timeout is a failed operation and a non-zero
//! exit.

#![deny(unsafe_code)]

mod catalog;
mod child;
mod e2e;
mod http;
mod inputs;
mod layers;
mod live;
mod report;
mod scratch;
mod span;
mod stats;
mod sys;

use catalog::{MetricDef, END_TO_END, PER_LAYER};
use child::Dartmon;
use inputs::{Scale, Workload};
use report::RunOutput;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Bumped whenever a workload or a metric definition changes: numbers
/// from different versions are not comparable.
const BENCHMARK_VERSION: u32 = 1;

const USAGE: &str = "\
dart-perf — the performance ledger (see crates/perf/README.md)

  --workload NAME   campus-native | campus-pcap | churn-pressure | live-fifo
                    (default: all four)
  --trace 0|1       0: untraced end-to-end metrics through dartmon only;
                    1: traced in-process replay, per-layer metrics
                    (default: both, untraced first)
  --seed N          workload seed (default 55847 = 0xDA27)
  --seconds S       how long one run measures (default 10; --quick: 0.5)
  --quick           reduced-scale smoke run of everything in under 20 s
  --repeat K        run the selection K times on the same seed, print
                    min/median/max and the spread per metric (IQR from
                    4 sets on, range below) and check every end-to-end
                    spread against its bound
  --dartmon PATH    binary under test (default: sibling of this executable)
  --print-benchmark-json   render BENCHMARK.json from the catalog and exit
  --describe        print every workload and metric with what it means
";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    trace: Option<bool>,
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    repeat: usize,
    dartmon: Option<String>,
    print_json: bool,
    describe: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        trace: None,
        seed: 0xDA27,
        seconds: None,
        quick: false,
        repeat: 1,
        dartmon: None,
        print_json: false,
        describe: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        let bad = |v: &str| format!("flag {flag}: cannot parse {v:?}");
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--print-benchmark-json" => args.print_json = true,
            "--describe" => args.describe = true,
            "--workload" => args.workload = Some(value()?.clone()),
            "--dartmon" => args.dartmon = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {v}"));
                }
                args.seconds = Some(s);
            }
            "--repeat" => {
                let v = value()?;
                args.repeat = v.parse().map_err(|_| bad(v))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                });
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }
    if let Some(name) = &args.workload {
        if inputs::workload(name).is_none() {
            return Err(format!("unknown workload {name:?}\n\n{USAGE}"));
        }
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What produced a number: stamped on the ledger and on every spans file.
fn provenance(seed: u64, quick: bool) -> String {
    format!(
        "{{\"benchmark_version\":{BENCHMARK_VERSION},\"git_rev\":\"{}\",\"rustc\":\"{}\",\
         \"nproc\":{},\"seed\":{seed},\"scale\":\"{}\"}}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        if quick { "quick" } else { "full" }
    )
}

/// One workload in one mode.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Cell {
    workload: &'static str,
    traced: bool,
}

impl Cell {
    fn defs(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    fn title(&self) -> String {
        format!(
            "{} [{}]",
            self.workload,
            if self.traced {
                "traced, per-layer"
            } else {
                "untraced, end-to-end"
            }
        )
    }
}

fn run_cell(cell: Cell, w: &Workload, ctx: &e2e::Ctx, provenance: &str) -> RunOutput {
    let mut run = if cell.traced {
        let mut tracer = span::Tracer::new();
        let mut run = layers::run(ctx, w, &mut tracer);
        let path = layers::spans_path(w.name);
        let written = layers::write_spans(&tracer, &path, provenance);
        if run.ops.attempt(written).is_some() {
            run.note(format!(
                "{} spans -> {}",
                tracer.spans().len(),
                path.display()
            ));
        }
        run
    } else {
        e2e::run(ctx, w)
    };
    run.require(cell.defs());
    run
}

/// From this many sets on, `--repeat` judges the interquartile distance
/// as the driver does; below it quartiles are extrapolations (two values
/// read as 1.5x their distance), so it judges the full range instead.
const SETS_FOR_QUARTILES: usize = 4;

/// `--repeat`: per metric the spread of the K reported values, and for
/// end-to-end metrics whether it stays inside the bound.
fn repeat_report(cell: Cell, runs: &[RunOutput]) -> (String, bool) {
    use std::fmt::Write as _;
    let by_quartiles = runs.len() >= SETS_FOR_QUARTILES;
    let mut text = format!(
        "== {} x{}: spread of the reported values\n",
        cell.title(),
        runs.len()
    );
    writeln!(
        text,
        "   {:<44} {:>11} {:>11} {:>11} {:>9} {:>7}",
        "metric",
        "min",
        "median",
        "max",
        if by_quartiles { "IQR/med" } else { "range/med" },
        "bound"
    )
    .expect("string write");
    let mut within = true;
    for def in cell.defs() {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.value(def)).collect();
        if values.is_empty() {
            continue;
        }
        let s = stats::summarize(&values);
        let spread = if by_quartiles {
            stats::iqr_share(&values)
        } else {
            (s.median != 0.0).then(|| (s.max - s.min) / s.median.abs())
        };
        let verdict = match (spread, def.bound) {
            (Some(spread), Some(bound)) if spread > bound => {
                within = false;
                format!("{bound:.3} EXCEEDED")
            }
            (_, Some(bound)) => format!("{bound:.3}"),
            (_, None) => "-".to_string(),
        };
        writeln!(
            text,
            "   {:<44} {:>11.4} {:>11.4} {:>11.4} {:>9} {:>7}",
            def.name,
            s.min,
            s.median,
            s.max,
            spread.map_or("-".to_string(), |v| format!("{v:.4}")),
            verdict
        )
        .expect("string write");
    }
    (text, within)
}

fn real_main(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    if args.print_json {
        print!("{}", catalog::benchmark_json());
        return Ok(true);
    }
    if args.describe {
        print!("{}", catalog::describe());
        return Ok(true);
    }
    let dartmon = Dartmon::locate(args.dartmon.as_deref())?;
    let scale = if args.quick {
        Scale::QUICK
    } else {
        Scale::FULL
    };
    let seconds = args.seconds.unwrap_or(if args.quick {
        0.5
    } else {
        catalog::RUN_SECONDS as f64
    });
    let scratch = scratch::Scratch::new("run").map_err(|e| format!("scratch directory: {e}"))?;
    let stamp = provenance(args.seed, args.quick);
    println!("dart-perf provenance {stamp}");
    println!("dartmon under test: {}", dartmon.path().display());

    let ctx = e2e::Ctx {
        dartmon: &dartmon,
        dir: scratch.path(),
        seed: args.seed,
        scale: &scale,
        seconds,
    };
    let mut cells = Vec::new();
    for traced in [false, true] {
        for w in &inputs::WORKLOADS {
            let picked = args.workload.as_deref().is_none_or(|name| name == w.name)
                && args.trace.is_none_or(|t| t == traced);
            if picked {
                cells.push((
                    Cell {
                        workload: w.name,
                        traced,
                    },
                    w,
                ));
            }
        }
    }

    let mut by_cell: BTreeMap<Cell, Vec<RunOutput>> = BTreeMap::new();
    let mut green = true;
    for round in 0..args.repeat {
        for (cell, w) in &cells {
            let run = run_cell(*cell, w, &ctx, &stamp);
            green &= run.ops.failed() == 0;
            let title = if args.repeat > 1 {
                format!("{} (set {} of {})", cell.title(), round + 1, args.repeat)
            } else {
                cell.title()
            };
            print!("{}", report::ledger(&title, cell.defs(), &run));
            by_cell.entry(*cell).or_default().push(run);
        }
    }
    if args.repeat > 1 {
        for (cell, runs) in &by_cell {
            let (text, within) = repeat_report(*cell, runs);
            print!("{text}");
            green &= within;
        }
        println!(
            "repeat verdict: {}",
            if green {
                "every end-to-end spread within its bound"
            } else {
                "FAILED"
            }
        );
    }
    // The driver's contract: one workload, one mode, the result last.
    if let ([(cell, _)], 1) = (&cells[..], args.repeat) {
        if args.workload.is_some() && args.trace.is_some() {
            println!("{}", report::result_json(cell.defs(), &by_cell[cell][0]));
        }
    }
    Ok(green)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("dart-perf: correctness violations or failed operations, see above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("dart-perf: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(&[
            "--workload",
            "live-fifo",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("live-fifo"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), Some(true)));
        assert!(parse_args(&argv(&["--workload", "nope"])).is_err());
        assert!(parse_args(&argv(&["--trace", "2"])).is_err());
        assert!(parse_args(&argv(&["--seconds", "0"])).is_err());
        assert!(parse_args(&argv(&["--seed"])).is_err());
        assert!(parse_args(&argv(&["--frobnicate"])).is_err());
    }

    #[test]
    fn repeat_report_flags_a_spread_beyond_the_bound() {
        let cell = Cell {
            workload: "campus-native",
            traced: false,
        };
        let run_with = |mpps: f64| {
            let mut r = RunOutput::default();
            r.record("throughput_mpps", mpps);
            r
        };
        let steady: Vec<RunOutput> = [7.0, 7.01, 7.02, 7.03].map(run_with).into();
        let (text, within) = repeat_report(cell, &steady);
        assert!(within, "{text}");
        let noisy: Vec<RunOutput> = [5.0, 6.0, 8.0, 9.0].map(run_with).into();
        let (text, within) = repeat_report(cell, &noisy);
        assert!(!within && text.contains("EXCEEDED"), "{text}");
        // Two sets are judged by their distance, not by extrapolated
        // quartiles: 10 % apart is inside a 20 % bound.
        let pair: Vec<RunOutput> = [7.0, 7.7].map(run_with).into();
        let (text, within) = repeat_report(cell, &pair);
        assert!(within && text.contains("range/med"), "{text}");
    }
}
