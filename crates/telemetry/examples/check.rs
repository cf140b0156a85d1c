//! Command-line front end for the exposition schema checkers — lets CI
//! validate the files `dartmon --metrics-out/--metrics-prom` wrote without
//! a dedicated binary crate:
//!
//! ```text
//! cargo run -p dart-telemetry --example check -- --prom m.prom --jsonl m.jsonl
//! ```
//!
//! Which families a run must expose is not checked here: that is the
//! vocabulary test (`crates/tools/tests/vocabulary.rs`).
//!
//! Exits nonzero and prints every error if any document fails validation.

use dart_telemetry::{check_jsonl_series, check_prometheus, SchemaReport};
use std::process::ExitCode;

const USAGE: &str = "usage: check [--prom <file>] [--jsonl <file>] ...";

fn report(kind: &str, path: &str, rep: &SchemaReport) -> bool {
    if rep.ok() {
        println!(
            "{kind} {path}: ok ({} series, {} lines)",
            rep.series, rep.lines
        );
        true
    } else {
        eprintln!("{kind} {path}: {} error(s)", rep.errors.len());
        for e in &rep.errors {
            eprintln!("  {e}");
        }
        false
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    let mut checked = 0;
    let mut i = 0;
    while i < args.len() {
        let (kind, path) = match (args[i].as_str(), args.get(i + 1)) {
            ("--prom", Some(p)) | ("--jsonl", Some(p)) => (args[i].as_str(), p.as_str()),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        };
        i += 2;
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("read {path}: {e}");
                ok = false;
                continue;
            }
        };
        let rep = if kind == "--prom" {
            check_prometheus(&text)
        } else {
            check_jsonl_series(&text)
        };
        ok &= report(&kind[2..], path, &rep);
        checked += 1;
    }
    if checked == 0 {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
