//! Registry smoke through the built binary: every registered engine builds,
//! streams a small generated trace and renders its scorecard row, and the
//! oracle passes the run. `dartmon diff` exits 0 whatever the verdict, so
//! the verdict line and the rows are what is checked.

use dart_baselines::EngineRegistry;
use std::process::Command;

#[test]
fn diff_over_every_registry_engine_passes_with_one_row_each() {
    let dartmon = env!("CARGO_BIN_EXE_dartmon");
    let trace = std::env::temp_dir().join(format!(
        "dartmon-registry-smoke-{}.trace",
        std::process::id()
    ));
    let trace = trace.to_str().expect("utf-8 temp path");
    let generate = Command::new(dartmon)
        .args([
            "generate",
            trace,
            "--connections",
            "120",
            "--duration-secs",
            "3",
        ])
        .output()
        .expect("run dartmon generate");
    assert!(generate.status.success(), "{generate:?}");
    let diff = Command::new(dartmon)
        .args(["diff", trace, "--engine", "all"])
        .output()
        .expect("run dartmon diff");
    let _ = std::fs::remove_file(trace);
    let report = String::from_utf8_lossy(&diff.stdout);
    assert!(
        diff.status.success(),
        "exit {:?}\n{report}\n{}",
        diff.status,
        String::from_utf8_lossy(&diff.stderr)
    );
    assert!(
        report.lines().any(|l| l == "verdict: PASS"),
        "no passing verdict in:\n{report}"
    );
    // The scorecard is the block from the `runner` header to the verdict.
    let rows: Vec<&str> = report
        .lines()
        .skip_while(|l| !l.starts_with("runner"))
        .skip(1)
        .take_while(|l| !l.starts_with("verdict"))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for name in EngineRegistry::standard().names() {
        let count = rows.iter().filter(|row| **row == name).count();
        assert_eq!(count, 1, "{count} scorecard rows for {name} in:\n{report}");
    }
}
