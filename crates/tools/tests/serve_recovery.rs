//! `dartmon serve` crash-recovery surface: checkpoint/restore flags, the
//! reconnecting follow source, and the SIGINT/SIGTERM → shutdown path.
//!
//! Lives in its own test binary so no other crate's `serve` test shares
//! the process-wide shutdown flag. Within this binary the tests still run
//! on parallel threads, and every running `serve` polls that flag — one
//! test's daemon would consume the request another test raised — so each
//! test that starts a daemon holds [`serve_lock`] for its whole run.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// One `serve` at a time: the shutdown flag has exactly one consumer.
fn serve_lock() -> MutexGuard<'static, ()> {
    static SERVING: Mutex<()> = Mutex::new(());
    // A test that failed while serving has nothing half-updated to protect.
    SERVING
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("{}_{}", name, std::process::id()))
        .to_str()
        .expect("utf-8 temp path")
        .to_string()
}

fn run_line(line: &[&str]) -> Result<String, String> {
    let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
    let (cmd, opts) = dart_tools::parse(&args)?;
    dart_tools::run(cmd, &opts)
}

fn field(report: &str, name: &str) -> String {
    report
        .lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|| panic!("missing field {name:?} in:\n{report}"))
}

#[test]
fn serve_checkpoints_then_restores_across_an_incarnation() {
    let _serving = serve_lock();
    let trace = tmp("dartmon_serve_ckpt.trace");
    let snap = tmp("dartmon_serve_ckpt.dsnp");
    run_line(&[
        "generate",
        &trace,
        "--connections",
        "60",
        "--duration-secs",
        "2",
    ])
    .expect("generate");

    let first = run_line(&[
        "serve",
        &trace,
        "--listen",
        "127.0.0.1:0",
        "--snapshot-path",
        &snap,
        "--checkpoint-millis",
        "5",
    ])
    .expect("first serve");
    let written: u64 = field(&first, "checkpoints").parse().expect("count");
    assert!(written >= 1, "no checkpoint written:\n{first}");
    assert_eq!(field(&first, "restored"), "no");
    assert!(std::path::Path::new(&snap).is_file(), "snapshot missing");

    let second = run_line(&[
        "serve",
        &trace,
        "--listen",
        "127.0.0.1:0",
        "--snapshot-path",
        &snap,
        "--restore",
        &snap,
    ])
    .expect("second serve");
    assert_eq!(field(&second, "restored"), "yes", "{second}");
    // Restored books are cumulative: the second incarnation starts from
    // the first one's counters, drains the same trace again, and reports
    // exactly double — the conservation law across the restart.
    let first_packets: u64 = field(&first, "packets").parse().expect("count");
    let second_packets: u64 = field(&second, "packets").parse().expect("count");
    assert_eq!(second_packets, 2 * first_packets, "{second}");

    // A torn snapshot must refuse to start, loudly.
    let bytes = std::fs::read(&snap).expect("snapshot bytes");
    std::fs::write(&snap, &bytes[..bytes.len() / 2]).expect("truncate");
    let err = run_line(&[
        "serve",
        &trace,
        "--listen",
        "127.0.0.1:0",
        "--restore",
        &snap,
    ])
    .expect_err("torn snapshot accepted");
    assert!(err.contains("restore"), "{err}");

    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&snap);
}

#[test]
fn serve_rejects_bad_recovery_flags() {
    let err = run_line(&["serve", "x.trace", "--checkpoint-millis", "5"]).unwrap_err();
    assert!(err.contains("needs --snapshot-path"), "{err}");
    let err = run_line(&[
        "serve",
        "x.trace",
        "--snapshot-path",
        "s.dsnp",
        "--checkpoint-millis",
        "0",
    ])
    .unwrap_err();
    assert!(err.contains("at least 1"), "{err}");
    let err = run_line(&["serve", "x.trace", "--strict-decode", "true"]).unwrap_err();
    assert!(err.contains("--mode follow"), "{err}");
    let err = run_line(&[
        "serve",
        "x.trace",
        "--mode",
        "follow",
        "--strict-decode",
        "sideways",
    ])
    .unwrap_err();
    assert!(err.contains("true | false"), "{err}");
}

#[test]
fn serve_refuses_zero_passes_and_stops_after_one() {
    let _serving = serve_lock();
    let trace = tmp("dartmon_serve_passes.trace");
    run_line(&[
        "generate",
        &trace,
        "--connections",
        "20",
        "--duration-secs",
        "1",
    ])
    .expect("generate");
    let cycle = |passes: &str| {
        run_line(&[
            "serve",
            &trace,
            "--listen",
            "127.0.0.1:0",
            "--mode",
            "cycle",
            "--passes",
            passes,
        ])
    };
    let err = cycle("0").expect_err("zero passes replayed a pass");
    assert!(err.contains("--passes must be at least 1"), "{err}");
    let report = cycle("1").expect("one pass");
    assert_eq!(field(&report, "mode"), "cycle (1 passes completed)");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn a_shutdown_request_ends_an_endless_cycle_like_a_signal_would() {
    let _serving = serve_lock();
    // The signal handler itself lives in the binary (one atomic store into
    // dart_tools::shutdown); this drives the exact path it triggers.
    let trace = tmp("dartmon_serve_signal.trace");
    run_line(&[
        "generate",
        &trace,
        "--connections",
        "40",
        "--duration-secs",
        "2",
    ])
    .expect("generate");

    let requester = std::thread::spawn(|| {
        // Keep requesting until the daemon's watcher consumes one; the
        // first few may land before the watcher thread is up.
        for _ in 0..400 {
            dart_tools::shutdown::request();
            std::thread::sleep(Duration::from_millis(25));
            if !dart_tools::shutdown::pending() {
                // Consumed — the watcher has it; stop hammering.
                return;
            }
        }
        panic!("no serve watcher ever consumed the shutdown request");
    });

    // Endless cycle: only a shutdown request can end this run.
    let report = run_line(&[
        "serve",
        &trace,
        "--listen",
        "127.0.0.1:0",
        "--mode",
        "cycle",
        "--rotate-millis",
        "50",
    ])
    .expect("serve cycle");
    requester.join().expect("requester thread");
    assert_eq!(field(&report, "ended by"), "shutdown request", "{report}");
    // Leave no request behind for other binaries.
    while dart_tools::shutdown::take() {}
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn serve_follow_survives_decode_garbage_and_counts_it() {
    let _serving = serve_lock();
    // A native trace with trailing garbage: the reconnecting tail skips
    // the torn record (strict decode off) and the run still drains.
    let trace = tmp("dartmon_serve_follow.trace");
    run_line(&[
        "generate",
        &trace,
        "--connections",
        "30",
        "--duration-secs",
        "1",
    ])
    .expect("generate");

    // Shut the follow tail down shortly after it reaches end-of-data.
    let stopper = std::thread::spawn(|| {
        std::thread::sleep(Duration::from_millis(600));
        dart_tools::shutdown::request();
    });
    let report = run_line(&[
        "serve",
        &trace,
        "--listen",
        "127.0.0.1:0",
        "--mode",
        "follow",
        "--strict-decode",
        "false",
    ])
    .expect("serve follow");
    stopper.join().expect("stopper thread");
    assert_eq!(field(&report, "ended by"), "shutdown request", "{report}");
    let packets: u64 = field(&report, "packets").parse().expect("count");
    assert!(packets > 0, "follow ingested nothing:\n{report}");
    while dart_tools::shutdown::take() {}
    let _ = std::fs::remove_file(&trace);
}
