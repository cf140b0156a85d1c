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

/// One request to a daemon's plane; the response body.
fn http(addr: &str, method: &str, path: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read");
    raw.split_once("\r\n\r\n")
        .map_or("", |(_, body)| body)
        .to_string()
}

/// Sum of every series of `family` in a Prometheus exposition.
fn prom_sum(text: &str, family: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with(family) && l[family.len()..].starts_with(['{', ' ']))
        .filter_map(|l| l.rsplit_once(' ')?.1.parse::<u64>().ok())
        .sum()
}

/// `flags` followed by `more`.
fn with<'a>(flags: &[&'a str], more: &[&'a str]) -> Vec<&'a str> {
    [flags, more].concat()
}

/// A `dartmon serve --mode follow` child tailing a fifo that this test
/// feeds, with the address its banner names.
struct Tail {
    child: std::process::Child,
    addr: String,
    feed: std::thread::JoinHandle<std::fs::File>,
}

impl Tail {
    /// Start `serve` on a fresh fifo at `fifo` with `flags`, and feed it
    /// `trace` in eight slices 100 ms apart, so the run crosses several
    /// 200 ms checkpoint boundaries while packets arrive. (A daemon parked
    /// in `read()` on a quiet fifo reaches no boundary: fed all at once,
    /// it would checkpoint nothing before it is killed.) The writer stays
    /// open, as a live producer's would, until [`Tail::close_feed`].
    fn start(fifo: &str, trace: &[u8], flags: &[&str]) -> Tail {
        use std::io::{BufRead as _, Write as _};
        let made = std::process::Command::new("mkfifo").arg(fifo).status();
        assert!(made.expect("mkfifo").success(), "mkfifo {fifo}");
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_dartmon"))
            .args(["serve", fifo, "--mode", "follow", "--listen", "127.0.0.1:0"])
            .args(flags)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn dartmon serve");
        let mut stderr = std::io::BufReader::new(child.stderr.take().expect("stderr"));
        let mut banner = String::new();
        stderr.read_line(&mut banner).expect("banner");
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no plane address in {banner:?}"))
            .to_string();
        // Keep draining stderr so the child can never block on it.
        std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
        let (fifo, trace) = (fifo.to_string(), trace.to_vec());
        let feed = std::thread::spawn(move || {
            let mut w = std::fs::OpenOptions::new()
                .write(true)
                .open(&fifo)
                .expect("open fifo for writing");
            for slice in trace.chunks(trace.len().div_ceil(8)) {
                w.write_all(slice).expect("feed");
                std::thread::sleep(Duration::from_millis(100));
            }
            w
        });
        Tail { child, addr, feed }
    }

    /// Poll `/metrics` until `done` holds of it (or 30 s pass); the last
    /// exposition read.
    fn await_metrics(&self, done: impl Fn(&str) -> bool) -> String {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let text = http(&self.addr, "GET", "/metrics");
            if done(&text) || std::time::Instant::now() > deadline {
                return text;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Close the producer's end of the fifo once the whole trace is in.
    fn close_feed(self) -> std::process::Child {
        drop(self.feed.join().expect("feeder"));
        self.child
    }
}

/// A daemon checkpointing on a 200 ms cadence is killed with SIGKILL after
/// its feed (no drain, no shutdown checkpoint: only the cadence's last
/// durable snapshot survives); a second incarnation restores it and drains
/// a full feed. The report's `packets` is the conservation sum across both
/// generations, so restored books make it exceed one feed, and it can never
/// exceed two. Restore fills the tables through `RegisterArray::load`, so
/// this is that path end to end, from the command line.
#[test]
fn a_killed_checkpointing_daemon_restores_and_refeeds() {
    let dartmon = env!("CARGO_BIN_EXE_dartmon");
    let run = |args: &[&str]| {
        let out = std::process::Command::new(dartmon)
            .args(args)
            .output()
            .expect("run dartmon");
        assert!(out.status.success(), "dartmon {args:?}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let (trace, snap) = (tmp("dartmon_kill9.trace"), tmp("dartmon_kill9.dsnp"));
    let (fifo1, fifo2) = (tmp("dartmon_kill9-1.fifo"), tmp("dartmon_kill9-2.fifo"));
    for path in [&snap, &fifo1, &fifo2] {
        let _ = std::fs::remove_file(path);
    }
    run(&[
        "generate",
        &trace,
        "--connections",
        "120",
        "--duration-secs",
        "3",
    ]);
    let analyzed = run(&["analyze", &trace]);
    let total: u64 = analyzed
        .lines()
        .find_map(|l| {
            l.strip_prefix("input")?
                .split_once(" (")?
                .1
                .split(' ')
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no packet count in:\n{analyzed}"));
    let bytes = std::fs::read(&trace).expect("trace bytes");
    let flags = [
        "--shards",
        "2",
        "--rotate-millis",
        "1000",
        "--retain-secs",
        "1",
        "--snapshot-path",
        &snap,
    ];

    let mut first = Tail::start(
        &fifo1,
        &bytes,
        &with(&flags, &["--checkpoint-millis", "200"]),
    );
    let books = |text: &str| {
        prom_sum(text, "dart_shard_packets_total") + prom_sum(text, "dart_shard_monitor_miss_total")
    };
    let metrics = first
        .await_metrics(|m| books(m) == total && prom_sum(m, "dart_daemon_checkpoints_total") >= 1);
    let check = dart_telemetry::check_prometheus(&metrics);
    assert!(check.ok(), "{:?}", check.errors);
    first.child.kill().expect("SIGKILL");
    let killed = first.child.wait().expect("reap");
    assert!(!killed.success(), "{killed:?}");
    drop(first.close_feed());
    let written = std::fs::metadata(&snap).map(|m| m.len()).unwrap_or(0);
    assert!(written > 0, "no durable checkpoint before the kill");

    let second = Tail::start(&fifo2, &bytes, &with(&flags, &["--restore", &snap]));
    let metrics =
        second.await_metrics(|m| books(m) > total && m.contains("dart_shard_packets_total"));
    let check = dart_telemetry::check_prometheus(&metrics);
    assert!(check.ok(), "{:?}", check.errors);
    // Let the whole second feed in before asking for the shutdown.
    let addr = second.addr.clone();
    let child = second.close_feed();
    let health = http(&addr, "GET", "/healthz");
    http(&addr, "POST", "/control/shutdown");
    let out = child.wait_with_output().expect("second serve");
    assert!(out.status.success(), "{out:?}");
    let report = String::from_utf8(out.stdout).expect("utf-8 report");
    assert_eq!(field(&report, "restored"), "yes", "{report}");
    assert_eq!(field(&report, "ended by"), "shutdown request", "{report}");
    assert_eq!(field(&report, "supervisor"), "healthy", "{report}");
    assert!(health.contains("\"healthy\":true"), "{health}");
    let packets: u64 = field(&report, "packets").parse().expect("count");
    assert!(
        total < packets && packets <= 2 * total,
        "cumulative books {packets} against one feed of {total}:\n{report}"
    );
    for path in [&trace, &snap, &fifo1, &fifo2] {
        let _ = std::fs::remove_file(path);
    }
}

/// A checkpoint that cannot be published — here the snapshot path is a
/// directory, so the final rename fails — is counted on the exit report
/// and leaves no temporary file behind.
#[test]
fn a_failed_checkpoint_is_reported_and_leaves_no_temporary_file() {
    let dartmon = env!("CARGO_BIN_EXE_dartmon");
    let run = |args: &[&str]| {
        let out = std::process::Command::new(dartmon)
            .args(args)
            .output()
            .expect("run dartmon");
        assert!(out.status.success(), "dartmon {args:?}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let (trace, taken) = (tmp("dartmon_ckpt_fail.trace"), tmp("dartmon_ckpt_fail.d"));
    let staged = format!("{taken}.tmp");
    let _ = std::fs::remove_file(&staged);
    std::fs::create_dir_all(std::path::Path::new(&taken).join("inside")).expect("mkdir");
    run(&[
        "generate",
        &trace,
        "--connections",
        "20",
        "--duration-secs",
        "1",
    ]);
    let report = run(&[
        "serve",
        &trace,
        "--mode",
        "once",
        "--listen",
        "127.0.0.1:0",
        "--snapshot-path",
        &taken,
    ]);
    assert_eq!(field(&report, "checkpoints"), "0", "{report}");
    assert_eq!(field(&report, "checkpoint failures"), "1", "{report}");
    assert!(
        !std::path::Path::new(&staged).exists(),
        "a failed checkpoint left {staged} behind"
    );
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_dir_all(&taken);
}

/// The CLI cannot build `DartConfig::unlimited()`: `--rt 0` (and `--pt 0`)
/// are refused before anything starts, so `serve` never checkpoints the
/// unlimited tables, whose snapshot sorts their entries into a copy first.
#[test]
fn serve_refuses_unlimited_tables() {
    let trace = tmp("dartmon_serve_unlimited.trace");
    run_line(&[
        "generate",
        &trace,
        "--connections",
        "5",
        "--duration-secs",
        "1",
    ])
    .expect("generate");
    for flag in ["--rt", "--pt"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dartmon"))
            .args(["serve", &trace, flag, "0", "--listen", "127.0.0.1:0"])
            .output()
            .expect("run dartmon");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {out:?}");
        assert!(
            stderr.contains(&format!("{flag} must be between 1 and 4294967295")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} 0 reported a run: {out:?}");
    }
    let _ = std::fs::remove_file(&trace);
}
