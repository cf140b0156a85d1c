//! The `dartmon serve` daemon, in process: the loop's boundary decisions
//! (rotation, reload, shutdown attribution) and the live observability
//! plane. These are timing-sensitive — wall-clock rotation periods, HTTP
//! clients racing the loop — so the table-heavy checkpoint/restore round
//! trips live in their own binary (`daemon_restart.rs`; cargo runs test
//! binaries one at a time) and the seeded kill–restart matrix with its
//! harness in `dart-testkit`. `serve_recovery.rs` covers the same daemon
//! from the command line down.

mod common;

use common::{cfg, exchanges, Counting};
use dart_core::telemetry::{
    EPOCH_ROTATIONS, SHARD_COUNTERS, STAGE_DECODE_NS, SUPERVISOR_HEALTHY_SHARDS,
};
use dart_packet::{CycleSource, PacketMeta};
use dart_tools::Daemon;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read");
    raw.split_once("\r\n\r\n").expect("body").1.to_string()
}

fn post(addr: SocketAddr, path: &str) {
    let mut s = TcpStream::connect(addr).expect("connect");
    write!(
        s,
        "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut raw = String::new();
    let _ = s.read_to_string(&mut raw);
}

/// Poll `/healthz` until its daemon-level `field` reaches `at_least` (or
/// 20 s pass): the loop's progress, not a sleep, paces the clients, so a
/// loaded host stretches the run instead of failing the test.
fn await_health(addr: SocketAddr, field: &str, at_least: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let health = dart_telemetry::json::parse(get(addr, "/healthz").trim()).expect("JSON");
        let seen = health.get(field).and_then(|v| v.as_u64());
        if seen >= Some(at_least) || Instant::now() > deadline {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn drains_a_finite_source_and_accounts_every_packet() {
    let pkts = exchanges(10, 4);
    let total = pkts.len() as u64;
    let daemon = Daemon::start(cfg()).expect("bind");
    let mut source = dart_packet::SliceSource::new(&pkts);
    let mut seen = Counting::default();
    let report = daemon.run(&mut source, &mut seen).expect("clean run");
    assert_eq!(
        seen.0, report.stats.samples,
        "the sink saw what the report counts"
    );
    assert!(!report.shutdown_requested);
    assert_eq!(report.packets, total);
    assert_eq!(report.stats.packets + report.stats.monitor_miss, total);
    assert!(report.stats.samples > 0);
    assert!(report.health.flushed);
}

#[test]
fn rotates_on_the_wall_clock_and_serves_the_plane() {
    // A cycled trace long enough to cross several 20 ms rotation
    // periods; the loop is driven by the source, so give it plenty of
    // passes and end via shutdown.
    let pkts = exchanges(10, 4);
    let daemon = Daemon::start(cfg()).expect("bind");
    let addr = daemon.addr();
    let server_thread = std::thread::spawn(move || {
        await_health(addr, "rotations", 2);
        post(addr, "/control/shutdown");
    });
    let mut source = CycleSource::with_gap(pkts, 1_000_000);
    let mut seen = Counting::default();
    let report = daemon.run(&mut source, &mut seen).expect("clean run");
    assert_eq!(
        seen.0, report.stats.samples,
        "the sink saw what the report counts"
    );
    server_thread.join().expect("client thread");
    assert!(report.shutdown_requested);
    assert!(report.rotations >= 2, "got {} rotations", report.rotations);
    assert!(report.health.healthy(), "{:?}", report.health);
}

#[test]
fn healthz_and_metrics_reflect_the_run_live() {
    let pkts = exchanges(8, 3);
    let daemon = Daemon::start(cfg()).expect("bind");
    let addr = daemon.addr();
    let client = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(60));
        let health = get(addr, "/healthz");
        let metrics = get(addr, "/metrics");
        let events = get(addr, "/events");
        post(addr, "/control/shutdown");
        (health, metrics, events)
    });
    let mut source = CycleSource::with_gap(pkts, 1_000_000);
    let mut seen = Counting::default();
    let report = daemon.run(&mut source, &mut seen).expect("clean run");
    assert_eq!(
        seen.0, report.stats.samples,
        "the sink saw what the report counts"
    );
    let (health, metrics, events) = client.join().expect("client");
    let v = dart_telemetry::json::parse(health.trim()).expect("healthz is JSON");
    let sup = v.get("supervisor").expect("supervisor block");
    assert_eq!(sup.get("shards").and_then(|s| s.as_u64()), Some(2));
    let healthy = format!("{} 2", SUPERVISOR_HEALTHY_SHARDS.name);
    assert!(metrics.contains(&healthy), "{metrics}");
    assert!(metrics.contains(STAGE_DECODE_NS.name), "{metrics}");
    assert!(metrics.contains(EPOCH_ROTATIONS.name), "{metrics}");
    assert!(
        events.contains("observability server listening"),
        "{events}"
    );
    assert!(report.packets > 0);
}

#[test]
fn reload_rebuilds_the_monitor_and_keeps_counting() {
    let pkts = exchanges(8, 3);
    let daemon = Daemon::start(cfg()).expect("bind");
    let addr = daemon.addr();
    let client = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        post(addr, "/control/reload");
        await_health(addr, "reloads", 1);
        let events = get(addr, "/events");
        post(addr, "/control/shutdown");
        events
    });
    let mut source = CycleSource::with_gap(pkts, 1_000_000);
    let mut seen = Counting::default();
    let report = daemon.run(&mut source, &mut seen).expect("clean run");
    assert_eq!(
        seen.0, report.stats.samples,
        "the sink saw what the report counts"
    );
    let events = client.join().expect("client");
    // The reload says how long the ingest loop stood still for it.
    let reloaded = events
        .lines()
        .find(|line| line.contains("monitor reloaded"))
        .unwrap_or_else(|| panic!("no reload event in {events}"));
    assert!(reloaded.contains("\"pause_us\""), "{reloaded}");
    assert_eq!(report.reloads, 1);
    assert!(report.shutdown_requested);
    // Conservation holds across the generation boundary.
    assert_eq!(
        report.packets,
        report.stats.packets + report.stats.monitor_miss
    );
}

#[test]
fn follow_mode_shutdown_is_attributed_to_the_request() {
    // A tailed source parked at end-of-data is *woken* by the shutdown
    // flag; the resulting empty read must report as a shutdown, not as
    // the source draining.
    let pkts = exchanges(6, 2);
    let bytes = dart_packet::trace::to_bytes(&pkts);
    let daemon = Daemon::start(cfg()).expect("bind");
    let addr = daemon.addr();
    let follow =
        dart_packet::Follow::new(std::io::Cursor::new(bytes), daemon.server().shutdown_flag())
            .with_poll_interval(Duration::from_millis(1));
    let mut source = dart_packet::trace::TraceReader::new(follow).expect("header");
    let client = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        post(addr, "/control/shutdown");
    });
    let mut seen = Counting::default();
    let report = daemon.run(&mut source, &mut seen).expect("clean run");
    assert_eq!(
        seen.0, report.stats.samples,
        "the sink saw what the report counts"
    );
    client.join().expect("client");
    assert!(report.shutdown_requested, "wake-by-shutdown misattributed");
    assert_eq!(report.packets, pkts.len() as u64, "tail lost packets");
}

#[test]
fn follow_mode_tells_pcap_by_its_magic_not_by_the_file_name() {
    // `serve --mode follow` from the command line down: the same pcap
    // bytes under a `.pcap` name and under a name that says nothing (a
    // fifo called `feed`) must measure alike. This is the only test in
    // this binary whose daemon polls the process-wide shutdown flag.
    let pkts = exchanges(6, 20);
    let pcap = dart_packet::pcap::to_bytes(&pkts);
    let serve = |name: &str| {
        let path = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
        std::fs::write(&path, &pcap).expect("write capture");
        let file = path.to_str().expect("utf-8 temp path");
        let line = ["serve", file, "--listen", "127.0.0.1:0", "--mode", "follow"];
        let (cmd, opts) = dart_tools::parse(&line.map(String::from)).expect("parse");
        // The tail drains the file in a few milliseconds, then parks at
        // end-of-data until this request ends the run.
        let stopper = std::thread::spawn(|| {
            std::thread::sleep(Duration::from_millis(700));
            dart_tools::shutdown::request();
        });
        let report = dart_tools::run(cmd, &opts).expect("serve follow");
        stopper.join().expect("stopper");
        while dart_tools::shutdown::take() {}
        let _ = std::fs::remove_file(&path);
        let count = |field: &str| -> u64 {
            let line = report.lines().find(|l| l.starts_with(field));
            line.and_then(|l| l.split(':').nth(1)?.trim().parse().ok())
                .unwrap_or_else(|| panic!("no {field} count in:\n{report}"))
        };
        (count("packets"), count("samples"))
    };
    let named = serve("dartmon_follow_sniff.pcap");
    assert_eq!(
        named.0,
        pkts.len() as u64,
        "the .pcap-named tail lost packets"
    );
    assert!(named.1 > 0, "the .pcap-named tail measured nothing");
    assert_eq!(serve("dartmon_follow_sniff_feed"), named);
}

/// Sum of one metric family over its label sets in a `/metrics` body.
#[cfg(unix)]
fn family_sum(metrics: &str, family: &str) -> u64 {
    metrics
        .lines()
        .filter(|l| l.starts_with(family) && l[family.len()..].starts_with(['{', ' ']))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}

#[cfg(unix)]
#[test]
fn a_feed_that_goes_quiet_leaves_nothing_short_of_the_shards() {
    // A live stream (a socket pair standing in for the fifo: reads
    // block while the writer is merely quiet) is fed a packet count
    // that is a multiple neither of the block nor of the hand-off
    // batch, and then nothing. Every packet must reach a shard and show
    // in /metrics with no further input and before any shutdown: none
    // may sit in the reader, the block, or a feeder buffer.
    use std::os::unix::net::UnixStream;
    let pkts: Vec<PacketMeta> = exchanges(11, 47).into_iter().take(1000 + 37).collect();
    let fed = pkts.len() as u64;
    assert!(!fed.is_multiple_of(128) && !fed.is_multiple_of(64));
    let bytes = dart_packet::trace::to_bytes(&pkts);
    let (mut writer, reader) = UnixStream::pair().expect("socket pair");
    let daemon = Daemon::start(cfg()).expect("bind");
    let addr = daemon.addr();
    let stop = daemon.server().shutdown_flag();
    let follow = dart_packet::Follow::new(reader, Arc::clone(&stop))
        .with_poll_interval(Duration::from_millis(1));
    let client = std::thread::spawn(move || {
        writer.write_all(&bytes).expect("feed");
        let deadline = Instant::now() + Duration::from_secs(20);
        let seen = loop {
            let metrics = get(addr, "/metrics");
            let seen = family_sum(&metrics, &SHARD_COUNTERS.name_for("packets"))
                + family_sum(&metrics, &SHARD_COUNTERS.name_for("monitor_miss"));
            if seen == fed || Instant::now() > deadline {
                break seen;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        // Only now end the run: the flag, then end-of-file to wake the
        // blocked read.
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        drop(writer);
        seen
    });
    let mut source = dart_packet::trace::TraceReader::new(follow).expect("header");
    let mut seen = Counting::default();
    let report = daemon.run(&mut source, &mut seen).expect("clean run");
    assert_eq!(
        seen.0, report.stats.samples,
        "the sink saw what the report counts"
    );
    let seen = client.join().expect("client");
    assert_eq!(
        seen, fed,
        "packets stranded short of the shards while the feed was quiet"
    );
    assert_eq!(report.packets, fed);
    assert!(report.shutdown_requested);
}

#[cfg(unix)]
#[test]
fn the_sink_sees_samples_while_the_feed_is_still_open() {
    // A live stream (a socket pair standing in for the fifo) fed in
    // slices: samples must reach the daemon's sink while the writer still
    // holds the stream open, not at the flush.
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicU64, Ordering};
    let pkts = exchanges(16, 200);
    let header = dart_packet::trace::to_bytes(&[]).len();
    let bytes = dart_packet::trace::to_bytes(&pkts);
    let record = (bytes.len() - header) / pkts.len();
    let (mut writer, reader) = UnixStream::pair().expect("socket pair");
    let daemon = Daemon::start(cfg()).expect("bind");
    let stop = daemon.server().shutdown_flag();
    let follow = dart_packet::Follow::new(reader, Arc::clone(&stop))
        .with_poll_interval(Duration::from_millis(1));
    let seen = Arc::new(AtomicU64::new(0));
    let client = {
        let seen = Arc::clone(&seen);
        std::thread::spawn(move || {
            writer.write_all(&bytes[..header]).expect("header");
            let deadline = Instant::now() + Duration::from_secs(20);
            let mut slices = bytes[header..].chunks(200 * record);
            while seen.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
                match slices.next() {
                    Some(slice) => writer.write_all(slice).expect("feed"),
                    None => std::thread::sleep(Duration::from_millis(5)),
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            let seen_open = seen.load(Ordering::Relaxed);
            stop.store(true, Ordering::Relaxed);
            drop(writer);
            seen_open
        })
    };
    let mut source = dart_packet::trace::TraceReader::new(follow).expect("header");
    let mut sink = {
        let seen = Arc::clone(&seen);
        move |_: dart_core::RttSample| {
            seen.fetch_add(1, Ordering::Relaxed);
        }
    };
    let report = daemon.run(&mut source, &mut sink).expect("clean run");
    let seen_open = client.join().expect("client");
    assert!(
        seen_open > 0,
        "no sample reached the sink while the feed was open"
    );
    assert!(report.shutdown_requested);
    assert_eq!(seen.load(Ordering::Relaxed), report.stats.samples);
}

#[test]
fn in_process_shutdown_request_ends_the_loop() {
    let pkts = exchanges(6, 2);
    let daemon = Daemon::start(cfg()).expect("bind");
    daemon.server().request_shutdown();
    let mut source = CycleSource::new(pkts);
    let mut seen = Counting::default();
    let report = daemon.run(&mut source, &mut seen).expect("clean run");
    assert_eq!(
        seen.0, report.stats.samples,
        "the sink saw what the report counts"
    );
    assert!(report.shutdown_requested);
    assert_eq!(report.packets, 0, "shutdown observed before any block");
}
