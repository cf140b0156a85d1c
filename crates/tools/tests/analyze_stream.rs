//! `dartmon analyze` streams its input: file → block source → `drive`.
//!
//! Two things are pinned here. Equivalence: what the streamed command
//! prints and writes is byte for byte what the materialised pipeline it
//! replaced produced (`load_file` + a slice source + the same formatters,
//! rebuilt below as the reference). And memory: nothing the command holds
//! grows with the number of packets, measured with a live-heap counting
//! allocator rather than inferred from the code.

use dart_packet::PacketMeta;
use dart_sim::scenario::{campus, CampusConfig};
use dart_tools::io::save_file;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, tracking each thread's live heap and its peak
/// (every test runs on one thread; the serial engine spawns none).
struct LiveHeap;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn moved(by: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + by);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only const-initialised
// thread-local `Cell`s (no allocation, no destructor) and tolerates them
// being gone during thread teardown.
unsafe impl GlobalAlloc for LiveHeap {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        moved(layout.size() as isize);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        moved(layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        moved(new_size as isize - layout.size() as isize);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        moved(-(layout.size() as isize));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LiveHeap = LiveHeap;

/// Peak live heap of `work` on this thread, above where it started.
fn peak_live_heap<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let out = work();
    (out, (PEAK.with(Cell::get) - before) as usize)
}

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("dartmon_stream_{}_{name}", std::process::id()))
        .to_str()
        .expect("utf-8 temp path")
        .to_string()
}

fn run_line(line: &[&str]) -> Result<String, String> {
    let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
    let (cmd, opts) = dart_tools::parse(&args)?;
    dart_tools::run(cmd, &opts)
}

fn campus_packets(connections: usize, secs: u64) -> Vec<PacketMeta> {
    campus(CampusConfig {
        connections,
        duration: secs * dart_packet::SECOND,
        seed: 0x5712_EA11,
        ..CampusConfig::default()
    })
    .packets
}

fn field(report: &str, name: &str) -> u64 {
    report
        .lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("missing numeric field {name:?} in:\n{report}"))
}

fn remove(paths: &[&str]) {
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

/// Pcap and native are two encodings of one packet stream: the same seed
/// written both ways by the shipped binary analyses to the same packet
/// count, sample count and percentiles, with no frame of the pcap skipped.
#[test]
fn pcap_and_native_analyze_agree_end_to_end() {
    let dartmon = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dartmon"))
            .args(args)
            .output()
            .expect("run dartmon");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "dartmon {args:?}: {stderr}");
        String::from_utf8(out.stdout).expect("utf-8 report")
    };
    let [trace, pcap] = ["trace", "pcap"].map(|ext| {
        let path = tmp(&format!("eq.{ext}"));
        let seed = [
            "--seed",
            "17",
            "--connections",
            "400",
            "--duration-secs",
            "8",
        ];
        dartmon(&[&["generate", path.as_str()][..], &seed].concat());
        let report = dartmon(&["analyze", &path]);
        remove(&[&path]);
        report
    });
    // The packet count of the `input` line, the `samples` line and the
    // percentile lines.
    let lines = |report: &str| -> Vec<String> {
        let percentile = |l: &str| {
            let tag = l.split(' ').next().unwrap_or("");
            tag.len() > 1 && tag.starts_with('p') && tag[1..].bytes().all(|b| b.is_ascii_digit())
        };
        report
            .lines()
            .filter_map(|l| match l.strip_prefix("input ") {
                Some(input) => input
                    .rsplit_once('(')
                    .map(|(_, n)| n.split(", ").next().unwrap_or("").to_string()),
                None => (l.starts_with("samples ") || percentile(l)).then(|| l.to_string()),
            })
            .collect()
    };
    assert_eq!(lines(&pcap).len(), 6, "{pcap}");
    assert_eq!(lines(&trace), lines(&pcap));
    assert!(
        pcap.lines()
            .any(|l| l.starts_with("input ") && l.contains(" packets, 0 skipped)")),
        "{pcap}"
    );
}

#[test]
fn analyze_memory_does_not_scale_with_packets() {
    const SMALL: usize = 64 * 1024;
    const LARGE: usize = 512 * 1024;
    let packets = campus_packets(2400, 20);
    assert!(packets.len() >= LARGE, "only {} packets", packets.len());
    let analyze = |n: usize| {
        let path = tmp(&format!("mem_{n}.trace"));
        save_file(&path, &packets[..n]).expect("save");
        let (report, peak) = peak_live_heap(|| {
            run_line(&[
                "analyze", &path, "--rt", "4096", "--pt", "512", "--leg", "both",
            ])
            .expect("analyze")
        });
        remove(&[&path]);
        assert!(
            report.contains(&format!("({n} packets, 0 skipped)")),
            "{report}"
        );
        (field(&report, "samples") as usize, peak)
    };
    let (small_samples, small_peak) = analyze(SMALL);
    let (large_samples, large_peak) = analyze(LARGE);
    // Both legs, so that the extra packets bring some 89 k extra samples:
    // at 4 B each, well past the slack below.
    assert!(
        large_samples >= small_samples + 65_536,
        "{small_samples} samples at {SMALL} packets, {large_samples} at {LARGE}"
    );
    // The distribution keeps 4 bytes per sample (none of these RTTs reaches
    // 4.29 s) in a `Vec` that doubles, so for each slot of the next power
    // of two at or above the count; the tables, the read window and the
    // report are the same for both. Eight bytes per sample would rise
    // twice as far, 393 KB over this bound, and a materialised trace would
    // add some 80 bytes for each of the 448 k extra packets, 35 MB over it.
    let slots = |n: usize| n.next_power_of_two().max(4);
    let allowed = 4 * (slots(large_samples) - slots(small_samples)) + 64 * 1024;
    assert!(
        large_peak <= small_peak + allowed,
        "peak live heap {small_peak} B at {SMALL} packets, {large_peak} B at {LARGE}: \
         grew by more than the {allowed} B the extra samples explain"
    );
}

/// What the streamed `analyze` must reproduce: the materialised pipeline
/// it replaced, rebuilt from `load_file`, a slice source and the same
/// formatters.
mod equivalence {
    use super::{campus_packets, field, remove, run_line, tmp};
    use dart_analytics::RttDistribution;
    use dart_baselines::EngineRegistry;
    use dart_core::telemetry::{Family, TABLE_OCCUPIED_SLOTS, TABLE_RESIDENT_BYTES};
    use dart_core::{drive, program, tick_every, DartConfig, RttSample};
    use dart_packet::parse::{synthesize_frame, PrefixClassifier};
    use dart_packet::pcap::{linktype, PcapWriter};
    use dart_packet::{PacketMeta, PacketSource, PcapSource, SliceSource};
    use dart_switch::TargetProfile;
    use dart_telemetry::MetricRegistry;
    use dart_tools::io::{load_file, save_file};
    use std::fmt::Write as _;
    use std::net::Ipv4Addr;

    const INTERNAL: (Ipv4Addr, u8) = (Ipv4Addr::new(10, 0, 0, 0), 8);
    /// Neither a multiple of the 1024-packet block nor of `INTERVAL`.
    const PACKETS: usize = 5 * 1024 + 37;
    /// Divides neither `PACKETS` nor the block.
    const INTERVAL: u64 = 777;

    struct Outputs {
        stdout: String,
        csv: String,
        jsonl: String,
        prom: String,
    }

    struct Paths {
        csv: String,
        jsonl: String,
        prom: String,
        events: String,
        interval: String,
    }

    impl Paths {
        fn new(tag: &str) -> Paths {
            Paths {
                csv: tmp(&format!("{tag}.csv")),
                jsonl: tmp(&format!("{tag}.jsonl")),
                prom: tmp(&format!("{tag}.prom")),
                events: tmp(&format!("{tag}.events")),
                interval: INTERVAL.to_string(),
            }
        }

        fn flags(&self) -> [&str; 10] {
            [
                "--csv",
                &self.csv,
                "--metrics-out",
                &self.jsonl,
                "--metrics-interval",
                &self.interval,
                "--metrics-prom",
                &self.prom,
                "--events-out",
                &self.events,
            ]
        }

        fn remove(&self) {
            remove(&[&self.csv, &self.jsonl, &self.prom, &self.events]);
        }
    }

    /// The parent's `analyze`, over an in-memory trace.
    fn reference(input: &str, engine: &str, shards: usize, paths: &Paths) -> Outputs {
        let (packets, skipped) = load_file(input, INTERNAL).expect("load");
        let cfg = DartConfig::default();
        let metrics = MetricRegistry::new();
        let mut built = EngineRegistry::standard()
            .build_instrumented(engine, &cfg, &metrics)
            .expect("engine");
        let mut jsonl = String::new();
        let mut snapshot = |processed: u64, done: bool| {
            let fields = [("packets", processed), ("final", done as u64)];
            jsonl.push_str(&metrics.scrape().jsonl_line(&fields));
            jsonl.push('\n');
        };
        let mut samples: Vec<RttSample> = Vec::new();
        let stats = drive(
            built.monitor.as_mut(),
            &mut SliceSource::new(&packets),
            &mut samples,
            tick_every(INTERVAL, |processed| snapshot(processed, false)),
        )
        .expect("slice sources are infallible");
        snapshot(packets.len() as u64, true);

        let mut csv = String::from("ts_ns,src,sport,dst,dport,eack,rtt_ns\n");
        for s in &samples {
            writeln!(
                csv,
                "{},{},{},{},{},{},{}",
                s.ts,
                s.flow.src_ip,
                s.flow.src_port,
                s.flow.dst_ip,
                s.flow.dst_port,
                s.eack.raw(),
                s.rtt
            )
            .unwrap();
        }

        let mut dist = RttDistribution::from_samples(samples.iter().map(|s| s.rtt));
        let mut out = String::new();
        let n = packets.len();
        writeln!(
            out,
            "input             : {input} ({n} packets, {skipped} skipped)"
        )
        .unwrap();
        writeln!(
            out,
            "engine            : {} — {}",
            built.monitor.name(),
            built.monitor.describe()
        )
        .unwrap();
        writeln!(
            out,
            "config            : {:?} leg, PT {:?}, RT {:?}, recirc<={}, shards={shards}",
            cfg.leg, cfg.pt, cfg.rt, cfg.max_recirc
        )
        .unwrap();
        writeln!(out, "samples           : {}", dist.len()).unwrap();
        for (label, p) in [("p50", 50.0), ("p90", 90.0), ("p95", 95.0), ("p99", 99.0)] {
            if let Some(v) = dist.percentile(p) {
                writeln!(out, "{label:<18}: {:.3} ms", v as f64 / 1e6).unwrap();
            }
        }
        writeln!(out, "tracked data pkts : {}", stats.seq_tracked).unwrap();
        writeln!(out, "retransmissions   : {}", stats.seq_retransmission).unwrap();
        writeln!(out, "range collapses   : {}", stats.range_collapses).unwrap();
        writeln!(out, "optimistic ACKs   : {}", stats.ack_optimistic).unwrap();
        writeln!(out, "recirc / packet   : {:.4}", stats.recirc_per_packet()).unwrap();
        // Every shard holds the default geometry: 2^20 RT and 2^17 PT slots.
        let held = |row: Family, table: &str| -> i64 {
            (0..shards)
                .map(|s| {
                    let labels = [("shard", s.to_string()), ("table", table.to_string())];
                    let labels = labels.each_ref().map(|(k, v)| (*k, v.as_str()));
                    metrics.gauge(row.name, &labels, row.help).get()
                })
                .sum()
        };
        let prog = program(&cfg, &TargetProfile::tofino2()).expect("constrained tables");
        let priced = |table: &str| -> u64 {
            (prog.tables.iter())
                .filter(|t| t.name.starts_with(&format!("{table}_")))
                .map(|t| t.entries * u64::from(t.value_bits))
                .sum()
        };
        let rows: Vec<String> = [("rt", 1u64 << 20), ("pt", 1 << 17)]
            .iter()
            .map(|&(table, slots)| {
                format!(
                    "{table} {} of {} slots in {:.1} KiB ({} bits priced)",
                    held(TABLE_OCCUPIED_SLOTS, table),
                    slots * shards as u64,
                    held(TABLE_RESIDENT_BYTES, table) as f64 / 1024.0,
                    priced(table) * shards as u64
                )
            })
            .collect();
        writeln!(out, "tables            : {}", rows.join(", ")).unwrap();
        writeln!(
            out,
            "metrics           : {} snapshots (every {INTERVAL} pkts) -> {}",
            jsonl.lines().count(),
            paths.jsonl
        )
        .unwrap();
        writeln!(out, "prometheus        : {}", paths.prom).unwrap();
        Outputs {
            stdout: out,
            csv,
            jsonl,
            prom: metrics.scrape().prometheus(),
        }
    }

    /// Run the streamed command with every output flag and read the files.
    fn streamed(input: &str, extra: &[&str], paths: &Paths) -> (Outputs, String) {
        let mut line = vec!["analyze", input];
        line.extend(paths.flags());
        line.extend(extra);
        let stdout = run_line(&line).expect("analyze");
        let read = |p: &str| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{p}: {e}"));
        let outputs = Outputs {
            stdout,
            csv: read(&paths.csv),
            jsonl: read(&paths.jsonl),
            prom: read(&paths.prom),
        };
        (outputs, read(&paths.events))
    }

    fn assert_same(got: &Outputs, want: &Outputs) {
        // The streamed report ends with the events line, which the
        // reference has no log to count for.
        let (report, events_line) = got.stdout.trim_end().rsplit_once('\n').expect("lines");
        assert!(
            events_line.starts_with("events            : "),
            "{events_line}"
        );
        assert_eq!(format!("{report}\n"), want.stdout);
        assert_eq!(got.csv, want.csv);
        assert_eq!(got.jsonl, want.jsonl);
        assert_eq!(got.prom, want.prom);
    }

    #[test]
    fn native_and_pcap_match_the_materialised_reference() {
        let packets = &campus_packets(120, 4)[..PACKETS];
        for ext in ["trace", "pcap"] {
            let input = tmp(&format!("equiv.{ext}"));
            save_file(&input, packets).expect("save");
            let paths = Paths::new(&format!("equiv_{ext}"));
            let (got, events) = streamed(&input, &[], &paths);
            assert_same(&got, &reference(&input, "dart", 1, &paths));
            assert_eq!(got.jsonl.lines().count(), PACKETS / INTERVAL as usize + 1);
            // The count is known only once the stream has ended.
            let start = events
                .lines()
                .find(|l| l.contains("run start"))
                .expect("start");
            assert!(start.contains("\"engine\":\"dart\"") && !start.contains("packets"));
            let finish = events
                .lines()
                .find(|l| l.contains("run finish"))
                .expect("finish");
            assert!(
                finish.contains(&format!("\"packets\":\"{PACKETS}\"")),
                "{finish}"
            );
            paths.remove();
            remove(&[&input]);
        }
    }

    #[test]
    fn sharded_analyze_matches_the_materialised_reference() {
        let shards = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let input = tmp("equiv_sharded.trace");
        save_file(&input, &campus_packets(120, 4)[..PACKETS]).expect("save");
        let got = run_line(&[
            "analyze",
            &input,
            "--shards",
            "2",
            "--engine",
            "dart-sharded-2",
        ])
        .expect("analyze");
        let paths = Paths::new("equiv_sharded");
        let want = reference(&input, "dart-sharded-2", shards, &paths);
        // No telemetry flags here: the reference's two trailing lines go.
        let want: Vec<&str> = want.stdout.lines().collect();
        assert_eq!(got.lines().collect::<Vec<_>>(), want[..want.len() - 2]);
        remove(&[&input]);
    }

    #[test]
    fn pcap_skips_are_counted_like_the_whole_file_decoders() {
        let packets = &campus_packets(60, 2)[..3000];
        let mut bytes = Vec::new();
        let mut w = PcapWriter::new(&mut bytes, linktype::ETHERNET).expect("header");
        let mut injected = 0u64;
        for (i, p) in packets.iter().enumerate() {
            let frame = synthesize_frame(p);
            if i % 7 == 3 {
                // Not IPv4: an ARP ethertype on an otherwise intact frame.
                let mut arp = frame.clone();
                arp[12..14].copy_from_slice(&[0x08, 0x06]);
                w.write_record(p.ts, &arp).expect("record");
                injected += 1;
            }
            if i % 11 == 5 {
                // Cut inside the TCP header.
                w.write_record(p.ts, &frame[..40]).expect("record");
                injected += 1;
            }
            w.write_record(p.ts, &frame[..frame.len().min(96)])
                .expect("record");
        }
        w.finish().expect("flush");
        let input = tmp("skips.pcap");
        std::fs::write(&input, &bytes).expect("write");

        let classifier = PrefixClassifier::new([INTERNAL]);
        let mut source = PcapSource::new(&bytes[..], classifier).expect("pcap header");
        let mut whole = Vec::new();
        source.read_to_end(&mut whole).expect("read_to_end");
        assert_eq!((whole.as_slice(), source.skipped()), (packets, injected));
        let (loaded, skipped) = load_file(&input, INTERNAL).expect("load_file");
        assert_eq!((loaded.as_slice(), skipped), (packets, injected));
        let report = run_line(&["analyze", &input]).expect("analyze");
        let counts = format!("({} packets, {injected} skipped)", packets.len());
        assert!(report.contains(&counts), "{report}");
        let stats = run_line(&["stats", &input]).expect("stats");
        assert!(stats.contains(&counts), "{stats}");
        remove(&[&input]);
    }

    /// Write `records` as a pcap of link type `link` and return its path.
    fn capture(tag: &str, link: u32, records: &[(u64, Vec<u8>)]) -> String {
        let mut bytes = Vec::new();
        let mut w = PcapWriter::new(&mut bytes, link).expect("header");
        for (ts, frame) in records {
            w.write_record(*ts, frame).expect("record");
        }
        w.finish().expect("flush");
        let path = tmp(tag);
        std::fs::write(&path, &bytes).expect("write");
        path
    }

    /// The report below its `input` line, which names the file.
    fn body(report: &str) -> &str {
        report.split_once('\n').expect("a multi-line report").1
    }

    /// Damage inside a well-framed record is the network's, not the
    /// file's: one frame with an impossible header among N good ones is
    /// N packets and 1 skipped, and the same report as without it.
    #[test]
    fn a_malformed_frame_is_one_skip_not_a_failed_run() {
        let packets = &campus_packets(60, 2)[..3000];
        let clean: Vec<(u64, Vec<u8>)> = packets
            .iter()
            .map(|p| (p.ts, synthesize_frame(p)))
            .collect();
        let mut damaged = clean.clone();
        let mut bad = clean[1500].clone();
        bad.1[14] = 0x65; // IP version 6 under the IPv4 ethertype
        damaged.insert(1500, bad);

        let clean = capture("clean.pcap", linktype::ETHERNET, &clean);
        let damaged = capture("damaged.pcap", linktype::ETHERNET, &damaged);
        let want = run_line(&["analyze", &clean]).expect("analyze clean");
        let got = run_line(&["analyze", &damaged]).expect("analyze damaged");
        assert!(want.contains("(3000 packets, 0 skipped)"), "{want}");
        assert!(got.contains("(3000 packets, 1 skipped)"), "{got}");
        assert_eq!(body(&got), body(&want));
        let (loaded, skipped) = load_file(&damaged, INTERNAL).expect("load_file");
        assert_eq!((loaded.as_slice(), skipped), (packets, 1));
        remove(&[&clean, &damaged]);
    }

    /// The link type picks the parser: a raw-IP capture analyses to the
    /// report of its Ethernet twin, and a link type with no parser is an
    /// error naming it, not a report of zero packets.
    #[test]
    fn the_link_type_is_honoured_or_refused() {
        let packets = &campus_packets(60, 2)[..3000];
        let frames: Vec<(u64, Vec<u8>)> = packets
            .iter()
            .map(|p| (p.ts, synthesize_frame(p)))
            .collect();
        let stripped: Vec<(u64, Vec<u8>)> = frames
            .iter()
            .map(|(ts, frame)| (*ts, frame[14..].to_vec()))
            .collect();
        let ethernet = capture("twin_eth.pcap", linktype::ETHERNET, &frames);
        let raw = capture("twin_raw.pcap", linktype::RAW, &stripped);
        let cooked = capture("twin_sll.pcap", 113, &frames);

        let want = run_line(&["analyze", &ethernet]).expect("analyze ethernet");
        let got = run_line(&["analyze", &raw]).expect("analyze raw ip");
        assert!(got.contains("(3000 packets, 0 skipped)"), "{got}");
        assert_eq!(body(&got), body(&want));
        for command in ["analyze", "stats"] {
            let err = run_line(&[command, &cooked]).expect_err("no parser for link type 113");
            assert!(err.contains("unsupported pcap link type 113"), "{err}");
        }
        remove(&[&ethernet, &raw, &cooked]);
    }

    #[test]
    fn serve_once_reports_what_the_materialised_run_did() {
        use dart_core::sharded::{ShardedConfig, ShardedMonitor};
        let input = tmp("serve_once.trace");
        run_line(&[
            "generate",
            &input,
            "--connections",
            "60",
            "--duration-secs",
            "2",
        ])
        .expect("generate");
        let (packets, _): (Vec<PacketMeta>, u64) = load_file(&input, INTERNAL).expect("load");
        let shards = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let mut sharded = ShardedMonitor::new(ShardedConfig::new(DartConfig::default(), shards));
        let (samples, _) = dart_core::run_monitor_slice(&mut sharded, &packets);
        let report = run_line(&["serve", &input, "--listen", "127.0.0.1:0"]).expect("serve");
        assert_eq!(field(&report, "packets"), packets.len() as u64, "{report}");
        assert_eq!(field(&report, "samples"), samples.len() as u64, "{report}");
        remove(&[&input]);
    }

    /// A torn tail or a bad record mid-file: an error naming the file, no
    /// report, and none of the four output files left behind.
    #[test]
    fn a_damaged_input_is_an_error_and_leaves_no_partial_output() {
        let packets = &campus_packets(120, 4)[..PACKETS];
        let mut torn = dart_packet::trace::to_bytes(packets);
        torn.truncate(torn.len() - 19);
        let mut bad = dart_packet::trace::to_bytes(packets);
        bad[16 + 2000 * dart_packet::trace::RECORD_LEN + 33] = 0xFF;
        for (tag, bytes, what) in [
            ("torn", torn, "truncated record"),
            ("bad", bad, "direction"),
        ] {
            let input = tmp(&format!("{tag}.trace"));
            std::fs::write(&input, bytes).expect("write");
            let paths = Paths::new(tag);
            let mut line = vec!["analyze", input.as_str()];
            line.extend(paths.flags());
            let err = run_line(&line).expect_err("damaged input");
            assert!(
                err.starts_with(&format!("{input}: ")) && err.contains(what),
                "{err}"
            );
            for path in [&paths.csv, &paths.jsonl, &paths.prom, &paths.events] {
                assert!(!std::path::Path::new(path).exists(), "{path} left behind");
            }
            for command in ["stats", "detect"] {
                let err = run_line(&[command, &input]).expect_err("damaged input");
                assert!(err.starts_with(&format!("{input}: ")), "{command}: {err}");
            }
            remove(&[&input]);
        }
    }
}
