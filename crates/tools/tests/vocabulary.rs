//! The metric vocabulary is a contract, not a guide: each surface's
//! Prometheus exposition holds exactly its rows of
//! `dart_core::telemetry::VOCABULARY` — every family, its kind, label keys
//! and HELP text, and nothing else — and DESIGN.md §5d's table is the
//! table rendered. The surfaces run in process, through `dart_tools::run`,
//! as `dartmon` would run them.

use dart_core::telemetry::{Surface, SHARD_COUNTERS, VOCABULARY};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Family name → (kind, the label keys of its series, HELP text).
type Families = BTreeMap<String, (String, BTreeSet<Vec<String>>, String)>;

fn tmp(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("dartmon_vocab_{}_{name}", std::process::id()));
    path.to_str().expect("utf-8 temp path").to_string()
}

fn dartmon(line: &[&str]) -> String {
    let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
    let (cmd, opts) = dart_tools::parse(&args).expect("parse");
    dart_tools::run(cmd, &opts).unwrap_or_else(|e| panic!("dartmon {line:?}: {e}"))
}

/// A small generated trace of this test's own, and its packet count.
fn trace(name: &str) -> (String, u64) {
    let path = tmp(&format!("{name}.trace"));
    let report = dartmon(&[
        "generate",
        &path,
        "--connections",
        "40",
        "--duration-secs",
        "2",
    ]);
    let packets = report
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok());
    (path, packets.expect("packet count in the generate report"))
}

/// What the vocabulary says `surface` exposes.
fn expected(surface: Surface) -> Families {
    let mut out = Families::new();
    for row in VOCABULARY
        .iter()
        .filter(|row| row.surfaces.contains(&surface))
    {
        let labels: Vec<String> = row.labels.iter().map(|l| l.to_string()).collect();
        for (name, help) in row.instances() {
            let kind = row.kind.as_str().to_string();
            out.insert(name, (kind, BTreeSet::from([labels.clone()]), help));
        }
    }
    out
}

/// What an exposition exposes, read from its text.
fn exposed(text: &str) -> Families {
    let mut out = Families::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP text");
            out.entry(name.to_string()).or_default().2 = help.to_string();
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE kind");
            out.entry(name.to_string()).or_default().0 = kind.to_string();
        } else {
            let series = line.rsplit_once(' ').expect("sample value").0;
            let (name, labels) = series.split_once('{').unwrap_or((series, "}"));
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| name.strip_suffix(suffix))
                .filter(|base| out.contains_key(*base))
                .unwrap_or(name);
            let keys = (labels.trim_end_matches('}').split(','))
                .filter_map(|pair| Some(pair.split_once('=')?.0.to_string()))
                .filter(|key| key != "le")
                .collect();
            out.entry(family.to_string()).or_default().1.insert(keys);
        }
    }
    out
}

/// The exposition must be valid and its families exactly the surface's rows.
fn assert_surface(surface: Surface, text: &str) {
    let check = dart_telemetry::check_prometheus(text);
    assert!(
        check.ok(),
        "{surface:?}: invalid exposition: {:?}",
        check.errors
    );
    let (want, got) = (expected(surface), exposed(text));
    let mut drift = String::new();
    for (name, row) in &want {
        match got.get(name) {
            None => writeln!(drift, "missing   {name}"),
            Some(seen) if seen != row => {
                writeln!(drift, "differs   {name}: {seen:?}, table {row:?}")
            }
            Some(_) => Ok(()),
        }
        .expect("write to a String");
    }
    for name in got.keys().filter(|name| !want.contains_key(*name)) {
        writeln!(drift, "not in the table  {name}").expect("write to a String");
    }
    assert!(
        drift.is_empty(),
        "{surface:?} drifted from the vocabulary:\n{drift}"
    );
}

/// `command` on a trace of its own, with `--metrics-prom`; the exposition.
fn prometheus_of(command: &[&str], name: &str) -> String {
    let (trace, _) = trace(name);
    let prom = tmp(&format!("{name}.prom"));
    let mut line = vec![command[0], &trace];
    line.extend(&command[1..]);
    line.extend(["--metrics-prom", &prom]);
    dartmon(&line);
    let text = std::fs::read_to_string(&prom).expect("exposition written");
    for f in [&trace, &prom] {
        let _ = std::fs::remove_file(f);
    }
    text
}

#[test]
fn analyze_exposes_the_analyze_rows() {
    assert_surface(Surface::Analyze, &prometheus_of(&["analyze"], "dart"));
}

#[test]
fn a_wrapped_baseline_exposes_the_baseline_rows() {
    let text = prometheus_of(&["analyze", "--engine", "tcptrace"], "tcptrace");
    assert_surface(Surface::Baseline, &text);
}

#[test]
fn a_sharded_replay_exposes_the_sharded_rows() {
    // Named rather than `--shards 2`, which a one-core host caps to the
    // serial engine.
    let text = prometheus_of(&["replay", "--engine", "dart-sharded-2"], "sharded");
    assert_surface(Surface::Sharded, &text);
}

fn get(port: u16, path: &str) -> Option<String> {
    let mut s = TcpStream::connect(("127.0.0.1", port)).ok()?;
    write!(s, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").ok()?;
    let mut raw = String::new();
    s.read_to_string(&mut raw).ok()?;
    Some(raw.split_once("\r\n\r\n")?.1.to_string())
}

#[test]
fn serve_follow_exposes_the_serve_rows() {
    let (path, packets) = trace("serve");
    // A port the daemon can take: bound once here, then freed for it.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port")
        .port();
    let listen = format!("127.0.0.1:{port}");
    let input = path.clone();
    let serve = std::thread::spawn(move || {
        dartmon(&["serve", &input, "--mode", "follow", "--listen", &listen])
    });
    // Every family is registered before the first packet is fed: scrape
    // once the shards have accounted for the whole trace.
    let seen = |metrics: &str| -> u64 {
        let families = ["packets", "monitor_miss"].map(|c| SHARD_COUNTERS.name_for(c) + "{");
        (metrics.lines())
            .filter(|l| families.iter().any(|f| l.starts_with(f.as_str())))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum()
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    let metrics = loop {
        match get(port, "/metrics") {
            Some(m) if seen(&m) == packets || Instant::now() > deadline => break m,
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
        assert!(Instant::now() < deadline, "no scrape from the daemon");
    };
    dart_tools::shutdown::request();
    let report = serve.join().expect("serve");
    while dart_tools::shutdown::take() {}
    let _ = std::fs::remove_file(&path);
    assert!(report.contains("shutdown request"), "{report}");
    assert_surface(Surface::Serve, &metrics);
}

#[test]
fn every_row_is_exposed_somewhere() {
    for row in VOCABULARY {
        assert!(!row.surfaces.is_empty(), "{} is on no surface", row.name);
    }
}

/// DESIGN.md §5d's vocabulary table, as the region between its markers
/// must read.
fn render() -> String {
    let mut out =
        String::from("| family | kind | labels | surfaces | HELP |\n|---|---|---|---|---|\n");
    for row in VOCABULARY {
        let labels: Vec<String> = row.labels.iter().map(|l| format!("`{l}`")).collect();
        let surfaces: Vec<String> = (row.surfaces.iter())
            .map(|s| format!("{s:?}").to_lowercase())
            .collect();
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} |",
            row.name,
            row.kind.as_str(),
            if labels.is_empty() {
                "—".to_string()
            } else {
                labels.join(", ")
            },
            surfaces.join(", "),
            row.help
        );
    }
    let counters: Vec<String> = (dart_core::EngineStats::default().metric_rows().iter())
        .map(|(c, _)| format!("`{c}`"))
        .collect();
    let _ = write!(
        out,
        "\n`{{counter}}` is each `EngineStats` counter, one family apiece: {}.\n",
        counters.join(", ")
    );
    out
}

#[test]
fn design_md_renders_the_vocabulary() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let text = std::fs::read_to_string(path).expect("DESIGN.md");
    let begin = "<!-- BEGIN GENERATED: metric vocabulary (crates/tools/tests/vocabulary.rs) -->\n";
    let end = "<!-- END GENERATED: metric vocabulary -->";
    let region = text
        .split_once(begin)
        .and_then(|(_, rest)| rest.split_once(end))
        .map(|(region, _)| region)
        .expect("DESIGN.md §5d has the generated vocabulary markers");
    let want = render();
    assert!(
        region == want,
        "DESIGN.md §5d's vocabulary table is stale; between its markers it must read:\n\n{want}"
    );
}
