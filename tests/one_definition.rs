//! One definition per concept: the names the simplicity passes deleted stay
//! deleted (DESIGN.md §2, §5c, §5d).
//!
//! Each [`Ban`] is data: where to look, the line patterns that mean a
//! deleted path is back, the files still allowed to match, and what to do
//! instead. Each [`Count`] pins how many lines of one file define a thing
//! that must exist exactly so often. A failure lists every offending line.
//!
//! A pattern is a literal line fragment with four operators: a leading `^`
//! anchors it to the start of the line, a trailing `$` to the end, `.*`
//! matches any run of characters, and a trailing `\b` requires that no
//! word character follows the match. A list of patterns is their
//! alternation. Everything else is literal — `(`, `[` and `.` included.
//!
//! This file holds the patterns themselves, so it is never scanned.
//!
//! ```text
//! cargo test -p dart --test one_definition
//! ```

use std::fs;
use std::path::{Path, PathBuf};

/// The trees the bans scan.
const SOURCES: &[&str] = &["crates", "src", "tests", "examples"];

/// A line pattern that must not come back outside `allowed`.
struct Ban {
    /// The rule, as the failure names it.
    rule: &'static str,
    /// Files, or directories ending in `/`, walked recursively.
    roots: &'static [&'static str],
    /// Only paths ending in this are read (`""`: every file).
    suffix: &'static str,
    /// A line matching any of these is a finding…
    any: &'static [&'static str],
    /// …unless it also matches one of these.
    except: &'static [&'static str],
    /// Files, or directories ending in `/`, where a finding is allowed.
    allowed: &'static [&'static str],
    /// What to do instead.
    message: &'static str,
}

/// A file in which exactly `lines` lines match one of `any`.
struct Count {
    file: &'static str,
    any: &'static [&'static str],
    lines: usize,
    message: &'static str,
}

const BANS: &[Ban] = &[
    // There is one build (DESIGN.md §5d): instrumentation is attached at
    // run time, never gated at compile time.
    Ban {
        rule: "No telemetry feature gates",
        roots: SOURCES,
        suffix: ".rs",
        any: &["feature = \"telemetry\""],
        except: &[],
        allowed: &[],
        message: "a telemetry cfg gate is back: attach instrumentation at run time instead",
    },
    // The five crates that crates/perf/Cargo.toml names keep an inert
    // `telemetry = []` so that manifest resolves; anything more is the
    // feature coming back.
    Ban {
        rule: "No telemetry feature gates (manifests)",
        roots: &["Cargo.toml", "crates/"],
        suffix: "Cargo.toml",
        any: &["telemetry = [", "^default = .*telemetry"],
        except: &["^telemetry = []$"],
        allowed: &["crates/perf/"],
        message: "a manifest outside crates/perf declares a telemetry feature that is not inert",
    },
    // A packet source writes one pull, `next_chunk` (DESIGN.md §5c); the
    // per-packet `next_packet` is the trait's provided one-packet block.
    Ban {
        rule: "One pull per source",
        roots: SOURCES,
        suffix: ".rs",
        any: &["fn next_packet"],
        except: &[],
        allowed: &["crates/packet/src/source.rs"],
        message: "a source writes its own next_packet: implement next_chunk only",
    },
    // A whole capture is read one way (DESIGN.md §5c): a source's
    // `read_to_end`. `dart-packet` reads and writes traces, `dart-sim`
    // only generates them, and there is no per-record iterator.
    Ban {
        rule: "One way to read a capture",
        roots: SOURCES,
        suffix: ".rs",
        any: &[
            "load_native",
            "load_pcap",
            "dump_pcap",
            "TraceTransform",
            "TracePackets",
            "PcapRecord\\b",
            "PcapRecords\\b",
            "next_record",
            "replay::",
            "mod replay",
        ],
        except: &[],
        allowed: &[],
        message: "a second way to read a capture: use PacketSource::read_to_end and pcap::to_bytes",
    },
    // A monitor has one way in and one way out (DESIGN.md §5c): packets
    // enter through `RttMonitor`, samples and engine events leave through
    // the `SampleSink` — no event side channel, no sharded-only feed, no
    // retained copy of the sharded stream and no second name for a
    // control the trait already has.
    Ban {
        rule: "One way out of a monitor",
        roots: SOURCES,
        suffix: "",
        any: &[
            "set_event_sink",
            "EventSink",
            "SinkLeaked",
            "try_feed",
            "EngineError",
        ],
        except: &[],
        allowed: &[],
        message: "a second way into or out of a monitor: use RttMonitor and SampleSink::on_event",
    },
    Ban {
        rule: "One way out of the sharded runtime",
        roots: SOURCES,
        suffix: ".rs",
        any: &[
            "into_run",
            "ShardedRun",
            "with_packet_hook",
            "ShardedMonitor::with_telemetry",
            "ShardedMonitor::rotate_epoch",
            "ShardedMonitor::checkpoint",
            "ShardedMonitor::restore",
            ".checkpoint(",
            "run_diff_faulted",
            "run_diff_instrumented",
        ],
        except: &[],
        allowed: &[],
        message: "a second way out of the sharded runtime: flush into a sink, read \
                  stats()/per_shard()/failures(), control through RttMonitor, build with new \
                  or spawn, call the one run_diff",
    },
    // The sharded runtime emits while it runs, in drain rounds, and a
    // checkpoint holds state, never output (DESIGN.md §5a, §5j): no
    // switch between keeping every sample until the flush and keeping
    // none, and no codec for samples or events held in a checkpoint.
    Ban {
        rule: "Checkpoints hold state, never output",
        roots: SOURCES,
        suffix: ".rs",
        any: &[
            "keep_samples",
            "with_keep_samples",
            "fn put_sample",
            "fn read_sample",
            "fn put_event",
            "fn read_event",
        ],
        except: &[],
        allowed: &[],
        message: "samples held for the flush or carried in a checkpoint: drain the sharded \
                  monitor into its sink (ShardedMonitor::drain) before checkpointing it",
    },
    // Each measurement rule has one implementation (DESIGN.md §2): the
    // leg→role rule is `Leg::seq_role`/`ack_role`, the handshake rule
    // `SynPolicy::skips`, spin periods are the `spin` engine's and tcptrace
    // runs through `RttMonitor`. The oracle keeps its own role rule on
    // purpose: it is the reference the engines are judged against.
    Ban {
        rule: "One rule per measurement",
        roots: SOURCES,
        suffix: "",
        any: &[
            "fn seq_role",
            "fn ack_role",
            "seq_role_active",
            "ack_role_active",
            "SegListMonitor",
            "SpinObserver",
            "SpinPacket",
            "spin_flow_meta",
            "run_tcptrace",
        ],
        except: &[],
        allowed: &["crates/testkit/src/oracle.rs", "crates/core/src/config.rs"],
        message: "a second copy of a measurement rule: use Leg::seq_role/ack_role, \
                  SynPolicy::skips, the spin engine and TcpTrace through run_monitor_slice",
    },
    // Dart is a plain `RttMonitor` (DESIGN.md §5c): the trait impl is the
    // engine's one packet and control surface, with no inherent method of
    // the same name beside it.
    Ban {
        rule: "DartEngine is a plain RttMonitor",
        roots: &["crates/core/src/engine.rs", "crates/core/src/engine/"],
        suffix: ".rs",
        any: &[
            "pub fn process\\b",
            "pub fn process_batch\\b",
            "pub fn flush\\b",
            "pub fn rotate_epoch\\b",
            "pub fn snapshot\\b",
            "pub fn restore\\b",
            "pub fn stats\\b",
        ],
        except: &[],
        allowed: &[],
        message: "a second façade on DartEngine: put the body in its RttMonitor impl",
    },
    // A whole trace runs through `run_monitor_slice`; the one-packet
    // extreme is `dart_testkit::run_per_packet`. `new` is how an engine
    // gets the recirculate-everything filter.
    Ban {
        rule: "One whole-trace runner",
        roots: SOURCES,
        suffix: ".rs",
        any: &["run_trace\\b", "RecirculateAll"],
        except: &[],
        allowed: &["crates/core/src/engine.rs", "crates/core/src/engine/"],
        message: "a second whole-trace runner: use run_monitor_slice(&mut DartEngine::new(cfg), \
                  pkts), or dart_testkit::run_per_packet for one on_packet call per packet",
    },
    // The Dart data-plane program has one description (DESIGN.md §5h):
    // `dart_core::program` of the config that runs, priced by
    // `dart_switch::estimate` and placed along the program's own chain.
    Ban {
        rule: "One cost model",
        roots: SOURCES,
        suffix: ".rs",
        any: &[
            "DartProgramParams",
            "dart_program\\b",
            "dart_dependencies",
            "PT_RECORD_BITS",
            "PT_SKETCH_CELL_BITS",
            "register_sweep\\b",
        ],
        except: &[],
        allowed: &[],
        message: "a second description of what the Dart program costs: price \
                  dart_core::program(cfg, target) with dart_switch::estimate, sweep with \
                  backend_sweep",
    },
    // A register array is its word array or its occupancy-ranked arenas,
    // chosen by size at construction (DESIGN.md §5f); no hashed form and no
    // turn between forms.
    Ban {
        rule: "One register representation",
        roots: &["crates/switch/src/"],
        suffix: ".rs",
        any: &[
            "HashMap",
            "SlotHasher",
            "SEGMENT_MUL",
            "densify",
            "DENSE_SHARE",
        ],
        except: &[],
        allowed: &[],
        message: "a second sparse register form: keep occupied records in the \
                  occupancy-ranked arenas of RegisterArray",
    },
];

const COUNTS: &[Count] = &[
    Count {
        file: "crates/packet/src/source.rs",
        any: &["fn next_packet"],
        lines: 1,
        message: "PacketSource provides exactly one next_packet",
    },
    Count {
        file: "crates/core/src/config.rs",
        any: &["fn seq_role", "fn ack_role"],
        lines: 2,
        message: "Leg defines the leg→role rule once per role",
    },
];

/// This file: it spells every banned pattern out.
const SELF: &str = "tests/one_definition.rs";

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Does `line` match `pattern` (see the module docs for the operators)?
fn matches(line: &str, pattern: &str) -> bool {
    let (start, p) = match pattern.strip_prefix('^') {
        Some(rest) => (true, rest),
        None => (false, pattern),
    };
    let (end, p) = match p.strip_suffix('$') {
        Some(rest) => (true, rest),
        None => (false, p),
    };
    let (word_end, p) = match p.strip_suffix("\\b") {
        Some(rest) => (true, rest),
        None => (false, p),
    };
    let parts: Vec<&str> = p.split(".*").collect();
    let (last, init) = parts.split_last().expect("split yields one part at least");
    // Every part but the last at its leftmost place leaves the most room
    // for the rest.
    let mut at = 0;
    for (i, part) in init.iter().enumerate() {
        let found = if start && i == 0 {
            line.starts_with(part).then_some(0)
        } else {
            line[at..].find(part)
        };
        let Some(k) = found else {
            return false;
        };
        at += k + part.len();
    }
    // The last part may sit at any of its places from `at` on, or only at
    // the start of the line when it is also the first.
    let anchored = start && init.is_empty();
    let fits = |i: usize| {
        let stop = i + last.len();
        (!anchored || i == 0)
            && (!end || stop == line.len())
            && (!word_end || !line[stop..].starts_with(is_word))
    };
    let mut from = at;
    while let Some(k) = line[from..].find(last) {
        let i = from + k;
        if fits(i) {
            return true;
        }
        if anchored || i == line.len() {
            return false;
        }
        from = i + line[i..].chars().next().map_or(0, char::len_utf8);
    }
    false
}

/// Does `path` fall under one of `places` (files, or directories ending
/// in `/`)?
fn under(path: &str, places: &[&str]) -> bool {
    places
        .iter()
        .any(|p| path == *p || (p.ends_with('/') && path.starts_with(p)))
}

/// Every file under `root`, as a repo-relative path with `/` separators.
fn walk(repo: &Path, root: &str, out: &mut Vec<String>) {
    let full = repo.join(root.trim_end_matches('/'));
    let Ok(entries) = fs::read_dir(&full) else {
        if full.is_file() {
            out.push(root.to_string());
        }
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let rel = format!("{}/{name}", root.trim_end_matches('/'));
        if entry.file_type().is_ok_and(|t| t.is_dir()) {
            walk(repo, &rel, out);
        } else {
            out.push(rel);
        }
    }
}

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn lines_of(repo: &Path, file: &str) -> Vec<String> {
    let bytes = fs::read(repo.join(file)).unwrap_or_default();
    String::from_utf8_lossy(&bytes)
        .lines()
        .map(str::to_owned)
        .collect()
}

/// Every line of `ban`'s scope that breaks it, as `path:line: text`.
fn findings(repo: &Path, ban: &Ban) -> Vec<String> {
    let mut files = Vec::new();
    for root in ban.roots {
        walk(repo, root, &mut files);
    }
    files.sort();
    files.dedup();
    let mut found = Vec::new();
    for file in files {
        if file == SELF || !file.ends_with(ban.suffix) || under(&file, ban.allowed) {
            continue;
        }
        for (n, line) in lines_of(repo, &file).iter().enumerate() {
            let hit = ban.any.iter().any(|p| matches(line, p));
            if hit && !ban.except.iter().any(|p| matches(line, p)) {
                found.push(format!("{file}:{}: {line}", n + 1));
            }
        }
    }
    found
}

#[test]
fn no_deleted_definition_is_back() {
    let repo = repo();
    let mut failures = Vec::new();
    for ban in BANS {
        let found = findings(&repo, ban);
        if !found.is_empty() {
            failures.push(format!(
                "{}: {}\n  {}",
                ban.rule,
                ban.message,
                found.join("\n  ")
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn each_counted_definition_exists_exactly_so_often() {
    let repo = repo();
    for count in COUNTS {
        let lines = lines_of(&repo, count.file);
        let n = lines
            .iter()
            .filter(|l| count.any.iter().any(|p| matches(l, p)))
            .count();
        assert_eq!(
            n, count.lines,
            "{}: {} lines of {} match, want {}",
            count.message, n, count.file, count.lines
        );
    }
}

/// The pattern language holds the bans to what `grep -E` would match.
#[test]
fn patterns_match_like_grep() {
    let cases = [
        ("let x = run_trace(cfg, p);", "run_trace\\b", true),
        ("run_trace_skewed(cfg, 1, p)", "run_trace\\b", false),
        (
            "fn run_monitor_matches_run_trace_for_dart()",
            "run_trace\\b",
            false,
        ),
        ("a run_trace_x then run_trace", "run_trace\\b", true),
        ("use x::PcapRecords;", "PcapRecords\\b", true),
        ("PcapRecordsIter", "PcapRecords\\b", false),
        ("telemetry = []", "^telemetry = []$", true),
        (
            "telemetry = [\"dart-core/telemetry\"]",
            "^telemetry = []$",
            false,
        ),
        (
            "default = [\"std\", \"telemetry\"]",
            "^default = .*telemetry",
            true,
        ),
        (
            "# default = [\"telemetry\"]",
            "^default = .*telemetry",
            false,
        ),
        ("self.checkpoint(x)", ".checkpoint(", true),
        ("checkpoint(x)", ".checkpoint(", false),
        ("    pub fn stats(&self)", "pub fn stats\\b", true),
        ("    pub fn stats_row(&self)", "pub fn stats\\b", false),
        ("    pub(crate) fn stats(&self)", "pub fn stats\\b", false),
    ];
    for (line, pattern, want) in cases {
        assert_eq!(matches(line, pattern), want, "{pattern:?} on {line:?}");
    }
    assert!(under("crates/perf/Cargo.toml", &["crates/perf/"]));
    assert!(!under("crates/perfx/Cargo.toml", &["crates/perf/"]));
    assert!(under(
        "crates/core/src/engine.rs",
        &["crates/core/src/engine.rs"]
    ));
}
