//! The accuracy-vs-memory frontier across flow-state backends, written to
//! `BENCH_memory_frontier.json`: every backend replayed at the *same* SRAM
//! budget while the concurrent flow population scales in multiples of a
//! base load, with per-point throughput (batch path), oracle recall
//! (sample yield), and p50/p99 relative RTT error against the testkit
//! oracle's valid set.
//!
//! The question the sweep answers is the tentpole's: at a fixed SRAM
//! budget, how far past the exact tables' designed population can the
//! sketch (recency-aged) and precision (admission-gated) backends keep
//! monitoring? A backend "sustains" a population multiple while its
//! recall holds within 5% of the exact backend's recall at the base
//! population (the design point standing in for the paper's 1.38M flows);
//! the `frontier` block reports each backend's largest sustained multiple.
//!
//! Every backend is swept at one SRAM budget: what `dart_core::program`
//! prices the exact tables at on Tofino 1 with [`PT_SLOTS`] PT slots and
//! 8× as many RT slots. `backend_sweep` gives each other backend the
//! largest tables, priced the same way, that this budget buys. The traffic
//! is campus traffic with [`MEAN_LOSS`] per-direction loss. Flags (all
//! optional):
//!
//! * `--multiples 1,3,10,30,100` — flow-population multiples (default);
//! * `--base-conns N` — base connection count (default 192);
//! * `--duration-secs N` — connection-arrival window (default 4: a churny
//!   window long enough that exact slots leak to lossy-tail corpses);
//! * `--iters N` — timed replays per row, best-of reported (default 2);
//! * `--out PATH` — output path (default `BENCH_memory_frontier.json`).
//!
//! Every row replays through the batch pipeline at the drivers' block
//! size (1024, `DEFAULT_BLOCK_PKTS`), so samples/sec here is directly
//! comparable to the ledger's `core.engine.*.batch_ns_per_pkt` rows;
//! split-invariance of all backends is pinned by
//! `tests/backend_conformance.rs`.

use dart_core::{
    program, run_monitor_slice, Backend, DartConfig, DartEngine, PtMode, RtMode, RttSample,
};
use dart_packet::{FlowKey, PacketMeta, SECOND};
use dart_sim::scenario::{campus, CampusConfig};
use dart_switch::TargetProfile;
use dart_testkit::{backend_sweep, run_oracle, OracleConfig, OracleReport};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Batch block size: what the driver loop feeds.
const BLOCK: usize = dart_core::DEFAULT_BLOCK_PKTS;

/// The backends swept, in row order.
const BACKENDS: [Backend; 3] = [Backend::Exact, Backend::Sketch, Backend::Precision];

/// PT slots of the exact tables whose priced program is every backend's
/// SRAM budget (the RT gets 8× as many).
const PT_SLOTS: usize = 512;

/// Mean per-direction loss probability of the generated traffic.
const MEAN_LOSS: f64 = 0.02;

/// The sustain floor is this fraction of the exact backend's base-load
/// recall: "sustaining" a population multiple means still delivering
/// (sound, zero-median-error) coverage within 5% of what the exact tables
/// deliver at the population they were provisioned for.
const SUSTAIN_FRAC: f64 = 0.95;

struct Row {
    backend: Backend,
    multiple: usize,
    conns: usize,
    packets: usize,
    elapsed_secs: f64,
    pkts_per_sec: f64,
    samples_per_sec: f64,
    samples: usize,
    oracle_valid: u64,
    valid_matched: u64,
    recall: f64,
    /// Relative RTT error of emitted samples whose `(flow, eack)` the
    /// oracle also sampled — p50/p99 over `matched_pairs` pairs.
    rel_err_p50: f64,
    rel_err_p99: f64,
    matched_pairs: usize,
    sketch_overwritten: u64,
    recirc_admission_denied: u64,
}

struct Args {
    multiples: Vec<usize>,
    base_conns: usize,
    duration_secs: u64,
    iters: usize,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut multiples: Vec<usize> = vec![1, 3, 10, 30, 100];
    let mut base_conns = 192usize;
    let mut duration_secs = 4u64;
    let mut iters = 2usize;
    let mut out = "BENCH_memory_frontier.json".to_string();
    let mut i = 0;
    while i < args.len() {
        let need_value = |i: usize| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("flag {} needs a value", args[i]))
        };
        match args[i].as_str() {
            "--multiples" => {
                let v = need_value(i)?;
                let list: Result<Vec<usize>, _> =
                    v.split(',').map(|s| s.trim().parse::<usize>()).collect();
                multiples = list.map_err(|_| format!("--multiples: cannot parse {v:?}"))?;
                if multiples.is_empty() || multiples.contains(&0) {
                    return Err("--multiples: must be ≥ 1".to_string());
                }
                i += 2;
            }
            "--base-conns" => {
                base_conns = need_value(i)?
                    .parse()
                    .map_err(|_| "--base-conns: cannot parse".to_string())?;
                if base_conns == 0 {
                    return Err("--base-conns: must be ≥ 1".to_string());
                }
                i += 2;
            }
            "--duration-secs" => {
                duration_secs = need_value(i)?
                    .parse()
                    .map_err(|_| "--duration-secs: cannot parse".to_string())?;
                if duration_secs == 0 {
                    return Err("--duration-secs: must be ≥ 1".to_string());
                }
                i += 2;
            }
            "--iters" => {
                iters = need_value(i)?
                    .parse()
                    .map_err(|_| "--iters: cannot parse".to_string())?;
                i += 2;
            }
            "--out" => {
                out = need_value(i)?;
                i += 2;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    multiples.sort_unstable();
    multiples.dedup();
    Ok(Args {
        multiples,
        base_conns,
        duration_secs,
        iters: iters.max(1),
        out,
    })
}

/// Relative RTT error per emitted sample whose `(flow, eack)` the oracle
/// sampled too. Exact-class samples contribute 0; ambiguous matches (the
/// sound-but-excluded kind pressure produces) contribute their deviation.
fn rel_errors(valid: &[RttSample], emitted: &[RttSample]) -> Vec<f64> {
    let truth: HashMap<(FlowKey, u32), u64> = valid
        .iter()
        .map(|s| ((s.flow, s.eack.raw()), s.rtt))
        .collect();
    let mut errs: Vec<f64> = emitted
        .iter()
        .filter_map(|s| {
            truth.get(&(s.flow, s.eack.raw())).map(|&t| {
                if t == 0 {
                    0.0
                } else {
                    (s.rtt as f64 - t as f64).abs() / t as f64
                }
            })
        })
        .collect();
    errs.sort_unstable_by(|a, b| a.total_cmp(b));
    errs
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn table_slots(cfg: &DartConfig) -> (usize, usize) {
    let rt = match cfg.rt {
        RtMode::Unlimited => 0,
        RtMode::Constrained { slots } | RtMode::Sketch { slots, .. } => slots,
    };
    let pt = match cfg.pt {
        PtMode::Unlimited => 0,
        PtMode::Constrained { slots, .. } | PtMode::Sketch { slots, .. } => slots,
    };
    (rt, pt)
}

/// `cmd args...` stdout (trimmed), or `"unknown"`: provenance fields must
/// never fail the benchmark.
fn provenance(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn measure(
    cfg: DartConfig,
    backend: Backend,
    multiple: usize,
    conns: usize,
    pkts: &[PacketMeta],
    oracle: &OracleReport,
    iters: usize,
) -> Row {
    let (samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), pkts);
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        let (s, _) = run_monitor_slice(&mut DartEngine::new(cfg), pkts);
        let elapsed = start.elapsed().as_secs_f64();
        assert_eq!(s.len(), samples.len(), "nondeterministic sample count");
        best = best.min(elapsed);
    }
    let card = oracle.score(&samples);
    assert_eq!(
        card.impossible, 0,
        "{backend:?} fabricated samples at multiple {multiple}"
    );
    let errs = rel_errors(&oracle.valid, &samples);
    Row {
        backend,
        multiple,
        conns,
        packets: pkts.len(),
        elapsed_secs: best,
        pkts_per_sec: pkts.len() as f64 / best,
        samples_per_sec: samples.len() as f64 / best,
        samples: samples.len(),
        oracle_valid: card.valid_total,
        valid_matched: card.valid_matched,
        recall: card.recall(),
        rel_err_p50: percentile(&errs, 0.50),
        rel_err_p99: percentile(&errs, 0.99),
        matched_pairs: errs.len(),
        sketch_overwritten: stats.sketch_overwritten,
        recirc_admission_denied: stats.recirc_admission_denied,
    }
}

/// Largest multiple at which `rows` (one backend, ascending multiples)
/// holds recall ≥ `floor`. Returns 0 when even the first multiple misses
/// the floor.
fn max_sustained(rows: &[&Row], floor: f64) -> usize {
    rows.iter()
        .take_while(|r| r.recall >= floor)
        .last()
        .map_or(0, |r| r.multiple)
}

fn main() {
    let Args {
        multiples,
        base_conns,
        duration_secs,
        iters,
        out: out_path,
    } = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("memory_frontier: {e}");
            std::process::exit(2);
        }
    };

    let profile = TargetProfile::tofino1();
    let price = |cfg: &DartConfig| {
        program(cfg, &profile)
            .expect("sweep configs are constrained")
            .sram_bits()
    };
    let configs: Vec<(Backend, DartConfig)> = BACKENDS
        .iter()
        .map(|&b| (b, backend_sweep(&profile, &[PT_SLOTS], b)[0]))
        .collect();
    let budget_bits = price(&configs[0].1);
    eprintln!(
        "SRAM budget: {budget_bits} bits, the exact program at RT {} / PT {PT_SLOTS} on {}:",
        8 * PT_SLOTS,
        profile.name
    );
    for (b, cfg) in &configs {
        let (rt, pt) = table_slots(cfg);
        eprintln!(
            "  {:<9} rt={rt} slots, pt={pt} slots, {} bits",
            b,
            price(cfg)
        );
    }

    let mut rows: Vec<Row> = Vec::new();
    for &m in &multiples {
        let conns = base_conns * m;
        // Arrivals spread over a multi-second window: continuous
        // monitoring means churn, and churn is where the backends differ —
        // exact slots leak to flows that ended with unacked bytes (their
        // ranges never collapse), while the sketch recency-ages those
        // corpses out.
        let pkts = campus(CampusConfig {
            connections: conns,
            duration: duration_secs * SECOND,
            seed: 0xF40_0000 + m as u64,
            mean_loss: MEAN_LOSS,
            reorder: 0.01,
            ..CampusConfig::default()
        })
        .packets;
        // All sweep configs share the default role policies, so one oracle
        // run serves every backend at this population.
        for (_, cfg) in &configs {
            assert_eq!(cfg.syn_policy, OracleConfig::default().syn_policy);
            assert_eq!(cfg.leg, OracleConfig::default().leg);
        }
        let oracle = run_oracle(OracleConfig::default(), &pkts);
        eprintln!(
            "multiple {m}x: {conns} conns, {} packets, {} oracle-valid samples",
            pkts.len(),
            oracle.valid_count()
        );
        for &(backend, cfg) in &configs {
            let row = measure(cfg, backend, m, conns, &pkts, &oracle, iters);
            eprintln!(
                "  {:<9} {:>10.0} pkts/s   recall {:>6.3}   err p50/p99 {:.4}/{:.4}   ({} samples)",
                backend,
                row.pkts_per_sec,
                row.recall,
                row.rel_err_p50,
                row.rel_err_p99,
                row.samples,
            );
            rows.push(row);
        }
    }

    // --- Frontier summary ------------------------------------------------
    // The floor is anchored at the exact backend's recall at the base
    // population (the stand-in for the paper's 1.38M-flow design point):
    // a backend sustains a multiple while it still delivers that quality
    // (less 5%).
    let per_backend: Vec<(Backend, Vec<&Row>)> = BACKENDS
        .iter()
        .map(|&b| (b, rows.iter().filter(|r| r.backend == b).collect()))
        .collect();
    let anchor = rows
        .iter()
        .find(|r| r.backend == Backend::Exact)
        .map_or(0.0, |r| r.recall);
    let floor = SUSTAIN_FRAC * anchor;
    let sustained: Vec<(Backend, usize)> = per_backend
        .iter()
        .map(|(b, rs)| (*b, max_sustained(rs, floor)))
        .collect();
    eprintln!(
        "sustain floor: recall ≥ {floor:.3} ({SUSTAIN_FRAC} x exact base recall {anchor:.3})"
    );
    for &(b, max_m) in &sustained {
        eprintln!("{:<9} sustains through {max_m}x", b);
    }
    let frontier_crossed = sustained
        .iter()
        .any(|&(b, max_m)| b != Backend::Exact && max_m >= 10);
    if frontier_crossed {
        eprintln!(
            "frontier: a non-exact backend sustains ≥10x the exact tables' \
             designed flow population at equal SRAM"
        );
    }

    let git_rev = provenance("git", &["describe", "--always", "--dirty", "--abbrev=12"]);
    let rustc = provenance("rustc", &["--version"]);

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"scenario\": \"campus\",").unwrap();
    writeln!(json, "  \"profile\": \"{}\",", profile.name).unwrap();
    writeln!(
        json,
        "  \"budget_geometry\": {{\"rt_slots\": {}, \"pt_slots\": {PT_SLOTS}}},",
        8 * PT_SLOTS
    )
    .unwrap();
    writeln!(json, "  \"sram_budget_bits\": {budget_bits},").unwrap();
    writeln!(json, "  \"base_conns\": {base_conns},").unwrap();
    writeln!(json, "  \"duration_secs\": {duration_secs},").unwrap();
    writeln!(json, "  \"mean_loss\": {MEAN_LOSS},").unwrap();
    writeln!(json, "  \"batch_size\": {BLOCK},").unwrap();
    writeln!(json, "  \"iters\": {iters},").unwrap();
    writeln!(json, "  \"git_rev\": \"{git_rev}\",").unwrap();
    writeln!(json, "  \"rustc\": \"{rustc}\",").unwrap();
    writeln!(
        json,
        "  \"note\": \"equal SRAM budget per backend: sram_bits is the whole data-plane \
         program dart_core::program builds for the row's config, as dart_switch::estimate \
         charges it (register bits plus 20% overhead, the fixed Dart tables included), \
         and the budget is the exact backend's at budget_geometry; recall = fraction of the \
         oracle's valid sample set recovered; rel_err percentiles are over \
         emitted samples whose (flow, eack) the oracle also sampled (0 = \
         every matched sample has the oracle's RTT); a multiple is \
         sustained while recall >= {SUSTAIN_FRAC} x the exact backend's \
         base-load recall; every row asserted free of oracle-impossible \
         samples\","
    )
    .unwrap();
    writeln!(json, "  \"tables\": [").unwrap();
    for (i, (b, cfg)) in configs.iter().enumerate() {
        let comma = if i + 1 < configs.len() { "," } else { "" };
        let (rt, pt) = table_slots(cfg);
        writeln!(
            json,
            "    {{\"backend\": \"{}\", \"rt_slots\": {rt}, \"pt_slots\": {pt}, \
             \"sram_bits\": {}}}{comma}",
            b,
            price(cfg)
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"results\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"backend\": \"{}\", \"multiple\": {}, \"conns\": {}, \
             \"packets\": {}, \"elapsed_secs\": {:.6}, \"pkts_per_sec\": {:.1}, \
             \"samples_per_sec\": {:.1}, \"samples\": {}, \"oracle_valid\": {}, \
             \"valid_matched\": {}, \"recall\": {:.6}, \"rel_err_p50\": {:.6}, \
             \"rel_err_p99\": {:.6}, \"matched_pairs\": {}, \
             \"sketch_overwritten\": {}, \"recirc_admission_denied\": {}}}{comma}",
            r.backend,
            r.multiple,
            r.conns,
            r.packets,
            r.elapsed_secs,
            r.pkts_per_sec,
            r.samples_per_sec,
            r.samples,
            r.oracle_valid,
            r.valid_matched,
            r.recall,
            r.rel_err_p50,
            r.rel_err_p99,
            r.matched_pairs,
            r.sketch_overwritten,
            r.recirc_admission_denied,
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"frontier\": {{").unwrap();
    writeln!(json, "    \"sustain_fraction\": {SUSTAIN_FRAC},").unwrap();
    writeln!(json, "    \"exact_base_recall\": {anchor:.6},").unwrap();
    writeln!(json, "    \"recall_floor\": {floor:.6},").unwrap();
    writeln!(
        json,
        "    \"nonexact_sustains_10x_base_population\": {frontier_crossed},"
    )
    .unwrap();
    writeln!(json, "    \"backends\": [").unwrap();
    for (i, &(b, max_m)) in sustained.iter().enumerate() {
        let comma = if i + 1 < sustained.len() { "," } else { "" };
        writeln!(
            json,
            "      {{\"backend\": \"{}\", \"max_sustained_multiple\": {max_m}}}{comma}",
            b
        )
        .unwrap();
    }
    writeln!(json, "    ]").unwrap();
    writeln!(json, "  }}").unwrap();
    writeln!(json, "}}").unwrap();

    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("wrote {out_path}"),
        Err(e) => {
            eprintln!("memory_frontier: write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
