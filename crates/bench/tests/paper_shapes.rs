//! The paper's claims, held on the series `dart_bench::figures` produces at
//! `TraceScale::Small` — the same functions the bins print and `all` writes
//! into EXPERIMENTS.md, so the document and this gate cannot drift apart.
//!
//! The bands are around what this tree reads at that scale (quoted per
//! test, next to the paper's number); a band is widened only with the
//! mechanism written beside it. Where the reproduction is known to diverge
//! from the paper (Fig 12 at 2–3 stages) the divergence itself is asserted,
//! so that it cannot go away, or grow, unnoticed.
//!
//! What this does not hold: absolute error percentiles (at 50 k packets a
//! p99 is a handful of samples), the Default-scale numbers EXPERIMENTS.md
//! prints (CI regenerates and diffs those), and the two Fig 12 workload
//! divergences ROADMAP's "Independent hash units" item is to settle.

use dart_bench::figures::{self, Sweep, SweepAxis};
use dart_bench::{standard_trace, TraceScale};
use dart_packet::SECOND;
use dart_sim::scenario::GeneratedTrace;
use std::sync::OnceLock;

const SCALE: TraceScale = TraceScale::Small;

fn trace() -> &'static GeneratedTrace {
    static TRACE: OnceLock<GeneratedTrace> = OnceLock::new();
    TRACE.get_or_init(|| standard_trace(SCALE))
}

/// `(fraction collected in percent, recirculations per packet)` per row.
fn series(axis: SweepAxis) -> (Sweep, Vec<f64>, Vec<f64>) {
    let sweep = figures::sweep(axis, SCALE, trace());
    let fraction = sweep
        .rows
        .iter()
        .map(|(_, r)| r.fraction_collected * 100.0)
        .collect();
    let recirc = sweep
        .rows
        .iter()
        .map(|(_, r)| r.recirc_per_packet)
        .collect();
    (sweep, fraction, recirc)
}

/// `xs[i + 1] >= xs[i] - eps` throughout.
fn non_decreasing(xs: &[f64], eps: f64) -> bool {
    xs.windows(2).all(|w| w[1] >= w[0] - eps)
}

fn non_increasing(xs: &[f64], eps: f64) -> bool {
    xs.windows(2).all(|w| w[1] <= w[0] + eps)
}

#[test]
fn table1_both_builds_fit() {
    let t = figures::table1();
    assert!(t.tofino1.fits(), "{t}");
    assert!(t.tofino2.fits(), "{t}");
}

/// Paper: > 80 % of wired internal-leg RTTs under 1 ms, < 40 % of wireless
/// ones, > 20 % of wireless above 20 ms. Here: 93.7 / 2.9 / 38.9 %.
#[test]
fn fig6_wireless_is_the_slower_subnet() {
    let f = figures::fig6(SCALE, trace());
    assert!(f.wired_below_1ms > 0.80, "{f}");
    assert!(f.wireless_below_1ms < 0.40, "{f}");
    assert!(f.wireless_above_20ms > 0.20, "{f}");
}

/// Paper: confirmed 2.58 s and 63 packets after the attack takes effect.
/// Here: 2.46 s, 64 packets.
#[test]
fn fig8_interception_is_confirmed_soon_after_it_starts_and_not_before() {
    let f = figures::fig8();
    let after = f
        .time_to_confirm()
        .unwrap_or_else(|| panic!("never confirmed, or confirmed before the attack:\n{f}"));
    assert!(after < 10 * SECOND, "{f}");
    assert!((40..=90).contains(&f.packets_to_confirm), "{f}");
    let (suspected_at, _) = f.suspected.expect("suspected before confirmed");
    let (confirmed_at, _) = f.confirmed.unwrap();
    assert!(
        f.attack.attack_at <= suspected_at && suspected_at <= confirmed_at,
        "{f}"
    );
}

/// Paper: Dart collects 82.6 % (+SYN) and 83.3 % (−SYN) of tcptrace's
/// samples. Here: 84.8 % and 84.1 %.
#[test]
fn fig9_dart_collects_most_but_not_all_of_tcptrace() {
    let f = figures::fig9(trace());
    assert!(
        f.dart_plus_syn.samples <= f.tcptrace_plus_syn.samples,
        "{f}"
    );
    assert!(
        f.dart_minus_syn.samples <= f.tcptrace_minus_syn.samples,
        "{f}"
    );
    let (plus, minus) = f.ratios();
    assert!((0.75..=0.92).contains(&plus), "{f}");
    assert!((0.75..=0.92).contains(&minus), "{f}");
}

/// Paper: 72.5 % of connections never complete a handshake, and skipping
/// SYNs foregoes 4.2 % of samples. Here: 72.0 % and 5.3 %.
#[test]
fn fig10_skipping_handshakes_saves_much_and_costs_little() {
    let f = figures::fig10(trace());
    assert!((0.65..=0.80).contains(&f.incomplete_fraction()), "{f}");
    assert!(f.foregone() > 0, "{f}");
    assert!(f.foregone_fraction() <= 0.10, "{f}");
}

/// Paper: the fraction collected rises with PT size, past 90 % at modest
/// sizes and to ~100 %, while recirculations per packet fall. Here:
/// 62.9 → 99.6 % (92.6 % at the fourth point), 0.015 → 0.007.
#[test]
fn fig11_a_larger_pt_collects_more_and_recirculates_less() {
    let (sweep, fraction, recirc) = series(SweepAxis::PtSize);
    assert!(non_decreasing(&fraction, 0.5), "{sweep}");
    assert!(fraction[3] >= 90.0, "{sweep}");
    assert!(*fraction.last().unwrap() >= 99.0, "{sweep}");
    assert!(non_increasing(&recirc, 0.0), "{sweep}");
}

/// Paper: splitting a fixed PT over more stages loses samples and raises
/// the recirculation rate, from 2 stages on. Here: 84.9, 91.8, 91.9, 83.8,
/// 83.6, 80.8, 79.1, 70.6 %; 0.014 → 0.020.
#[test]
fn fig12_many_stages_degrade_at_one_recirculation() {
    let (sweep, fraction, recirc) = series(SweepAxis::Stages);
    for stages in 4..=8 {
        assert!(fraction[stages - 1] < fraction[0], "{sweep}");
    }
    assert!(fraction[7] < fraction[2], "{sweep}");
    assert!(non_decreasing(&recirc, 0.0), "{sweep}");
    // The known divergence (EXPERIMENTS.md "Fig 12, 2 stages"): probing
    // for an empty slot gives 2 and 3 stages an associativity *benefit*
    // before stale squatters dominate; the paper degrades from 2 on. If
    // this stops holding, the divergence note is stale — in either
    // direction — and has to be rewritten, not this line deleted.
    assert!(
        fraction[1] > fraction[0] && fraction[2] > fraction[0],
        "{sweep}"
    );
}

/// Paper: with recirculations allowed the 8-stage PT recovers, and
/// recirculations per packet stay bounded (≤ 0.16). Here: 70.6 → 95.6 %,
/// 0.020 → 0.043.
#[test]
fn fig13_recirculation_recovers_the_eight_stage_pt() {
    let (sweep, fraction, recirc) = series(SweepAxis::Recirc);
    assert!(non_decreasing(&fraction, 0.0), "{sweep}");
    assert!(fraction[7] >= fraction[0] + 15.0, "{sweep}");
    assert!(non_decreasing(&recirc, 0.0), "{sweep}");
    assert!(*recirc.last().unwrap() <= 0.1, "{sweep}");
}
