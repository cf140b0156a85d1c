//! SYN-flood robustness (paper §3.1): Dart ignores SYN/SYN-ACK packets, so
//! a flood of spoofed handshakes cannot inflate its tables — compare
//! against the `+SYN` policy and the strawman, which both bloat.
//!
//! ```text
//! cargo run --release --example syn_flood
//! ```

use dart::baselines::{Strawman, StrawmanConfig};
use dart::core::{run_monitor_slice, DartConfig, DartEngine, SynPolicy};
use dart::sim::scenario::{syn_flood, SynFloodConfig};

fn main() {
    let cfg = SynFloodConfig {
        syns: 30_000,
        background: 60,
        ..SynFloodConfig::default()
    };
    let trace = syn_flood(cfg);
    let syn_count = trace.packets.iter().filter(|p| p.flags.is_syn()).count();
    println!(
        "flood trace: {} packets, {} SYNs from spoofed sources, {} legit connections\n",
        trace.len(),
        syn_count,
        cfg.background
    );

    // Dart with the deployed -SYN policy: tables stay calm.
    let mut dart = DartEngine::new(DartConfig::default().with_rt(1 << 16).with_pt(1 << 14, 1));
    let (samples, _) = run_monitor_slice(&mut dart, &trace.packets);
    println!("dart (-SYN):");
    println!("  RT entries after flood : {:6}", dart.rt_occupancy());
    println!("  PT entries after flood : {:6}", dart.pt_occupancy());
    println!("  samples from legit flows: {:5}\n", samples.len());

    // The same engine WITH handshake tracking: every spoofed SYN claims
    // Range Tracker and Packet Tracker space.
    let mut naive = DartEngine::new(
        DartConfig::default()
            .with_rt(1 << 16)
            .with_pt(1 << 14, 1)
            .with_syn(SynPolicy::Include),
    );
    let _ = run_monitor_slice(&mut naive, &trace.packets);
    println!("dart (+SYN) — what skipping saves us from:");
    println!("  RT entries after flood : {:6}", naive.rt_occupancy());
    println!("  PT entries after flood : {:6}\n", naive.pt_occupancy());

    // The strawman has no SYN defense at all when configured naively.
    let mut strawman = Strawman::new(StrawmanConfig {
        slots: 1 << 14,
        syn_policy: SynPolicy::Include,
        ..StrawmanConfig::default()
    });
    let _ = run_monitor_slice(&mut strawman, &trace.packets);
    println!("strawman (+SYN):");
    println!("  insertions             : {:6}", strawman.stats().inserted);
    println!(
        "  evicted by collisions  : {:6}  (legit flows' records trampled)",
        strawman.stats().evicted_on_collision
    );

    let blowup = naive.rt_occupancy() as f64 / dart.rt_occupancy().max(1) as f64;
    println!(
        "\nskipping handshakes keeps RT occupancy {blowup:.0}x smaller under this flood,\n\
         while legitimate traffic still yields {} samples",
        samples.len()
    );
}
