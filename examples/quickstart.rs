//! Quickstart: feed a small simulated workload through Dart and print the
//! RTT samples it collects, alongside the engine's internal accounting.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dart::core::{run_monitor_slice, DartConfig, DartEngine, RttMonitor};
use dart::sim::scenario::{campus, CampusConfig};

fn main() {
    // 1. Synthesize a tiny campus-style trace: 60 connections over 2 s of
    //    traffic through a monitored gateway.
    let trace = campus(CampusConfig {
        connections: 60,
        duration: 2 * dart::packet::SECOND,
        ..CampusConfig::default()
    });
    println!(
        "trace: {} packets from {} connections ({} with live servers)",
        trace.len(),
        trace.conns.len(),
        trace.conns.iter().filter(|c| c.complete).count()
    );

    // 2. Run Dart in its hardware-shaped default configuration: -SYN,
    //    external leg, constrained Range/Packet Tracker tables, one
    //    recirculation allowed.
    let cfg = DartConfig::default().with_rt(1 << 12).with_pt(1 << 10, 1);
    let mut dart = DartEngine::new(cfg);
    let (samples, _) = run_monitor_slice(&mut dart, &trace.packets);

    // 3. Look at what came out.
    println!("\nfirst samples:");
    for s in samples.iter().take(8) {
        println!("  {} -> rtt {:8.3} ms (ack {})", s.flow, s.rtt_ms(), s.eack);
    }

    let stats = dart.stats();
    println!("\nengine accounting:");
    println!("  packets processed        {}", stats.packets);
    println!("  SYN/SYN-ACK skipped      {}", stats.syn_skipped);
    println!("  data packets tracked     {}", stats.seq_tracked);
    println!("  retransmissions refused  {}", stats.seq_retransmission);
    println!("  duplicate ACK collapses  {}", stats.ack_duplicate);
    println!("  optimistic ACKs ignored  {}", stats.ack_optimistic);
    println!("  PT displacements         {}", stats.pt_displaced);
    println!("  recirculations           {}", stats.recirc_issued);
    println!("  RTT samples              {}", stats.samples);
    println!(
        "  recirculations / packet  {:.4}",
        stats.recirc_per_packet()
    );

    // 4. Sanity: in a clean simulation every sample is at least the flow's
    //    base external RTT.
    let mut ok = 0;
    for s in &samples {
        if let Some(conn) = trace.conns.iter().find(|c| c.flow == s.flow) {
            if s.rtt as f64 >= conn.base_ext_rtt as f64 * 0.9 {
                ok += 1;
            }
        }
    }
    println!(
        "\n{} of {} samples within 10% of (or above) their path's propagation floor",
        ok,
        samples.len()
    );
}
