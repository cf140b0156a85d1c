//! §7's QUIC extension path: when sequence/ACK numbers are hidden, the RFC
//! 9000 latency spin bit still exposes RTTs — but with one sample per round
//! trip at best, and no defense against loss-induced distortion. This
//! example contrasts spin-bit measurement on a QUIC-like flow with Dart on
//! an equivalent TCP flow.
//!
//! ```text
//! cargo run --release --example quic_spin
//! ```

use dart::baselines::{SpinConfig, SpinMonitor};
use dart::core::{run_monitor_slice, DartConfig, DartEngine, EngineStats};
use dart::packet::{Direction, FlowKey, PacketMeta, MILLISECOND, SECOND};
use dart::sim::netsim::{simulate, ConnSpec, Exchange};
use dart::sim::spin::{spin_flow, SpinFlowConfig};

/// The `spin` engine's outbound periods for `flow`, with its run counters.
fn outbound_periods(pkts: &[PacketMeta], flow: FlowKey) -> (Vec<u64>, EngineStats) {
    let mut spin = SpinMonitor::new(SpinConfig::default());
    let (samples, stats) = run_monitor_slice(&mut spin, pkts);
    let periods = (samples.iter())
        .filter(|s| s.flow == flow)
        .map(|s| s.rtt)
        .collect();
    (periods, stats)
}

fn main() {
    let rtt_ms = 21;

    // --- QUIC-like flow: only the spin bit is visible -------------------
    let spin_cfg = SpinFlowConfig {
        duration: 4 * SECOND,
        ..SpinFlowConfig::default() // 0.5 + 10 ms one-way => 21 ms RTT
    };
    let pkts = spin_flow(spin_cfg);
    let (periods, _) = outbound_periods(&pkts, spin_cfg.flow);
    let pkt_count = pkts.iter().filter(|p| p.dir == Direction::Outbound).count();
    println!(
        "QUIC-like flow ({rtt_ms} ms RTT, {} outbound packets):",
        pkt_count
    );
    println!("  spin-bit samples        : {}", periods.len());
    if !periods.is_empty() {
        let avg = periods.iter().sum::<u64>() as f64 / periods.len() as f64 / 1e6;
        println!("  average spin period     : {avg:.2} ms");
    }
    println!(
        "  samples per 1000 packets: {:.1}",
        periods.len() as f64 / pkt_count as f64 * 1000.0
    );

    // --- Same path, TCP: Dart tracks every data packet ------------------
    let flow = FlowKey::from_raw(0x0a08_0001, 50_500, 0x5db8_d822, 443);
    let mut spec = ConnSpec::simple(flow, 0, 1000, 1000);
    spec.exchanges = (0..200)
        .map(|_| Exchange {
            request: 1200,
            response: 1200,
        })
        .collect();
    spec.path.jitter = 0.0;
    spec.path.int_owd = MILLISECOND / 2;
    spec.path.ext_owd = 10 * MILLISECOND;
    let out = simulate(vec![spec], 3);
    let (samples, stats) =
        run_monitor_slice(&mut DartEngine::new(DartConfig::default()), &out.packets);
    let data_pkts = stats.seq_tracked;
    println!("\nTCP flow on the same path, via Dart:");
    println!("  RTT samples             : {}", samples.len());
    if !samples.is_empty() {
        let avg = samples.iter().map(|s| s.rtt).sum::<u64>() as f64 / samples.len() as f64 / 1e6;
        println!("  average RTT             : {avg:.2} ms");
    }
    println!(
        "  samples per 1000 tracked: {:.1}",
        samples.len() as f64 / data_pkts.max(1) as f64 * 1000.0
    );

    // --- Loss sensitivity -------------------------------------------------
    println!("\nspin-bit under 20% loss (the gap heuristic rejects some periods;");
    println!(" what passes carries distortion nothing can detect):");
    let lossy_cfg = SpinFlowConfig {
        loss: 0.2,
        duration: 4 * SECOND,
        ..SpinFlowConfig::default()
    };
    let (periods, stats) = outbound_periods(&spin_flow(lossy_cfg), lossy_cfg.flow);
    let worst = periods
        .iter()
        .map(|s| (*s as i64 - (rtt_ms * 1_000_000)).unsigned_abs())
        .max()
        .unwrap_or(0);
    println!(
        "  {} samples ({} periods rejected in both directions), worst deviation from true RTT: {:.2} ms",
        periods.len(),
        stats.spin_rejected,
        worst as f64 / 1e6
    );
    println!("\n(paper §7: spin-bit RTTs can augment, but not replace, Dart's\n per-packet TCP measurement)");
}
