//! Campus-gateway monitoring: run Dart on both path legs of a synthetic
//! campus workload, contrast wired vs wireless subnets (paper Fig. 6), and
//! aggregate external RTTs per destination /24 (paper §3.3's per-prefix
//! min-filtering).
//!
//! ```text
//! cargo run --release --example campus_monitor
//! ```

use dart::analytics::{PrefixAggregator, RttDistribution, Window};
use dart::core::{run_monitor_slice, DartConfig, DartEngine, Leg};
use dart::packet::MILLISECOND;
use dart::sim::flowgen::is_wireless;
use dart::sim::scenario::{campus, CampusConfig};

fn main() {
    let trace = campus(CampusConfig {
        connections: 1500,
        duration: 20 * dart::packet::SECOND,
        ..CampusConfig::default()
    });
    println!(
        "campus trace: {} packets, {} connections\n",
        trace.len(),
        trace.conns.len()
    );

    // --- Internal leg: campus host <-> monitor (Fig. 6) -----------------
    let cfg = DartConfig::default()
        .with_leg(Leg::Internal)
        .with_rt(1 << 14)
        .with_pt(1 << 13, 1);
    let (internal, _) = run_monitor_slice(&mut DartEngine::new(cfg), &trace.packets);
    let mut wired = RttDistribution::new();
    let mut wireless = RttDistribution::new();
    for s in &internal {
        // Internal-leg data flows toward the campus client (flow.dst_ip).
        if is_wireless(s.flow.dst_ip) {
            wireless.push(s.rtt);
        } else {
            wired.push(s.rtt);
        }
    }
    println!("internal leg (client <-> monitor):");
    println!(
        "  wired    : {:6} samples, {:5.1}% below 1 ms",
        wired.len(),
        wired.cdf_at(MILLISECOND) * 100.0
    );
    println!(
        "  wireless : {:6} samples, {:5.1}% below 1 ms, {:4.1}% above 20 ms",
        wireless.len(),
        wireless.cdf_at(MILLISECOND) * 100.0,
        wireless.ccdf_at(20 * MILLISECOND) * 100.0
    );

    // --- External leg: monitor <-> Internet, aggregated per /24 ---------
    let cfg = DartConfig::default().with_rt(1 << 14).with_pt(1 << 13, 1);
    let (external, _) = run_monitor_slice(&mut DartEngine::new(cfg), &trace.packets);
    let mut agg = PrefixAggregator::new(24, Window::Time(5 * dart::packet::SECOND));
    let mut closed = Vec::new();
    for s in &external {
        if let Some((prefix, w)) = agg.offer(s) {
            closed.push((prefix, w));
        }
    }
    println!(
        "\nexternal leg: {} samples across {} destination /24s",
        external.len(),
        agg.prefixes()
    );
    println!("busiest prefixes (min RTT per closed 5s window):");
    let mut snapshot: Vec<_> = agg
        .snapshot()
        .into_iter()
        .map(|(p, _)| (agg.count(&p), p))
        .collect();
    snapshot.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
    for (count, prefix) in snapshot.into_iter().take(8) {
        let best = closed
            .iter()
            .filter(|(p, _)| *p == prefix)
            .map(|(_, w)| w.min_rtt)
            .min();
        println!(
            "  {prefix:<20} {count:6} samples, windowed min {}",
            best.map_or("n/a".into(), |m| format!("{:.2} ms", m as f64 / 1e6))
        );
    }
}
