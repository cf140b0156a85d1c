//! §7's multi-vantage-point deployment: Dart instances at several points on
//! the path decompose the end-to-end RTT into legs and localize latency.
//!
//! A 100 ms path is monitored at the campus gateway plus two downstream
//! vantage points; the per-segment RTT contributions fall out of the
//! differences between adjacent vantage points' measurements.
//!
//! ```text
//! cargo run --release --example vantage_points
//! ```

use dart::core::{run_monitor_slice, DartConfig, DartEngine};
use dart::packet::{FlowKey, MILLISECOND};
use dart::sim::netsim::{ConnSpec, NetSim};

fn main() {
    // 30 request/response connections over a 100 ms external path.
    let specs: Vec<ConnSpec> = (0..30u16)
        .map(|i| {
            let mut spec = ConnSpec::simple(
                FlowKey::from_raw(0x0a08_0707, 42_000 + i, 0x2d4f_a1b2, 443),
                i as u64 * 40 * MILLISECOND,
                800,
                800,
            );
            spec.path.jitter = 0.01;
            spec.path.int_owd = MILLISECOND;
            spec.path.ext_owd = 50 * MILLISECOND; // 100 ms external RTT
            spec
        })
        .collect();

    // Vantage points at 25%, 50%, and 75% of the way to the servers.
    let fractions = [0.25, 0.5, 0.75];
    let out = NetSim::new(specs, 2024)
        .with_extra_vantage_points(fractions)
        .run();

    println!("primary monitor trace : {:>5} packets", out.packets.len());
    for (f, t) in fractions.iter().zip(&out.vp_traces) {
        println!(
            "vantage point @{:>3.0}%   : {:>5} packets",
            f * 100.0,
            t.len()
        );
    }

    // One independent Dart per vantage point.
    let mut mins = Vec::new();
    let (samples, _) =
        run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &out.packets);
    mins.push(("gateway".to_string(), min_ms(&samples)));
    for (f, t) in fractions.iter().zip(&out.vp_traces) {
        let (samples, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), t);
        mins.push((format!("vp @{:.0}%", f * 100.0), min_ms(&samples)));
    }

    println!("\nexternal-leg RTT (min) per vantage point:");
    for (name, ms) in &mins {
        println!("  {name:<10} {ms:7.2} ms");
    }

    println!("\nper-segment decomposition (difference of adjacent VPs):");
    let mut prev = ("client side".to_string(), mins[0].1);
    for (name, ms) in mins.iter().skip(1) {
        println!("  {} -> {:<9} {:7.2} ms", prev.0, name, prev.1 - ms);
        prev = (name.clone(), *ms);
    }
    println!("  {} -> server    {:7.2} ms", prev.0, prev.1);
    println!("\n(each quarter of the path contributes ≈25 ms of the 100 ms RTT)");
}

fn min_ms(samples: &[dart::core::RttSample]) -> f64 {
    samples.iter().map(|s| s.rtt).min().unwrap_or(0) as f64 / 1e6
}
