//! The paper's §5.2 headline demo: detect a BGP traffic-interception attack
//! from the continuous RTT stream, within tens of packets of it taking
//! effect.
//!
//! A campus host exchanges traffic with a victim prefix; mid-trace, a
//! hijacker reroutes the path through a distant network, stepping the RTT
//! from ~25 ms to ~120 ms. Dart's samples feed a windowed min-RTT
//! suspect/confirm detector (Fig. 8).
//!
//! ```text
//! cargo run --example interception_detection
//! ```

use dart::analytics::{ChangeDetector, ChangeDetectorConfig, Verdict};
use dart::core::{run_monitor_slice, DartConfig, DartEngine};
use dart::sim::scenario::{interception, AttackConfig};

fn main() {
    let attack = AttackConfig::default();
    println!(
        "victim path: {} ms RTT; hijacked path: {} ms; attack at t = {} s",
        attack.normal_rtt / 1_000_000,
        attack.attacked_rtt / 1_000_000,
        attack.attack_at / 1_000_000_000
    );

    let trace = interception(attack);
    println!("captured {} packets at the monitor", trace.len());

    // Dart collects RTT samples in real time...
    let (samples, stats) =
        run_monitor_slice(&mut DartEngine::new(DartConfig::default()), &trace.packets);
    println!(
        "dart collected {} samples from {} tracked data packets\n",
        samples.len(),
        stats.seq_tracked
    );

    // ...and the analytics module watches the minimum RTT over windows of 8
    // consecutive samples (paper Fig. 8).
    let mut detector = ChangeDetector::new(ChangeDetectorConfig::default());
    for s in &samples {
        match detector.offer(s.rtt, s.ts) {
            Verdict::Suspected { baseline, observed } => {
                println!(
                    "t={:6.2}s  SUSPECTED: window min jumped {:.1} -> {:.1} ms",
                    s.ts as f64 / 1e9,
                    baseline as f64 / 1e6,
                    observed as f64 / 1e6
                );
            }
            Verdict::Confirmed {
                baseline,
                observed,
                samples_to_confirm,
            } => {
                let packets_between = trace
                    .packets
                    .iter()
                    .filter(|p| p.ts >= attack.attack_at && p.ts <= s.ts)
                    .count();
                println!(
                    "t={:6.2}s  CONFIRMED: min RTT {:.1} -> {:.1} ms ({} samples to confirm)",
                    s.ts as f64 / 1e9,
                    baseline as f64 / 1e6,
                    observed as f64 / 1e6,
                    samples_to_confirm
                );
                println!(
                    "\ndetected {} packets / {:.2} s after the attack took effect",
                    packets_between,
                    (s.ts - attack.attack_at) as f64 / 1e9
                );
                println!("(the paper's testbed run: 63 packets / 2.58 s)");
                return;
            }
            Verdict::Normal => {}
        }
    }
    println!("attack was never confirmed — detector misconfigured?");
}
