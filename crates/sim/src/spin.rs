//! A QUIC-like flow generator with the RFC 9000 §17.4 latency spin bit —
//! the §7 extension path for measuring RTTs on traffic that hides sequence
//! and acknowledgment numbers.
//!
//! Mechanics: the client sends each packet with the spin bit set to the
//! *complement* of the last bit it saw from the server; the server echoes
//! the last bit it saw from the client. The observable bit therefore flips
//! once per round trip in each direction, and an on-path observer (the
//! `spin` engine, `dart_baselines::SpinMonitor`) can clock RTTs from edge to
//! edge — at most one sample per RTT.

use crate::rng::SimRng;
use dart_packet::{Direction, FlowKey, Nanos, PacketBuilder, PacketMeta};

/// Spin-bit flow generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SpinFlowConfig {
    /// Flow key (client → server).
    pub flow: FlowKey,
    /// One-way delay client ↔ monitor.
    pub int_owd: Nanos,
    /// One-way delay monitor ↔ server.
    pub ext_owd: Nanos,
    /// Packets per second each endpoint sends (paced stream).
    pub rate_pps: u64,
    /// Total duration.
    pub duration: Nanos,
    /// Per-packet loss probability (end to end).
    pub loss: f64,
    /// RNG seed.
    pub seed: u64,
    /// Mid-trace path change: at absolute time `.0`, the external one-way
    /// delay becomes `.1` (the spin-flow analogue of the interception
    /// scenario's `ext_owd_step`). `None` keeps the delay constant.
    pub ext_owd_step: Option<(Nanos, Nanos)>,
}

impl Default for SpinFlowConfig {
    fn default() -> Self {
        SpinFlowConfig {
            flow: FlowKey::from_raw(0x0a08_0001, 50_443, 0x5db8_d822, 443),
            int_owd: dart_packet::MILLISECOND / 2,
            ext_owd: 10 * dart_packet::MILLISECOND,
            rate_pps: 200,
            duration: 2 * dart_packet::SECOND,
            loss: 0.0,
            seed: 0x5917,
            ext_owd_step: None,
        }
    }
}

/// Generate the monitor-observed packet stream of one spin-bit flow.
///
/// Each endpoint sends a paced stream; the spin state follows RFC 9000:
/// the client initiates flips (complementing the server's echo), the server
/// reflects. Packets are captured at the monitor between the two legs.
///
/// Each packet is a [`PacketMeta`] carrying the
/// [`dart_packet::TcpFlags::QUIC`] marker and the spin bit, with
/// SEQ/ACK/payload zeroed (QUIC exposes none of them): the stream merges
/// straight into a mixed TCP/QUIC trace (sort the union by timestamp), and
/// TCP engines see its records as role-less.
pub fn spin_flow(cfg: SpinFlowConfig) -> Vec<PacketMeta> {
    let mut rng = SimRng::new(cfg.seed);
    let gap = 1_000_000_000 / cfg.rate_pps.max(1);

    // The endpoints' spin state evolves in continuous time; model it by
    // precomputing the client's flip instants. The client flips once per
    // round trip (when its own previous flip completes the loop), so the
    // boundaries satisfy b_0 = rtt(0), b_{k+1} = b_k + rtt(b_k) — which
    // for a constant RTT reduces to b_k = (k+1)·rtt, the closed form this
    // function used before `ext_owd_step` existed. A path change alters
    // the external delay from the step instant on, stretching (or
    // shrinking) every later spin period.
    let ext_at = |t: Nanos| match cfg.ext_owd_step {
        Some((at, new_ext)) if t >= at => new_ext,
        _ => cfg.ext_owd,
    };
    let rtt_at = |t: Nanos| (2 * (cfg.int_owd + ext_at(t))).max(1);
    let mut boundaries = Vec::new();
    let mut b = rtt_at(0);
    while b <= cfg.duration {
        boundaries.push(b);
        b += rtt_at(b);
    }
    // Client spin state at absolute time t: number of flips so far, odd/even.
    let spin_at = |t: Nanos| boundaries.partition_point(|&x| x <= t) % 2 == 1;

    let mut out = Vec::new();
    let mut t = 0;
    while t < cfg.duration {
        // Client → server packet, captured at monitor after int leg.
        let client_spin = spin_at(t);
        if !rng.chance(cfg.loss) {
            out.push(
                PacketBuilder::new(cfg.flow, t + cfg.int_owd)
                    .dir(Direction::Outbound)
                    .quic_spin(client_spin)
                    .build(),
            );
        }
        // Server → client packet sent at the same instant: echoes the
        // client bit it saw one client→server delay ago (false before
        // anything arrives).
        let server_spin = t.checked_sub(cfg.int_owd + ext_at(t)).is_some_and(spin_at);
        if !rng.chance(cfg.loss) {
            out.push(
                PacketBuilder::new(cfg.flow.reverse(), t + ext_at(t))
                    .dir(Direction::Inbound)
                    .quic_spin(server_spin)
                    .build(),
            );
        }
        t += gap;
    }
    out.sort_by_key(|p| p.ts);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_baselines::{SpinConfig, SpinMonitor};
    use dart_core::run_monitor_slice;
    use dart_packet::MILLISECOND;

    /// Edge-to-edge periods of `flow` (one direction), clocked by the spin
    /// engine with its rejection bounds opened so every period is emitted.
    fn periods(pkts: &[PacketMeta], flow: FlowKey) -> Vec<Nanos> {
        let mut open = SpinMonitor::new(SpinConfig {
            min_period: 0,
            max_period: Nanos::MAX,
            gap_factor: 0,
            ..SpinConfig::default()
        });
        let (samples, _) = run_monitor_slice(&mut open, pkts);
        (samples.iter())
            .filter(|s| s.flow == flow)
            .map(|s| s.rtt)
            .collect()
    }

    #[test]
    fn spin_period_equals_rtt() {
        let cfg = SpinFlowConfig::default(); // RTT = 21 ms
        let pkts = spin_flow(cfg);
        assert!(!pkts.is_empty());
        let samples = periods(&pkts, cfg.flow);
        assert!(samples.len() >= 10, "too few spin samples");
        let rtt = 21 * MILLISECOND;
        for s in &samples {
            // Quantized by the packet gap (5 ms at 200 pps).
            assert!(
                (*s as i64 - rtt as i64).unsigned_abs() <= 5_000_000,
                "sample {} far from rtt {}",
                s,
                rtt
            );
        }
    }

    #[test]
    fn at_most_one_sample_per_rtt() {
        // The §7/§8 limitation: however fast the packets flow, samples come
        // once per RTT. 2 s / 21 ms ≈ 95 spin periods max.
        let cfg = SpinFlowConfig::default();
        let pkts = spin_flow(cfg);
        let samples = periods(&pkts, cfg.flow);
        let packets_one_dir = pkts.iter().filter(|p| p.dir == Direction::Outbound).count();
        assert!(samples.len() < 100);
        assert!(packets_one_dir > 350, "plenty of packets, few samples");
    }

    #[test]
    fn loss_makes_spin_samples_jitter() {
        // Losing the packet that carried an edge shifts the observed
        // transition to the next packet: spin measurements degrade under
        // loss with no way to detect it (§7: "inferring retransmissions or
        // reordering is not possible using only the spin bit").
        let cfg = SpinFlowConfig {
            loss: 0.3,
            ..SpinFlowConfig::default()
        };
        let rtt = 21 * MILLISECOND;
        let worst = periods(&spin_flow(cfg), cfg.flow)
            .iter()
            .map(|s| (*s as i64 - rtt as i64).unsigned_abs())
            .max()
            .unwrap_or(0);
        assert!(
            worst > 5_000_000,
            "expected visible degradation under loss, worst dev {worst}"
        );
    }

    #[test]
    fn ext_owd_step_stretches_spin_period() {
        // Path interception at 1 s: external OWD jumps 10 ms → 35 ms, so
        // the spin period should move from ~21 ms to ~71 ms.
        let cfg = SpinFlowConfig {
            duration: 4 * dart_packet::SECOND,
            ext_owd_step: Some((dart_packet::SECOND, 35 * MILLISECOND)),
            ..SpinFlowConfig::default()
        };
        let samples = periods(&spin_flow(cfg), cfg.flow);
        let early: Vec<_> = samples.iter().take(10).copied().collect();
        let late: Vec<_> = samples.iter().rev().take(10).copied().collect();
        let mean = |v: &[Nanos]| v.iter().sum::<Nanos>() / v.len().max(1) as u64;
        assert!(
            mean(&early).abs_diff(21 * MILLISECOND) <= 6 * MILLISECOND,
            "pre-step period {} far from 21ms",
            mean(&early)
        );
        assert!(
            mean(&late).abs_diff(71 * MILLISECOND) <= 8 * MILLISECOND,
            "post-step period {} far from 71ms",
            mean(&late)
        );
    }

    #[test]
    fn no_step_matches_legacy_closed_form() {
        // With ext_owd_step = None the boundary recurrence must reduce to
        // the old (t / rtt) % 2 closed form exactly.
        let cfg = SpinFlowConfig::default();
        let rtt = 2 * (cfg.int_owd + cfg.ext_owd);
        let c2s = cfg.int_owd + cfg.ext_owd;
        for p in spin_flow(cfg) {
            let (send_t, expect) = if p.dir == Direction::Outbound {
                let t = p.ts - cfg.int_owd;
                (t, (t / rtt) % 2 == 1)
            } else {
                let t = p.ts - cfg.ext_owd;
                (t, t >= c2s && ((t - c2s) / rtt) % 2 == 1)
            };
            assert_eq!(p.spin(), Some(expect), "divergence at send time {send_t}");
        }
    }

    #[test]
    fn meta_round_trip_preserves_spin() {
        let pkts = spin_flow(SpinFlowConfig::default());
        for p in &pkts {
            assert!(p.is_quic());
            assert!(!p.is_seq() && !p.is_ack());
        }
        let bytes = dart_packet::trace::to_bytes(&pkts);
        assert_eq!(dart_packet::trace::from_bytes(&bytes).unwrap(), pkts);
        let tcp = PacketBuilder::new(SpinFlowConfig::default().flow, 0)
            .ack(1u32)
            .build();
        assert_eq!(tcp.spin(), None);
    }

    #[test]
    fn observer_ignores_other_direction() {
        // Each direction of the flow is clocked from its own edges.
        let cfg = SpinFlowConfig::default();
        let pkts = spin_flow(cfg);
        let inbound = periods(&pkts, cfg.flow.reverse());
        assert!(!inbound.is_empty());
        let inbound_only: Vec<PacketMeta> = (pkts.iter())
            .filter(|p| p.dir == Direction::Inbound)
            .copied()
            .collect();
        assert_eq!(periods(&inbound_only, cfg.flow.reverse()), inbound);
        let outbound = periods(&pkts, cfg.flow);
        assert!(outbound.len().abs_diff(inbound.len()) <= 2);
    }
}
