//! Adversarial scenario generators: the workloads the spin-bit and
//! data-plane histogram engines are judged on (DESIGN.md §5g).
//!
//! Four mixes, each a [`GeneratedTrace`] combining the TCP scenarios of
//! [`crate::scenario`] with QUIC spin-bit flows from [`crate::spin`]:
//!
//! * [`quic_mix`] — QUIC-dominated traffic: most packets expose no
//!   SEQ/ACK numbers, so the paper's matching engines go starved while
//!   spin-bit tracking keeps measuring;
//! * [`churn_storm`] — SYN-flood plus connection churn at ~10× the campus
//!   arrival rate: a table-pressure stressor for every per-flow state
//!   machine;
//! * [`interception_storm`] — the §5.2 BGP interception at scale: many
//!   concurrent victim connections *and* spin flows whose external delay
//!   steps at the same attack instant;
//! * [`wireless_tail`] — an all-wireless campus with lossy, heavy-tailed
//!   RTTs: the distribution-shape stressor for histogram binning.
//!
//! Every generator is deterministic in its seed, returns time-ordered
//! packets, and records spin-flow ground truth in
//! [`GeneratedTrace::spin_flows`]. [`ScenarioKind::generate`] exposes the
//! whole matrix behind one call with a linear `scale` knob so CI can run
//! the same suites at reduced size with pinned seeds.

use crate::rng::SimRng;
use crate::scenario::{
    campus, interception, syn_flood, AttackConfig, CampusConfig, GeneratedTrace, SpinInfo,
    SynFloodConfig,
};
use crate::spin::{spin_flow, SpinFlowConfig};
use dart_packet::{FlowKey, Nanos, MICROSECOND, MILLISECOND, SECOND};
use std::net::Ipv4Addr;

/// Mix `count` spin-bit flows into a trace: generate each flow's packet
/// stream, append it, record its ground truth, and re-sort by capture time.
fn mix_spin_flows(
    trace: &mut GeneratedTrace,
    rng: &mut SimRng,
    count: usize,
    mut make: impl FnMut(&mut SimRng, FlowKey) -> SpinFlowConfig,
) {
    for i in 0..count {
        // QUIC clients on their own campus subnet, distinct servers.
        let flow = FlowKey::new(
            Ipv4Addr::from(0x0a0b_0000 | (1 + (i as u32 % 0xFFFE))),
            (40_000 + (i % 20_000)) as u16,
            Ipv4Addr::from(0x5db8_d900 | rng.range(1, 250) as u32),
            443,
        );
        let cfg = make(rng, flow);
        trace.packets.extend(spin_flow(cfg));
        trace.spin_flows.push(SpinInfo {
            flow,
            base_rtt: 2 * (cfg.int_owd + cfg.ext_owd),
            stepped_rtt: cfg
                .ext_owd_step
                .map(|(_, new_ext)| 2 * (cfg.int_owd + new_ext)),
        });
    }
    trace.packets.sort_by_key(|p| p.ts);
}

/// Draw a plausible campus-edge one-way-delay pair: sub-millisecond
/// internal leg, a few to tens of milliseconds external.
fn typical_owds(rng: &mut SimRng) -> (Nanos, Nanos) {
    (
        rng.range(200 * MICROSECOND, 2 * MILLISECOND),
        rng.range(3 * MILLISECOND, 45 * MILLISECOND),
    )
}

/// Configuration of the QUIC-dominated mix.
#[derive(Clone, Copy, Debug)]
pub struct QuicMixConfig {
    /// Spin-bit flows.
    pub spin_flows: usize,
    /// Background TCP connections (kept small: QUIC dominates).
    pub tcp_connections: usize,
    /// Trace duration.
    pub duration: Nanos,
    /// Per-endpoint packet rate of each spin flow.
    pub rate_pps: u64,
    /// Per-packet loss probability on the spin flows.
    pub loss: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QuicMixConfig {
    fn default() -> Self {
        QuicMixConfig {
            spin_flows: 24,
            tcp_connections: 60,
            duration: 3 * SECOND,
            rate_pps: 150,
            loss: 0.005,
            seed: 0x541C,
        }
    }
}

/// QUIC-dominated mix: spin-bit flows carry most of the packets over a
/// thin TCP background.
pub fn quic_mix(cfg: QuicMixConfig) -> GeneratedTrace {
    let mut rng = SimRng::new(cfg.seed);
    let mut trace = campus(CampusConfig {
        connections: cfg.tcp_connections,
        duration: cfg.duration,
        seed: rng.fork(1).next_u32() as u64,
        ..CampusConfig::default()
    });
    let mut spin_rng = rng.fork(2);
    mix_spin_flows(&mut trace, &mut spin_rng, cfg.spin_flows, |rng, flow| {
        let (int_owd, ext_owd) = typical_owds(rng);
        SpinFlowConfig {
            flow,
            int_owd,
            ext_owd,
            rate_pps: cfg.rate_pps,
            duration: cfg.duration,
            loss: cfg.loss,
            seed: rng.next_u32() as u64,
            ext_owd_step: None,
        }
    });
    trace
}

/// Configuration of the churn storm.
#[derive(Clone, Copy, Debug)]
pub struct ChurnStormConfig {
    /// Connection arrivals per second — the default is ~10× the campus
    /// scenario's rate (2000 connections / 30 s ≈ 67/s).
    pub conn_rate: f64,
    /// Spoofed SYNs sprayed over the window.
    pub syns: usize,
    /// Spin-bit flows riding through the storm.
    pub spin_flows: usize,
    /// Trace duration.
    pub duration: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChurnStormConfig {
    fn default() -> Self {
        ChurnStormConfig {
            conn_rate: 670.0,
            syns: 4_000,
            spin_flows: 6,
            duration: 2 * SECOND,
            seed: 0xC402,
        }
    }
}

/// SYN-flood / flow-churn storm at ~10× the campus arrival rate: spoofed
/// SYNs plus a dense wave of short-lived connections, with a handful of
/// long-lived spin flows that must keep measuring through the churn.
pub fn churn_storm(cfg: ChurnStormConfig) -> GeneratedTrace {
    let mut rng = SimRng::new(cfg.seed);
    let secs = cfg.duration as f64 / SECOND as f64;
    let connections = ((cfg.conn_rate * secs).ceil() as usize).max(1);
    let mut trace = campus(CampusConfig {
        connections,
        duration: cfg.duration,
        keepalive_frac: 0.0,
        seed: rng.fork(1).next_u32() as u64,
        ..CampusConfig::default()
    });
    let flood = syn_flood(SynFloodConfig {
        syns: cfg.syns,
        duration: cfg.duration,
        background: 0,
        seed: rng.fork(2).next_u32() as u64,
    });
    trace.packets.extend(flood.packets);
    trace.conns.extend(flood.conns);
    let mut spin_rng = rng.fork(3);
    mix_spin_flows(&mut trace, &mut spin_rng, cfg.spin_flows, |rng, flow| {
        let (int_owd, ext_owd) = typical_owds(rng);
        SpinFlowConfig {
            flow,
            int_owd,
            ext_owd,
            rate_pps: 200,
            duration: cfg.duration,
            loss: 0.01,
            seed: rng.next_u32() as u64,
            ext_owd_step: None,
        }
    });
    trace
}

/// Configuration of the at-scale interception.
#[derive(Clone, Copy, Debug)]
pub struct InterceptionStormConfig {
    /// Victim TCP request/response rounds (one connection each).
    pub rounds: usize,
    /// Gap between rounds — much denser than the single-victim §5.2 run.
    pub round_gap: Nanos,
    /// When the hijack takes effect.
    pub attack_at: Nanos,
    /// Pre-attack path RTT.
    pub normal_rtt: Nanos,
    /// Post-attack RTT through the adversary.
    pub attacked_rtt: Nanos,
    /// Spin flows whose external delay steps at the same instant.
    pub spin_flows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for InterceptionStormConfig {
    fn default() -> Self {
        InterceptionStormConfig {
            rounds: 300,
            round_gap: 40 * MILLISECOND,
            attack_at: 4 * SECOND,
            normal_rtt: 25 * MILLISECOND,
            attacked_rtt: 120 * MILLISECOND,
            spin_flows: 8,
            seed: 0x17CE,
        }
    }
}

/// Mid-trace path interception at scale: a dense stream of victim TCP
/// connections *and* a set of spin flows, every path stepping from
/// `normal_rtt` to `attacked_rtt` at `attack_at`. Both engine families
/// must show the step.
pub fn interception_storm(cfg: InterceptionStormConfig) -> GeneratedTrace {
    let mut rng = SimRng::new(cfg.seed);
    let duration = cfg.rounds as Nanos * cfg.round_gap;
    let mut trace = interception(AttackConfig {
        normal_rtt: cfg.normal_rtt,
        attacked_rtt: cfg.attacked_rtt,
        attack_at: cfg.attack_at,
        rounds: cfg.rounds,
        round_gap: cfg.round_gap,
        seed: rng.fork(1).next_u32() as u64,
    });
    let mut spin_rng = rng.fork(2);
    mix_spin_flows(&mut trace, &mut spin_rng, cfg.spin_flows, |rng, flow| {
        let int_owd = rng.range(200 * MICROSECOND, MILLISECOND);
        SpinFlowConfig {
            flow,
            int_owd,
            ext_owd: cfg.normal_rtt / 2,
            rate_pps: 120,
            duration,
            loss: 0.003,
            seed: rng.next_u32() as u64,
            ext_owd_step: Some((cfg.attack_at, cfg.attacked_rtt / 2)),
        }
    });
    trace
}

/// Configuration of the wireless heavy-tail mix.
#[derive(Clone, Copy, Debug)]
pub struct WirelessTailConfig {
    /// TCP connections (all wireless).
    pub connections: usize,
    /// Spin flows with Pareto-tailed external delays.
    pub spin_flows: usize,
    /// Trace duration.
    pub duration: Nanos,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WirelessTailConfig {
    fn default() -> Self {
        WirelessTailConfig {
            connections: 120,
            spin_flows: 12,
            duration: 3 * SECOND,
            seed: 0x3417,
        }
    }
}

/// Wireless-heavy RTT tails: an all-wireless lossy campus plus spin flows
/// whose external delays are drawn from a Pareto tail — the p99-shape
/// stressor for the histogram engine's log2 buckets.
pub fn wireless_tail(cfg: WirelessTailConfig) -> GeneratedTrace {
    let mut rng = SimRng::new(cfg.seed);
    let mut trace = campus(CampusConfig {
        connections: cfg.connections,
        duration: cfg.duration,
        wireless_frac: 1.0,
        mean_loss: 0.03,
        reorder: 0.01,
        seed: rng.fork(1).next_u32() as u64,
        ..CampusConfig::default()
    });
    let mut spin_rng = rng.fork(2);
    mix_spin_flows(&mut trace, &mut spin_rng, cfg.spin_flows, |rng, flow| {
        let int_owd = rng.range(500 * MICROSECOND, 4 * MILLISECOND);
        let ext_owd = rng.pareto(6e6, 1.2, 250e6) as Nanos;
        SpinFlowConfig {
            flow,
            int_owd,
            ext_owd,
            rate_pps: 150,
            duration: cfg.duration,
            loss: 0.02,
            seed: rng.next_u32() as u64,
            ext_owd_step: None,
        }
    });
    trace
}

/// One entry of the adversarial scenario matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// [`quic_mix`].
    QuicMix,
    /// [`churn_storm`].
    ChurnStorm,
    /// [`interception_storm`].
    Interception,
    /// [`wireless_tail`].
    WirelessTail,
}

impl ScenarioKind {
    /// Every scenario, in matrix order.
    pub const ALL: [ScenarioKind; 4] = [
        ScenarioKind::QuicMix,
        ScenarioKind::ChurnStorm,
        ScenarioKind::Interception,
        ScenarioKind::WirelessTail,
    ];

    /// Stable CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::QuicMix => "quic-mix",
            ScenarioKind::ChurnStorm => "churn-storm",
            ScenarioKind::Interception => "interception",
            ScenarioKind::WirelessTail => "wireless-tail",
        }
    }

    /// Parse a CLI/report name back into a kind.
    pub fn parse(name: &str) -> Option<ScenarioKind> {
        ScenarioKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Generate this scenario with every size knob multiplied by `scale`
    /// (flows, connections, SYNs, rounds — durations stay put so the RTT
    /// dynamics are scale-invariant). `scale = 1.0` is the full-size run;
    /// CI uses ~0.2 with pinned seeds.
    pub fn generate(self, scale: f64, seed: u64) -> GeneratedTrace {
        let n = |base: usize| ((base as f64 * scale).ceil() as usize).max(1);
        match self {
            ScenarioKind::QuicMix => {
                let d = QuicMixConfig::default();
                quic_mix(QuicMixConfig {
                    spin_flows: n(d.spin_flows),
                    tcp_connections: n(d.tcp_connections),
                    seed,
                    ..d
                })
            }
            ScenarioKind::ChurnStorm => {
                let d = ChurnStormConfig::default();
                churn_storm(ChurnStormConfig {
                    conn_rate: (d.conn_rate * scale).max(1.0),
                    syns: n(d.syns),
                    spin_flows: n(d.spin_flows),
                    seed,
                    ..d
                })
            }
            ScenarioKind::Interception => {
                let d = InterceptionStormConfig::default();
                interception_storm(InterceptionStormConfig {
                    rounds: n(d.rounds),
                    // Keep the attack inside the (shorter) trace window.
                    attack_at: (n(d.rounds) as Nanos * d.round_gap) / 3,
                    spin_flows: n(d.spin_flows),
                    seed,
                    ..d
                })
            }
            ScenarioKind::WirelessTail => {
                let d = WirelessTailConfig::default();
                wireless_tail(WirelessTailConfig {
                    connections: n(d.connections),
                    spin_flows: n(d.spin_flows),
                    seed,
                    ..d
                })
            }
        }
    }
}

impl std::fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_shape(t: &GeneratedTrace) {
        assert!(!t.is_empty());
        assert!(t.packets.windows(2).all(|w| w[0].ts <= w[1].ts), "unsorted");
        assert!(!t.spin_flows.is_empty());
        let quic = t.packets.iter().filter(|p| p.is_quic()).count();
        assert!(quic > 0, "no spin packets in the mix");
    }

    #[test]
    fn all_kinds_generate_and_are_deterministic() {
        for kind in ScenarioKind::ALL {
            let a = kind.generate(0.1, 7);
            let b = kind.generate(0.1, 7);
            check_shape(&a);
            assert_eq!(a.packets, b.packets, "{kind} not deterministic");
            assert_eq!(ScenarioKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ScenarioKind::parse("nope"), None);
    }

    #[test]
    fn quic_mix_is_quic_dominated() {
        let t = quic_mix(QuicMixConfig {
            spin_flows: 8,
            tcp_connections: 10,
            duration: SECOND,
            ..QuicMixConfig::default()
        });
        let quic = t.packets.iter().filter(|p| p.is_quic()).count();
        assert!(
            quic * 2 > t.packets.len(),
            "quic {} of {}",
            quic,
            t.packets.len()
        );
    }

    #[test]
    fn churn_storm_is_mostly_churn() {
        let t = churn_storm(ChurnStormConfig {
            conn_rate: 100.0,
            syns: 500,
            spin_flows: 2,
            duration: SECOND,
            ..ChurnStormConfig::default()
        });
        let syns = t.packets.iter().filter(|p| p.is_syn()).count();
        assert!(syns >= 500, "flood + churn SYNs present, got {syns}");
        check_shape(&t);
    }

    #[test]
    fn interception_storm_records_stepped_truth() {
        let t = interception_storm(InterceptionStormConfig {
            rounds: 40,
            spin_flows: 3,
            attack_at: 500 * MILLISECOND,
            ..InterceptionStormConfig::default()
        });
        check_shape(&t);
        assert!(t.spin_flows.iter().all(|s| s.stepped_rtt.is_some()));
        for s in &t.spin_flows {
            assert!(s.stepped_rtt.unwrap() > s.base_rtt);
        }
    }

    #[test]
    fn wireless_tail_has_heavy_spin_tail() {
        let t = wireless_tail(WirelessTailConfig {
            connections: 20,
            spin_flows: 16,
            duration: SECOND,
            ..WirelessTailConfig::default()
        });
        check_shape(&t);
        let max = t.spin_flows.iter().map(|s| s.base_rtt).max().unwrap();
        let min = t.spin_flows.iter().map(|s| s.base_rtt).min().unwrap();
        assert!(max > 4 * min, "tail not heavy: {min}..{max}");
    }
}
