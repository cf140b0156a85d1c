//! Deterministic fault injection for monitor-captured traces and engine
//! configurations.
//!
//! Two orthogonal fault families:
//!
//! * **Trace faults** ([`FaultInjector::apply`]): seeded drop /
//!   duplicate / reorder / truncate applied to the captured packet
//!   sequence *before* any consumer sees it. Because the differential
//!   runner feeds the same faulted capture to the oracle and to every
//!   engine, trace faults stress matching logic without breaking the
//!   capture-relative ground truth (DESIGN.md §5b).
//! * **Config faults** ([`ConfigFault`], [`backend_sweep`]): doctored
//!   [`DartConfig`]s that force the pressure paths — recirculation-budget
//!   exhaustion, starved tables, narrow signatures — plus equal-SRAM
//!   sweeps priced by [`program()`] on a `dart-switch` [`TargetProfile`].

use dart_core::{program, Backend, DartConfig, PtMode, RtMode};
use dart_packet::{Nanos, PacketMeta, SignatureWidth};
use dart_sim::SimRng;
use dart_switch::TargetProfile;

/// Probabilities and magnitudes for seeded trace faults.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// RNG seed; the whole transform is a pure function of `(trace, self)`.
    pub seed: u64,
    /// Per-packet probability the monitor misses the packet entirely.
    pub drop: f64,
    /// Per-packet probability a second copy is captured (in-network
    /// duplication or a mirroring artifact).
    pub duplicate: f64,
    /// Delay of the duplicate copy relative to the original.
    pub dup_delay: Nanos,
    /// Per-packet probability the packet is delayed past its neighbors
    /// (in-network reordering upstream of the monitor).
    pub reorder: f64,
    /// Maximum extra delay (exclusive) applied to a reordered packet.
    pub reorder_delay: Nanos,
    /// Probability the capture is cut off at a seeded random point
    /// (monitoring-window truncation).
    pub truncate: f64,
}

impl FaultConfig {
    /// No faults at all; `apply` is the identity.
    pub fn clean(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop: 0.0,
            duplicate: 0.0,
            dup_delay: 0,
            reorder: 0.0,
            reorder_delay: 0,
            truncate: 0.0,
        }
    }

    /// A moderately hostile capture: ~2% loss, 1% duplication, 2%
    /// reordering within a few hundred microseconds, occasional window
    /// truncation.
    pub fn stress(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop: 0.02,
            duplicate: 0.01,
            dup_delay: 200 * dart_packet::MICROSECOND,
            reorder: 0.02,
            reorder_delay: 500 * dart_packet::MICROSECOND,
            truncate: 0.25,
        }
    }
}

/// What the injector did to one trace, for reporting and budget sanity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Packets removed.
    pub dropped: u64,
    /// Extra copies inserted.
    pub duplicated: u64,
    /// Packets displaced in time.
    pub reordered: u64,
    /// New trace length when window truncation fired.
    pub truncated_to: Option<usize>,
}

/// Seeded fault injector: rewrites a captured packet sequence before the
/// differential runner, or any other consumer, sees it.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    log: FaultLog,
}

impl FaultInjector {
    /// Build an injector from a fault configuration.
    pub fn new(cfg: FaultConfig) -> FaultInjector {
        FaultInjector {
            cfg,
            log: FaultLog::default(),
        }
    }

    /// What the most recent [`FaultInjector::apply`] call did.
    pub fn log(&self) -> FaultLog {
        self.log
    }

    /// Consume the captured packets and return the faulted sequence: a
    /// pure function of the packets and the configuration (seed
    /// included), so the same capture faults the same way every time.
    pub fn apply(&mut self, mut packets: Vec<PacketMeta>) -> Vec<PacketMeta> {
        let cfg = self.cfg;
        let mut rng = SimRng::new(cfg.seed);
        let mut log = FaultLog::default();

        if packets.len() > 1 && rng.chance(cfg.truncate) {
            let keep = rng.range(1, packets.len() as u64) as usize;
            packets.truncate(keep);
            log.truncated_to = Some(keep);
        }

        let mut out: Vec<PacketMeta> = Vec::with_capacity(packets.len());
        for pkt in packets {
            if rng.chance(cfg.drop) {
                log.dropped += 1;
                continue;
            }
            let mut p = pkt;
            if cfg.reorder_delay > 0 && rng.chance(cfg.reorder) {
                p.ts += rng.range(1, cfg.reorder_delay);
                log.reordered += 1;
            }
            out.push(p);
            if rng.chance(cfg.duplicate) {
                let mut d = p;
                d.ts += cfg.dup_delay.max(1);
                out.push(d);
                log.duplicated += 1;
            }
        }
        // Restore capture order: a monitor timestamps packets as they
        // arrive, so its capture is time-sorted by construction. The sort
        // is stable, keeping equal-timestamp packets deterministic.
        out.sort_by_key(|p| p.ts);
        self.log = log;
        out
    }
}

/// Doctored engine configurations that force specific pressure paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigFault {
    /// Recirculation budget zero: every PT eviction loses its record
    /// unless the victim cache saves it.
    RecircExhaustion,
    /// Tables starved to a handful of slots: constant eviction churn.
    TinyTables,
    /// 16-bit flow signatures: aliasing becomes likely, exercising the
    /// signature-collision paths.
    NarrowSignature,
}

/// Apply a [`ConfigFault`] to a base configuration.
pub fn apply_config_fault(base: DartConfig, fault: ConfigFault) -> DartConfig {
    match fault {
        ConfigFault::RecircExhaustion => base.with_max_recirc(0),
        ConfigFault::TinyTables => base.with_rt(64).with_pt(32, 1),
        ConfigFault::NarrowSignature => {
            let mut cfg = base;
            cfg.sig_width = SignatureWidth::W16;
            cfg
        }
    }
}

/// Equal-SRAM configs across flow-state backends. For each PT size in
/// `pt_slots`, the budget is what [`program()`] prices the exact backend's
/// tables at on `profile` (one PT stage, an RT 8× the PT), and `backend`
/// gets the largest tables that budget buys, priced the same way: RT slots
/// and an eighth as many PT slots, each in whole way sets. Each config is
/// within one 8 RT + 1 PT step of its budget, so configs at one index are
/// comparable frontier points; the exact backend gets its geometry back.
pub fn backend_sweep(
    profile: &TargetProfile,
    pt_slots: &[usize],
    backend: Backend,
) -> Vec<DartConfig> {
    let sized = |rt: usize, pt: usize, b: Backend| {
        DartConfig::default()
            .with_pt(pt, 1)
            .with_rt(rt)
            .with_backend(b)
    };
    let price = |cfg: DartConfig| program(&cfg, profile).map_or(u64::MAX, |p| p.sram_bits());
    pt_slots
        .iter()
        .map(|&pt| {
            let budget = price(sized(8 * pt, pt, Backend::Exact));
            let (rt_ways, pt_ways) = match sized(8 * pt, pt, backend) {
                DartConfig {
                    rt: RtMode::Sketch { ways: r, .. },
                    pt: PtMode::Sketch { ways: p, .. },
                    ..
                } => (r, p),
                _ => (1, 1),
            };
            let at = |r: usize| sized(r - r % rt_ways, r / 8 - r / 8 % pt_ways, backend);
            // Bisect on RT slots, from the smallest whole way sets; no
            // backend's slots cost half the exact ones.
            let (mut fits, mut over) = (8 * pt_ways, 16 * pt + 1);
            while over - fits > 1 {
                let mid = (fits + over) / 2;
                if price(at(mid)) <= budget {
                    fits = mid;
                } else {
                    over = mid;
                }
            }
            at(fits)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_sim::scenario::{campus, CampusConfig};

    fn trace() -> Vec<PacketMeta> {
        campus(CampusConfig {
            connections: 40,
            duration: dart_packet::SECOND,
            seed: 11,
            ..CampusConfig::default()
        })
        .packets
    }

    #[test]
    fn clean_config_is_identity() {
        let t = trace();
        let mut inj = FaultInjector::new(FaultConfig::clean(1));
        let out = inj.apply(t.clone());
        assert_eq!(out, t);
        assert_eq!(inj.log(), FaultLog::default());
    }

    #[test]
    fn same_seed_same_faults() {
        let t = trace();
        let mut a = FaultInjector::new(FaultConfig::stress(42));
        let mut b = FaultInjector::new(FaultConfig::stress(42));
        assert_eq!(a.apply(t.clone()), b.apply(t.clone()));
        assert_eq!(a.log(), b.log());
        let mut c = FaultInjector::new(FaultConfig::stress(43));
        assert_ne!(a.apply(t.clone()), c.apply(t));
    }

    #[test]
    fn faulted_capture_stays_time_sorted_and_log_adds_up() {
        let t = trace();
        let mut inj = FaultInjector::new(FaultConfig::stress(7));
        let out = inj.apply(t.clone());
        assert!(out.windows(2).all(|w| w[0].ts <= w[1].ts));
        let log = inj.log();
        let base = log.truncated_to.unwrap_or(t.len()) as u64;
        assert_eq!(out.len() as u64, base - log.dropped + log.duplicated);
        assert!(log.dropped > 0 && log.duplicated > 0 && log.reordered > 0);
    }

    #[test]
    fn config_faults_hit_their_knobs() {
        let base = DartConfig::default();
        assert_eq!(
            apply_config_fault(base, ConfigFault::RecircExhaustion).max_recirc,
            0
        );
        let tiny = apply_config_fault(base, ConfigFault::TinyTables);
        assert_eq!(tiny.rt, RtMode::Constrained { slots: 64 });
        assert_eq!(
            apply_config_fault(base, ConfigFault::NarrowSignature).sig_width,
            SignatureWidth::W16
        );
    }

    #[test]
    fn backend_sweep_prices_every_backend_to_one_budget() {
        let profile = TargetProfile::tofino1();
        let price = |cfg: &DartConfig| program(cfg, &profile).unwrap().sram_bits();
        let budget = price(&DartConfig::default().with_rt(4096).with_pt(512, 1));
        for backend in [Backend::Exact, Backend::Sketch, Backend::Precision] {
            let cfg = backend_sweep(&profile, &[512], backend)[0];
            assert_eq!(cfg.backend(), backend);
            // One 8 RT + 1 PT step costs about a thousand bits.
            assert!((budget - 1000..=budget).contains(&price(&cfg)), "{cfg:?}");
        }
    }

    #[test]
    fn register_sweep_scales_with_sram_budget() {
        let geometries = [64, 4096, 1 << 16];
        let sweep = backend_sweep(&TargetProfile::tofino1(), &geometries, Backend::Exact);
        // The exact backend gets back the geometry that set its budget.
        for (cfg, pt) in sweep.iter().zip(geometries) {
            assert_eq!(cfg.rt, RtMode::Constrained { slots: 8 * pt });
            assert_eq!(
                cfg.pt,
                PtMode::Constrained {
                    slots: pt,
                    stages: 1
                }
            );
        }
        // Precision pays for its gate out of the same budget.
        let precision = backend_sweep(&TargetProfile::tofino1(), &[4096], Backend::Precision)[0];
        assert!(matches!(precision.pt, PtMode::Constrained { slots, .. } if slots < 4096));
        assert_ne!(precision.admission, dart_core::AdmissionMode::All);
    }
}
