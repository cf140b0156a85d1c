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
//! * **Config faults** ([`ConfigFault`], [`register_sweep`]): doctored
//!   [`DartConfig`]s that force the pressure paths — recirculation-budget
//!   exhaustion, starved tables, narrow signatures — plus register-size
//!   sweeps derived from `dart-switch` [`TargetProfile`] SRAM capacities.

use dart_core::{Backend, DartConfig};
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

/// Bits of one Packet Tracker record in the hardware layout: a 32-bit
/// flow signature, 32-bit eACK, and 48-bit timestamp (paper §4's register
/// triple).
pub const PT_RECORD_BITS: u64 = 32 + 32 + 48;

/// Derive a register-size sweep from a switch target profile: for each
/// fraction of the profile's SRAM notionally granted to the Packet
/// Tracker, size the PT to the largest power of two that fits (and the RT
/// to 8× that, mirroring the default config's RT:PT ratio).
pub fn register_sweep(profile: &TargetProfile, fractions: &[f64]) -> Vec<DartConfig> {
    backend_sweep(profile, fractions, Backend::Exact)
}

/// Bits of one *sketch* Packet Tracker cell: a 32-bit fingerprint plus a
/// 48-bit timestamp. The eACK is folded into the fingerprint instead of
/// stored, so a sketch cell costs 80/112 ≈ 0.71× an exact record — the
/// memory side of the accuracy-vs-memory frontier.
pub const PT_SKETCH_CELL_BITS: u64 = 32 + 48;

/// [`register_sweep`] generalised over flow-state backends: the same SRAM
/// fractions, but each backend's own cell cost decides how many slots the
/// budget buys (sketch cells are smaller, so an equal budget holds more of
/// them), and every config is normalised through
/// [`DartConfig::with_backend`]. Configs at the same index across backends
/// occupy the *same* SRAM budget, which is what makes frontier points
/// comparable.
pub fn backend_sweep(
    profile: &TargetProfile,
    fractions: &[f64],
    backend: Backend,
) -> Vec<DartConfig> {
    let cell_bits = match backend {
        Backend::Sketch => PT_SKETCH_CELL_BITS,
        Backend::Exact | Backend::Precision => PT_RECORD_BITS,
    };
    fractions
        .iter()
        .map(|&frac| {
            let budget = (profile.sram_bits as f64 * frac) as u64;
            let raw_slots = (budget / cell_bits).max(2);
            let pt_slots = 1usize << (63 - raw_slots.leading_zeros());
            DartConfig::default()
                .with_pt(pt_slots, 1)
                .with_rt(pt_slots.saturating_mul(8))
                .with_backend(backend)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_core::RtMode;
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
    fn backend_sweep_buys_more_sketch_slots_for_equal_sram() {
        let fracs = [0.01, 0.1];
        let exact = backend_sweep(&TargetProfile::tofino1(), &fracs, Backend::Exact);
        let sketch = backend_sweep(&TargetProfile::tofino1(), &fracs, Backend::Sketch);
        for (e, s) in exact.iter().zip(&sketch) {
            let e_slots = match e.pt {
                dart_core::PtMode::Constrained { slots, .. } => slots,
                other => panic!("exact sweep produced {other:?}"),
            };
            let s_slots = match s.pt {
                dart_core::PtMode::Sketch { slots, .. } => slots,
                other => panic!("sketch sweep produced {other:?}"),
            };
            // Equal budget, smaller cells: never fewer slots, and the
            // 112/80 ratio crosses a power of two at least somewhere.
            assert!(s_slots >= e_slots);
        }
        // Precision shares the exact geometry; only admission differs.
        let precision = backend_sweep(&TargetProfile::tofino1(), &fracs, Backend::Precision);
        for (e, p) in exact.iter().zip(&precision) {
            assert_eq!(e.pt, p.pt);
            assert_eq!(e.rt, p.rt);
            assert_ne!(p.admission, dart_core::AdmissionMode::All);
        }
    }

    #[test]
    fn register_sweep_scales_with_sram_budget() {
        let sweep = register_sweep(&TargetProfile::tofino1(), &[0.01, 0.1, 0.5]);
        assert_eq!(sweep.len(), 3);
        let slots: Vec<usize> = sweep
            .iter()
            .map(|c| match c.pt {
                dart_core::PtMode::Constrained { slots, .. } => slots,
                _ => panic!("sweep must be constrained"),
            })
            .collect();
        assert!(slots[0] < slots[1] && slots[1] < slots[2]);
        assert!(slots.iter().all(|s| s.is_power_of_two()));
        // 10% of Tofino 1 SRAM ≈ 12.6 Mb / 112 b ≈ 112k records → 2^16.
        assert_eq!(slots[1], 1 << 16);
    }
}
