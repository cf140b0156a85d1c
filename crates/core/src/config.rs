//! Configuration of a Dart engine instance.

use dart_packet::{Direction, Nanos, PacketMeta, SignatureWidth};

/// Whether handshake packets (SYN / SYN-ACK) are monitored.
///
/// Skipping them (`Skip`, the deployed default) makes Dart robust to SYN
/// floods and saves Range Tracker memory for the 72.5% of campus connections
/// that never complete a handshake, at the cost of ~4% of samples (paper
/// §3.1, Fig. 10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SynPolicy {
    /// Track SYN/SYN-ACK like data packets (`+SYN` in Fig. 9/10).
    Include,
    /// Ignore any packet with the SYN flag (`-SYN`, the default).
    #[default]
    Skip,
}

impl SynPolicy {
    /// True when `pkt` is a handshake packet this policy ignores: the one
    /// SYN rule every engine that honours the policy applies.
    #[inline]
    pub fn skips(self, pkt: &PacketMeta) -> bool {
        self == SynPolicy::Skip && pkt.is_syn()
    }
}

/// Which leg of the path is measured (paper §2.1, Fig. 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Leg {
    /// Monitor ↔ Internet: data outbound, ACKs inbound (the paper's §6
    /// evaluation setting).
    #[default]
    External,
    /// Campus host ↔ monitor: data inbound, ACKs outbound (§5's wired vs
    /// wireless experiment).
    Internal,
    /// Both legs simultaneously; dual-role packets cost one recirculation
    /// each, as in the hardware prototype (§5).
    Both,
}

impl Leg {
    /// True when a data packet traveling `dir` plays the SEQ role on this
    /// leg: the one leg→role rule every engine applies.
    #[inline]
    pub fn seq_role(self, dir: Direction) -> bool {
        match self {
            Leg::External => dir == Direction::Outbound,
            Leg::Internal => dir == Direction::Inbound,
            Leg::Both => true,
        }
    }

    /// True when an ACK traveling `dir` plays the ACK role on this leg.
    #[inline]
    pub fn ack_role(self, dir: Direction) -> bool {
        match self {
            Leg::External => dir == Direction::Inbound,
            Leg::Internal => dir == Direction::Outbound,
            Leg::Both => true,
        }
    }
}

/// Range Tracker sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtMode {
    /// Fully associative, unbounded: the `tcptrace_const` idealization
    /// used as the §6 baseline.
    Unlimited,
    /// A one-way associative hash table of `slots` entries, as on hardware.
    Constrained {
        /// Number of slots.
        slots: usize,
    },
    /// A DUNE-style set-associative sketch of `slots` total entries split
    /// across `ways` independently hashed ways, with recency-based
    /// eviction: a new flow landing on a fully occupied way set overwrites
    /// the least-recently-touched occupant instead of being rejected. Under
    /// churn this reclaims slots leaked to dead flows, carrying about 10×
    /// the population an exact table of the same SRAM was sized for at the
    /// cost of bounded, *counted* sample loss
    /// ([`crate::EngineStats::sketch_overwritten`]).
    Sketch {
        /// Total entries across all ways.
        slots: usize,
        /// Number of ways (1 or 2; each way is its own hash function).
        ways: usize,
    },
}

/// Packet Tracker sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtMode {
    /// Fully associative, unbounded.
    Unlimited,
    /// `slots` total entries divided evenly across `stages` one-way
    /// associative stages (paper §6.2).
    Constrained {
        /// Total slots across all stages.
        slots: usize,
        /// Number of stages (1 = the Tofino 1 layout).
        stages: usize,
    },
    /// A compact fingerprint sketch: `slots` cells of `(fingerprint, ts)`
    /// pairs — two 32-bit registers where the exact record has three —
    /// split across `ways` hashed ways. Insertion into a full way set overwrites the
    /// oldest-timestamp cell (counted, never recirculated); matching
    /// verifies the fingerprint before emitting a sample.
    Sketch {
        /// Total cells across all ways.
        slots: usize,
        /// Number of ways (each with its own hash function).
        ways: usize,
    },
}

/// How evicted Packet Tracker records are admitted to the recirculation
/// port (the `dart@precision` backend's probabilistic-recirculation gate,
/// after Ben Basat et al.).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AdmissionMode {
    /// Every eviction may recirculate (subject only to the recirc cap and
    /// analytics filter) — the paper's behaviour and the default.
    #[default]
    All,
    /// Spend the recirculation budget only on flows surviving a seeded
    /// coin flip, with a CMS-backed heavy-hitter bypass so elephant flows
    /// keep their in-flight measurements deterministically.
    Probabilistic {
        /// Coin-flip survival is `2^-sample_shift` (e.g. 3 → 1/8 of
        /// evictions recirculate).
        sample_shift: u32,
        /// Number of flows tracked as heavy hitters (admitted regardless of
        /// the coin flip). Zero disables the bypass.
        hh_capacity: usize,
        /// Seed for the deterministic coin flip (and CMS hashing).
        seed: u64,
    },
}

/// Which flow-state backend family a config describes — a convenience view
/// over [`RtMode`]/[`PtMode`]/[`AdmissionMode`] used by the registry and
/// CLI (`--backend exact|sketch|precision`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Backend {
    /// Exact register tables (the reference implementation).
    #[default]
    Exact,
    /// Sketch RT/PT (recency-aged, fingerprint cells).
    Sketch,
    /// Exact tables + probabilistic recirculation admission.
    Precision,
}

impl Backend {
    /// The registry name of the serial Dart engine over this backend.
    pub fn engine_name(self) -> &'static str {
        match self {
            Backend::Exact => "dart",
            Backend::Sketch => "dart@sketch",
            Backend::Precision => "dart@precision",
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Backend, String> {
        match s {
            "exact" => Ok(Backend::Exact),
            "sketch" => Ok(Backend::Sketch),
            "precision" => Ok(Backend::Precision),
            other => Err(format!(
                "unknown backend {other:?} (expected exact|sketch|precision)"
            )),
        }
    }
}

/// Honours width and alignment (`{:<9}`), so tables can pad the name.
impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            Backend::Exact => "exact",
            Backend::Sketch => "sketch",
            Backend::Precision => "precision",
        })
    }
}

/// Full engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct DartConfig {
    /// Handshake policy.
    pub syn_policy: SynPolicy,
    /// Measured leg.
    pub leg: Leg,
    /// Range Tracker mode.
    pub rt: RtMode,
    /// Packet Tracker mode.
    pub pt: PtMode,
    /// Flow-signature width in constrained tables.
    pub sig_width: SignatureWidth,
    /// Maximum recirculations per evicted record (paper §3.2's safeguard;
    /// swept in Fig. 13). Zero disables recirculation entirely.
    pub max_recirc: u32,
    /// Delay before a recirculated record re-enters the ingress pipeline.
    pub recirc_delay: Nanos,
    /// Slots in the small fully-associative victim cache holding evicted
    /// records before they cost a recirculation (§3.2/§7's "small cache of
    /// heavy flows after the RT"). Zero disables the cache.
    pub victim_cache: usize,
    /// Enable the §7 recirculation-avoidance approximation: evicted records
    /// are validated against a *copy* of the Range Tracker placed after the
    /// Packet Tracker instead of recirculating. The copy lags the original
    /// by this sync delay, so validation is approximate — it trades
    /// recirculation bandwidth for memory and a little accuracy.
    pub rt_copy_sync: Option<Nanos>,
    /// Recirculation admission policy (the `precision` backend's gate).
    pub admission: AdmissionMode,
}

impl Default for DartConfig {
    /// The paper's chosen operating point: `-SYN`, external leg, large RT,
    /// 2^17-slot single-stage PT, one recirculation allowed.
    fn default() -> Self {
        DartConfig {
            syn_policy: SynPolicy::Skip,
            leg: Leg::External,
            rt: RtMode::Constrained { slots: 1 << 20 },
            pt: PtMode::Constrained {
                slots: 1 << 17,
                stages: 1,
            },
            sig_width: SignatureWidth::W32,
            max_recirc: 1,
            recirc_delay: 10_000, // 10 µs: a handful of pipeline passes
            victim_cache: 0,
            rt_copy_sync: None,
            admission: AdmissionMode::All,
        }
    }
}

impl DartConfig {
    /// The unlimited-memory idealization (`tcptrace_const`): fully
    /// associative RT and PT, no evictions, no recirculations.
    pub fn unlimited() -> DartConfig {
        DartConfig {
            rt: RtMode::Unlimited,
            pt: PtMode::Unlimited,
            ..DartConfig::default()
        }
    }

    /// Builder-style: set the SYN policy.
    pub fn with_syn(mut self, p: SynPolicy) -> Self {
        self.syn_policy = p;
        self
    }

    /// Builder-style: set the measured leg.
    pub fn with_leg(mut self, leg: Leg) -> Self {
        self.leg = leg;
        self
    }

    /// Builder-style: constrained PT with `slots` total and `stages` stages.
    pub fn with_pt(mut self, slots: usize, stages: usize) -> Self {
        assert!(stages >= 1, "PT needs at least one stage");
        assert!(slots >= stages, "PT needs at least one slot per stage");
        self.pt = PtMode::Constrained { slots, stages };
        self
    }

    /// Builder-style: constrained RT with `slots` entries.
    pub fn with_rt(mut self, slots: usize) -> Self {
        assert!(slots >= 1, "RT needs at least one slot");
        self.rt = RtMode::Constrained { slots };
        self
    }

    /// Builder-style: set the recirculation cap.
    pub fn with_max_recirc(mut self, n: u32) -> Self {
        self.max_recirc = n;
        self
    }

    /// Builder-style: enable the victim cache with `slots` entries.
    pub fn with_victim_cache(mut self, slots: usize) -> Self {
        self.victim_cache = slots;
        self
    }

    /// Builder-style: enable the RT-copy approximation with the given sync
    /// delay.
    pub fn with_rt_copy(mut self, sync: Nanos) -> Self {
        self.rt_copy_sync = Some(sync);
        self
    }

    /// Builder-style: set the recirculation admission policy.
    pub fn with_admission(mut self, admission: AdmissionMode) -> Self {
        self.admission = admission;
        self
    }

    /// Builder-style: switch the flow-state backend family, keeping the
    /// configured slot budgets. `Sketch` converts both constrained tables
    /// into their sketch counterparts (RT 2-way, PT 4-way, clamped to the
    /// slot count); `Precision` keeps exact tables and turns on the default
    /// probabilistic admission gate (1/8 coin flip, 64 heavy hitters);
    /// `Exact` reverts both.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        // Normalise back to exact tables first so the conversion is
        // idempotent and composable with the sizing builders.
        if let RtMode::Sketch { slots, .. } = self.rt {
            self.rt = RtMode::Constrained { slots };
        }
        if let PtMode::Sketch { slots, ways } = self.pt {
            self.pt = PtMode::Constrained {
                slots,
                stages: ways,
            };
        }
        self.admission = AdmissionMode::All;
        match backend {
            Backend::Exact => {}
            Backend::Sketch => {
                if let RtMode::Constrained { slots } = self.rt {
                    self.rt = RtMode::Sketch {
                        slots,
                        ways: 2.min(slots),
                    };
                }
                if let PtMode::Constrained { slots, .. } = self.pt {
                    self.pt = PtMode::Sketch {
                        slots,
                        ways: 4.min(slots),
                    };
                }
            }
            Backend::Precision => {
                self.admission = AdmissionMode::Probabilistic {
                    sample_shift: 3,
                    hh_capacity: 64,
                    seed: 0xDA27_AD31,
                };
            }
        }
        self
    }

    /// The backend family this config describes (drives the engine's
    /// registry name: `dart`, `dart@sketch`, `dart@precision`).
    pub fn backend(&self) -> Backend {
        let sketchy =
            matches!(self.rt, RtMode::Sketch { .. }) || matches!(self.pt, PtMode::Sketch { .. });
        if sketchy {
            Backend::Sketch
        } else if self.admission != AdmissionMode::All {
            Backend::Precision
        } else {
            Backend::Exact
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_operating_point() {
        let c = DartConfig::default();
        assert_eq!(c.syn_policy, SynPolicy::Skip);
        assert_eq!(c.leg, Leg::External);
        assert_eq!(
            c.pt,
            PtMode::Constrained {
                slots: 1 << 17,
                stages: 1
            }
        );
        assert_eq!(c.max_recirc, 1);
    }

    #[test]
    fn unlimited_has_no_tables() {
        let c = DartConfig::unlimited();
        assert_eq!(c.rt, RtMode::Unlimited);
        assert_eq!(c.pt, PtMode::Unlimited);
    }

    #[test]
    fn external_leg_roles() {
        assert!(Leg::External.seq_role(Direction::Outbound));
        assert!(!Leg::External.seq_role(Direction::Inbound));
        assert!(Leg::External.ack_role(Direction::Inbound));
        assert!(!Leg::External.ack_role(Direction::Outbound));
    }

    #[test]
    fn internal_leg_roles_are_mirrored() {
        assert!(Leg::Internal.seq_role(Direction::Inbound));
        assert!(Leg::Internal.ack_role(Direction::Outbound));
        assert!(!Leg::Internal.seq_role(Direction::Outbound));
    }

    #[test]
    fn both_legs_activate_everything() {
        for d in [Direction::Inbound, Direction::Outbound] {
            assert!(Leg::Both.seq_role(d));
            assert!(Leg::Both.ack_role(d));
        }
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_rejected() {
        DartConfig::default().with_pt(1024, 0);
    }
}
