//! The Dart data-plane program of an engine configuration: the one
//! description of it that Table 1, `dartmon resources` and the memory
//! frontier price.

use crate::config::{AdmissionMode, DartConfig, PtMode, RtMode};
use crate::packet_tracker::PT_REGISTERS;
use crate::range_tracker::RT_REGISTERS;
use crate::sketch::{CMS_DEPTH, CMS_WIDTH, SKETCH_PT_REGISTERS, SKETCH_RT_REGISTERS};
use dart_switch::{ProgramSpec, TableSpec, TargetProfile};
use std::fmt;

/// Why a configuration has no data-plane program: the named table is
/// unlimited, a software idealization no switch can hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unlimited(pub &'static str);

impl fmt::Display for Unlimited {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "the unlimited {} has no data-plane program", self.0)
    }
}

/// The data-plane program `cfg` runs on `target` (§4): every table
/// [`DartEngine::new`](crate::DartEngine::new) allocates, as the registers
/// its trackers declare in SALU stage order, chained from the RT through
/// every PT stage or way to the §7 victim cache and RT copy and the
/// `precision` backend's admission gate. Then the fixed tables: the
/// payload-size lookup table, the operator's flow-selection rules, the
/// analytics registers, the small action tables and, where the target
/// spans egress, the bridging and reporting machinery that costs.
pub fn program(cfg: &DartConfig, target: &TargetProfile) -> Result<ProgramSpec, Unlimited> {
    // An RT register hashes the 4-tuple, a PT register the eACK too.
    const RT_KEY: u32 = 104;
    const PT_KEY: u32 = 136;
    let sig = cfg.sig_width.bits();
    let mut prog = ProgramSpec::new(cfg.backend().engine_name());
    // Chain `regs` once per suffix, `entries` slots each. Every register is
    // one 32-bit SALU register but a `*_sig` one, as wide as the signature.
    let mut chain = |regs: &[&str], suffixes: &[String], entries: usize, key_bits: u32| {
        for suffix in suffixes {
            for reg in regs {
                let bits = if reg.ends_with("_sig") { sig } else { 32 };
                let t =
                    TableSpec::register(&format!("{reg}{suffix}"), entries as u64, key_bits, bits);
                prog = std::mem::take(&mut prog).chained(t);
            }
        }
    };
    let indexed = |n: usize| (0..n).map(|i| format!("_{i}")).collect::<Vec<_>>();
    let rt_slots = match cfg.rt {
        RtMode::Unlimited => return Err(Unlimited("RT")),
        RtMode::Constrained { slots } => {
            chain(&RT_REGISTERS, &[String::new()], slots, RT_KEY);
            slots
        }
        RtMode::Sketch { slots, ways } => {
            chain(&SKETCH_RT_REGISTERS, &indexed(ways), slots / ways, RT_KEY);
            slots
        }
    };
    match cfg.pt {
        PtMode::Unlimited => return Err(Unlimited("PT")),
        PtMode::Constrained { slots, stages } => {
            chain(&PT_REGISTERS, &indexed(stages), slots / stages, PT_KEY)
        }
        PtMode::Sketch { slots, ways } => {
            chain(&SKETCH_PT_REGISTERS, &indexed(ways), slots / ways, PT_KEY)
        }
    }
    // An evicted record meets these in the engine's order.
    if cfg.victim_cache > 0 {
        chain(&PT_REGISTERS, &["_victim".into()], cfg.victim_cache, PT_KEY);
    }
    if cfg.rt_copy_sync.is_some() {
        chain(&RT_REGISTERS, &["_copy".into()], rt_slots, RT_KEY);
    }
    if let AdmissionMode::Probabilistic { hh_capacity, .. } = cfg.admission {
        chain(&["gate_cms"], &indexed(CMS_DEPTH), CMS_WIDTH, sig);
        if hh_capacity > 0 {
            let hh = ["gate_hh_sig", "gate_hh_count"];
            chain(&hh, &[String::new()], hh_capacity, sig);
        }
    }
    prog = prog
        .with(TableSpec::exact("payload_size_lut", 15851, 26, 16))
        .with(TableSpec::ternary("flow_select", 2048, 104, 16))
        .chained(TableSpec::register("an_min_rtt", 4096, 32, 32))
        .chained(TableSpec::register("an_window", 4096, 32, 32))
        .with_actions("ig_ctl", 38);
    if target.spans_egress {
        prog = prog
            .with_actions("eg_ctl", 30)
            .with(TableSpec::exact("mirror_sessions", 256, 16, 32))
            .with(TableSpec::ternary("eg_report_filter", 1024, 104, 8));
    }
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Backend;
    use dart_switch::{estimate, place};

    /// The paper's two builds (Table 1).
    fn built(i: usize) -> (ProgramSpec, TargetProfile) {
        let (cfg, target) = [
            (
                DartConfig::default().with_rt(1 << 16),
                TargetProfile::tofino1(),
            ),
            (
                DartConfig::default().with_rt(1 << 14).with_pt(1 << 14, 1),
                TargetProfile::tofino2(),
            ),
        ][i];
        (program(&cfg, &target).unwrap(), target)
    }

    fn bits(prog: &ProgramSpec, prefix: &str) -> u64 {
        prog.tables
            .iter()
            .filter(|t| t.name.starts_with(prefix))
            .map(|t| t.entries * u64::from(t.value_bits))
            .sum()
    }

    #[test]
    fn dart_program_has_rt_and_pt() {
        let p = program(&DartConfig::default(), &TargetProfile::tofino2()).unwrap();
        assert!(p.tables.iter().any(|t| t.name == "rt_sig"));
        assert!(p.tables.iter().any(|t| t.name == "pt_ts_0"));
        assert!(p.tables.iter().any(|t| t.name == "payload_size_lut"));
    }

    #[test]
    fn multi_stage_pt_splits_entries() {
        let cfg = DartConfig::default().with_pt(1 << 17, 8);
        let p = program(&cfg, &TargetProfile::tofino2()).unwrap();
        let pt_sigs: Vec<_> = p
            .tables
            .iter()
            .filter(|t| t.name.starts_with("pt_sig"))
            .collect();
        assert_eq!(pt_sigs.len(), 8);
        assert_eq!(pt_sigs[0].entries, (1 << 17) / 8);
    }

    #[test]
    fn egress_span_costs_more_tables() {
        let cfg = DartConfig::default();
        let t2 = program(&cfg, &TargetProfile::tofino2()).unwrap();
        let t1 = program(&cfg, &TargetProfile::tofino1()).unwrap();
        assert!(t1.logical_tables() > t2.logical_tables());
    }

    #[test]
    fn dart_program_places_on_tofino1() {
        let (prog, target) = built(0);
        let placement = place(&prog, &target).expect("fits");
        assert!(placement.stages_used() <= 12);
        // §4: RT and PT each spread across 3 stages, in the order their
        // SALU chains access them: `rt_salu` maxes the right edge before
        // it decides the left, `pt_salu` swaps sig, eACK, then ts.
        let stage = |t: &str| placement.stage_of(t).unwrap();
        assert!(stage("rt_sig") < stage("rt_right"));
        assert!(stage("rt_right") < stage("rt_left"));
        assert!(
            stage("pt_sig_0") > stage("rt_left"),
            "PT must follow the RT"
        );
        assert!(stage("pt_sig_0") < stage("pt_eack_0"));
        assert!(stage("pt_eack_0") < stage("pt_ts_0"));
    }

    #[test]
    fn registers_place_in_salu_order() {
        // The default config but for an RT small enough to place: its
        // 2^20-slot registers each exceed a stage.
        let cfg = DartConfig::default().with_rt(1 << 14).with_pt(1 << 12, 2);
        let target = TargetProfile::tofino2();
        let placement = place(&program(&cfg, &target).unwrap(), &target).unwrap();
        let order = [
            "rt_sig",
            "rt_right",
            "rt_left",
            "pt_sig_0",
            "pt_eack_0",
            "pt_ts_0",
            "pt_sig_1",
            "pt_eack_1",
            "pt_ts_1",
        ];
        let stages: Vec<usize> = order
            .iter()
            .map(|t| placement.stage_of(t).unwrap())
            .collect();
        assert!(stages.windows(2).all(|w| w[0] < w[1]), "{stages:?}");
        let default = program(&DartConfig::default(), &target).unwrap();
        assert!(place(&default, &target).is_err());
    }

    #[test]
    fn dart_fits_both_targets() {
        for i in 0..2 {
            let (prog, target) = built(i);
            let r = estimate(&prog, &target);
            assert!(r.fits(), "{}: {r}\n{}", target.name, r.verdict());
        }
    }

    #[test]
    fn tofino1_uses_relatively_more_than_tofino2() {
        // Table 1's qualitative shape: the Tofino 1 build is more resource
        // hungry in SRAM/TCAM/logical tables than the Tofino 2 build.
        let [t1, t2] = [0, 1].map(|i| {
            let (prog, target) = built(i);
            estimate(&prog, &target)
        });
        assert!(t1.sram_pct > t2.sram_pct);
        assert!(t1.tcam_pct > t2.tcam_pct);
        assert!(t1.logical_tables_pct > t2.logical_tables_pct);
    }

    #[test]
    fn every_allocated_table_is_charged() {
        let target = TargetProfile::tofino1();
        let base = DartConfig::default().with_rt(4096).with_pt(512, 1);
        let exact = program(&base, &target).unwrap();
        // Three registers per RT slot and per PT slot, 32 bits each.
        assert_eq!(bits(&exact, "rt_") + bits(&exact, "pt_"), 442_368);
        let sketch = program(&base.with_backend(Backend::Sketch), &target).unwrap();
        // Two RT ways of four registers, four PT ways of two.
        assert_eq!(bits(&sketch, "rt_"), 4096 * 4 * 32);
        assert_eq!(bits(&sketch, "pt_"), 512 * 2 * 32);
        assert!(sketch.tables.iter().any(|t| t.name == "rt_recency_1"));
        assert!(sketch.tables.iter().any(|t| t.name == "pt_fp_3"));
        let precision = program(&base.with_backend(Backend::Precision), &target).unwrap();
        assert_eq!(bits(&precision, "gate_"), 2 * 512 * 32 + 64 * (32 + 32));
        let extras = program(&base.with_victim_cache(8).with_rt_copy(1_000), &target).unwrap();
        assert_eq!(bits(&extras, "pt_") - bits(&exact, "pt_"), 8 * 3 * 32);
        assert_eq!(bits(&extras, "rt_"), 2 * bits(&exact, "rt_"));
        let wide = DartConfig {
            sig_width: dart_packet::SignatureWidth::W64,
            ..base
        };
        let wide = program(&wide, &target).unwrap();
        assert_eq!(bits(&wide, "rt_sig"), 4096 * 64);
    }

    #[test]
    fn unlimited_tables_have_no_program() {
        let target = TargetProfile::tofino2();
        assert_eq!(
            program(&DartConfig::unlimited(), &target).unwrap_err(),
            Unlimited("RT")
        );
        let cfg = DartConfig {
            pt: PtMode::Unlimited,
            ..DartConfig::default()
        };
        assert_eq!(
            program(&cfg, &target).unwrap_err().to_string(),
            "the unlimited PT has no data-plane program"
        );
    }
}
