//! Resource-usage estimation: program layout × target profile → the
//! percentage report of Table 1 and the placement verdict.

use crate::placement::{place, PlacementError};
use crate::profile::TargetProfile;
use crate::program::{ProgramSpec, TableKind};
use std::fmt;

/// Percentage usage of each resource class, as Table 1 reports, and where
/// the tables landed.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceReport {
    /// TCAM bits used / available.
    pub tcam_pct: f64,
    /// SRAM bits used / available.
    pub sram_pct: f64,
    /// Hash units used / available.
    pub hash_units_pct: f64,
    /// Logical table IDs used / available.
    pub logical_tables_pct: f64,
    /// Input-crossbar bytes used / available.
    pub crossbar_pct: f64,
    /// Pipeline stages the placement used, or why the tables do not place.
    pub placement: Result<usize, PlacementError>,
    /// Pipeline stages the target has.
    pub stages: u32,
}

impl ResourceReport {
    /// The one fit verdict: every resource class within the target's
    /// totals, and every table placed in its stages.
    pub fn fits(&self) -> bool {
        self.placement.is_ok()
            && [
                self.tcam_pct,
                self.sram_pct,
                self.hash_units_pct,
                self.logical_tables_pct,
                self.crossbar_pct,
            ]
            .iter()
            .all(|&p| p <= 100.0)
    }

    /// [`ResourceReport::fits`] in words: the stages used, or what does
    /// not fit.
    pub fn verdict(&self) -> String {
        match (&self.placement, self.fits()) {
            (Ok(n), true) => format!("fits, {n} of {} stages used", self.stages),
            (Ok(_), false) => "does not fit: over the target's totals".to_string(),
            (Err(e), _) => format!("does not fit: {e}"),
        }
    }
}

impl fmt::Display for ResourceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TCAM            {:5.1}%", self.tcam_pct)?;
        writeln!(f, "SRAM            {:5.1}%", self.sram_pct)?;
        writeln!(f, "Hash Units      {:5.1}%", self.hash_units_pct)?;
        writeln!(f, "Logical Tables  {:5.1}%", self.logical_tables_pct)?;
        write!(f, "Input Crossbars {:5.1}%", self.crossbar_pct)
    }
}

/// Estimate resource usage of `prog` on `target`, and place it.
pub fn estimate(prog: &ProgramSpec, target: &TargetProfile) -> ResourceReport {
    let sram = prog.sram_bits();
    let tcam: u64 = prog.tables.iter().map(|t| t.tcam_bits()).sum();
    let hash: u32 = prog.hash_units();
    let logical: u32 = prog.logical_tables();
    // Crossbar: match keys must be presented to the stage's input crossbar.
    // Register pairs sharing a key still pay per table (conservative).
    let crossbar: u64 = prog
        .tables
        .iter()
        .filter(|t| t.kind != TableKind::Action)
        .map(|t| t.crossbar_bytes())
        .sum();
    let pct = |used: f64, avail: f64| {
        if avail == 0.0 {
            0.0
        } else {
            used / avail * 100.0
        }
    };
    ResourceReport {
        tcam_pct: pct(tcam as f64, target.tcam_bits as f64),
        sram_pct: pct(sram as f64, target.sram_bits as f64),
        hash_units_pct: pct(hash as f64, target.hash_units as f64),
        logical_tables_pct: pct(logical as f64, target.logical_tables as f64),
        crossbar_pct: pct(crossbar as f64, target.crossbar_bytes as f64),
        placement: place(prog, target).map(|p| p.stages_used()),
        stages: target.stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::TableSpec;

    #[test]
    fn empty_program_uses_nothing() {
        let r = estimate(&ProgramSpec::new("empty"), &TargetProfile::tofino1());
        assert_eq!(r.tcam_pct, 0.0);
        assert_eq!(r.sram_pct, 0.0);
        assert!(r.fits());
    }

    #[test]
    fn oversized_program_does_not_fit() {
        let prog = ProgramSpec::new("huge").with(TableSpec::register("r", 1 << 26, 104, 32));
        let r = estimate(&prog, &TargetProfile::tofino1());
        assert!(!r.fits());
        assert!(r.sram_pct > 100.0);
        assert_eq!(
            r.verdict(),
            "does not fit: table r exceeds one stage's capacity"
        );
    }

    #[test]
    fn report_displays_all_rows() {
        let prog = ProgramSpec::new("two")
            .with(TableSpec::register("r", 1024, 104, 32))
            .with(TableSpec::ternary("t", 512, 104, 16));
        let s = estimate(&prog, &TargetProfile::tofino2()).to_string();
        for label in [
            "TCAM",
            "SRAM",
            "Hash Units",
            "Logical Tables",
            "Input Crossbars",
        ] {
            assert!(s.contains(label));
        }
    }
}
