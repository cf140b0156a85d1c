//! Stage placement: assign a program's logical tables to physical
//! match-action stages, honoring the constraints the paper's §4 grapples
//! with — sequential dependencies ("memory once accessed cannot be
//! revisited without recirculation") and per-stage capacity.
//!
//! The placer is a greedy first-fit over the program's table list: each
//! table goes in the earliest stage after its predecessor in the program's
//! chain with room left. Dart's RT and PT "spread across 3 component
//! tables, and therefore 3 stages" (§4) falls out of the chain their
//! registers form.

use crate::profile::TargetProfile;
use crate::program::ProgramSpec;
use std::collections::BTreeMap;
use std::fmt;

/// The result of placing a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// `stage[i]` lists the table names placed in physical stage `i`.
    pub stages: Vec<Vec<String>>,
}

impl Placement {
    /// Number of stages actually used.
    pub fn stages_used(&self) -> usize {
        self.stages.len()
    }

    /// The stage index a table landed in.
    pub fn stage_of(&self, table: &str) -> Option<usize> {
        self.stages
            .iter()
            .position(|s| s.iter().any(|t| t == table))
    }
}

/// Placement failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// The program needs more stages than the target offers.
    OutOfStages {
        /// Stages required.
        needed: usize,
        /// Stages available.
        available: u32,
    },
    /// A single table exceeds a stage's capacity outright.
    TableTooLarge {
        /// The offending table.
        table: String,
    },
    /// The chain names a table the program does not have.
    UnknownTable {
        /// The missing name.
        table: String,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::OutOfStages { needed, available } => {
                write!(f, "needs {needed} stages, the target has {available}")
            }
            PlacementError::TableTooLarge { table } => {
                write!(f, "table {table} exceeds one stage's capacity")
            }
            PlacementError::UnknownTable { table } => {
                write!(f, "the chain names unknown table {table}")
            }
        }
    }
}

/// What one stage holds, or may hold.
#[derive(Default, Clone, Copy)]
struct StageUse {
    sram: u64,
    tcam: u64,
    hash: u32,
    tables: u32,
}

/// Greedy first-fit placement of `prog` onto `target`, each chained table
/// strictly after its predecessor in `prog.chain`.
pub fn place(prog: &ProgramSpec, target: &TargetProfile) -> Result<Placement, PlacementError> {
    if let Some(name) = prog
        .chain
        .iter()
        .find(|&name| !prog.tables.iter().any(|t| &t.name == name))
    {
        return Err(PlacementError::UnknownTable {
            table: name.clone(),
        });
    }
    // An even split of the target. The calibrated profiles count hash
    // capacity in coarse blocks (see `TargetProfile` docs); physically each
    // stage offers at least four 52-bit slices.
    let limit = StageUse {
        sram: target.sram_bits / target.stages as u64,
        tcam: target.tcam_bits / target.stages as u64,
        hash: (target.hash_units / target.stages).max(4),
        tables: (target.logical_tables / target.stages).max(1),
    };
    let mut stage_of: BTreeMap<&str, usize> = BTreeMap::new();
    let mut usage: Vec<StageUse> = Vec::new();
    let fits = |u: &StageUse, t: &crate::program::TableSpec| {
        u.sram + t.sram_bits() <= limit.sram
            && u.tcam + t.tcam_bits() <= limit.tcam
            && u.hash + t.hash_units <= limit.hash
            && u.tables < limit.tables
    };
    for t in &prog.tables {
        // Earliest admissible stage: strictly after its chain predecessor.
        let min_stage = prog
            .chain
            .windows(2)
            .find(|w| w[1] == t.name)
            .and_then(|w| stage_of.get(w[0].as_str()))
            .map_or(0, |s| s + 1);
        // Single-table feasibility.
        if !fits(&StageUse::default(), t) {
            return Err(PlacementError::TableTooLarge {
                table: t.name.clone(),
            });
        }
        let mut s = min_stage;
        loop {
            if s >= usage.len() {
                usage.resize(s + 1, StageUse::default());
            }
            if fits(&usage[s], t) {
                usage[s].sram += t.sram_bits();
                usage[s].tcam += t.tcam_bits();
                usage[s].hash += t.hash_units;
                usage[s].tables += 1;
                stage_of.insert(&t.name, s);
                break;
            }
            s += 1;
        }
    }
    let used = usage.len();
    if used > target.stages as usize {
        return Err(PlacementError::OutOfStages {
            needed: used,
            available: target.stages,
        });
    }
    let mut stages = vec![Vec::new(); used];
    for t in &prog.tables {
        stages[stage_of[t.name.as_str()]].push(t.name.clone());
    }
    Ok(Placement { stages })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::TableSpec;

    #[test]
    fn multi_stage_pt_extends_the_chain() {
        // Three PT stages of three chained registers each.
        let mut prog = ProgramSpec::new("pt");
        for s in 0..3 {
            for part in ["pt_sig", "pt_eack", "pt_ts"] {
                prog = prog.chained(TableSpec::register(
                    &format!("{part}_{s}"),
                    1 << 10,
                    136,
                    32,
                ));
            }
        }
        let placement = place(&prog, &TargetProfile::tofino2()).expect("fits");
        // Each added PT stage costs 3 more pipeline stages in this layout.
        let first = placement.stage_of("pt_sig_0").unwrap();
        let last = placement.stage_of("pt_ts_2").unwrap();
        assert!(last >= first + 8);
    }

    #[test]
    fn dependency_on_unknown_table_errors() {
        let mut prog = ProgramSpec::new("x").chained(TableSpec::action("a"));
        prog.chain.push("ghost".into());
        assert_eq!(
            place(&prog, &TargetProfile::tofino1()),
            Err(PlacementError::UnknownTable {
                table: "ghost".into()
            })
        );
    }

    #[test]
    fn oversized_chain_runs_out_of_stages() {
        // A chain of 15 dependent actions cannot fit 12 stages.
        let mut prog = ProgramSpec::new("chain");
        for i in 0..15 {
            prog = prog.chained(TableSpec::action(&format!("t{i}")));
        }
        match place(&prog, &TargetProfile::tofino1()) {
            Err(PlacementError::OutOfStages { needed, available }) => {
                assert_eq!(needed, 15);
                assert_eq!(available, 12);
            }
            other => panic!("expected OutOfStages, got {other:?}"),
        }
    }

    #[test]
    fn giant_table_rejected_outright() {
        let prog = ProgramSpec::new("big").with(TableSpec::register("huge", 1 << 26, 104, 32));
        match place(&prog, &TargetProfile::tofino1()) {
            Err(PlacementError::TableTooLarge { table }) => assert_eq!(table, "huge"),
            other => panic!("expected TableTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn independent_tables_pack_into_one_stage() {
        let mut prog = ProgramSpec::new("flat");
        for i in 0..5 {
            prog = prog.with(TableSpec::action(&format!("a{i}")));
        }
        let placement = place(&prog, &TargetProfile::tofino1()).unwrap();
        assert_eq!(placement.stages_used(), 1);
    }
}
