//! P4-program layout description: the logical tables a program instantiates,
//! used by the resource estimator to regenerate Table 1.

/// How a logical table is matched/stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableKind {
    /// Exact-match SRAM table.
    Exact,
    /// Ternary TCAM table (prefix/range matching, e.g. the operator's
    /// flow-selection rules, paper §4 "Specifying target flows").
    Ternary,
    /// Stateful register array (SRAM + one hash unit per indexing).
    Register,
    /// Keyless action/gateway table (conditionals, header rewrites).
    Action,
}

/// One logical table in the program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableSpec {
    /// Table name.
    pub name: String,
    /// Matching/storage discipline.
    pub kind: TableKind,
    /// Number of entries (slots for registers, rules for match tables).
    pub entries: u64,
    /// Match-key width in bits.
    pub key_bits: u32,
    /// Stored value width in bits (action data or register value).
    pub value_bits: u32,
    /// Independent hash computations this table needs.
    pub hash_units: u32,
}

impl TableSpec {
    /// A stateful register array of `entries` slots of `value_bits` each,
    /// indexed by hashing a `key_bits` input. The key is *hashed*, not
    /// stored, so SRAM is charged for values only; hashing charges one
    /// 52-bit hash slice per 52 key bits.
    pub fn register(name: &str, entries: u64, key_bits: u32, value_bits: u32) -> TableSpec {
        TableSpec {
            name: name.into(),
            kind: TableKind::Register,
            entries,
            key_bits,
            value_bits,
            hash_units: key_bits.div_ceil(52).max(1),
        }
    }

    /// An exact-match table (stores key + value in SRAM).
    pub fn exact(name: &str, entries: u64, key_bits: u32, value_bits: u32) -> TableSpec {
        TableSpec {
            name: name.into(),
            kind: TableKind::Exact,
            entries,
            key_bits,
            value_bits,
            hash_units: key_bits.div_ceil(52).max(1),
        }
    }

    /// A ternary (TCAM) table.
    pub fn ternary(name: &str, entries: u64, key_bits: u32, value_bits: u32) -> TableSpec {
        TableSpec {
            name: name.into(),
            kind: TableKind::Ternary,
            entries,
            key_bits,
            value_bits,
            hash_units: 0,
        }
    }

    /// A keyless action/gateway table.
    pub fn action(name: &str) -> TableSpec {
        TableSpec {
            name: name.into(),
            kind: TableKind::Action,
            entries: 1,
            key_bits: 0,
            value_bits: 0,
            hash_units: 0,
        }
    }

    /// SRAM bits this table consumes (with a 20% word/ECC overhead), zero
    /// for TCAM tables. Register arrays store only their values — the key
    /// exists only as a hash index.
    pub fn sram_bits(&self) -> u64 {
        match self.kind {
            TableKind::Ternary => 0,
            TableKind::Action => 0,
            TableKind::Exact => {
                let word = (self.key_bits + self.value_bits) as u64;
                self.entries * word * 12 / 10
            }
            TableKind::Register => self.entries * self.value_bits as u64 * 12 / 10,
        }
    }

    /// TCAM bits this table consumes.
    pub fn tcam_bits(&self) -> u64 {
        match self.kind {
            TableKind::Ternary => self.entries * self.key_bits as u64,
            _ => 0,
        }
    }

    /// Input-crossbar bytes (match key bytes presented to the stage;
    /// registers pay twice — once on the hash crossbar, once on the match
    /// crossbar for signature comparison).
    pub fn crossbar_bytes(&self) -> u64 {
        let base = (self.key_bits as u64).div_ceil(8);
        if self.kind == TableKind::Register {
            base * 2
        } else {
            base
        }
    }
}

/// A full program layout: the logical tables placed on one target.
#[derive(Clone, Debug, Default)]
pub struct ProgramSpec {
    /// Program name.
    pub name: String,
    /// All logical tables.
    pub tables: Vec<TableSpec>,
}

impl ProgramSpec {
    /// Start an empty program.
    pub fn new(name: &str) -> ProgramSpec {
        ProgramSpec {
            name: name.into(),
            tables: Vec::new(),
        }
    }

    /// Add a table.
    pub fn with(mut self, t: TableSpec) -> ProgramSpec {
        self.tables.push(t);
        self
    }

    /// Add `n` copies of small action/gateway tables named `prefix_i`.
    pub fn with_actions(mut self, prefix: &str, n: usize) -> ProgramSpec {
        for i in 0..n {
            self.tables
                .push(TableSpec::action(&format!("{prefix}_{i}")));
        }
        self
    }

    /// Total logical tables.
    pub fn logical_tables(&self) -> u32 {
        self.tables.len() as u32
    }

    /// Total hash units used.
    pub fn hash_units(&self) -> u32 {
        self.tables.iter().map(|t| t.hash_units).sum()
    }
}

/// Parameters of the Dart data-plane program, mirroring the knobs of the
/// open-source P4 prototype.
#[derive(Clone, Copy, Debug)]
pub struct DartProgramParams {
    /// Range Tracker slots.
    pub rt_entries: u64,
    /// Packet Tracker slots (total across stages).
    pub pt_entries: u64,
    /// Packet Tracker stages.
    pub pt_stages: u32,
    /// Whether the build spans ingress + egress (Tofino 1 layout) or fits in
    /// ingress alone (Tofino 2 layout, paper §4).
    pub spans_egress: bool,
}

impl Default for DartProgramParams {
    fn default() -> Self {
        DartProgramParams {
            rt_entries: 1 << 16,
            pt_entries: 1 << 17,
            pt_stages: 1,
            spans_egress: false,
        }
    }
}

impl DartProgramParams {
    /// The paper's Tofino 1 build (Table 1, left): 2^16 RT and 2^17 PT
    /// slots, spread over ingress and egress.
    pub fn tofino1() -> Self {
        DartProgramParams {
            spans_egress: true,
            ..DartProgramParams::default()
        }
    }

    /// The paper's Tofino 2 build (Table 1, right): 2^14 RT and 2^14 PT
    /// slots, ingress only.
    pub fn tofino2() -> Self {
        DartProgramParams {
            rt_entries: 1 << 14,
            pt_entries: 1 << 14,
            ..DartProgramParams::default()
        }
    }
}

/// Build the Dart program layout for the given parameters.
///
/// The structure follows §4: the RT and PT are each spread across 3
/// component tables (sequential edge updates), flow signatures are 32-bit,
/// the payload-size lookup table replaces arithmetic, a ternary table holds
/// the operator's flow-selection rules, and a crowd of small action tables
/// implements parsing decisions, direction checks, eACK computation, cycle
/// detection, and recirculation control. The ingress+egress (Tofino 1)
/// layout duplicates bridging/analytics machinery, costing extra logical
/// tables and SRAM.
pub fn dart_program(p: DartProgramParams) -> ProgramSpec {
    let mut prog = ProgramSpec::new(if p.spans_egress {
        "dart-tofino1"
    } else {
        "dart-tofino2"
    });

    // Range Tracker: 3 component registers (signature, left edge, right edge),
    // each indexed by an independent hash of the 4-tuple.
    for part in ["rt_sig", "rt_left", "rt_right"] {
        prog = prog.with(TableSpec::register(part, p.rt_entries, 104, 32));
    }
    // Packet Tracker: 3 component registers (signature+eACK, timestamp,
    // validity) per stage.
    let per_stage = p.pt_entries / p.pt_stages.max(1) as u64;
    for s in 0..p.pt_stages {
        for part in ["pt_sig", "pt_ts", "pt_valid"] {
            prog = prog.with(TableSpec::register(
                &format!("{part}_{s}"),
                per_stage,
                136,
                32,
            ));
        }
    }
    // Payload-size lookup table (paper §4): exact match on
    // (total_len, data_offset).
    prog = prog.with(TableSpec::exact("payload_size_lut", 15851, 26, 16));
    // Operator flow-selection rules: ternary over the 4-tuple.
    prog = prog.with(TableSpec::ternary("flow_select", 2048, 104, 16));
    // Analytics: per-prefix min-RTT register + window id register.
    prog = prog.with(TableSpec::register("an_min_rtt", 4096, 32, 32));
    prog = prog.with(TableSpec::register("an_window", 4096, 32, 32));
    // Small action/gateway tables: parse/validate, direction, eACK compute,
    // range compare ladder, collapse logic, PT insert/evict mux, cycle
    // detect, recirc header handling...
    prog = prog.with_actions("ig_ctl", 38);
    if p.spans_egress {
        // Tofino 1: bridge metadata to egress, duplicate header handling,
        // egress-side report generation, and mirror/recirc session tables.
        prog = prog.with_actions("eg_ctl", 30);
        prog = prog.with(TableSpec::exact("mirror_sessions", 256, 16, 32));
        prog = prog.with(TableSpec::ternary("eg_report_filter", 1024, 104, 8));
    }
    prog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dart_program_has_rt_and_pt() {
        let p = dart_program(DartProgramParams::default());
        assert!(p.tables.iter().any(|t| t.name == "rt_sig"));
        assert!(p.tables.iter().any(|t| t.name == "pt_ts_0"));
        assert!(p.tables.iter().any(|t| t.name == "payload_size_lut"));
    }

    #[test]
    fn multi_stage_pt_splits_entries() {
        let p = dart_program(DartProgramParams {
            pt_entries: 1 << 17,
            pt_stages: 8,
            ..DartProgramParams::default()
        });
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
        let t2 = dart_program(DartProgramParams::default());
        let t1 = dart_program(DartProgramParams {
            spans_egress: true,
            ..DartProgramParams::default()
        });
        assert!(t1.logical_tables() > t2.logical_tables());
    }

    #[test]
    fn sram_and_tcam_accounting() {
        let reg = TableSpec::register("r", 1024, 104, 32);
        assert_eq!(reg.sram_bits(), 1024 * 32 * 12 / 10);
        assert_eq!(reg.hash_units, 2);
        assert_eq!(reg.crossbar_bytes(), 26);
        assert_eq!(reg.tcam_bits(), 0);
        let ter = TableSpec::ternary("t", 512, 104, 16);
        assert_eq!(ter.tcam_bits(), 512 * 104);
        assert_eq!(ter.sram_bits(), 0);
        let act = TableSpec::action("a");
        assert_eq!(act.sram_bits(), 0);
        assert_eq!(act.crossbar_bytes(), 0);
    }
}
