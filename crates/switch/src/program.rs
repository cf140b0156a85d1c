//! P4-program layout description: the logical tables a program instantiates
//! and the order its chained tables run in, read by the resource estimator
//! and the placer. The Dart program itself is built from an engine
//! configuration by `dart_core::program`.

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
    fn new(name: &str, kind: TableKind, entries: u64, key_bits: u32, value_bits: u32) -> TableSpec {
        // A hashed table charges one 52-bit hash slice per 52 key bits.
        let hash_units = match kind {
            TableKind::Register | TableKind::Exact => key_bits.div_ceil(52).max(1),
            TableKind::Ternary | TableKind::Action => 0,
        };
        TableSpec {
            name: name.into(),
            kind,
            entries,
            key_bits,
            value_bits,
            hash_units,
        }
    }

    /// A stateful register array of `entries` slots of `value_bits` each,
    /// indexed by hashing a `key_bits` input. The key is *hashed*, not
    /// stored, so SRAM is charged for values only.
    pub fn register(name: &str, entries: u64, key_bits: u32, value_bits: u32) -> TableSpec {
        TableSpec::new(name, TableKind::Register, entries, key_bits, value_bits)
    }

    /// An exact-match table (stores key + value in SRAM).
    pub fn exact(name: &str, entries: u64, key_bits: u32, value_bits: u32) -> TableSpec {
        TableSpec::new(name, TableKind::Exact, entries, key_bits, value_bits)
    }

    /// A ternary (TCAM) table.
    pub fn ternary(name: &str, entries: u64, key_bits: u32, value_bits: u32) -> TableSpec {
        TableSpec::new(name, TableKind::Ternary, entries, key_bits, value_bits)
    }

    /// A keyless action/gateway table.
    pub fn action(name: &str) -> TableSpec {
        TableSpec::new(name, TableKind::Action, 1, 0, 0)
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

/// A full program layout: the logical tables placed on one target, and the
/// order in which the chained ones must run.
#[derive(Clone, Debug, Default)]
pub struct ProgramSpec {
    /// Program name.
    pub name: String,
    /// All logical tables.
    pub tables: Vec<TableSpec>,
    /// Names of the tables that run in sequence: each one consumes the
    /// result of the one before it, so the placer puts it in a strictly
    /// later stage ("memory once accessed cannot be revisited without
    /// recirculation", §4).
    pub chain: Vec<String>,
}

impl ProgramSpec {
    /// Start an empty program.
    pub fn new(name: &str) -> ProgramSpec {
        ProgramSpec {
            name: name.into(),
            ..ProgramSpec::default()
        }
    }

    /// Add a table.
    pub fn with(mut self, t: TableSpec) -> ProgramSpec {
        self.tables.push(t);
        self
    }

    /// Add a table that runs after every table chained before it.
    pub fn chained(mut self, t: TableSpec) -> ProgramSpec {
        self.chain.push(t.name.clone());
        self.with(t)
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

    /// Total SRAM bits, with the estimator's overhead.
    pub fn sram_bits(&self) -> u64 {
        self.tables.iter().map(TableSpec::sram_bits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
