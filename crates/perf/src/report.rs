//! What a run hands back, and how it is printed: the human ledger, and
//! the one-line JSON result the driver reads.

use crate::catalog::{MetricDef, Reduce};
use crate::stats::{median, percentile, summarize, Summary};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Operations attempted and the ones that failed. Every subprocess run,
/// scrape and correctness check is one operation; a failure carries the
/// sentence that explains it.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub violations: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.violations.push(what());
        }
    }

    /// Count an operation that could fail outright; its error is the
    /// violation.
    pub fn attempt<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.violations.push(e);
                None
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.violations.len() as u64
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.violations.extend(other.violations);
    }
}

/// One workload, one mode (untraced or traced): every sample of every
/// metric it measured.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub ops: Ops,
    /// Free-form lines for the ledger (packet counts, flags, caveats).
    pub notes: Vec<String>,
}

impl RunOutput {
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn record_all(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        self.samples.entry(name).or_default().extend(values);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The median of a metric's samples.
    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples
            .get(name)
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
    }

    /// The one value the run reports for a metric.
    pub fn value(&self, def: &MetricDef) -> Option<f64> {
        let samples = self.samples.get(def.name).filter(|v| !v.is_empty())?;
        Some(match def.reduce {
            Reduce::Median => median(samples),
            Reduce::UpperDecile => percentile(samples, 90.0),
        })
    }

    /// Check the run produced exactly the metrics of `defs`, each finite:
    /// a row that disappears is a failed operation, not a shorter table.
    pub fn require(&mut self, defs: &[MetricDef]) {
        for def in defs {
            let value = self.value(def);
            self.ops.check(value.is_some_and(f64::is_finite), || {
                format!("metric {} missing or not finite: {value:?}", def.name)
            });
        }
        let known = |name: &str| defs.iter().any(|d| d.name == name);
        let strays: Vec<&str> = self.samples.keys().copied().filter(|n| !known(n)).collect();
        self.ops.check(strays.is_empty(), || {
            format!("metrics not in the catalog: {strays:?}")
        });
    }
}

fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if v == 0.0 {
        "0".to_string()
    } else if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

fn fmt_tail(s: &Summary) -> String {
    match s.tail {
        Some((p, v)) => format!("p{p}={}", fmt_value(v)),
        None => "-".to_string(),
    }
}

/// The ledger table for one run: every metric of `defs` by name with its
/// unit, direction, sample count, median, supported tail percentile and
/// the value the run reports for it.
pub fn ledger(title: &str, defs: &[MetricDef], run: &RunOutput) -> String {
    let mut out = String::new();
    writeln!(out, "== {title}").expect("string write");
    for note in &run.notes {
        writeln!(out, "   {note}").expect("string write");
    }
    writeln!(
        out,
        "   {:<44} {:<10} {:<7} {:>5} {:>12} {:>16} {:>12}",
        "metric", "unit", "better", "n", "median", "tail", "reported"
    )
    .expect("string write");
    for def in defs {
        let Some(values) = run.samples.get(def.name).filter(|v| !v.is_empty()) else {
            writeln!(out, "   {:<44} MISSING", def.name).expect("string write");
            continue;
        };
        let s = summarize(values);
        writeln!(
            out,
            "   {:<44} {:<10} {:<7} {:>5} {:>12} {:>16} {:>12}",
            def.name,
            def.unit,
            def.better.as_str(),
            s.n,
            fmt_value(s.median),
            fmt_tail(&s),
            run.value(def).map_or_else(String::new, fmt_value)
        )
        .expect("string write");
    }
    writeln!(
        out,
        "   ops_attempted={} ops_failed={}",
        run.ops.attempted,
        run.ops.failed()
    )
    .expect("string write");
    for v in &run.ops.violations {
        writeln!(out, "   VIOLATION: {v}").expect("string write");
    }
    out
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, values with all their digits.
pub fn result_json(defs: &[MetricDef], run: &RunOutput) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .filter_map(|d| {
            let v = run.value(d).filter(|v| v.is_finite())?;
            Some(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.ops.failed() == 0,
        run.ops.attempted.max(1),
        run.ops.failed(),
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Better, END_TO_END};
    use dart_telemetry::json::{parse, JsonValue};

    const DEFS: [MetricDef; 2] = [
        MetricDef {
            name: "a_ms",
            unit: "ms",
            better: Better::Lower,
            reduce: Reduce::Median,
            bound: Some(0.1),
            note: "",
        },
        MetricDef {
            name: "b_count",
            unit: "count",
            better: Better::Higher,
            reduce: Reduce::UpperDecile,
            bound: None,
            note: "",
        },
    ];

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut run = RunOutput::default();
        run.record_all("a_ms", [3.0, 1.0, 2.0]);
        run.record("b_count", 7.0);
        run.ops.check(true, String::new);
        run.require(&DEFS);
        let v = parse(&result_json(&DEFS, &run)).unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(4));
        let a = v.get("metrics").and_then(|m| m.get("a_ms")).unwrap();
        assert_eq!(a.get("value").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(a.get("unit").and_then(JsonValue::as_str), Some("ms"));
    }

    #[test]
    fn a_missing_or_stray_metric_is_a_failed_operation() {
        let mut run = RunOutput::default();
        run.record("a_ms", 1.0);
        run.record("zzz", 1.0);
        run.require(&DEFS);
        assert_eq!(run.ops.failed(), 2, "{:?}", run.ops.violations);
        let v = parse(&result_json(&DEFS, &run)).unwrap();
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(false)));
        let text = ledger("t", &DEFS, &run);
        assert!(text.contains("b_count") && text.contains("MISSING"));
        assert!(text.contains("VIOLATION"));
    }

    #[test]
    fn ledger_prints_unit_direction_count_median_and_tail() {
        let mut run = RunOutput::default();
        run.record_all("throughput_mpps", (1..=40).map(f64::from));
        let text = ledger("campus-native", &END_TO_END[..1], &run);
        let row = text
            .lines()
            .find(|l| l.contains("throughput_mpps"))
            .unwrap();
        // Median 20.5, p75 as the supported tail, the upper decile reported.
        for cell in ["Mpkt/s", "higher", "40", "20.50", "p75=30.00", "36.00"] {
            assert!(row.contains(cell), "{cell} in {row}");
        }
    }
}
