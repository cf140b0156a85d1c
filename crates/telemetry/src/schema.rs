//! Exposition validators — the in-repo "schema checker" CI runs.
//!
//! [`check_prometheus`] lints one Prometheus text exposition: every sample
//! belongs to a `# TYPE`-declared family, each family's samples form one
//! contiguous group, names are legal, counters end in `_total`, histogram
//! bucket series are cumulative with ascending `le` and a `+Inf` bucket
//! that matches `_count`, and no series appears twice.
//! [`check_jsonl_series`] replays a `--metrics-out` JSONL file and checks
//! each line parses, `seq` strictly increases, and counter totals are
//! monotone per series — the properties a time-series consumer relies on.

use crate::json;
use crate::registry::valid_name;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Outcome of a validation pass.
#[derive(Clone, Debug, Default)]
pub struct SchemaReport {
    /// Problems found; empty means the document is valid.
    pub errors: Vec<String>,
    /// Distinct series checked.
    pub series: usize,
    /// Lines (Prometheus) or snapshots (JSONL) examined.
    pub lines: usize,
}

impl SchemaReport {
    /// True when no errors were recorded.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// A parsed Prometheus sample line.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Parse `name{k="v",...} value` (timestamps are not emitted by this crate
/// and are rejected).
fn parse_sample(line: &str) -> Result<Sample, String> {
    // Split at the last space: label values may contain spaces.
    let (name_labels, value) = match line.rfind(' ') {
        Some(i) => (&line[..i], &line[i + 1..]),
        None => return Err("no value".to_string()),
    };
    let value: f64 = value.parse().map_err(|_| format!("bad value {value:?}"))?;
    let (name, labels) = match name_labels.find('{') {
        None => (name_labels.to_string(), Vec::new()),
        Some(open) => {
            if !name_labels.ends_with('}') {
                return Err("unterminated label set".to_string());
            }
            let name = name_labels[..open].to_string();
            let body = &name_labels[open + 1..name_labels.len() - 1];
            let mut labels = Vec::new();
            let mut rest = body;
            while !rest.is_empty() {
                let eq = rest.find('=').ok_or("label without '='")?;
                let key = rest[..eq].to_string();
                let after = &rest[eq + 1..];
                if !after.starts_with('"') {
                    return Err("unquoted label value".to_string());
                }
                // Find the closing quote, honoring backslash escapes.
                let bytes = after.as_bytes();
                let mut i = 1;
                let mut val = String::new();
                loop {
                    match bytes.get(i) {
                        None => return Err("unterminated label value".to_string()),
                        Some(b'"') => break,
                        Some(b'\\') => {
                            match bytes.get(i + 1) {
                                Some(b'"') => val.push('"'),
                                Some(b'\\') => val.push('\\'),
                                Some(b'n') => val.push('\n'),
                                _ => return Err("bad escape in label value".to_string()),
                            }
                            i += 2;
                        }
                        Some(_) => {
                            let s = &after[i..];
                            let Some(ch) = s.chars().next() else {
                                return Err("unterminated label value".to_string());
                            };
                            val.push(ch);
                            i += ch.len_utf8();
                        }
                    }
                }
                labels.push((key, val));
                rest = &after[i + 1..];
                if let Some(stripped) = rest.strip_prefix(',') {
                    rest = stripped;
                } else if !rest.is_empty() {
                    return Err("expected ',' between labels".to_string());
                }
            }
            (name, labels)
        }
    };
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// The family a sample belongs to, folding histogram suffixes.
fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            return base;
        }
    }
    name
}

fn series_id(name: &str, labels: &[(String, String)]) -> String {
    let mut id = name.to_string();
    for (k, v) in labels {
        id.push('\u{1}');
        id.push_str(k);
        id.push('\u{2}');
        id.push_str(v);
    }
    id
}

/// Validate a Prometheus text exposition. See the module docs for the
/// exact properties checked.
pub fn check_prometheus(text: &str) -> SchemaReport {
    let mut report = SchemaReport::default();
    let mut types: HashMap<String, String> = HashMap::new();
    let mut seen_series: HashSet<String> = HashSet::new();
    // (family, labels-minus-le) → ascending (le, cumulative count) pairs.
    type BucketRun = Vec<(f64, f64)>;
    let mut buckets: BTreeMap<String, BucketRun> = BTreeMap::new();
    let mut counts: HashMap<String, f64> = HashMap::new();
    let mut sums: HashSet<String> = HashSet::new();
    // Families whose samples have begun, and the one in progress.
    let mut started: HashSet<String> = HashSet::new();
    let mut current = String::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        report.lines += 1;
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.splitn(2, ' ');
            let (name, kind) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                report.errors.push(err(format!("unknown TYPE {kind:?}")));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                report
                    .errors
                    .push(err(format!("duplicate TYPE for {name}")));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let sample = match parse_sample(line) {
            Ok(s) => s,
            Err(msg) => {
                report.errors.push(err(msg));
                continue;
            }
        };
        if !valid_name(&sample.name) {
            report
                .errors
                .push(err(format!("invalid metric name {:?}", sample.name)));
            continue;
        }
        for (k, _) in &sample.labels {
            if !valid_name(k) {
                report.errors.push(err(format!("invalid label name {k:?}")));
            }
        }
        let id = series_id(&sample.name, &sample.labels);
        if !seen_series.insert(id) {
            report
                .errors
                .push(err(format!("duplicate series {}", sample.name)));
        }
        report.series += 1;
        let family = family_of(&sample.name).to_string();
        if family != current {
            if !started.insert(family.clone()) {
                report.errors.push(err(format!(
                    "family {family} split: its samples resume after another family's"
                )));
            }
            current.clone_from(&family);
        }
        let kind = match types.get(&family) {
            Some(k) => k.clone(),
            None => {
                report
                    .errors
                    .push(err(format!("sample {} has no # TYPE", sample.name)));
                continue;
            }
        };
        match kind.as_str() {
            "counter" => {
                if !sample.name.ends_with("_total") {
                    report
                        .errors
                        .push(err(format!("counter {} must end in _total", sample.name)));
                }
                if sample.value < 0.0 {
                    report
                        .errors
                        .push(err(format!("counter {} is negative", sample.name)));
                }
            }
            "histogram" => {
                if sample.name == format!("{family}_bucket") {
                    let mut le = None;
                    let mut rest: Vec<(String, String)> = Vec::new();
                    for (k, v) in &sample.labels {
                        if k == "le" {
                            le = Some(v.clone());
                        } else {
                            rest.push((k.clone(), v.clone()));
                        }
                    }
                    let le = match le {
                        Some(le) => le,
                        None => {
                            report
                                .errors
                                .push(err(format!("{} without le label", sample.name)));
                            continue;
                        }
                    };
                    let le_val = if le == "+Inf" {
                        f64::INFINITY
                    } else {
                        match le.parse::<f64>() {
                            Ok(v) => v,
                            Err(_) => {
                                report.errors.push(err(format!("bad le {le:?}")));
                                continue;
                            }
                        }
                    };
                    buckets
                        .entry(series_id(&family, &rest))
                        .or_default()
                        .push((le_val, sample.value));
                } else if sample.name == format!("{family}_count") {
                    let id = series_id(&family, &sample.labels);
                    counts.insert(id, sample.value);
                } else if sample.name == format!("{family}_sum") {
                    sums.insert(series_id(&family, &sample.labels));
                } else {
                    report.errors.push(err(format!(
                        "histogram family {family} has stray sample {}",
                        sample.name
                    )));
                }
            }
            _ => {} // gauge: any value goes
        }
    }

    for (id, run) in &buckets {
        let family = id.split('\u{1}').next().unwrap_or(id).to_string();
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_count = f64::NEG_INFINITY;
        for &(le, count) in run {
            if le <= prev_le {
                report
                    .errors
                    .push(format!("{family}: bucket le values not ascending"));
            }
            if count < prev_count {
                report
                    .errors
                    .push(format!("{family}: bucket counts not cumulative"));
            }
            prev_le = le;
            prev_count = count;
        }
        match run.last() {
            Some(&(le, count)) if le.is_infinite() => {
                if let Some(&total) = counts.get(id) {
                    if (total - count).abs() > 0.0 {
                        report
                            .errors
                            .push(format!("{family}: +Inf bucket {count} != _count {total}"));
                    }
                } else {
                    report.errors.push(format!("{family}: missing _count"));
                }
            }
            _ => report
                .errors
                .push(format!("{family}: missing le=\"+Inf\" bucket")),
        }
        if !sums.contains(id) {
            report.errors.push(format!("{family}: missing _sum"));
        }
    }

    report
}

/// Validate a JSONL snapshot series (the `--metrics-out` file): every line
/// parses, `seq` strictly increases, counter totals are monotone per
/// series.
pub fn check_jsonl_series(text: &str) -> SchemaReport {
    let mut report = SchemaReport::default();
    let mut last_seq: Option<u64> = None;
    let mut last_totals: HashMap<String, u64> = HashMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        report.lines += 1;
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        let v = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                report.errors.push(err(e.to_string()));
                continue;
            }
        };
        match v.get("seq").and_then(|s| s.as_u64()) {
            Some(seq) => {
                if let Some(prev) = last_seq {
                    if seq <= prev {
                        report
                            .errors
                            .push(err(format!("seq {seq} not greater than {prev}")));
                    }
                }
                last_seq = Some(seq);
            }
            None => report.errors.push(err("missing seq".to_string())),
        }
        let Some(counters) = v.get("counters").and_then(|c| c.as_object()) else {
            report
                .errors
                .push(err("missing counters object".to_string()));
            continue;
        };
        for (key, entry) in counters {
            let Some(total) = entry.get("total").and_then(|t| t.as_u64()) else {
                report
                    .errors
                    .push(err(format!("counter {key} missing total")));
                continue;
            };
            if let Some(&prev) = last_totals.get(key) {
                if total < prev {
                    report.errors.push(err(format!(
                        "counter {key} went backwards ({prev} -> {total})"
                    )));
                }
            }
            last_totals.insert(key.clone(), total);
        }
    }
    report.series = last_totals.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricRegistry;

    fn instrumented() -> MetricRegistry {
        let r = MetricRegistry::new();
        r.counter("dart_packets_total", &[("shard", "0")], "packets")
            .add(42);
        r.counter("dart_packets_total", &[("shard", "1")], "packets")
            .add(41);
        r.gauge("dart_recirc_queue_depth", &[], "depth").set(5);
        let h = r.histogram("dart_rtt_ns", &[], "rtt");
        for v in [100, 2000, 2000, 1 << 40] {
            h.observe(v);
        }
        r
    }

    #[test]
    fn our_own_exposition_passes() {
        let text = instrumented().scrape().prometheus();
        let report = check_prometheus(&text);
        assert!(report.ok(), "errors: {:?}", report.errors);
        assert!(report.series >= 4);
    }

    #[test]
    fn our_own_jsonl_passes() {
        let r = instrumented();
        let mut out = String::new();
        for i in 0..3 {
            r.counter("dart_packets_total", &[("shard", "0")], "packets")
                .add(i);
            out.push_str(&r.scrape().jsonl_line(&[("packets", 42 + i)]));
            out.push('\n');
        }
        let report = check_jsonl_series(&out);
        assert!(report.ok(), "errors: {:?}", report.errors);
        assert_eq!(report.lines, 3);
    }

    #[test]
    fn catches_untyped_samples() {
        let report = check_prometheus("dart_x_total 1\n");
        assert!(!report.ok());
        assert!(report.errors[0].contains("no # TYPE"));
    }

    #[test]
    fn catches_bad_counter_names() {
        let text = "# TYPE dart_x counter\ndart_x 1\n";
        let report = check_prometheus(text);
        assert!(report.errors.iter().any(|e| e.contains("_total")));
    }

    #[test]
    fn catches_non_cumulative_buckets() {
        let text = concat!(
            "# TYPE h histogram\n",
            "h_bucket{le=\"1\"} 5\n",
            "h_bucket{le=\"2\"} 3\n",
            "h_bucket{le=\"+Inf\"} 5\n",
            "h_sum 10\n",
            "h_count 5\n",
        );
        let report = check_prometheus(text);
        assert!(report.errors.iter().any(|e| e.contains("cumulative")));
    }

    #[test]
    fn catches_missing_inf_bucket() {
        let text = concat!(
            "# TYPE h histogram\n",
            "h_bucket{le=\"1\"} 5\n",
            "h_sum 10\n",
            "h_count 5\n",
        );
        let report = check_prometheus(text);
        assert!(report.errors.iter().any(|e| e.contains("+Inf")));
    }

    #[test]
    fn catches_duplicate_series() {
        let text = concat!("# TYPE g gauge\n", "g{a=\"1\"} 5\n", "g{a=\"1\"} 6\n",);
        let report = check_prometheus(text);
        assert!(report.errors.iter().any(|e| e.contains("duplicate series")));
    }

    #[test]
    fn catches_a_split_family() {
        let text = concat!(
            "# TYPE a_total counter\n",
            "a_total{shard=\"0\"} 1\n",
            "# TYPE b gauge\n",
            "b 2\n",
            "a_total{shard=\"1\"} 3\n",
        );
        let report = check_prometheus(text);
        assert!(
            report.errors.iter().any(|e| e.contains("a_total split")),
            "{:?}",
            report.errors
        );
    }

    #[test]
    fn catches_counter_regression_in_jsonl() {
        let lines = concat!(
            "{\"seq\":1,\"counters\":{\"x_total\":{\"total\":10,\"delta\":10}},\"gauges\":{},\"histograms\":{}}\n",
            "{\"seq\":2,\"counters\":{\"x_total\":{\"total\":7,\"delta\":0}},\"gauges\":{},\"histograms\":{}}\n",
        );
        let report = check_jsonl_series(lines);
        assert!(report.errors.iter().any(|e| e.contains("went backwards")));
    }

    #[test]
    fn catches_seq_regression() {
        let lines = concat!(
            "{\"seq\":2,\"counters\":{}}\n",
            "{\"seq\":2,\"counters\":{}}\n",
        );
        let report = check_jsonl_series(lines);
        assert!(report.errors.iter().any(|e| e.contains("not greater")));
    }
}
