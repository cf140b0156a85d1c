//! Frozen scrapes and the two exposition formats.
//!
//! A [`Snapshot`] is what [`MetricRegistry::scrape`](crate::MetricRegistry::scrape)
//! returns: every registered series with its cumulative value and the
//! delta since the previous scrape. It renders three ways:
//!
//! * [`Snapshot::prometheus`] — Prometheus text exposition (`# HELP` /
//!   `# TYPE` / samples, histograms as cumulative `_bucket{le=...}` +
//!   `_sum` + `_count`);
//! * [`Snapshot::jsonl_line`] — one JSON object per scrape, the periodic
//!   time-series format `--metrics-out` appends to;
//! * [`Snapshot::render_text`] — the human-readable table `dartmon stats`
//!   prints; [`render_rows`] is the same table for plain name/value rows
//!   so one formatter serves live snapshots and `EngineStats` reports.

use crate::histogram::{bucket_le, HistogramSnapshot};
use crate::json::escape;
use crate::registry::MetricKind;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One series in a snapshot.
#[derive(Clone, Debug)]
pub struct MetricSample {
    /// Family name (`dart_rtt_ns`, `dart_shard_packets_total`, ...).
    pub name: String,
    /// Label set, in registration order.
    pub labels: Vec<(String, String)>,
    /// Help text for `# HELP`.
    pub help: String,
    /// Counter / gauge / histogram.
    pub kind: MetricKind,
    /// The scraped value.
    pub value: MetricValue,
}

/// A scraped value.
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// Counter: cumulative total plus the delta since the last scrape.
    Counter {
        /// Cumulative total.
        total: u64,
        /// Increase since the previous scrape.
        delta: u64,
    },
    /// Gauge: the current value.
    Gauge(i64),
    /// Histogram: bucket snapshot plus the observation-count delta.
    Histogram {
        /// Bucket counts and sum.
        hist: HistogramSnapshot,
        /// Observations since the previous scrape.
        delta_count: u64,
    },
}

impl MetricSample {
    /// The series identity: `name` or `name{k="v",...}`.
    pub fn key(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// One scrape of the whole registry.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Scrape sequence number (1-based, monotone per registry).
    pub seq: u64,
    /// Every registered series, in registration order.
    pub samples: Vec<MetricSample>,
}

/// Escape a label value for the Prometheus text format.
fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn prom_sample_line(out: &mut String, name: &str, labels: &[(String, String)], value: &str) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", prom_escape(v));
        }
        out.push('}');
    }
    let _ = writeln!(out, " {value}");
}

impl Snapshot {
    /// Prometheus text exposition of the cumulative values.
    ///
    /// Each family is one group — `# HELP`, `# TYPE`, then every series
    /// of it, as the text format requires — and families come in the
    /// order of their first registration, series in registration order
    /// within each. Histograms emit cumulative `_bucket` lines up to the
    /// highest non-empty bucket plus the mandatory `le="+Inf"`, then
    /// `_sum` and `_count`.
    pub fn prometheus(&self) -> String {
        let mut index: HashMap<&str, usize> = HashMap::new();
        let mut families: Vec<Vec<&MetricSample>> = Vec::new();
        for s in &self.samples {
            let i = *index.entry(&s.name).or_insert_with(|| {
                families.push(Vec::new());
                families.len() - 1
            });
            families[i].push(s);
        }
        let mut out = String::new();
        for s in families.iter().flatten() {
            if index.remove(s.name.as_str()).is_some() {
                let _ = writeln!(out, "# HELP {} {}", s.name, s.help.replace('\n', " "));
                let _ = writeln!(out, "# TYPE {} {}", s.name, s.kind.as_str());
            }
            match &s.value {
                MetricValue::Counter { total, .. } => {
                    prom_sample_line(&mut out, &s.name, &s.labels, &total.to_string());
                }
                MetricValue::Gauge(v) => {
                    prom_sample_line(&mut out, &s.name, &s.labels, &v.to_string());
                }
                MetricValue::Histogram { hist, .. } => {
                    let bucket_name = format!("{}_bucket", s.name);
                    let top = hist.highest_nonempty().unwrap_or(0);
                    let mut cumulative = 0u64;
                    for (i, &c) in hist.buckets.iter().enumerate().take(top + 1) {
                        cumulative += c;
                        let mut labels = s.labels.clone();
                        let le = match bucket_le(i) {
                            Some(b) => b.to_string(),
                            None => "+Inf".to_string(),
                        };
                        labels.push(("le".to_string(), le));
                        prom_sample_line(&mut out, &bucket_name, &labels, &cumulative.to_string());
                    }
                    let count = hist.count();
                    if bucket_le(top).is_some() {
                        let mut labels = s.labels.clone();
                        labels.push(("le".to_string(), "+Inf".to_string()));
                        prom_sample_line(&mut out, &bucket_name, &labels, &count.to_string());
                    }
                    prom_sample_line(
                        &mut out,
                        &format!("{}_sum", s.name),
                        &s.labels,
                        &hist.sum.to_string(),
                    );
                    prom_sample_line(
                        &mut out,
                        &format!("{}_count", s.name),
                        &s.labels,
                        &count.to_string(),
                    );
                }
            }
        }
        out
    }

    /// One JSONL time-series line: the scrape seq, caller-supplied context
    /// fields (e.g. `packets`, `elapsed_ns`), then counters (total +
    /// delta), gauges, and histograms (count, sum, non-empty buckets as
    /// `[le, count]` pairs, `le = null` for the +Inf bucket).
    pub fn jsonl_line(&self, extra: &[(&str, u64)]) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"seq\":{}", self.seq);
        for (k, v) in extra {
            let _ = write!(out, ",\"{}\":{}", escape(k), v);
        }
        for (section, kind) in [
            ("counters", MetricKind::Counter),
            ("gauges", MetricKind::Gauge),
            ("histograms", MetricKind::Histogram),
        ] {
            let _ = write!(out, ",\"{section}\":{{");
            let mut first = true;
            for s in self.samples.iter().filter(|s| s.kind == kind) {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\"{}\":", escape(&s.key()));
                match &s.value {
                    MetricValue::Counter { total, delta } => {
                        let _ = write!(out, "{{\"total\":{total},\"delta\":{delta}}}");
                    }
                    MetricValue::Gauge(v) => {
                        let _ = write!(out, "{v}");
                    }
                    MetricValue::Histogram { hist, delta_count } => {
                        let _ = write!(
                            out,
                            "{{\"count\":{},\"sum\":{},\"delta\":{delta_count},\"buckets\":[",
                            hist.count(),
                            hist.sum
                        );
                        let mut first_b = true;
                        for (i, &c) in hist.buckets.iter().enumerate() {
                            if c == 0 {
                                continue;
                            }
                            if !first_b {
                                out.push(',');
                            }
                            first_b = false;
                            match bucket_le(i) {
                                Some(le) => {
                                    let _ = write!(out, "[{le},{c}]");
                                }
                                None => {
                                    let _ = write!(out, "[null,{c}]");
                                }
                            }
                        }
                        out.push_str("]}");
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Human-readable table: counters with totals and window deltas,
    /// gauges, and histograms with approximate quantiles.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .samples
            .iter()
            .map(|s| s.key().len())
            .max()
            .unwrap_or(0)
            .max(6);
        let counters: Vec<&MetricSample> = self
            .samples
            .iter()
            .filter(|s| s.kind == MetricKind::Counter)
            .collect();
        if !counters.is_empty() {
            let _ = writeln!(out, "{:<width$} {:>14} {:>14}", "counter", "total", "delta");
            for s in counters {
                if let MetricValue::Counter { total, delta } = &s.value {
                    let _ = writeln!(out, "{:<width$} {:>14} {:>14}", s.key(), total, delta);
                }
            }
        }
        let gauges: Vec<&MetricSample> = self
            .samples
            .iter()
            .filter(|s| s.kind == MetricKind::Gauge)
            .collect();
        if !gauges.is_empty() {
            let _ = writeln!(out, "{:<width$} {:>14}", "gauge", "value");
            for s in gauges {
                if let MetricValue::Gauge(v) = &s.value {
                    let _ = writeln!(out, "{:<width$} {:>14}", s.key(), v);
                }
            }
        }
        for s in &self.samples {
            if let MetricValue::Histogram { hist, delta_count } = &s.value {
                let _ = writeln!(
                    out,
                    "{:<width$} count {} (Δ{delta_count}) sum {} p50≈{} p90≈{} p99≈{}",
                    s.key(),
                    hist.count(),
                    hist.sum,
                    hist.quantile(0.50).unwrap_or(0),
                    hist.quantile(0.90).unwrap_or(0),
                    hist.quantile(0.99).unwrap_or(0),
                );
            }
        }
        out
    }
}

/// The shared name/value table used for `EngineStats`-style reports: the
/// same alignment rules as [`Snapshot::render_text`]'s counter section, so
/// differential reports and live stats read identically.
pub fn render_rows(header: &str, rows: &[(&str, u64)]) -> String {
    let width = rows
        .iter()
        .map(|(n, _)| n.len())
        .max()
        .unwrap_or(0)
        .max(header.len())
        .max(6);
    let mut out = String::new();
    let _ = writeln!(out, "{:<width$} {:>14}", header, "value");
    for (name, value) in rows {
        let _ = writeln!(out, "{:<width$} {:>14}", name, value);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::MetricRegistry;

    fn example() -> MetricRegistry {
        let r = MetricRegistry::new();
        r.counter("dart_packets_total", &[("shard", "0")], "packets offered")
            .add(100);
        r.gauge("dart_recirc_queue_depth", &[("shard", "0")], "in flight")
            .set(3);
        let h = r.histogram("dart_rtt_ns", &[], "rtt samples");
        h.observe(1_000_000);
        h.observe(25_000_000);
        r
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = example().scrape().prometheus();
        assert!(text.contains("# TYPE dart_packets_total counter"));
        assert!(text.contains("dart_packets_total{shard=\"0\"} 100"));
        assert!(text.contains("# TYPE dart_recirc_queue_depth gauge"));
        assert!(text.contains("dart_recirc_queue_depth{shard=\"0\"} 3"));
        assert!(text.contains("# TYPE dart_rtt_ns histogram"));
        assert!(text.contains("dart_rtt_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("dart_rtt_ns_sum 26000000"));
        assert!(text.contains("dart_rtt_ns_count 2"));
        // Buckets are cumulative: the 25ms bucket line counts both.
        assert!(text.contains("dart_rtt_ns_bucket{le=\"33554431\"} 2"));
    }

    /// A sharded run registers shard 0's families, then shard 1's: each
    /// family must still come out as one group, in first-registration order.
    #[test]
    fn a_family_registered_around_another_stays_one_group() {
        let r = MetricRegistry::new();
        r.counter("a_total", &[("shard", "0")], "first").add(1);
        r.gauge("b", &[("shard", "0")], "second").set(2);
        r.counter("a_total", &[("shard", "1")], "first").add(3);
        let text = r.scrape().prometheus();
        assert_eq!(
            text,
            "# HELP a_total first\n# TYPE a_total counter\n\
             a_total{shard=\"0\"} 1\na_total{shard=\"1\"} 3\n\
             # HELP b second\n# TYPE b gauge\nb{shard=\"0\"} 2\n"
        );
        let check = crate::check_prometheus(&text);
        assert!(check.ok(), "{:?}", check.errors);
    }

    #[test]
    fn jsonl_line_parses_and_carries_extras() {
        let line = example().scrape().jsonl_line(&[("packets", 100)]);
        let v = json::parse(&line).expect("jsonl line must be valid json");
        assert_eq!(v.get("seq").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("packets").unwrap().as_u64(), Some(100));
        let counters = v.get("counters").unwrap().as_object().unwrap();
        let c = counters.get("dart_packets_total{shard=\"0\"}").unwrap();
        assert_eq!(c.get("total").unwrap().as_u64(), Some(100));
        assert_eq!(c.get("delta").unwrap().as_u64(), Some(100));
        let h = v.get("histograms").unwrap().get("dart_rtt_ns").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn text_rendering_lists_everything() {
        let text = example().scrape().render_text();
        assert!(text.contains("dart_packets_total{shard=\"0\"}"));
        assert!(text.contains("dart_recirc_queue_depth"));
        assert!(text.contains("p50≈"));
    }

    #[test]
    fn render_rows_aligns() {
        let text = render_rows("counter", &[("packets", 10), ("samples", 2)]);
        assert!(text.starts_with("counter"));
        assert!(text.contains("packets"));
        assert!(text.lines().count() == 3);
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        let snap = MetricRegistry::new().scrape();
        assert_eq!(snap.prometheus(), "");
        assert!(snap.render_text().is_empty());
        let line = snap.jsonl_line(&[]);
        json::parse(&line).expect("still valid json");
    }
}
