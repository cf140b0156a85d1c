//! A one-connection-at-a-time HTTP client for the daemon's plane, and a
//! reader for the Prometheus text it serves.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Every socket wait is bounded by this: a plane that takes longer has
/// failed the run.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// One request on a fresh connection (the server answers `Connection:
/// close`). Returns the status code and the body.
pub fn request(addr: SocketAddr, method: &str, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: dart-perf\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("response has no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response has no status code"))?;
    Ok((status, body.to_string()))
}

pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    request(addr, "GET", path)
}

pub fn post(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    request(addr, "POST", path)
}

/// A parsed Prometheus text exposition.
#[derive(Clone, Debug, Default)]
pub struct Exposition {
    /// `(family, labels-as-written)` → value.
    series: BTreeMap<(String, String), f64>,
}

impl Exposition {
    pub fn parse(text: &str) -> Exposition {
        let mut series = BTreeMap::new();
        for line in text.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let (name, labels) = match key.split_once('{') {
                Some((name, rest)) => (name, rest.trim_end_matches('}')),
                None => (key, ""),
            };
            series.insert((name.to_string(), labels.to_string()), value);
        }
        Exposition { series }
    }

    /// Sum of a family over every label set (i.e. over shards); `None`
    /// when the family is absent.
    pub fn sum(&self, name: &str) -> Option<f64> {
        let mut values = self
            .series
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, v)| *v)
            .peekable();
        values.peek()?;
        Some(values.sum())
    }

    /// Cumulative `(upper bound, count)` buckets of a histogram family in
    /// ascending bound order. Label sets are summed per bound, which is
    /// only meaningful while they list the same bounds — the benchmark
    /// runs the daemon with one shard.
    pub fn buckets(&self, name: &str) -> Vec<(f64, f64)> {
        let family = format!("{name}_bucket");
        let mut by_le: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for ((n, labels), v) in &self.series {
            if *n != family {
                continue;
            }
            let Some(le) = labels
                .split(',')
                .find_map(|l| l.strip_prefix("le=\""))
                .map(|l| l.trim_end_matches('"'))
            else {
                continue;
            };
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::INFINITY)
            };
            // Key by the bit pattern: bounds are non-negative, so bit
            // order is numeric order.
            by_le.entry(bound.to_bits()).or_insert((bound, 0.0)).1 += v;
        }
        by_le.into_values().collect()
    }

    /// Quantile of a log2-bucket histogram family, as the upper bound of
    /// the bucket the quantile falls in; `None` when nothing was observed.
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<f64> {
        quantile_of(&self.buckets(name), q)
    }
}

/// Quantile over cumulative `(upper bound, count)` buckets.
pub fn quantile_of(buckets: &[(f64, f64)], q: f64) -> Option<f64> {
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let want = q * total;
    let mut last_finite = 0.0;
    for &(bound, cum) in buckets {
        if bound.is_finite() {
            last_finite = bound;
        }
        if cum >= want {
            return Some(if bound.is_finite() {
                bound
            } else {
                last_finite
            });
        }
    }
    Some(last_finite)
}

/// Per-bucket difference of two cumulative bucket lists (`later −
/// earlier`): the histogram of what was observed between two scrapes.
pub fn bucket_delta(later: &[(f64, f64)], earlier: &[(f64, f64)]) -> Vec<(f64, f64)> {
    // An exposition stops at its highest non-empty bucket, so a bound the
    // earlier scrape did not list yet held the earlier total.
    let earlier_at = |bound: f64| {
        earlier
            .iter()
            .find(|(b, _)| *b >= bound)
            .or(earlier.last())
            .map_or(0.0, |(_, c)| *c)
    };
    later
        .iter()
        .map(|&(bound, cum)| (bound, cum - earlier_at(bound)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP dart_shard_packets_total packets
# TYPE dart_shard_packets_total counter
dart_shard_packets_total{shard=\"0\"} 100
dart_shard_packets_total{shard=\"1\"} 50
dart_supervisor_healthy_shards 2
dart_x_ns_bucket{shard=\"0\",le=\"0\"} 0
dart_x_ns_bucket{shard=\"0\",le=\"1023\"} 3
dart_x_ns_bucket{shard=\"0\",le=\"2047\"} 9
dart_x_ns_bucket{shard=\"0\",le=\"+Inf\"} 10
dart_x_ns_sum{shard=\"0\"} 12345
dart_x_ns_count{shard=\"0\"} 10
";

    #[test]
    fn sums_over_label_sets() {
        let e = Exposition::parse(TEXT);
        assert_eq!(e.sum("dart_shard_packets_total"), Some(150.0));
        assert_eq!(e.sum("dart_supervisor_healthy_shards"), Some(2.0));
        assert_eq!(e.sum("dart_x_ns_sum"), Some(12345.0));
        assert_eq!(e.sum("dart_missing_total"), None);
    }

    #[test]
    fn histogram_quantiles_report_bucket_bounds() {
        let e = Exposition::parse(TEXT);
        assert_eq!(e.histogram_quantile("dart_x_ns", 0.5), Some(2047.0));
        assert_eq!(e.histogram_quantile("dart_x_ns", 0.2), Some(1023.0));
        // The open-ended bucket reports the last finite bound.
        assert_eq!(e.histogram_quantile("dart_x_ns", 1.0), Some(2047.0));
        assert_eq!(e.histogram_quantile("dart_none_ns", 0.5), None);
    }

    #[test]
    fn bucket_delta_isolates_a_window() {
        let earlier = vec![(0.0, 0.0), (1023.0, 3.0), (f64::INFINITY, 3.0)];
        let later = vec![
            (0.0, 0.0),
            (1023.0, 3.0),
            (2047.0, 9.0),
            (f64::INFINITY, 10.0),
        ];
        let delta = bucket_delta(&later, &earlier);
        assert_eq!(
            delta,
            vec![
                (0.0, 0.0),
                (1023.0, 0.0),
                (2047.0, 6.0),
                (f64::INFINITY, 7.0)
            ]
        );
        assert_eq!(quantile_of(&delta, 0.5), Some(2047.0));
    }
}
