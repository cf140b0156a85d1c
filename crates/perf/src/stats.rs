//! Order statistics for the ledger: medians, the tail percentile the
//! sample count can support, and the quartile spread the acceptance
//! check uses.

/// What the ledger prints for one metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub max: f64,
    /// `(percentile, value)`: the highest percentile of [`TAIL_LADDER`]
    /// that still has at least ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

/// Candidate tail percentiles, in tenths of a percent (integers, so the
/// "ten samples beyond" count is exact).
const TAIL_LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the two middle values averaged. Panics on an empty slice:
/// every metric the ledger reports has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest rank (1-based) of a percentile given in tenths of a percent.
fn nearest_rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile (`p` in 0..=100, to a tenth) of a non-empty
/// slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "percentile of no samples");
    v[nearest_rank(v.len(), (p * 10.0).round() as usize) - 1]
}

/// The highest ladder percentile (nearest rank) with at least ten samples
/// beyond it.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    TAIL_LADDER
        .iter()
        .rev()
        .filter(|_| n > 0)
        .map(|&permille| (permille, nearest_rank(n, permille)))
        .find(|&(_, rank)| n - rank >= 10)
        .map(|(permille, rank)| (permille as f64 / 10.0, v[rank - 1]))
}

pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        n: v.len(),
        min: v[0],
        median: median(&v),
        max: v[v.len() - 1],
        tail: tail_percentile(&v),
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method) — the driver's acceptance check
/// uses exactly that, so `--repeat` must too. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance check compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let of = |n: usize| tail_percentile(&vec![1.0; n]).map(|(p, _)| p);
        assert_eq!(of(10), None);
        assert_eq!(of(19), None);
        assert_eq!(of(20), Some(50.0));
        assert_eq!(of(60), Some(75.0));
        assert_eq!(of(100), Some(90.0));
        assert_eq!(of(300), Some(95.0));
        assert_eq!(of(1000), Some(99.0));
        assert_eq!(of(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_share(&v), Some(1.0));
    }

    #[test]
    fn summary_carries_extremes_and_tail() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.min, s.max, s.median), (40, 1.0, 40.0, 20.5));
        assert_eq!(s.tail, Some((75.0, 30.0)));
    }
}
