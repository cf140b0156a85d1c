//! A P²-style streaming quantile sketch: constant-memory percentile
//! estimation suitable for control planes that cannot afford to buffer the
//! full RTT sample stream (the paper's operators want p50/p95/p99 per
//! prefix — millions of flows, bounded memory).
//!
//! Implements the Jain–Chlamtac P² algorithm: five markers whose heights
//! approximate the quantile via piecewise-parabolic interpolation. Error is
//! typically well under a few percent on unimodal distributions; the exact
//! [`crate::dist::RttDistribution`] remains the ground truth in tests.

use dart_packet::Nanos;

// Frequency sketches live in `dart_core::sketch` (the flow-state backends
// use them on the hot path); analytics re-exports them so control-plane
// code has a single home for every sketch and no second implementation.
pub use dart_core::sketch::{CountMinSketch, HeavyHitters};

/// Streaming estimator of a single quantile `q` in (0, 1).
#[derive(Clone, Debug)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (the sample-value estimates).
    heights: [f64; 5],
    /// Marker positions (1-based sample ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    /// Samples seen so far.
    count: u64,
    /// Initialization buffer (first five samples).
    init: Vec<f64>,
}

impl P2Quantile {
    /// Track quantile `q` (e.g. 0.5, 0.95, 0.99).
    pub fn new(q: f64) -> P2Quantile {
        assert!((0.0..1.0).contains(&q) && q > 0.0, "q must be in (0, 1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            init: Vec::with_capacity(5),
        }
    }

    /// The tracked quantile.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Offer one observation.
    pub fn offer(&mut self, value: Nanos) {
        let x = value as f64;
        self.count += 1;
        if self.init.len() < 5 {
            self.init.push(x);
            if self.init.len() == 5 {
                self.init.sort_by(f64::total_cmp);
                for (i, v) in self.init.iter().enumerate() {
                    self.heights[i] = *v;
                }
            }
            return;
        }

        // Find the cell k containing x and clamp extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };
        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust the three middle markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (qm, qi, qp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, ni, np) = (
            self.positions[i - 1],
            self.positions[i],
            self.positions[i + 1],
        );
        qi + d / (np - nm)
            * ((ni - nm + d) * (qp - qi) / (np - ni) + (np - ni - d) * (qi - qm) / (ni - nm))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate (`None` before five samples).
    pub fn estimate(&self) -> Option<Nanos> {
        if self.init.len() < 5 {
            if self.init.is_empty() {
                return None;
            }
            // Small-sample fallback: nearest rank over the buffer.
            let mut v = self.init.clone();
            v.sort_by(f64::total_cmp);
            let rank = ((self.q * v.len() as f64).ceil() as usize).clamp(1, v.len());
            return Some(v[rank - 1] as Nanos);
        }
        Some(self.heights[2].max(0.0) as Nanos)
    }
}

/// A bundle of the operator's standard quantiles (p50/p95/p99) in fixed
/// memory.
#[derive(Clone, Debug)]
pub struct RttQuantiles {
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
}

impl RttQuantiles {
    /// Fresh estimator bundle.
    pub fn new() -> RttQuantiles {
        RttQuantiles {
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
        }
    }

    /// Offer one RTT sample.
    pub fn offer(&mut self, rtt: Nanos) {
        self.p50.offer(rtt);
        self.p95.offer(rtt);
        self.p99.offer(rtt);
    }

    /// Current `(p50, p95, p99)` estimates.
    pub fn estimates(&self) -> (Option<Nanos>, Option<Nanos>, Option<Nanos>) {
        (
            self.p50.estimate(),
            self.p95.estimate(),
            self.p99.estimate(),
        )
    }
}

impl Default for RttQuantiles {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::RttDistribution;

    fn lcg(n: usize, f: impl Fn(u64) -> Nanos) -> Vec<Nanos> {
        let mut x = 0x2545F4914F6CDD1Du64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f(x)
            })
            .collect()
    }

    #[test]
    fn tracks_exact_quantiles_within_tolerance() {
        // Unimodal skewed stream: sum of two uniforms plus a soft tail —
        // the regime where P² is accurate.
        let stream = lcg(50_000, |x| {
            5_000_000 + (x % 30_000_000) + ((x >> 17) % 30_000_000)
        });
        let mut sketch = RttQuantiles::new();
        let mut exact = RttDistribution::new();
        for &v in &stream {
            sketch.offer(v);
            exact.push(v);
        }
        let (p50, p95, p99) = sketch.estimates();
        for (est, pct) in [(p50, 50.0), (p95, 95.0), (p99, 99.0)] {
            let e = est.unwrap() as f64;
            let x = exact.percentile(pct).unwrap() as f64;
            let rel = (e - x).abs() / x;
            assert!(rel < 0.05, "p{pct}: sketch {e} vs exact {x} ({rel:.3})");
        }
    }

    #[test]
    fn bimodal_cliff_is_bracketed_not_exact() {
        // A mass spike at ~1% (keep-alive giants) puts p99 on a cliff; P²
        // interpolates across it. Document the limitation: the estimate
        // still lands between the exact p95 and the exact maximum.
        let stream = lcg(50_000, |x| {
            let base = 5_000_000 + (x % 45_000_000);
            if x % 97 == 0 {
                base + 200_000_000
            } else {
                base
            }
        });
        let mut sketch = P2Quantile::new(0.99);
        let mut exact = RttDistribution::new();
        for &v in &stream {
            sketch.offer(v);
            exact.push(v);
        }
        let est = sketch.estimate().unwrap();
        assert!(est > exact.percentile(95.0).unwrap());
        assert!(est < exact.percentile(100.0).unwrap());
    }

    #[test]
    fn small_sample_fallback_is_exact() {
        let mut q = P2Quantile::new(0.5);
        assert_eq!(q.estimate(), None);
        for v in [30, 10, 20] {
            q.offer(v);
        }
        assert_eq!(q.estimate(), Some(20));
    }

    #[test]
    fn monotone_input_converges() {
        let mut q = P2Quantile::new(0.9);
        for v in 1..=10_000u64 {
            q.offer(v);
        }
        let est = q.estimate().unwrap() as f64;
        assert!((est - 9_000.0).abs() < 300.0, "estimate {est}");
    }

    #[test]
    fn constant_input_is_exact() {
        let mut q = P2Quantile::new(0.95);
        for _ in 0..1000 {
            q.offer(777);
        }
        assert_eq!(q.estimate(), Some(777));
    }

    #[test]
    #[should_panic(expected = "q must be in")]
    fn zero_quantile_rejected() {
        P2Quantile::new(0.0);
    }

    #[test]
    fn count_tracks_offers() {
        let mut q = P2Quantile::new(0.5);
        for v in 0..7u64 {
            q.offer(v);
        }
        assert_eq!(q.count(), 7);
    }
}
