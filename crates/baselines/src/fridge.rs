//! A "fridge"-style unbiased delay sampler (Zheng et al., APoCS 2022 —
//! the paper's §8 related work).
//!
//! The fridge stores (flow, eACK) → timestamp entries in a hash table where
//! collisions always evict the incumbent. Because an entry's survival
//! probability decays with every insertion that could land on its slot, a
//! matched sample is emitted with a *correction weight* equal to the inverse
//! of its survival probability: `w = (1 - 1/m)^(-k)` for `k` intervening
//! insertions into a table of `m` slots. Weighted aggregates are then
//! unbiased even though long-RTT entries are evicted more often.
//!
//! Unlike Dart, the fridge neither validates against TCP ambiguities nor
//! avoids tracking useless packets — the ablation benches contrast the two.

use dart_core::{EngineStats, Leg, RttMonitor, RttSample, SampleSink, SampleWeight, SynPolicy};
use dart_packet::{FlowKey, Nanos, PacketMeta, SeqNum, SignatureWidth};
use dart_switch::HashUnit;

/// A weighted RTT sample from the fridge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeightedSample {
    /// Flow key in the data direction.
    pub flow: FlowKey,
    /// Acknowledgment number that closed the sample.
    pub eack: SeqNum,
    /// Measured round-trip time.
    pub rtt: Nanos,
    /// Arrival time of the closing ACK.
    pub ts: Nanos,
    /// Inverse-survival-probability correction weight (≥ 1).
    pub weight: f64,
}

/// The weight rides along as quantized [`SampleWeight`] metadata, so
/// fridge output fits the common [`SampleSink`] contract without losing
/// its corrections.
impl From<WeightedSample> for RttSample {
    fn from(w: WeightedSample) -> RttSample {
        RttSample::new(w.flow, w.eack, w.rtt, w.ts).with_weight(SampleWeight::from_f64(w.weight))
    }
}

/// Fridge configuration.
#[derive(Clone, Copy, Debug)]
pub struct FridgeConfig {
    /// Table slots (`m`).
    pub slots: usize,
    /// Handshake policy.
    pub syn_policy: SynPolicy,
    /// Measured leg.
    pub leg: Leg,
}

impl Default for FridgeConfig {
    fn default() -> Self {
        FridgeConfig {
            slots: 1 << 17,
            syn_policy: SynPolicy::Skip,
            leg: Leg::External,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    sig: u64,
    eack: SeqNum,
    ts: Nanos,
    /// Global insertion counter value when this entry was stored.
    birth: u64,
}

/// Counters for a fridge run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FridgeStats {
    /// Packets offered.
    pub packets: u64,
    /// SYN-flagged packets skipped under `-SYN`.
    pub syn_skipped: u64,
    /// Entries inserted.
    pub inserted: u64,
    /// Incumbents evicted by collisions.
    pub evicted: u64,
    /// Samples emitted.
    pub samples: u64,
}

/// The fridge sampler.
pub struct Fridge {
    cfg: FridgeConfig,
    table: Vec<Option<Entry>>,
    hasher: HashUnit,
    insertions: u64,
    stats: FridgeStats,
}

impl Fridge {
    /// Build a fridge.
    pub fn new(cfg: FridgeConfig) -> Fridge {
        assert!(cfg.slots > 1);
        Fridge {
            table: vec![None; cfg.slots],
            hasher: HashUnit::new(0xD0, 32),
            insertions: 0,
            cfg,
            stats: FridgeStats::default(),
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &FridgeStats {
        &self.stats
    }

    fn key(&self, flow: &FlowKey, eack: SeqNum) -> (u64, usize) {
        let sig = flow.signature(SignatureWidth::W64).raw();
        let mut bytes = [0u8; 12];
        bytes[0..8].copy_from_slice(&sig.to_le_bytes());
        bytes[8..12].copy_from_slice(&eack.raw().to_le_bytes());
        (sig, self.hasher.index(&bytes, self.table.len()))
    }

    /// Correction weight after `k` intervening insertions in `m` slots.
    fn weight(&self, k: u64) -> f64 {
        let m = self.table.len() as f64;
        // (1 - 1/m)^(-k) computed in log space for stability.
        (-(k as f64) * (1.0 - 1.0 / m).ln()).exp()
    }
}

impl RttMonitor for Fridge {
    fn name(&self) -> &str {
        "fridge"
    }

    fn describe(&self) -> String {
        "Fridge: evict-on-collision sampler with inverse-survival correction weights (APoCS '22)"
            .to_string()
    }

    fn on_packet(&mut self, pkt: &PacketMeta, sink: &mut dyn SampleSink) {
        self.stats.packets += 1;
        if self.cfg.syn_policy.skips(pkt) {
            self.stats.syn_skipped += 1;
            return;
        }
        if self.cfg.leg.ack_role(pkt.dir) && pkt.is_ack() {
            let data_flow = pkt.flow.reverse();
            let (sig, idx) = self.key(&data_flow, pkt.ack);
            if let Some(e) = self.table[idx] {
                if e.sig == sig && e.eack == pkt.ack {
                    self.table[idx] = None;
                    self.stats.samples += 1;
                    sink.on_sample(
                        WeightedSample {
                            flow: data_flow,
                            eack: pkt.ack,
                            rtt: pkt.ts.saturating_sub(e.ts),
                            ts: pkt.ts,
                            weight: self.weight(self.insertions - e.birth),
                        }
                        .into(),
                    );
                }
            }
        }
        if self.cfg.leg.seq_role(pkt.dir) && pkt.is_seq() {
            let eack = pkt.eack();
            let (sig, idx) = self.key(&pkt.flow, eack);
            if self.table[idx].is_some() {
                self.stats.evicted += 1;
            }
            self.insertions += 1;
            self.table[idx] = Some(Entry {
                sig,
                eack,
                ts: pkt.ts,
                birth: self.insertions,
            });
            self.stats.inserted += 1;
        }
    }

    fn flush(&mut self, _sink: &mut dyn SampleSink) {}

    fn stats(&self) -> EngineStats {
        EngineStats {
            packets: self.stats.packets,
            syn_skipped: self.stats.syn_skipped,
            samples: self.stats.samples,
            ..EngineStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_packet::{Direction, PacketBuilder};

    fn flow(n: u32) -> FlowKey {
        FlowKey::from_raw(0x0a00_0000 + n, 40000, 0x5db8_d822, 443)
    }

    #[test]
    fn immediate_match_has_unit_weight() {
        let f = flow(1);
        let mut fr = Fridge::new(FridgeConfig {
            slots: 64,
            ..FridgeConfig::default()
        });
        let mut out: Vec<RttSample> = Vec::new();
        fr.on_packet(
            &PacketBuilder::new(f, 0)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            &mut out,
        );
        fr.on_packet(
            &PacketBuilder::new(f.reverse(), 9_000)
                .ack(100u32)
                .dir(Direction::Inbound)
                .build(),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rtt, 9_000);
        assert_eq!(out[0].ts, 9_000);
        assert!(out[0].weight.is_unit());
    }

    #[test]
    fn weight_grows_with_intervening_insertions() {
        let f = flow(1);
        let mut fr = Fridge::new(FridgeConfig {
            slots: 64,
            ..FridgeConfig::default()
        });
        let mut out: Vec<RttSample> = Vec::new();
        fr.on_packet(
            &PacketBuilder::new(f, 0)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            &mut out,
        );
        // 50 intervening insertions from other flows.
        for n in 2..52 {
            fr.on_packet(
                &PacketBuilder::new(flow(n), 10)
                    .seq(0u32)
                    .payload(100)
                    .dir(Direction::Outbound)
                    .build(),
                &mut out,
            );
        }
        fr.on_packet(
            &PacketBuilder::new(f.reverse(), 100_000)
                .ack(100u32)
                .dir(Direction::Inbound)
                .build(),
            &mut out,
        );
        if let Some(s) = out.last() {
            // Survived ≥ some insertions: weight strictly above 1 unless it
            // was never threatened... it must be > 1 when k > 0.
            assert!(s.weight.as_f64() >= 1.0);
        }
        // The entry may have been evicted (then no sample) — either way the
        // stats add up.
        assert_eq!(fr.stats().inserted, 51);
    }

    #[test]
    fn weighted_sample_converts_without_losing_the_weight() {
        let w = WeightedSample {
            flow: flow(9),
            eack: SeqNum(1460),
            rtt: 12_000,
            ts: 13_000,
            weight: 2.5,
        };
        let s = RttSample::from(w);
        assert_eq!(s.flow, w.flow);
        assert_eq!(s.eack, w.eack);
        assert_eq!(s.rtt, w.rtt);
        assert_eq!(s.ts, w.ts);
        assert!((s.weight.as_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn eviction_always_replaces() {
        // One-effective-slot behaviour: hammer one slot via identical keys.
        let f = flow(1);
        let mut fr = Fridge::new(FridgeConfig {
            slots: 2,
            ..FridgeConfig::default()
        });
        let mut evictions_seen = false;
        let mut out: Vec<RttSample> = Vec::new();
        for t in 0..100u64 {
            fr.on_packet(
                &PacketBuilder::new(flow(t as u32), t)
                    .seq(0u32)
                    .payload(100)
                    .dir(Direction::Outbound)
                    .build(),
                &mut out,
            );
        }
        if fr.stats().evicted > 0 {
            evictions_seen = true;
        }
        assert!(evictions_seen, "collisions must evict");
        let _ = f;
    }

    #[test]
    fn weight_formula_matches_closed_form() {
        let fr = Fridge::new(FridgeConfig {
            slots: 100,
            ..FridgeConfig::default()
        });
        let w = fr.weight(10);
        let expected = (1.0f64 - 0.01).powi(-10);
        assert!((w - expected).abs() < 1e-9);
    }
}
