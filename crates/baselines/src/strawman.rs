//! The strawman data-plane tracker (paper §2.1, after Chen et al. \[12\]):
//! a single hash table keyed by (flow, eACK) holding a timestamp, with no
//! Range Tracker in front of it.
//!
//! It tracks *every* data packet — including retransmissions — so it emits
//! ambiguous samples (§2.2), and it manages memory with the biased policies
//! §2.3 warns about: a fixed timeout and/or evict-on-collision, both of
//! which under-sample long RTTs. The ablation benches quantify exactly that
//! bias against Dart.

use dart_core::{EngineStats, Leg, RttMonitor, RttSample, SampleSink, SynPolicy};
use dart_packet::{FlowKey, Nanos, PacketMeta, SeqNum, SignatureWidth};
use dart_switch::HashUnit;

/// Eviction policy knobs for the strawman.
#[derive(Clone, Copy, Debug)]
pub struct StrawmanConfig {
    /// Table slots.
    pub slots: usize,
    /// Entries older than this are treated as vacant (`None` disables the
    /// timeout).
    pub timeout: Option<Nanos>,
    /// On a hash collision, overwrite the incumbent with the newcomer
    /// (otherwise the newcomer is dropped).
    pub evict_on_collision: bool,
    /// Handshake policy.
    pub syn_policy: SynPolicy,
    /// Measured leg.
    pub leg: Leg,
}

impl Default for StrawmanConfig {
    fn default() -> Self {
        StrawmanConfig {
            slots: 1 << 17,
            timeout: Some(500 * dart_packet::MILLISECOND),
            evict_on_collision: true,
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
}

/// Counters for a strawman run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StrawmanStats {
    /// Packets offered.
    pub packets: u64,
    /// SYN-flagged packets skipped under `-SYN`.
    pub syn_skipped: u64,
    /// Data packets inserted.
    pub inserted: u64,
    /// Insertions refused (collision, `evict_on_collision = false`).
    pub dropped_on_collision: u64,
    /// Incumbents overwritten on collision.
    pub evicted_on_collision: u64,
    /// Entries reclaimed by timeout.
    pub timed_out: u64,
    /// Samples emitted.
    pub samples: u64,
}

/// The strawman tracker.
pub struct Strawman {
    cfg: StrawmanConfig,
    table: Vec<Option<Entry>>,
    hasher: HashUnit,
    stats: StrawmanStats,
}

impl Strawman {
    /// Build a tracker.
    pub fn new(cfg: StrawmanConfig) -> Strawman {
        assert!(cfg.slots > 0);
        Strawman {
            table: vec![None; cfg.slots],
            hasher: HashUnit::new(0xC0, 32),
            cfg,
            stats: StrawmanStats::default(),
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &StrawmanStats {
        &self.stats
    }

    fn key(&self, flow: &FlowKey, eack: SeqNum) -> (u64, usize) {
        let sig = flow.signature(SignatureWidth::W64).raw();
        let mut bytes = [0u8; 12];
        bytes[0..8].copy_from_slice(&sig.to_le_bytes());
        bytes[8..12].copy_from_slice(&eack.raw().to_le_bytes());
        (sig, self.hasher.index(&bytes, self.table.len()))
    }

    fn expired(&self, e: &Entry, now: Nanos) -> bool {
        self.cfg
            .timeout
            .is_some_and(|t| now.saturating_sub(e.ts) > t)
    }
}

impl RttMonitor for Strawman {
    fn name(&self) -> &str {
        "strawman"
    }

    fn describe(&self) -> String {
        "Strawman: one (flow, eACK) hash table, timeout/evict policies, no ambiguity handling"
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
                if e.sig == sig && e.eack == pkt.ack && !self.expired(&e, pkt.ts) {
                    self.table[idx] = None;
                    self.stats.samples += 1;
                    sink.on_sample(RttSample::new(
                        data_flow,
                        pkt.ack,
                        pkt.ts.saturating_sub(e.ts),
                        pkt.ts,
                    ));
                }
            }
        }
        if self.cfg.leg.seq_role(pkt.dir) && pkt.is_seq() {
            let eack = pkt.eack();
            let (sig, idx) = self.key(&pkt.flow, eack);
            let entry = Entry {
                sig,
                eack,
                ts: pkt.ts,
            };
            match self.table[idx] {
                None => {
                    self.table[idx] = Some(entry);
                    self.stats.inserted += 1;
                }
                Some(old) if self.expired(&old, pkt.ts) => {
                    self.stats.timed_out += 1;
                    self.table[idx] = Some(entry);
                    self.stats.inserted += 1;
                }
                Some(old) if old.sig == sig && old.eack == eack => {
                    // Retransmission replica: the strawman blindly refreshes
                    // the timestamp — the ambiguity §2.2 describes.
                    self.table[idx] = Some(entry);
                    self.stats.inserted += 1;
                }
                Some(_) if self.cfg.evict_on_collision => {
                    self.stats.evicted_on_collision += 1;
                    self.table[idx] = Some(entry);
                    self.stats.inserted += 1;
                }
                Some(_) => {
                    self.stats.dropped_on_collision += 1;
                }
            }
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

    fn cfg(slots: usize) -> StrawmanConfig {
        StrawmanConfig {
            slots,
            ..StrawmanConfig::default()
        }
    }

    #[test]
    fn clean_exchange_samples() {
        let f = flow(1);
        let mut s = Strawman::new(cfg(64));
        let mut out: Vec<RttSample> = Vec::new();
        s.on_packet(
            &PacketBuilder::new(f, 0)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            &mut out,
        );
        s.on_packet(
            &PacketBuilder::new(f.reverse(), 7_000)
                .ack(100u32)
                .dir(Direction::Inbound)
                .build(),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rtt, 7_000);
    }

    #[test]
    fn retransmission_produces_wrong_sample() {
        // The defining flaw: the strawman refreshes the timestamp on a
        // retransmission, so a delayed ACK of the ORIGINAL transmission is
        // measured against the RETRANSMIT time — an underestimated sample
        // Dart would have refused to produce.
        let f = flow(2);
        let mut s = Strawman::new(cfg(64));
        let mut out: Vec<RttSample> = Vec::new();
        s.on_packet(
            &PacketBuilder::new(f, 0)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            &mut out,
        );
        s.on_packet(
            &PacketBuilder::new(f, 50_000)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            &mut out,
        );
        s.on_packet(
            &PacketBuilder::new(f.reverse(), 60_000)
                .ack(100u32)
                .dir(Direction::Inbound)
                .build(),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rtt, 10_000, "ambiguous sample, biased low");
    }

    #[test]
    fn timeout_discards_slow_entries() {
        let f = flow(3);
        let mut c = cfg(64);
        c.timeout = Some(1_000);
        let mut s = Strawman::new(c);
        let mut out: Vec<RttSample> = Vec::new();
        s.on_packet(
            &PacketBuilder::new(f, 0)
                .seq(0u32)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
            &mut out,
        );
        // ACK arrives after the timeout: the long-RTT sample is lost — the
        // bias against long RTTs §2.3 describes.
        s.on_packet(
            &PacketBuilder::new(f.reverse(), 5_000)
                .ack(100u32)
                .dir(Direction::Inbound)
                .build(),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn collision_policy_evict_vs_drop() {
        // With one slot, two distinct packets always collide.
        let fa = flow(4);
        let fb = flow(5);
        for (evict, expect_evicted, expect_dropped) in [(true, 1, 0), (false, 0, 1)] {
            let mut c = cfg(1);
            c.evict_on_collision = evict;
            c.timeout = None;
            let mut s = Strawman::new(c);
            let mut out: Vec<RttSample> = Vec::new();
            s.on_packet(
                &PacketBuilder::new(fa, 0)
                    .seq(0u32)
                    .payload(100)
                    .dir(Direction::Outbound)
                    .build(),
                &mut out,
            );
            s.on_packet(
                &PacketBuilder::new(fb, 10)
                    .seq(0u32)
                    .payload(100)
                    .dir(Direction::Outbound)
                    .build(),
                &mut out,
            );
            assert_eq!(s.stats().evicted_on_collision, expect_evicted);
            assert_eq!(s.stats().dropped_on_collision, expect_dropped);
        }
    }

    #[test]
    fn syn_skip_ignores_handshake() {
        let f = flow(6);
        let mut s = Strawman::new(cfg(64));
        let mut out: Vec<RttSample> = Vec::new();
        s.on_packet(
            &PacketBuilder::new(f, 0)
                .seq(0u32)
                .syn()
                .dir(Direction::Outbound)
                .build(),
            &mut out,
        );
        assert_eq!(s.stats().inserted, 0);
    }
}
