//! `DSNP` frames carrying hostile bytes *behind a valid checksum*: the frame
//! check proves the payload arrived as written, not that whoever wrote it
//! was honest. Whatever the payload says — slot indices, slot counts, way
//! and stage counts, lengths, counters — `restore` answers `Ok` or `Err`,
//! never a panic; it asks the allocator for no more than the configured
//! geometry plus a small multiple of the payload it was handed; and the
//! engine it leaves behind (restored, or refused half way) still processes
//! packets, flushes and checkpoints. A state that *is* accepted is one the
//! engine can write back out and accept again, byte for byte.

mod common;

use common::{largest_allocation, requested_bytes};
use dart::core::{
    Backend, DartConfig, DartEngine, Leg, RttMonitor, RttSample, ShardedConfig, ShardedMonitor,
    Snapshot,
};
use dart::packet::{Direction, FlowKey, PacketBuilder, PacketMeta};
use proptest::prelude::*;

/// Small geometries, so that an edited word is likely to be a slot index, a
/// count or a length rather than the inside of a record — one per table
/// family the snapshot format has a section for.
fn configs() -> Vec<(&'static str, DartConfig)> {
    let frontier = DartConfig::default()
        .with_leg(Leg::Both)
        .with_rt(64)
        .with_pt(16, 2)
        .with_max_recirc(2);
    vec![
        ("exact", frontier.with_victim_cache(2)),
        (
            "exact+rt-copy",
            DartConfig::default()
                .with_rt(64)
                .with_pt(8, 1)
                .with_rt_copy(1_000_000),
        ),
        ("sketch", frontier.with_backend(Backend::Sketch)),
        ("precision", frontier.with_backend(Backend::Precision)),
        ("unlimited", DartConfig::unlimited()),
    ]
}

fn flow(n: u32) -> FlowKey {
    FlowKey::from_raw(0x0a00_0000 + n, 40000 + (n as u16 % 1000), 0x5db8_d822, 443)
}

/// 48 flows' data 1 µs apart (inside the 10 µs recirculation delay, and more
/// than the small PTs hold, so the victim cache and the recirculation loop
/// are populated), their ACKs following.
fn traffic(from: u32, to: u32) -> Vec<PacketMeta> {
    let mut pkts = Vec::new();
    for n in from..to {
        let (f, t) = (flow(n % 48), u64::from(n) * 1_000);
        pkts.push(
            PacketBuilder::new(f, t)
                .seq(n / 48 * 100)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
        );
        if n % 3 != 0 {
            pkts.push(
                PacketBuilder::new(f.reverse(), t + 500)
                    .ack(n / 48 * 100 + 100)
                    .dir(Direction::Inbound)
                    .build(),
            );
        }
    }
    pkts
}

/// The honest checkpoint the edits start from.
fn checkpoint(cfg: DartConfig) -> Snapshot {
    let mut engine = DartEngine::new(cfg);
    let mut sink: Vec<RttSample> = Vec::new();
    for p in &traffic(0, 200) {
        engine.on_packet(p, &mut sink);
    }
    engine.snapshot().unwrap()
}

/// Words worth writing over a count, an index or a length.
const INTERESTING: [u64; 20] = [
    0,
    1,
    2,
    7,
    8,
    9,
    15,
    16,
    17,
    63,
    64,
    65,
    255,
    1 << 16,
    1 << 20,
    1 << 32,
    1 << 40,
    1 << 62,
    u64::MAX - 1,
    u64::MAX,
];

/// One edit of a payload: where (scaled into the payload past the kind byte
/// and the configuration fingerprint, which are refused before anything is
/// parsed), what kind, and with which value.
type Edit = (u32, u8, u64);

fn apply(payload: &mut Vec<u8>, edits: &[Edit]) {
    const SKIP: usize = 9;
    for &(at, kind, value) in edits {
        if payload.len() <= SKIP + 8 {
            return;
        }
        let at = SKIP + at as usize % (payload.len() - SKIP - 8);
        let word = match kind % 8 {
            // An interesting word, most of the time: random words almost
            // always just fail the first bounds check they meet.
            0..=3 => INTERESTING[value as usize % INTERESTING.len()],
            _ => value,
        };
        match kind % 8 {
            0 | 1 | 4 => payload[at..at + 8].copy_from_slice(&word.to_le_bytes()),
            2 | 5 => payload[at..at + 4].copy_from_slice(&(word as u32).to_le_bytes()),
            3 | 6 => payload[at] = word as u8,
            _ => payload.truncate(at),
        }
    }
}

/// What `DartEngine::new(cfg)` itself asks the allocator for — the
/// configured geometry, measured rather than modelled.
fn geometry_bytes(cfg: DartConfig) -> usize {
    requested_bytes(|| drop(DartEngine::new(cfg))).0
}

/// The properties, for one configuration and one edited payload.
fn check(name: &str, cfg: DartConfig, payload: Vec<u8>) -> Result<(), TestCaseError> {
    let hostile = Snapshot::from_payload(payload);
    let budget = geometry_bytes(cfg) + 64 * hostile.payload().len() + 4096;
    let mut engine = DartEngine::new(cfg);
    let mut outcome = None;
    let mut largest = 0;
    let (requested, _) = requested_bytes(|| {
        largest = largest_allocation(|| outcome = Some(engine.restore(&hostile)));
    });
    prop_assert!(
        requested <= budget && largest <= budget,
        "{name}: restore requested {requested} bytes (largest {largest}), budget {budget}"
    );
    // Restored or refused half way, the engine keeps running.
    let mut sink: Vec<RttSample> = Vec::new();
    for p in &traffic(200, 320) {
        engine.on_packet(p, &mut sink);
    }
    engine.on_batch(&traffic(320, 400), &mut sink);
    engine.rotate_epoch(350_000);
    let again = engine.snapshot().unwrap();
    engine.flush(&mut sink);
    if outcome.is_some_and(|o| o.is_ok()) {
        // What was accepted can be written out and accepted again.
        let mut second = DartEngine::new(cfg);
        prop_assert!(
            second.restore(&again).is_ok(),
            "{name}: own snapshot refused"
        );
        prop_assert_eq!(second.snapshot().unwrap(), again);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn edited_engine_snapshots_never_panic_or_balloon(
        edits in prop::collection::vec((any::<u32>(), any::<u8>(), any::<u64>()), 1..4),
    ) {
        for (name, cfg) in configs() {
            let mut payload = checkpoint(cfg).payload().to_vec();
            apply(&mut payload, &edits);
            check(name, cfg, payload)?;
        }
    }

    /// Arbitrary bytes after an honest kind byte and fingerprint: nothing of
    /// the structure is trusted, only the two fields that get the payload
    /// past the first refusal.
    #[test]
    fn arbitrary_payloads_never_panic_or_balloon(
        body in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        for (name, cfg) in configs() {
            let mut payload = checkpoint(cfg).payload()[..9].to_vec();
            payload.extend_from_slice(&body);
            check(name, cfg, payload)?;
        }
    }
}

/// Every word of every section, overwritten in turn with every interesting
/// value: the exhaustive pass beside the sampled ones (the payloads are a
/// few kilobytes, so this is some tens of thousands of restores per
/// configuration).
#[test]
fn every_word_of_every_section_is_validated() {
    for (name, cfg) in configs() {
        let honest = checkpoint(cfg).payload().to_vec();
        for at in (9..honest.len() - 8).step_by(4) {
            for &word in &INTERESTING {
                let mut payload = honest.clone();
                payload[at..at + 8].copy_from_slice(&word.to_le_bytes());
                if payload == honest {
                    continue;
                }
                check(name, cfg, payload)
                    .unwrap_or_else(|e| panic!("{name}: word {word:#x} at {at}: {e:?}"));
            }
        }
    }
}

/// The geometries the CLI ships (RT 2^20, PT 2^17): restoring into tables
/// that are already built asks for a small multiple of the payload, never
/// for another table — the budget above is not met by re-allocating.
#[test]
fn default_geometry_restores_within_its_own_footprint() {
    let cfgs = [
        DartConfig::default(),
        DartConfig::default().with_backend(Backend::Sketch),
        DartConfig::default().with_backend(Backend::Precision),
    ];
    for cfg in cfgs {
        let honest = checkpoint(cfg);
        let mut engine = DartEngine::new(cfg);
        let (requested, _) = requested_bytes(|| engine.restore(&honest).unwrap());
        assert!(
            requested <= 64 * honest.payload().len() + 4096,
            "an honest restore into built tables requested {requested} bytes"
        );
        assert_eq!(engine.snapshot().unwrap().as_bytes(), honest.as_bytes());
    }
}

/// The sharded frame wraps one engine section per shard behind its own
/// counts and lengths; those are hostile too.
#[test]
fn edited_sharded_snapshots_are_refused_or_restored_never_fatal() {
    let engine = DartConfig::default()
        .with_leg(Leg::Both)
        .with_rt(64)
        .with_pt(16, 2)
        .with_max_recirc(2);
    let cfg = ShardedConfig::new(engine, 2);
    let mut sink: Vec<RttSample> = Vec::new();
    let honest = {
        let mut monitor = ShardedMonitor::new(cfg);
        monitor.on_batch(&traffic(0, 200), &mut sink);
        monitor.drain(&mut sink);
        let snap = monitor.snapshot().unwrap();
        monitor.flush(&mut sink);
        snap.payload().to_vec()
    };
    let mut rng_word = 0x9E37_79B9_7F4A_7C15u64;
    for round in 0..96u32 {
        rng_word = rng_word
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut payload = honest.clone();
        apply(
            &mut payload,
            &[(
                (rng_word >> 32) as u32,
                (round % 8) as u8,
                rng_word.rotate_left(round),
            )],
        );
        let mut monitor = ShardedMonitor::new(cfg);
        let _ = monitor.restore(&Snapshot::from_payload(payload));
        monitor.on_batch(&traffic(200, 260), &mut sink);
        monitor.flush(&mut sink);
    }
}
