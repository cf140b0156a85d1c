//! Cold tables: a register array holds what is stored in it — a large one
//! starts as an occupancy bitmap and an empty map, so building an engine
//! requests next to nothing and its tables grow with their occupied slots —
//! and the storage form is a private matter of the array: checkpoints are
//! field-wise, so one written before the slots were words restores, and
//! re-serialises, byte for byte.
//!
//! One exception since PR 23: a sketch checkpoint from before the sketch
//! PT's fingerprint stopped being a CRC sibling of its way index is
//! refused, not restored into cells no ACK could match.
//!
//! `fixtures/parent_*.dsnp` were written at the parent commit (`d232106`,
//! `Option<T>` slots) by a throw-away binary that `include!`d
//! `fixtures/traffic.rs`, fed `fixture_traffic()` to a `DartEngine::new(cfg)`
//! for each of `fixture_configs()` packet by packet, and wrote
//! `engine.snapshot()` out. They are never regenerated: what they pin is
//! that this build reads that build's bytes.

mod common;

use common::requested_bytes;
use dart::core::{
    Backend, DartConfig, DartEngine, Leg, RttMonitor, RttSample, Snapshot, SnapshotError,
};
use dart::packet::{Direction, FlowKey, PacketBuilder, PacketMeta};

include!("fixtures/traffic.rs");

/// `DartEngine::new` requests at most 1 MiB for the default geometry of
/// each backend — 2^20 RT and 2^17 PT slots, 28 MB of words were they held
/// dense — so construction writes at most that: a large register array
/// starts as its occupancy bitmap and an empty map.
#[test]
fn building_an_engine_writes_no_table() {
    for backend in [Backend::Exact, Backend::Sketch, Backend::Precision] {
        let cfg = DartConfig::default().with_backend(backend);
        let mut engine = None;
        let (requested, _) = requested_bytes(|| engine = Some(DartEngine::new(cfg)));
        assert!(
            requested <= 1 << 20,
            "{backend}: {requested} bytes requested at construction"
        );
    }
}

/// A default-geometry engine's tables grow with what is stored in them:
/// after `fixture_traffic()`, everything the engine requested — build and
/// run, every map growth counted — is within eight times its occupied
/// slots' words (DESIGN.md §5f's record sizes), plus the occupancy bitmaps
/// (one bit per slot) and 128 KiB for the rest of the engine. The word
/// arrays alone would be 28 MB.
#[test]
fn tables_hold_what_is_stored() {
    let traffic = fixture_traffic();
    for backend in [Backend::Exact, Backend::Sketch, Backend::Precision] {
        let cfg = DartConfig::default().with_backend(backend);
        let mut samples = 0usize;
        let mut engine = None;
        let (requested, _) = requested_bytes(|| {
            let mut fed = DartEngine::new(cfg);
            let mut sink = |_: RttSample| samples += 1;
            for block in traffic.chunks(64) {
                fed.on_batch(block, &mut sink);
            }
            engine = Some(fed);
        });
        let engine = engine.unwrap();
        let (rt_record, pt_record) = match backend {
            Backend::Sketch => (32, 16),
            _ => (24, 32),
        };
        let stored = engine.rt_occupancy() * rt_record + engine.pt_occupancy() * pt_record;
        let bitmaps = ((1 << 20) + (1 << 17)) / 8;
        assert!(
            samples > 0 && stored > 0,
            "{backend}: the traffic stored nothing"
        );
        assert!(
            requested <= 8 * stored + bitmaps + (128 << 10),
            "{backend}: {requested} bytes requested for {stored} bytes of stored records"
        );
    }
}

/// A checkpoint the parent commit wrote restores into this build, writes
/// back out as the same bytes, and is the checkpoint this build writes from
/// the same packets — except the sketch backend's, which is refused.
#[test]
fn a_parent_checkpoint_restores_and_reserialises_byte_identically() {
    let traffic = fixture_traffic();
    for (name, cfg) in fixture_configs() {
        let path = format!(
            "{}/tests/fixtures/parent_{name}.dsnp",
            env!("CARGO_MANIFEST_DIR")
        );
        let parent = Snapshot::from_file(path.as_ref()).unwrap();

        let mut fed = DartEngine::new(cfg);
        let mut sink: Vec<RttSample> = Vec::new();
        for p in &traffic {
            fed.on_packet(p, &mut sink);
        }
        let written = fed.snapshot().unwrap();

        // The fingerprints in `parent_sketch.dsnp`'s PT cells are CRC-32s of
        // the same family as the way index (ROADMAP item 1's fabrication);
        // this build stores a `mix64` fingerprint under a scheme word the
        // section now opens with. So the same packets cannot write the
        // parent's bytes — they write the same cells, eight bytes longer —
        // and the parent's file must not restore: every cell would sit
        // there unmatched. What restores and re-serialises identically is
        // the checkpoint this build wrote.
        let fixture = if cfg.backend() == Backend::Sketch {
            let err = DartEngine::new(cfg).restore(&parent).unwrap_err();
            assert!(
                matches!(&err, SnapshotError::Mismatch(why) if why.contains("fingerprint scheme")),
                "{name}: {err}"
            );
            assert_eq!(written.payload().len(), parent.payload().len() + 8);
            written
        } else {
            assert_eq!(
                written, parent,
                "{name}: the same packets no longer write the parent's checkpoint"
            );
            parent
        };

        let mut restored = DartEngine::new(cfg);
        restored.restore(&fixture).unwrap();
        assert_eq!(
            restored.snapshot().unwrap(),
            fixture,
            "{name}: re-serialised checkpoint differs from the one restored"
        );
        assert!(restored.rt_occupancy() > 0 && restored.pt_occupancy() > 0);
    }
}
