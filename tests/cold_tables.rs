//! Cold tables: a register array is plain integer words, so building an
//! engine asks the allocator for *zeroed* memory and writes none of it — an
//! untouched slot is a page the kernel never had to hand over — and the
//! word form is a private matter of the array: checkpoints are field-wise,
//! so one written before the slots were words restores, and re-serialises,
//! byte for byte.
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

/// At least 95 % of the bytes `DartEngine::new` requests for the default
/// geometry of each backend arrive through `alloc_zeroed`: the tables (tens
/// of megabytes) are handed over untouched, and what is written at
/// construction is bookkeeping.
#[test]
fn building_an_engine_writes_no_table() {
    for backend in [Backend::Exact, Backend::Sketch, Backend::Precision] {
        let cfg = DartConfig::default().with_backend(backend);
        let mut engine = None;
        let (requested, zeroed) = requested_bytes(|| engine = Some(DartEngine::new(cfg)));
        assert!(
            requested > 16 << 20,
            "{backend}: default tables are tens of megabytes, {requested} bytes requested"
        );
        assert!(
            zeroed as f64 >= 0.95 * requested as f64,
            "{backend}: {zeroed} of {requested} bytes came zeroed"
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
