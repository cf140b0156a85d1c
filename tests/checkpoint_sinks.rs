//! One serializer, any sink: a checkpoint streamed to a file through
//! `RttMonitor::checkpoint_to` is byte for byte the frame
//! `RttMonitor::snapshot` holds in memory — for the serial engine under
//! every backend and for the sharded runtime at several shard counts, and
//! with a shard written off — and the file restores and re-serialises to
//! the same bytes.

use dart::core::{
    Backend, DartConfig, DartEngine, PacketHook, RttMonitor, RttSample, ShardedConfig,
    ShardedMonitor, Snapshot,
};
use dart::packet::PacketMeta;
use dart_testkit::recovery::recovery_trace;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A checkpoint path unique to this process and `test`.
fn scratch(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dart-checkpoint-sinks-{}-{test}.dsnp",
        std::process::id()
    ))
}

/// Feed the first two thirds of the recovery trace in blocks.
fn feed(monitor: &mut dyn RttMonitor, pkts: &[PacketMeta]) {
    let mut sink: Vec<RttSample> = Vec::new();
    for block in pkts[..pkts.len() * 2 / 3].chunks(256) {
        monitor.on_batch(block, &mut sink);
    }
}

/// [`feed`], then drain: a sharded checkpoint is taken drained.
fn feed_drained(monitor: &mut ShardedMonitor, pkts: &[PacketMeta]) {
    feed(monitor, pkts);
    monitor.drain(&mut Vec::<RttSample>::new());
}

/// Stream `monitor`'s checkpoint to `path` and check it against the
/// in-memory snapshot of the same cut; returns the loaded file.
fn streamed_is_held(monitor: &mut dyn RttMonitor, path: &Path, what: &str) -> Snapshot {
    let held = monitor.snapshot().expect("snapshot");
    let written = monitor.checkpoint_to(path).expect("streamed checkpoint");
    assert_eq!(written, held.as_bytes().len() as u64, "{what}: size");
    assert!(
        std::fs::read(path).expect("read back") == held.as_bytes(),
        "{what}: the streamed file is not the snapshot's bytes"
    );
    let loaded = Snapshot::from_file(path).expect("load");
    assert_eq!(loaded, held, "{what}");
    loaded
}

#[test]
fn a_streamed_engine_checkpoint_is_its_snapshot() {
    let pkts = recovery_trace(7);
    for backend in [Backend::Exact, Backend::Sketch, Backend::Precision] {
        let what = format!("{backend:?}");
        let path = scratch(&format!("engine-{what}"));
        let cfg = DartConfig::default().with_backend(backend);
        let mut engine = DartEngine::new(cfg);
        feed(&mut engine, &pkts);
        let loaded = streamed_is_held(&mut engine, &path, &what);
        let mut restored = DartEngine::new(cfg);
        restored.restore(&loaded).expect("restore");
        assert_eq!(restored.snapshot().expect("re-snapshot"), loaded, "{what}");
        std::fs::remove_file(&path).expect("clean up");
    }
}

#[test]
fn a_streamed_sharded_checkpoint_is_its_snapshot() {
    let pkts = recovery_trace(7);
    for shards in [1, 2, 4] {
        let what = format!("{shards} shard(s)");
        let path = scratch(&format!("sharded-{shards}"));
        let cfg = ShardedConfig::new(DartConfig::default(), shards).with_batch_size(64);
        let mut monitor = ShardedMonitor::new(cfg);
        feed_drained(&mut monitor, &pkts);
        let loaded = streamed_is_held(&mut monitor, &path, &what);
        let mut restored = ShardedMonitor::new(cfg);
        restored.restore(&loaded).expect("restore");
        assert_eq!(restored.snapshot().expect("re-snapshot"), loaded, "{what}");
        std::fs::remove_file(&path).expect("clean up");
    }
}

#[test]
fn a_written_off_shard_streams_as_it_snapshots() {
    let pkts = recovery_trace(7);
    let cfg = ShardedConfig::new(DartConfig::default(), 2).with_batch_size(8);
    // Shard 1 panics on every block until its restarts are spent and it
    // sheds: its section is written off.
    let hook: PacketHook = Arc::new(|idx, shard| {
        if shard == 1 {
            panic!("shard 1 fails again at packet {idx}");
        }
    });
    let mut monitor = ShardedMonitor::spawn(cfg, None, Some(hook));
    feed_drained(&mut monitor, &pkts);
    let path = scratch("written-off");
    let loaded = streamed_is_held(&mut monitor, &path, "written off");
    // The checkpoint was answered after every block fed before it.
    assert_eq!(monitor.health().healthy_shards, 1, "shard 1 still measures");
    // The written-off shard restarts fresh, so it has a section from the
    // restored monitor on: that re-serialisation is stable from then on.
    let mut restored = ShardedMonitor::new(cfg);
    restored.restore(&loaded).expect("restore");
    let again = restored.snapshot().expect("re-snapshot");
    let mut twice = ShardedMonitor::new(cfg);
    twice.restore(&again).expect("restore the restored");
    assert_eq!(twice.snapshot().expect("re-snapshot"), again);
    std::fs::remove_file(&path).expect("clean up");
}
