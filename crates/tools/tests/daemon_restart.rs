//! Checkpoint/restore round trips through the daemon, across a restart.
//! Its own binary: every `Daemon::start` here allocates design-scale
//! tables, and that load must not starve the timing-sensitive tests in
//! `daemon.rs`.

mod common;

use common::{cfg, exchanges, Counting};
use dart_core::sharded::ShardedConfig;
use dart_core::DartConfig;
use dart_tools::{Daemon, DaemonConfig};
use std::time::Duration;

#[test]
fn checkpoint_then_restore_preserves_the_books_across_a_restart() {
    let dir = std::env::temp_dir().join(format!(
        "dartmon_ckpt_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let snap = dir.join("daemon.dsnp");
    let pkts = exchanges(10, 6);
    let total = pkts.len() as u64;
    let split = pkts.len() / 2;

    // First incarnation: drain the first half, leaving the shutdown
    // checkpoint behind.
    let daemon = Daemon::start(DaemonConfig {
        snapshot_path: Some(snap.clone()),
        checkpoint_every: Some(Duration::from_millis(5)),
        ..cfg()
    })
    .expect("bind");
    let mut source = dart_packet::SliceSource::new(&pkts[..split]);
    let mut seen = Counting::default();
    let first = daemon.run(&mut source, &mut seen).expect("first run");
    assert_eq!(seen.0, first.stats.samples);
    assert!(first.checkpoints >= 1, "no checkpoint written");
    assert!(!first.restored);
    assert!(snap.is_file(), "snapshot missing after shutdown");

    // Second incarnation: restore, then feed the rest. The books must
    // carry across the boundary — fed == packets + monitor_miss summed
    // over both lives.
    let daemon = Daemon::start(DaemonConfig {
        snapshot_path: Some(snap.clone()),
        restore_from: Some(snap.clone()),
        ..cfg()
    })
    .expect("bind after restore");
    let mut source = dart_packet::SliceSource::new(&pkts[split..]);
    let second = daemon.run(&mut source, &mut seen).expect("second run");
    assert!(second.restored);
    assert_eq!(
        second.stats.packets + second.stats.monitor_miss,
        total,
        "conservation across the restart: {:?}",
        second.stats
    );
    assert!(second.stats.samples >= first.stats.samples);
    // The counters resume from the checkpoint, and the checkpoint followed
    // the first life's last drain: between them the two lives delivered
    // each of the samples the books count, once.
    assert_eq!(seen.0, second.stats.samples);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_refuses_a_mismatched_snapshot() {
    let dir = std::env::temp_dir().join(format!(
        "dartmon_badsnap_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let snap = dir.join("daemon.dsnp");
    let pkts = exchanges(6, 2);
    let daemon = Daemon::start(DaemonConfig {
        snapshot_path: Some(snap.clone()),
        ..cfg()
    })
    .expect("bind");
    let mut source = dart_packet::SliceSource::new(&pkts);
    let mut seen = Counting::default();
    let report = daemon.run(&mut source, &mut seen).expect("run");
    assert_eq!(seen.0, report.stats.samples);
    // Same snapshot, different shard count: must fail loudly at start.
    let err = match Daemon::start(DaemonConfig {
        sharded: ShardedConfig::new(DartConfig::default(), 4).with_batch_size(64),
        restore_from: Some(snap.clone()),
        ..cfg()
    }) {
        Err(e) => e,
        Ok(_) => panic!("shard-count mismatch must not start"),
    };
    assert!(err.to_string().contains("restore"), "{err}");
    // A torn write (truncated file) must also fail loudly.
    let bytes = std::fs::read(&snap).expect("snapshot bytes");
    std::fs::write(&snap, &bytes[..bytes.len() / 2]).expect("truncate");
    let err = match Daemon::start(DaemonConfig {
        restore_from: Some(snap.clone()),
        ..cfg()
    }) {
        Err(e) => e,
        Ok(_) => panic!("torn snapshot must not start"),
    };
    assert!(err.to_string().contains("restore"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
