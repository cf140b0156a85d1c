//! Additional engine coverage: both-legs mode on realistic traffic, and
//! narrow flow signatures producing measurable false-match behavior.

use dart_core::{run_monitor_slice, DartConfig, DartEngine, Leg};
use dart_packet::SignatureWidth;
use dart_sim::scenario::{campus, CampusConfig};

fn trace() -> dart_sim::scenario::GeneratedTrace {
    campus(CampusConfig {
        connections: 400,
        duration: 8 * dart_packet::SECOND,
        ..CampusConfig::default()
    })
}

#[test]
fn both_legs_collects_superset_of_each_leg() {
    let t = trace();
    let (ext, _) = run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &t.packets);
    let (int, _) = run_monitor_slice(
        &mut DartEngine::new(DartConfig::unlimited().with_leg(Leg::Internal)),
        &t.packets,
    );
    let (both, stats) = run_monitor_slice(
        &mut DartEngine::new(DartConfig::unlimited().with_leg(Leg::Both)),
        &t.packets,
    );
    // Both-legs sees (approximately) the union of work: at least as many as
    // the larger single leg, near the sum (minor interactions possible on
    // piggybacked packets).
    assert!(both.len() >= ext.len().max(int.len()));
    assert!(both.len() as f64 >= (ext.len() + int.len()) as f64 * 0.9);
    // Dual-role packets cost recirculations only in Both mode (§5).
    assert!(stats.dual_role_recirc > 0);
    let (_, ext_stats) =
        run_monitor_slice(&mut DartEngine::new(DartConfig::unlimited()), &t.packets);
    assert_eq!(ext_stats.dual_role_recirc, 0);
}

#[test]
fn narrow_signatures_still_work_but_collide_more() {
    let t = trace();
    let mk = |w: SignatureWidth| {
        let mut cfg = DartConfig::default().with_rt(1 << 14).with_pt(1 << 12, 1);
        cfg.sig_width = w;
        run_monitor_slice(&mut DartEngine::new(cfg), &t.packets)
    };
    let (s16, stats16) = mk(SignatureWidth::W16);
    let (s32, stats32) = mk(SignatureWidth::W32);
    let (s64, stats64) = mk(SignatureWidth::W64);
    // All widths collect a similar volume (the paper: collisions are "not
    // significant"), but 16-bit signatures must show more RT collisions —
    // two different flows agreeing on a 16-bit tag share an RT slot lineage.
    assert!(!s16.is_empty() && !s32.is_empty() && !s64.is_empty());
    let frac16 = s16.len() as f64 / s64.len() as f64;
    assert!(
        frac16 > 0.85,
        "16-bit width collapsed sample volume: {frac16}"
    );
    assert!(
        stats16.seq_rt_collision >= stats32.seq_rt_collision,
        "narrower signature cannot collide less: {} vs {}",
        stats16.seq_rt_collision,
        stats32.seq_rt_collision
    );
    let _ = stats64;
}

#[test]
fn rt_collision_stat_fires_when_rt_is_tiny() {
    let t = trace();
    // A 64-slot RT for hundreds of flows: collisions guaranteed; the engine
    // must degrade gracefully (fewer samples, no panic, consistent stats).
    let cfg = DartConfig::default().with_rt(64).with_pt(1 << 12, 1);
    let (samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &t.packets);
    assert!(stats.seq_rt_collision > 0);
    assert!(!samples.is_empty());
    assert_eq!(stats.samples as usize, samples.len());
}

#[test]
fn zero_recirc_engine_still_functions() {
    let t = trace();
    let cfg = DartConfig::default()
        .with_rt(1 << 12)
        .with_pt(1 << 6, 1)
        .with_max_recirc(0);
    let (samples, stats) = run_monitor_slice(&mut DartEngine::new(cfg), &t.packets);
    assert_eq!(stats.recirc_issued, 0);
    assert!(
        stats.recirc_cap_dropped > 0,
        "evictions all dropped at cap 0"
    );
    assert!(!samples.is_empty());
}
