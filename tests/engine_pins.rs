//! Every registered engine's output pinned bit for bit: for each static
//! registry entry, each measured leg and each handshake policy, the sample
//! stream and the `packets`/`samples` counters over one mixed TCP + QUIC
//! capture fold into an FNV-1a digest that must equal the constant below.
//! A refactor that moves one sample, one RTT by a nanosecond or one
//! fridge weight by a quantum shows up here.
//!
//! When a digest moves, the test prints the whole table it computed, ready
//! to paste over `PINS` after an intended output change.

use dart::baselines::EngineRegistry;
use dart::core::{run_monitor_slice, DartConfig, EngineStats, Leg, RttSample, SynPolicy};
use dart::packet::{Direction, FlowKey, PacketBuilder, PacketMeta, MILLISECOND, SECOND};
use dart::sim::scenario::{campus, CampusConfig};
use dart::sim::spin::{spin_flow, SpinFlowConfig};

/// 64-bit FNV-1a over little-endian field encodings.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for x in v.to_le_bytes() {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn flow(&mut self, f: &FlowKey) {
        self.u64(u64::from(u32::from(f.src_ip)));
        self.u64(u64::from(u32::from(f.dst_ip)));
        self.u64(u64::from(f.src_port));
        self.u64(u64::from(f.dst_port));
    }

    fn run(mut self, samples: &[RttSample], stats: &EngineStats) -> u64 {
        self.u64(samples.len() as u64);
        for s in samples {
            self.flow(&s.flow);
            self.u64(u64::from(s.eack.raw()));
            self.u64(s.rtt);
            self.u64(s.ts);
            self.u64(u64::from(s.weight.0));
        }
        self.u64(stats.packets);
        self.u64(stats.samples);
        self.0
    }
}

fn spin_cfg(i: u32) -> SpinFlowConfig {
    SpinFlowConfig {
        flow: FlowKey::from_raw(0x0a0c_0000 + i, 42_000 + i as u16, 0x5db8_d9f0 + i, 443),
        duration: 2 * SECOND,
        loss: 0.02 * f64::from(i),
        seed: 0x51C0 + u64::from(i),
        ..SpinFlowConfig::default()
    }
}

/// A small campus capture with two spin-bit flows mixed in, plus one
/// segment that spans a sequence-space quadrant so `tcptrace-quirk` differs
/// from `tcptrace`.
fn mixed_trace() -> Vec<PacketMeta> {
    let mut pkts = campus(CampusConfig {
        connections: 120,
        duration: 2 * SECOND,
        seed: 0x91E5,
        ..CampusConfig::default()
    })
    .packets;
    for i in 0..2 {
        pkts.extend(spin_flow(spin_cfg(i)));
    }
    let f = FlowKey::from_raw(0x0a0d_0001, 43_000, 0x5db8_da01, 443);
    pkts.push(
        PacketBuilder::new(f, 300 * MILLISECOND)
            .seq((1u32 << 30) - 50)
            .payload(100)
            .dir(Direction::Outbound)
            .build(),
    );
    pkts.push(
        PacketBuilder::new(f.reverse(), 330 * MILLISECOND)
            .ack((1u32 << 30) + 50)
            .dir(Direction::Inbound)
            .build(),
    );
    pkts.sort_by_key(|p| p.ts);
    pkts
}

const LEGS: [Leg; 3] = [Leg::External, Leg::Internal, Leg::Both];
const SYNS: [SynPolicy; 2] = [SynPolicy::Skip, SynPolicy::Include];

/// Digests per engine, one per (leg, SYN policy) cell in `LEGS` × `SYNS`
/// order.
#[rustfmt::skip]
const PINS: &[(&str, [u64; 6])] = &[
    ("dart", [0x7bd0_cce2_ca3f_ab33, 0x0c12_e9de_b3b3_4703, 0xbcda_26fa_2288_c67d, 0x4d22_d290_0979_c92d, 0xc4aa_1a0c_b77f_4419, 0xa6fc_a332_49a3_591e]),
    ("dart@sketch", [0x2b74_265c_b11d_f7cd, 0x570f_e08f_ca35_a484, 0x8054_41db_8cd2_8a8c, 0x2d2c_38cf_487f_9cea, 0xd1a5_2074_707c_e198, 0x960c_fa80_1a8b_4134]),
    ("dart@precision", [0x7bd0_cce2_ca3f_ab33, 0x5a10_86cf_124c_d43a, 0xbcda_26fa_2288_c67d, 0x4d22_d290_0979_c92d, 0xc4aa_1a0c_b77f_4419, 0x6b93_2ecc_bde0_49db]),
    ("dart-sharded-4", [0xa4d8_e759_0376_d175, 0x6cd4_5974_7daf_b056, 0xe5b3_9748_95e4_1f27, 0x3239_ffb9_dee3_ce2d, 0xd53c_054e_5376_2b3c, 0xf45d_5976_0428_1af2]),
    ("tcptrace", [0x5e84_c624_0796_475a, 0x27a0_ff2c_21b7_dfa7, 0x6995_a8e3_d899_31aa, 0x6607_794f_144f_9b9a, 0x2d28_b691_34a4_49f8, 0xe358_172a_c197_628d]),
    ("tcptrace-quirk", [0xdf69_43bc_eaa4_f615, 0xd373_7a0b_718e_7da8, 0x6995_a8e3_d899_31aa, 0x6607_794f_144f_9b9a, 0xcbd7_ee05_69b8_741f, 0x967f_30fa_8cc0_e40e]),
    ("fridge", [0x1174_2d00_b460_2b04, 0x1902_26d1_dd29_5825, 0x375c_74bb_d010_7f50, 0xe106_ed6e_02f2_b3e9, 0xfba8_c9af_32de_fbec, 0xbc86_dde7_ad72_368d]),
    ("pping", [0x2967_ddb4_65a8_bfed, 0x2967_ddb4_65a8_bfed, 0x556c_e21c_fe63_b233, 0x556c_e21c_fe63_b233, 0x47ae_0f73_c46a_0f0a, 0x47ae_0f73_c46a_0f0a]),
    ("dapper", [0x1d04_7bf9_acea_53ae, 0x21f1_1338_6d94_4297, 0xe0ed_8c05_e117_e221, 0xf3e1_6fbb_e8d5_c189, 0x1eb3_8201_5531_f357, 0xc1d3_5e5e_4364_c2f6]),
    ("strawman", [0x2e57_513c_a1ff_9e90, 0xa58f_4a0b_c37a_2b59, 0x3d6b_047d_08e5_7e5e, 0x79d5_2aae_d067_f0be, 0x6584_ce37_740e_46c1, 0xc896_2db1_a658_7e78]),
    ("lean", [0xfe51_ab16_0b6e_56cb, 0xfe51_ab16_0b6e_56cb, 0x5a46_45ee_46b0_6dcf, 0x5a46_45ee_46b0_6dcf, 0x4a64_c787_60c3_8b5c, 0x4a64_c787_60c3_8b5c]),
    ("spin", [0x676b_d212_e32e_3ab0, 0x676b_d212_e32e_3ab0, 0x676b_d212_e32e_3ab0, 0x676b_d212_e32e_3ab0, 0x676b_d212_e32e_3ab0, 0x676b_d212_e32e_3ab0]),
    ("dart-hist", [0xbe82_d356_20a4_5948, 0x86f8_3c0a_2cd3_b25f, 0xa34e_c64a_f54c_fcbf, 0xfba7_62f8_7557_c935, 0x697c_d36b_476a_7b76, 0xf72d_8eb5_c561_2077]),
];

#[test]
fn every_registered_engine_is_pinned() {
    let pkts = mixed_trace();
    let registry = EngineRegistry::standard();
    let mut got = Vec::new();
    for name in registry.names() {
        let mut cells = [0u64; 6];
        for (i, (leg, syn)) in LEGS
            .iter()
            .flat_map(|l| SYNS.iter().map(move |s| (*l, *s)))
            .enumerate()
        {
            // Tables small enough that the Dart backends part ways.
            let cfg = DartConfig::default()
                .with_rt(512)
                .with_pt(128, 1)
                .with_leg(leg)
                .with_syn(syn);
            let mut monitor = registry.build(name, &cfg).unwrap().monitor;
            let (samples, stats) = run_monitor_slice(monitor.as_mut(), &pkts);
            cells[i] = Digest::new().run(&samples, &stats);
        }
        got.push((name, cells));
    }
    if got != PINS {
        for (name, cells) in &got {
            let cells: Vec<String> = (cells.iter())
                .map(|c| {
                    let q = |i: u32| (c >> (48 - 16 * i)) & 0xffff;
                    format!("0x{:04x}_{:04x}_{:04x}_{:04x}", q(0), q(1), q(2), q(3))
                })
                .collect();
            eprintln!("    (\"{name}\", [{}]),", cells.join(", "));
        }
    }
    let names: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
    let pinned: Vec<&str> = PINS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "registry names changed");
    for ((name, cells), (_, want)) in got.iter().zip(PINS) {
        assert_eq!(cells, want, "{name}: output moved");
    }
}

/// Engines whose matching ignores the handshake policy: pping reads
/// timestamp options, lean sums every non-SYN data packet, spin reads QUIC.
const SYN_BLIND: [&str; 3] = ["pping", "lean", "spin"];

/// Under `-SYN` every engine that applies the policy counts each packet it
/// skips, so `syn_skipped` explains the run; under `+SYN` nothing is
/// skipped.
#[test]
fn engines_that_skip_syns_count_them() {
    let pkts = mixed_trace();
    let syns = pkts.iter().filter(|p| p.is_syn()).count() as u64;
    assert!(syns > 100, "the trace must carry handshakes");
    let registry = EngineRegistry::standard();
    for name in registry.names() {
        for syn in SYNS {
            let cfg = DartConfig::default().with_syn(syn);
            let mut monitor = registry.build(name, &cfg).unwrap().monitor;
            let (_, stats) = run_monitor_slice(monitor.as_mut(), &pkts);
            let want = if syn == SynPolicy::Skip && !SYN_BLIND.contains(&name) {
                syns
            } else {
                0
            };
            assert_eq!(stats.syn_skipped, want, "{name} under {syn:?}");
        }
    }
}
