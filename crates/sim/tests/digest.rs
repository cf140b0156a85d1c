//! The simulator pinned bit for bit: every field of every generated packet,
//! connection report and vantage-point capture folds into one FNV-1a digest
//! per scenario, and each digest must equal the one the event core produced
//! when it was a single binary heap over every pending event. A change to
//! the event queue, the timer bookkeeping or the endpoint that reorders a
//! single event, moves a timestamp by a nanosecond or draws the RNG once
//! more or less shows up here.

use dart_packet::{Direction, FlowKey, PacketMeta, MILLISECOND, SECOND};
use dart_sim::netsim::{ConnSpec, NetSim, SimOutput};
use dart_sim::scenario::{
    campus, interception, syn_flood, AttackConfig, CampusConfig, ConnInfo, GeneratedTrace,
    SynFloodConfig,
};
use dart_sim::spin::{spin_flow, SpinFlowConfig};
use dart_sim::{Access, ScenarioKind};

/// 64-bit FNV-1a over explicitly little-endian field encodings, so the
/// digest depends on the values alone, not on layout or a std hasher.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn flow(&mut self, f: &FlowKey) {
        self.bytes(&f.src_ip.octets());
        self.bytes(&f.dst_ip.octets());
        self.u64(u64::from(f.src_port));
        self.u64(u64::from(f.dst_port));
    }

    fn dir(&mut self, d: Direction) {
        self.u64(match d {
            Direction::Outbound => 0,
            Direction::Inbound => 1,
        });
    }

    fn packets(&mut self, packets: &[PacketMeta]) {
        self.u64(packets.len() as u64);
        for p in packets {
            self.u64(p.ts);
            self.flow(&p.flow);
            self.u64(u64::from(p.seq.raw()));
            self.u64(u64::from(p.ack.raw()));
            self.u64(u64::from(p.payload_len));
            self.u64(u64::from(p.flags.0));
            self.dir(p.dir);
            match p.tsopt {
                None => self.u64(0),
                Some((val, ecr)) => {
                    self.u64(1);
                    self.u64(u64::from(val));
                    self.u64(u64::from(ecr));
                }
            }
        }
    }

    fn conns(&mut self, conns: &[ConnInfo]) {
        self.u64(conns.len() as u64);
        for c in conns {
            self.flow(&c.flow);
            self.u64(match c.access {
                Access::Wired => 0,
                Access::Wireless => 1,
            });
            self.u64(u64::from(c.complete));
            self.u64(u64::from(c.established));
            self.u64(c.base_ext_rtt);
            self.u64(c.base_int_rtt);
            self.u64(c.retransmissions);
        }
    }

    fn trace(mut self, t: &GeneratedTrace) -> u64 {
        self.packets(&t.packets);
        self.conns(&t.conns);
        self.u64(t.spin_flows.len() as u64);
        for s in &t.spin_flows {
            self.flow(&s.flow);
            self.u64(s.base_rtt);
            self.u64(s.stepped_rtt.map_or(u64::MAX, |r| r));
        }
        self.0
    }

    fn sim(mut self, out: &SimOutput) -> u64 {
        self.packets(&out.packets);
        self.u64(out.reports.len() as u64);
        for r in &out.reports {
            self.flow(&r.flow);
            self.u64(u64::from(r.server_alive));
            self.u64(u64::from(r.established));
            self.u64(r.bytes_c2s);
            self.u64(r.bytes_s2c);
            self.u64(r.retransmissions);
            self.u64(r.base_ext_rtt);
            self.u64(r.base_int_rtt);
        }
        self.u64(out.vp_traces.len() as u64);
        for t in &out.vp_traces {
            self.packets(t);
        }
        self.0
    }
}

fn small_campus(seed: u64) -> GeneratedTrace {
    campus(CampusConfig {
        connections: 300,
        duration: 5 * SECOND,
        seed,
        ..CampusConfig::default()
    })
}

/// Every path feature the simulator has, on a handful of connections:
/// loss on both sides of the monitor, reordering, capture misses, a dead
/// server, keep-alives, timestamp clocks, a silent cut-off and a mid-trace
/// delay step.
fn feature_specs() -> Vec<ConnSpec> {
    (0..24u32)
        .map(|i| {
            let flow = FlowKey::from_raw(0x0a00_0100 + i, 40_000 + i as u16, 0x5db8_d822, 443);
            let mut s = ConnSpec::simple(
                flow,
                u64::from(i) * 7 * MILLISECOND,
                300 + u64::from(i) * 4_000,
                2_000 + u64::from(i) * 11_000,
            );
            s.path.jitter = 0.1;
            s.path.loss_pre = 0.02 * f64::from(i % 3);
            s.path.loss_post = 0.015 * f64::from(i % 4);
            s.path.reorder = 0.01 * f64::from(i % 2);
            s.path.monitor_miss = 0.01;
            s.server_alive = i % 7 != 3;
            s.keepalive = (i % 5 == 1).then_some((SECOND, 2));
            s.ts_clocks = (i % 3 == 0).then_some((1000, 100));
            s.server_cutoff = (i % 8 == 5).then_some(5_000);
            s.path.ext_owd_step = (i % 6 == 2).then_some((200 * MILLISECOND, 40 * MILLISECOND));
            s.client_iss = i.wrapping_mul(0x9e37_79b9);
            s.server_iss = i.wrapping_mul(0x85eb_ca6b);
            s
        })
        .collect()
}

#[test]
fn campus_default_is_pinned_at_two_seeds() {
    assert_eq!(
        Digest::new().trace(&small_campus(0xDA27)),
        0xb57c_b6f8_f771_6c3a
    );
    assert_eq!(
        Digest::new().trace(&small_campus(91)),
        0x47cc_4086_51a3_2545
    );
}

#[test]
fn churn_shaped_campus_is_pinned() {
    let t = campus(CampusConfig {
        connections: 1000,
        duration: SECOND,
        seed: 55_846,
        ..CampusConfig::default()
    });
    assert_eq!(Digest::new().trace(&t), 0x5c6b_fbd0_c74c_7773);
}

#[test]
fn interception_is_pinned() {
    let t = interception(AttackConfig {
        rounds: 60,
        attack_at: 6 * SECOND,
        round_gap: 200 * MILLISECOND,
        ..AttackConfig::default()
    });
    assert_eq!(Digest::new().trace(&t), 0x02df_ee54_fef3_f5d4);
}

#[test]
fn syn_flood_and_churn_storm_are_pinned() {
    let flood = syn_flood(SynFloodConfig {
        syns: 2_000,
        duration: 2 * SECOND,
        background: 20,
        seed: 0x5F00D,
    });
    assert_eq!(Digest::new().trace(&flood), 0xc1d2_ee7a_a7a6_c8df);
    let storm = ScenarioKind::ChurnStorm.generate(0.1, 0xC402);
    assert_eq!(Digest::new().trace(&storm), 0x49af_d980_321c_f301);
}

#[test]
fn extra_vantage_points_are_pinned() {
    let out = NetSim::new(feature_specs(), 0x7A11)
        .with_extra_vantage_points([0.25, 0.8])
        .run();
    assert_eq!(Digest::new().sim(&out), 0x7fde_75e0_41ec_d3e0);
}

#[test]
fn spin_flow_is_pinned() {
    let packets = spin_flow(SpinFlowConfig {
        loss: 0.02,
        ext_owd_step: Some((SECOND, 30 * MILLISECOND)),
        ..SpinFlowConfig::default()
    });
    let mut d = Digest::new();
    d.u64(packets.len() as u64);
    for p in &packets {
        d.u64(p.ts);
        d.flow(&p.flow);
        d.dir(p.dir);
        d.u64(u64::from(p.spin));
    }
    assert_eq!(d.0, 0x4d7a_bfdf_14df_0c1f);
}
