// The traffic and configurations behind `parent_*.dsnp`, `include!`d by
// `tests/cold_tables.rs` and by the throw-away generator that wrote the
// fixtures at the parent commit (see the test's header).

/// The configurations a fixture exists for, by file name.
fn fixture_configs() -> Vec<(&'static str, DartConfig)> {
    let frontier = DartConfig::default()
        .with_leg(Leg::Both)
        .with_rt(4096)
        .with_pt(512, 1)
        .with_max_recirc(2);
    vec![
        ("default", DartConfig::default()),
        ("frontier", frontier),
        (
            "sketch",
            DartConfig::default().with_backend(Backend::Sketch),
        ),
        ("precision", frontier.with_backend(Backend::Precision)),
    ]
}

/// 900 flows' data 1 µs apart — more than the frontier PT holds and far
/// inside the 10 µs recirculation delay, so records are mid-loop at the
/// checkpoint — with ACKs joining for the last third.
fn fixture_traffic() -> Vec<PacketMeta> {
    let mut pkts = Vec::new();
    for n in 0..2000u32 {
        let f = FlowKey::from_raw(
            0x0a00_0000 + n % 900,
            40000 + (n % 900) as u16,
            0x5db8_d822,
            443,
        );
        let t = u64::from(n) * 1_000;
        pkts.push(
            PacketBuilder::new(f, t)
                .seq(n / 900 * 100)
                .payload(100)
                .dir(Direction::Outbound)
                .build(),
        );
        if n >= 1300 {
            pkts.push(
                PacketBuilder::new(f.reverse(), t + 500)
                    .ack(n / 900 * 100)
                    .dir(Direction::Inbound)
                    .build(),
            );
        }
    }
    pkts
}
