//! Failing-trace shrinking: bisect a packet sequence to a minimal
//! reproducer and persist it as a replayable artifact.
//!
//! The shrinker is classic delta debugging (`ddmin`): given a trace on
//! which some predicate fails (e.g. "the engine emits an impossible
//! sample"), it removes ever-finer chunks of packets, keeping any
//! reduction that still fails, until the failure is 1-minimal — removing
//! any single remaining packet makes it pass. Predicates must be
//! deterministic (fixed seeds everywhere), which the whole testkit is
//! built around; a flaky predicate would shrink toward noise.
//!
//! Artifacts land under `tests/shrunk/` at the repository root in the
//! native trace format, replayable with `dartmon diff --trace` and read
//! back whole by a `TraceReader`'s `read_to_end`.

use dart_packet::{trace, PacketMeta};
use std::path::{Path, PathBuf};

/// Minimize `packets` with respect to a failing predicate.
///
/// `fails` must return `true` on the full input (asserted) and must be
/// deterministic. The result is 1-minimal: `fails` still returns `true` on
/// it, and dropping any single packet makes it return `false`.
pub fn ddmin(
    packets: &[PacketMeta],
    fails: &mut dyn FnMut(&[PacketMeta]) -> bool,
) -> Vec<PacketMeta> {
    assert!(fails(packets), "ddmin needs a failing input to start from");
    let mut current = packets.to_vec();
    let mut n = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        for i in 0..n {
            let lo = (i * chunk).min(current.len());
            let hi = ((i + 1) * chunk).min(current.len());
            if lo >= hi {
                continue;
            }
            let complement: Vec<PacketMeta> = current[..lo]
                .iter()
                .chain(&current[hi..])
                .copied()
                .collect();
            if !complement.is_empty() && fails(&complement) {
                current = complement;
                reduced = true;
                break;
            }
        }
        if reduced {
            n = n.saturating_sub(1).max(2);
        } else {
            if n >= current.len() {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }
    current
}

/// Repository-root directory where shrunk reproducers are written
/// (`tests/shrunk/`; CI uploads it when the differential suite fails).
pub fn shrunk_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/shrunk")
}

/// Persist a reproducer: `<name>.trace` (native format, replayable) plus
/// `<name>.txt` (one human-readable line per packet). Returns the trace
/// path.
pub fn write_artifact(name: &str, packets: &[PacketMeta]) -> std::io::Result<PathBuf> {
    let dir = shrunk_dir();
    std::fs::create_dir_all(&dir)?;
    let trace_path = dir.join(format!("{name}.trace"));
    std::fs::write(&trace_path, trace::to_bytes(packets))?;
    let listing: String = packets.iter().map(|p| format!("{p}\n")).collect();
    std::fs::write(dir.join(format!("{name}.txt")), listing)?;
    Ok(trace_path)
}

/// Shrink a failing trace and persist the reproducer in one step. Returns
/// the minimal packets and the artifact path.
pub fn shrink_and_save(
    name: &str,
    packets: &[PacketMeta],
    fails: &mut dyn FnMut(&[PacketMeta]) -> bool,
) -> std::io::Result<(Vec<PacketMeta>, PathBuf)> {
    let minimal = ddmin(packets, fails);
    let path = write_artifact(name, &minimal)?;
    Ok((minimal, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dart_packet::{Direction, FlowKey, PacketBuilder, PacketSource};

    fn pkt(i: u32) -> PacketMeta {
        PacketBuilder::new(
            FlowKey::from_raw(0x0a000001, 40000 + (i % 7) as u16, 0x5db8d822, 443),
            i as u64 * 1_000,
        )
        .seq(i * 100)
        .payload(100)
        .dir(Direction::Outbound)
        .build()
    }

    #[test]
    fn ddmin_finds_the_single_culprit() {
        // Failure = "packet with seq 4200 present".
        let trace: Vec<PacketMeta> = (0..100).map(pkt).collect();
        let needle = pkt(42);
        let mut fails = |t: &[PacketMeta]| t.contains(&needle);
        let minimal = ddmin(&trace, &mut fails);
        assert_eq!(minimal, vec![needle]);
    }

    #[test]
    fn ddmin_keeps_interacting_pairs() {
        // Failure needs BOTH packet 10 and packet 90: 1-minimality must
        // stop at the pair, not a single packet.
        let trace: Vec<PacketMeta> = (0..100).map(pkt).collect();
        let (a, b) = (pkt(10), pkt(90));
        let mut fails = |t: &[PacketMeta]| t.contains(&a) && t.contains(&b);
        let minimal = ddmin(&trace, &mut fails);
        assert_eq!(minimal, vec![a, b]);
    }

    #[test]
    fn ddmin_is_deterministic() {
        let trace: Vec<PacketMeta> = (0..64).map(pkt).collect();
        let needle = pkt(7);
        let mut f1 = |t: &[PacketMeta]| t.contains(&needle);
        let mut f2 = |t: &[PacketMeta]| t.contains(&needle);
        assert_eq!(ddmin(&trace, &mut f1), ddmin(&trace, &mut f2));
    }

    #[test]
    fn artifact_round_trips_through_native_format() {
        let minimal: Vec<PacketMeta> = (0..3).map(pkt).collect();
        let path = write_artifact("testkit-selftest", &minimal).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut back = Vec::new();
        trace::TraceReader::new(&bytes[..])
            .unwrap()
            .read_to_end(&mut back)
            .unwrap();
        assert_eq!(back, minimal);
        // Self-test artifacts are disposable; leave the directory clean.
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("txt"));
    }
}
