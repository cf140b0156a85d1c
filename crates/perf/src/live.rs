//! The live workload: `dartmon serve --mode follow` tailing a fifo that one
//! producer thread keeps full, scraped over HTTP while it ingests.
//!
//! Closed loop, one client: the producer's `write_all` blocks whenever the
//! pipe is full, so the daemon is offered exactly the rate it accepts.
//! Every pass over the trace is a *fresh* flow population (see
//! [`Recording::advance`]) — replaying the same SEQ space, as cycle mode
//! does, makes every data packet after pass one a retransmission and the
//! daemon stops emitting samples.

use crate::child::{ChildGuard, Dartmon};
use crate::http::{self, bucket_delta, quantile_of, Exposition};
use crate::inputs::BLOCK;
use crate::report::Ops;
use crate::sys;
use dart_packet::{Nanos, PacketMeta, SECOND};
use std::fs::File;
use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Native trace layout (`dart_packet::trace`): a 16-byte header, then
/// 43-byte records with the timestamp first, the two addresses at 8 and
/// 12 (network order) and the direction byte at 33. The producer patches
/// records in place instead of re-encoding a million packets per pass;
/// [`Recording::new`] checks this layout against the crate's own decoder
/// before a single byte is fed.
const HEADER_LEN: usize = 16;
const RECORD_LEN: usize = 43;
const TS_AT: usize = 0;
const SRC_IP_AT: usize = 8;
const DST_IP_AT: usize = 12;
const DIR_AT: usize = 33;

/// Second octet stride between passes: campus clients live in 10.8/16
/// and 10.9/16, so a stride of two keeps the subnets apart and gives 124
/// passes before a key repeats — an hour of trace time later.
const PASS_OCTET_STRIDE: u8 = 2;

const PIPE_BYTES: usize = 1 << 20;
const CHUNK_BYTES: usize = 1 << 20;
const SCRAPE_EVERY: Duration = Duration::from_millis(100);
const RATE_WINDOW: Duration = Duration::from_secs(1);
const STARTUP_TIMEOUT: Duration = Duration::from_secs(15);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(15);

/// A trace pre-serialised once, rewritten in place for each pass.
pub struct Recording {
    header: [u8; HEADER_LEN],
    records: Vec<u8>,
    period: Nanos,
}

impl Recording {
    /// Serialise `packets` (a whole number of blocks) and verify that the
    /// in-place rewrite produces what `dart-packet` decodes as the
    /// intended packets.
    pub fn new(packets: &[PacketMeta]) -> Result<Recording, String> {
        if packets.is_empty() || !packets.len().is_multiple_of(BLOCK) {
            return Err(format!(
                "live feed needs a whole number of {BLOCK}-packet blocks, got {}",
                packets.len()
            ));
        }
        let bytes = dart_packet::trace::to_bytes(packets);
        if bytes.len() != HEADER_LEN + packets.len() * RECORD_LEN {
            return Err("native trace layout changed: record size".to_string());
        }
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&bytes[..HEADER_LEN]);
        let last_ts = packets.iter().map(|p| p.ts).max().unwrap_or(0);
        let recording = Recording {
            header,
            records: bytes[HEADER_LEN..].to_vec(),
            period: last_ts + SECOND,
        };
        recording.check_layout(packets)?;
        Ok(recording)
    }

    /// What pass `pass` should decode to.
    fn expected(packet: &PacketMeta, pass: u64, period: Nanos) -> PacketMeta {
        let shift = |ip: std::net::Ipv4Addr| {
            let mut o = ip.octets();
            o[1] = o[1].wrapping_add((pass as u8).wrapping_mul(PASS_OCTET_STRIDE));
            std::net::Ipv4Addr::from(o)
        };
        let mut p = *packet;
        p.ts += pass * period;
        match p.dir {
            dart_packet::Direction::Outbound => p.flow.src_ip = shift(p.flow.src_ip),
            dart_packet::Direction::Inbound => p.flow.dst_ip = shift(p.flow.dst_ip),
        }
        p
    }

    fn check_layout(&self, packets: &[PacketMeta]) -> Result<(), String> {
        let probe = packets.len().min(4 * BLOCK);
        let mut trial = Recording {
            header: self.header,
            records: self.records[..probe * RECORD_LEN].to_vec(),
            period: self.period,
        };
        for pass in 0..3u64 {
            let mut bytes = trial.header.to_vec();
            bytes.extend_from_slice(&trial.records);
            let decoded = dart_packet::trace::from_bytes(&bytes)
                .map_err(|e| format!("patched records no longer decode: {e}"))?;
            let intended = packets[..probe]
                .iter()
                .map(|p| Recording::expected(p, pass, self.period));
            if !decoded.iter().copied().eq(intended) {
                return Err(format!(
                    "native trace layout changed: pass {pass} of the in-place rewrite \
                     does not decode to the intended packets"
                ));
            }
            trial.advance();
        }
        Ok(())
    }

    /// Rewrite every record for the next pass: the timestamp moves one
    /// period on and the internal-side address moves to a fresh /16, so
    /// the pass is new flows continuing in time rather than the old flows
    /// retransmitting.
    pub fn advance(&mut self) {
        for rec in self.records.chunks_exact_mut(RECORD_LEN) {
            let mut ts = [0u8; 8];
            ts.copy_from_slice(&rec[TS_AT..TS_AT + 8]);
            let ts = u64::from_le_bytes(ts) + self.period;
            rec[TS_AT..TS_AT + 8].copy_from_slice(&ts.to_le_bytes());
            let internal = if rec[DIR_AT] == 0 {
                SRC_IP_AT
            } else {
                DST_IP_AT
            };
            rec[internal + 1] = rec[internal + 1].wrapping_add(PASS_OCTET_STRIDE);
        }
    }

    pub fn packets_per_pass(&self) -> u64 {
        (self.records.len() / RECORD_LEN) as u64
    }

    #[cfg(test)]
    pub fn bytes(&self) -> Vec<u8> {
        let mut bytes = self.header.to_vec();
        bytes.extend_from_slice(&self.records);
        bytes
    }
}

struct Producer {
    /// Yields the number of whole passes written.
    handle: std::thread::JoinHandle<Result<u64, String>>,
    stop: Arc<AtomicBool>,
    /// Nanoseconds spent inside `write_all` so far.
    blocked_ns: Arc<AtomicU64>,
}

impl Producer {
    /// Feed `recording` into `pipe` pass after pass until told to stop;
    /// always ends on a pass boundary, then closes the pipe.
    fn start(mut pipe: File, mut recording: Recording) -> Producer {
        let stop = Arc::new(AtomicBool::new(false));
        let blocked_ns = Arc::new(AtomicU64::new(0));
        let (stop_in, blocked_in) = (Arc::clone(&stop), Arc::clone(&blocked_ns));
        let handle = std::thread::spawn(move || {
            let mut write = |bytes: &[u8]| {
                let start = Instant::now();
                let result = pipe.write_all(bytes);
                blocked_in.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                result.map_err(|e| format!("producer write: {e}"))
            };
            write(&recording.header)?;
            let mut passes = 0u64;
            while !stop_in.load(Ordering::Relaxed) {
                if passes > 0 {
                    recording.advance();
                }
                for chunk in recording.records.chunks(CHUNK_BYTES) {
                    write(chunk)?;
                }
                passes += 1;
            }
            Ok(passes)
        });
        Producer {
            handle,
            stop,
            blocked_ns,
        }
    }

    fn blocked(&self) -> Duration {
        Duration::from_nanos(self.blocked_ns.load(Ordering::Relaxed))
    }

    /// Ask the producer to stop after its current pass and collect how
    /// many it wrote. One that is still blocked in `write` after
    /// `patience` has lost its reader: `abandon` must then break the pipe
    /// (kill the daemon, drop the keeper) so the thread can be joined.
    fn finish(self, patience: Duration, abandon: impl FnOnce()) -> Result<u64, String> {
        self.stop.store(true, Ordering::Relaxed);
        let deadline = Instant::now() + patience;
        while !self.handle.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stuck = !self.handle.is_finished();
        if stuck {
            abandon();
        }
        let passes = self
            .handle
            .join()
            .map_err(|_| "producer thread panicked".to_string())?;
        if stuck {
            return Err("producer did not finish its pass: the daemon stopped reading".to_string());
        }
        passes
    }
}

/// A started daemon: plane bound, `/healthz` answering, nothing fed yet.
pub struct Daemon {
    child: ChildGuard,
    addr: SocketAddr,
    fifo: PathBuf,
    /// Holds the fifo open read-write so that neither the daemon's opens
    /// nor the producer's block or race; dropped once the daemon ingests.
    keeper: Option<File>,
    stdout: PathBuf,
    pub pipe_bytes: usize,
}

/// What the daemon printed when it exited.
#[derive(Debug, Default)]
pub struct ExitReport {
    pub packets: u64,
    pub samples: u64,
    pub healthy: bool,
    pub ended_by_shutdown: bool,
}

fn parse_exit_report(text: &str) -> ExitReport {
    let field = |name: &str| {
        text.lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    ExitReport {
        packets: field("packets").parse().unwrap_or(0),
        samples: field("samples").parse().unwrap_or(0),
        healthy: field("supervisor") == "healthy",
        ended_by_shutdown: field("ended by") == "shutdown request",
    }
}

/// The plane's address from the daemon's stderr banner
/// (`... observability plane on http://ADDR (POST ...`).
fn parse_banner(stderr: &str) -> Option<SocketAddr> {
    let rest = stderr.split_once("http://")?.1;
    rest.split_whitespace().next()?.parse().ok()
}

impl Daemon {
    /// Make the fifo, spawn `dartmon serve` on it and wait for the first
    /// 200 on `/healthz`.
    pub fn start(dartmon: &Dartmon, dir: &Path, engine_flags: &[String]) -> Result<Daemon, String> {
        let fifo = dir.join("live.fifo");
        let snapshot = dir.join("live.snap");
        let stdout = dir.join("serve.stdout");
        let stderr = dir.join("serve.stderr");
        let _ = std::fs::remove_file(&fifo);
        sys::make_fifo(&fifo).map_err(|e| format!("mkfifo {}: {e}", fifo.display()))?;
        let keeper = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&fifo)
            .map_err(|e| format!("open {}: {e}", fifo.display()))?;
        let pipe_bytes = sys::set_pipe_size(&keeper, PIPE_BYTES)
            .map_err(|e| format!("F_SETPIPE_SZ {PIPE_BYTES}: {e}"))?;
        let create = |p: &Path| File::create(p).map_err(|e| format!("create {}: {e}", p.display()));
        let mut cmd = Command::new(dartmon.path());
        cmd.arg("serve")
            .arg(&fifo)
            .args([
                "--mode",
                "follow",
                "--shards",
                "1",
                "--listen",
                "127.0.0.1:0",
            ])
            .args(["--rotate-millis", "2000", "--retain-secs", "10"])
            .arg("--snapshot-path")
            .arg(&snapshot)
            .args(["--checkpoint-millis", "1000"])
            .args(engine_flags)
            .stdin(Stdio::null())
            .stdout(create(&stdout)?)
            .stderr(create(&stderr)?);
        let mut child = ChildGuard::spawn(&mut cmd)?;
        let deadline = Instant::now() + STARTUP_TIMEOUT;
        let died = |what: &str| {
            format!(
                "{what}: {}",
                std::fs::read_to_string(&stderr).unwrap_or_default().trim()
            )
        };
        let addr = loop {
            if let Some(addr) = std::fs::read_to_string(&stderr)
                .ok()
                .as_deref()
                .and_then(parse_banner)
            {
                break addr;
            }
            if child.exited()?.is_some() {
                return Err(died("dartmon serve exited before its banner"));
            }
            if Instant::now() > deadline {
                return Err(died("no banner from dartmon serve"));
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        loop {
            if matches!(http::get(addr, "/healthz"), Ok((200, _))) {
                break;
            }
            if Instant::now() > deadline {
                return Err(died("no 200 on /healthz"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Daemon {
            child,
            addr,
            fifo,
            keeper: Some(keeper),
            stdout,
            pipe_bytes,
        })
    }
}

/// One scrape under ingest.
struct Scrape {
    at: Instant,
    latency: Duration,
    metrics: Exposition,
}

/// Everything one live session measured.
pub struct Session {
    pub ops: Ops,
    /// Mpkt/s over each sliding 1-s window of `dart_shard_packets_total`.
    pub window_mpps: Vec<f64>,
    pub scrape_ms: Vec<f64>,
    pub channel_depth: Vec<f64>,
    pub rss_mb: f64,
    pub cpu_s_per_mpkt: f64,
    pub producer_busy_share: f64,
    pub passes: u64,
    pub fed_packets: u64,
    /// Scrapes bracketing the measurement window.
    pub window_start: Exposition,
    pub window_end: Exposition,
    pub window_wall: Duration,
    /// After the producer stopped and the daemon drained the pipe.
    pub last: Exposition,
    pub exit: ExitReport,
}

impl Session {
    fn window_delta(&self, family: &str) -> f64 {
        self.window_end.sum(family).unwrap_or(0.0) - self.window_start.sum(family).unwrap_or(0.0)
    }

    pub fn window_packets(&self) -> f64 {
        self.window_delta("dart_shard_packets_total")
    }

    /// Nanoseconds a stage histogram accumulated during the window.
    pub fn window_stage_ns(&self, stage: &str) -> f64 {
        self.window_delta(&format!("dart_stage_{stage}_ns_sum"))
    }

    /// Median of a pause histogram over the window, as a bucket bound.
    pub fn window_pause_p50_ns(&self, family: &str) -> Option<f64> {
        let delta = bucket_delta(
            &self.window_end.buckets(family),
            &self.window_start.buckets(family),
        );
        quantile_of(&delta, 0.5)
    }
}

fn scrape(addr: SocketAddr, ops: &mut Ops) -> Result<Scrape, String> {
    let at = Instant::now();
    let reply = http::get(addr, "/metrics");
    let latency = at.elapsed();
    ops.check(matches!(reply, Ok((200, _))), || {
        format!("GET /metrics did not return 200: {reply:?}")
    });
    match reply {
        Ok((200, body)) => Ok(Scrape {
            at,
            latency,
            metrics: Exposition::parse(&body),
        }),
        other => Err(format!("GET /metrics failed: {other:?}")),
    }
}

fn accounted(m: &Exposition) -> f64 {
    m.sum("dart_shard_packets_total").unwrap_or(0.0)
        + m.sum("dart_shard_monitor_miss_total").unwrap_or(0.0)
}

impl Daemon {
    /// Feed the daemon for `warmup + window`, scraping every 100 ms, then
    /// stop the producer on a pass boundary, let the daemon drain, check
    /// the books and shut it down over HTTP.
    pub fn run(
        mut self,
        recording: Recording,
        warmup: Duration,
        window: Duration,
    ) -> Result<Session, String> {
        let mut ops = Ops::default();
        let per_pass = recording.packets_per_pass();
        let pipe = std::fs::OpenOptions::new()
            .write(true)
            .open(&self.fifo)
            .map_err(|e| format!("open {} for writing: {e}", self.fifo.display()))?;
        let producer = Producer::start(pipe, recording);
        // From here on the producer may be blocked in `write`, so every
        // path out of this function goes through `finish`.
        let measured = self.measure(&producer, &mut ops, warmup, window);
        let patience = if measured.is_ok() {
            DRAIN_TIMEOUT
        } else {
            Duration::ZERO
        };
        let passes = producer.finish(patience, || {
            self.keeper = None;
            self.child.kill();
        });
        let Measured {
            scrapes,
            cpu_s,
            blocked,
            wall,
        } = measured?;
        let passes = passes?;
        let fed_packets = passes * per_pass;
        let deadline = Instant::now() + DRAIN_TIMEOUT;

        // The pipe is closed; wait until the daemon has accounted for
        // every packet written, then read the final books.
        let last = loop {
            let s = scrape(self.addr, &mut ops)?;
            if accounted(&s.metrics) >= fed_packets as f64 || Instant::now() > deadline {
                break s.metrics;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        ops.check(accounted(&last) == fed_packets as f64, || {
            format!(
                "conservation: fed {fed_packets} != packets + monitor_miss {}",
                accounted(&last)
            )
        });
        ops.check(
            last.sum("dart_supervisor_healthy_shards") == Some(1.0),
            || "supervisor not healthy at the final scrape".to_string(),
        );
        let rss_mb = sys::peak_rss_mb(self.child.pid()).ok_or("daemon VmHWM unreadable")?;

        let reply = http::post(self.addr, "/control/shutdown");
        ops.check(matches!(reply, Ok((200, _))), || {
            format!("POST /control/shutdown did not return 200: {reply:?}")
        });
        let success = self.child.wait(DRAIN_TIMEOUT, |_| {})?;
        ops.check(success, || "dartmon serve exited non-zero".to_string());
        let exit = parse_exit_report(&std::fs::read_to_string(&self.stdout).unwrap_or_default());
        ops.check(exit.packets == fed_packets, || {
            format!("exit report: packets {} != fed {fed_packets}", exit.packets)
        });
        ops.check(exit.healthy && exit.ended_by_shutdown, || {
            format!("exit report: not a healthy shutdown-attributed exit: {exit:?}")
        });

        // One rate per scrape: from it to the first scrape a full interval
        // later. The windows slide in scrape steps, so whichever second the
        // host left the daemon alone is among them, and each still spans
        // the checkpoint cadence.
        let packets_at = |s: &Scrape| s.metrics.sum("dart_shard_packets_total").unwrap_or(0.0);
        let mut window_mpps = Vec::new();
        for (i, from) in scrapes.iter().enumerate() {
            let to = scrapes[i + 1..]
                .iter()
                .find(|s| s.at.duration_since(from.at) >= RATE_WINDOW);
            if let Some(to) = to {
                let dt = to.at.duration_since(from.at).as_secs_f64();
                window_mpps.push((packets_at(to) - packets_at(from)) / dt / 1e6);
            }
        }
        let window_packets = packets_at(&scrapes[scrapes.len() - 1]) - packets_at(&scrapes[0]);
        if window_mpps.is_empty() {
            // A window shorter than one rate interval is its own sample.
            window_mpps.push(window_packets / wall.as_secs_f64() / 1e6);
        }
        ops.check(window_packets > 0.0, || {
            "no ingest progress inside the measurement window".to_string()
        });
        let scrape_ms = scrapes
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        let channel_depth = scrapes
            .iter()
            .map(|s| s.metrics.sum("dart_shard_channel_batches").unwrap_or(0.0))
            .collect();
        let mut bracket = scrapes.into_iter().map(|s| s.metrics);
        let window_start = bracket.next().ok_or("no scrape in the window")?;
        let window_end = bracket.next_back().ok_or("one scrape in the window")?;
        Ok(Session {
            window_mpps,
            scrape_ms,
            channel_depth,
            rss_mb,
            cpu_s_per_mpkt: cpu_s / (window_packets / 1e6),
            producer_busy_share: 1.0 - blocked.as_secs_f64() / wall.as_secs_f64(),
            passes,
            fed_packets,
            window_start,
            window_end,
            window_wall: wall,
            last,
            exit,
            ops,
        })
    }

    fn measure(
        &mut self,
        producer: &Producer,
        ops: &mut Ops,
        warmup: Duration,
        window: Duration,
    ) -> Result<Measured, String> {
        let pid = self.child.pid();
        let alive = |child: &mut ChildGuard| match child.exited()? {
            None => Ok(()),
            Some(_) => Err("dartmon serve exited while being fed".to_string()),
        };
        // The daemon opens the fifo twice (a probe, then the tail); hold
        // the keeper until packets flow, i.e. until the tail is open.
        let start = Instant::now();
        loop {
            alive(&mut self.child)?;
            let s = scrape(self.addr, ops)?;
            if s.metrics.sum("dart_shard_packets_total").unwrap_or(0.0) > 0.0 {
                break;
            }
            if start.elapsed() > STARTUP_TIMEOUT {
                return Err("daemon never started ingesting".to_string());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.keeper = None;
        while start.elapsed() < warmup {
            alive(&mut self.child)?;
            scrape(self.addr, ops)?;
            std::thread::sleep(SCRAPE_EVERY);
        }

        let begin = Instant::now();
        let cpu_begin = sys::cpu_seconds(pid).ok_or("daemon CPU time unreadable")?;
        let blocked_begin = producer.blocked();
        let mut scrapes = Vec::new();
        let mut tick = 0u32;
        loop {
            alive(&mut self.child)?;
            scrapes.push(scrape(self.addr, ops)?);
            if begin.elapsed() >= window {
                break;
            }
            tick += 1;
            if let Some(wait) = (SCRAPE_EVERY * tick).checked_sub(begin.elapsed()) {
                std::thread::sleep(wait);
            }
        }
        let wall = begin.elapsed();
        let cpu_s = sys::cpu_seconds(pid).ok_or("daemon CPU time unreadable")? - cpu_begin;
        let blocked = producer.blocked().saturating_sub(blocked_begin);
        if scrapes.len() < 2 {
            return Err("measurement window too short for two scrapes".to_string());
        }
        Ok(Measured {
            scrapes,
            cpu_s,
            blocked,
            wall,
        })
    }
}

struct Measured {
    scrapes: Vec<Scrape>,
    cpu_s: f64,
    blocked: Duration,
    wall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{workload, Scale};
    use dart_baselines::EngineRegistry;
    use dart_core::{DartConfig, RttSample};

    fn quick_campus() -> Vec<PacketMeta> {
        workload("live-fifo").unwrap().packets(11, &Scale::QUICK)
    }

    fn samples_per_pass(passes: &[Vec<PacketMeta>]) -> Vec<usize> {
        let mut engine = EngineRegistry::standard()
            .build("dart", &DartConfig::default())
            .unwrap()
            .monitor;
        let mut sink: Vec<RttSample> = Vec::new();
        let mut counts = Vec::new();
        for pass in passes {
            let before = sink.len();
            for block in pass.chunks(BLOCK) {
                engine.on_batch(block, &mut sink);
            }
            counts.push(sink.len() - before);
        }
        counts
    }

    /// The producer's per-pass rewrite yields fresh flows: pass two emits
    /// as many samples as pass one (within 2 %). Replaying the same bytes
    /// — what cycle mode does — yields almost none; this pins both.
    #[test]
    fn rewritten_passes_are_fresh_flows() {
        let packets = quick_campus();
        let mut recording = Recording::new(&packets).unwrap();
        let pass0 = dart_packet::trace::from_bytes(&recording.bytes()).unwrap();
        assert_eq!(pass0, packets);
        recording.advance();
        let pass1 = dart_packet::trace::from_bytes(&recording.bytes()).unwrap();
        let fresh = samples_per_pass(&[pass0.clone(), pass1]);
        assert!(fresh[0] > 100, "quick campus yields samples: {fresh:?}");
        let gap = (fresh[0] as f64 - fresh[1] as f64).abs() / fresh[0] as f64;
        assert!(gap <= 0.02, "pass two within 2 % of pass one: {fresh:?}");

        // Same SEQ space again, time rebased only: retransmissions.
        let period = packets.iter().map(|p| p.ts).max().unwrap() + SECOND;
        let replay: Vec<PacketMeta> = packets
            .iter()
            .map(|p| PacketMeta {
                ts: p.ts + period,
                ..*p
            })
            .collect();
        let stale = samples_per_pass(&[pass0, replay]);
        assert!(
            stale[1] * 10 < stale[0],
            "a replayed SEQ space should yield almost nothing: {stale:?}"
        );
    }

    #[test]
    fn recording_rejects_partial_blocks() {
        let mut packets = quick_campus();
        packets.pop();
        assert!(Recording::new(&packets).is_err());
        assert!(Recording::new(&[]).is_err());
    }

    #[test]
    fn banner_and_exit_report_parse() {
        let banner = "warning: x\ndartmon serve: observability plane on http://127.0.0.1:37533 (POST /control/shutdown to stop)\n";
        assert_eq!(
            parse_banner(banner),
            Some("127.0.0.1:37533".parse().unwrap())
        );
        assert_eq!(parse_banner("dartmon: bind failed"), None);
        let report = "listened          : http://127.0.0.1:1\npackets           : 2048\nsamples           : 17\nended by          : shutdown request\nsupervisor        : healthy\n";
        let exit = parse_exit_report(report);
        assert_eq!((exit.packets, exit.samples), (2048, 17));
        assert!(exit.healthy && exit.ended_by_shutdown);
        assert!(!parse_exit_report("supervisor        : degraded\n").healthy);
    }
}
