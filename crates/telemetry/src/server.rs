//! Zero-dependency embedded HTTP observability plane.
//!
//! A long-lived monitor is only useful if you can look at it while it
//! runs. This module serves the crate's primitives over a minimal
//! `std`-only HTTP/1.1 server (no external dependencies — the workspace
//! policy is vendored-or-nothing, and an accept loop plus a request-line
//! parser needs none):
//!
//! | Endpoint            | Method | Body                                          |
//! |---------------------|--------|-----------------------------------------------|
//! | `/metrics`          | GET    | Prometheus text exposition of the registry    |
//! | `/healthz`          | GET    | caller-supplied JSON health object            |
//! | `/snapshot`         | GET    | one JSONL windowed snapshot (totals + deltas) |
//! | `/events`           | GET    | the bounded [`EventLog`] as JSONL             |
//! | `/control/shutdown` | POST   | ask the daemon to flush and exit              |
//! | `/control/reload`   | POST   | ask the daemon to rebuild its monitor         |
//! | `/control/checkpoint` | POST | ask the daemon to write a snapshot now        |
//!
//! The control endpoints only *set flags* ([`HttpServer::shutdown_requested`],
//! [`HttpServer::take_reload_request`]); the daemon's own loop polls them
//! between batches and performs the action at a safe point — the same
//! contract as a POSIX signal handler, minus the signal. `/control/reload`
//! is the daemon's SIGHUP analogue.
//!
//! Scrape semantics: `/metrics` and `/snapshot` both advance the
//! registry's delta window (a delta is "since the previous scrape by
//! anyone"). Point one collector at a time at a given registry, or treat
//! deltas as advisory; cumulative totals are always exact.
//!
//! Connections are handled serially on one accept thread with short I/O
//! timeouts: an observability plane for a handful of curl/Prometheus
//! clients, not a web server. A stuck client costs at most the timeout:
//! the whole request head shares one deadline, however slowly it arrives.

use crate::events::EventLog;
use crate::registry::MetricRegistry;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Caller-supplied provider for the `/healthz` body: returns one JSON
/// object describing the daemon's current health (see
/// `SupervisorHealth::to_json` in `dart-core` for the canonical shape).
pub type HealthProvider = Arc<dyn Fn() -> String + Send + Sync>;

/// Deadline for a whole request head, and the timeout of each response
/// write: generous for a local scrape, small enough that a wedged client
/// cannot stall the accept loop for long.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest request head (request line + headers) we accept.
const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// The running observability server. Dropping it stops the accept loop
/// and joins the thread; [`HttpServer::stop`] does the same explicitly.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    reload: Arc<AtomicBool>,
    checkpoint: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `registry`, `events`, and `health` on a background thread.
    pub fn serve(
        addr: impl ToSocketAddrs,
        registry: MetricRegistry,
        events: EventLog,
        health: HealthProvider,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shutdown = Arc::new(AtomicBool::new(false));
        let reload = Arc::new(AtomicBool::new(false));
        let checkpoint = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));
        let ctx = ServeCtx {
            registry,
            events,
            health,
            stop: Arc::clone(&stop),
            shutdown: Arc::clone(&shutdown),
            reload: Arc::clone(&reload),
            checkpoint: Arc::clone(&checkpoint),
            requests: Arc::clone(&requests),
        };
        let thread = std::thread::Builder::new()
            .name("dart-obs-http".to_string())
            .spawn(move || accept_loop(listener, ctx))?;
        Ok(HttpServer {
            addr,
            stop,
            shutdown,
            reload,
            checkpoint,
            requests,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a client POSTed `/control/shutdown` (or the process asked
    /// via [`HttpServer::request_shutdown`]). Sticky: stays set.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// The shared shutdown flag itself. Long-blocking packet sources (a
    /// `Follow` tail waiting on a quiet fifo) watch this so a POSTed
    /// `/control/shutdown` also wakes a daemon parked in `next_chunk`.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Set the shutdown flag from inside the process — what a SIGTERM
    /// handler or a test harness calls to end the daemon loop.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Consume a pending `/control/reload` request: returns true at most
    /// once per POST, so the daemon reloads exactly once per ask.
    pub fn take_reload_request(&self) -> bool {
        self.reload.swap(false, Ordering::Relaxed)
    }

    /// Consume a pending `/control/checkpoint` request: returns true at
    /// most once per POST, so the daemon snapshots exactly once per ask.
    pub fn take_checkpoint_request(&self) -> bool {
        self.checkpoint.swap(false, Ordering::Relaxed)
    }

    /// Requests served so far (any endpoint, any status).
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Stop the accept loop and join the server thread.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Relaxed);
        // The accept loop is parked in accept(); poke it awake with a
        // throwaway connection so it observes the stop flag.
        if let Ok(s) = TcpStream::connect(self.addr) {
            drop(s);
        }
        let _ = thread.join();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Everything the accept loop needs, bundled for the thread spawn.
struct ServeCtx {
    registry: MetricRegistry,
    events: EventLog,
    health: HealthProvider,
    stop: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    reload: Arc<AtomicBool>,
    checkpoint: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
}

fn accept_loop(listener: TcpListener, ctx: ServeCtx) {
    for conn in listener.incoming() {
        if ctx.stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(stream) = conn else { continue };
        ctx.requests.fetch_add(1, Ordering::Relaxed);
        // A failed client write is the client's problem, not the loop's.
        let _ = handle_connection(stream, &ctx);
    }
}

/// One HTTP status line we know how to send.
struct Response {
    status: &'static str,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Response {
        Response {
            status: "200 OK",
            content_type,
            body,
        }
    }

    fn not_found() -> Response {
        Response {
            status: "404 Not Found",
            content_type: "text/plain; charset=utf-8",
            body: "unknown path; try /metrics /healthz /snapshot /events\n".to_string(),
        }
    }

    fn method_not_allowed() -> Response {
        Response {
            status: "405 Method Not Allowed",
            content_type: "text/plain; charset=utf-8",
            body: "read endpoints are GET; /control/* are POST\n".to_string(),
        }
    }

    fn bad_request() -> Response {
        Response {
            status: "400 Bad Request",
            content_type: "text/plain; charset=utf-8",
            body: "malformed request line\n".to_string(),
        }
    }
}

/// The request head's reader: every read waits only for what is left of
/// one deadline, so a client trickling bytes cannot hold the accept loop
/// past it.
struct HeadReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for HeadReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

fn handle_connection(stream: TcpStream, ctx: &ServeCtx) -> std::io::Result<()> {
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = HeadReader {
        stream: &stream,
        deadline: Instant::now() + IO_TIMEOUT,
    };
    let mut reader = BufReader::new(head).take(MAX_HEAD_BYTES);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers so well-behaved clients see their whole request
    // consumed; their contents don't matter to any endpoint.
    let mut header = String::new();
    while reader.read_line(&mut header)? > 0 && header.trim_end() != "" {
        header.clear();
    }
    let response = route(&request_line, ctx);
    let mut stream = &stream;
    write!(
        stream,
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        response.content_type,
        response.body.len(),
    )?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

fn route(request_line: &str, ctx: &ServeCtx) -> Response {
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
        return Response::bad_request();
    };
    // Ignore any query string: `/metrics?x=y` is `/metrics`.
    let path = path.split('?').next().unwrap_or(path);
    match (method, path) {
        ("GET", "/metrics") => Response::ok(
            "text/plain; version=0.0.4; charset=utf-8",
            ctx.registry.scrape().prometheus(),
        ),
        ("GET", "/healthz") => {
            let mut body = (ctx.health)();
            body.push('\n');
            Response::ok("application/json", body)
        }
        ("GET", "/snapshot") => {
            let mut body = ctx.registry.scrape().jsonl_line(&[]);
            body.push('\n');
            Response::ok("application/jsonl", body)
        }
        ("GET", "/events") => Response::ok("application/jsonl", ctx.events.to_jsonl()),
        ("POST", "/control/shutdown") => {
            ctx.shutdown.store(true, Ordering::Relaxed);
            Response::ok(
                "text/plain; charset=utf-8",
                "shutdown requested\n".to_string(),
            )
        }
        ("POST", "/control/reload") => {
            ctx.reload.store(true, Ordering::Relaxed);
            Response::ok(
                "text/plain; charset=utf-8",
                "reload requested\n".to_string(),
            )
        }
        ("POST", "/control/checkpoint") => {
            ctx.checkpoint.store(true, Ordering::Relaxed);
            Response::ok(
                "text/plain; charset=utf-8",
                "checkpoint requested\n".to_string(),
            )
        }
        ("GET", "/control/shutdown" | "/control/reload" | "/control/checkpoint")
        | ("POST", "/metrics" | "/healthz" | "/snapshot" | "/events") => {
            Response::method_not_allowed()
        }
        _ => Response::not_found(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Minimal test client: send `req`, return (status line, body).
    fn request(addr: SocketAddr, req: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(req.as_bytes()).expect("send");
        let mut raw = String::new();
        s.read_to_string(&mut raw).expect("read");
        let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
        let status = head.lines().next().unwrap_or_default().to_string();
        (status, body.to_string())
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        request(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"),
        )
    }

    fn post(addr: SocketAddr, path: &str) -> (String, String) {
        request(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
            ),
        )
    }

    fn spawn_server() -> (HttpServer, MetricRegistry, EventLog) {
        let registry = MetricRegistry::new();
        let events = EventLog::new(16);
        let server = HttpServer::serve(
            "127.0.0.1:0",
            registry.clone(),
            events.clone(),
            Arc::new(|| "{\"healthy\":true}".to_string()),
        )
        .expect("bind ephemeral port");
        (server, registry, events)
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (server, registry, _events) = spawn_server();
        registry
            .counter("dart_test_pkts_total", &[], "packets")
            .add(7);
        let (status, body) = get(server.addr(), "/metrics");
        assert!(status.contains("200"), "{status}");
        assert!(
            body.contains("# TYPE dart_test_pkts_total counter"),
            "{body}"
        );
        assert!(body.contains("dart_test_pkts_total 7"), "{body}");
        server.stop();
    }

    #[test]
    fn healthz_serves_the_provider_json() {
        let (server, _registry, _events) = spawn_server();
        let (status, body) = get(server.addr(), "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "{\"healthy\":true}\n");
        server.stop();
    }

    #[test]
    fn snapshot_serves_windowed_deltas() {
        let (server, registry, _events) = spawn_server();
        let c = registry.counter("dart_test_pkts_total", &[], "packets");
        c.add(10);
        let (_, first) = get(server.addr(), "/snapshot");
        let v = crate::json::parse(first.trim()).expect("snapshot line parses");
        let counters = v.get("counters").expect("counters section");
        let series = counters.get("dart_test_pkts_total").expect("series");
        assert_eq!(series.get("delta").and_then(|d| d.as_u64()), Some(10));
        c.add(3);
        let (_, second) = get(server.addr(), "/snapshot");
        let v = crate::json::parse(second.trim()).expect("second line parses");
        let series = v
            .get("counters")
            .and_then(|c| c.get("dart_test_pkts_total"))
            .expect("series");
        assert_eq!(series.get("total").and_then(|d| d.as_u64()), Some(13));
        assert_eq!(series.get("delta").and_then(|d| d.as_u64()), Some(3));
        server.stop();
    }

    #[test]
    fn events_endpoint_dumps_the_ring() {
        let (server, _registry, events) = spawn_server();
        events.info("daemon", "rotated", &[("epoch", "3")]);
        let (status, body) = get(server.addr(), "/events");
        assert!(status.contains("200"), "{status}");
        let v = crate::json::parse(body.trim()).expect("event line parses");
        assert_eq!(v.get("message").and_then(|m| m.as_str()), Some("rotated"));
        assert_eq!(v.get("epoch").and_then(|m| m.as_str()), Some("3"));
        server.stop();
    }

    #[test]
    fn control_endpoints_set_flags_once() {
        let (server, _registry, _events) = spawn_server();
        assert!(!server.shutdown_requested());
        assert!(!server.take_reload_request());
        let (status, _) = post(server.addr(), "/control/reload");
        assert!(status.contains("200"), "{status}");
        assert!(server.take_reload_request(), "one POST, one reload");
        assert!(!server.take_reload_request(), "consumed");
        let (status, _) = post(server.addr(), "/control/checkpoint");
        assert!(status.contains("200"), "{status}");
        assert!(server.take_checkpoint_request(), "one POST, one checkpoint");
        assert!(!server.take_checkpoint_request(), "consumed");
        let (status, _) = post(server.addr(), "/control/shutdown");
        assert!(status.contains("200"), "{status}");
        assert!(server.shutdown_requested());
        assert!(server.shutdown_requested(), "sticky");
        server.stop();
    }

    #[test]
    fn wrong_method_and_unknown_path_are_rejected() {
        let (server, _registry, _events) = spawn_server();
        let (status, _) = post(server.addr(), "/metrics");
        assert!(status.contains("405"), "{status}");
        let (status, _) = get(server.addr(), "/control/shutdown");
        assert!(status.contains("405"), "{status}");
        assert!(!server.shutdown_requested(), "GET must not trigger control");
        let (status, _) = get(server.addr(), "/nope");
        assert!(status.contains("404"), "{status}");
        assert!(server.requests_served() >= 3);
        server.stop();
    }

    #[test]
    fn query_strings_are_ignored() {
        let (server, _registry, _events) = spawn_server();
        let (status, _) = get(server.addr(), "/metrics?format=prometheus");
        assert!(status.contains("200"), "{status}");
        server.stop();
    }

    /// After any abusive connection, a clean scrape must still succeed —
    /// the abuse test's real assertion.
    fn assert_scrape_ok(addr: SocketAddr) {
        let (status, body) = get(addr, "/metrics");
        assert!(status.contains("200"), "scrape after abuse: {status}");
        assert!(
            body.contains("dart_abuse_probe_total"),
            "scrape after abuse lost registry contents: {body}"
        );
    }

    #[test]
    fn oversized_request_head_does_not_poison_later_scrapes() {
        let (server, registry, _events) = spawn_server();
        registry
            .counter("dart_abuse_probe_total", &[], "canary")
            .add(1);
        // A request head far past MAX_HEAD_BYTES: the reader's take() stops
        // consuming, the connection is answered or dropped, and the accept
        // loop moves on.
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        let mut junk = String::from("GET /metrics HTTP/1.1\r\n");
        while junk.len() < 2 * MAX_HEAD_BYTES as usize {
            junk.push_str("X-Filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        // The server may close mid-write once the head budget is spent;
        // a send error is an acceptable outcome for the abuser.
        let _ = s.write_all(junk.as_bytes());
        drop(s);
        assert_scrape_ok(server.addr());
        server.stop();
    }

    #[test]
    fn slowloris_partial_write_times_out_and_frees_the_loop() {
        let (server, registry, _events) = spawn_server();
        registry
            .counter("dart_abuse_probe_total", &[], "canary")
            .add(1);
        // Send half a request line and go silent. The per-connection read
        // timeout (IO_TIMEOUT) must cut the connection loose; the follow-up
        // scrape proves the accept loop was stalled at most that long.
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        s.write_all(b"GET /metr").expect("partial send");
        let start = std::time::Instant::now();
        assert_scrape_ok(server.addr());
        assert!(
            start.elapsed() < IO_TIMEOUT + Duration::from_secs(2),
            "slowloris held the loop past the timeout: {:?}",
            start.elapsed()
        );
        drop(s);
        server.stop();
    }

    #[test]
    fn trickled_head_is_cut_at_one_deadline() {
        let (server, registry, _events) = spawn_server();
        registry
            .counter("dart_abuse_probe_total", &[], "canary")
            .add(1);
        // One byte every 500 ms never lets a single read time out; only a
        // deadline over the whole head stops it holding the loop for as
        // long as it keeps trickling (8 s here).
        let mut s = TcpStream::connect(server.addr()).expect("connect");
        s.write_all(b"G").expect("first byte");
        let trickler = std::thread::spawn(move || {
            for &b in b"ET /metrics HTTP/1.1\r\n".iter().cycle().take(16) {
                std::thread::sleep(Duration::from_millis(500));
                if s.write_all(&[b]).is_err() {
                    break;
                }
            }
        });
        let start = std::time::Instant::now();
        assert_scrape_ok(server.addr());
        assert!(
            start.elapsed() < IO_TIMEOUT + Duration::from_secs(2),
            "a trickled head held the loop past the deadline: {:?}",
            start.elapsed()
        );
        trickler.join().expect("trickler");
        server.stop();
    }

    /// The only heads that may set a control flag: `POST` of that path.
    fn controls(head: &[u8], path: &str) -> bool {
        let line = head.split(|&b| b == b'\n').next().unwrap_or_default();
        let mut parts = std::str::from_utf8(line).unwrap_or("").split_whitespace();
        parts.next() == Some("POST")
            && parts.next().map(|p| p.split('?').next()) == Some(Some(path))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary request heads — valid lines, raw and non-UTF-8 bytes,
        /// heads past `MAX_HEAD_BYTES` — are answered with a known status
        /// or closed, never panic the loop, set a control flag only for
        /// that exact POST, and leave the next scrape clean.
        #[test]
        fn arbitrary_heads_are_answered_or_closed(
            prefix in 0usize..6,
            tail in prop::collection::vec(any::<u8>(), 0..64),
            filler in 0usize..3,
        ) {
            let (server, registry, _events) = spawn_server();
            registry.counter("dart_abuse_probe_total", &[], "canary").add(1);
            let mut head = [
                "GET /metrics HTTP/1.1\r\n",
                "POST /control/shutdown HTTP/1.1\r\n",
                "POST /control/reload?x HTTP/1.1\r\n",
                "GET /control/checkpoint HTTP/1.1\r\n",
                "POST /control/checkpointz HTTP/1.1\r\n",
                "",
            ][prefix]
                .as_bytes()
                .to_vec();
            head.extend(&tail);
            // None, a head well inside MAX_HEAD_BYTES, one twice past it.
            head.extend(b"X: y\r\n".repeat([0, 1_000, 6_000][filler]));
            let mut s = TcpStream::connect(server.addr()).expect("connect");
            // The server may answer and close before taking all of it.
            let _ = s.write_all(&head);
            let _ = s.shutdown(std::net::Shutdown::Write);
            let mut raw = Vec::new();
            let _ = s.read_to_end(&mut raw);
            let status = raw.get(9..12).unwrap_or_default();
            prop_assert!(
                raw.is_empty() || [&b"200"[..], b"400", b"404", b"405"].contains(&status),
                "answered {:?}",
                String::from_utf8_lossy(&raw[..raw.len().min(40)])
            );
            prop_assert!(!server.shutdown_requested() || controls(&head, "/control/shutdown"));
            prop_assert!(!server.take_reload_request() || controls(&head, "/control/reload"));
            prop_assert!(
                !server.take_checkpoint_request() || controls(&head, "/control/checkpoint")
            );
            assert_scrape_ok(server.addr());
            server.stop();
        }
    }

    #[test]
    fn pipelined_garbage_gets_one_error_and_a_close() {
        let (server, registry, _events) = spawn_server();
        registry
            .counter("dart_abuse_probe_total", &[], "canary")
            .add(1);
        // Several pipelined "requests", the first malformed. The server is
        // Connection: close — it answers the first parse with an error (or
        // 404/405) and closes; the trailing garbage must not be replayed
        // into later connections.
        let (status, _) = request(
            server.addr(),
            "\u{0}\u{1}\u{2} garbage\r\n\r\nGET /metrics HTTP/1.1\r\n\r\nPOST /control/shutdown HTTP/1.1\r\n\r\n",
        );
        assert!(
            status.contains("400") || status.contains("404") || status.contains("405"),
            "garbage got {status}"
        );
        assert!(
            !server.shutdown_requested(),
            "pipelined tail must not reach the router"
        );
        assert_scrape_ok(server.addr());
        server.stop();
    }

    #[test]
    fn stop_joins_and_drop_is_idempotent() {
        let (server, _registry, _events) = spawn_server();
        let addr = server.addr();
        server.stop();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may briefly accept on the closed listener's
                // backlog; a read must still see EOF / reset.
                true
            }
        );
    }
}
