//! Live telemetry plane: a std-only HTTP listener over the recorder.
//!
//! Two routes:
//!
//! * `GET /metrics` — the current [`Snapshot`] rendered by
//!   [`render_prometheus`] in the Prometheus text exposition format
//!   (version 0.0.4). One family per metric kind (`dmig_counter`,
//!   `dmig_gauge`) with the recorder's dotted key as the `key` label, so
//!   the full key namespace (`live.phase`, `prof.self_ns.solve_even`)
//!   survives verbatim and scrape configs need no name mangling. Label values are escaped per the exposition spec.
//!   The gauges include each span name's self time, from the same
//!   rollup of the span tree that `dmig obs flame` prints.
//! * `GET /snapshot` — the full snapshot as `dmig-obs/1` JSON, the same
//!   document `--metrics-out` writes.
//!
//! The server is deliberately minimal: one background thread, a
//! blocking accept loop, one request at a time. Every live request
//! refreshes the `mem.rss_*` gauges and takes a fresh [`crate::snapshot`]
//! — atomic counter/gauge reads plus a brief span-buffer lock, the same
//! read path `--metrics-out` uses — so scraping never blocks the solver's
//! hot path and never perturbs the schedule (held to byte-identity by the
//! `obs_transparency` proptests in `dmig-core`). A live `/metrics` charges
//! each span still open up to the scrape; `/snapshot` leaves it open.

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::snapshot::{Snapshot, SpanNode};
use crate::{keys, trace};

/// Escapes a Prometheus label value: backslash, double quote, and newline
/// must be backslash-escaped per the text exposition format.
#[must_use]
pub fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// The gauge family ends with one `prof.self_ns.<span>` sample per row of
/// [`trace::self_time_rollup`] over the snapshot's spans: the summed self
/// time of the spans of that name in nanoseconds, as `dmig obs flame`
/// prints it.
#[must_use]
pub fn render_prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("# HELP dmig_counter Monotonic event counters, by recorder key.\n");
    out.push_str("# TYPE dmig_counter counter\n");
    for (k, v) in &snap.counters {
        let _ = writeln!(out, "dmig_counter{{key=\"{}\"}} {v}", escape_label_value(k));
    }
    out.push_str("# HELP dmig_gauge Last-written or maximum values, by recorder key.\n");
    out.push_str("# TYPE dmig_gauge gauge\n");
    for (k, v) in &snap.gauges {
        let _ = writeln!(out, "dmig_gauge{{key=\"{}\"}} {v}", escape_label_value(k));
    }
    for row in trace::self_time_rollup(&snap.spans) {
        let _ = writeln!(
            out,
            "dmig_gauge{{key=\"{}{}\"}} {}",
            crate::PROF_SELF_NS_PREFIX,
            escape_label_value(&row.name),
            row.self_ns
        );
    }
    out
}

/// What an [`ObsServer`] serves.
#[derive(Debug)]
pub enum ServeSource {
    /// Take a fresh [`crate::snapshot`] of the global recorder per request.
    Live,
    /// Serve one fixed snapshot: `/metrics` renders `snapshot`, while
    /// `/snapshot` returns `raw` (the original JSON document) verbatim.
    Fixed {
        /// The document read by [`Snapshot::from_value`].
        snapshot: Snapshot,
        /// The original document, served at `/snapshot`.
        raw: String,
    },
}

impl ServeSource {
    fn metrics(&self) -> String {
        match self {
            ServeSource::Live => {
                let mut snap = live_snapshot();
                charge_open(&mut snap.spans, crate::recorder().now_ns());
                render_prometheus(&snap)
            }
            ServeSource::Fixed { snapshot, .. } => render_prometheus(snapshot),
        }
    }

    fn snapshot_json(&self) -> String {
        match self {
            ServeSource::Live => live_snapshot().to_json(),
            ServeSource::Fixed { raw, .. } => raw.clone(),
        }
    }
}

/// Refreshes the RSS gauges, then snapshots the global recorder.
fn live_snapshot() -> Snapshot {
    refresh_rss();
    crate::snapshot()
}

/// Charges each span still open in `spans` up to `now_ns`, the recorder
/// clock at the scrape, so its self time runs to the scrape and a parent
/// stops accruing self time while a child is open.
fn charge_open(spans: &mut [SpanNode], now_ns: u64) {
    for span in spans {
        if span.duration_ns.is_none() {
            span.duration_ns = Some(now_ns.saturating_sub(span.start_ns));
        }
        charge_open(&mut span.children, now_ns);
    }
}

/// Sets `mem.rss_bytes` and raises `mem.rss_peak_bytes` from
/// `/proc/self/status`; a no-op where procfs is unavailable or while the
/// recorder is off. Every live request calls it.
pub fn refresh_rss() {
    if let Some((current, peak)) = rss_bytes() {
        crate::gauge_set(keys::MEM_RSS_BYTES, current);
        crate::gauge_max(keys::MEM_RSS_PEAK_BYTES, peak);
    }
}

/// Current and peak resident set size in bytes, from `/proc/self/status`
/// (`VmRSS` / `VmHWM`). `None` where procfs is unavailable.
fn rss_bytes() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let mut current = None;
    let mut peak = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            current = parse_kb(rest);
        } else if let Some(rest) = line.strip_prefix("VmHWM:") {
            peak = parse_kb(rest);
        }
    }
    Some((current?, peak?))
}

fn parse_kb(rest: &str) -> Option<u64> {
    rest.trim()
        .strip_suffix("kB")?
        .trim()
        .parse::<u64>()
        .ok()
        .map(|kb| kb * 1024)
}

/// Handle to a running telemetry listener. Stops the accept loop and
/// joins the thread on drop (or explicitly via [`ObsServer::shutdown`]).
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
    thread: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, port `0` for ephemeral) and
    /// starts the accept loop on a background thread. When `max_requests`
    /// is set the loop exits on its own after serving that many requests
    /// (useful for smoke tests and [`ObsServer::join`]).
    ///
    /// # Errors
    ///
    /// Returns a message when the address cannot be bound.
    pub fn start(
        addr: &str,
        source: ServeSource,
        max_requests: Option<u64>,
    ) -> Result<ObsServer, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(AtomicU64::new(0));
        let t_stop = Arc::clone(&stop);
        let t_served = Arc::clone(&served);
        let thread = std::thread::Builder::new()
            .name("dmig-obs-serve".into())
            .spawn(move || serve_loop(&listener, &source, &t_stop, &t_served, max_requests))
            .map_err(|e| format!("spawn serve thread: {e}"))?;
        Ok(ObsServer {
            addr: local,
            stop,
            served,
            thread: Some(thread),
        })
    }

    /// The address actually bound (resolves port `0` to the real port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the accept loop exits on its own — only meaningful
    /// with `max_requests`; without it this waits forever. Returns the
    /// request count.
    pub fn join(mut self) -> u64 {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.served.load(Ordering::Relaxed)
    }

    /// Stops the accept loop and joins the thread; returns the request
    /// count.
    pub fn shutdown(mut self) -> u64 {
        self.halt();
        self.served.load(Ordering::Relaxed)
    }

    /// Sets the stop flag, then wakes the blocking `accept` with one
    /// connection of its own, which the loop closes unserved.
    fn halt(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            // Refused once the loop has exited on its own.
            let _ = TcpStream::connect(wake);
            let _ = t.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.halt();
    }
}

/// How long the accept loop backs off after a failed `accept` (say, out
/// of file descriptors).
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

fn serve_loop(
    listener: &TcpListener,
    source: &ServeSource,
    stop: &AtomicBool,
    served: &AtomicU64,
    max_requests: Option<u64>,
) {
    while !stop.load(Ordering::SeqCst) {
        if let Some(max) = max_requests {
            if served.load(Ordering::Relaxed) >= max {
                break;
            }
        }
        match listener.accept() {
            // `halt` sets the flag before it connects: this is its wake.
            Ok(_) if stop.load(Ordering::SeqCst) => break,
            Ok((stream, _)) => {
                let _ = handle(stream, source);
                served.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => std::thread::sleep(ACCEPT_RETRY),
        }
    }
}

fn handle(mut stream: TcpStream, source: &ServeSource) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut req = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        req.extend_from_slice(&buf[..n]);
        // Headers complete, or an oversized/raw request we reject anyway.
        if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 8192 {
            break;
        }
    }
    let line = req.split(|&b| b == b'\n').next().unwrap_or(&[]);
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("/");
    let (status, ctype, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "GET only\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                source.metrics(),
            ),
            "/snapshot" => (
                "200 OK",
                "application/json; charset=utf-8",
                source.snapshot_json(),
            ),
            "/" => (
                "200 OK",
                "text/plain; charset=utf-8",
                "dmig obs: GET /metrics (Prometheus exposition) or /snapshot (JSON)\n".to_string(),
            ),
            other => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                format!("no route {other}\n"),
            ),
        }
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{obs_lock, Cleanup};
    use std::collections::BTreeMap;

    fn fetch(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        let (head, body) = response.split_once("\r\n\r\n").expect("header split");
        (head.to_string(), body.to_string())
    }

    /// The `prof.self_ns.<span>` gauges of an exposition, by span name.
    fn self_ns_gauges(text: &str) -> BTreeMap<String, u64> {
        text.lines()
            .filter_map(|l| l.strip_prefix("dmig_gauge{key=\"prof.self_ns."))
            .map(|rest| {
                let (name, value) = rest.split_once("\"} ").expect("a sample line");
                (name.to_string(), value.parse().expect("an integer sample"))
            })
            .collect()
    }

    fn span(name: &str, thread: u64, start_ns: u64, duration_ns: Option<u64>) -> SpanNode {
        SpanNode {
            name: name.into(),
            label: None,
            thread,
            start_ns,
            duration_ns,
            children: Vec::new(),
        }
    }

    fn metric_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("flow_solves".into(), 3);
        snap.gauges.insert("live.phase".into(), 4);
        snap
    }

    #[test]
    fn escaping_covers_backslash_quote_newline() {
        assert_eq!(escape_label_value("plain.key"), "plain.key");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
        assert_eq!(
            escape_label_value("\\\"\n mix"),
            "\\\\\\\"\\n mix",
            "all three escapes compose"
        );
    }

    #[test]
    fn exposition_escapes_hostile_label_values() {
        let mut snap = Snapshot::default();
        snap.counters.insert("weird\"key\\with\nstuff".into(), 7);
        let text = render_prometheus(&snap);
        assert!(
            text.contains("dmig_counter{key=\"weird\\\"key\\\\with\\nstuff\"} 7"),
            "escaped line present:\n{text}"
        );
        // No raw newline may survive inside a sample line.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.contains("} "),
                "malformed exposition line: {line:?}"
            );
        }
    }

    #[test]
    fn exposition_renders_both_families() {
        let text = render_prometheus(&metric_snapshot());
        assert_eq!(
            text,
            "# HELP dmig_counter Monotonic event counters, by recorder key.\n\
             # TYPE dmig_counter counter\n\
             dmig_counter{key=\"flow_solves\"} 3\n\
             # HELP dmig_gauge Last-written or maximum values, by recorder key.\n\
             # TYPE dmig_gauge gauge\n\
             dmig_gauge{key=\"live.phase\"} 4\n"
        );
    }

    #[test]
    fn self_time_gauges_equal_the_flame_rollup() {
        // Two `cell` spans on worker threads covering their parent more
        // than once over, a repeated name, and a span left open.
        let mut solve = span("solve", 0, 0, Some(10_000));
        solve.children = vec![
            span("cell", 1, 1_000, Some(7_000)),
            span("cell", 2, 1_500, Some(6_000)),
        ];
        let mut render = span("render", 0, 10_000, Some(3_000));
        render.children = vec![span("cell", 0, 11_000, Some(500))];
        let snap = Snapshot {
            spans: vec![solve, render, span("open", 0, 13_000, None)],
            ..metric_snapshot()
        };
        let rollup: BTreeMap<String, u64> = trace::self_time_rollup(&snap.spans)
            .into_iter()
            .map(|row| (row.name, row.self_ns))
            .collect();
        assert_eq!(rollup.len(), 4);
        let text = render_prometheus(&snap);
        assert_eq!(self_ns_gauges(&text), rollup);
        // Inside the gauge family, which ends the exposition.
        let at = |needle: &str| text.find(needle).expect(needle);
        assert!(at("# TYPE dmig_gauge") < at("prof.self_ns.solve"));
    }

    #[test]
    fn live_scrapes_charge_open_spans_up_to_the_scrape() {
        let _l = obs_lock();
        let _c = Cleanup;
        crate::reset();
        crate::set_enabled(true);
        let _outer = crate::span("serve_outer");
        std::thread::sleep(Duration::from_millis(2));
        let _inner = crate::span("serve_inner");
        let server =
            ObsServer::start("127.0.0.1:0", ServeSource::Live, None).expect("bind ephemeral");
        let (_, first) = fetch(server.local_addr(), "/metrics");
        std::thread::sleep(Duration::from_millis(2));
        let (_, second) = fetch(server.local_addr(), "/metrics");
        let (_, raw) = fetch(server.local_addr(), "/snapshot");
        server.shutdown();
        if rss_bytes().is_some() {
            assert!(second.contains("dmig_gauge{key=\"mem.rss_peak_bytes\"}"));
        }
        assert!(
            raw.contains("\"duration_us\":null"),
            "/snapshot leaves spans open"
        );
        let (first, second) = (self_ns_gauges(&first), self_ns_gauges(&second));
        assert!(
            second["serve_inner"] > first["serve_inner"],
            "{first:?} {second:?}"
        );
        assert!(first["serve_outer"] >= 2_000_000, "{first:?}");
        assert_eq!(
            first["serve_outer"], second["serve_outer"],
            "a parent accrues no self time while its child is open"
        );
    }

    #[test]
    fn parse_kb_reads_proc_status_lines() {
        assert_eq!(parse_kb("  1234 kB"), Some(1234 * 1024));
        assert_eq!(parse_kb("0 kB"), Some(0));
        assert_eq!(parse_kb("garbage"), None);
    }

    #[test]
    fn server_serves_fixed_snapshot_and_404() {
        let snap = metric_snapshot();
        let raw = snap.to_json();
        let server = ObsServer::start(
            "127.0.0.1:0",
            ServeSource::Fixed {
                snapshot: snap,
                raw: raw.clone(),
            },
            None,
        )
        .expect("bind ephemeral");
        let addr = server.local_addr();

        let (head, body) = fetch(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("dmig_counter{key=\"flow_solves\"} 3"));

        let (head, body) = fetch(addr, "/snapshot");
        assert!(head.contains("application/json"));
        assert_eq!(body, raw, "/snapshot returns the document verbatim");

        let (head, _) = fetch(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        assert_eq!(server.shutdown(), 3);
    }

    #[test]
    fn server_live_source_tracks_recorder() {
        let _l = obs_lock();
        let _c = Cleanup;
        crate::reset();
        crate::set_enabled(true);
        crate::counter_add("serve_live_counter", 11);
        let server =
            ObsServer::start("127.0.0.1:0", ServeSource::Live, None).expect("bind ephemeral");
        let (_, body) = fetch(server.local_addr(), "/metrics");
        assert!(body.contains("dmig_counter{key=\"serve_live_counter\"} 11"));
        crate::counter_add("serve_live_counter", 1);
        let (_, body) = fetch(server.local_addr(), "/metrics");
        assert!(
            body.contains("dmig_counter{key=\"serve_live_counter\"} 12"),
            "each scrape takes a fresh snapshot"
        );
        server.shutdown();
    }

    #[test]
    fn a_wildcard_server_serves_loopback_and_wakes_to_shut_down() {
        let server = ObsServer::start(
            "0.0.0.0:0",
            ServeSource::Fixed {
                snapshot: metric_snapshot(),
                raw: "{}".into(),
            },
            None,
        )
        .expect("bind ephemeral");
        let port = server.local_addr().port();
        let (head, _) = fetch(SocketAddr::from((Ipv4Addr::LOCALHOST, port)), "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(server.shutdown(), 1, "the wake is not served");
    }

    #[test]
    fn max_requests_terminates_the_loop() {
        let server = ObsServer::start(
            "127.0.0.1:0",
            ServeSource::Fixed {
                snapshot: Snapshot::default(),
                raw: "{}".into(),
            },
            Some(1),
        )
        .expect("bind ephemeral");
        let addr = server.local_addr();
        let (head, _) = fetch(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert_eq!(server.join(), 1, "loop exits after the request budget");
    }
}
