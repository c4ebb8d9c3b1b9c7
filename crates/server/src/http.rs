//! A dependency-free HTTP/1.1 server on `std::net::TcpListener`.
//!
//! The workspace vendors no async runtime, so service mode runs on
//! threads — a fixed set of them.  [`serve`] starts `WORKERS` (16)
//! worker threads once, and each runs the whole exchange in a loop on the
//! shared listener: `accept` → the two socket deadlines → read one
//! request → handler → one write → close (`Connection: close` on every
//! response).  There is no accept thread and no hand-off queue: the
//! kernel wakes one blocked acceptor per connection, and the listen
//! backlog is the (bounded) queue.  A connection costs a handshake, not
//! a thread start.
//!
//! **Saturation.**  At most `WORKERS` requests are in flight.  With
//! every worker busy, new connections wait in the listen backlog and are
//! served in arrival order as workers free up — no later than the
//! deadlines below allow, since no request can hold a worker longer.
//! Nothing is refused with a status code yet;
//! `prorp_server_http_busy_workers_peak` reaching `WORKERS` on
//! `/metrics` is how an operator sees it.  Sixteen is not a tuning
//! point: a request holds a worker for tens of microseconds and the
//! server's handler serialises on the one driver's lock anyway, so
//! throughput reads the same at 8 and 32; the number only has to exceed
//! the handful of slow or stalled peers a control plane meets at once.
//! `--shards K` does not change that: it steps the driver's K shards in
//! parallel inside an advance, under the lock, and serves no more
//! requests at once.
//!
//! **Deadlines.**  Every accepted socket carries a read and a write
//! deadline (`IO_TIMEOUT`, 5 s per call), and the request as a whole
//! has `REQUEST_DEADLINE` (10 s) from `accept` to its last byte, checked
//! after every read.  A peer that stalls, or trickles a byte at a time
//! to stay inside the per-read deadline, gets a 408 and a closed
//! connection after at most `REQUEST_DEADLINE + IO_TIMEOUT`, and the
//! worker moves on.
//!
//! Parsing is deliberately strict and bounded: request line + headers
//! up to 16 KiB ending in a blank line, bodies up to 1 MiB via
//! `Content-Length` only (a `Transfer-Encoding` header is refused, not
//! ignored), anything else is a 400/413 and never reaches the handler.
//! A handler that panics costs its request a 500, not the server a
//! worker.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Worker threads, started once by [`serve`]: the most requests that can
/// be in flight at a time.
const WORKERS: usize = 16;
/// Largest accepted header block in bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted body in bytes.
const MAX_BODY: usize = 1024 * 1024;
/// Longest an accepted socket may sit in one read or one write.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest a request may take from `accept` to its last byte read.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The method verb, upper-cased as received (`GET`, `POST`, …).
    pub method: String,
    /// The request path, query string stripped.
    pub path: String,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: String,
}

/// One response to render.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body,
        }
    }

    /// A Prometheus text-exposition response.  The `version=0.0.4`
    /// parameter is the text-format version scrapers content-negotiate
    /// on — without it some agents fall back to protobuf or refuse the
    /// payload.
    pub fn prometheus(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "text/plain; version=0.0.4",
            body,
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }

    /// Head and body leave in one write: one syscall, and on loopback
    /// one segment, so a client never sees a head without its body.
    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut reply = String::with_capacity(128 + self.body.len());
        let _ = write!(
            reply,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        reply.push_str(&self.body);
        stream.write_all(reply.as_bytes())
    }
}

/// Counters of the transport itself, shared by the workers and read by
/// whoever renders `/metrics`.  They describe this process, not the
/// simulated world, and publish no other data — hence `Relaxed`.
#[derive(Debug, Default)]
pub struct HttpStats {
    connections: AtomicU64,
    busy_workers: AtomicU64,
    busy_workers_peak: AtomicU64,
    timeouts: AtomicU64,
    rejected: AtomicU64,
    handler_panics: AtomicU64,
}

impl HttpStats {
    /// The Prometheus rows `(name, type, value)`.  `busy_workers` counts
    /// the worker that is answering the scrape; a `busy_workers_peak`
    /// equal to the worker count means the server has been saturated.
    pub fn rows(&self) -> [(&'static str, &'static str, u64); 6] {
        let read = |a: &AtomicU64| a.load(Ordering::Relaxed);
        [
            (
                "prorp_server_http_connections_total",
                "counter",
                read(&self.connections),
            ),
            (
                "prorp_server_http_busy_workers",
                "gauge",
                read(&self.busy_workers),
            ),
            (
                "prorp_server_http_busy_workers_peak",
                "gauge",
                read(&self.busy_workers_peak),
            ),
            (
                "prorp_server_http_timeouts_total",
                "counter",
                read(&self.timeouts),
            ),
            (
                "prorp_server_http_rejected_total",
                "counter",
                read(&self.rejected),
            ),
            (
                "prorp_server_http_handler_panics_total",
                "counter",
                read(&self.handler_panics),
            ),
        ]
    }
}

/// The reply to a failed read: 408 when a deadline passed (the socket's
/// is reported as `WouldBlock` or `TimedOut`, by platform; the
/// request's as `TimedOut`), else 400 with `otherwise`.
fn read_failed(e: &std::io::Error, otherwise: &str) -> Response {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            Response::text(408, "timed out waiting for the request\n".into())
        }
        _ => Response::text(400, otherwise.into()),
    }
}

/// The socket, read against the whole-request deadline: a read that
/// returns after it fails like one that timed out, so a peer cannot stay
/// inside the per-read deadline for ever by trickling bytes.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        if Instant::now() > self.deadline {
            return Err(ErrorKind::TimedOut.into());
        }
        Ok(n)
    }
}

/// Read and parse one request off the stream, all of it by `deadline`.
fn read_request(stream: &TcpStream, deadline: Instant) -> Result<Request, Response> {
    let mut reader = BufReader::new(Deadlined { stream, deadline });
    // The head is read through a cap of one byte more than allowed, so a
    // peer that never sends a newline cannot make a line grow without
    // limit: a spent cap means the head was too large.
    let mut head = reader.by_ref().take(MAX_HEAD as u64 + 1);
    let too_large = || Response::text(413, "header block too large\n".into());
    // A line that does not end in a newline is where the stream ended:
    // the peer went away before the blank line, and what it meant to
    // send after it is unknown.
    let truncated = || Response::text(400, "truncated head\n".into());
    // Request line, then headers until the blank line.
    let mut request_line = String::new();
    head.read_line(&mut request_line)
        .map_err(|e| read_failed(&e, "unreadable request line\n"))?;
    if head.limit() == 0 {
        return Err(too_large());
    }
    if !request_line.ends_with('\n') {
        return Err(truncated());
    }
    let mut content_length = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        head.read_line(&mut line)
            .map_err(|e| read_failed(&e, "unreadable header\n"))?;
        if head.limit() == 0 {
            return Err(too_large());
        }
        if !line.ends_with('\n') {
            return Err(truncated());
        }
        if line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| Response::text(400, "bad content-length\n".into()))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                // Its payload would sit unread behind an empty body.
                return Err(Response::text(
                    400,
                    "transfer-encoding is not supported\n".into(),
                ));
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(Response::text(413, "body too large\n".into()));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| read_failed(&e, "truncated body\n"))?;
    let body =
        String::from_utf8(body).map_err(|_| Response::text(400, "body is not utf-8\n".into()))?;
    let mut parts = request_line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t),
        _ => return Err(Response::text(400, "malformed request line\n".into())),
    };
    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok(Request { method, path, body })
}

/// One exchange on a just-accepted connection; the caller closes it.
fn serve_connection<H>(stream: &mut TcpStream, stats: &HttpStats, handler: &H)
where
    H: Fn(Request) -> Response,
{
    let deadline = Instant::now() + REQUEST_DEADLINE;
    // No deadline, no service: a socket that cannot take one is dropped
    // rather than allowed to block a worker forever.
    if stream.set_read_timeout(Some(IO_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err()
    {
        return;
    }
    // The worker outlives whatever the request does to the handler.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        read_request(stream, deadline).map(handler)
    }));
    let response = match outcome {
        Ok(Ok(response)) => response,
        Ok(Err(refusal)) => {
            let counter = match refusal.status {
                408 => &stats.timeouts,
                _ => &stats.rejected,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            refusal
        }
        Err(_) => {
            stats.handler_panics.fetch_add(1, Ordering::Relaxed);
            Response::text(500, "the handler panicked\n".into())
        }
    };
    let _ = response.write_to(stream);
}

/// One worker: accept, serve, close, until the stop flag is up.
fn work<H>(
    listener: &TcpListener,
    stop: &AtomicBool,
    in_request: &AtomicBool,
    stats: &HttpStats,
    handler: &H,
) where
    H: Fn(Request) -> Response,
{
    while !stop.load(Ordering::SeqCst) {
        let conn = listener.accept();
        // Raised before the stop flag is read, and read by `stop_workers`
        // after it raised the flag (both `SeqCst`): either this worker
        // sees the flag and drops the connection, or `stop_workers` sees
        // a worker it must not wait for.
        in_request.store(true, Ordering::SeqCst);
        if let (false, Ok((mut stream, _))) = (stop.load(Ordering::SeqCst), conn) {
            stats.connections.fetch_add(1, Ordering::Relaxed);
            let busy = stats.busy_workers.fetch_add(1, Ordering::Relaxed) + 1;
            stats.busy_workers_peak.fetch_max(busy, Ordering::Relaxed);
            serve_connection(&mut stream, stats, handler);
            // Before the close at the end of this block: a peer that has
            // read its reply to the end finds this worker counted idle.
            stats.busy_workers.fetch_sub(1, Ordering::Relaxed);
        }
        in_request.store(false, Ordering::SeqCst);
    }
}

/// A running server: its bound address and its workers.  Dropping it
/// stops the server, like [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Each worker with its "inside a request" flag.
    workers: Vec<(JoinHandle<()>, Arc<AtomicBool>)>,
}

impl ServerHandle {
    /// The address the listener bound (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving and join the idle workers.  A worker inside a
    /// request is not waited for: it finishes that request (the
    /// deadlines bound how long that takes) and exits, and the listener
    /// closes with the last worker.  Connections still in the backlog
    /// are dropped unanswered.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Raise the stop flag and wake every worker.
    fn stop_workers(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // One throwaway connection per worker unblocks every `accept()`;
        // whoever takes one sees the flag and drops it unread.  With a
        // full backlog the connect would hang, but then no worker is
        // parked in `accept()` either — hence the short timeout.
        for _ in &self.workers {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(100));
        }
        for (thread, in_request) in self.workers.drain(..) {
            if !in_request.load(Ordering::SeqCst) {
                let _ = thread.join();
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Bind `addr` and serve `handler` from `WORKERS` threads until
/// [`ServerHandle::shutdown`], counting into `stats`.
///
/// The handler runs on the worker threads; it must be internally
/// synchronised (it is invoked concurrently, by at most `WORKERS`
/// callers).  No thread is started after this function returns.
///
/// # Errors
///
/// Propagates the bind failure, or a failure to start a worker.
pub fn serve<H>(addr: &str, stats: Arc<HttpStats>, handler: Arc<H>) -> std::io::Result<ServerHandle>
where
    H: Fn(Request) -> Response + Send + Sync + 'static,
{
    let listener = Arc::new(TcpListener::bind(addr)?);
    let mut handle = ServerHandle {
        addr: listener.local_addr()?,
        stop: Arc::new(AtomicBool::new(false)),
        workers: Vec::with_capacity(WORKERS),
    };
    for i in 0..WORKERS {
        let listener = Arc::clone(&listener);
        let stop = Arc::clone(&handle.stop);
        let stats = Arc::clone(&stats);
        let handler = Arc::clone(&handler);
        let in_request = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&in_request);
        // A failed spawn drops `handle`, which stops the workers so far.
        let thread = std::thread::Builder::new()
            .name(format!("prorp-http-{i}"))
            .spawn(move || work(&listener, &stop, &flag, &stats, &*handler))?;
        handle.workers.push((thread, in_request));
    }
    Ok(handle)
}

/// One blocking `Connection: close` exchange with the server at `addr`:
/// the reply's status, head (status line and headers) and body.  Fails
/// on an I/O error, or with [`ErrorKind::InvalidData`] on a reply
/// without a status code.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let length = body.len();
    let head = format!("{method} {path} HTTP/1.1\r\nconnection: close\r\ncontent-length: {length}");
    stream.write_all(format!("{head}\r\n\r\n{body}").as_bytes())?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply)?;
    let (head, body) = reply.split_once("\r\n\r\n").unwrap_or((&reply, ""));
    match head.split_whitespace().nth(1).and_then(|c| c.parse().ok()) {
        Some(status) => Ok((status, head.to_string(), body.to_string())),
        None => Err(std::io::Error::new(ErrorKind::InvalidData, reply)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::net::Shutdown;

    /// What the peer gets back after sending `raw` and closing its
    /// sending side, so the server reads end-of-stream where `raw` ends.
    /// The server may close with input unread, which resets the
    /// connection, so write and read errors end the exchange like EOF.
    fn roundtrip(handle: &ServerHandle, raw: &str) -> String {
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let _ = s.write_all(raw.as_bytes());
        let _ = s.shutdown(Shutdown::Write);
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn serves_and_echoes_bodies() {
        let handle = serve(
            "127.0.0.1:0",
            Arc::default(),
            Arc::new(|req: Request| {
                Response::text(200, format!("{} {} [{}]", req.method, req.path, req.body))
            }),
        )
        .unwrap();
        let reply = roundtrip(
            &handle,
            "POST /v1/echo?x=1 HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello",
        );
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.ends_with("POST /v1/echo [hello]"), "{reply}");
        handle.shutdown();
    }

    #[test]
    fn malformed_requests_get_400() {
        let handle = serve(
            "127.0.0.1:0",
            Arc::default(),
            Arc::new(|_| Response::text(200, "ok".into())),
        )
        .unwrap();
        let reply = roundtrip(&handle, "\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        let reply = roundtrip(&handle, "POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
        handle.shutdown();
    }

    /// What the peer sees after sending `raw`: every byte up to the close.
    /// The server may close with input unread, which resets the
    /// connection, so write and read errors end the exchange like EOF.
    fn reply_until_close(handle: &ServerHandle, raw: &[u8]) -> String {
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let _ = s.write_all(raw);
        let mut out = Vec::new();
        if let Err(e) = s.read_to_end(&mut out) {
            assert_ne!(e.kind(), std::io::ErrorKind::WouldBlock, "left open");
            assert_ne!(e.kind(), std::io::ErrorKind::TimedOut, "left open");
        }
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn an_endless_line_gets_413_and_a_closed_connection() {
        let handle = serve(
            "127.0.0.1:0",
            Arc::default(),
            Arc::new(|_| Response::text(200, "ok".into())),
        )
        .unwrap();
        // 64 KiB and never a newline, as the request line …
        let reply = reply_until_close(&handle, &[b'a'; 64 * 1024]);
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
        // … and as a header line.
        let mut raw = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        raw.resize(64 * 1024, b'a');
        let reply = reply_until_close(&handle, &raw);
        assert!(reply.starts_with("HTTP/1.1 413"), "{reply}");
        // A head of exactly the cap is still served.
        let mut raw = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        raw.resize(MAX_HEAD - 4, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        let reply = reply_until_close(&handle, &raw);
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        handle.shutdown();
    }

    #[test]
    fn a_stalled_peer_gets_408_and_a_closed_connection() {
        let handle = serve(
            "127.0.0.1:0",
            Arc::default(),
            Arc::new(|_| Response::text(200, "ok".into())),
        )
        .unwrap();
        // Half a request line, then silence (`reply_until_close` keeps
        // the socket open and only reads); beside it, a body that stops
        // short of its content-length.
        let (head, body) = std::thread::scope(|s| {
            let head = s.spawn(|| reply_until_close(&handle, b"GET /v1/data"));
            let body = s.spawn(|| {
                let raw = b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nhalf";
                reply_until_close(&handle, raw)
            });
            (head.join().unwrap(), body.join().unwrap())
        });
        assert!(head.starts_with("HTTP/1.1 408 Request Timeout"), "{head}");
        assert!(body.starts_with("HTTP/1.1 408"), "{body}");
        handle.shutdown();
    }

    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Barrier, Mutex};

    /// A server whose handler counts its calls and answers `ok`, with
    /// the transport's counters.
    fn counting_server() -> (ServerHandle, Arc<AtomicUsize>, Arc<HttpStats>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let stats = Arc::new(HttpStats::default());
        let handle = serve(
            "127.0.0.1:0",
            Arc::clone(&stats),
            Arc::new(move |_| {
                seen.fetch_add(1, Ordering::SeqCst);
                Response::text(200, "ok".into())
            }),
        )
        .unwrap();
        (handle, calls, stats)
    }

    fn stat(stats: &HttpStats, name: &str) -> u64 {
        let rows = stats.rows();
        let row = rows.iter().find(|(n, _, _)| n.ends_with(name));
        row.unwrap_or_else(|| panic!("no stat {name}")).2
    }

    /// Spin (yielding) until `cond` holds; the states waited for here are
    /// reached within microseconds, so ten seconds means never.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let started = Instant::now();
        while !cond() {
            assert!(started.elapsed() < Duration::from_secs(10), "never: {what}");
            std::thread::yield_now();
        }
    }

    /// The regression gate for a thread per connection coming back: many
    /// more concurrent clients than workers, and the handler only ever
    /// runs on the `WORKERS` threads `serve` started.
    #[test]
    fn every_reply_is_its_own_and_the_handler_threads_are_the_workers() {
        let threads = Arc::new(Mutex::new(HashSet::new()));
        let seen = Arc::clone(&threads);
        let stats = Arc::new(HttpStats::default());
        let handle = serve(
            "127.0.0.1:0",
            Arc::clone(&stats),
            Arc::new(move |req: Request| {
                seen.lock().unwrap().insert(std::thread::current().id());
                Response::text(200, format!("echo:{}", req.body))
            }),
        )
        .unwrap();
        std::thread::scope(|s| {
            for client in 0..4 * WORKERS {
                let handle = &handle;
                s.spawn(move || {
                    for i in 0..50 {
                        let body = format!("client {client} request {i}");
                        let raw = format!(
                            "POST /echo HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                            body.len()
                        );
                        let reply = roundtrip(handle, &raw);
                        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
                        assert!(reply.ends_with(&format!("\r\n\r\necho:{body}")), "{reply}");
                    }
                });
            }
        });
        let threads = threads.lock().unwrap();
        assert!(
            threads.len() <= WORKERS,
            "{} handler threads",
            threads.len()
        );
        assert_eq!(stat(&stats, "connections_total"), 4 * WORKERS as u64 * 50);
        assert!(stat(&stats, "busy_workers_peak") <= WORKERS as u64);
        assert_eq!(stat(&stats, "busy_workers"), 0);
        drop(threads);
        handle.shutdown();
    }

    /// Saturation: with every worker held by a stalled peer, a good
    /// request waits in the backlog and is served once a worker frees.
    #[test]
    fn a_saturated_pool_serves_the_backlog_once_the_stalled_peers_time_out() {
        let (handle, calls, stats) = counting_server();
        // The accept queue is first in, first out: a request sent after
        // all the stalled peers have connected is accepted after them.
        let connected = Barrier::new(WORKERS + 1);
        let (stalled, good, waited) = std::thread::scope(|s| {
            let stalled: Vec<_> = (0..WORKERS)
                .map(|_| {
                    s.spawn(|| {
                        let mut peer = TcpStream::connect(handle.addr()).unwrap();
                        peer.write_all(b"GET /v1/da").unwrap();
                        connected.wait();
                        let mut out = String::new();
                        let _ = peer.read_to_string(&mut out);
                        out
                    })
                })
                .collect();
            connected.wait();
            let sent = Instant::now();
            let good = roundtrip(&handle, "GET / HTTP/1.1\r\n\r\n");
            let waited = sent.elapsed();
            let stalled: Vec<String> = stalled.into_iter().map(|t| t.join().unwrap()).collect();
            (stalled, good, waited)
        });
        assert!(good.starts_with("HTTP/1.1 200"), "{good}");
        // No worker was free before the first stalled read timed out.
        assert!(waited > IO_TIMEOUT / 2, "answered after {waited:?}");
        for reply in &stalled {
            assert!(reply.starts_with("HTTP/1.1 408"), "{reply}");
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(stat(&stats, "timeouts_total"), WORKERS as u64);
        assert_eq!(stat(&stats, "busy_workers_peak"), WORKERS as u64);
        handle.shutdown();
    }

    /// A peer inside every per-read deadline still has to finish inside
    /// the request's.
    #[test]
    fn a_trickling_peer_gets_408_at_the_request_deadline() {
        let (handle, calls, _) = counting_server();
        let mut peer = TcpStream::connect(handle.addr()).unwrap();
        let started = Instant::now();
        peer.write_all(b"GET / HTTP/1.1\r\nx-slow: ").unwrap();
        let done = AtomicBool::new(false);
        let reply = std::thread::scope(|s| {
            let mut trickle = peer.try_clone().unwrap();
            let done = &done;
            s.spawn(move || {
                while !done.load(Ordering::SeqCst) && trickle.write_all(b"a").is_ok() {
                    std::thread::sleep(Duration::from_secs(1));
                }
            });
            peer.set_read_timeout(Some(REQUEST_DEADLINE + 3 * IO_TIMEOUT))
                .unwrap();
            let mut out = Vec::new();
            let _ = peer.read_to_end(&mut out);
            done.store(true, Ordering::SeqCst);
            String::from_utf8(out).unwrap()
        });
        let took = started.elapsed();
        assert!(reply.starts_with("HTTP/1.1 408"), "{reply}");
        assert!(took >= REQUEST_DEADLINE, "cut off after {took:?}");
        assert!(took < REQUEST_DEADLINE + 2 * IO_TIMEOUT, "took {took:?}");
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        handle.shutdown();
    }

    #[test]
    fn a_panicking_handler_costs_a_500_not_a_worker() {
        let stats = Arc::new(HttpStats::default());
        let handle = serve(
            "127.0.0.1:0",
            Arc::clone(&stats),
            Arc::new(|req: Request| {
                assert_ne!(req.path, "/boom", "boom");
                Response::text(200, "ok".into())
            }),
        )
        .unwrap();
        // One more than there are workers: were a panic to end its
        // worker, the last of these would find nobody to answer it.
        for _ in 0..=WORKERS {
            let reply = roundtrip(&handle, "GET /boom HTTP/1.1\r\n\r\n");
            assert!(
                reply.starts_with("HTTP/1.1 500 Internal Server Error"),
                "{reply}"
            );
        }
        let reply = roundtrip(&handle, "GET / HTTP/1.1\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert_eq!(stat(&stats, "handler_panics_total"), WORKERS as u64 + 1);
        handle.shutdown();
    }

    #[test]
    fn shutdown_does_not_wait_for_a_stalled_peer() {
        let (handle, calls, stats) = counting_server();
        let addr = handle.addr();
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(b"GET /v1/da").unwrap();
        wait_until("the stalled peer is being served", || {
            stat(&stats, "busy_workers") == 1
        });
        let started = Instant::now();
        handle.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        // Refused, or taken into the backlog of a listener nobody
        // accepts from any more: either way, unanswered.
        if let Ok(mut late) = TcpStream::connect(addr) {
            late.set_read_timeout(Some(Duration::from_millis(300)))
                .unwrap();
            let _ = late.write_all(b"GET / HTTP/1.1\r\n\r\n");
            let mut out = Vec::new();
            let _ = late.read_to_end(&mut out);
            assert!(out.is_empty(), "{}", String::from_utf8_lossy(&out));
        }
        assert_eq!(calls.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_head_cut_short_or_chunked_is_a_400_the_handler_never_sees() {
        let (handle, calls, stats) = counting_server();
        for cut in [
            "",
            "POST /v1/finish",
            "POST /v1/finish HTTP/1.1\r\n",
            "POST /v1/finish HTTP/1.1\r\nhost: x",
            "POST /v1/finish HTTP/1.1\r\nhost: x\r\n",
        ] {
            let reply = roundtrip(&handle, cut);
            assert!(
                reply.starts_with("HTTP/1.1 400 Bad Request"),
                "{cut:?}: {reply}"
            );
            assert!(reply.ends_with("truncated head\n"), "{cut:?}: {reply}");
        }
        let reply = roundtrip(
            &handle,
            "POST /v1/events HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        );
        assert!(reply.starts_with("HTTP/1.1 400 Bad Request"), "{reply}");
        assert!(reply.contains("transfer-encoding"), "{reply}");
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert_eq!(stat(&stats, "rejected_total"), 6);
        // The same head with its blank line is served.
        let reply = roundtrip(&handle, "POST /v1/finish HTTP/1.1\r\nhost: x\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        handle.shutdown();
    }

    /// One request head from a small grammar — a request line, headers,
    /// the blank line and a body, each well-formed or not: oversized
    /// lines, a missing, invalid, duplicated or oversized
    /// `Content-Length`, `Transfer-Encoding`, a header without a colon —
    /// cut short anywhere, or not at all.
    fn request_heads() -> impl Strategy<Value = String> {
        let lit = |s: &str| Just(s.to_string());
        let line = prop_oneof![
            3 => lit("GET / HTTP/1.1"),
            3 => lit("POST /v1/events?x=1 HTTP/1.1"),
            1 => lit("GET"),
            1 => lit(""),
            1 => lit("GET / HTTP/1.1 extra"),
            2 => (MAX_HEAD - 16..MAX_HEAD + 16).prop_map(|n| format!("GET /{}", "a".repeat(n))),
        ];
        let header = prop_oneof![
            6 => lit("Host: x"),
            3 => (0usize..48).prop_map(|n| format!("Content-Length: {n}")),
            1 => lit("content-length: 99999999999999999999999"),
            1 => lit(&format!("Content-Length: {}", MAX_BODY + 1)),
            1 => lit("Content-Length: -1"),
            1 => lit("Content-Length: nope"),
            1 => lit("Content-Length:"),
            1 => lit("Transfer-Encoding: chunked"),
            1 => lit("no colon here"),
            2 => (MAX_HEAD / 2..MAX_HEAD).prop_map(|n| format!("X-Big: {}", "b".repeat(n))),
        ];
        let eol = prop_oneof![3 => lit("\r\n"), 1 => lit("\n")];
        let headers = prop::collection::vec((header, eol), 0..5);
        let body = (0usize..40).prop_map(|n| "{\"x\":1}".repeat(n / 7 + 1)[..n].to_string());
        let blank = prop_oneof![3 => Just(true), 1 => Just(false)];
        let cut = prop_oneof![3 => Just(None), 1 => any::<usize>().prop_map(Some)];
        (line, headers, blank, body, cut).prop_map(|(line, headers, blank, body, cut)| {
            let mut raw = format!("{line}\r\n");
            for (header, eol) in headers {
                raw.push_str(&header);
                raw.push_str(&eol);
            }
            if blank {
                raw.push_str("\r\n");
            }
            raw.push_str(&body);
            if let Some(cut) = cut {
                raw.truncate(cut % (raw.len() + 1));
            }
            raw
        })
    }

    /// Whatever head a peer sends and however it stops, the server
    /// answers it with a parseable 200, 400 or 413, never panics in the
    /// handler, and answers a well-formed request next.  The peer
    /// half-closes after its bytes, so a cut-off head reads as one (a
    /// 400), not as a stall (a 408 after the socket deadline).
    #[test]
    fn any_request_head_is_answered_and_the_server_serves_on() {
        let (handle, _, stats) = counting_server();
        let heads = request_heads();
        let mut answered = std::collections::BTreeMap::new();
        proptest::test_runner::run_cases(
            ProptestConfig::with_cases(512),
            "any_request_head_is_answered_and_the_server_serves_on",
            |rng| {
                let raw = heads.generate(rng);
                let reply = roundtrip(&handle, &raw);
                let status = reply.split_whitespace().nth(1).and_then(|s| s.parse().ok());
                prop_assert!(
                    matches!(status, Some(200 | 400 | 413)),
                    "{:.200?} -> {:.200?}",
                    raw,
                    reply
                );
                *answered.entry(status).or_insert(0) += 1;
                prop_assert_eq!(stat(&stats, "handler_panics_total"), 0);
                let next = roundtrip(&handle, "GET / HTTP/1.1\r\n\r\n");
                prop_assert!(
                    next.starts_with("HTTP/1.1 200"),
                    "after {:.200?}: {}",
                    raw,
                    next
                );
                Ok(())
            },
        );
        // Every answer is exercised.
        assert!(
            answered.len() == 3 && answered.values().all(|&n| n > 25),
            "{answered:?}"
        );
        handle.shutdown();
    }
}
