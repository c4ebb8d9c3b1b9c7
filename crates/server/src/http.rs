//! A dependency-free HTTP/1.1 server on `std::net::TcpListener`.
//!
//! The workspace vendors no async runtime, so service mode runs the
//! classic shape: one accept loop, one short-lived thread per
//! connection, `Connection: close` on every response.  That is plenty
//! for a control plane whose request rate is operator actions and
//! login notifications, and it keeps the entire transport auditable in
//! one screen of code.
//!
//! Parsing is deliberately strict and bounded: request line + headers
//! up to 16 KiB, bodies up to 1 MiB via `Content-Length` only (no
//! chunked encoding), anything else is a 400/413.  Every accepted
//! socket carries a read and a write deadline, so a peer that connects
//! and stalls gets a 408 and its thread back instead of holding both
//! forever.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest accepted header block in bytes.
const MAX_HEAD: usize = 16 * 1024;
/// Largest accepted body in bytes.
const MAX_BODY: usize = 1024 * 1024;
/// Longest an accepted socket may sit in one read or one write.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

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

    fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())
    }
}

/// The reply to a failed read: 408 when the socket's read deadline
/// passed (reported as `WouldBlock` or `TimedOut`, by platform), else
/// 400 with `otherwise`.
fn read_failed(e: &std::io::Error, otherwise: &str) -> Response {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => {
            Response::text(408, "timed out waiting for the request\n".into())
        }
        _ => Response::text(400, otherwise.into()),
    }
}

/// Read and parse one request off the stream.
fn read_request(stream: &mut TcpStream) -> Result<Request, Response> {
    let mut reader = BufReader::new(stream);
    // The head is read through a cap of one byte more than allowed, so a
    // peer that never sends a newline cannot make a line grow without
    // limit: a spent cap means the head was too large.
    let mut head = reader.by_ref().take(MAX_HEAD as u64 + 1);
    let too_large = || Response::text(413, "header block too large\n".into());
    // Request line, then headers until the blank line.
    let mut request_line = String::new();
    head.read_line(&mut request_line)
        .map_err(|e| read_failed(&e, "unreadable request line\n"))?;
    if head.limit() == 0 {
        return Err(too_large());
    }
    let mut content_length = 0usize;
    let mut line = String::new();
    loop {
        line.clear();
        let n = head
            .read_line(&mut line)
            .map_err(|e| read_failed(&e, "unreadable header\n"))?;
        if head.limit() == 0 {
            return Err(too_large());
        }
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| Response::text(400, "bad content-length\n".into()))?;
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

/// A running server: its bound address plus the shutdown switch.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener bound (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop.  In-flight connection
    /// threads finish on their own.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Bind `addr` and serve `handler` until [`ServerHandle::shutdown`].
///
/// The handler runs on a per-connection thread; it must be internally
/// synchronised (it is invoked concurrently).
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve<H>(addr: &str, handler: Arc<H>) -> std::io::Result<ServerHandle>
where
    H: Fn(Request) -> Response + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let accept_thread = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if stop_flag.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = conn else { continue };
            // No deadline, no service: a socket that cannot take one is
            // dropped rather than allowed to block a thread forever.
            if stream.set_read_timeout(Some(IO_TIMEOUT)).is_err()
                || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err()
            {
                continue;
            }
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || {
                let response = match read_request(&mut stream) {
                    Ok(req) => handler(req),
                    Err(resp) => resp,
                };
                let _ = response.write_to(&mut stream);
                let _ = stream.flush();
            });
        }
    });
    Ok(ServerHandle {
        addr: bound,
        stop,
        accept_thread: Some(accept_thread),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(handle: &ServerHandle, raw: &str) -> String {
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_and_echoes_bodies() {
        let handle = serve(
            "127.0.0.1:0",
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
}
