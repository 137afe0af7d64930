//! A minimal std-only HTTP/1.1 server behind the `pla-net`
//! [`Acceptor`]/[`Link`] seam.
//!
//! Just enough HTTP for an operations endpoint: request-line + headers,
//! `Content-Length` bodies, keep-alive responses. Because `MemoryLink`
//! never signals EOF (and `TcpLink` is non-blocking), the server is a
//! sans-I/O pump: whoever owns an [`OpsServer`] calls
//! [`pump`](OpsServer::pump) in a plain loop next to the collector's,
//! sleeping about 1 ms after a round that moved nothing.

use std::io;

use pla_net::listen::Acceptor;
use pla_net::Link;

/// Hard cap on a buffered request (start-line + headers + body).
const DEFAULT_MAX_REQUEST: usize = 64 * 1024;
/// Per-pump read chunk.
const READ_CHUNK: usize = 4096;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path, e.g. `/admin/drain/3` (query strings are
    /// passed through verbatim; the admin API uses none).
    pub path: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// An HTTP response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self { status, content_type: "text/plain; charset=utf-8", body: body.into().into_bytes() }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Self { status, content_type: "application/json", body: body.into().into_bytes() }
    }

    /// The Prometheus exposition content type.
    pub fn exposition(body: impl Into<String>) -> Self {
        Self {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// `404 Not Found`.
    pub fn not_found() -> Self {
        Self::text(404, "not found\n")
    }

    /// `405 Method Not Allowed`.
    pub fn method_not_allowed() -> Self {
        Self::text(405, "method not allowed\n")
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            _ => "",
        }
    }

    fn encode(&self) -> Vec<u8> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }
}

/// A request handler. Implemented for `FnMut(&Request) -> Response`
/// closures; [`CollectorAdmin`](crate::admin::CollectorAdmin) is the
/// full admin surface.
pub trait Handler {
    /// Produces the response for one request.
    fn handle(&mut self, req: &Request) -> Response;
}

impl<F: FnMut(&Request) -> Response> Handler for F {
    fn handle(&mut self, req: &Request) -> Response {
        self(req)
    }
}

/// One accepted HTTP connection: buffered inbound bytes and the
/// unflushed tail of outbound responses.
struct HttpConn<L: Link> {
    link: L,
    inbuf: Vec<u8>,
    out: Vec<u8>,
    /// Peer signaled close (EOF) or the request stream went bad; the
    /// connection is dropped once `out` drains.
    closing: bool,
    /// The link itself failed; drop immediately.
    dead: bool,
}

/// The operations HTTP server: accepts links, parses pipelined
/// keep-alive requests, and hands each to the [`Handler`].
pub struct OpsServer<A: Acceptor, H: Handler> {
    acceptor: A,
    handler: H,
    conns: Vec<HttpConn<A::Link>>,
    max_request: usize,
    requests: u64,
}

impl<A: Acceptor, H: Handler> OpsServer<A, H> {
    /// New server over `acceptor`, routing every request through
    /// `handler`.
    pub fn new(acceptor: A, handler: H) -> Self {
        Self { acceptor, handler, conns: Vec::new(), max_request: DEFAULT_MAX_REQUEST, requests: 0 }
    }

    /// Overrides the per-request buffer cap (default 64 KiB). Requests
    /// exceeding it get `413` and the connection closes.
    pub fn with_max_request(mut self, max: usize) -> Self {
        self.max_request = max;
        self
    }

    /// Open HTTP connections.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Requests served over the server's lifetime.
    pub fn requests_served(&self) -> u64 {
        self.requests
    }

    /// The handler, for post-run inspection in tests.
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// The handler, mutably — e.g. to register extra scrape sources on
    /// a running [`CollectorAdmin`](crate::admin::CollectorAdmin).
    pub fn handler_mut(&mut self) -> &mut H {
        &mut self.handler
    }

    /// One non-blocking round: accept pending links, read what's
    /// available, serve every complete request, flush what fits.
    /// Returns bytes moved (read + written).
    pub fn pump(&mut self) -> usize {
        while let Ok(Some(link)) = self.acceptor.try_accept() {
            self.conns.push(HttpConn {
                link,
                inbuf: Vec::new(),
                out: Vec::new(),
                closing: false,
                dead: false,
            });
        }
        let mut moved = 0;
        let max_request = self.max_request;
        for conn in &mut self.conns {
            moved += Self::pump_conn(conn, &mut self.handler, &mut self.requests, max_request);
        }
        self.conns.retain(|c| !(c.dead || (c.closing && c.out.is_empty())));
        moved
    }

    fn pump_conn(
        conn: &mut HttpConn<A::Link>,
        handler: &mut H,
        requests: &mut u64,
        max_request: usize,
    ) -> usize {
        let mut moved = 0;
        let mut chunk = [0u8; READ_CHUNK];
        while !conn.closing {
            match conn.link.try_read(&mut chunk) {
                Ok(0) => {
                    conn.closing = true;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    moved += n;
                    if conn.inbuf.len() > max_request && find_head_end(&conn.inbuf).is_none() {
                        conn.out.extend_from_slice(&Response::text(413, "too large\n").encode());
                        conn.closing = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return moved;
                }
            }
        }
        loop {
            match take_request(&mut conn.inbuf, max_request) {
                Ok(Some(req)) => {
                    *requests += 1;
                    conn.out.extend_from_slice(&handler.handle(&req).encode());
                }
                Ok(None) => break,
                Err(resp) => {
                    conn.out.extend_from_slice(&resp.encode());
                    conn.closing = true;
                    break;
                }
            }
        }
        while !conn.out.is_empty() {
            match conn.link.try_write(&conn.out) {
                Ok(0) => break,
                Ok(n) => {
                    conn.out.drain(..n);
                    moved += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        moved
    }
}

/// Byte offset just past the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Pops one complete request off the front of `buf`. `Ok(None)` = need
/// more bytes; `Err` = malformed or oversized, respond and close.
fn take_request(buf: &mut Vec<u8>, max_request: usize) -> Result<Option<Request>, Response> {
    let Some(head_end) = find_head_end(buf) else { return Ok(None) };
    if head_end > max_request {
        return Err(Response::text(413, "too large\n"));
    }
    let head =
        std::str::from_utf8(&buf[..head_end - 4]).map_err(|_| Response::text(400, "bad head\n"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, path, version) =
        (parts.next().unwrap_or(""), parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method.is_empty() || !path.starts_with('/') || !version.starts_with("HTTP/1.") {
        return Err(Response::text(400, "bad request line\n"));
    }
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(Response::text(400, "bad header\n"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| Response::text(400, "bad content-length\n"))?;
        }
    }
    if content_length > max_request {
        return Err(Response::text(413, "too large\n"));
    }
    if buf.len() < head_end + content_length {
        return Ok(None);
    }
    let method = method.to_string();
    let path = path.to_string();
    let body = buf[head_end..head_end + content_length].to_vec();
    buf.drain(..head_end + content_length);
    Ok(Some(Request { method, path, body }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pla_net::listen::{MemoryAcceptor, MemoryConnector};
    use pla_net::MemoryLink;

    fn serve_echo() -> (OpsServer<MemoryAcceptor, impl Handler>, MemoryConnector) {
        let acceptor = MemoryAcceptor::new();
        let connector = acceptor.connector();
        let server = OpsServer::new(acceptor, |req: &Request| {
            Response::text(200, format!("{} {} {}", req.method, req.path, req.body.len()))
        });
        (server, connector)
    }

    fn read_all(link: &mut MemoryLink) -> Vec<u8> {
        let mut out = Vec::new();
        let mut chunk = [0u8; 512];
        while let Ok(n) = link.try_read(&mut chunk) {
            if n == 0 {
                break;
            }
            out.extend_from_slice(&chunk[..n]);
        }
        out
    }

    #[test]
    fn serves_keep_alive_requests() {
        let (mut server, connector) = serve_echo();
        let mut client = connector.connect(4096);
        client.try_write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        server.pump();
        let first = String::from_utf8(read_all(&mut client)).unwrap();
        assert!(first.starts_with("HTTP/1.1 200 OK\r\n"), "{first}");
        assert!(first.ends_with("GET /healthz 0"), "{first}");

        // Same connection, second request, with a body.
        client.try_write(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc").unwrap();
        server.pump();
        let second = String::from_utf8(read_all(&mut client)).unwrap();
        assert!(second.ends_with("POST /x 3"), "{second}");
        assert_eq!(server.requests_served(), 2);
        assert_eq!(server.connections(), 1);
    }

    #[test]
    fn partial_arrival_waits_for_the_rest() {
        let (mut server, connector) = serve_echo();
        let mut client = connector.connect(4096);
        client.try_write(b"GET /slow HT").unwrap();
        server.pump();
        assert!(read_all(&mut client).is_empty(), "incomplete request must not be answered");
        client.try_write(b"TP/1.1\r\n\r\n").unwrap();
        server.pump();
        let resp = String::from_utf8(read_all(&mut client)).unwrap();
        assert!(resp.ends_with("GET /slow 0"), "{resp}");
    }

    #[test]
    fn malformed_request_line_gets_400_and_close() {
        let (mut server, connector) = serve_echo();
        let mut client = connector.connect(4096);
        client.try_write(b"nonsense\r\n\r\n").unwrap();
        server.pump();
        let resp = String::from_utf8(read_all(&mut client)).unwrap();
        assert!(resp.starts_with("HTTP/1.1 400 "), "{resp}");
        server.pump();
        assert_eq!(server.connections(), 0, "malformed connection must be dropped");
    }

    #[test]
    fn oversized_request_gets_413() {
        let acceptor = MemoryAcceptor::new();
        let connector = acceptor.connector();
        let mut server =
            OpsServer::new(acceptor, |_: &Request| Response::text(200, "ok")).with_max_request(64);
        let mut client = connector.connect(8192);
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(300));
        client.try_write(huge.as_bytes()).unwrap();
        server.pump();
        let resp = String::from_utf8(read_all(&mut client)).unwrap();
        assert!(resp.starts_with("HTTP/1.1 413 "), "{resp}");
    }

    /// A link whose first read and first write each fail with
    /// `Interrupted` before it behaves like the link it wraps.
    struct Interrupting {
        inner: MemoryLink,
        read_interrupted: bool,
        write_interrupted: bool,
    }

    impl Link for Interrupting {
        fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if !std::mem::replace(&mut self.write_interrupted, true) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.inner.try_write(buf)
        }

        fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !std::mem::replace(&mut self.read_interrupted, true) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.inner.try_read(buf)
        }
    }

    struct InterruptingAcceptor(MemoryAcceptor);

    impl Acceptor for InterruptingAcceptor {
        type Link = Interrupting;

        fn try_accept(&mut self) -> io::Result<Option<Interrupting>> {
            Ok(self.0.try_accept()?.map(|inner| Interrupting {
                inner,
                read_interrupted: false,
                write_interrupted: false,
            }))
        }
    }

    #[test]
    fn interrupted_reads_and_writes_are_retried() {
        let acceptor = MemoryAcceptor::new();
        let connector = acceptor.connector();
        let mut server = OpsServer::new(InterruptingAcceptor(acceptor), |req: &Request| {
            Response::text(200, format!("{} {}", req.method, req.path))
        });
        let mut client = connector.connect(4096);
        client.try_write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        server.pump();
        let resp = String::from_utf8(read_all(&mut client)).unwrap();
        assert!(resp.ends_with("GET /healthz"), "{resp}");
        assert_eq!(server.connections(), 1, "the interrupted connection stays open");
    }
}
