//! Admin API semantics: the test plays HTTP client over a `MemoryLink`
//! and pumps the `OpsServer` directly between its reads and writes,
//! exercising every endpoint's success and failure paths.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use pla_ingest::SegmentStore;
use pla_net::listen::MemoryAcceptor;
use pla_net::{Collector, Link, MemoryLink, NetConfig, SessionConfig};
use pla_ops::http::Handler;
use pla_ops::{CollectorAdmin, OpsServer};
use pla_transport::wire::FixedCodec;

/// One request/response cycle against the served link, pumping the
/// server whenever the client would block.
fn fetch<H: Handler>(
    server: &mut OpsServer<MemoryAcceptor, H>,
    client: &mut MemoryLink,
    method: &str,
    path: &str,
) -> (u16, String) {
    let req = format!("{method} {path} HTTP/1.1\r\nHost: ops\r\n\r\n");
    let mut off = 0;
    while off < req.len() {
        match client.try_write(&req.as_bytes()[off..]) {
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                server.pump();
            }
            Err(e) => panic!("request write failed: {e}"),
        }
    }
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    for _ in 0..10_000 {
        match client.try_read(&mut chunk) {
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                server.pump();
            }
            Err(e) => panic!("response read failed: {e}"),
        }
        let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4) else {
            continue;
        };
        let head = std::str::from_utf8(&raw[..head_end]).expect("utf8 head");
        let len: usize = head
            .lines()
            .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(String::from))
            .expect("content-length header")
            .trim()
            .parse()
            .expect("numeric content-length");
        if raw.len() >= head_end + len {
            let status: u16 =
                head.split(' ').nth(1).expect("status code").parse().expect("numeric status");
            let body =
                String::from_utf8(raw[head_end..head_end + len].to_vec()).expect("utf8 body");
            return (status, body);
        }
    }
    panic!("no complete response to {method} {path}");
}

#[test]
fn admin_endpoints_answer_success_and_failure_paths() {
    let store = Arc::new(SegmentStore::new());
    let collector = Rc::new(RefCell::new(Collector::with_sessions(
        FixedCodec,
        1,
        NetConfig::default(),
        SessionConfig::default(),
        MemoryAcceptor::new(),
        store,
    )));
    let ops_acceptor = MemoryAcceptor::new();
    let connector = ops_acceptor.connector();
    let mut server = OpsServer::new(ops_acceptor, CollectorAdmin::new(collector));
    let mut client = connector.connect(64 * 1024);
    let mut fetch = |method, path| fetch(&mut server, &mut client, method, path);

    let (status, body) = fetch("GET", "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = fetch("GET", "/admin/connections");
    assert_eq!(status, 200);
    assert!(body.contains("\"connections\""), "connections JSON: {body}");

    // Quarantine/release round-trip, observable in the JSON.
    let (status, body) = fetch("POST", "/admin/quarantine/5");
    assert_eq!((status, body.as_str()), (200, "{\"quarantined\":5}"));
    let (_, body) = fetch("GET", "/admin/streams");
    assert!(body.contains("\"quarantined\":[5]"), "streams JSON: {body}");
    let (status, body) = fetch("POST", "/admin/release/5");
    assert_eq!((status, body.as_str()), (200, "{\"released\":5}"));
    let (_, body) = fetch("GET", "/admin/streams");
    assert!(body.contains("\"quarantined\":[]"), "streams JSON: {body}");

    // Failure paths: double release is a conflict, unknown conn drain
    // is a conflict, bad ids are client errors, wrong methods and
    // unknown paths are typed.
    let (status, _) = fetch("POST", "/admin/release/5");
    assert_eq!(status, 409, "releasing an unquarantined stream");
    let (status, _) = fetch("POST", "/admin/drain/99");
    assert_eq!(status, 409, "draining an unknown connection");
    let (status, _) = fetch("POST", "/admin/quarantine/abc");
    assert_eq!(status, 400);
    let (status, _) = fetch("GET", "/admin/drain/1");
    assert_eq!(status, 405);
    let (status, _) = fetch("GET", "/nope");
    assert_eq!(status, 404);

    // The server's self-metrics counted all of the above — including
    // the scrape itself (increment precedes render).
    let (status, body) = fetch("GET", "/metrics");
    assert_eq!(status, 200);
    let requests = body
        .lines()
        .find_map(|l| l.strip_prefix("pla_ops_requests_total "))
        .expect("self counter present")
        .parse::<f64>()
        .expect("numeric");
    assert_eq!(requests, 12.0, "one increment per request served:\n{body}");
    assert!(server.requests_served() >= 12);
}
