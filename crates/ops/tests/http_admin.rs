//! Admin API semantics over the async runtime: the ops server runs as a
//! [`drive_ops`] task while the root task plays HTTP client over a
//! `MemoryLink`, exercising every endpoint's success and failure paths.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use pla_ingest::SegmentStore;
use pla_net::listen::MemoryAcceptor;
use pla_net::runtime;
use pla_net::{Collector, Link, MemoryLink, NetConfig, SessionConfig};
use pla_ops::http::drive_ops;
use pla_ops::{CollectorAdmin, OpsServer};
use pla_transport::wire::FixedCodec;

/// One request/response cycle against the served link, cooperatively
/// yielding so the `drive_ops` task can pump.
async fn fetch(client: &mut MemoryLink, method: &str, path: &str) -> (u16, String) {
    let req = format!("{method} {path} HTTP/1.1\r\nHost: ops\r\n\r\n");
    let mut off = 0;
    while off < req.len() {
        match client.try_write(&req.as_bytes()[off..]) {
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                runtime::sleep(Duration::from_millis(1)).await;
            }
            Err(e) => panic!("request write failed: {e}"),
        }
    }
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match client.try_read(&mut chunk) {
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                runtime::sleep(Duration::from_millis(1)).await;
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
}

#[test]
fn admin_endpoints_behave_on_every_reactor() {
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
    let server =
        Rc::new(RefCell::new(OpsServer::new(ops_acceptor, CollectorAdmin::new(collector))));

    runtime::block_on({
        let server = server.clone();
        async move {
            runtime::spawner().spawn(drive_ops(server));
            let mut client = connector.connect(64 * 1024);

            let (status, body) = fetch(&mut client, "GET", "/healthz").await;
            assert_eq!((status, body.as_str()), (200, "ok\n"));

            let (status, body) = fetch(&mut client, "GET", "/admin/connections").await;
            assert_eq!(status, 200);
            assert!(body.contains("\"connections\""), "connections JSON: {body}");

            // Quarantine/release round-trip, observable in the JSON.
            let (status, body) = fetch(&mut client, "POST", "/admin/quarantine/5").await;
            assert_eq!((status, body.as_str()), (200, "{\"quarantined\":5}"));
            let (_, body) = fetch(&mut client, "GET", "/admin/streams").await;
            assert!(body.contains("\"quarantined\":[5]"), "streams JSON: {body}");
            let (status, body) = fetch(&mut client, "POST", "/admin/release/5").await;
            assert_eq!((status, body.as_str()), (200, "{\"released\":5}"));
            let (_, body) = fetch(&mut client, "GET", "/admin/streams").await;
            assert!(body.contains("\"quarantined\":[]"), "streams JSON: {body}");

            // Failure paths: double release is a conflict, unknown
            // conn drain is a conflict, bad ids are client errors,
            // wrong methods and unknown paths are typed.
            let (status, _) = fetch(&mut client, "POST", "/admin/release/5").await;
            assert_eq!(status, 409, "releasing an unquarantined stream");
            let (status, _) = fetch(&mut client, "POST", "/admin/drain/99").await;
            assert_eq!(status, 409, "draining an unknown connection");
            let (status, _) = fetch(&mut client, "POST", "/admin/quarantine/abc").await;
            assert_eq!(status, 400);
            let (status, _) = fetch(&mut client, "GET", "/admin/drain/1").await;
            assert_eq!(status, 405);
            let (status, _) = fetch(&mut client, "GET", "/nope").await;
            assert_eq!(status, 404);

            // The server's self-metrics counted all of the above —
            // including the scrape itself (increment precedes render).
            let (status, body) = fetch(&mut client, "GET", "/metrics").await;
            assert_eq!(status, 200);
            let requests = body
                .lines()
                .find_map(|l| l.strip_prefix("pla_ops_requests_total "))
                .expect("self counter present")
                .parse::<f64>()
                .expect("numeric");
            assert_eq!(requests, 12.0, "one increment per request served:\n{body}");
        }
    });
    assert!(server.borrow().requests_served() >= 12);
}
