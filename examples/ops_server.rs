//! The operations tier end-to-end: boot a collector + store + query
//! stack from one config file, run real edge traffic through it, and
//! operate it entirely over the HTTP surface — metrics scrape, admin
//! JSON, quarantine/release.
//!
//! ```text
//! cargo run --release --example ops_server
//! ```
//!
//! Everything runs deterministically over in-memory transports (the
//! same `Acceptor`/`Link` seam the TCP forms use), so the example needs
//! no sockets: the "HTTP client" below is a `MemoryLink` speaking real
//! HTTP/1.1 to the `OpsServer`. Config comes from an embedded file plus
//! whatever `PLA_*` variables are in the process environment — try
//! `PLA_COLLECTOR_WINDOW=64 cargo run --example ops_server` (or a typo
//! like `PLA_COLLECTOR_WINDW=64` to see a config error fail the boot).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pla::core::filters::{FilterKind, FilterSpec};
use pla::ingest::{IngestEngine, SegmentStore, ShardStats, StreamId};
use pla::net::listen::MemoryAcceptor;
use pla::net::uplink::{EngineUplink, UplinkStatus};
use pla::net::{Collector, MemoryLink, MemoryRedial, SessionSender};
use pla::ops::collect::{ingest_shard_families, query_families, session_families};
use pla::ops::{AppConfig, CollectorAdmin, MetricFamily, OpsServer};
use pla::query::{LookupStats, StoreQueryEngine};
use pla::signal::{random_walk, WalkParams};
use pla::transport::wire::FixedCodec;

const CONNS: u64 = 2;
const STREAMS_PER_CONN: u64 = 4;
const SAMPLES: usize = 800;
const TICK: Duration = Duration::from_millis(5);

/// The one file the whole stack boots from.
const CONFIG: &str = r#"
# Operations endpoint.
[ops]
enabled = true
listen = "127.0.0.1:9100"   # used by the TCP form; the example stays in-memory
max_request = 16384

# Wire + session settings for the collector.
[collector]
dims = 1
window = 512
heartbeat_ms = 50
liveness_ms = 2000
handshake_ms = 500

# Segment store sharding.
[store]
shards = 4

# Edge-side ingest engines.
[ingest]
shards = 2
queue_depth = 128
"#;

type Admin = CollectorAdmin<FixedCodec, MemoryAcceptor>;
type Server = OpsServer<MemoryAcceptor, Admin>;

/// One scripted HTTP request over the in-memory link, pumping the
/// server until the `Content-Length` body is complete.
fn fetch(server: &mut Server, client: &mut MemoryLink, method: &str, path: &str) -> (u16, String) {
    use pla::net::Link;
    let req = format!("{method} {path} HTTP/1.1\r\nHost: ops\r\n\r\n");
    client.try_write(req.as_bytes()).expect("request fits the pipe");
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        server.pump();
        match client.try_read(&mut chunk) {
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
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
                head.split(' ').nth(1).expect("status").parse().expect("numeric status");
            let body = String::from_utf8(raw[head_end..head_end + len].to_vec()).expect("utf8");
            return (status, body);
        }
    }
}

fn main() {
    // --- boot from config ----------------------------------------------
    let cfg = match AppConfig::load_str(CONFIG, std::env::vars()) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("config error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "booting from config: window={} store_shards={}",
        cfg.collector.window, cfg.store.shards
    );

    let store = Arc::new(SegmentStore::with_config(cfg.store));
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let collector = Rc::new(RefCell::new(Collector::with_sessions(
        FixedCodec,
        cfg.collector.dims,
        cfg.collector.net_config(),
        cfg.collector.session_config(),
        acceptor,
        store.clone(),
    )));

    assert!(cfg.ops.enabled, "this example is the ops endpoint");
    let ops_acceptor = MemoryAcceptor::new();
    let ops_connector = ops_acceptor.connector();
    let mut server = OpsServer::new(ops_acceptor, Admin::new(collector.clone()))
        .with_max_request(cfg.ops.max_request);
    let mut client = ops_connector.connect(1 << 20);

    // --- edge fleet: ingest engines feeding session senders -------------
    let epoch = Instant::now();
    let mut edges = Vec::new();
    let mut shard_totals = vec![ShardStats::default(); cfg.ingest.shards];
    for conn in 0..CONNS {
        let (engine, tap) = IngestEngine::with_segment_tap(cfg.ingest);
        let handle = engine.handle();
        for s in 0..STREAMS_PER_CONN {
            let id = conn * STREAMS_PER_CONN + s;
            let kind = if id.is_multiple_of(2) { FilterKind::Swing } else { FilterKind::Slide };
            handle.register(StreamId(id), FilterSpec::new(kind, &[0.5])).expect("register");
            let signal = random_walk(WalkParams {
                n: SAMPLES,
                p_decrease: 0.5,
                max_delta: 1.5,
                seed: 0x0B5 ^ id,
            });
            let samples: Vec<(f64, &[f64])> = signal.iter().collect();
            handle.push_batch(StreamId(id), &samples).expect("feed");
        }
        let report = engine.finish();
        for (total, s) in shard_totals.iter_mut().zip(&report.shards) {
            total.ops += s.ops;
            total.samples += s.samples;
            total.segments += s.segments;
            total.streams += s.streams;
        }
        let sess = SessionSender::new(
            FixedCodec,
            cfg.collector.dims,
            cfg.collector.net_config(),
            cfg.collector.session_config(),
            MemoryRedial::new(connector.clone(), 64 * 1024),
            epoch,
        );
        edges.push((sess, EngineUplink::new(tap), false));
    }

    // --- quarantine one stream over the admin API before traffic -------
    let victim = 5u64;
    let (status, body) =
        fetch(&mut server, &mut client, "POST", &format!("/admin/quarantine/{victim}"));
    println!("POST /admin/quarantine/{victim} -> {status} {body}");

    // --- run the fan-in, serving HTTP alongside -------------------------
    let mut now = epoch;
    let mut rounds = 0u32;
    loop {
        now += TICK;
        collector.borrow_mut().pump_at(now).expect("fault-free run");
        for (sess, uplink, finned) in &mut edges {
            if uplink.pump(sess.mux_mut()).expect("uplink") == UplinkStatus::Drained && !*finned {
                sess.mux_mut().finish_all();
                *finned = true;
            }
            sess.pump_at(now);
        }
        server.pump();
        if edges.iter().all(|(sess, _, finned)| *finned && sess.mux().is_idle()) {
            break;
        }
        rounds += 1;
        assert!(rounds < 100_000, "fan-in did not converge");
    }

    // --- register the remaining scrape sources --------------------------
    let sessions: Vec<_> = edges.iter().map(|(sess, _, _)| sess.stats()).collect();
    server.handler_mut().add_source(move |out: &mut Vec<MetricFamily>| {
        ingest_shard_families(&shard_totals, 0, out);
        for (i, s) in sessions.iter().enumerate() {
            session_families(&i.to_string(), s, out);
        }
    });
    let engine = StoreQueryEngine::new(store.snapshot());
    let mut lookups = 0u64;
    let mut stats = LookupStats::default();
    for id in engine.streams() {
        if let Some((lo, hi)) = engine.stream(id).and_then(|v| v.span()) {
            let (_, st) = engine.point_with_stats(id, (lo + hi) / 2.0, 0).expect("covered");
            lookups += 1;
            stats.comparisons += st.comparisons;
        }
    }
    server.handler_mut().add_source(move |out: &mut Vec<MetricFamily>| {
        query_families(lookups, &stats, out);
    });

    // --- operate it over HTTP -------------------------------------------
    let (status, body) = fetch(&mut server, &mut client, "GET", "/healthz");
    println!("GET /healthz -> {status} {}", body.trim());

    let (status, streams) = fetch(&mut server, &mut client, "GET", "/admin/streams");
    println!("GET /admin/streams -> {status}");
    println!("  {streams}");

    let (status, exposition) = fetch(&mut server, &mut client, "GET", "/metrics");
    let series = exposition.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).count();
    println!("GET /metrics -> {status} ({series} series, {} bytes)", exposition.len());
    for line in exposition.lines().filter(|l| {
        l.starts_with("pla_collector_segments_total")
            || l.starts_with("pla_collector_shed_segments_total")
            || l.starts_with("pla_store_segments_total")
            || l.starts_with("pla_ingest_samples_total")
            || l.starts_with("pla_query_lookups_total")
    }) {
        println!("  {line}");
    }

    let (status, body) =
        fetch(&mut server, &mut client, "POST", &format!("/admin/release/{victim}"));
    println!("POST /admin/release/{victim} -> {status} {body}");

    let snap = store.snapshot();
    println!(
        "store: {} streams, {} segments (stream {victim} quarantined away)",
        snap.streams.len(),
        snap.total_segments
    );
    assert_eq!(snap.streams.len(), (CONNS * STREAMS_PER_CONN) as usize - 1);
}
