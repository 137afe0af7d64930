//! The ops-tier acceptance test: a live session-mode collector fan-in —
//! 8 connections × 16 streams over `MemoryAcceptor`, each edge the full
//! production path (`IngestEngine` → `EngineUplink` → `SessionSender`)
//! — observed and administered entirely through the HTTP surface.
//!
//! `GET /metrics` on the live stack must serve valid Prometheus text
//! exposition covering ingest, collector, session, store, query, and
//! ops-self series; `POST /admin/quarantine/{stream}` must isolate
//! exactly that stream while every other stream's store content stays
//! byte-identical to dedicated fault-free point-to-point links.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pla_core::filters::{FilterKind, FilterSpec};
use pla_core::{Segment, Signal};
use pla_ingest::{IngestConfig, IngestEngine, SegmentStore, ShardStats, StreamId};
use pla_net::listen::{MemoryAcceptor, MemoryConnector};
use pla_net::session::SessionStats;
use pla_net::uplink::{EngineUplink, UplinkStatus};
use pla_net::{
    Collector, CollectorStats, ConnId, Link, MemoryLink, MemoryRedial, NetConfig, SessionConfig,
    SessionSender,
};
use pla_ops::collect::{ingest_shard_families, query_families, session_families};
use pla_ops::{parse_exposition, CollectorAdmin, OpsServer, ParsedSample};
use pla_query::{LookupStats, StoreQueryEngine};
use pla_signal::{random_walk, WalkParams};
use pla_transport::wire::FixedCodec;
use pla_transport::{Receiver, Transmitter};

const CONNS: u64 = 8;
const STREAMS_PER_CONN: u64 = 16;
const SAMPLES: usize = 300;
const LINK_CAPACITY: usize = 211;
const TICK: Duration = Duration::from_millis(5);

fn spec_for(id: u64) -> FilterSpec {
    let kind = match id % 3 {
        0 => FilterKind::Swing,
        1 => FilterKind::Slide,
        _ => FilterKind::Cache,
    };
    FilterSpec::new(kind, &[0.5])
}

fn signal_for(id: u64) -> Signal {
    random_walk(WalkParams {
        n: SAMPLES,
        p_decrease: 0.5,
        max_delta: 1.5,
        seed: 0x5E55 ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    })
}

/// The reference: every stream over its own dedicated fault-free
/// point-to-point link.
fn direct_reference() -> BTreeMap<u64, Vec<Segment>> {
    let mut out = BTreeMap::new();
    for id in 0..CONNS * STREAMS_PER_CONN {
        let filter = spec_for(id).build().expect("valid spec");
        let mut tx = Transmitter::new(filter, FixedCodec);
        let mut rx = Receiver::new(FixedCodec, 1);
        for (t, x) in signal_for(id).iter() {
            tx.push(t, x).expect("valid sample");
            rx.consume(tx.take_bytes()).expect("lossless link");
        }
        tx.finish().expect("flush");
        rx.consume(tx.take_bytes()).expect("lossless link");
        out.insert(id, rx.into_segments());
    }
    out
}

fn session_config() -> SessionConfig {
    SessionConfig {
        heartbeat_interval: Duration::from_millis(50),
        liveness_timeout: Duration::from_millis(2000),
        handshake_timeout: Duration::from_millis(500),
        session_ttl: Duration::from_secs(600),
        redial_initial: Duration::from_millis(5),
        redial_cap: Duration::from_millis(40),
        ..SessionConfig::default()
    }
}

struct Edge {
    sess: SessionSender<FixedCodec, MemoryRedial>,
    uplink: EngineUplink,
    finned: bool,
    shard_stats: Vec<ShardStats>,
    quarantined: usize,
    expected_segments: u64,
}

impl Edge {
    fn new(
        conn: u64,
        cfg: NetConfig,
        sess_cfg: SessionConfig,
        connector: MemoryConnector,
        epoch: Instant,
    ) -> Self {
        let (engine, tap) =
            IngestEngine::with_segment_tap(IngestConfig { shards: 2, queue_depth: 128 });
        let handle = engine.handle();
        let base = conn * STREAMS_PER_CONN;
        for s in 0..STREAMS_PER_CONN {
            let id = base + s;
            handle.register(StreamId(id), spec_for(id)).expect("register");
            let signal = signal_for(id);
            let samples: Vec<(f64, &[f64])> = signal.iter().collect();
            handle.push_batch(StreamId(id), &samples).expect("feed");
        }
        let report = engine.finish();
        assert_eq!(report.quarantined(), 0);
        Self {
            sess: SessionSender::new(
                FixedCodec,
                1,
                cfg,
                sess_cfg,
                MemoryRedial::new(connector, LINK_CAPACITY),
                epoch,
            ),
            uplink: EngineUplink::new(tap),
            finned: false,
            quarantined: report.quarantined(),
            expected_segments: report.total_segments() as u64,
            shard_stats: report.shards.clone(),
        }
    }

    fn round(&mut self, now: Instant) -> usize {
        let status = self.uplink.pump(self.sess.mux_mut()).expect("uplink");
        if status == UplinkStatus::Drained && !self.finned {
            self.sess.mux_mut().finish_all();
            self.finned = true;
        }
        if let Some(failure) = self.sess.failure() {
            panic!("session must not fail in a fault-free run: {failure}");
        }
        self.sess.pump_at(now)
    }

    fn done(&self) -> bool {
        self.finned && self.sess.mux().is_idle()
    }
}

type Admin = CollectorAdmin<FixedCodec, MemoryAcceptor>;
type Server = OpsServer<MemoryAcceptor, Admin>;

/// Issues one HTTP request against the ops server and reads the full
/// response (pumping the server until `Content-Length` is satisfied).
fn fetch(server: &mut Server, client: &mut MemoryLink, method: &str, path: &str) -> (u16, String) {
    let req = format!("{method} {path} HTTP/1.1\r\nHost: ops\r\n\r\n");
    let mut off = 0;
    while off < req.len() {
        server.pump();
        match client.try_write(&req.as_bytes()[off..]) {
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("request write failed: {e}"),
        }
    }
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    for _ in 0..10_000 {
        server.pump();
        match client.try_read(&mut chunk) {
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) => panic!("response read failed: {e}"),
        }
        if let Some(head_end) = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4) {
            let head = std::str::from_utf8(&raw[..head_end]).expect("utf8 head");
            let len: usize = head
                .lines()
                .find_map(|l| {
                    l.to_ascii_lowercase().strip_prefix("content-length:").map(String::from)
                })
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
    panic!("response never completed");
}

struct FanInResult {
    store: Arc<SegmentStore>,
    stats: CollectorStats,
    metrics: Vec<ParsedSample>,
    metrics_text: String,
    streams_json: String,
}

/// Runs the full fan-in with the ops server alongside, quarantining
/// `quarantine` through the HTTP API before any traffic flows, then
/// scrapes `/metrics` and `/admin/streams` from the finished stack.
fn run_fanin(quarantine: &[u64]) -> FanInResult {
    let cfg = NetConfig { window: 512, max_frame: 1 << 20 };
    let sess_cfg = session_config();
    let store = Arc::new(SegmentStore::new());
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let collector = Rc::new(RefCell::new(Collector::with_sessions(
        FixedCodec,
        1,
        cfg,
        sess_cfg,
        acceptor,
        store.clone(),
    )));

    let ops_acceptor = MemoryAcceptor::new();
    let ops_connector = ops_acceptor.connector();
    let mut server = OpsServer::new(ops_acceptor, Admin::new(collector.clone()));
    let mut ops_client = ops_connector.connect(1 << 20);

    for stream in quarantine {
        let (status, body) =
            fetch(&mut server, &mut ops_client, "POST", &format!("/admin/quarantine/{stream}"));
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, format!("{{\"quarantined\":{stream}}}"));
    }

    let epoch = Instant::now();
    let mut edges: Vec<Edge> =
        (0..CONNS).map(|c| Edge::new(c, cfg, sess_cfg, connector.clone(), epoch)).collect();

    // Dial before the first collector round so accept order follows
    // edge order: edge c is conn c+1.
    let mut now = epoch;
    for edge in &mut edges {
        edge.round(now);
    }

    let mut stalled = 0;
    loop {
        now += TICK;
        let mut moved = collector.borrow_mut().pump_at(now).expect("fault-free run");
        for edge in &mut edges {
            moved += edge.round(now);
        }
        moved += server.pump();
        let coll = collector.borrow();
        if edges.iter().all(|e| e.done()) && (1..=CONNS).all(|c| coll.conn_complete(ConnId(c))) {
            break;
        }
        drop(coll);
        stalled = if moved == 0 { stalled + 1 } else { 0 };
        assert!(stalled < 256, "fan-in deadlocked");
    }

    // The transfer is complete: register the remaining scrape sources
    // (aggregated ingest shard stats, sender-side session stats, query
    // counters driven by real lookups) and take the exposition.
    let mut shard_totals = vec![ShardStats::default(); 2];
    let mut quarantined_streams = 0;
    for edge in &edges {
        quarantined_streams += edge.quarantined;
        for (total, s) in shard_totals.iter_mut().zip(&edge.shard_stats) {
            total.ops += s.ops;
            total.samples += s.samples;
            total.segments += s.segments;
            total.backpressure += s.backpressure;
            total.unknown_stream_drops += s.unknown_stream_drops;
            total.duplicate_registers += s.duplicate_registers;
            total.streams += s.streams;
        }
    }
    let sessions: Vec<SessionStats> = edges.iter().map(|e| e.sess.stats()).collect();
    server.handler_mut().add_source(move |out: &mut Vec<pla_ops::MetricFamily>| {
        ingest_shard_families(&shard_totals, quarantined_streams, out);
        for (i, s) in sessions.iter().enumerate() {
            session_families(&i.to_string(), s, out);
        }
    });

    let engine = StoreQueryEngine::new(store.snapshot());
    let mut lookups = 0u64;
    let mut comparisons = LookupStats::default();
    for id in engine.streams() {
        let view = engine.stream(id).expect("listed stream");
        if let Some((lo, hi)) = view.span() {
            let (_, st) = engine.point_with_stats(id, (lo + hi) / 2.0, 0).expect("covered");
            lookups += 1;
            comparisons.comparisons += st.comparisons;
        }
    }
    server.handler_mut().add_source(move |out: &mut Vec<pla_ops::MetricFamily>| {
        query_families(lookups, &comparisons, out);
    });

    let (status, metrics_text) = fetch(&mut server, &mut ops_client, "GET", "/metrics");
    assert_eq!(status, 200);
    let metrics = parse_exposition(&metrics_text).expect("exposition must parse");
    let (status, streams_json) = fetch(&mut server, &mut ops_client, "GET", "/admin/streams");
    assert_eq!(status, 200);
    let stats = collector.borrow().stats();
    let tapped: u64 = edges.iter().map(|e| e.expected_segments).sum();
    assert_eq!(
        stats.segments + stats.shed_segments,
        tapped,
        "every segment the engines emitted was either published or shed"
    );
    FanInResult { store, stats, metrics, metrics_text, streams_json }
}

fn sample_value<'a>(samples: &'a [ParsedSample], name: &str) -> Option<&'a ParsedSample> {
    samples.iter().find(|s| s.name == name)
}

#[test]
fn live_metrics_cover_every_subsystem() {
    let reference = direct_reference();
    let expected_total: u64 = reference.values().map(|v| v.len() as u64).sum();
    let result = run_fanin(&[]);

    // Store ground truth first: the fan-in itself must be lossless.
    let snap = result.store.snapshot();
    assert_eq!(snap.streams.len(), (CONNS * STREAMS_PER_CONN) as usize);
    assert_eq!(snap.total_segments, expected_total);
    for (id, want) in &reference {
        assert_eq!(snap.streams[&StreamId(*id)].to_vec(), *want, "stream {id}");
    }

    // Every subsystem must be represented in the exposition.
    let m = &result.metrics;
    let collector_conns = sample_value(m, "pla_collector_connections").expect("collector series");
    assert_eq!(collector_conns.value, CONNS as f64);
    let segments = sample_value(m, "pla_collector_segments_total").expect("collector series");
    assert_eq!(segments.value, expected_total as f64);
    let store_total = sample_value(m, "pla_store_segments_total").expect("store series");
    assert_eq!(store_total.value, expected_total as f64);
    assert!(
        m.iter().filter(|s| s.name == "pla_store_source_segments_total").count() == CONNS as usize,
        "one watermark series per source connection"
    );
    let ingest_samples: f64 =
        m.iter().filter(|s| s.name == "pla_ingest_samples_total").map(|s| s.value).sum();
    assert_eq!(ingest_samples, (CONNS * STREAMS_PER_CONN) as f64 * SAMPLES as f64);
    for session_series in [
        "pla_session_heartbeats_echoed_total",
        "pla_session_resumes_total",
        "pla_session_dials_total",
        "pla_session_established_total",
        "pla_session_heartbeats_sent_total",
    ] {
        assert!(
            m.iter().any(|s| s.name == session_series),
            "missing session series {session_series} in:\n{}",
            result.metrics_text
        );
    }
    let dials: f64 =
        m.iter().filter(|s| s.name == "pla_session_dials_total").map(|s| s.value).sum();
    assert_eq!(dials, CONNS as f64, "each edge dialed exactly once in a fault-free run");
    let lookups = sample_value(m, "pla_query_lookups_total").expect("query series");
    assert_eq!(lookups.value, (CONNS * STREAMS_PER_CONN) as f64);
    assert!(
        sample_value(m, "pla_query_comparisons_total").expect("query series").value > 0.0,
        "lookups must have spent comparisons"
    );
    // Per-connection series carry conn labels; ops self-metrics carry
    // histogram machinery (cumulativity is pinned by the unit suite).
    assert_eq!(m.iter().filter(|s| s.name == "pla_conn_published_total").count(), CONNS as usize);
    assert!(sample_value(m, "pla_ops_requests_total").expect("ops series").value >= 1.0);
    assert!(
        m.iter().any(|s| s.name == "pla_ops_response_bytes_bucket"),
        "histogram series must be exposed"
    );

    // Nothing was quarantined or shed.
    assert_eq!(sample_value(m, "pla_collector_shed_segments_total").unwrap().value, 0.0);
    assert_eq!(result.stats.shed_segments, 0);
    assert!(result.streams_json.contains("\"quarantined\":[]"));
}

#[test]
fn quarantining_one_stream_leaves_every_other_byte_identical() {
    const VICTIM: u64 = 37; // conn 3's stream set (32..48), mid-pack.
    let reference = direct_reference();
    let result = run_fanin(&[VICTIM]);

    let snap = result.store.snapshot();
    assert!(
        !snap.streams.contains_key(&StreamId(VICTIM)),
        "a stream quarantined before traffic must never reach the store"
    );
    assert_eq!(snap.streams.len(), (CONNS * STREAMS_PER_CONN) as usize - 1);
    for (id, want) in &reference {
        if *id == VICTIM {
            continue;
        }
        assert_eq!(
            snap.streams[&StreamId(*id)].to_vec(),
            *want,
            "stream {id} must stay byte-identical to its dedicated link"
        );
    }

    // The shed traffic is observable, attributed, and reported over the
    // admin API.
    assert_eq!(result.stats.shed_segments, reference[&VICTIM].len() as u64);
    assert_eq!(result.stats.quarantined_streams, vec![VICTIM]);
    let shed = sample_value(&result.metrics, "pla_collector_shed_segments_total").unwrap();
    assert_eq!(shed.value, reference[&VICTIM].len() as f64);
    assert!(result.streams_json.contains(&format!("\"quarantined\":[{VICTIM}]")));

    // Every sender still completed: acks are independent of publishing,
    // so quarantine sheds data without stalling the connection.
    assert_eq!(result.stats.attached, CONNS as usize);
}
