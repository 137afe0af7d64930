//! The ops-tier acceptance test: a live session-mode collector fan-in —
//! 8 connections × 16 streams over `MemoryAcceptor`, each edge the full
//! production path (`IngestEngine` → `EngineUplink` → `SessionSender`)
//! — observed and administered entirely through the HTTP surface.
//!
//! `GET /metrics` on the live stack must serve valid Prometheus text
//! exposition covering ingest, collector, session, store, query, and
//! ops-self series — every subsystem's registry is handed to the admin
//! before traffic, so a scrape taken while the engines, senders and
//! query server still run already shows their counts; `POST
//! /admin/quarantine/{stream}` must isolate
//! exactly that stream while every other stream's store content stays
//! byte-identical to dedicated fault-free point-to-point links.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pla_core::filters::{FilterKind, FilterSpec};
use pla_core::{Segment, Signal};
use pla_ingest::{IngestConfig, IngestEngine, SegmentStore, StreamId};
use pla_net::listen::{MemoryAcceptor, MemoryConnector};
use pla_net::uplink::{EngineUplink, UplinkStatus};
use pla_net::{
    Collector, CollectorStats, ConnId, Link, MemoryLink, MemoryRedial, NetConfig, SessionConfig,
    SessionSender,
};
use pla_ops::http::Handler;
use pla_ops::{parse_exposition, CollectorAdmin, OpsServer, ParsedSample, Request};
use pla_query::{Query, QueryClient, QueryClientConfig, QueryResult, QueryServer, Response};
use pla_signal::{random_walk, WalkParams};
use pla_transport::wire::FixedCodec;
use pla_transport::{Receiver, Transmitter};

const CONNS: u64 = 8;
const STREAMS_PER_CONN: u64 = 16;
const SAMPLES: usize = 300;
const LINK_CAPACITY: usize = 211;
const TICK: Duration = Duration::from_millis(5);
/// Samples the edge engines are fed.
const PUSHED: f64 = (CONNS * STREAMS_PER_CONN) as f64 * SAMPLES as f64;
/// How long the live scrape may wait for the shard threads.
const LIVE_DEADLINE: Duration = Duration::from_secs(30);

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
    /// Running until [`finish_engine`](Edge::finish_engine).
    engine: Option<IngestEngine>,
    sess: SessionSender<FixedCodec, MemoryRedial>,
    uplink: EngineUplink,
    finned: bool,
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
        Self {
            engine: Some(engine),
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
            expected_segments: 0,
        }
    }

    /// Shuts the engine down, closing its tap so the uplink can drain
    /// and `Fin` every stream.
    fn finish_engine(&mut self) {
        let report = self.engine.take().expect("engine still running").finish();
        assert_eq!(report.quarantined(), 0);
        self.expected_segments = report.total_segments() as u64;
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

/// Submits `queries` to the remote query server and pumps both ends
/// until every answer is in, returned in submission order.
fn ask(
    client: &mut QueryClient<MemoryRedial>,
    server: &mut QueryServer<MemoryAcceptor>,
    queries: Vec<Query>,
    now: Instant,
) -> Vec<QueryResult> {
    let ids: Vec<u64> = queries.into_iter().map(|q| client.submit(q, now)).collect();
    let mut answers = BTreeMap::new();
    for _ in 0..10_000 {
        client.pump_at(now);
        server.pump();
        client.pump_at(now);
        for (id, outcome) in client.take_completed() {
            match outcome {
                Ok(Response::Result(result)) => answers.insert(id, result),
                other => panic!("remote query failed: {other:?}"),
            };
        }
        if answers.len() == ids.len() {
            return ids.iter().map(|id| answers.remove(id).expect("answered")).collect();
        }
    }
    panic!("remote queries never completed");
}

fn total(samples: &[ParsedSample], name: &str) -> f64 {
    samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
}

/// Whether a live scrape shows every pushed sample, a dial by every
/// sender and the one remote query.
fn live_counts_arrived(m: &[ParsedSample]) -> bool {
    let dialed = m.iter().filter(|s| s.name == "pla_session_dials_total" && s.value >= 1.0);
    total(m, "pla_ingest_samples_total") == PUSHED
        && dialed.count() == CONNS as usize
        && total(m, "pla_query_server_requests_total") == 1.0
}

struct FanInResult {
    store: Arc<SegmentStore>,
    stats: CollectorStats,
    /// A scrape taken before any engine finished.
    live: Vec<ParsedSample>,
    metrics: Vec<ParsedSample>,
    metrics_text: String,
    streams_json: String,
}

/// Runs the full fan-in with the ops server and a remote query server
/// alongside, quarantining `quarantine` through the HTTP API before any
/// traffic flows. Scrapes `/metrics` once while the engines still run
/// (after one remote query), then asks one remote point lookup per
/// stored stream and scrapes `/metrics` and `/admin/streams` from the
/// finished stack.
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

    let query_acceptor = MemoryAcceptor::new();
    let query_redial = MemoryRedial::new(query_acceptor.connector(), 1 << 20);
    let mut query_server = QueryServer::new(query_acceptor, store.clone(), cfg);
    let mut query_client = QueryClient::new(query_redial, QueryClientConfig::default());

    let epoch = Instant::now();
    let mut edges: Vec<Edge> =
        (0..CONNS).map(|c| Edge::new(c, cfg, sess_cfg, connector.clone(), epoch)).collect();

    // Every subsystem's series are served live, before any traffic.
    let admin = server.handler_mut();
    admin.add_registry(query_server.registry(), &[]);
    for (i, edge) in edges.iter().enumerate() {
        let id = i.to_string();
        let engine = edge.engine.as_ref().expect("engine running");
        admin.add_registry(engine.registry(), &[("edge", &id)]);
        admin.add_registry(edge.sess.registry(), &[("sender", &id)]);
    }

    // Dial before the first collector round so accept order follows
    // edge order: edge c is conn c+1.
    let mut now = epoch;
    for edge in &mut edges {
        edge.round(now);
    }

    // Live: one remote query, then poll until the shard threads have
    // taken every sample, while the engines run and the senders pump.
    ask(&mut query_client, &mut query_server, vec![Query::Streams], now);
    let deadline = Instant::now() + LIVE_DEADLINE;
    let live = loop {
        now += TICK;
        collector.borrow_mut().pump_at(now).expect("fault-free run");
        for edge in &mut edges {
            edge.round(now);
        }
        let (status, text) = fetch(&mut server, &mut ops_client, "GET", "/metrics");
        assert_eq!(status, 200);
        let live = parse_exposition(&text).expect("live exposition must parse");
        if live_counts_arrived(&live) || Instant::now() > deadline {
            break live;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    for edge in &mut edges {
        edge.finish_engine();
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

    // The transfer is complete: one remote point lookup per stream.
    let lookups: Vec<Query> = store
        .snapshot()
        .streams
        .iter()
        .filter_map(|(id, view)| view.span().map(|(lo, hi)| (id.0, (lo + hi) / 2.0)))
        .map(|(stream, t)| Query::PointWithStats { stream, t, dim: 0 })
        .collect();
    for answer in ask(&mut query_client, &mut query_server, lookups, now) {
        assert!(matches!(answer, QueryResult::ValueWithStats { .. }), "covered: {answer:?}");
    }

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
    FanInResult { store, stats, live, metrics, metrics_text, streams_json }
}

fn sample_value<'a>(samples: &'a [ParsedSample], name: &str) -> Option<&'a ParsedSample> {
    samples.iter().find(|s| s.name == name)
}

#[test]
fn live_metrics_cover_every_subsystem() {
    let reference = direct_reference();
    let expected_total: u64 = reference.values().map(|v| v.len() as u64).sum();
    let result = run_fanin(&[]);

    // While the engines ran, the scrape already saw every pushed
    // sample, each sender's dial and the one remote query.
    let live = &result.live;
    assert_eq!(total(live, "pla_ingest_samples_total"), PUSHED, "live ingest samples");
    for sender in 0..CONNS {
        let dials = live
            .iter()
            .find(|s| {
                s.name == "pla_session_dials_total"
                    && s.labels.contains(&("sender".to_string(), sender.to_string()))
            })
            .unwrap_or_else(|| panic!("no live dial series for sender {sender}"));
        assert!(dials.value >= 1.0, "sender {sender} dialed");
    }
    assert_eq!(total(live, "pla_query_server_requests_total"), 1.0, "one remote query");

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

/// Evicting a session must not take its counts with it: once the
/// liveness lapse and the session TTL have evicted a severed sender,
/// the scraped collector totals still match the store.
#[test]
fn collector_totals_survive_session_eviction() {
    let (cfg, sess_cfg) = (NetConfig::default(), SessionConfig::default());
    let store = Arc::new(SegmentStore::new());
    let acceptor = MemoryAcceptor::new();
    let redial = MemoryRedial::new(acceptor.connector(), 4096);
    let collector = Rc::new(RefCell::new(Collector::with_sessions(
        FixedCodec,
        1,
        cfg,
        sess_cfg,
        acceptor,
        store.clone(),
    )));
    let mut admin = Admin::new(collector.clone());
    let t0 = Instant::now();
    let mut tx = SessionSender::new(FixedCodec, 1, cfg, sess_cfg, redial, t0);
    for i in 0..4 {
        let t = i as f64 * 10.0;
        let seg = Segment {
            t_start: t,
            x_start: [t].into(),
            t_end: t + 5.0,
            x_end: [t + 1.0].into(),
            connected: false,
            n_points: 2,
            new_recordings: 2,
        };
        tx.mux_mut().try_send_segment(0, &seg).expect("fits the window");
    }
    for _ in 0..4 {
        tx.pump_at(t0);
        collector.borrow_mut().pump_at(t0).expect("fault-free run");
    }
    assert_eq!(store.total_segments(), 4);
    let frames = collector.borrow().stats().frames;
    assert!(frames > 0);

    tx.redial().last_link().expect("dialed once").sever();
    let lapse = t0 + sess_cfg.liveness_timeout;
    collector.borrow_mut().pump_at(lapse).expect("a severed link only detaches");
    collector.borrow_mut().pump_at(lapse + sess_cfg.session_ttl).expect("eviction is no failure");
    assert_eq!(collector.borrow().stats().evicted, 1);

    let resp = admin.handle(&Request {
        method: "GET".to_string(),
        path: "/metrics".to_string(),
        body: Vec::new(),
    });
    let m = parse_exposition(&String::from_utf8(resp.body).expect("utf8")).expect("parses");
    let value = |name: &str| sample_value(&m, name).unwrap_or_else(|| panic!("{name}")).value;
    assert_eq!(value("pla_collector_segments_total"), store.total_segments() as f64);
    assert_eq!(value("pla_collector_frames_total"), frames as f64);
    assert_eq!(value("pla_collector_connections"), 0.0);
    assert!(
        m.iter().all(|s| !s.name.starts_with("pla_conn_")),
        "an evicted connection's series go with it"
    );
}
