//! The session-layer acceptance test: 8 connections × 16 streams, every
//! link disrupted **three times** at staggered phases — severed outright
//! or silently wedged (detectable only by the heartbeat liveness
//! deadline) — and every recovery performed *by the session machine
//! itself*: the sender redials through its `Redial` factory, presents
//! its session token, and the collector rebinds the same `ConnId` from
//! its resume point. There is no operator-style re-attach call
//! anywhere in this file. The store must end byte-identical to 128
//! dedicated fault-free point-to-point links, and a version-mismatched
//! client dialing into the same collector must be refused with a typed
//! error without disturbing the 8 healthy connections.
//!
//! Everything runs on a synthetic clock: both sides take explicit `now`
//! instants, so heartbeat intervals, liveness deadlines, and redial
//! backoff are deterministic, not wall-clock races.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pla_core::filters::{FilterKind, FilterSpec};
use pla_core::{Segment, Signal};
use pla_ingest::{IngestConfig, IngestEngine, SegmentStore, StreamId};
use pla_net::frame::PROTOCOL_VERSION;
use pla_net::listen::MemoryAcceptor;
use pla_net::testutil::{FaultPlan, FaultRedial};
use pla_net::uplink::{EngineUplink, UplinkStatus};
use pla_net::{
    Collector, ConnId, HandshakeError, MemoryRedial, NetConfig, NetError, SessionConfig,
    SessionSender,
};
use pla_signal::{random_walk, WalkParams};
use pla_transport::wire::FixedCodec;
use pla_transport::{Receiver, Transmitter};

const CONNS: u64 = 8;
const STREAMS_PER_CONN: u64 = 16;
const SAMPLES: usize = 300;
const LINK_CAPACITY: usize = 211;
const DISRUPTIONS_PER_CONN: u32 = 3;
/// Synthetic-clock step per pump round.
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

/// The reference: every stream over its own dedicated, fault-free
/// point-to-point link, as the paper deploys it.
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

/// Session timing tuned for a synthetic clock: short enough that wedge
/// detection takes tens of rounds, long enough that a busy healthy link
/// never trips its own deadline.
fn session_config() -> SessionConfig {
    SessionConfig {
        heartbeat_interval: Duration::from_millis(50),
        liveness_timeout: Duration::from_millis(250),
        handshake_timeout: Duration::from_millis(100),
        session_ttl: Duration::from_secs(600),
        redial_initial: Duration::from_millis(5),
        redial_cap: Duration::from_millis(40),
        ..SessionConfig::default()
    }
}

/// One edge node: engine-filtered segments flowing through a
/// self-healing session over fault-injected links.
struct Edge {
    sess: SessionSender<FixedCodec, FaultRedial>,
    uplink: EngineUplink,
    finned: bool,
    disruptions: u32,
    expected_segments: u64,
}

impl Edge {
    fn new(
        conn: u64,
        cfg: NetConfig,
        sess_cfg: SessionConfig,
        redial: FaultRedial,
        epoch: Instant,
    ) -> Self {
        let (engine, tap) = IngestEngine::with_segment_tap(IngestConfig {
            shards: 2,
            queue_depth: 128,
            shard_log: false,
        });
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
            sess: SessionSender::new(FixedCodec, 1, cfg, sess_cfg, redial, epoch),
            uplink: EngineUplink::new(tap),
            finned: false,
            disruptions: 0,
            expected_segments: report.total_segments() as u64,
        }
    }

    /// One sender round at `now`: drain the tap as credit allows, fin
    /// when drained, let the session machine do everything else (dial,
    /// handshake, replay, heartbeat, redial).
    fn round(&mut self, now: Instant) -> usize {
        let status = self.uplink.pump(self.sess.mux_mut()).expect("uplink");
        if status == UplinkStatus::Drained && !self.finned {
            self.sess.mux_mut().finish_all();
            self.finned = true;
        }
        if let Some(failure) = self.sess.failure() {
            panic!("session must never fail terminally here: {failure}");
        }
        self.sess.pump_at(now)
    }

    fn done(&self) -> bool {
        self.finned && self.sess.mux().is_idle()
    }
}

#[test]
fn eight_sessions_survive_staggered_severs_and_wedges_without_reattach_calls() {
    let cfg = NetConfig { window: 512, max_frame: 1 << 20 };
    let sess_cfg = session_config();
    let store = Arc::new(SegmentStore::new());
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut collector =
        Collector::with_sessions(FixedCodec, 1, cfg, sess_cfg, acceptor, store.clone());

    let epoch = Instant::now();
    let mut edges: Vec<Edge> = (0..CONNS)
        .map(|c| {
            let redial =
                FaultRedial::new(connector.clone(), LINK_CAPACITY, vec![FaultPlan::none()]);
            Edge::new(c, cfg, sess_cfg, redial, epoch)
        })
        .collect();
    let expected_total: u64 = edges.iter().map(|e| e.expected_segments).sum();

    // A client from the future dials the same collector. It must be
    // refused with a typed version mismatch — and nothing else may
    // notice.
    let future_cfg = SessionConfig { version: PROTOCOL_VERSION + 1, ..sess_cfg };
    let mut mismatched = SessionSender::new(
        FixedCodec,
        1,
        cfg,
        future_cfg,
        MemoryRedial::new(connector.clone(), LINK_CAPACITY),
        epoch,
    );

    // Make the edges dial (and write their Hellos) before the first
    // collector round so accept order follows edge order: edge c is
    // conn c+1.
    let mut now = epoch;
    for edge in &mut edges {
        edge.round(now);
    }
    mismatched.pump_at(now);

    let mut rounds = 0u64;
    loop {
        now += TICK;
        rounds += 1;
        collector.pump_at(now).expect("no protocol violations in this storm");
        mismatched.pump_at(now);

        // Disrupt each connection three times, staggered: connection c's
        // k-th disruption fires when the store holds its share of
        // published traffic. Disruption 2 of every even connection is a
        // *silent wedge* — writes vanish, reads stall, no error — which
        // only the heartbeat liveness deadline can detect. The rest are
        // hard severs.
        for (c, edge) in edges.iter_mut().enumerate() {
            if edge.disruptions >= DISRUPTIONS_PER_CONN {
                continue;
            }
            let k = edge.disruptions as u64;
            let phase = k * CONNS + c as u64 + 1;
            let threshold =
                (edge.expected_segments * phase / (DISRUPTIONS_PER_CONN as u64 * CONNS + 2)).max(1);
            let published = store.watermark(c as u64 + 1).map_or(0, |w| w.segments);
            if published >= threshold {
                if k == 1 && c % 2 == 0 {
                    edge.sess.redial().wedge_active();
                } else {
                    edge.sess.redial().sever_active();
                }
                edge.disruptions += 1;
            }
        }

        for edge in &mut edges {
            edge.round(now);
        }

        let all_disrupted = edges.iter().all(|e| e.disruptions == DISRUPTIONS_PER_CONN);
        if all_disrupted
            && edges.iter().all(|e| e.done())
            && (1..=CONNS).all(|c| collector.conn_complete(ConnId(c)))
        {
            break;
        }
        assert!(rounds < 200_000, "self-healing fan-in did not converge");
    }

    // Every connection died three times and healed itself: the initial
    // dial plus at least one redial per disruption.
    for (c, edge) in edges.iter().enumerate() {
        assert_eq!(edge.disruptions, DISRUPTIONS_PER_CONN);
        assert!(
            edge.sess.redial().dials() > DISRUPTIONS_PER_CONN as u64,
            "conn {c}: every disruption must have forced a redial, got {} dials",
            edge.sess.redial().dials()
        );
        assert!(edge.sess.is_established(), "conn {c} ends healthy");
        assert_eq!(edge.sess.stats().established, edge.sess.redial().dials());
        assert!(edge.sess.failure().is_none());
    }
    // Wedges are invisible to I/O errors — only the liveness deadline
    // detects them, and heartbeats are what keep that deadline honest.
    assert!(
        edges.iter().any(|e| e.sess.stats().heartbeats_sent > 0),
        "the wedge phases must have produced heartbeat probes"
    );

    // The store must be byte-identical to 128 dedicated fault-free links.
    let reference = direct_reference();
    let snap = store.snapshot();
    assert_eq!(snap.streams.len(), (CONNS * STREAMS_PER_CONN) as usize);
    assert_eq!(snap.total_segments, expected_total);
    for (id, want) in &reference {
        let got = &snap.streams[&StreamId(*id)];
        assert_eq!(
            got, want,
            "stream {id}: reconstruction across severs and wedges must be \
             byte-identical to the dedicated fault-free link"
        );
    }

    // Session bookkeeping: 8 connections, no extras minted by resumes,
    // every resume routed by token back to its original ConnId.
    let stats = collector.stats();
    assert_eq!(stats.connections, CONNS as usize, "resumes rebind; they never mint new conns");
    assert_eq!(stats.segments, expected_total);
    assert!(stats.dup_drops > 0, "staggered severs must have forced duplicate replays");
    assert_eq!(stats.evicted, 0);
    for conn in &stats.conns {
        assert_ne!(conn.token, 0, "{}: bound sessions carry tokens", conn.conn);
        assert_eq!(conn.receiver.finished_streams, STREAMS_PER_CONN as usize);
        assert!(conn.attached, "{} ends attached", conn.conn);
    }

    // The mismatched client was refused, typed, on both sides — and the
    // refusals are the only ones the collector saw.
    assert!(!mismatched.is_established());
    assert!(matches!(
        mismatched.failure(),
        Some(NetError::Handshake(HandshakeError::VersionMismatch { ours, theirs }))
            if *ours == PROTOCOL_VERSION + 1 && *theirs == PROTOCOL_VERSION
    ));
    assert!(stats.refused >= 1, "the version mismatch was counted");
    assert!(matches!(
        collector.last_refusal(),
        Some(NetError::Handshake(HandshakeError::VersionMismatch { .. }))
    ));
}
