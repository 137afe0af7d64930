//! The collector acceptance tests: a fleet of edge senders multiplexing
//! into one shared `SegmentStore`, with every link severed mid-transfer
//! and recovered by session token resume, must leave the store
//! *byte-identical* to one dedicated point-to-point
//! transmitter/receiver link per stream.
//!
//! One harness runs three fleets:
//!
//! * 8 connections × 16 streams over 211-byte pipes — many sessions,
//!   each dying at a different phase of its transfer;
//! * 1 connection × 64 streams over a 193-byte pipe — one heavily
//!   multiplexed session severed halfway, under the `FixedCodec`;
//! * the same single session under the `CompactCodec`, whose stateful
//!   delta predictor must survive the resume's replay.
//!
//! A fourth case shrinks `max_frame` until every flush and every replay
//! splits into several `Batch` frames, then tears the session's links at
//! seeded byte offsets inside those frames, under both codecs.
//!
//! Each sending side is the full production path: an `IngestEngine`
//! (the edge node's shard-per-core filtering) whose live segment tap
//! feeds an `EngineUplink` into a `SessionSender` over deliberately
//! tiny `MemoryLink`s, so partial writes and credit stalls are routine.
//! The run is on a frozen synthetic clock with zero redial backoff: no
//! deadline can fire, so the only recovery path exercised is the
//! sever → redial → token resume one.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pla_core::filters::{FilterKind, FilterSpec};
use pla_core::{Segment, Signal};
use pla_ingest::{IngestConfig, IngestEngine, SegmentStore, StreamId};
use pla_net::listen::MemoryAcceptor;
use pla_net::testutil::{Fault, FaultPlan, FaultRedial};
use pla_net::uplink::{EngineUplink, UplinkStatus};
use pla_net::{Collector, ConnId, MemoryRedial, NetConfig, Redial, SessionConfig, SessionSender};
use pla_signal::{random_walk, WalkParams};
use pla_transport::wire::{Codec, CompactCodec, FixedCodec};
use pla_transport::{Receiver, Transmitter};

const SAMPLES: usize = 300;
const CFG: NetConfig = NetConfig { window: 512, max_frame: 1 << 20 };

/// The shape of one fan-in run.
#[derive(Debug, Clone, Copy)]
struct Fleet {
    /// Edge senders, one session each.
    conns: u64,
    /// Streams multiplexed over each session.
    streams_per_conn: u64,
    /// Capacity of every `MemoryLink` pipe, in bytes.
    link_capacity: usize,
}

impl Fleet {
    fn streams(&self) -> u64 {
        self.conns * self.streams_per_conn
    }
}

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
        seed: 0xC011 ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    })
}

/// The reference: every stream over its own dedicated point-to-point
/// link, as the paper deploys it.
fn direct_reference<C: Codec + Clone>(codec: C, streams: u64) -> BTreeMap<u64, Vec<Segment>> {
    let mut out = BTreeMap::new();
    for id in 0..streams {
        let filter = spec_for(id).build().expect("valid spec");
        let mut tx = Transmitter::new(filter, codec.clone());
        let mut rx = Receiver::new(codec.clone(), 1);
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

/// Session timing for the frozen clock: redials fire on the next pump,
/// and no handshake, liveness, or TTL deadline ever lapses.
fn session_config() -> SessionConfig {
    SessionConfig { redial_initial: Duration::ZERO, ..SessionConfig::default() }
}

/// One edge node: engine-filtered segments multiplexed up a flaky link.
struct EdgeSender<C: Codec, R: Redial = MemoryRedial> {
    tx: SessionSender<C, R>,
    uplink: EngineUplink,
    now: Instant,
    finned: bool,
    severed_once: bool,
    expected_segments: u64,
}

impl<C: Codec, R: Redial> EdgeSender<C, R> {
    /// Builds the node for connection `conn`, running its engine to
    /// completion up front (the tap buffers; the uplink then drains it
    /// under credit control).
    fn new(codec: C, conn: u64, fleet: Fleet, config: NetConfig, redial: R, now: Instant) -> Self {
        let (engine, tap) =
            IngestEngine::with_segment_tap(IngestConfig { shards: 2, queue_depth: 128 });
        let handle = engine.handle();
        let base = conn * fleet.streams_per_conn;
        for s in 0..fleet.streams_per_conn {
            let id = base + s;
            handle.register(StreamId(id), spec_for(id)).expect("register");
            let signal = signal_for(id);
            let samples: Vec<(f64, &[f64])> = signal.iter().collect();
            handle.push_batch(StreamId(id), &samples).expect("feed");
        }
        let report = engine.finish();
        assert_eq!(report.quarantined(), 0);
        Self {
            tx: SessionSender::new(codec, 1, config, session_config(), redial, now),
            uplink: EngineUplink::new(tap),
            now,
            finned: false,
            severed_once: false,
            expected_segments: report.total_segments() as u64,
        }
    }

    /// One sender round: drain the tap as credit allows, fin when
    /// drained, pump the session. A dead link reports no progress and
    /// is redialed on the next round.
    fn round(&mut self) -> usize {
        let status = self.uplink.pump(self.tx.mux_mut()).expect("uplink");
        if status == UplinkStatus::Drained && !self.finned {
            self.tx.mux_mut().finish_all();
            self.finned = true;
        }
        let moved = self.tx.pump_at(self.now);
        if let Some(e) = self.tx.failure() {
            panic!("sender protocol error: {e}");
        }
        moved
    }

    fn done(&self) -> bool {
        self.finned && self.tx.mux().is_idle()
    }
}

/// Runs `fleet` into one collector, severing every connection once,
/// checks the transport-level invariants, and asserts the store is
/// byte-identical to one direct `codec` link per stream.
fn assert_fleet_matches_direct_links<C: Codec + Clone + 'static>(codec: C, fleet: Fleet) {
    let conns = fleet.conns;
    let store = Arc::new(SegmentStore::new());
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut collector =
        Collector::with_sessions(codec.clone(), 1, CFG, session_config(), acceptor, store.clone());

    let now = Instant::now();
    let mut edges: Vec<EdgeSender<C>> = (0..conns)
        .map(|c| {
            let redial = MemoryRedial::new(connector.clone(), fleet.link_capacity);
            EdgeSender::new(codec.clone(), c, fleet, CFG, redial, now)
        })
        .collect();
    let expected_total: u64 = edges.iter().map(|e| e.expected_segments).sum();
    // Every edge dials before the collector's first round, so ConnId
    // follows edge order.
    for edge in &mut edges {
        edge.round();
    }

    let mut stalled = 0;
    loop {
        let mut moved = collector.pump_at(now).expect("collector");

        // Sever every connection once, staggered: connection c dies
        // when the store holds c+1 of conns+1 parts of its expected
        // traffic (a lone connection dies halfway) — different links
        // die at different phases of the transfer. The cut lands
        // *after* the collector staged its acks but before the sender
        // read them, so the freshly written acks die in the pipe and
        // the replay is partially duplicate — the worst case the dedup
        // must absorb.
        for (c, edge) in edges.iter_mut().enumerate() {
            let threshold = edge.expected_segments * (c as u64 + 1) / (conns + 1);
            let conn = ConnId(c as u64 + 1); // accept order follows dial order
            let published = store.watermark(conn.0).map_or(0, |w| w.segments);
            // Only an established session holds a token to resume with.
            if !edge.severed_once && published >= threshold.max(1) && edge.tx.is_established() {
                edge.tx.redial().last_link().expect("dialed").sever();
                // The collector observes the dead pipe and detaches...
                collector.pump_at(now).expect("collector survives dead links");
                assert!(
                    collector.detached().contains(&conn),
                    "{conn} must be detached after its link died"
                );
                // ...then the sender redials on its own, presents its
                // token, and the same ConnId rebinds.
                edge.severed_once = true;
                moved += 1; // a sever is progress
            }
        }

        for edge in &mut edges {
            moved += edge.round();
        }

        if edges.iter().all(|e| e.done()) && (1..=conns).all(|c| collector.conn_complete(ConnId(c)))
        {
            break;
        }
        stalled = if moved == 0 { stalled + 1 } else { 0 };
        assert!(stalled < 64, "fan-in deadlocked");
    }
    assert!(edges.iter().all(|e| e.severed_once), "every link must have died once");

    // The store must be byte-identical to the dedicated links.
    let reference = direct_reference(codec, fleet.streams());
    let snap = store.snapshot();
    assert_eq!(snap.streams.len(), fleet.streams() as usize);
    assert_eq!(snap.total_segments, expected_total);
    for (id, want) in &reference {
        let got = &snap.streams[&StreamId(*id)];
        assert_eq!(
            got, want,
            "stream {id}: collector reconstruction must be byte-identical \
             to the dedicated point-to-point link"
        );
    }

    // Observability: replays were dropped and counted, per connection.
    let stats = collector.stats();
    assert_eq!(stats.connections, conns as usize);
    assert_eq!(stats.segments, expected_total);
    assert!(stats.dup_drops > 0, "staggered severs must have forced duplicate replays");
    assert_eq!(stats.resumes, conns, "every severed connection came back by token resume");
    assert_eq!(stats.refused, 0);
    for conn in &stats.conns {
        assert_eq!(conn.ack_points.len(), fleet.streams_per_conn as usize);
        assert!(
            conn.ack_points.iter().all(|&(_, ack)| ack > 0),
            "{}: every stream fully acked",
            conn.conn
        );
        assert_eq!(conn.receiver.finished_streams, fleet.streams_per_conn as usize);
    }
    // Per-connection watermarks cover the whole signal span.
    for c in 1..=conns {
        let mark = store.watermark(c).expect("every connection appended");
        assert!(mark.covered_through >= (SAMPLES - 1) as f64);
    }
}

#[test]
fn eight_connections_with_reconnects_match_direct_links_exactly() {
    let fleet = Fleet { conns: 8, streams_per_conn: 16, link_capacity: 211 };
    assert_fleet_matches_direct_links(FixedCodec, fleet);
}

/// One session carrying 64 streams: the densest multiplexing through a
/// single sever and resume.
const ONE_SESSION: Fleet = Fleet { conns: 1, streams_per_conn: 64, link_capacity: 193 };

#[test]
fn one_session_sixty_four_streams_with_resume_match_direct_links_exactly() {
    assert_fleet_matches_direct_links(FixedCodec, ONE_SESSION);
}

#[test]
fn one_session_resume_survives_the_compact_codec_too() {
    // The compact codec's delta predictor is stateful; the per-frame
    // reset contract keeps replays decodable. Quantization is applied
    // per value, so the multiplexed logs still match a direct compact
    // link exactly.
    assert_fleet_matches_direct_links(CompactCodec::new(0.01, &[0.01]), ONE_SESSION);
}

/// Small enough that no `Batch` frame holds more than three 1-D entries
/// (a `Start`+`End` entry is 37 bytes, an `End` entry 20), so every
/// flush or replay of more than three entries splits — yet large enough
/// for the collector's `Ack` and `HelloAck` frames over eight streams
/// (at most 60 bytes), which are not split.
const SPLIT: NetConfig = NetConfig { window: 512, max_frame: 80 };

/// One session of 8 streams over [`SPLIT`], whose first four links are
/// each torn inside a frame: the first `keep` bytes of frame `frame`
/// (seeded; past the `Hello`, so every tear hits an established session
/// or its 0-RTT replay) get through, then the link dies. Every tear is
/// recovered by token resume, and the replays re-batch and re-split
/// the unacked tail. The store must still be byte-identical to the
/// dedicated links.
fn assert_torn_split_batches_match_direct_links<C: Codec + Clone + 'static>(codec: C, seed: u64) {
    let fleet = Fleet { conns: 1, streams_per_conn: 8, link_capacity: 4096 };
    let mut state = seed;
    let mut draw = |bound: u64| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    let plans: Vec<FaultPlan> = (0..4)
        .map(|_| {
            let frame = 1 + draw(24);
            let keep = draw(SPLIT.max_frame as u64 + 4) as usize;
            FaultPlan::new(vec![Fault::Truncate { frame, keep }])
        })
        .collect();
    let store = Arc::new(SegmentStore::new());
    let acceptor = MemoryAcceptor::new();
    let redial = FaultRedial::new(acceptor.connector(), fleet.link_capacity, plans);
    let mut collector = Collector::with_sessions(
        codec.clone(),
        1,
        SPLIT,
        session_config(),
        acceptor,
        store.clone(),
    );
    let now = Instant::now();
    let mut edge = EdgeSender::new(codec.clone(), 0, fleet, SPLIT, redial, now);
    edge.round();
    let mut stalled = 0;
    // A healthy run converges in about a hundred rounds; the cap turns
    // a redial livelock (progress every round, never done) into a
    // failure instead of a hang.
    for round in 0.. {
        let mut moved = collector.pump_at(now).expect("torn links never violate the protocol");
        moved += edge.round();
        if edge.done() && collector.conn_complete(ConnId(1)) {
            break;
        }
        stalled = if moved == 0 { stalled + 1 } else { 0 };
        assert!(stalled < 64, "seed {seed}: fan-in deadlocked");
        assert!(round < 10_000, "seed {seed}: fan-in never converged");
    }

    let reference = direct_reference(codec, fleet.streams());
    let snap = store.snapshot();
    assert_eq!(snap.total_segments, edge.expected_segments);
    for (id, want) in &reference {
        assert_eq!(&snap.streams[&StreamId(*id)], want, "seed {seed}, stream {id}");
    }
    let stats = collector.stats();
    assert_eq!(stats.connections, 1, "seed {seed}: every tear resumed the one session");
    assert!(stats.resumes >= 1, "seed {seed}: at least one tear landed");
    assert_eq!(stats.refused, 0);
}

#[test]
fn replays_that_split_into_many_batches_survive_torn_links_under_both_codecs() {
    for seed in 1..=6 {
        assert_torn_split_batches_match_direct_links(FixedCodec, seed);
        assert_torn_split_batches_match_direct_links(CompactCodec::new(0.01, &[0.01]), seed);
    }
}
