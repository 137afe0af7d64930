//! Regression: session-mode fan-in over **raw** small-capacity memory
//! pipes, where `try_write` routinely accepts only part of a frame.
//!
//! The fault-injection suites wrap links in `FaultLink`, whose
//! `try_write` buffers unboundedly and never returns a partial count —
//! so they never exercise the torn-frame paths this test pins:
//!
//! - `MuxSender::apply_resume` re-trims the staged replay when the
//!   `HelloAck` arrives, on the *live* link; it must preserve the
//!   unwritten tail of a frame whose prefix already entered the wire.
//! - `SessionSender::pump_at` must not write a session frame (e.g. a
//!   heartbeat) while the mux outbox holds a torn frame.
//!
//! Either violation desyncs the collector's frame decoder mid-stream;
//! before the fix this failed on round two with
//! `Protocol("segment runs backwards")`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pla_core::filters::{FilterKind, FilterSpec};
use pla_core::{Segment, Signal};
use pla_ingest::{IngestConfig, IngestEngine, SegmentStore, StreamId};
use pla_net::listen::MemoryAcceptor;
use pla_net::uplink::{EngineUplink, UplinkStatus};
use pla_net::{Collector, ConnId, MemoryRedial, NetConfig, SessionConfig, SessionSender};
use pla_signal::{random_walk, WalkParams};
use pla_transport::wire::FixedCodec;
use pla_transport::{Receiver, Transmitter};

const CONNS: u64 = 8;
const STREAMS_PER_CONN: u64 = 16;
const SAMPLES: usize = 300;
/// Small enough that the 0-RTT burst is torn mid-frame on every link.
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
        seed: 0x7EAD ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    })
}

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
        liveness_timeout: Duration::from_millis(250),
        handshake_timeout: Duration::from_millis(100),
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
}

impl Edge {
    fn new(
        conn: u64,
        cfg: NetConfig,
        sess_cfg: SessionConfig,
        redial: MemoryRedial,
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
            sess: SessionSender::new(FixedCodec, 1, cfg, sess_cfg, redial, epoch),
            uplink: EngineUplink::new(tap),
            finned: false,
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

#[test]
fn partial_writes_never_tear_frames() {
    let reference = direct_reference();
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
            Edge::new(c, cfg, sess_cfg, MemoryRedial::new(connector.clone(), LINK_CAPACITY), epoch)
        })
        .collect();

    // Dial before the first collector round so accept order follows
    // edge order.
    let mut now = epoch;
    for edge in &mut edges {
        edge.round(now);
    }

    let mut stalled = 0;
    loop {
        now += TICK;
        let mut moved = collector.pump_at(now).expect("fault-free run");
        for edge in &mut edges {
            moved += edge.round(now);
        }
        if edges.iter().all(|e| e.done()) && (1..=CONNS).all(|c| collector.conn_complete(ConnId(c)))
        {
            break;
        }
        stalled = if moved == 0 { stalled + 1 } else { 0 };
        assert!(stalled < 256, "fan-in deadlocked");
    }

    let snap = store.snapshot();
    assert_eq!(snap.streams.len(), (CONNS * STREAMS_PER_CONN) as usize);
    for (id, want) in &reference {
        assert_eq!(
            snap.streams[&StreamId(*id)].to_vec(),
            *want,
            "stream {id} must survive torn partial writes byte-identically"
        );
    }
}
