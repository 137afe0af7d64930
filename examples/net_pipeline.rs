//! Multiplexed fleet uplink: many sensors → one shard-per-core ingest
//! engine → one framed, credit-controlled session → a collector's
//! store — surviving a mid-stream disconnect.
//!
//! ```text
//! cargo run --release --example net_pipeline
//! ```
//!
//! The paper's transmitter/receiver pipeline assumes one reliable link
//! per stream; a collector serving a fleet multiplexes thousands of
//! streams over few connections. This example runs the whole
//! production-shaped path from one plain loop that pumps each end in
//! turn and sleeps 1 ms after a round that moved nothing:
//!
//! 1. 32 sensor streams feed an `IngestEngine` (filtering happens
//!    shard-per-core); the engine's live segment tap feeds an uplink;
//! 2. the uplink multiplexes segments into sequenced, credit-limited
//!    frames on a `SessionSender` over an in-memory link (swap in
//!    `TcpRedial`/`TcpAcceptor` for sockets), and a `Collector`
//!    publishes them into a `SegmentStore`;
//! 3. halfway through, the connection is severed — bytes in flight are
//!    lost — and the session heals itself: the sender redials and
//!    presents its session token, the collector rebinds the same
//!    connection and answers with its cumulative ack, the sender resends
//!    only its unacknowledged frames, and the collector drops duplicates
//!    by session sequence number;
//! 4. the store holds every segment exactly once, verified against the
//!    ε guarantee.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pla::core::filters::{FilterKind, FilterSpec};
use pla::ingest::{IngestConfig, IngestEngine, SegmentStore, StreamId};
use pla::net::listen::MemoryAcceptor;
use pla::net::uplink::{EngineUplink, UplinkStatus};
use pla::net::{Collector, ConnId, MemoryRedial, NetConfig, SessionConfig, SessionSender};
use pla::signal::{random_walk, WalkParams};
use pla::transport::wire::FixedCodec;

const STREAMS: u64 = 32;
const SAMPLES: usize = 2_000;
const EPSILON: f64 = 0.4;
/// The sender's connection: the collector numbers connections from 1.
const CONN: ConnId = ConnId(1);

fn main() {
    // --- 1. fleet ingest -------------------------------------------------
    let (engine, tap) = IngestEngine::with_segment_tap(IngestConfig {
        shards: 4,
        queue_depth: 256,
        shard_log: false,
    });
    let handle = engine.handle();
    let mut signals = Vec::new();
    for id in 0..STREAMS {
        handle
            .register(StreamId(id), FilterSpec::new(FilterKind::Slide, &[EPSILON]))
            .expect("register stream");
        signals.push(random_walk(WalkParams {
            n: SAMPLES,
            p_decrease: 0.5,
            max_delta: 0.8,
            seed: 0xF1EE7 ^ id,
        }));
    }
    for (id, signal) in signals.iter().enumerate() {
        let samples: Vec<(f64, &[f64])> = signal.iter().collect();
        handle.push_batch(StreamId(id as u64), &samples).expect("feed");
    }
    let report = engine.finish();
    let total_segments = report.total_segments() as u64;
    println!(
        "ingest: {} streams, {} samples -> {} segments ({} shards)",
        report.streams.len(),
        report.total_samples(),
        total_segments,
        report.shards.len()
    );

    // --- 2.+3. one multiplexed session, with a forced sever --------------
    let cfg = NetConfig { window: 4 * 1024, max_frame: 1 << 20 };
    let sess = SessionConfig::default();
    let store = Arc::new(SegmentStore::new());
    let acceptor = MemoryAcceptor::new();
    let redial = MemoryRedial::new(acceptor.connector(), 1024);
    let mut collector = Collector::with_sessions(FixedCodec, 1, cfg, sess, acceptor, store.clone());
    let mut tx = SessionSender::new(FixedCodec, 1, cfg, sess, redial, Instant::now());
    let mut uplink = EngineUplink::new(tap);
    let mut finned = false;
    let mut severed = false;
    loop {
        // Feed the sender from the engine tap (credit-limited).
        let status = uplink.pump(tx.mux_mut()).expect("uplink");
        if status == UplinkStatus::Drained && !finned {
            tx.mux_mut().finish_all();
            finned = true;
        }

        // Sever the link once, mid-transfer. No reconnect call follows:
        // the session redials and resumes on its own.
        let published = store.watermark(CONN.0).map_or(0, |w| w.segments);
        if !severed && tx.is_established() && published >= total_segments / 2 {
            tx.redial().last_link().expect("dialed").sever();
            severed = true;
            println!(
                "!! connection severed after {published} segments landed; in-flight bytes lost"
            );
        }

        let moved = tx.pump();
        if let Some(e) = tx.failure() {
            panic!("session failed: {e}");
        }
        let moved = moved + collector.pump().expect("collector");
        if finned && tx.mux().is_idle() && collector.conn_complete(CONN) {
            break;
        }
        if moved == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // --- 4. verify the reconstruction ------------------------------------
    let stats = collector.stats();
    assert_eq!(stats.connections, 1, "the resume rebound the same connection");
    assert_eq!(stats.resumes, 1, "the sever was healed by exactly one token resume");
    assert_eq!(tx.stats().established, 2, "first handshake plus the resume");
    println!(
        "-> resumed by session token after {} dials; sender replayed its \
         unacknowledged tail, collector dropped {} duplicate entries",
        tx.stats().dials,
        stats.dup_drops
    );
    let snap = store.snapshot();
    assert_eq!(snap.streams.len(), STREAMS as usize);
    assert_eq!(snap.total_segments, total_segments, "every segment landed exactly once");
    let mut worst = 0.0f64;
    for (id, signal) in signals.iter().enumerate() {
        let log = &snap.streams[&StreamId(id as u64)];
        for (t, x) in signal.iter() {
            if let Some(seg) = log.iter().find(|s| s.covers(t)) {
                worst = worst.max((seg.eval(t, 0) - x[0]).abs());
            }
        }
    }
    println!(
        "stored {} segments across {STREAMS} streams after 1 resume; \
         worst in-segment error {worst:.4} <= ε = {EPSILON}",
        snap.total_segments
    );
    assert!(worst <= EPSILON * (1.0 + 1e-6));
}
