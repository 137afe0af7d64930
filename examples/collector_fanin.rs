//! Many-connection collector: a fleet of edge senders, each on its own
//! TCP connection, fanning into one shared `SegmentStore`.
//!
//! ```text
//! cargo run --release --example collector_fanin
//! ```
//!
//! This is the paper's deployment picture end-to-end: every sensor
//! compresses its stream at the edge (here, a `SwingFilter` per
//! stream), multiplexes its streams' segments over one socket, and the
//! base station's `Collector` reconstructs all of them — one
//! `NetReceiver` per accepted connection, every segment published as
//! `(ConnId, StreamId, Segment)` into one queryable store. Each sensor
//! is a `SessionSender`: it opens with a `Hello`, is issued a session
//! token, and would redial and resume by that token on its own if its
//! socket died. The collector's per-connection tasks re-pump on a 1 ms
//! timer when idle, so a liveness deadline fires even on a socket that
//! wedges silently.
//!
//! (For one session severed mid-stream and healing itself — redial,
//! token resume, replay of the unacknowledged tail — see
//! `examples/net_pipeline.rs`.)

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use pla::core::filters::{run_filter, FilterKind};
use pla::ingest::SegmentStore;
use pla::net::listen::TcpAcceptor;
use pla::net::{collector, runtime, Collector, NetConfig, SessionConfig, SessionSender, TcpRedial};
use pla::signal::{random_walk, WalkParams};
use pla::transport::wire::FixedCodec;

const SENSORS: u64 = 6; // connections
const STREAMS_PER_SENSOR: u64 = 8;
const SAMPLES: usize = 2_000;
const EPSILON: f64 = 0.4;

fn main() {
    let cfg = NetConfig::default();
    let sess = SessionConfig::default();
    let acceptor = match TcpAcceptor::bind("127.0.0.1:0") {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot bind loopback ({e}); this example needs TCP networking");
            return;
        }
    };
    let addr = acceptor.local_addr().expect("bound address");
    let store = Arc::new(SegmentStore::new());
    let collector = Rc::new(RefCell::new(Collector::with_sessions(
        FixedCodec,
        1,
        cfg,
        sess,
        acceptor,
        store.clone(),
    )));

    // --- edge fleet: one thread per sensor node ------------------------
    let mut expected = 0u64;
    let mut workers = Vec::new();
    for sensor in 0..SENSORS {
        // Compress this sensor's streams up front so the example's
        // timing shows transport, not filtering.
        let mut logs = Vec::new();
        for s in 0..STREAMS_PER_SENSOR {
            let id = sensor * STREAMS_PER_SENSOR + s;
            let signal = random_walk(WalkParams {
                n: SAMPLES,
                p_decrease: 0.5,
                max_delta: 0.8,
                seed: 0xFA7 ^ id,
            });
            let mut filter = FilterKind::Swing.build(&[EPSILON]).expect("valid eps");
            let segments = run_filter(filter.as_mut(), &signal).expect("valid signal");
            expected += segments.len() as u64;
            logs.push((id, segments));
        }
        workers.push(std::thread::spawn(move || {
            let redial = TcpRedial::new(addr);
            let mut tx = SessionSender::new(FixedCodec, 1, cfg, sess, redial, Instant::now());
            let mut cursors = vec![0usize; logs.len()];
            loop {
                let mut done = true;
                for (i, (id, segments)) in logs.iter().enumerate() {
                    while cursors[i] < segments.len() {
                        match tx.mux_mut().try_send_segment(*id, &segments[cursors[i]]) {
                            Ok(()) => cursors[i] += 1,
                            Err(pla::net::NetError::Backpressure) => break,
                            Err(e) => panic!("send failed: {e}"),
                        }
                    }
                    if cursors[i] < segments.len() {
                        done = false;
                    }
                }
                if done {
                    tx.mux_mut().finish_all();
                }
                tx.pump();
                if let Some(e) = tx.failure() {
                    panic!("uplink session failed: {e}");
                }
                if done && tx.mux().is_idle() {
                    return;
                }
                std::thread::yield_now();
            }
        }));
    }

    // --- base station: the collector on the async runtime --------------
    let start = std::time::Instant::now();
    let reactor = runtime::block_on({
        let collector = collector.clone();
        async move {
            let kind = runtime::active_reactor();
            // Done once every segment landed *and* every connection's
            // acks went out: a sender's 0-RTT data is published while
            // its handshake completes, before its `HelloAck` is written.
            let done = |c: &Collector<_, _>| {
                let stats = c.stats();
                stats.segments >= expected && stats.conns.iter().all(|s| c.conn_complete(s.conn))
            };
            collector::drive_collector(collector, done).await.expect("collector");
            kind
        }
    });
    let elapsed = start.elapsed();
    for w in workers {
        w.join().expect("sensor thread");
    }

    // --- what landed ----------------------------------------------------
    let stats = collector.borrow().stats();
    let snap = store.snapshot();
    println!("reactor: {reactor:?}");
    println!(
        "{} connections, {} streams, {} segments collected in {:.1} ms",
        stats.connections,
        snap.streams.len(),
        snap.total_segments,
        elapsed.as_secs_f64() * 1e3
    );
    for conn in &stats.conns {
        let mark = store.watermark(conn.conn.0).expect("watermark");
        println!(
            "  {}: {} entries, {} segments, covered through t={:.0}, {} bytes moved",
            conn.conn,
            conn.receiver.frames_applied,
            conn.published,
            mark.covered_through,
            conn.bytes_moved
        );
    }
    assert_eq!(snap.total_segments, expected);
    assert_eq!(snap.streams.len(), (SENSORS * STREAMS_PER_SENSOR) as usize);
    // Every stream's log reconstructs within the ε guarantee — spot-check
    // the segment count per stream is sane.
    for (id, log) in &snap.streams {
        assert!(!log.is_empty(), "{id} lost its log");
    }
    println!("store snapshot verified: every stream's log present, ε-guaranteed at the edge");
}
