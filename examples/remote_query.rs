//! Remote query serving end-to-end over real sockets: an edge fleet
//! compresses its streams and ships them over TCP into the collector's
//! shared `SegmentStore`, then a *remote reader* on its own TCP
//! connection queries the store through `QueryServer`/`QueryClient` —
//! and every answer is verified bit-identical to running the local
//! `StoreQueryEngine` on the same snapshot.
//!
//! ```text
//! cargo run --release --example remote_query
//! ```
//!
//! Two listening sockets, both on ephemeral loopback ports: the
//! collector's (a session `Hello` handshake, then segment ingest,
//! `Batch`/`Ack` frames) and the
//! query server's (versioned `Hello` handshake, then pipelined
//! `QueryReq`/`QueryResp` + `EpochsReq`/`EpochsResp`). The reader also
//! demonstrates the epoch-validated `SnapshotCache`: after one epochs
//! probe, re-asking the same queries is answered locally with zero
//! wire traffic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pla::core::filters::{run_filter, FilterKind};
use pla::ingest::SegmentStore;
use pla::net::listen::TcpAcceptor;
use pla::net::session::TcpRedial;
use pla::net::{Collector, NetConfig, SessionConfig, SessionSender};
use pla::query::{
    Cached, Query, QueryClient, QueryClientConfig, QueryServer, Response, StoreQueryEngine,
};
use pla::signal::{random_walk, WalkParams};
use pla::transport::wire::FixedCodec;

const SENSORS: u64 = 3;
const STREAMS_PER_SENSOR: u64 = 4;
const SAMPLES: usize = 1_500;
const EPSILON: f64 = 0.4;

/// Pumps the client against the wall clock until every id completes.
fn await_all(client: &mut QueryClient<TcpRedial>, ids: &[u64]) -> BTreeMap<u64, Response> {
    let mut done = BTreeMap::new();
    while done.len() < ids.len() {
        client.pump_at(Instant::now());
        for (id, outcome) in client.take_completed() {
            done.insert(id, outcome.expect("healthy server answers"));
        }
        std::thread::yield_now();
    }
    done
}

fn main() {
    let cfg = NetConfig::default();
    let sess = SessionConfig::default();
    let (ingest_acceptor, query_acceptor) =
        match (TcpAcceptor::bind("127.0.0.1:0"), TcpAcceptor::bind("127.0.0.1:0")) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("cannot bind loopback ({e}); this example needs TCP networking");
                return;
            }
        };
    let ingest_addr = ingest_acceptor.local_addr().expect("bound address");
    let query_addr = query_acceptor.local_addr().expect("bound address");
    let store = Arc::new(SegmentStore::new());

    // --- edge fleet: compress, then ship over TCP -----------------------
    let mut expected = 0u64;
    let mut workers = Vec::new();
    for sensor in 0..SENSORS {
        let mut logs = Vec::new();
        for s in 0..STREAMS_PER_SENSOR {
            let id = sensor * STREAMS_PER_SENSOR + s;
            let signal = random_walk(WalkParams {
                n: SAMPLES,
                p_decrease: 0.5,
                max_delta: 0.8,
                seed: 0xD1A1 ^ id,
            });
            let mut filter = FilterKind::Swing.build(&[EPSILON]).expect("valid eps");
            let segments = run_filter(filter.as_mut(), &signal).expect("valid signal");
            expected += segments.len() as u64;
            logs.push((id, segments));
        }
        workers.push(std::thread::spawn(move || {
            let redial = TcpRedial::new(ingest_addr);
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

    // --- base station: collect everything, then serve queries -----------
    let mut collector =
        Collector::with_sessions(FixedCodec, 1, cfg, sess, ingest_acceptor, store.clone());
    // Every segment landed and every connection's acks went out (0-RTT
    // data is published before the `HelloAck` is written).
    let done = |c: &Collector<_, _>| {
        let stats = c.stats();
        stats.segments >= expected && stats.conns.iter().all(|s| c.conn_complete(s.conn))
    };
    while !done(&collector) {
        if collector.pump().expect("collector") == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    for w in workers {
        w.join().expect("sensor thread");
    }
    let snap = store.snapshot();
    println!(
        "collected {} segments across {} streams; query server on {query_addr}",
        snap.total_segments,
        snap.streams.len()
    );

    // --- remote reader on its own thread, real TCP round trips ----------
    let reader_done = Arc::new(AtomicBool::new(false));
    let reader = {
        let done = reader_done.clone();
        std::thread::spawn(move || {
            let mut client =
                QueryClient::new(TcpRedial::new(query_addr), QueryClientConfig::default());
            let now = Instant::now();

            // Discover the streams, validate the cache's epoch view.
            let streams_id = client.submit(Query::Streams, now);
            let probe_id = client.probe_epochs(now);
            let first = await_all(&mut client, &[streams_id, probe_id]);
            let Response::Result(pla::query::QueryResult::Streams(streams)) = &first[&streams_id]
            else {
                panic!("Streams answers with a stream list");
            };

            // One mixed burst per discovered stream, all pipelined.
            let now = Instant::now();
            let queries: Vec<Query> = streams
                .iter()
                .flat_map(|&stream| {
                    [
                        Query::Span { stream },
                        Query::Point { stream, t: 10.5, dim: 0 },
                        Query::Range { stream, a: 0.0, b: 100.0, dim: 0 },
                        Query::CountAbove {
                            stream,
                            dim: 0,
                            threshold: 0.0,
                            eps: EPSILON,
                            times: (0..32).map(|i| i as f64).collect(),
                        },
                    ]
                })
                .collect();
            let ids: Vec<u64> = queries
                .iter()
                .map(|q| match client.submit_cached(q.clone(), now) {
                    Cached::Sent(id) => id,
                    Cached::Hit(_) => unreachable!("nothing cached yet"),
                })
                .collect();
            let answers = await_all(&mut client, &ids);

            // Same questions again: the epoch-validated cache answers
            // every one locally, no wire traffic.
            let hits = queries
                .iter()
                .filter(|q| matches!(client.submit_cached((*q).clone(), now), Cached::Hit(_)))
                .count();
            let stats = client.stats();
            done.store(true, Ordering::Release);
            let results: Vec<(Query, pla::query::QueryResult)> = queries
                .into_iter()
                .zip(ids)
                .map(|(q, id)| match &answers[&id] {
                    Response::Result(r) => (q, r.clone()),
                    other => panic!("query answers with a result, got {other:?}"),
                })
                .collect();
            (results, hits, stats)
        })
    };

    // Serve until the reader is done, sleeping 1 ms after an idle round.
    let mut server = QueryServer::new(query_acceptor, store.clone(), cfg);
    while !reader_done.load(Ordering::Acquire) {
        if server.pump() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    server.pump();
    let (results, cache_hits, client_stats) = reader.join().expect("reader thread");

    // --- the serving contract: remote ≡ local, bit for bit --------------
    let engine = StoreQueryEngine::new(store.snapshot());
    for (query, remote) in &results {
        let local = query.run(&engine);
        assert_eq!(
            remote.encode(),
            local.encode(),
            "{query:?}: remote answer must be bit-identical to the local engine"
        );
    }
    let stats = server.stats();
    println!(
        "remote reader: {} answers bit-identical to the local engine, {} cache hits on re-ask",
        results.len(),
        cache_hits
    );
    println!(
        "wire: {} requests, {} bytes in / {} bytes out, {} engine rebuilds, {} redials",
        stats.requests, stats.bytes_in, stats.bytes_out, stats.rebuilds, client_stats.dials
    );
}
