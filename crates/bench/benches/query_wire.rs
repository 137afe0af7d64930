//! Remote query wire cost: round-trip latency and bytes per query for
//! the `pla-query` serving tier (`QueryClient` ↔ `QueryServer` over a
//! memory link).
//!
//! Each iteration is one complete serving round — dial, versioned
//! handshake, a pipelined burst of requests, and every response
//! decoded — the unit a remote reader pays per refresh. `Elements`
//! cells report queries/second (ns/iter ÷ burst = per-query latency);
//! the `wire_bytes` cell reports bytes/second over the same burst, so
//! bytes/query is its throughput divided by the burst size.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use pla_core::Segment;
use pla_ingest::{SegmentStore, StoreConfig, StreamId};
use pla_net::listen::MemoryAcceptor;
use pla_net::{MemoryRedial, NetConfig};
use pla_query::{Query, QueryClient, QueryClientConfig, QueryServer};

const STREAMS: u64 = 32;
const SEGMENTS_PER_STREAM: usize = 256;
const LINK_CAPACITY: usize = 64 * 1024;

fn populated_store() -> Arc<SegmentStore> {
    let store = Arc::new(SegmentStore::with_config(StoreConfig { shards: 4, seal_threshold: 64 }));
    for stream in 0..STREAMS {
        for i in 0..SEGMENTS_PER_STREAM {
            let (t0, t1) = (i as f64, i as f64 + 1.0);
            let seg = Segment {
                t_start: t0,
                t_end: t1,
                x_start: [t0 * 0.5].into(),
                x_end: [t1 * 0.5].into(),
                connected: i > 0,
                n_points: 2,
                new_recordings: 2,
            };
            store.append(1, StreamId(stream), seg);
        }
    }
    store
}

/// A pipelined burst: point lookups spread across streams and times,
/// plus a range aggregate per fourth query to keep the response sizes
/// honest.
fn burst(n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| {
            let stream = i as u64 % STREAMS;
            let t = (i % (SEGMENTS_PER_STREAM - 1)) as f64 + 0.5;
            if i % 4 == 3 {
                Query::Range { stream, a: t, b: t + 16.0, dim: 0 }
            } else {
                Query::Point { stream, t, dim: 0 }
            }
        })
        .collect()
}

/// One full serving round; returns wire bytes moved in both directions.
fn serve_round(store: &Arc<SegmentStore>, queries: &[Query]) -> u64 {
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut server = QueryServer::new(acceptor, Arc::clone(store), NetConfig::default());
    let mut client =
        QueryClient::new(MemoryRedial::new(connector, LINK_CAPACITY), QueryClientConfig::default());

    let t0 = Instant::now();
    let ids: Vec<u64> = queries.iter().map(|q| client.submit(q.clone(), t0)).collect();
    let mut now = t0;
    let mut answered = 0usize;
    while answered < ids.len() {
        now += Duration::from_millis(1);
        client.pump_at(now);
        server.pump();
        let completed = client.take_completed();
        for (_, outcome) in &completed {
            outcome.as_ref().expect("healthy link answers every query");
        }
        answered += completed.len();
    }
    let stats = server.stats();
    stats.bytes_in + stats.bytes_out
}

fn query_wire(c: &mut Criterion) {
    let store = populated_store();
    let mut group = c.benchmark_group("query_wire");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);

    for &pipelined in &[1usize, 16, 128] {
        let queries = burst(pipelined);
        group.throughput(Throughput::Elements(pipelined as u64));
        group
            .bench_function(BenchmarkId::new("roundtrip", format!("pipelined={pipelined}")), |b| {
                b.iter(|| black_box(serve_round(&store, &queries)))
            });
    }

    // Same burst measured in bytes: throughput ÷ 128 = bytes/query.
    let queries = burst(128);
    let wire_bytes = serve_round(&store, &queries);
    group.throughput(Throughput::Bytes(wire_bytes));
    group.bench_function(BenchmarkId::new("wire_bytes", "pipelined=128"), |b| {
        b.iter(|| black_box(serve_round(&store, &queries)))
    });

    group.finish();
}

criterion_group!(benches, query_wire);
criterion_main!(benches);
