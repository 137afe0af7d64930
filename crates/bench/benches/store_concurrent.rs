//! Serving-tier store benchmarks: the O(streams) shared snapshot
//! against the deep-copy baseline it replaced, point-query latency on a
//! live snapshot, and snapshot throughput while a collector-style
//! writer fans segments in.
//!
//! The `snapshot` A/B pair is the PR's headline number: at 128 streams
//! × 10k segments each, `snapshot()` clones run pointers and short
//! tails while `snapshot_deep()` copies every segment — the shared path
//! must be at least an order of magnitude cheaper.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use pla_core::Segment;
use pla_ingest::{SegmentStore, StoreConfig, StreamId};
use pla_query::StoreQueryEngine;

const STREAMS: usize = 128;
const SEGMENTS_PER_STREAM: usize = 10_000;

fn seg(stream: u64, k: usize) -> Segment {
    let t0 = k as f64;
    let v = (stream as f64) + (k % 11) as f64;
    Segment {
        t_start: t0,
        x_start: [v].into(),
        t_end: t0 + 1.0,
        x_end: [v + 0.5].into(),
        connected: false,
        n_points: 4,
        new_recordings: 4,
    }
}

fn preloaded_store() -> SegmentStore {
    let store = SegmentStore::with_config(StoreConfig::default());
    let mut batch = Vec::with_capacity(SEGMENTS_PER_STREAM);
    for s in 0..STREAMS as u64 {
        batch.clear();
        batch.extend((0..SEGMENTS_PER_STREAM).map(|k| seg(s, k)));
        store.append_batch(s % 4, StreamId(s), &mut batch);
    }
    store
}

/// `snapshot()` vs `snapshot_deep()` on the same populated store.
fn snapshot_ab(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_concurrent");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    let store = preloaded_store();
    let total = store.total_segments();
    group.throughput(Throughput::Elements(total));
    let label = format!("streams={STREAMS}x{SEGMENTS_PER_STREAM}");
    group.bench_function(BenchmarkId::new("snapshot_shared", &label), |b| {
        b.iter(|| black_box(store.snapshot()))
    });
    group.bench_function(BenchmarkId::new("snapshot_deep", &label), |b| {
        b.iter(|| black_box(store.snapshot_deep()))
    });

    // Point queries against a live snapshot: two-level binary search
    // over sealed runs, no polyline materialized.
    const LOOKUPS: u64 = 1024;
    let engine = StoreQueryEngine::new(store.snapshot());
    group.throughput(Throughput::Elements(LOOKUPS));
    group.bench_function(BenchmarkId::new("point_query", format!("lookups={LOOKUPS}")), |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..LOOKUPS {
                let s = i % STREAMS as u64;
                let t = ((i.wrapping_mul(2654435761)) % SEGMENTS_PER_STREAM as u64) as f64 + 0.5;
                acc += engine.point(StreamId(s), t, 0).unwrap();
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// Snapshot throughput under live write load: a collector-style writer
/// fans one sealed run per stream into a fresh store while the reader
/// snapshots in a loop. One iteration is the full burst; throughput is
/// segments fanned in.
fn snapshot_contended(c: &mut Criterion) {
    const HOT_STREAMS: u64 = 64;
    const RUN: usize = 64; // one sealed run per stream per burst
    let mut group = c.benchmark_group("store_concurrent");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    group.throughput(Throughput::Elements(HOT_STREAMS * RUN as u64));
    group.bench_function(
        BenchmarkId::new("contended_fanin", format!("streams={HOT_STREAMS}")),
        |b| {
            b.iter(|| {
                let store = SegmentStore::with_config(StoreConfig::default());
                let mut snapshots = 0usize;
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        let mut batch = Vec::with_capacity(RUN);
                        for s in 0..HOT_STREAMS {
                            batch.clear();
                            batch.extend((0..RUN).map(|k| seg(s, k)));
                            store.append_batch(0, StreamId(s), &mut batch);
                        }
                    });
                    while store.total_segments() < HOT_STREAMS * RUN as u64 {
                        snapshots += black_box(store.snapshot()).streams.len().min(1);
                    }
                });
                black_box((store.snapshot(), snapshots))
            })
        },
    );
    group.finish();
}

criterion_group!(benches, snapshot_ab, snapshot_contended);
criterion_main!(benches);
