//! Integration tests for [`StoreQueryEngine`] against live store
//! snapshots, including the acceptance pin that point lookups stay
//! O(log n) in the number of segments.

use pla_core::{GapPolicy, Polyline, Segment};
use pla_ingest::{SegmentStore, StoreConfig, StreamId};
use pla_query::StoreQueryEngine;

fn seg(k: usize) -> Segment {
    let t0 = k as f64;
    // A mild zig-zag so evaluation inside a segment is non-trivial.
    let v0 = (k % 7) as f64;
    let v1 = ((k + 1) % 7) as f64;
    Segment {
        t_start: t0,
        x_start: [v0].into(),
        t_end: t0 + 1.0,
        x_end: [v1].into(),
        connected: false,
        n_points: 4,
        new_recordings: 4,
    }
}

fn store_with(n: usize) -> SegmentStore {
    let store = SegmentStore::with_config(StoreConfig { shards: 4, seal_threshold: 64 });
    let mut segs: Vec<Segment> = (0..n).map(seg).collect();
    store.append_batch(1, StreamId(7), &mut segs);
    store
}

/// Deterministic pseudo-random probe times spread over the stream span.
fn probes(n: usize) -> impl Iterator<Item = f64> {
    (0..512u64).map(move |i| {
        let j = (i.wrapping_mul(2654435761)) % n as u64;
        j as f64 + 0.25 + (i % 3) as f64 * 0.25
    })
}

/// The acceptance pin: comparison counts for point lookups grow
/// logarithmically with the log size. The lookup is two binary searches
/// (run starts, then inside one run) plus a constant number of coverage
/// checks, so `c1·log2(n) + c2` bounds it with small constants.
#[test]
fn point_lookup_comparisons_stay_logarithmic() {
    let mut worst = Vec::new();
    for n in [128usize, 1024, 8192, 65536] {
        let engine = StoreQueryEngine::new(store_with(n).snapshot());
        let mut max_cmp = 0usize;
        for t in probes(n) {
            let (v, stats) = engine.point_with_stats(StreamId(7), t, 0).unwrap();
            assert!(v.is_finite());
            max_cmp = max_cmp.max(stats.comparisons);
        }
        let log2n = (n as f64).log2();
        let bound = (2.0 * log2n + 16.0) as usize;
        assert!(
            max_cmp <= bound,
            "n={n}: worst lookup used {max_cmp} comparisons, bound is {bound}"
        );
        worst.push((n, max_cmp));
    }
    // Going 128 → 65536 multiplies n by 512; a scan would multiply the
    // comparison count similarly. Log growth keeps the ratio tiny.
    let (_, small) = worst[0];
    let (_, large) = worst[worst.len() - 1];
    assert!(
        large <= small.saturating_mul(4).max(small + 24),
        "comparisons grew from {small} to {large} across a 512× size increase"
    );
}

/// Point queries against the live snapshot agree with materializing the
/// flat log into a `Polyline` and evaluating it — same find preference,
/// same in-segment interpolation.
#[test]
fn point_queries_match_polyline_evaluation() {
    let n = 1000;
    let store = store_with(n);
    let engine = StoreQueryEngine::new(store.snapshot());
    let poly = Polyline::new(store.stream_segments(StreamId(7)).unwrap());
    for t in probes(n) {
        let want = poly.eval(t, 0, GapPolicy::Strict).unwrap();
        let got = engine.point(StreamId(7), t, 0).unwrap();
        assert_eq!(got.to_bits(), want.to_bits(), "divergence at t={t}");
    }
    // Boundary instants too: the later abutting segment wins in both.
    for k in 1..50 {
        let t = k as f64;
        assert_eq!(
            engine.point(StreamId(7), t, 0).unwrap().to_bits(),
            poly.eval(t, 0, GapPolicy::Strict).unwrap().to_bits()
        );
    }
}

/// Range aggregates over a known ramp are exact.
#[test]
fn range_aggregate_is_piecewise_exact_over_runs() {
    // Identity ramp: value == time, spanning many sealed runs.
    let store = SegmentStore::with_config(StoreConfig { shards: 2, seal_threshold: 8 });
    let mut segs: Vec<Segment> = (0..200)
        .map(|k| {
            let t0 = k as f64;
            Segment {
                t_start: t0,
                x_start: [t0].into(),
                t_end: t0 + 1.0,
                x_end: [t0 + 1.0].into(),
                connected: true,
                n_points: 2,
                new_recordings: 2,
            }
        })
        .collect();
    store.append_batch(1, StreamId(3), &mut segs);
    let engine = StoreQueryEngine::new(store.snapshot());

    let agg = engine.range(StreamId(3), 10.5, 90.5, 0).unwrap();
    assert_eq!(agg.min, 10.5);
    assert_eq!(agg.max, 90.5);
    // ∫ t dt over [10.5, 90.5] = (90.5² − 10.5²)/2 = 4040.
    assert!((agg.integral - 4040.0).abs() < 1e-9);
    assert!((agg.mean - 50.5).abs() < 1e-12);
}
