//! Integration tests for [`StoreQueryEngine`] against live store
//! snapshots, including the acceptance pin that point lookups stay
//! O(log n) in the number of segments, and the pin that the grid
//! [`QueryEngine`] answers exactly what the store engine answers.

use pla_core::filters::{run_filter, SlideFilter, SwingFilter};
use pla_core::{GapPolicy, Polyline, Segment, Signal};
use pla_ingest::{SegmentStore, StoreConfig, StreamId};
use pla_query::{QueryEngine, QueryError, StoreQueryEngine};

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

/// Seeded random walk: `n` unit-spaced samples of `dims` dimensions.
fn walk(n: usize, dims: usize, seed: u64) -> Signal {
    let mut state = seed | 1;
    let mut x = vec![0.0; dims];
    let mut signal = Signal::with_capacity(dims, n);
    for j in 0..n {
        for v in &mut x {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v += ((state >> 33) as f64 / (1u64 << 31) as f64) * 2.0 - 1.0;
        }
        signal.push(j as f64, &x).unwrap();
    }
    signal
}

/// Swing and slide output over seeded walks at d = 1 and d = 2, each
/// behind a grid engine over its `Polyline` and a store engine over a
/// store holding the same segments (as stream 4, across sealed runs).
fn agreement_cases() -> Vec<(Signal, Vec<f64>, QueryEngine, StoreQueryEngine)> {
    let mut cases = Vec::new();
    for dims in [1, 2] {
        for seed in 1..=3 {
            let signal = walk(300, dims, seed);
            let eps: Vec<f64> = (0..dims).map(|d| 0.5 + 0.25 * d as f64).collect();
            let outputs = [
                run_filter(&mut SwingFilter::new(&eps).unwrap(), &signal).unwrap(),
                run_filter(&mut SlideFilter::new(&eps).unwrap(), &signal).unwrap(),
            ];
            for segs in outputs {
                let grid = QueryEngine::new(Polyline::new(segs.clone()), &eps).unwrap();
                let store =
                    SegmentStore::with_config(StoreConfig { shards: 2, seal_threshold: 16 });
                store.append_batch(1, StreamId(4), &mut segs.clone());
                cases.push((
                    signal.clone(),
                    eps.clone(),
                    grid,
                    StoreQueryEngine::new(store.snapshot()),
                ));
            }
        }
    }
    cases
}

/// On the sample grid, `count_above` agrees bit for bit; on one-time
/// grids (sample times and the midpoints between them, which may fall
/// in gaps between disconnected segments) `min` and `max` are exactly
/// the store engine's `point`.
#[test]
fn grid_engine_agrees_with_store_engine_bit_for_bit() {
    for (signal, eps, grid, store) in agreement_cases() {
        let times = signal.times();
        for (dim, &e) in eps.iter().enumerate() {
            for threshold in [-6.0, -1.5, 0.0, 2.5, 8.0] {
                assert_eq!(
                    grid.count_above(times, dim, threshold).unwrap(),
                    store.count_above(StreamId(4), times, dim, threshold, e).unwrap()
                );
            }
            let last = times[times.len() - 1];
            for t in times.iter().flat_map(|&t| [t, t + 0.5]).filter(|&t| t <= last) {
                let want = store.point(StreamId(4), t, dim).unwrap().to_bits();
                assert_eq!(grid.min(&[t], dim).unwrap().value.to_bits(), want, "min at t={t}");
                assert_eq!(grid.max(&[t], dim).unwrap().value.to_bits(), want, "max at t={t}");
            }
        }
    }
}

/// `QueryEngine::integral` is the store engine's piecewise-exact range
/// integral, bit for bit.
#[test]
fn grid_integral_is_the_store_range_integral() {
    for (signal, eps, grid, store) in agreement_cases() {
        let last = signal.times()[signal.len() - 1];
        for dim in 0..eps.len() {
            for (a, b) in [(0.0, last), (0.3, last - 17.6), (41.5, 41.5), (12.25, 13.0)] {
                assert_eq!(
                    grid.integral(a, b, dim).unwrap().value.to_bits(),
                    store.range(StreamId(4), a, b, dim).unwrap().integral.to_bits(),
                    "integral over [{a}, {b}]"
                );
            }
        }
    }
}

/// Edge inputs of the grid engine: an empty polyline covers nothing
/// (it is neither an unknown stream nor a bad dimension), an integral
/// past the span is uncovered like every other query, and errors keep
/// their precedence: `BadDimension`, then `EmptyGrid`, then `Uncovered`.
#[test]
fn grid_engine_edge_inputs_are_typed() {
    let empty = QueryEngine::new(Polyline::new(vec![]), &[0.5]).unwrap();
    assert_eq!(empty.mean(&[1.0], 0), Err(QueryError::Uncovered { t: 1.0 }));
    assert_eq!(empty.count_above(&[1.0], 0, 0.0), Err(QueryError::Uncovered { t: 1.0 }));
    assert_eq!(empty.integral(0.0, 1.0, 0), Err(QueryError::Uncovered { t: 0.0 }));
    assert_eq!(empty.mean(&[], 3), Err(QueryError::BadDimension(3)));
    assert_eq!(empty.mean(&[], 0), Err(QueryError::EmptyGrid));

    let ramp = QueryEngine::new(Polyline::new((0..10).map(seg).collect()), &[0.5]).unwrap();
    assert_eq!(ramp.integral(2.0, 12.0, 0), Err(QueryError::Uncovered { t: 12.0 }));
    assert_eq!(ramp.integral(5.0, 4.0, 1), Err(QueryError::BadDimension(1)));
    assert_eq!(ramp.integral(5.0, 4.0, 0), Err(QueryError::EmptyGrid));
    assert_eq!(ramp.count_above(&[], 1, 0.0), Err(QueryError::BadDimension(1)));
    assert_eq!(ramp.count_above(&[], 0, 0.0), Err(QueryError::EmptyGrid));
    assert_eq!(ramp.crossings(&[1.0, 11.0], 0, 0.0), Err(QueryError::Uncovered { t: 11.0 }));
}
