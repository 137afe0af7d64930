//! End-to-end engine tests: the acceptance bar is that every per-stream
//! segment sequence coming out of the sharded engine is *identical* to
//! running that stream through a standalone filter — for any shard count,
//! under concurrent producers, and through the batch path.

use std::collections::BTreeMap;

use pla_core::filters::{FilterKind, FilterSpec};
use pla_core::{CollectingSink, Segment, Signal};
use pla_ingest::{shard_of, IngestConfig, IngestEngine, IngestError, StreamId};

/// A deterministic per-stream workload: a random walk seeded by the
/// stream id, so every test regenerates the same signals.
fn stream_signal(id: u64, n: usize) -> Signal {
    walk_signal(id, 1, n)
}

/// A `dims`-dimensional random walk at unit-spaced timestamps, seeded by
/// the stream id; every dimension takes its own steps.
fn walk_signal(id: u64, dims: usize, n: usize) -> Signal {
    let mut state = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let mut x: Vec<f64> = (0..dims).map(|_| rnd() * 10.0).collect();
    let mut signal = Signal::with_capacity(dims, n);
    for j in 0..n {
        for v in &mut x {
            *v += rnd();
        }
        signal.push(j as f64, &x).unwrap();
    }
    signal
}

/// The spec each stream uses: vary the filter family by id so every
/// family runs under the engine.
fn spec_for(id: u64) -> FilterSpec {
    let kind = match id % 4 {
        0 => FilterKind::Cache,
        1 => FilterKind::Linear,
        2 => FilterKind::Swing,
        _ => FilterKind::Slide,
    };
    FilterSpec::new(kind, &[0.4])
}

fn standalone_segments(id: u64, n: usize) -> Vec<Segment> {
    standalone_run(&spec_for(id), &stream_signal(id, n))
}

fn standalone_run(spec: &FilterSpec, signal: &Signal) -> Vec<Segment> {
    let mut filter = spec.build().unwrap();
    let mut sink = CollectingSink::default();
    for (t, x) in signal.iter() {
        filter.push(t, x, &mut sink).unwrap();
    }
    filter.finish(&mut sink).unwrap();
    sink.segments
}

/// Every float a segment carries, as raw bits: equal bits, not merely
/// equal values.
fn segment_bits(segments: &[Segment]) -> Vec<u64> {
    segments
        .iter()
        .flat_map(|s| {
            let scalars = [s.t_start, s.t_end].map(f64::to_bits);
            let flags = [u64::from(s.connected), s.n_points as u64, s.new_recordings as u64];
            scalars
                .into_iter()
                .chain(s.x_start.iter().chain(s.x_end.iter()).map(|v| v.to_bits()))
                .chain(flags)
        })
        .collect()
}

#[test]
fn sixty_four_streams_on_two_shards_match_standalone_filters() {
    const STREAMS: u64 = 64;
    const N: usize = 400;
    let engine = IngestEngine::new(IngestConfig { shards: 2, queue_depth: 64, shard_log: false });
    let h = engine.handle();
    for id in 0..STREAMS {
        h.register(StreamId(id), spec_for(id)).unwrap();
    }
    // Interleave all streams sample-by-sample, like a receiver multiplexing
    // many sensors on one wire.
    let signals: Vec<Signal> = (0..STREAMS).map(|id| stream_signal(id, N)).collect();
    for j in 0..N {
        for (id, signal) in signals.iter().enumerate() {
            let (t, x) = signal.sample(j);
            h.push(StreamId(id as u64), t, x).unwrap();
        }
    }
    let report = engine.finish();
    assert_eq!(report.streams.len(), STREAMS as usize);
    assert_eq!(report.quarantined(), 0);
    for id in 0..STREAMS {
        let expected = standalone_segments(id, N);
        let got = &report.streams[&StreamId(id)].segments;
        assert_eq!(got, &expected, "stream {id} diverged from its standalone filter");
    }
}

#[test]
fn concurrent_producers_preserve_per_stream_order() {
    const STREAMS_PER_PRODUCER: u64 = 8;
    const PRODUCERS: u64 = 4;
    const N: usize = 300;
    let engine = IngestEngine::new(IngestConfig { shards: 4, queue_depth: 16, shard_log: false });
    let h = engine.handle();
    for id in 0..STREAMS_PER_PRODUCER * PRODUCERS {
        h.register(StreamId(id), spec_for(id)).unwrap();
    }
    // Each producer thread owns a disjoint id range and feeds its streams
    // interleaved; shards receive racing traffic from all producers.
    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let h = engine.handle();
            scope.spawn(move || {
                let ids: Vec<u64> =
                    (0..STREAMS_PER_PRODUCER).map(|k| p * STREAMS_PER_PRODUCER + k).collect();
                let signals: Vec<Signal> = ids.iter().map(|&id| stream_signal(id, N)).collect();
                for j in 0..N {
                    for (&id, signal) in ids.iter().zip(&signals) {
                        let (t, x) = signal.sample(j);
                        h.push(StreamId(id), t, x).unwrap();
                    }
                }
            });
        }
    });
    let report = engine.finish();
    assert_eq!(report.quarantined(), 0);
    for id in 0..STREAMS_PER_PRODUCER * PRODUCERS {
        assert_eq!(
            &report.streams[&StreamId(id)].segments,
            &standalone_segments(id, N),
            "stream {id}: concurrent feed must preserve per-stream order"
        );
    }
}

#[test]
fn shard_count_does_not_change_any_stream_output() {
    const STREAMS: u64 = 24;
    const N: usize = 250;
    let mut outputs: Vec<BTreeMap<StreamId, Vec<Segment>>> = Vec::new();
    for shards in [1usize, 2, 4] {
        let engine = IngestEngine::new(IngestConfig { shards, queue_depth: 32, shard_log: false });
        let h = engine.handle();
        for id in 0..STREAMS {
            h.register(StreamId(id), spec_for(id)).unwrap();
        }
        for id in 0..STREAMS {
            let signal = stream_signal(id, N);
            let samples: Vec<(f64, &[f64])> = signal.iter().collect();
            // Feed in batches to exercise the batch path end to end.
            for chunk in samples.chunks(37) {
                h.push_batch(StreamId(id), chunk).unwrap();
            }
        }
        let report = engine.finish();
        outputs.push(report.streams.into_iter().map(|(id, out)| (id, out.segments)).collect());
    }
    assert_eq!(outputs[0], outputs[1], "1 shard vs 2 shards");
    assert_eq!(outputs[0], outputs[2], "1 shard vs 4 shards");
    assert_eq!(&outputs[0][&StreamId(3)], &standalone_segments(3, N));
}

#[test]
fn routing_is_stable_across_engines() {
    let a = IngestEngine::new(IngestConfig { shards: 4, queue_depth: 4, shard_log: false });
    let b = IngestEngine::new(IngestConfig { shards: 4, queue_depth: 4, shard_log: false });
    for id in 0..500u64 {
        assert_eq!(a.shard_of(StreamId(id)), b.shard_of(StreamId(id)));
        assert_eq!(a.shard_of(StreamId(id)), shard_of(StreamId(id), 4));
    }
    let _ = a.finish();
    let _ = b.finish();
}

#[test]
fn try_push_backpressure_never_loses_accepted_samples() {
    // A 1-deep queue on one shard: under a producer flood, try_push will
    // sometimes report Backpressure. The invariant under test: exactly the
    // accepted samples reach the filter, in order.
    let engine = IngestEngine::new(IngestConfig { shards: 1, queue_depth: 1, shard_log: false });
    let h = engine.handle();
    h.register(StreamId(1), FilterSpec::new(FilterKind::Swing, &[0.5])).unwrap();
    let mut accepted = 0u64;
    let mut t = 0.0;
    let mut backpressured = false;
    for _ in 0..5_000 {
        match h.try_push(StreamId(1), t, &[t * 0.5]) {
            Ok(()) => {
                accepted += 1;
                t += 1.0;
            }
            Err(IngestError::Backpressure) => backpressured = true,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let report = engine.finish();
    assert_eq!(report.streams[&StreamId(1)].samples_in, accepted);
    assert_eq!(report.quarantined(), 0);
    // Informational: on a loaded machine the worker may keep up and never
    // exert backpressure; the accounting invariant above is the real test.
    let _ = backpressured;
}

#[test]
fn per_sample_pushes_match_standalone_filters_on_both_sides_of_inline_dims() {
    // Single-sample pushes carry their values inline in the shard queue
    // up to INLINE_DIMS = 4 and in one heap buffer above; both forms must
    // hand the filter exactly the sample that was pushed.
    const STREAMS: u64 = 8;
    const N: usize = 300;
    for dims in [1usize, 4, 5, 9] {
        let spec = |id: u64| FilterSpec::new(spec_for(id).kind, &vec![0.4; dims]);
        let engine =
            IngestEngine::new(IngestConfig { shards: 2, queue_depth: 8, shard_log: false });
        let h = engine.handle();
        for id in 0..STREAMS {
            h.register(StreamId(id), spec(id)).unwrap();
        }
        let signals: Vec<Signal> = (0..STREAMS).map(|id| walk_signal(id, dims, N)).collect();
        for j in 0..N {
            for (id, signal) in signals.iter().enumerate() {
                let (t, x) = signal.sample(j);
                h.push(StreamId(id as u64), t, x).unwrap();
            }
        }
        let report = engine.finish();
        assert_eq!(report.quarantined(), 0, "d = {dims}");
        for (id, signal) in signals.iter().enumerate() {
            let id = id as u64;
            let expected = standalone_run(&spec(id), signal);
            let got = &report.streams[&StreamId(id)];
            assert_eq!(got.samples_in, N as u64, "d = {dims}, stream {id}");
            assert!(!got.segments.is_empty(), "d = {dims}, stream {id}: no segments");
            assert_eq!(
                segment_bits(&got.segments),
                segment_bits(&expected),
                "d = {dims}, stream {id} diverged from its standalone filter"
            );
        }
    }
}

#[test]
fn try_push_above_inline_dims_never_loses_accepted_samples() {
    // d = 5 spills each sample's values to the heap on its way through a
    // 4-deep queue. Exactly the accepted samples must reach the filter, in
    // order: the report equals a standalone run over the accepted ones.
    const DIMS: usize = 5;
    let spec = FilterSpec::new(FilterKind::Swing, &[0.5; DIMS]);
    let engine = IngestEngine::new(IngestConfig { shards: 1, queue_depth: 4, shard_log: false });
    let h = engine.handle();
    h.register(StreamId(1), spec.clone()).unwrap();
    let offered = walk_signal(1, DIMS, 5_000);
    let mut accepted = Signal::with_capacity(DIMS, offered.len());
    let mut t = 0.0;
    let mut rejected = 0u64;
    for (_, x) in offered.iter() {
        match h.try_push(StreamId(1), t, x) {
            Ok(()) => {
                accepted.push(t, x).unwrap();
                t += 1.0;
            }
            Err(IngestError::Backpressure) => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let report = engine.finish();
    assert_eq!(report.shards[0].backpressure, rejected, "every rejection is reported");
    let got = &report.streams[&StreamId(1)];
    assert_eq!(got.samples_in, accepted.len() as u64);
    assert_eq!(
        segment_bits(&got.segments),
        segment_bits(&standalone_run(&spec, &accepted)),
        "the accepted samples reached the filter intact and in order"
    );
}

#[test]
fn quarantine_under_load_spares_shard_mates() {
    // Find two ids that share a shard in a 2-shard engine.
    let sick = 5u64;
    let healthy = (0..100u64)
        .find(|&id| id != sick && shard_of(StreamId(id), 2) == shard_of(StreamId(sick), 2))
        .expect("some id shares the shard");
    let engine = IngestEngine::new(IngestConfig { shards: 2, queue_depth: 16, shard_log: false });
    let h = engine.handle();
    h.register(StreamId(sick), FilterSpec::new(FilterKind::Slide, &[0.5])).unwrap();
    h.register(StreamId(healthy), FilterSpec::new(FilterKind::Slide, &[0.5])).unwrap();
    for j in 0..100 {
        // The sick stream repeats t=0 forever: quarantined at its second
        // sample, the rest dropped.
        h.push(StreamId(sick), 0.0, &[1.0]).unwrap();
        h.push(StreamId(healthy), j as f64, &[j as f64 * 0.1]).unwrap();
    }
    let report = engine.finish();
    let sick_out = &report.streams[&StreamId(sick)];
    assert!(sick_out.quarantine.is_some());
    assert_eq!(sick_out.quarantine.as_ref().unwrap().dropped, 98);
    let healthy_out = &report.streams[&StreamId(healthy)];
    assert!(healthy_out.quarantine.is_none());
    assert_eq!(healthy_out.samples_in, 100);
    assert_eq!(healthy_out.segments.len(), 1, "clean ramp: one segment");
}
