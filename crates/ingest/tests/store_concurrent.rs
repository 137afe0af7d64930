//! Multi-writer / multi-reader stress test for the sharded store.
//!
//! Pins the consistency contract documented in `store.rs`: writers
//! (one owner per stream, as the collector and ingest engine guarantee)
//! append deterministic sequences while readers snapshot in a tight
//! loop. Every snapshot a reader takes must be a *prefix* of the final
//! store — per stream, the view is exactly the first `len` segments of
//! the sequence the owner wrote — and per-shard epochs must only grow.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pla_core::Segment;
use pla_ingest::{shard_of, SegmentStore, StoreConfig, StreamId};

const WRITERS: usize = 4;
const STREAMS_PER_WRITER: usize = 8;
const SEGMENTS_PER_STREAM: usize = 400;
const READERS: usize = 3;

/// The k-th segment of stream `s`: times and values encode (s, k) so a
/// reordered, torn, or cross-wired log cannot compare equal.
fn expected_segment(s: u64, k: usize) -> Segment {
    let t0 = k as f64;
    let v = s as f64 * 1e6 + k as f64;
    Segment {
        t_start: t0,
        x_start: [v].into(),
        t_end: t0 + 1.0,
        x_end: [v + 0.5].into(),
        connected: false,
        n_points: 2,
        new_recordings: 2,
    }
}

fn expected_log(s: u64) -> Vec<Segment> {
    (0..SEGMENTS_PER_STREAM).map(|k| expected_segment(s, k)).collect()
}

#[test]
fn snapshots_under_write_load_are_prefixes_of_the_final_store() {
    // Small seal threshold so sealing happens constantly under load.
    let store = Arc::new(SegmentStore::with_config(StoreConfig { shards: 8, seal_threshold: 16 }));
    let done = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS as u64)
        .map(|w| {
            let store = Arc::clone(&store);
            std::thread::spawn(move || {
                let streams: Vec<u64> =
                    (0..STREAMS_PER_WRITER as u64).map(|i| w * 100 + i).collect();
                for k in 0..SEGMENTS_PER_STREAM {
                    for &s in &streams {
                        // Alternate singles and batches to cover both
                        // append paths.
                        if k % 3 == 0 {
                            store.append(w, StreamId(s), expected_segment(s, k));
                        } else {
                            store.append_batch(w, StreamId(s), &mut vec![expected_segment(s, k)]);
                        }
                    }
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut last_total = 0u64;
                let mut last_epochs = store.epochs();
                let mut snapshots = 0usize;
                while !done.load(Ordering::Acquire) {
                    let snap = store.snapshot();
                    // Totals and epochs never move backwards.
                    assert!(snap.total_segments >= last_total, "total_segments regressed");
                    last_total = snap.total_segments;
                    let epochs = store.epochs();
                    for (now, before) in epochs.iter().zip(last_epochs.iter()) {
                        assert!(now >= before, "shard epoch regressed");
                    }
                    last_epochs = epochs;
                    // Every stream view is an exact prefix of what its
                    // owner will have written by the end.
                    for (id, view) in &snap.streams {
                        let want = expected_log(id.0);
                        assert!(view.len() <= want.len(), "stream {} overshot", id.0);
                        assert!(
                            *view == want[..view.len()],
                            "stream {} snapshot is not a prefix of its final log",
                            id.0
                        );
                    }
                    snapshots += 1;
                }
                snapshots
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let mut total_snapshots = 0;
    for r in readers {
        total_snapshots += r.join().unwrap();
    }
    assert!(total_snapshots > 0, "readers never got a snapshot in");

    // Final state: every stream holds its full log, totals add up, and
    // each writer's watermark covers everything it wrote.
    let snap = store.snapshot();
    assert_eq!(snap.streams.len(), WRITERS * STREAMS_PER_WRITER);
    for (id, view) in &snap.streams {
        assert!(*view == expected_log(id.0), "final log mismatch for stream {}", id.0);
    }
    let want_total = (WRITERS * STREAMS_PER_WRITER * SEGMENTS_PER_STREAM) as u64;
    assert_eq!(snap.total_segments, want_total);
    for w in 0..WRITERS as u64 {
        let mark = snap.sources[&w];
        assert_eq!(mark.segments, (STREAMS_PER_WRITER * SEGMENTS_PER_STREAM) as u64);
        assert_eq!(mark.covered_through, SEGMENTS_PER_STREAM as f64);
    }
}

/// Two streams routed to the *same shard* must never tear relative to
/// each other: the writer appends to A strictly before B each round, so
/// any snapshot must show `len(A) >= len(B)`.
#[test]
fn same_shard_streams_never_tear_under_concurrency() {
    let shards = 8;
    let store = Arc::new(SegmentStore::with_config(StoreConfig { shards, seal_threshold: 8 }));

    // Find two distinct stream ids that hash to the same shard.
    let a = 0u64;
    let b =
        (1..).find(|&b| shard_of(StreamId(b), shards) == shard_of(StreamId(a), shards)).unwrap();

    let writer = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for k in 0..2000 {
                store.append(0, StreamId(a), expected_segment(a, k));
                store.append(0, StreamId(b), expected_segment(b, k));
            }
        })
    };

    let mut observed = 0;
    while observed < 500 {
        let snap = store.snapshot();
        let na = snap.streams.get(&StreamId(a)).map_or(0, |v| v.len());
        let nb = snap.streams.get(&StreamId(b)).map_or(0, |v| v.len());
        assert!(na >= nb, "same-shard tear: A has {na} segments but B already has {nb}");
        observed += 1;
    }
    writer.join().unwrap();
}
