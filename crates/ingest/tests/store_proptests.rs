//! Property tests for the sharded store's run/tail representation.
//!
//! The store may carve a stream's log into sealed runs plus a mutable
//! tail however its seal threshold dictates — but every read path must
//! present the exact flat append order. These properties drive random
//! shard counts, seal thresholds, and single/batch append interleavings
//! against a flat `Vec<Segment>` reference model, and pin the
//! copy-on-write contract between snapshots and the writer.

use std::collections::BTreeMap;

use pla_core::Segment;
use pla_ingest::{SegmentStore, StoreConfig, StreamId};
use proptest::prelude::*;

fn seg(tag: u64, k: usize) -> Segment {
    let t0 = k as f64;
    let v = tag as f64 * 1e4 + k as f64;
    Segment {
        t_start: t0,
        x_start: [v].into(),
        t_end: t0 + 1.0,
        x_end: [v + 0.25].into(),
        connected: false,
        n_points: 2,
        new_recordings: 2,
    }
}

/// One append op: which stream, how many segments, and whether they go
/// in one batch or one at a time.
#[derive(Debug, Clone)]
struct Op {
    stream: u64,
    count: usize,
    batched: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0..6u64, 1..12usize, any::<bool>()).prop_map(|(stream, count, batched)| Op {
        stream,
        count,
        batched,
    })
}

fn bits(s: &Segment) -> (u64, Vec<u64>, u64, Vec<u64>, bool, u64, u64) {
    (
        s.t_start.to_bits(),
        s.x_start.iter().map(|x| x.to_bits()).collect(),
        s.t_end.to_bits(),
        s.x_end.iter().map(|x| x.to_bits()).collect(),
        s.connected,
        u64::from(s.n_points),
        u64::from(s.new_recordings),
    )
}

proptest! {
    /// Sealed-run + tail iteration is byte-identical to the flat log,
    /// for every read path: `iter`, positional `get`, `to_vec`,
    /// `stream_segments`, and slice equality.
    #[test]
    fn run_and_tail_reads_match_flat_log(
        ops in prop::collection::vec(op_strategy(), 1..60),
        shards in 1..8usize,
        seal in 1..9usize,
    ) {
        let store = SegmentStore::with_config(StoreConfig { shards, seal_threshold: seal });
        let mut reference: BTreeMap<u64, Vec<Segment>> = BTreeMap::new();

        for op in &ops {
            let log = reference.entry(op.stream).or_default();
            let next: Vec<Segment> =
                (0..op.count).map(|i| seg(op.stream, log.len() + i)).collect();
            if op.batched {
                store.append_batch(op.stream, StreamId(op.stream), &mut next.clone());
            } else {
                for s in &next {
                    store.append(op.stream, StreamId(op.stream), s.clone());
                }
            }
            log.extend(next);
        }

        let snap = store.snapshot();
        prop_assert_eq!(snap.streams.len(), reference.len());
        let mut total = 0u64;
        for (id, flat) in &reference {
            let view = &snap.streams[&StreamId(*id)];
            prop_assert_eq!(view.len(), flat.len());
            // iter(): same order, bit-for-bit.
            let iter_bits: Vec<_> = view.iter().map(bits).collect();
            let flat_bits: Vec<_> = flat.iter().map(bits).collect();
            prop_assert_eq!(&iter_bits, &flat_bits);
            // get(i): position arithmetic over uniform runs.
            for (i, want) in flat.iter().enumerate() {
                prop_assert_eq!(bits(view.get(i).unwrap()), bits(want));
            }
            prop_assert!(view.get(flat.len()).is_none());
            // to_vec() and the compat equality both agree.
            prop_assert_eq!(&view.to_vec(), flat);
            prop_assert!(view == flat);
            // The run/tail carve is exact: sealed runs all hold
            // `seal_threshold` segments and runs + tail re-form the log.
            for run in view.runs() {
                prop_assert_eq!(run.len(), seal);
            }
            prop_assert_eq!(view.runs().len() * seal + view.tail().len(), flat.len());
            prop_assert!(view.tail().len() < seal, "tail must seal at the threshold");
            // stream_segments() materializes the same flat log.
            prop_assert_eq!(&store.stream_segments(StreamId(*id)).unwrap(), flat);
            total += flat.len() as u64;
        }
        prop_assert_eq!(snap.total_segments, total);
    }

    /// The O(streams) snapshot and the deep-copy baseline are logically
    /// identical for any schedule — sharing is an implementation detail.
    #[test]
    fn shared_and_deep_snapshots_agree(
        ops in prop::collection::vec(op_strategy(), 1..40),
        shards in 1..6usize,
        seal in 1..7usize,
    ) {
        let store = SegmentStore::with_config(StoreConfig { shards, seal_threshold: seal });
        let mut lens: BTreeMap<u64, usize> = BTreeMap::new();
        for op in &ops {
            let from = *lens.get(&op.stream).unwrap_or(&0);
            let mut next: Vec<Segment> =
                (0..op.count).map(|i| seg(op.stream, from + i)).collect();
            store.append_batch(op.stream, StreamId(op.stream), &mut next);
            *lens.entry(op.stream).or_default() += op.count;
        }
        prop_assert_eq!(store.snapshot(), store.snapshot_deep());
    }

    /// Copy on write: snapshots taken at random points and held while
    /// later appends fill, seal and replace the tails they share each
    /// still equal the flat prefix of the log as of their capture.
    #[test]
    fn held_snapshots_keep_their_prefix_across_appends_and_seals(
        ops in prop::collection::vec((op_strategy(), any::<bool>()), 1..50),
        shards in 1..5usize,
        seal in 1..9usize,
    ) {
        let store = SegmentStore::with_config(StoreConfig { shards, seal_threshold: seal });
        let mut reference: BTreeMap<u64, Vec<Segment>> = BTreeMap::new();
        let mut held = Vec::new();
        for (op, take) in &ops {
            let log = reference.entry(op.stream).or_default();
            let next: Vec<Segment> =
                (0..op.count).map(|i| seg(op.stream, log.len() + i)).collect();
            if op.batched {
                store.append_batch(op.stream, StreamId(op.stream), &mut next.clone());
            } else {
                for s in &next {
                    store.append(op.stream, StreamId(op.stream), s.clone());
                }
            }
            log.extend(next);
            if *take {
                held.push((store.snapshot(), reference.clone()));
            }
        }
        for (snap, prefix) in &held {
            prop_assert_eq!(snap.streams.len(), prefix.len());
            for (id, flat) in prefix {
                let view = &snap.streams[&StreamId(*id)];
                let view_bits: Vec<_> = view.iter().map(bits).collect();
                let flat_bits: Vec<_> = flat.iter().map(bits).collect();
                prop_assert_eq!(view_bits, flat_bits);
                prop_assert_eq!(view.runs().len() * seal + view.tail().len(), flat.len());
            }
        }
    }

    /// With no snapshot alive, appends write into the tail in place: its
    /// buffer moves only when a seal starts a fresh one.
    #[test]
    fn unshared_tails_stay_in_place_between_seals(
        ops in prop::collection::vec(op_strategy(), 1..50),
        seal in 1..9usize,
    ) {
        let store = SegmentStore::with_config(StoreConfig { shards: 2, seal_threshold: seal });
        // (runs, tail buffer) per stream, read through a snapshot that
        // is dropped before the next append.
        let probe = |id: u64| {
            let snap = store.snapshot();
            snap.streams.get(&StreamId(id)).map(|v| (v.runs().len(), v.tail().as_ptr()))
        };
        let mut lens: BTreeMap<u64, usize> = BTreeMap::new();
        for op in &ops {
            let before = probe(op.stream);
            let from = *lens.get(&op.stream).unwrap_or(&0);
            let mut next: Vec<Segment> =
                (0..op.count).map(|i| seg(op.stream, from + i)).collect();
            store.append_batch(op.stream, StreamId(op.stream), &mut next);
            *lens.entry(op.stream).or_default() += op.count;
            if let (Some((runs, ptr)), Some((runs_after, ptr_after))) = (before, probe(op.stream)) {
                if runs == runs_after {
                    prop_assert_eq!(ptr, ptr_after, "an unsealing append moved the tail");
                }
            }
        }
    }
}
