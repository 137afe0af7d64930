//! The shared segment store: a sharded, epoch-based home for every
//! reconstructed (or locally emitted) segment log, built so *readers
//! scale*.
//!
//! The deployment picture behind it is the paper's: many sensors
//! compress at the edge, one base station reconstructs — and Ferragina
//! & Lari (arXiv:2509.07827) argue the reconstructed logs should land
//! in a *queryable shared structure*, not per-connection buffers. A
//! `pla-net` collector funnels every connection's `(ConnId, StreamId,
//! Segment)` output here; an [`IngestEngine`](crate::IngestEngine) can
//! append its shards' emissions directly
//! ([`with_segment_store`](crate::IngestEngine::with_segment_store));
//! readers take [`snapshot`](SegmentStore::snapshot)s while appends
//! continue — and a snapshot costs O(streams) pointer grabs, not a
//! deep copy of every segment.
//!
//! # Layout: shards → streams → runs + tail
//!
//! ```text
//! SegmentStore
//!  ├─ shard 0 (RwLock) ── streams hashed here by shard_of
//!  │    ├─ stream 7:  [run₀ (Arc)] [run₁ (Arc)] [run₂ (Arc)] | tail (Vec)
//!  │    │              └────────── sealed, immutable ───────┘  └ mutable,
//!  │    │                                                        < seal
//!  │    │                                                        threshold
//!  │    └─ stream 23: [run₀ (Arc)] | tail
//!  ├─ shard 1 (RwLock) …
//!  └─ shard N-1
//! ```
//!
//! * **Streams hash across N shards** (the same [`shard_of`] routing the
//!   ingest engine uses), each shard behind its own `RwLock` — writers
//!   on different shards never contend, and a reader sweeping a
//!   snapshot holds one shard's lock at a time, never a global lock
//!   across streams.
//! * **A stream's log is a chain of immutable runs plus a small mutable
//!   tail.** Appends push into the tail; when the tail reaches the
//!   *seal threshold* it is sealed into an [`Arc<Run>`](Run) — and a
//!   sealed run is **immutable forever**. Snapshots share sealed runs
//!   by `Arc` clone (a pointer grab) and copy only the tail (bounded by
//!   the threshold), so [`snapshot`](SegmentStore::snapshot) is
//!   O(streams · threshold) worst case instead of O(total segments) —
//!   at 10k segments per stream that is two orders of magnitude less
//!   copying, and the shared runs mean a snapshot's memory cost is
//!   O(streams) too.
//! * **Epochs make change detection O(shards).** Every shard counts the
//!   segments it has ever admitted in an *epoch* counter; snapshots
//!   record the per-shard epochs they observed, so a poller can compare
//!   [`epochs`](SegmentStore::epochs) against its last snapshot and
//!   skip the sweep when nothing moved.
//!
//! # Consistency contract (per shard)
//!
//! The old coarse-lock store promised a global prefix: a snapshot never
//! showed stream A ahead of the append that preceded stream B's. Under
//! sharding that guarantee is **per shard**:
//!
//! * For any two streams on the *same* shard, a snapshot is a prefix of
//!   that shard's append history — if stream B's k-th segment is
//!   visible, every same-shard append that happened before it
//!   (including stream A's earlier segments) is visible too. Pinned by
//!   `same_shard_streams_never_tear` below.
//! * Across shards, a snapshot interleaves per-shard prefixes taken in
//!   shard order; no cross-shard ordering is promised. Each stream
//!   lives entirely on one shard, so **per-stream logs are always exact
//!   prefixes of their append history** — a snapshot can lag a racing
//!   writer, it can never tear a stream or reorder within one.
//! * A snapshot never changes after it is returned: sealed runs are
//!   immutable and the tail is copied out under the shard lock.
//!
//! Other rules carried over unchanged from the coarse-lock store:
//!
//! * **A stream has one owner.** Stream ids are expected to be written
//!   by a single source (connection or engine); multi-owner writes are
//!   recorded in arrival order but no cross-source ordering is
//!   promised.
//! * **Watermarks are per source.** Each source id carries how many
//!   segments it appended and the highest `t_end` it reached. A source
//!   writing streams on several shards has its watermark tracked
//!   per shard and merged on read, so a watermark read concurrent with
//!   appends may mix per-shard prefixes — each of which is itself
//!   consistent, and the merged value is always ≤ the true total.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use pla_core::Segment;

use crate::engine::shard_of;
use crate::StreamId;

/// Progress watermark for one append source (a collector connection, an
/// engine, a backfill job).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceWatermark {
    /// Segments this source has appended.
    pub segments: u64,
    /// Highest `t_end` this source has appended (`-inf` before the
    /// first append).
    pub covered_through: f64,
}

impl Default for SourceWatermark {
    fn default() -> Self {
        Self { segments: 0, covered_through: f64::NEG_INFINITY }
    }
}

impl SourceWatermark {
    /// Folds another shard's contribution for the same source into
    /// `self` (segment counts add, coverage takes the furthest point).
    fn merge(&mut self, other: &SourceWatermark) {
        self.segments += other.segments;
        if other.covered_through > self.covered_through {
            self.covered_through = other.covered_through;
        }
    }
}

/// Construction parameters for a [`SegmentStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of lock shards streams hash across (clamped to ≥ 1).
    /// More shards mean less writer contention and a finer-grained
    /// consistency guarantee (see the module docs); the default suits a
    /// collector with tens to hundreds of connections.
    pub shards: usize,
    /// Tail length at which a stream's mutable tail is sealed into an
    /// immutable [`Run`] (clamped to ≥ 1). This bounds both the
    /// per-stream copy cost of a snapshot and the granularity of run
    /// sharing: every sealed run holds exactly this many segments.
    pub seal_threshold: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { shards: 16, seal_threshold: 64 }
    }
}

/// A sealed, immutable block of consecutive segments of one stream.
///
/// Runs are the unit of sharing between the live store and its
/// snapshots: once sealed, a run's contents never change (the
/// Arc-sharing rule in ARCHITECTURE.md), so cloning the `Arc` *is* the
/// copy. Every run sealed by a store holds exactly
/// [`StoreConfig::seal_threshold`] segments — uniform length keeps
/// position lookups O(1).
#[derive(Debug, PartialEq)]
pub struct Run {
    segments: Box<[Segment]>,
}

impl Run {
    /// The segments of this run, in append order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of segments in this run.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the run is empty (never true for store-sealed runs).
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

/// One stream's live log inside a shard: the sealed-run chain plus the
/// mutable tail being filled.
#[derive(Debug, Default)]
struct StreamLog {
    runs: Vec<Arc<Run>>,
    sealed: usize,
    tail: Vec<Segment>,
}

impl StreamLog {
    fn len(&self) -> usize {
        self.sealed + self.tail.len()
    }

    fn push(&mut self, segment: Segment, seal_threshold: usize) {
        self.tail.push(segment);
        if self.tail.len() == seal_threshold {
            let run = std::mem::replace(&mut self.tail, Vec::with_capacity(seal_threshold));
            self.runs.push(Arc::new(Run { segments: run.into_boxed_slice() }));
            self.sealed += seal_threshold;
        }
    }

    fn view(&self, run_len: usize) -> StreamView {
        StreamView {
            runs: self.runs.clone(),
            tail: self.tail.clone().into(),
            len: self.len(),
            run_len,
        }
    }
}

#[derive(Debug, Default)]
struct ShardInner {
    streams: BTreeMap<StreamId, StreamLog>,
    /// This shard's *contribution* to each source's watermark (a source
    /// writing streams on several shards is merged on read).
    sources: BTreeMap<u64, SourceWatermark>,
    segments: u64,
    /// Segments ever admitted by this shard; never decreases.
    epoch: u64,
}

impl ShardInner {
    /// Appends `segments` in order to `stream`'s log, crediting
    /// `source`'s watermark, with one watermark and one stream lookup
    /// however many segments there are.
    fn append(
        &mut self,
        source: u64,
        stream: StreamId,
        segments: impl Iterator<Item = Segment>,
        seal: usize,
    ) {
        let mark = self.sources.entry(source).or_default();
        let log = self.streams.entry(stream).or_default();
        let mut n = 0;
        for segment in segments {
            if segment.t_end > mark.covered_through {
                mark.covered_through = segment.t_end;
            }
            log.push(segment, seal);
            n += 1;
        }
        mark.segments += n;
        self.segments += n;
        self.epoch += n;
    }
}

/// A read-only view of one stream's log at snapshot time: shared sealed
/// runs plus a copy of the tail.
///
/// The view reads like the flat `Vec<Segment>` the pre-sharding store
/// returned — [`iter`](StreamView::iter), [`get`](StreamView::get),
/// [`len`](StreamView::len), equality against segment slices — without
/// materializing one; [`to_vec`](StreamView::to_vec) materializes
/// explicitly when a flat log is genuinely needed. Query layers index
/// the runs directly ([`runs`](StreamView::runs) /
/// [`tail`](StreamView::tail)): run lengths are uniform
/// ([`run_len`](StreamView::run_len)), so position arithmetic is O(1)
/// and time lookups binary-search run starts then within one run.
#[derive(Clone)]
pub struct StreamView {
    runs: Vec<Arc<Run>>,
    tail: Arc<[Segment]>,
    len: usize,
    run_len: usize,
}

impl Default for StreamView {
    fn default() -> Self {
        Self { runs: Vec::new(), tail: Vec::new().into(), len: 0, run_len: 1 }
    }
}

impl StreamView {
    /// Total segments in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no segments.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sealed, immutable runs (each shared with the live store by
    /// `Arc`), oldest first.
    pub fn runs(&self) -> &[Arc<Run>] {
        &self.runs
    }

    /// The unsealed tail as of snapshot time, following the runs.
    pub fn tail(&self) -> &[Segment] {
        &self.tail
    }

    /// Number of segments in every sealed run (uniform; the store's
    /// seal threshold).
    pub fn run_len(&self) -> usize {
        self.run_len
    }

    /// The `i`-th segment in append order, or `None` past the end.
    /// O(1): uniform run lengths make this pure index arithmetic.
    pub fn get(&self, i: usize) -> Option<&Segment> {
        let sealed = self.runs.len() * self.run_len;
        if i < sealed {
            Some(&self.runs[i / self.run_len].segments[i % self.run_len])
        } else {
            self.tail.get(i - sealed)
        }
    }

    /// Iterates every segment in append order, runs first then tail.
    pub fn iter(&self) -> impl Iterator<Item = &Segment> + Clone {
        self.runs.iter().flat_map(|r| r.segments.iter()).chain(self.tail.iter())
    }

    /// Materializes the view into a flat log (the pre-sharding snapshot
    /// shape). Costs one copy of every segment — query through the view
    /// instead where possible.
    pub fn to_vec(&self) -> Vec<Segment> {
        self.iter().cloned().collect()
    }

    /// Covered time span `(first t_start, last t_end)`, or `None` when
    /// empty.
    pub fn span(&self) -> Option<(f64, f64)> {
        Some((self.get(0)?.t_start, self.get(self.len - 1)?.t_end))
    }
}

impl std::fmt::Debug for StreamView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for StreamView {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl PartialEq<[Segment]> for StreamView {
    fn eq(&self, other: &[Segment]) -> bool {
        self.len == other.len() && self.iter().eq(other.iter())
    }
}

impl PartialEq<Vec<Segment>> for StreamView {
    fn eq(&self, other: &Vec<Segment>) -> bool {
        *self == other[..]
    }
}

impl PartialEq<StreamView> for Vec<Segment> {
    fn eq(&self, other: &StreamView) -> bool {
        *other == self[..]
    }
}

/// A point-in-time view of the store: per-stream [`StreamView`]s plus
/// merged per-source watermarks.
///
/// Internally consistent *per shard* (see the module docs): every
/// stream's view is an exact prefix of its append history, same-shard
/// streams are mutually consistent, and the snapshot never changes
/// after it is returned. Equality compares logical content (segment
/// sequences, watermarks, totals) — not run boundaries, which are an
/// implementation detail of when seals happened.
#[derive(Debug, Clone, Default)]
pub struct StoreSnapshot {
    /// Per-stream segment views, ordered by stream id, each in append
    /// order.
    pub streams: BTreeMap<StreamId, StreamView>,
    /// Per-source progress watermarks (merged across shards), ordered
    /// by source id.
    pub sources: BTreeMap<u64, SourceWatermark>,
    /// Total segments across all streams.
    pub total_segments: u64,
    /// Per-shard epochs observed while sweeping; compare against
    /// [`SegmentStore::epochs`] to detect whether anything changed
    /// since this snapshot without paying for a new one.
    pub epochs: Box<[u64]>,
}

impl PartialEq for StoreSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.total_segments == other.total_segments
            && self.streams == other.streams
            && self.sources == other.sources
    }
}

/// The concurrently-appendable segment store. Cheap to share:
/// construct once, wrap in an `Arc`, and hand clones to every appender
/// and reader.
///
/// ```
/// use pla_core::Segment;
/// use pla_ingest::{SegmentStore, StreamId};
///
/// let store = SegmentStore::new();
/// let seg = Segment {
///     t_start: 0.0,
///     x_start: [1.0].into(),
///     t_end: 4.0,
///     x_end: [3.0].into(),
///     connected: false,
///     n_points: 5,
///     new_recordings: 2,
/// };
/// store.append(7, StreamId(42), seg.clone());
/// let snap = store.snapshot();
/// assert_eq!(snap.streams[&StreamId(42)], vec![seg]);
/// assert_eq!(snap.sources[&7].segments, 1);
/// assert_eq!(snap.sources[&7].covered_through, 4.0);
/// ```
#[derive(Debug)]
pub struct SegmentStore {
    shards: Box<[RwLock<ShardInner>]>,
    seal_threshold: usize,
}

impl Default for SegmentStore {
    fn default() -> Self {
        Self::with_config(StoreConfig::default())
    }
}

impl SegmentStore {
    /// An empty store with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store with explicit shard count and seal threshold.
    pub fn with_config(config: StoreConfig) -> Self {
        let shards = config.shards.max(1);
        Self {
            shards: (0..shards).map(|_| RwLock::new(ShardInner::default())).collect(),
            seal_threshold: config.seal_threshold.max(1),
        }
    }

    /// Number of lock shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Tail length at which runs are sealed.
    pub fn seal_threshold(&self) -> usize {
        self.seal_threshold
    }

    fn shard(&self, stream: StreamId) -> &RwLock<ShardInner> {
        &self.shards[shard_of(stream, self.shards.len())]
    }

    /// Appends one segment to `stream`'s log, crediting `source`'s
    /// watermark. Takes only the owning shard's write lock.
    pub fn append(&self, source: u64, stream: StreamId, segment: Segment) {
        let mut inner = self.shard(stream).write().expect("segment store shard lock");
        inner.append(source, stream, std::iter::once(segment), self.seal_threshold);
    }

    /// Appends a batch under one lock acquisition of the owning shard
    /// (what a collector's pump round publishes per stream), *moving*
    /// the segments out of `segments` — which is left empty with its
    /// capacity intact, ready to stage the next batch. The source's
    /// watermark and the stream's log are each looked up once per batch.
    /// An empty batch changes nothing.
    pub fn append_batch(&self, source: u64, stream: StreamId, segments: &mut Vec<Segment>) {
        if segments.is_empty() {
            return;
        }
        let mut inner = self.shard(stream).write().expect("segment store shard lock");
        inner.append(source, stream, segments.drain(..), self.seal_threshold);
    }

    /// A point-in-time view of everything (logs and watermarks), taken
    /// one shard at a time — O(streams) `Arc` clones plus a copy of
    /// each stream's sub-threshold tail, *not* a deep copy of every
    /// segment. See the module docs for the per-shard consistency
    /// contract.
    pub fn snapshot(&self) -> StoreSnapshot {
        let mut snap = StoreSnapshot::default();
        let mut epochs = Vec::with_capacity(self.shards.len());
        for shard in self.shards.iter() {
            let inner = shard.read().expect("segment store shard lock");
            for (&id, log) in &inner.streams {
                snap.streams.insert(id, log.view(self.seal_threshold));
            }
            for (&source, mark) in &inner.sources {
                snap.sources.entry(source).or_default().merge(mark);
            }
            snap.total_segments += inner.segments;
            epochs.push(inner.epoch);
        }
        snap.epochs = epochs.into();
        snap
    }

    /// The pre-sharding snapshot semantics: every segment deep-copied
    /// into one freshly allocated run per stream, sharing nothing with
    /// the live store. Kept as the A/B baseline for the
    /// `store_concurrent` bench and for callers that need a snapshot
    /// whose memory is independent of the store's (e.g. to outlive it
    /// cheaply after the store keeps growing).
    pub fn snapshot_deep(&self) -> StoreSnapshot {
        let mut snap = self.snapshot();
        for view in snap.streams.values_mut() {
            let flat = view.to_vec();
            *view = StreamView {
                len: flat.len(),
                run_len: flat.len().max(1),
                runs: vec![Arc::new(Run { segments: flat.into_boxed_slice() })],
                tail: Vec::new().into(),
            };
        }
        snap
    }

    /// Per-shard epochs (segments ever admitted, per shard). Compare
    /// with a snapshot's [`epochs`](StoreSnapshot::epochs) for an
    /// O(shards) "did anything change?" probe.
    pub fn epochs(&self) -> Box<[u64]> {
        self.shards.iter().map(|s| s.read().expect("segment store shard lock").epoch).collect()
    }

    /// One stream's log, materialized flat, or `None` if nothing was
    /// ever appended to it.
    pub fn stream_segments(&self, stream: StreamId) -> Option<Vec<Segment>> {
        let inner = self.shard(stream).read().expect("segment store shard lock");
        inner.streams.get(&stream).map(|log| log.view(self.seal_threshold).to_vec())
    }

    /// Stream ids present, ascending.
    pub fn stream_ids(&self) -> Vec<StreamId> {
        let mut ids: Vec<StreamId> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("segment store shard lock")
                    .streams
                    .keys()
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Number of distinct streams.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().expect("segment store shard lock").streams.len()).sum()
    }

    /// Whether the store holds no streams at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total segments across all streams. Sums per-shard counts read
    /// one lock at a time; monotone, may lag racing writers.
    pub fn total_segments(&self) -> u64 {
        self.shards.iter().map(|s| s.read().expect("segment store shard lock").segments).sum()
    }

    /// `source`'s progress watermark merged across shards, or `None` if
    /// it never appended.
    pub fn watermark(&self, source: u64) -> Option<SourceWatermark> {
        let mut merged: Option<SourceWatermark> = None;
        for shard in self.shards.iter() {
            let inner = shard.read().expect("segment store shard lock");
            if let Some(mark) = inner.sources.get(&source) {
                merged.get_or_insert_with(SourceWatermark::default).merge(mark);
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(t0: f64, t1: f64) -> Segment {
        Segment {
            t_start: t0,
            x_start: [t0].into(),
            t_end: t1,
            x_end: [t1].into(),
            connected: false,
            n_points: 2,
            new_recordings: 2,
        }
    }

    #[test]
    fn appends_accumulate_in_order_with_watermarks() {
        let store = SegmentStore::new();
        store.append(1, StreamId(5), seg(0.0, 2.0));
        store.append(1, StreamId(5), seg(2.0, 7.0));
        store.append(2, StreamId(9), seg(0.0, 3.0));
        assert_eq!(store.len(), 2);
        assert_eq!(store.total_segments(), 3);
        let log = store.stream_segments(StreamId(5)).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].t_end, 7.0);
        assert_eq!(store.watermark(1).unwrap().segments, 2);
        assert_eq!(store.watermark(1).unwrap().covered_through, 7.0);
        assert_eq!(store.watermark(2).unwrap().covered_through, 3.0);
        assert_eq!(store.watermark(3), None);
    }

    #[test]
    fn batch_append_equals_singles() {
        let a = SegmentStore::new();
        let b = SegmentStore::new();
        let segs = [seg(0.0, 1.0), seg(1.0, 4.0), seg(4.0, 9.0)];
        let mut batch = segs.to_vec();
        a.append_batch(3, StreamId(1), &mut batch);
        assert!(batch.is_empty(), "the batch is moved into the store");
        for s in &segs {
            b.append(3, StreamId(1), s.clone());
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn snapshot_is_a_stable_copy() {
        let store = SegmentStore::new();
        store.append(1, StreamId(1), seg(0.0, 1.0));
        let snap = store.snapshot();
        store.append(1, StreamId(1), seg(1.0, 2.0));
        assert_eq!(snap.streams[&StreamId(1)].len(), 1, "snapshot must not see later appends");
        assert_eq!(store.snapshot().streams[&StreamId(1)].len(), 2);
    }

    #[test]
    fn sealing_at_threshold_keeps_runs_uniform_and_order_flat() {
        let store = SegmentStore::with_config(StoreConfig { shards: 2, seal_threshold: 4 });
        let mut flat = Vec::new();
        for i in 0..11 {
            let s = seg(i as f64, i as f64 + 1.0);
            flat.push(s.clone());
            store.append(1, StreamId(3), s);
        }
        let snap = store.snapshot();
        let view = &snap.streams[&StreamId(3)];
        assert_eq!(view.runs().len(), 2, "11 appends at threshold 4 seal two runs");
        assert!(view.runs().iter().all(|r| r.len() == 4), "sealed runs are uniform");
        assert_eq!(view.tail().len(), 3);
        assert_eq!(view.len(), 11);
        assert_eq!(*view, flat, "runs + tail iterate in flat append order");
        for (i, want) in flat.iter().enumerate() {
            assert_eq!(view.get(i), Some(want), "get({i}) must match the flat log");
        }
        assert_eq!(view.get(11), None);
        assert_eq!(view.span(), Some((0.0, 11.0)));
    }

    #[test]
    fn snapshots_share_sealed_runs_with_the_store() {
        let store = SegmentStore::with_config(StoreConfig { shards: 1, seal_threshold: 2 });
        for i in 0..6 {
            store.append(1, StreamId(1), seg(i as f64, i as f64 + 1.0));
        }
        let a = store.snapshot();
        let b = store.snapshot();
        let (ra, rb) = (a.streams[&StreamId(1)].runs(), b.streams[&StreamId(1)].runs());
        assert_eq!(ra.len(), 3);
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert!(Arc::ptr_eq(x, y), "snapshots must share sealed runs, not copy them");
        }
    }

    #[test]
    fn epochs_detect_change_cheaply() {
        let store = SegmentStore::with_config(StoreConfig { shards: 4, seal_threshold: 8 });
        let snap = store.snapshot();
        assert_eq!(store.epochs(), snap.epochs, "quiet store: epochs match the snapshot's");
        store.append(1, StreamId(9), seg(0.0, 1.0));
        assert_ne!(store.epochs(), snap.epochs, "an append must bump its shard's epoch");
    }

    #[test]
    fn deep_snapshot_matches_and_shares_nothing() {
        let store = SegmentStore::with_config(StoreConfig { shards: 2, seal_threshold: 3 });
        for i in 0..10 {
            store.append(1, StreamId(4), seg(i as f64, i as f64 + 1.0));
        }
        let cheap = store.snapshot();
        let deep = store.snapshot_deep();
        assert_eq!(cheap, deep, "deep and cheap snapshots are logically identical");
        let live = store.snapshot();
        for run in deep.streams[&StreamId(4)].runs() {
            for shared in live.streams[&StreamId(4)].runs() {
                assert!(!Arc::ptr_eq(run, shared), "deep snapshot must not share runs");
            }
        }
    }

    #[test]
    fn watermarks_merge_across_shards() {
        // One source writing many streams: contributions land on several
        // shards and must merge to the true totals.
        let store = SegmentStore::with_config(StoreConfig { shards: 8, seal_threshold: 64 });
        for id in 0..32u64 {
            store.append(7, StreamId(id), seg(id as f64, id as f64 + 1.0));
        }
        let mark = store.watermark(7).unwrap();
        assert_eq!(mark.segments, 32);
        assert_eq!(mark.covered_through, 32.0);
        assert_eq!(store.snapshot().sources[&7], mark);
    }

    #[test]
    fn concurrent_appenders_lose_nothing() {
        let store = Arc::new(SegmentStore::new());
        let threads: Vec<_> = (0..4u64)
            .map(|source| {
                let store = store.clone();
                std::thread::spawn(move || {
                    for i in 0..250 {
                        let t = i as f64;
                        store.append(source, StreamId(source), seg(t, t + 1.0));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = store.snapshot();
        assert_eq!(snap.total_segments, 1000);
        for source in 0..4u64 {
            assert_eq!(snap.sources[&source].segments, 250);
            let log = &snap.streams[&StreamId(source)];
            assert_eq!(log.len(), 250);
            // Per-stream order is the single owner's append order.
            for (i, s) in log.iter().enumerate() {
                assert_eq!(s.t_start, i as f64);
            }
        }
    }

    /// The satellite consistency pin: two streams on the *same shard*
    /// must never tear — whenever a snapshot shows stream B's k-th
    /// append, stream A's k-th (which always happens first) is visible.
    #[test]
    fn same_shard_streams_never_tear() {
        let shards = 4;
        // Find two distinct stream ids that hash to the same shard.
        let a = StreamId(0);
        let b = (1..64)
            .map(StreamId)
            .find(|&id| shard_of(id, shards) == shard_of(a, shards))
            .expect("some id shares shard 0's bucket");
        let store = Arc::new(SegmentStore::with_config(StoreConfig { shards, seal_threshold: 8 }));
        let writer = {
            let store = store.clone();
            std::thread::spawn(move || {
                for i in 0..2000 {
                    let t = i as f64;
                    store.append(1, a, seg(t, t + 1.0));
                    store.append(1, b, seg(t, t + 1.0));
                }
            })
        };
        while !writer.is_finished() {
            let snap = store.snapshot();
            let na = snap.streams.get(&a).map_or(0, StreamView::len);
            let nb = snap.streams.get(&b).map_or(0, StreamView::len);
            assert!(
                na >= nb,
                "same-shard tear: B shows {nb} segments but A (appended first) only {na}"
            );
        }
        writer.join().unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.streams[&a].len(), 2000);
        assert_eq!(snap.streams[&b].len(), 2000);
    }
}
