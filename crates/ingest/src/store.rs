//! The shared segment store: a sharded, epoch-based home for every
//! reconstructed segment log, built so *readers scale*.
//!
//! The deployment picture behind it is the paper's: many sensors
//! compress at the edge, one base station reconstructs — and Ferragina
//! & Lari (arXiv:2509.07827) argue the reconstructed logs should land
//! in a *queryable shared structure*, not per-connection buffers. A
//! `pla-net` collector funnels every connection's `(ConnId, StreamId,
//! Segment)` output here; readers take [`snapshot`](SegmentStore::snapshot)s while appends
//! continue — and a snapshot costs two `Arc` clones per stream, not a
//! copy of any segment.
//!
//! # Layout: shards → streams → runs + tail
//!
//! ```text
//! SegmentStore
//!  ├─ shard 0 (RwLock) ── streams hashed here by shard_of
//!  │    ├─ stream 7:  Arc[ run₀ (Arc) · run₁ (Arc) · run₂ (Arc) ]  Arc[ tail ]
//!  │    │                  └──────── sealed, immutable ───────┘        └ open,
//!  │    │             └─────────── run list ──────────────────┘          < seal
//!  │    │                                                                threshold
//!  │    └─ stream 23: Arc[ run₀ (Arc) ]  Arc[ tail ]
//!  ├─ shard 1 (RwLock) …
//!  └─ shard N-1
//! ```
//!
//! A snapshot's [`StreamView`] holds the same two outer `Arc`s as the
//! live log: the run list and the open tail.
//!
//! * **Streams hash across N shards** (the same [`shard_of`] routing the
//!   ingest engine uses), each shard behind its own `RwLock` — writers
//!   on different shards never contend, and a reader sweeping a
//!   snapshot holds one shard's lock at a time, never a global lock
//!   across streams.
//! * **A stream's log is a chain of immutable runs plus an open
//!   tail.** Appends push into the tail; when the tail reaches the
//!   *seal threshold* it is moved, without a copy, into an
//!   [`Arc<Run>`](Run) — and a sealed run is **immutable forever**.
//! * **Snapshots share, the writer copies on write.** A snapshot takes
//!   one `Arc` clone of each stream's run list and one of its tail:
//!   [`snapshot`](SegmentStore::snapshot) costs O(streams) atomic
//!   increments plus the snapshot's own map, whatever the runs or tails
//!   hold. The writer never mutates a tail or run list a snapshot still
//!   holds. An append that finds its tail shared first copies it into a
//!   private buffer (at most once per stream per live snapshot, and
//!   only for streams appended while it lives). A seal that finds the
//!   run list shared clones the list of run pointers before pushing.
//!   With no snapshot alive, appends copy nothing and allocate only at
//!   a seal (the new run and a fresh tail buffer).
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
//!   immutable, and the writer copies a shared tail or run list before
//!   it changes either (copy on write, under the shard write lock).
//!
//! Other rules carried over unchanged from the coarse-lock store:
//!
//! * **A stream has one owner.** Stream ids are expected to be written
//!   by a single source (a collector connection); multi-owner writes are
//!   recorded in arrival order but no cross-source ordering is
//!   promised.
//! * **Watermarks are per source.** Each source id carries how many
//!   segments it appended and the highest `t_end` it reached, held in
//!   the source's two metric handles (one pair per source, shared by
//!   every shard it writes). A watermark read concurrent with appends
//!   may lag them; it never runs ahead of what was appended.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use pla_core::Segment;
use pla_metrics::{Counter, Gauge, Handle, Registry};

use crate::engine::shard_of;
use crate::StreamId;

/// Progress watermark for one append source (a collector connection, a
/// backfill job).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceWatermark {
    /// Segments this source has appended.
    pub segments: u64,
    /// Highest `t_end` this source has appended.
    pub covered_through: f64,
}

pla_metrics::series! {
    /// One source's watermark as its two series, labeled `source="<id>"`.
    #[derive(Debug, Clone)]
    struct SourceSeries {
        segments: counter("pla_store_source_segments_total",
            "Segments appended per source connection (watermark)."),
        covered_through: gauge("pla_store_source_covered_through",
            "Latest segment end-time published per source connection."),
    }
}

impl SourceSeries {
    fn watermark(&self) -> SourceWatermark {
        SourceWatermark {
            segments: self.segments.get(),
            covered_through: self.covered_through.get(),
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
    /// immutable [`Run`] (clamped to ≥ 1). This bounds the writer's
    /// copy-on-write cost (a shared tail is shorter than this) and sets
    /// the granularity of run sharing: every sealed run holds exactly
    /// this many segments.
    pub seal_threshold: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self { shards: 16, seal_threshold: 64 }
    }
}

/// A sealed, immutable block of consecutive segments of one stream.
///
/// Runs are shared between the live store and its snapshots: once
/// sealed, a run's contents never change (the Arc-sharing rule in
/// ARCHITECTURE.md), so cloning the `Arc` *is* the copy. Every run sealed by a store holds exactly
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
/// open tail being filled. Both sit behind an `Arc` that snapshots
/// share; the writer copies on write (see [`StreamLog::tail_mut`]), so
/// it never mutates anything a snapshot holds.
#[derive(Debug)]
struct StreamLog {
    runs: Arc<Vec<Arc<Run>>>,
    sealed: usize,
    tail: Arc<Vec<Segment>>,
}

impl StreamLog {
    fn new(seal_threshold: usize) -> Self {
        Self { runs: Arc::default(), sealed: 0, tail: Arc::new(Vec::with_capacity(seal_threshold)) }
    }

    fn len(&self) -> usize {
        self.sealed + self.tail.len()
    }

    /// The tail, writable. When a live snapshot still shares it, the
    /// tail is first replaced by a private copy with room for a full
    /// run — paid once per snapshot that saw this stream's tail, and
    /// only if the stream is appended while that snapshot lives.
    fn tail_mut(&mut self, seal_threshold: usize) -> &mut Vec<Segment> {
        if Arc::get_mut(&mut self.tail).is_none() {
            let mut own = Vec::with_capacity(seal_threshold);
            own.extend_from_slice(&self.tail);
            self.tail = Arc::new(own);
        }
        Arc::get_mut(&mut self.tail).expect("tail is unshared after copy-on-write")
    }

    fn push(&mut self, segment: Segment, seal_threshold: usize) {
        let tail = self.tail_mut(seal_threshold);
        tail.push(segment);
        if tail.len() == seal_threshold {
            // A full tail is exactly `seal_threshold` long with that
            // capacity, so boxing it moves the buffer into the run.
            let full = std::mem::replace(tail, Vec::with_capacity(seal_threshold));
            let run = Arc::new(Run { segments: full.into_boxed_slice() });
            Arc::make_mut(&mut self.runs).push(run);
            self.sealed += seal_threshold;
        }
    }

    /// Two `Arc` clones: the view shares the run list and the tail.
    fn view(&self, run_len: usize) -> StreamView {
        StreamView {
            runs: Arc::clone(&self.runs),
            tail: Arc::clone(&self.tail),
            len: self.len(),
            run_len,
        }
    }
}

#[derive(Debug, Default)]
struct ShardInner {
    streams: BTreeMap<StreamId, StreamLog>,
    /// The series of each source that appended to this shard — clones
    /// of the store-wide handles, found with one lookup per append.
    sources: BTreeMap<u64, SourceSeries>,
}

/// A read-only view of one stream's log at snapshot time: the store's
/// run list and open tail, both shared by `Arc` (taking a view copies
/// no segment and allocates nothing). The store copies on write, so a
/// view never changes however long it is held; holding one across
/// appends costs at most one tail copy per stream, paid by the writer.
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
    runs: Arc<Vec<Arc<Run>>>,
    tail: Arc<Vec<Segment>>,
    len: usize,
    run_len: usize,
}

impl Default for StreamView {
    fn default() -> Self {
        Self { runs: Arc::default(), tail: Arc::default(), len: 0, run_len: 1 }
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

    /// The unsealed tail as of snapshot time, following the runs (shared
    /// with the store until the store's next append to this stream).
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
/// per-source watermarks.
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
    /// Per-source progress watermarks, read after the stream sweep,
    /// ordered by source id.
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
    /// Every source's series, by source id.
    sources: RwLock<BTreeMap<u64, SourceSeries>>,
    segments: Counter,
    streams: Gauge,
    /// Segments ever admitted per shard, advanced under the shard's write
    /// lock and read under its read lock; never decreases.
    epochs: Box<[Counter]>,
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
            shards: (0..shards).map(|_| RwLock::default()).collect(),
            seal_threshold: config.seal_threshold.max(1),
            sources: RwLock::default(),
            segments: Counter::new(),
            streams: Gauge::new(),
            epochs: (0..shards).map(|_| Counter::new()).collect(),
        }
    }

    /// The store's series, built from its handles on each call:
    /// `pla_store_streams`, `pla_store_segments_total`, the
    /// `pla_store_shard_epoch{shard}` epochs and each source's
    /// `pla_store_source_*{source}` pair.
    pub fn registry(&self) -> Registry {
        let mut registry = Registry::new();
        let streams = Handle::Gauge(self.streams.clone());
        registry.add("pla_store_streams", "Streams present in the store.", &[], streams);
        let segments = Handle::Counter(self.segments.clone());
        registry.add("pla_store_segments_total", "Segments appended to the store.", &[], segments);
        let help = "Append epoch per store shard (cache-validation cursor).";
        for (shard, epoch) in self.epochs.iter().enumerate() {
            let epoch = Handle::Counter(epoch.clone());
            registry.add("pla_store_shard_epoch", help, &[("shard", &shard.to_string())], epoch);
        }
        SourceSeries::declare(&mut registry);
        for (source, series) in self.sources.read().expect("segment store source lock").iter() {
            series.add_to(&mut registry, &[("source", &source.to_string())]);
        }
        registry
    }

    /// `source`'s series, made on its first append.
    fn source_series(&self, source: u64) -> SourceSeries {
        let mut sources = self.sources.write().expect("segment store source lock");
        let series = sources.entry(source).or_insert_with(|| {
            let series = SourceSeries::new();
            series.covered_through.set(f64::NEG_INFINITY);
            series
        });
        series.clone()
    }

    /// Appends `segments` in order to `stream`'s log under the owning
    /// shard's write lock, with one source and one stream lookup and
    /// one update of each handle however many segments there are.
    fn append_run(&self, source: u64, stream: StreamId, segments: impl Iterator<Item = Segment>) {
        let seal = self.seal_threshold;
        let shard = shard_of(stream, self.shards.len());
        let mut guard = self.shards[shard].write().expect("segment store shard lock");
        let inner = &mut *guard;
        let series = inner.sources.entry(source).or_insert_with(|| self.source_series(source));
        let log = match inner.streams.entry(stream) {
            Entry::Occupied(log) => log.into_mut(),
            Entry::Vacant(slot) => {
                self.streams.add(1.0);
                slot.insert(StreamLog::new(seal))
            }
        };
        let (mut n, mut reach) = (0, f64::NEG_INFINITY);
        for segment in segments {
            if segment.t_end > reach {
                reach = segment.t_end;
            }
            log.push(segment, seal);
            n += 1;
        }
        series.segments.add(n);
        series.covered_through.set_max(reach);
        self.epochs[shard].add(n);
        self.segments.add(n);
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
        self.append_run(source, stream, std::iter::once(segment));
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
        self.append_run(source, stream, segments.drain(..));
    }

    /// A point-in-time view of everything (logs and watermarks), taken
    /// one shard at a time: two `Arc` clones per stream, no segment
    /// copied. The only allocations are the snapshot's own stream and
    /// source maps and its epochs box. See the module docs for the
    /// per-shard consistency contract and the writer's copy on write.
    pub fn snapshot(&self) -> StoreSnapshot {
        let mut snap = StoreSnapshot::default();
        let mut epochs = Vec::with_capacity(self.shards.len());
        for (shard, epoch) in self.shards.iter().zip(self.epochs.iter()) {
            let inner = shard.read().expect("segment store shard lock");
            for (&id, log) in &inner.streams {
                snap.streams.insert(id, log.view(self.seal_threshold));
            }
            let epoch = epoch.get();
            snap.total_segments += epoch;
            epochs.push(epoch);
        }
        snap.epochs = epochs.into();
        let sources = self.sources.read().expect("segment store source lock");
        snap.sources = sources.iter().map(|(&id, series)| (id, series.watermark())).collect();
        snap
    }

    /// Not part of the public API: exists only as the `store_proptests`
    /// oracle (`snapshot() == snapshot_deep()`) and as the
    /// `store_concurrent/snapshot_deep` bench baseline. Every segment is
    /// deep-copied into one freshly allocated run per stream, sharing
    /// nothing with the live store.
    #[doc(hidden)]
    pub fn snapshot_deep(&self) -> StoreSnapshot {
        let mut snap = self.snapshot();
        for view in snap.streams.values_mut() {
            let flat = view.to_vec();
            *view = StreamView {
                len: flat.len(),
                run_len: flat.len().max(1),
                runs: Arc::new(vec![Arc::new(Run { segments: flat.into_boxed_slice() })]),
                tail: Arc::default(),
            };
        }
        snap
    }

    /// Per-shard epochs (segments ever admitted, per shard). Compare
    /// with a snapshot's [`epochs`](StoreSnapshot::epochs) for an
    /// O(shards) "did anything change?" probe.
    pub fn epochs(&self) -> Box<[u64]> {
        let under_lock = |(s, e): (&RwLock<ShardInner>, &Counter)| {
            let _held = s.read().expect("segment store shard lock");
            e.get()
        };
        self.shards.iter().zip(self.epochs.iter()).map(under_lock).collect()
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

    /// Total segments across all streams (`pla_store_segments_total`):
    /// monotone, may lag racing writers.
    pub fn total_segments(&self) -> u64 {
        self.segments.get()
    }

    /// `source`'s progress watermark, or `None` if it never appended.
    pub fn watermark(&self, source: u64) -> Option<SourceWatermark> {
        self.sources
            .read()
            .expect("segment store source lock")
            .get(&source)
            .map(SourceSeries::watermark)
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

    /// With no append between them, two snapshots share the sealed runs,
    /// the run list itself and the open tail: nothing is copied.
    #[test]
    fn snapshots_share_sealed_runs_with_the_store() {
        let store = SegmentStore::with_config(StoreConfig { shards: 1, seal_threshold: 2 });
        for i in 0..7 {
            store.append(1, StreamId(1), seg(i as f64, i as f64 + 1.0));
        }
        let a = store.snapshot();
        let b = store.snapshot();
        let (va, vb) = (&a.streams[&StreamId(1)], &b.streams[&StreamId(1)]);
        let (ra, rb) = (va.runs(), vb.runs());
        assert_eq!(ra.len(), 3);
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert!(Arc::ptr_eq(x, y), "snapshots must share sealed runs, not copy them");
        }
        assert_eq!(ra.as_ptr(), rb.as_ptr(), "the run list is shared");
        assert_eq!(va.tail().len(), 1);
        assert_eq!(va.tail().as_ptr(), vb.tail().as_ptr(), "the tail is shared, not copied");
    }

    #[test]
    fn held_snapshot_survives_appends_and_seals_by_copy_on_write() {
        let store = SegmentStore::with_config(StoreConfig { shards: 1, seal_threshold: 4 });
        let mut flat = Vec::new();
        for i in 0..6 {
            let s = seg(i as f64, i as f64 + 1.0);
            flat.push(s.clone());
            store.append(1, StreamId(1), s);
        }
        let held = store.snapshot();
        let held_tail = held.streams[&StreamId(1)].tail().as_ptr();
        // Fill the shared tail, seal it, and start the next one.
        for i in 6..13 {
            store.append(1, StreamId(1), seg(i as f64, i as f64 + 1.0));
        }
        let view = &held.streams[&StreamId(1)];
        assert_eq!(*view, flat, "a held snapshot never sees later appends or seals");
        assert_eq!((view.runs().len(), view.tail().len()), (1, 2));
        assert_eq!(view.tail().as_ptr(), held_tail, "the writer copied; the view kept its tail");
        let live = store.snapshot();
        let now = &live.streams[&StreamId(1)];
        assert_eq!((now.runs().len(), now.tail().len()), (3, 1));
        assert!(Arc::ptr_eq(&view.runs()[0], &now.runs()[0]), "old runs stay shared");
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
    fn registry_serves_totals_epochs_and_source_watermarks() {
        let store = SegmentStore::with_config(StoreConfig { shards: 2, seal_threshold: 64 });
        let empty = store.registry().render();
        assert!(empty.contains("# TYPE pla_store_source_segments_total counter"));
        assert!(!empty.contains("pla_store_source_segments_total{"), "no source yet");
        store.append(7, StreamId(1), seg(0.0, 2.0));
        store.append_batch(7, StreamId(2), &mut vec![seg(2.0, 3.0), seg(3.0, 5.0)]);
        let text = store.registry().render();
        assert!(text.contains("pla_store_streams 2"));
        assert!(text.contains("pla_store_segments_total 3"));
        assert!(text.contains("pla_store_source_segments_total{source=\"7\"} 3"));
        assert!(text.contains("pla_store_source_covered_through{source=\"7\"} 5"));
        let epochs: u64 = store.epochs().iter().sum();
        assert_eq!(epochs, 3);
        for (shard, epoch) in store.epochs().iter().enumerate() {
            assert!(text.contains(&format!("pla_store_shard_epoch{{shard=\"{shard}\"}} {epoch}")));
        }
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
