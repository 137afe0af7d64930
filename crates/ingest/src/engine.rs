//! The shard-per-core engine: hash-routed worker threads, bounded
//! channels, fan-in reporting.
//!
//! Every stream is pinned to one shard by [`shard_of`], a deterministic
//! hash of its id — so a stream's samples are always processed by the same
//! worker, in the order they were sent, and the per-stream segment output
//! is identical to a standalone filter run regardless of the shard count.
//! The channels are *bounded*: a saturated shard pushes back on producers
//! ([`IngestHandle::push`] blocks, [`IngestHandle::try_push`] reports
//! [`IngestError::Backpressure`]) instead of buffering without limit.

use std::collections::BTreeMap;
use std::sync::mpsc::{self, sync_channel, Receiver, SyncSender, TrySendError};
use std::thread::JoinHandle;

use pla_core::filters::FilterSpec;
use pla_core::{DimVec, Segment};
use pla_metrics::{Counter, Gauge, Registry};

use crate::table::{IngestError, StreamOutput, StreamTable};
use crate::StreamId;

/// Deterministic stream→shard routing: a SplitMix64 finalizer over the
/// stream id, reduced modulo the shard count. Stable across runs,
/// machines, and engine instances, so tests (and repartition tooling) can
/// predict placements.
pub fn shard_of(stream: StreamId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut z = stream.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % shards as u64) as usize
}

/// Engine construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Worker thread count (clamped to ≥ 1). The intended setting is one
    /// shard per core.
    pub shards: usize,
    /// Bounded capacity of each shard's input queue, in operations
    /// (clamped to ≥ 1). This is the backpressure knob: the total number
    /// of in-flight samples is at most `shards × queue_depth` plus one
    /// batch per producer.
    pub queue_depth: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        let shards = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self { shards, queue_depth: 1024 }
    }
}

/// Counters one shard accumulates over its lifetime, read from its
/// series at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Operations dequeued (registrations, pushes, batches, finishes).
    pub ops: u64,
    /// Samples offered to this shard (including dropped ones).
    pub samples: u64,
    /// Samples addressed to ids never registered on this shard (an
    /// unknown `finish_stream` drops no samples and is not counted).
    pub unknown_stream_drops: u64,
    /// Registrations dropped because the id was already registered. The
    /// original filter keeps running; re-registration with a new spec is
    /// not supported.
    pub duplicate_registers: u64,
    /// Streams registered on this shard.
    pub streams: usize,
    /// Segments emitted by this shard's filters.
    pub segments: u64,
    /// [`IngestHandle::try_push`] attempts refused with
    /// [`IngestError::Backpressure`] because this shard's queue was
    /// full. Counted on the handle side (the sample never reaches the
    /// shard), so shed load is observable instead of silently vanishing
    /// at the call sites.
    pub backpressure: u64,
}

pla_metrics::series! {
    /// One shard's exported series, labeled `shard="<i>"`.
    #[derive(Clone)]
    struct ShardSeries {
        ops: counter("pla_ingest_ops_total", "Queue operations processed, per shard."),
        samples: counter("pla_ingest_samples_total", "Samples pushed through filters, per shard."),
        segments: counter("pla_ingest_segments_total", "Segments emitted, per shard."),
        backpressure: counter("pla_ingest_backpressure_total",
            "try_push rejections due to a full shard queue, per shard."),
        unknown_stream_drops: counter("pla_ingest_unknown_stream_drops_total",
            "Samples dropped for unregistered streams, per shard."),
        streams: gauge("pla_ingest_streams", "Streams registered, per shard."),
    }
}

/// What the engine hands back at shutdown.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestReport {
    /// Per-stream outputs, ordered by stream id.
    pub streams: BTreeMap<StreamId, StreamOutput>,
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
}

impl IngestReport {
    /// Total segments across all streams.
    pub fn total_segments(&self) -> usize {
        self.streams.values().map(|o| o.segments.len()).sum()
    }

    /// Total samples the filters absorbed.
    pub fn total_samples(&self) -> u64 {
        self.streams.values().map(|o| o.samples_in).sum()
    }

    /// Number of quarantined streams.
    pub fn quarantined(&self) -> usize {
        self.streams.values().filter(|o| o.quarantine.is_some()).count()
    }
}

enum Op {
    Register {
        stream: StreamId,
        spec: FilterSpec,
    },
    /// One sample. Its values travel inline in the queue slot for
    /// d ≤ [`INLINE_DIMS`](pla_core::INLINE_DIMS) and in one heap buffer
    /// above, so the common per-sample handoff allocates nothing on the
    /// producer and frees nothing on the shard.
    Push {
        stream: StreamId,
        t: f64,
        x: DimVec<f64>,
    },
    /// Columnar batch: `values` holds `dims` contiguous values per sample.
    PushBatch {
        stream: StreamId,
        dims: usize,
        times: Box<[f64]>,
        values: Box<[f64]>,
    },
    FinishStream {
        stream: StreamId,
    },
    Shutdown,
}

struct ShardResult {
    outputs: BTreeMap<StreamId, StreamOutput>,
    duplicate_registers: u64,
}

/// Cloneable producer handle: routes samples to shards.
///
/// All methods are callable from any thread. Samples for one stream sent
/// from one thread are processed in send order; interleavings *between*
/// producers racing on the same stream are, as always, unordered.
#[derive(Clone)]
pub struct IngestHandle {
    senders: Vec<SyncSender<Op>>,
    /// Each shard's `pla_ingest_backpressure_total` handle.
    backpressure: Vec<Counter>,
}

impl IngestHandle {
    fn sender_for(&self, stream: StreamId) -> &SyncSender<Op> {
        &self.senders[shard_of(stream, self.senders.len())]
    }

    fn send(&self, stream: StreamId, op: Op) -> Result<(), IngestError> {
        self.sender_for(stream).send(op).map_err(|_| IngestError::Closed)
    }

    /// Number of shards this handle routes across.
    pub fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Registers a stream. The spec is validated here, synchronously;
    /// routing and filter construction happen on the owning shard. A
    /// duplicate id is dropped there — the first registration's filter
    /// keeps running — and counted in
    /// [`ShardStats::duplicate_registers`].
    pub fn register(&self, stream: StreamId, spec: FilterSpec) -> Result<(), IngestError> {
        spec.validate().map_err(|error| IngestError::Filter { stream, error })?;
        self.send(stream, Op::Register { stream, spec })
    }

    /// Sends one sample, blocking while the owning shard's queue is full
    /// (backpressure). The values are copied into the queue slot itself
    /// for d ≤ [`INLINE_DIMS`](pla_core::INLINE_DIMS), so the handoff
    /// allocates nothing; above that they take one heap buffer.
    pub fn push(&self, stream: StreamId, t: f64, x: &[f64]) -> Result<(), IngestError> {
        self.send(stream, Op::Push { stream, t, x: DimVec::from_slice(x) })
    }

    /// Sends one sample without blocking; a full shard queue yields
    /// [`IngestError::Backpressure`]. Every rejection is counted into
    /// the owning shard's [`ShardStats::backpressure`]. The values travel
    /// as in [`push`](Self::push): inline for d ≤
    /// [`INLINE_DIMS`](pla_core::INLINE_DIMS), one heap buffer above.
    pub fn try_push(&self, stream: StreamId, t: f64, x: &[f64]) -> Result<(), IngestError> {
        let shard = shard_of(stream, self.senders.len());
        match self.senders[shard].try_send(Op::Push { stream, t, x: DimVec::from_slice(x) }) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                self.backpressure[shard].inc();
                Err(IngestError::Backpressure)
            }
            Err(TrySendError::Disconnected(_)) => Err(IngestError::Closed),
        }
    }

    /// Sends a whole batch as one queue operation (one routing decision,
    /// one channel rendezvous, and the filter's batch fast path on the
    /// shard). All samples must share one dimensionality.
    pub fn push_batch(
        &self,
        stream: StreamId,
        samples: &[(f64, &[f64])],
    ) -> Result<(), IngestError> {
        let Some(&(_, first)) = samples.first() else { return Ok(()) };
        let dims = first.len();
        let mut times = Vec::with_capacity(samples.len());
        let mut values = Vec::with_capacity(samples.len() * dims);
        for &(t, x) in samples {
            if x.len() != dims {
                return Err(IngestError::RaggedBatch);
            }
            times.push(t);
            values.extend_from_slice(x);
        }
        self.send(
            stream,
            Op::PushBatch { stream, dims, times: times.into(), values: values.into() },
        )
    }

    /// Ends a stream, flushing its filter's pending output.
    pub fn finish_stream(&self, stream: StreamId) -> Result<(), IngestError> {
        self.send(stream, Op::FinishStream { stream })
    }
}

/// The multi-stream ingest engine. See the crate docs for the model.
///
/// ```
/// use pla_core::filters::{FilterKind, FilterSpec};
/// use pla_ingest::{IngestConfig, IngestEngine, StreamId};
///
/// // Shard-per-core ingest with a live segment tap.
/// let (engine, tap) =
///     IngestEngine::with_segment_tap(IngestConfig { shards: 2, ..Default::default() });
/// let handle = engine.handle();
/// handle.register(StreamId(7), FilterSpec::new(FilterKind::Swing, &[0.5])).unwrap();
/// for j in 0..100 {
///     handle.push(StreamId(7), j as f64, &[(j as f64 * 0.1).sin()]).unwrap();
/// }
/// let report = engine.finish();
/// // The tap carried exactly the stream's segment log, in order.
/// let tapped: Vec<_> = tap.iter().map(|(_, seg)| seg).collect();
/// assert_eq!(tapped, report.streams[&StreamId(7)].segments);
/// ```
pub struct IngestEngine {
    handle: IngestHandle,
    workers: Vec<JoinHandle<ShardResult>>,
    series: Vec<ShardSeries>,
    registry: Registry,
}

impl IngestEngine {
    /// Spawns the shard workers described by `config`.
    pub fn new(config: IngestConfig) -> Self {
        Self::build(config, None)
    }

    /// Spawns the engine with a *segment tap*: every segment any shard's
    /// filters emit is also sent, live, as `(stream, segment)` over the
    /// returned channel — the feed `pla-net`'s uplink multiplexes out
    /// over one connection.
    ///
    /// Ordering: segments of one stream arrive in emission order (a
    /// stream is pinned to one shard); interleaving between streams is
    /// whatever the shards race to. The channel is unbounded — the tap
    /// must not be able to deadlock the shards against the engine's own
    /// bounded queues — so a consumer that stops draining trades memory
    /// for that safety. The tap closes when the engine finishes.
    pub fn with_segment_tap(config: IngestConfig) -> (Self, mpsc::Receiver<(StreamId, Segment)>) {
        let (tap_tx, tap_rx) = mpsc::channel();
        (Self::build(config, Some(tap_tx)), tap_rx)
    }

    fn build(config: IngestConfig, tap: Option<mpsc::Sender<(StreamId, Segment)>>) -> Self {
        let shards = config.shards.max(1);
        let depth = config.queue_depth.max(1);
        let mut registry = Registry::new();
        let series: Vec<ShardSeries> = (0..shards)
            .map(|i| ShardSeries::register(&mut registry, &[("shard", &i.to_string())]))
            .collect();
        let quarantined = registry
            .gauge("pla_ingest_quarantined_streams", "Streams quarantined by a filter error.");
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (shard, series) in series.iter().enumerate() {
            let (tx, rx) = sync_channel::<Op>(depth);
            senders.push(tx);
            let (series, quarantined, tap) = (series.clone(), quarantined.clone(), tap.clone());
            workers.push(
                std::thread::Builder::new()
                    .name(format!("pla-ingest-shard-{shard}"))
                    .spawn(move || run_shard(rx, series, quarantined, tap))
                    .expect("spawn shard worker"),
            );
        }
        let backpressure = series.iter().map(|s| s.backpressure.clone()).collect();
        Self { handle: IngestHandle { senders, backpressure }, workers, series, registry }
    }

    /// The engine's series, live while the shards run: per-shard
    /// `pla_ingest_*{shard}`, plus `pla_ingest_quarantined_streams`.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A cloneable producer handle.
    pub fn handle(&self) -> IngestHandle {
        self.handle.clone()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.handle.senders.len()
    }

    /// The shard a stream is pinned to.
    pub fn shard_of(&self, stream: StreamId) -> usize {
        shard_of(stream, self.shards())
    }

    /// Shuts down: every queued operation is drained — including
    /// operations that raced in behind the shutdown marker — every live
    /// stream is finished, and the per-stream outputs are collected.
    ///
    /// Producers should stop feeding first; an operation enqueued
    /// concurrently with `finish` is still processed if it lands before
    /// the worker's final queue drain, and sends after shutdown fail
    /// with [`IngestError::Closed`].
    pub fn finish(self) -> IngestReport {
        for tx in &self.handle.senders {
            // A full queue still accepts the shutdown marker eventually;
            // a worker that already exited (impossible without Shutdown,
            // but defensive) just drops it.
            let _ = tx.send(Op::Shutdown);
        }
        let mut streams = BTreeMap::new();
        let mut shards = Vec::with_capacity(self.workers.len());
        for (worker, series) in self.workers.into_iter().zip(&self.series) {
            let result = worker.join().expect("shard worker panicked");
            streams.extend(result.outputs);
            shards.push(ShardStats {
                ops: series.ops.get(),
                samples: series.samples.get(),
                unknown_stream_drops: series.unknown_stream_drops.get(),
                duplicate_registers: result.duplicate_registers,
                streams: series.streams.get() as usize,
                segments: series.segments.get(),
                backpressure: series.backpressure.get(),
            });
        }
        IngestReport { streams, shards }
    }
}

/// `(t, x)` pair views over columnar batch storage. `dims == 0` yields
/// empty value slices (zero-dimension batches are rejected later by the
/// filter's own validation).
fn pair_iter<'a>(
    dims: usize,
    times: &'a [f64],
    values: &'a [f64],
) -> impl Iterator<Item = (f64, &'a [f64])> {
    times.iter().enumerate().map(move |(i, &t)| {
        let x = if dims == 0 { &[][..] } else { &values[i * dims..(i + 1) * dims] };
        (t, x)
    })
}

/// Writes the pair views into `out` (the small-batch stack buffer).
fn fill_pairs<'a>(out: &mut [(f64, &'a [f64])], dims: usize, times: &'a [f64], values: &'a [f64]) {
    for (slot, pair) in out.iter_mut().zip(pair_iter(dims, times, values)) {
        *slot = pair;
    }
}

/// One shard worker's mutable state, factored out so the main receive
/// loop and the post-shutdown drain apply operations identically.
struct ShardWorker {
    table: StreamTable,
    series: ShardSeries,
    quarantined: Gauge,
    duplicate_registers: u64,
    tap: Option<mpsc::Sender<(StreamId, Segment)>>,
}

impl ShardWorker {
    /// Counts the segments emitted since the last call for `stream` and
    /// forwards them to the live tap, if there is one.
    fn emit_new_segments(&mut self, stream: StreamId) {
        let tap = &self.tap;
        let n = self.table.drain_new_segments(stream, |seg| {
            if let Some(tap) = tap {
                // A dropped tap consumer is load shedding, not an error.
                let _ = tap.send((stream, seg.clone()));
            }
        });
        if n > 0 {
            self.series.segments.add(n as u64);
        }
    }

    /// Counts the quarantine a filter error just started, and the
    /// samples an unregistered stream dropped.
    fn count_error<T>(&self, result: Result<T, IngestError>, samples: u64) {
        match result {
            Err(IngestError::Filter { .. }) => self.quarantined.add(1.0),
            Err(IngestError::UnknownStream(_)) => self.series.unknown_stream_drops.add(samples),
            _ => {}
        }
    }

    /// Applies one queued operation.
    fn apply(&mut self, op: Op) {
        self.series.ops.inc();
        match op {
            Op::Register { stream, spec } => {
                // An unbuildable spec is recorded in the table as
                // quarantine state; a duplicate registration is dropped
                // (the original filter keeps running) and counted so the
                // discard is observable.
                match self.table.register(stream, &spec) {
                    Err(IngestError::DuplicateStream(_)) => self.duplicate_registers += 1,
                    result => self.count_error(result, 0),
                }
                self.series.streams.set(self.table.len() as f64);
            }
            Op::Push { stream, t, x } => {
                self.series.samples.inc();
                let result = self.table.push(stream, t, &x);
                self.count_error(result, 1);
                self.emit_new_segments(stream);
            }
            Op::PushBatch { stream, dims, times, values } => {
                self.series.samples.add(times.len() as u64);
                // Rebuild the pair view on a small stack buffer for
                // small batches (its zero-init is cheaper than an
                // allocation); larger batches build an exact-capacity
                // heap Vec whose one allocation amortizes over the
                // batch. The filters' own scratch reuse in pla-core
                // keeps the rest of the path allocation-free.
                const PAIR_STACK: usize = 32;
                let n = times.len();
                let mut stack = [(0.0f64, &[][..]); PAIR_STACK];
                let heap: Vec<(f64, &[f64])>;
                let pairs: &[(f64, &[f64])] = if n <= PAIR_STACK {
                    fill_pairs(&mut stack[..n], dims, &times, &values);
                    &stack[..n]
                } else {
                    heap = pair_iter(dims, &times, &values).collect();
                    &heap
                };
                let result = self.table.push_batch(stream, pairs);
                self.count_error(result, times.len() as u64);
                self.emit_new_segments(stream);
            }
            Op::FinishStream { stream } => {
                // An unknown finish drops no samples.
                let result = self.table.finish_stream(stream);
                self.count_error(result, 0);
                self.emit_new_segments(stream);
            }
            Op::Shutdown => unreachable!("Shutdown is handled by the receive loop"),
        }
    }
}

fn run_shard(
    rx: Receiver<Op>,
    series: ShardSeries,
    quarantined: Gauge,
    tap: Option<mpsc::Sender<(StreamId, Segment)>>,
) -> ShardResult {
    let table = StreamTable::new();
    let mut worker = ShardWorker { table, series, quarantined, duplicate_registers: 0, tap };
    while let Ok(op) = rx.recv() {
        if matches!(op, Op::Shutdown) {
            worker.series.ops.inc();
            // Graceful drain: operations that raced into the queue
            // behind the shutdown marker are still in flight from a
            // producer's point of view — process them instead of
            // silently dropping the queue tail with the channel.
            while let Ok(op) = rx.try_recv() {
                if !matches!(op, Op::Shutdown) {
                    worker.apply(op);
                }
            }
            break;
        }
        worker.apply(op);
    }
    worker.quarantined.add(worker.table.finish_all() as f64);
    let ids: Vec<StreamId> = worker.table.ids().collect();
    for stream in ids {
        worker.emit_new_segments(stream);
    }
    ShardResult {
        outputs: worker.table.into_outputs(),
        duplicate_registers: worker.duplicate_registers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pla_core::filters::FilterKind;

    fn spec() -> FilterSpec {
        FilterSpec::new(FilterKind::Swing, &[0.5])
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        for shards in [1usize, 2, 3, 4, 7] {
            let mut seen = vec![false; shards];
            for id in 0..1000u64 {
                let s = shard_of(StreamId(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(StreamId(id), shards), "routing must be stable");
                seen[s] = true;
            }
            assert!(seen.iter().all(|&b| b), "{shards} shards: some shard got no stream");
        }
    }

    #[test]
    fn engine_compresses_and_reports() {
        let (engine, tap) =
            IngestEngine::with_segment_tap(IngestConfig { shards: 2, queue_depth: 8 });
        let h = engine.handle();
        for id in 0..6u64 {
            h.register(StreamId(id), spec()).unwrap();
        }
        for j in 0..200 {
            for id in 0..6u64 {
                h.push(StreamId(id), j as f64, &[(j as f64 * (0.1 + id as f64 * 0.05)).sin()])
                    .unwrap();
            }
        }
        let report = engine.finish();
        assert_eq!(report.streams.len(), 6);
        assert_eq!(report.total_samples(), 6 * 200);
        assert_eq!(report.quarantined(), 0);
        // The tap carries every segment exactly once.
        assert_eq!(tap.iter().count(), report.total_segments());
        // Per-shard stats add up.
        let samples: u64 = report.shards.iter().map(|s| s.samples).sum();
        assert_eq!(samples, 6 * 200);
    }

    #[test]
    fn unknown_streams_are_counted_not_fatal() {
        let engine = IngestEngine::new(IngestConfig { shards: 2, queue_depth: 4 });
        let h = engine.handle();
        h.register(StreamId(1), spec()).unwrap();
        h.push(StreamId(1), 0.0, &[1.0]).unwrap();
        h.push(StreamId(999), 0.0, &[1.0]).unwrap(); // never registered
        h.push(StreamId(1), 1.0, &[1.1]).unwrap();
        let report = engine.finish();
        assert_eq!(report.streams.len(), 1);
        let drops: u64 = report.shards.iter().map(|s| s.unknown_stream_drops).sum();
        assert_eq!(drops, 1);
    }

    #[test]
    fn unknown_batches_count_every_sample_dropped() {
        let engine = IngestEngine::new(IngestConfig { shards: 1, queue_depth: 4 });
        let h = engine.handle();
        h.register(StreamId(1), spec()).unwrap();
        let x = [1.0];
        let samples: Vec<(f64, &[f64])> = (0..5).map(|j| (j as f64, &x[..])).collect();
        h.push_batch(StreamId(999), &samples).unwrap(); // never registered
        let report = engine.finish();
        let drops: u64 = report.shards.iter().map(|s| s.unknown_stream_drops).sum();
        assert_eq!(drops, 5, "a dropped batch counts per sample, not per op");
    }

    #[test]
    fn duplicate_registration_is_counted_and_first_spec_wins() {
        let engine = IngestEngine::new(IngestConfig { shards: 1, queue_depth: 8 });
        let h = engine.handle();
        h.register(StreamId(1), spec()).unwrap();
        // Same id, different spec: validated Ok at the handle, dropped on
        // the shard — observable through the duplicate counter.
        h.register(StreamId(1), FilterSpec::new(FilterKind::Cache, &[2.0])).unwrap();
        h.push(StreamId(1), 0.0, &[1.0]).unwrap();
        h.push(StreamId(1), 1.0, &[1.1]).unwrap();
        let report = engine.finish();
        assert_eq!(report.shards[0].duplicate_registers, 1);
        assert_eq!(report.streams.len(), 1);
        assert_eq!(report.streams[&StreamId(1)].samples_in, 2, "first filter keeps running");
    }

    #[test]
    fn shutdown_drains_operations_queued_behind_the_marker() {
        // Deterministic construction of the shutdown race: stall the
        // single shard with a pipeline of large batches, send the
        // shutdown marker while it is still chewing, then enqueue more
        // samples *behind the marker*. The graceful drain must process
        // them instead of dropping the queue tail.
        let engine = IngestEngine::new(IngestConfig { shards: 1, queue_depth: 32 });
        let h = engine.handle();
        h.register(StreamId(1), spec()).unwrap();
        let values: Vec<f64> = (0..500_000).map(|j| (j as f64 * 0.01).sin()).collect();
        let mut t0 = 0.0;
        for _ in 0..8 {
            let samples: Vec<(f64, &[f64])> = values
                .iter()
                .enumerate()
                .map(|(j, v)| (t0 + j as f64, std::slice::from_ref(v)))
                .collect();
            h.push_batch(StreamId(1), &samples).unwrap();
            t0 += values.len() as f64;
        }
        // The shard is now busy for tens of milliseconds. Shut down from
        // another thread; its marker enqueues behind the batches.
        let finisher = std::thread::spawn(move || engine.finish());
        std::thread::sleep(std::time::Duration::from_millis(2));
        // These land behind the shutdown marker (the shard is still busy
        // with the batch pipeline). A push can fail Closed only if the
        // worker already exited — count the ones that were accepted.
        let mut late_ok = 0u64;
        for j in 0..8 {
            if h.push(StreamId(1), t0 + j as f64, &[0.5]).is_ok() {
                late_ok += 1;
            }
        }
        let report = finisher.join().expect("finish");
        assert_eq!(
            report.total_samples(),
            8 * 500_000 + late_ok,
            "samples queued behind the shutdown marker must be drained, not dropped"
        );
        assert!(late_ok > 0, "the late pushes should have reached the queue");
    }

    #[test]
    fn backpressure_rejections_are_counted_per_shard() {
        // Stall the single shard with a large batch, fill its depth-1
        // queue, then watch try_push rejections: every Backpressure the
        // caller sees must be visible in the report.
        let engine = IngestEngine::new(IngestConfig { shards: 1, queue_depth: 1 });
        let h = engine.handle();
        h.register(StreamId(1), spec()).unwrap();
        let values: Vec<f64> = (0..1_000_000).map(|j| (j as f64 * 0.01).sin()).collect();
        let samples: Vec<(f64, &[f64])> =
            values.iter().enumerate().map(|(j, v)| (j as f64, std::slice::from_ref(v))).collect();
        h.push_batch(StreamId(1), &samples).unwrap();
        // Occupy the single queue slot, then push against the full queue.
        let t1 = values.len() as f64;
        h.push(StreamId(1), t1, &[0.0]).unwrap();
        let mut rejected = 0u64;
        for j in 0..16 {
            match h.try_push(StreamId(1), t1 + 1.0 + j as f64, &[0.0]) {
                Err(IngestError::Backpressure) => rejected += 1,
                Ok(()) => {}
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejected > 0, "the depth-1 queue should have pushed back");
        let report = engine.finish();
        let counted: u64 = report.shards.iter().map(|s| s.backpressure).sum();
        assert_eq!(counted, rejected, "every rejection the caller saw must be reported");
    }

    #[test]
    fn segment_tap_streams_every_segment_live_in_order() {
        let (engine, tap) =
            IngestEngine::with_segment_tap(IngestConfig { shards: 2, queue_depth: 16 });
        let h = engine.handle();
        for id in 0..6u64 {
            h.register(StreamId(id), spec()).unwrap();
        }
        for j in 0..300 {
            for id in 0..6u64 {
                h.push(
                    StreamId(id),
                    j as f64,
                    &[(j as f64 * (0.2 + id as f64 * 0.07)).sin() * 3.0],
                )
                .unwrap();
            }
        }
        let report = engine.finish();
        // The tap closed with the engine; collect everything it carried.
        let mut tapped: BTreeMap<StreamId, Vec<Segment>> = BTreeMap::new();
        while let Ok((stream, seg)) = tap.recv() {
            tapped.entry(stream).or_default().push(seg);
        }
        assert_eq!(tapped.len(), report.streams.len());
        for (id, out) in &report.streams {
            assert_eq!(
                tapped[id], out.segments,
                "{id}: tap must carry the exact segment log in emission order"
            );
        }
    }

    #[test]
    fn sends_after_finish_fail_closed() {
        let engine = IngestEngine::new(IngestConfig { shards: 1, queue_depth: 4 });
        let h = engine.handle();
        h.register(StreamId(1), spec()).unwrap();
        let _ = engine.finish();
        assert_eq!(h.push(StreamId(1), 0.0, &[1.0]), Err(IngestError::Closed));
        assert_eq!(h.try_push(StreamId(1), 0.0, &[1.0]), Err(IngestError::Closed));
    }

    #[test]
    fn invalid_spec_is_rejected_at_the_handle() {
        let engine = IngestEngine::new(IngestConfig { shards: 1, queue_depth: 4 });
        let h = engine.handle();
        let bad = FilterSpec::new(FilterKind::Swing, &[-1.0]);
        assert!(matches!(
            h.register(StreamId(1), bad),
            Err(IngestError::Filter { stream: StreamId(1), .. })
        ));
        let _ = engine.finish();
    }

    #[test]
    fn ragged_batches_are_rejected() {
        let engine = IngestEngine::new(IngestConfig { shards: 1, queue_depth: 4 });
        let h = engine.handle();
        h.register(StreamId(1), spec()).unwrap();
        let a = [1.0, 2.0];
        let b = [1.0];
        let ragged: Vec<(f64, &[f64])> = vec![(0.0, &a[..]), (1.0, &b[..])];
        assert_eq!(h.push_batch(StreamId(1), &ragged), Err(IngestError::RaggedBatch));
        let _ = engine.finish();
    }
}
