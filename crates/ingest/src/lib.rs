//! # pla-ingest — multi-stream ingest engine
//!
//! The paper defines one filter per stream; a production deployment
//! (ROADMAP north star) ingests millions of independent streams at once.
//! This crate is the layer between those two worlds:
//!
//! * [`StreamTable`] — a single-threaded registry mapping [`StreamId`] to
//!   a boxed [`StreamFilter`](pla_core::filters::StreamFilter) built from
//!   a per-stream [`FilterSpec`](pla_core::filters::FilterSpec), with
//!   per-stream error *quarantine*: a stream that feeds invalid samples is
//!   sidelined (error recorded, later samples counted and dropped) without
//!   disturbing any other stream.
//! * [`IngestEngine`] — shard-per-core scale-out: `N` worker threads, each
//!   owning one `StreamTable`, fed through bounded channels. Samples are
//!   hash-routed by stream id ([`shard_of`]), so a given stream always
//!   lands on the same shard and its samples are processed in send order —
//!   the per-stream segment sequence is *identical* to running that stream
//!   through a standalone filter (property-tested).
//! * Backpressure — the channels are bounded: [`IngestHandle::push`]
//!   blocks when a shard is saturated, [`IngestHandle::try_push`] returns
//!   [`IngestError::Backpressure`] instead, letting the caller shed load.
//! * [`SegmentStore`] — the shared, concurrently-appendable home for
//!   segment logs: streams hash across lock shards, each stream's log is
//!   a chain of immutable `Arc`-shared [`Run`]s plus an open tail, and
//!   [`snapshot`](SegmentStore::snapshot)s are two `Arc` clones per
//!   stream (the writer copies on write) with a per-shard consistency
//!   contract (see
//!   [`store`](SegmentStore)'s module docs). Fed at the base station by
//!   `pla-net`'s many-connection collector funneling every connection's
//!   reconstruction into one queryable place; `pla-query`'s
//!   `StoreQueryEngine` answers point/range/aggregate queries straight
//!   off a [`StoreSnapshot`].
//!
//! ```
//! use pla_core::filters::{FilterKind, FilterSpec};
//! use pla_ingest::{IngestConfig, IngestEngine, StreamId};
//!
//! let engine = IngestEngine::new(IngestConfig { shards: 2, ..Default::default() });
//! for id in 0..4u64 {
//!     engine.handle().register(StreamId(id), FilterSpec::new(FilterKind::Swing, &[0.5])).unwrap();
//! }
//! for j in 0..100 {
//!     for id in 0..4u64 {
//!         engine.handle().push(StreamId(id), j as f64, &[(j as f64) * 0.1]).unwrap();
//!     }
//! }
//! let report = engine.finish();
//! assert_eq!(report.streams.len(), 4);
//! for out in report.streams.values() {
//!     assert_eq!(out.segments.len(), 1); // clean ramps: one segment each
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod engine;
mod store;
mod table;

pub use engine::{shard_of, IngestConfig, IngestEngine, IngestHandle, IngestReport, ShardStats};
pub use store::{Run, SegmentStore, SourceWatermark, StoreConfig, StoreSnapshot, StreamView};
pub use table::{IngestError, Quarantine, StreamOutput, StreamTable};

/// Identity of one logical stream.
///
/// Stream ids are caller-assigned opaque integers; the engine only hashes
/// them for shard routing and orders them in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub u64);

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream#{}", self.0)
    }
}
