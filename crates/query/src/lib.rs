//! # pla-query — error-bounded queries over compressed streams
//!
//! The paper's motivating pipeline stores PLA recordings in a repository
//! "for later offline analysis" (§1). This crate is that analysis layer:
//! it answers aggregate and threshold queries **directly on the
//! compressed representation** and returns deterministic bounds on the
//! true answer, derived from the filters' L∞ guarantee — every original
//! sample is within `εᵢ` of the reconstruction, so for example
//!
//! ```text
//! mean(samples)  ∈  [mean(PLA at sample times) − ε, … + ε]
//! max(samples)   ∈  [max(PLA) − ε, max(PLA) + ε]
//! #above(θ)      ∈  [count(PLA > θ + ε), count(PLA > θ − ε)]
//! ```
//!
//! One per-stream evaluator answers every query: it reads a stream's
//! segments through the ingest store's run/tail layout, using them as
//! a learned index (two-level binary search over run start times), and
//! evaluates at a sampling grid (given explicitly or described by a
//! [`SamplingGrid`]) or over a time range, never touching the original
//! data — the whole point of the compression. Two layers sit on it:
//!
//! * [`QueryEngine`] — the grid layer: bounded aggregates over one
//!   finished [`Polyline`](pla_core::Polyline).
//! * [`StoreQueryEngine`] — point / range / aggregate queries on every
//!   stream of a live [`StoreSnapshot`](pla_ingest::StoreSnapshot).
//!
//! The serving tier puts the store engine on the wire (see
//! `crates/query/README.md` for the protocol):
//!
//! * [`wire`] — the bit-exact body codec for [`Query`]/[`QueryResult`]
//!   riding `pla-net`'s `QueryReq`/`QueryResp` frames.
//! * [`server`] — [`QueryServer`], the collector-side responder over
//!   any [`Acceptor`](pla_net::Acceptor), with epoch-lazy snapshot
//!   rebuilds.
//! * [`client`] — [`QueryClient`], a sans-I/O remote reader with
//!   pipelining, per-request timeouts, redial, and an epoch-validated
//!   result cache ([`SnapshotCache`]).
//!
//! ```
//! use pla_core::filters::{run_filter, SlideFilter};
//! use pla_core::{Polyline, Signal};
//! use pla_query::{QueryEngine, SamplingGrid};
//!
//! let signal = Signal::from_values(&[1.0, 2.0, 3.0, 4.0, 3.0, 2.0]);
//! let mut filter = SlideFilter::new(&[0.5]).unwrap();
//! let segments = run_filter(&mut filter, &signal).unwrap();
//! let engine = QueryEngine::new(Polyline::new(segments), &[0.5]).unwrap();
//!
//! let grid = SamplingGrid { t0: 0.0, dt: 1.0, n: 6 };
//! let mean = engine.mean(&grid.times(), 0).unwrap();
//! assert!(mean.lo <= 2.5 && 2.5 <= mean.hi); // true mean is inside
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod client;
mod engine;
pub mod server;
mod store;
mod types;
pub mod wire;

pub use client::{
    Cached, ClientError, ClientStats, Outcome, QueryClient, QueryClientConfig, Response,
    SnapshotCache,
};
pub use engine::QueryEngine;
pub use server::{QueryServer, QueryServerStats};
pub use store::{BoundedRange, LookupStats, RangeAggregate, StoreQueryEngine};
pub use types::{Bounded, BoundedCount, Crossing, CrossingKind, QueryError, SamplingGrid};
pub use wire::{Query, QueryResult, WireError};
