//! # pla — online piece-wise linear approximation with precision guarantees
//!
//! Umbrella crate re-exporting the whole workspace: a faithful, tested
//! implementation of the swing and slide filters of
//!
//! > H. Elmeleegy, A. K. Elmagarmid, E. Cecchet, W. G. Aref, W. Zwaenepoel.
//! > *Online Piece-wise Linear Approximation of Numerical Streams with
//! > Precision Guarantees.* VLDB 2009.
//!
//! together with the cache and linear baseline filters the paper compares
//! against, workload generators, a transmitter/receiver transport layer,
//! and the experiment harness that regenerates every figure of the paper's
//! evaluation section.
//!
//! ## Quick start
//!
//! ```
//! use pla::core::filters::{SlideFilter, StreamFilter};
//! use pla::core::Segment;
//!
//! // Compress a 1-D stream under an L∞ error bound of 0.5.
//! let mut filter = SlideFilter::builder(&[0.5]).build().unwrap();
//! let mut segments: Vec<Segment> = Vec::new();
//! for (j, x) in [10.0, 10.4, 10.9, 11.2, 11.8, 25.0, 25.1].iter().enumerate() {
//!     filter.push(j as f64, &[*x], &mut segments).unwrap();
//! }
//! filter.finish(&mut segments).unwrap();
//!
//! // The jump to 25.0 forces a second segment; every input point is
//! // guaranteed to be within 0.5 of the emitted polyline.
//! assert_eq!(segments.len(), 2);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/eval` for the
//! paper-reproduction harness.

#![forbid(unsafe_code)]

pub use pla_core as core;
pub use pla_eval as eval;
pub use pla_geom as geom;
pub use pla_ingest as ingest;
pub use pla_net as net;
pub use pla_ops as ops;
pub use pla_query as query;
pub use pla_signal as signal;
pub use pla_swab as swab;
pub use pla_transport as transport;
