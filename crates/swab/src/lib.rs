//! # pla-swab — SWAB segmentation with swing/slide lookahead
//!
//! Keogh, Chu, Hart & Pazzani's **SWAB** (Sliding Window And Bottom-up,
//! ICDM 2001) merges an offline bottom-up segmenter with an online
//! lookahead that decides how much new data to buffer. The VLDB 2009
//! swing/slide paper calls itself *complementary* to SWAB: "the swing and
//! slide filters can replace the linear filter in the SWAB algorithm"
//! (§6). This crate builds both halves and makes the lookahead pluggable,
//! so that claim can be tested rather than taken on faith:
//!
//! * [`bottom_up`] — offline bottom-up segmentation under a per-dimension
//!   L∞ bound: repeatedly merge the cheapest adjacent pair of segments
//!   whose merged least-squares fit still keeps every point within `εᵢ`;
//! * [`Swab`] — the streaming wrapper: points accumulate in a bounded
//!   buffer; whenever the lookahead filter closes one of its own
//!   intervals (or the buffer fills), the buffer is re-segmented
//!   bottom-up and the *leftmost* segment is emitted, keeping the rest
//!   for future refinement. [`Swab`] implements
//!   [`StreamFilter`](pla_core::filters::StreamFilter), so everything in
//!   `pla-core::metrics` and `pla-transport` applies to it unchanged.
//!
//! Differences from Keogh's original, documented per DESIGN.md §4:
//! the merge acceptance test uses the max *absolute* residual of the
//! per-dimension least-squares fit (not residual sum of squares), so the
//! emitted segments carry the same L∞ guarantee as the rest of this
//! workspace. A least-squares fit is not the Chebyshev-optimal line, so
//! the segmenter is conservative: it may split where an optimal fit could
//! merge, but it never violates `ε`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod bottom_up;
mod streaming;

pub use bottom_up::{bottom_up, fit_segment};
pub use streaming::{Lookahead, Swab};
