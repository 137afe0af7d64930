//! Computational-geometry substrate for the `pla` workspace.
//!
//! The slide filter of Elmeleegy et al. (VLDB 2009) reduces its envelope
//! maintenance to two classic planar problems (paper §4.1, Lemma 4.3):
//!
//! 1. **Incremental convex hull** of the data points observed in the current
//!    filtering interval, where points arrive in strictly increasing time
//!    order. This is the "two sorted chains" special case of Andrew's
//!    monotone-chain algorithm: each insertion appends to both chains and
//!    pops vertices that no longer turn the right way (amortized O(1)).
//! 2. **Extreme-slope tangents** from a new point (which lies strictly to
//!    the right of the hull) to the ε-shifted hull — the candidate upper and
//!    lower envelope lines of Lemma 4.1.
//!
//! The paper cites de Berg et al., *Computational Geometry* for (1) and
//! Chazelle & Dobkin for a sub-linear version of (2). This crate implements
//! both a linear scan and an O(log n) binary search for (2); the slide
//! filter uses the scan by default (hulls stay tiny in practice — the
//! paper's Figure 13 observation) and the tests cross-check the two.
//!
//! Everything here is allocation-conscious: the hull reuses its vertex
//! buffers across filtering intervals via [`IncrementalHull::clear`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod hull;
mod line;
mod point;
mod tangent;

pub use hull::{batch_hull, Chain, IncrementalHull};
pub use line::Line;
pub use point::{cross, turn, Point2, Turn};
pub use tangent::{max_slope_to_chain, min_slope_to_chain, scan, TangentHit};
