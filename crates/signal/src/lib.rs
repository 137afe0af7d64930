//! # pla-signal — workload substrate for the `pla` workspace
//!
//! Generators for every signal family of the paper's evaluation (§5) plus
//! CSV I/O:
//!
//! * [`random_walk`] — the §5.3 synthetic model: value decreases with
//!   probability `p`, increases with `1 − p`, step magnitude `U(0, x)`
//!   (Figures 9 and 10);
//! * [`multi_walk`] / [`correlated_walk`] — the §5.4 multi-dimensional
//!   models with independent or ρ-correlated dimensions (Figures 11
//!   and 12);
//! * [`sea_surface`] — a deterministic proxy for the TAO sea-surface
//!   temperature trace of Figures 6–8 and 13 (the original NOAA file is
//!   not distributable with this repository; DESIGN.md §4 documents why
//!   the proxy preserves the relevant behaviour);
//! * [`waveforms`] — deterministic shapes (ramps, sines, steps) for tests
//!   and examples;
//! * [`csv`] — plain-text interchange so users can feed their own traces
//!   (including the real TAO data) to the filters.
//!
//! All generators are seeded and deterministic: the same parameters always
//! produce the same [`Signal`], which the experiment harness relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod csv;
mod gauss;
mod sea;
mod stats;
mod walk;
pub mod waveforms;

pub use sea::{sea_surface, sea_surface_with, SeaSurfaceParams};
pub use stats::{increment_correlation, pearson};
pub use walk::{correlated_walk, multi_walk, random_walk, WalkParams};

pub use pla_core::Signal;
