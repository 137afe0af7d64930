//! # pla-eval — the paper-reproduction harness
//!
//! One experiment module per figure of the paper's §5 evaluation plus the
//! ablations listed in DESIGN.md. Each experiment is a pure function from
//! a [`Config`](experiments::Config) to a [`Table`] — the `repro` binary
//! prints the tables, and EXPERIMENTS.md records a paper-vs-measured
//! comparison for every one.
//!
//! | Experiment | Paper result | Module |
//! |---|---|---|
//! | `fig6` | sea-surface signal dump | [`experiments::fig6_signal`] |
//! | `fig7` | compression ratio vs precision width | [`experiments::fig7_compression`] |
//! | `fig8` | average error vs precision width | [`experiments::fig8_error`] |
//! | `fig9` | CR vs degree of monotonicity | [`experiments::fig9_monotonicity`] |
//! | `fig10` | CR vs step magnitude | [`experiments::fig10_delta`] |
//! | `fig11` | CR vs number of dimensions | [`experiments::fig11_dims`] |
//! | `fig12` | CR vs dimension correlation | [`experiments::fig12_correlation`] |
//! | `fig13` | per-point processing time vs precision width | [`experiments::fig13_overhead`] |
//! | `joint` | §5.4 joint-vs-independent analysis | [`experiments::joint_vs_independent`] |
//! | `lag` | CR degradation under `m_max_lag` (ablation) | [`experiments::lag_ablation`] |
//! | `hull` | hull size vs interval length (ablation) | [`experiments::hull_ablation`] |
//! | `connect` | slide connection rate (ablation) | [`experiments::connect_ablation`] |
//! | `bytes` | wire-byte compression (ablation) | [`experiments::bytes_ablation`] |
//! | `variants` | cache-variant comparison (ablation) | [`experiments::variants_ablation`] |
//! | `multistream` | ingest throughput vs shard count (scale-out) | [`experiments::multistream_throughput`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
mod filters;
mod table;

pub use filters::FilterKind;
pub use table::Table;
