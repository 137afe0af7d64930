//! # pla-ops — the operations tier
//!
//! Everything the pipeline measures made operable: the registries the
//! collector, store, ingest engines, session senders and query server
//! keep of their own series, served as Prometheus text exposition by a
//! minimal HTTP/1.1 admin surface pumped beside the collector, plus
//! file/env configuration so a collector+store+query stack boots from
//! one file.
//!
//! Three layers:
//!
//! - [`metrics`] — `pla-metrics`, re-exported: lock-cheap
//!   counter/gauge/histogram handles (alloc-free increments) and the
//!   [`Registry`] rendering exposition text. Each subsystem declares
//!   and updates its own series; this crate only serves them.
//! - [`http`] + [`admin`] — an [`OpsServer`] behind the
//!   existing `Acceptor`/`Link` seam (deterministically testable over
//!   `MemoryAcceptor`, driven by a plain pump loop), and the
//!   [`CollectorAdmin`] handler serving
//!   `/metrics`, `/healthz`, and the JSON admin API.
//! - [`config`] — a dependency-free TOML-subset parser with `PLA_*` env
//!   overrides producing typed, validated configs.
//!
//! Metric names and labels are a **wire contract** (dashboards key on
//! them); the naming convention is `pla_<subsystem>_<name>{labels}`.
//! See `crates/ops/README.md` for the endpoint and metric tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admin;
pub mod config;
pub mod http;
pub use pla_metrics as metrics;

pub use admin::CollectorAdmin;
pub use config::{AppConfig, CollectorConfig, ConfigError, OpsConfig};
pub use http::{OpsServer, Request, Response};
pub use metrics::{
    parse_exposition, render_families, Counter, Gauge, Histogram, MetricFamily, MetricKind,
    ParsedSample, Registry, Sample, SampleValue,
};
