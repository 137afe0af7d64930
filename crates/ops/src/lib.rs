//! # pla-ops — the operations tier
//!
//! Everything the pipeline already measures — `IngestReport`,
//! `CollectorStats`/`ConnStats`, `ReceiverStats`, `StoreSnapshot`
//! watermarks and epochs, `LookupStats` — made operable: a metrics
//! registry with Prometheus text exposition, a minimal HTTP/1.1 admin
//! surface pumped beside the collector, and file/env configuration so a
//! collector+store+query stack boots from one file.
//!
//! Three layers:
//!
//! - [`metrics`] — lock-cheap counter/gauge/histogram primitives
//!   (alloc-free increments), a [`Registry`] rendering
//!   exposition text, and [`collect`] adapters scraping the existing
//!   stats structs into metric families.
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
pub mod collect;
pub mod config;
pub mod http;
pub mod metrics;

pub use admin::CollectorAdmin;
pub use config::{AppConfig, CollectorConfig, ConfigError, OpsConfig};
pub use http::{OpsServer, Request, Response};
pub use metrics::{
    parse_exposition, render_families, Collect, Counter, Gauge, Histogram, MetricFamily,
    MetricKind, ParsedSample, Registry, Sample, SampleValue,
};
