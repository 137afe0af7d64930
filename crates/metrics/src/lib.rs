//! # pla-metrics — the workspace's one instrumentation path
//!
//! Each subsystem (collector, store, ingest engine, session sender,
//! query server) builds one [`Registry`] in its constructor, keeps the
//! handles it registered, and updates them where the event happens;
//! its `stats()` reads the same handles. `pla-ops` only renders what
//! the registries hold. This crate depends on nothing, so every
//! subsystem crate can.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod metrics;

pub use metrics::{
    parse_exposition, render_families, Counter, Gauge, Handle, Histogram, MetricFamily, MetricKind,
    ParsedSample, Registry, Sample, SampleValue,
};

/// Declares a struct of metric handles, one field per series, with
/// each series' name and HELP written once beside its field:
///
/// ```
/// pla_metrics::series! {
///     struct Sent {
///         frames: counter("pla_demo_frames_total", "Frames sent."),
///         wait: histogram("pla_demo_wait_seconds", "Send wait.", &[1e-3, 1e-2]),
///     }
/// }
/// let mut registry = pla_metrics::Registry::new();
/// Sent::register(&mut registry, &[("sender", "0")]).frames.inc();
/// assert!(registry.render().contains("pla_demo_frames_total{sender=\"0\"} 1"));
/// ```
///
/// `register` is `new` (the handles) then `add_to` (serve them under
/// `labels`), which an owner may defer until asked; `declare` adds only
/// the families, rendered before their first series joins.
#[macro_export]
macro_rules! series {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($field:ident: $kind:ident($metric:expr, $help:expr $(, $bounds:expr)?)),+ $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($field: $crate::series!(@type $kind)),+
        }

        #[allow(dead_code)]
        impl $name {
            fn new() -> Self {
                Self { $($field: $crate::series!(@new $kind $(, $bounds)?)),+ }
            }

            fn register(registry: &mut $crate::Registry, labels: &[(&str, &str)]) -> Self {
                let series = Self::new();
                series.add_to(registry, labels);
                series
            }

            fn add_to(&self, registry: &mut $crate::Registry, labels: &[(&str, &str)]) {
                $(registry.add($metric, $help, labels, $crate::series!(@handle $kind)(self.$field.clone()));)+
            }

            fn declare(registry: &mut $crate::Registry) {
                $(registry.family($metric, $help, $crate::series!(@kind $kind));)+
            }
        }
    };
    (@type counter) => { $crate::Counter };
    (@type gauge) => { $crate::Gauge };
    (@type histogram) => { $crate::Histogram };
    (@kind counter) => { $crate::MetricKind::Counter };
    (@kind gauge) => { $crate::MetricKind::Gauge };
    (@kind histogram) => { $crate::MetricKind::Histogram };
    (@handle counter) => { $crate::Handle::Counter };
    (@handle gauge) => { $crate::Handle::Gauge };
    (@handle histogram) => { $crate::Handle::Histogram };
    (@new counter) => { $crate::Counter::new() };
    (@new gauge) => { $crate::Gauge::new() };
    (@new histogram, $bounds:expr) => { $crate::Histogram::new($bounds) };
}
