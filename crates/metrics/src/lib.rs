//! # pla-metrics — the workspace's one instrumentation path
//!
//! Each subsystem (collector, store, ingest engine, session sender,
//! query server) keeps only its handles, declared with [`series!`],
//! and updates them where the event happens; its `stats()` reads the
//! same handles. Its `registry()` is a view: a fresh [`Registry`]
//! built from those handles on each call, so no subsystem stores one
//! and a label value that comes and goes needs no add/remove step.
//! Building a view allocates: do it per scrape or per
//! `add_registry`, never per event. `pla-ops` only renders the views.
//! This crate depends on nothing, so every subsystem crate can.

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
/// let sent = Sent::new();
/// sent.frames.inc();
/// // The owner's `registry()`: a view built from the handles when asked.
/// let mut registry = pla_metrics::Registry::new();
/// sent.add_to(&mut registry, &[("sender", "0")]);
/// assert!(registry.render().contains("pla_demo_frames_total{sender=\"0\"} 1"));
/// ```
///
/// `new` makes the handles, `add_to` serves them in a view under
/// `labels`, and `declare` adds only the families, rendered before
/// their first series joins.
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
