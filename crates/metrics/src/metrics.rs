//! Lock-cheap metric primitives and a Prometheus text-exposition registry.
//!
//! Counters and gauges are single `AtomicU64`s behind an `Arc`; histograms
//! are a fixed bucket array of atomics. Every increment path —
//! [`Counter::inc`], [`Gauge::set`], [`Histogram::observe`] — is a handful
//! of relaxed atomic ops and performs **zero heap allocations**, so handles
//! can live adjacent to the filter hot path. Allocation happens only at
//! registration and render time.
//!
//! Metric names and label sets are a **wire contract**: dashboards and
//! alert rules key on them, so renames are breaking changes. The repo-wide
//! convention is `pla_<subsystem>_<name>{labels}` with counters suffixed
//! `_total` (see `crates/ops/README.md`).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// New free-standing counter at zero (registry-less use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one. Alloc-free.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`. Alloc-free.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding an `f64` (stored as its bit pattern in an `AtomicU64`).
/// Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// New free-standing gauge at `0.0` (registry-less use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge. Alloc-free.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `d` (CAS loop over the stored bits). Alloc-free.
    #[inline]
    pub fn add(&self, d: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Raises the gauge to `v` if `v` is larger (CAS loop over the
    /// stored bits), so racing writers keep the maximum. Alloc-free.
    #[inline]
    pub fn set_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds of the finite buckets, strictly increasing. The
    /// implicit `+Inf` bucket is `counts[bounds.len()]`.
    bounds: Box<[f64]>,
    /// Per-bucket observation counts (not cumulative; render cumulates).
    counts: Box<[AtomicU64]>,
    /// Sum of observed values, stored as `f64` bits (CAS-add).
    sum_bits: AtomicU64,
    /// Total observation count.
    count: AtomicU64,
}

/// A fixed-bucket histogram. Cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// New free-standing histogram with the given finite bucket upper
    /// bounds (strictly increasing; a `+Inf` bucket is always implicit).
    ///
    /// # Panics
    /// If `bounds` is unsorted, has duplicates, or contains a non-finite
    /// bound.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        assert!(bounds.iter().all(|b| b.is_finite()), "histogram bounds must be finite");
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Self(Arc::new(HistogramCore {
            bounds: bounds.into(),
            counts,
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation: a linear scan for the bucket (bucket
    /// counts are small and fixed), one add each to the bucket, the sum,
    /// and the count. Alloc-free.
    #[inline]
    pub fn observe(&self, v: f64) {
        let core = &*self.0;
        let idx = core.bounds.iter().position(|b| v <= *b).unwrap_or(core.bounds.len());
        core.counts[idx].fetch_add(1, Ordering::Relaxed);
        let mut cur = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        core.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// `(upper_bound, count)` per finite bucket (non-cumulative), plus the
    /// overflow count for the implicit `+Inf` bucket.
    pub fn buckets(&self) -> (Vec<(f64, u64)>, u64) {
        let core = &*self.0;
        let finite = core
            .bounds
            .iter()
            .zip(core.counts.iter())
            .map(|(b, c)| (*b, c.load(Ordering::Relaxed)))
            .collect();
        (finite, core.counts[core.bounds.len()].load(Ordering::Relaxed))
    }
}

/// Kind of a metric family — drives the `# TYPE` line and value layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter (`_total` naming convention).
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Bucketed distribution (`_bucket`/`_sum`/`_count` series).
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Value carried by one sample within a family.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram reading: non-cumulative finite buckets as
    /// `(upper_bound, count)`, the `+Inf` overflow count folded into
    /// `count`, plus the sum of observations.
    Histogram {
        /// `(upper_bound, count)` per finite bucket, non-cumulative.
        buckets: Vec<(f64, u64)>,
        /// Sum of all observations.
        sum: f64,
        /// Total observation count (including the `+Inf` overflow).
        count: u64,
    },
}

/// One labeled sample of a metric family.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Label pairs, `(name, value)`. Order is canonicalized at render.
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: SampleValue,
}

/// A named metric with help text and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricFamily {
    /// Metric name (`pla_<subsystem>_<name>`); must match
    /// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
    pub name: String,
    /// One-line help text (escaped at render).
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Samples, one per label set.
    pub samples: Vec<Sample>,
}

/// A metric handle as a [`Registry`] serves it.
#[derive(Debug, Clone)]
pub enum Handle {
    /// A [`Counter`].
    Counter(Counter),
    /// A [`Gauge`].
    Gauge(Gauge),
    /// A [`Histogram`].
    Histogram(Histogram),
}

#[derive(Clone)]
struct OwnedFamily {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<(Vec<(String, String)>, Handle)>,
}

/// Registry of owned metric primitives, rendering Prometheus text
/// exposition format.
#[derive(Default)]
pub struct Registry {
    families: Vec<OwnedFamily>,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn family_mut(&mut self, name: &str, help: &str, kind: MetricKind) -> &mut OwnedFamily {
        if let Some(i) = self.families.iter().rposition(|f| f.name == name) {
            assert!(
                self.families[i].kind == kind,
                "metric {name:?} re-registered with a different kind"
            );
            return &mut self.families[i];
        }
        assert!(valid_name(name), "invalid metric name {name:?}");
        self.families.push(OwnedFamily {
            name: name.to_string(),
            help: help.to_string(),
            kind,
            series: Vec::new(),
        });
        self.families.last_mut().expect("just pushed")
    }

    fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
        labels
            .iter()
            .inspect(|(k, _)| assert!(valid_name(k), "invalid label name {k:?}"))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// Registers (or re-fetches the family of) an unlabeled counter.
    pub fn counter(&mut self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers a counter series under `labels` within family `name`.
    pub fn counter_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let c = Counter::new();
        self.add(name, help, labels, Handle::Counter(c.clone()));
        c
    }

    /// Serves `handle`, perhaps made and counting before this registry,
    /// under `labels` within family `name`.
    pub fn add(&mut self, name: &str, help: &str, labels: &[(&str, &str)], handle: Handle) {
        let kind = match handle {
            Handle::Counter(_) => MetricKind::Counter,
            Handle::Gauge(_) => MetricKind::Gauge,
            Handle::Histogram(_) => MetricKind::Histogram,
        };
        let owned = Self::own_labels(labels);
        self.family_mut(name, help, kind).series.push((owned, handle));
    }

    /// Registers an unlabeled gauge.
    pub fn gauge(&mut self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers a gauge series under `labels` within family `name`.
    pub fn gauge_with(&mut self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let g = Gauge::new();
        self.add(name, help, labels, Handle::Gauge(g.clone()));
        g
    }

    /// Registers an unlabeled histogram with the given finite bucket
    /// upper bounds.
    pub fn histogram(&mut self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Registers a histogram series under `labels` within family `name`.
    pub fn histogram_with(
        &mut self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        let h = Histogram::new(bounds);
        self.add(name, help, labels, Handle::Histogram(h.clone()));
        h
    }

    /// Declares family `name`, rendered (`# HELP`, `# TYPE`) even while
    /// it has no series.
    pub fn family(&mut self, name: &str, help: &str, kind: MetricKind) {
        self.family_mut(name, help, kind);
    }

    /// Removes every series labeled exactly `labels`, in every family
    /// (the value they were labeled with is gone). The families stay.
    pub fn remove(&mut self, labels: &[(&str, &str)]) {
        let labeled = |owned: &Vec<(String, String)>| {
            owned.iter().map(|(k, v)| (k.as_str(), v.as_str())).eq(labels.iter().copied())
        };
        for fam in &mut self.families {
            fam.series.retain(|(owned, _)| !labeled(owned));
        }
    }

    /// A registry sharing every handle of this one, with `labels` added
    /// to each series (two senders served side by side, say).
    pub fn with_labels(&self, labels: &[(&str, &str)]) -> Registry {
        let extra = Self::own_labels(labels);
        let mut families = self.families.clone();
        for fam in &mut families {
            for (owned, _) in &mut fam.series {
                owned.extend(extra.iter().cloned());
            }
        }
        Registry { families }
    }

    /// Snapshots every owned primitive into families, sorted
    /// deterministically (by name, then label set).
    pub fn gather(&self) -> Vec<MetricFamily> {
        let mut out: Vec<MetricFamily> = Vec::with_capacity(self.families.len());
        for fam in &self.families {
            let samples = fam
                .series
                .iter()
                .map(|(labels, prim)| Sample {
                    labels: labels.clone(),
                    value: match prim {
                        Handle::Counter(c) => SampleValue::Counter(c.get()),
                        Handle::Gauge(g) => SampleValue::Gauge(g.get()),
                        Handle::Histogram(h) => {
                            let (buckets, _inf) = h.buckets();
                            SampleValue::Histogram { buckets, sum: h.sum(), count: h.count() }
                        }
                    },
                })
                .collect();
            out.push(MetricFamily {
                name: fam.name.clone(),
                help: fam.help.clone(),
                kind: fam.kind,
                samples,
            });
        }
        sort_families(&mut out);
        out
    }

    /// Renders the full registry in Prometheus text exposition format.
    pub fn render(&self) -> String {
        render_families(&self.gather())
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("families", &self.families.len()).finish()
    }
}

/// Canonical ordering: families by name, samples by label vector. Families
/// sharing a name (gathered from several registries) are merged into one
/// block.
fn sort_families(families: &mut Vec<MetricFamily>) {
    families.sort_by(|a, b| a.name.cmp(&b.name));
    let mut merged: Vec<MetricFamily> = Vec::with_capacity(families.len());
    for fam in families.drain(..) {
        match merged.last_mut() {
            Some(last) if last.name == fam.name => last.samples.extend(fam.samples),
            _ => merged.push(fam),
        }
    }
    for fam in merged.iter_mut() {
        fam.samples.sort_by(|a, b| a.labels.cmp(&b.labels));
    }
    *families = merged;
}

/// Renders pre-gathered families (sorted and merged first, so callers may
/// concatenate the families of several subsystems' registries).
pub fn render_families(families: &[MetricFamily]) -> String {
    let mut fams = families.to_vec();
    sort_families(&mut fams);
    let mut out = String::new();
    for fam in &fams {
        let _ = writeln!(out, "# HELP {} {}", fam.name, escape_help(&fam.help));
        let _ = writeln!(out, "# TYPE {} {}", fam.name, fam.kind.as_str());
        for sample in &fam.samples {
            render_sample(&mut out, &fam.name, sample);
        }
    }
    out
}

fn render_sample(out: &mut String, name: &str, sample: &Sample) {
    match &sample.value {
        SampleValue::Counter(v) => {
            render_series(out, name, &sample.labels, None);
            let _ = writeln!(out, " {v}");
        }
        SampleValue::Gauge(v) => {
            render_series(out, name, &sample.labels, None);
            let _ = writeln!(out, " {}", fmt_value(*v));
        }
        SampleValue::Histogram { buckets, sum, count } => {
            let bucket_name = format!("{name}_bucket");
            let mut cumulative = 0u64;
            for (bound, c) in buckets {
                cumulative += c;
                render_series(out, &bucket_name, &sample.labels, Some(&fmt_value(*bound)));
                let _ = writeln!(out, " {cumulative}");
            }
            render_series(out, &bucket_name, &sample.labels, Some("+Inf"));
            let _ = writeln!(out, " {count}");
            render_series(out, &format!("{name}_sum"), &sample.labels, None);
            let _ = writeln!(out, " {}", fmt_value(*sum));
            render_series(out, &format!("{name}_count"), &sample.labels, None);
            let _ = writeln!(out, " {count}");
        }
    }
}

fn render_series(out: &mut String, name: &str, labels: &[(String, String)], le: Option<&str>) {
    out.push_str(name);
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
}

/// Escapes a HELP line: `\` → `\\`, newline → `\n`.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Exposition float formatting: `+Inf`/`-Inf`/`NaN`, else Rust `Display`
/// (shortest round-trippable decimal).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// One parsed sample line of an exposition document.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Series name (for histograms, the suffixed `_bucket`/`_sum`/`_count`
    /// name as it appears on the wire).
    pub name: String,
    /// Label pairs in wire order, unescaped.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf`/`-Inf`/`NaN` mapped to the f64 specials).
    pub value: f64,
}

/// Minimal exposition-format line parser: validates `# HELP`/`# TYPE`
/// comment structure and parses every sample line into name, unescaped
/// labels, and value. The golden/property tests pin that
/// [`render_families`] output always round-trips through this.
pub fn parse_exposition(text: &str) -> Result<Vec<ParsedSample>, String> {
    let mut samples = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or_default();
            let name = parts.next().ok_or_else(|| format!("line {ln}: bare comment keyword"))?;
            if !valid_name(name) {
                return Err(format!("line {ln}: invalid metric name {name:?}"));
            }
            match keyword {
                "HELP" => {}
                "TYPE" => {
                    let ty = parts.next().ok_or_else(|| format!("line {ln}: TYPE without kind"))?;
                    if !matches!(ty, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                        return Err(format!("line {ln}: unknown TYPE {ty:?}"));
                    }
                }
                other => return Err(format!("line {ln}: unknown comment keyword {other:?}")),
            }
            continue;
        }
        samples.push(parse_sample_line(line).map_err(|e| format!("line {ln}: {e}"))?);
    }
    Ok(samples)
}

fn parse_sample_line(line: &str) -> Result<ParsedSample, String> {
    let (series, value_str) = match line.find('{') {
        Some(brace) => {
            let close = find_closing_brace(line, brace)
                .ok_or_else(|| "unterminated label set".to_string())?;
            (&line[..close + 1], line[close + 1..].trim_start())
        }
        None => {
            let sp = line.find(' ').ok_or_else(|| "sample without value".to_string())?;
            (&line[..sp], line[sp + 1..].trim_start())
        }
    };
    let (name, labels) = match series.find('{') {
        Some(brace) => (&series[..brace], parse_labels(&series[brace + 1..series.len() - 1])?),
        None => (series, Vec::new()),
    };
    if !valid_name(name) {
        return Err(format!("invalid series name {name:?}"));
    }
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other.parse::<f64>().map_err(|_| format!("bad value {other:?}"))?,
    };
    Ok(ParsedSample { name: name.to_string(), labels, value })
}

/// Index of the `}` closing the label set opened at `open`, honoring
/// quoted (and escaped) label values.
fn find_closing_brace(line: &str, open: usize) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, b) in bytes.iter().enumerate().skip(open + 1) {
        if in_quotes {
            if escaped {
                escaped = false;
            } else if *b == b'\\' {
                escaped = true;
            } else if *b == b'"' {
                in_quotes = false;
            }
        } else if *b == b'"' {
            in_quotes = true;
        } else if *b == b'}' {
            return Some(i);
        }
    }
    None
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or_else(|| "label without '='".to_string())?;
        let key = &rest[..eq];
        if !valid_name(key) {
            return Err(format!("invalid label name {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err("unquoted label value".to_string());
        }
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    _ => return Err("bad escape in label value".to_string()),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or_else(|| "unterminated label value".to_string())?;
        labels.push((key.to_string(), value));
        rest = &after[1 + end + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {rest:?}"));
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&[1.0, 2.0]);
        for v in [0.5, 1.0, 1.5, 9.0] {
            h.observe(v);
        }
        let (finite, inf) = h.buckets();
        assert_eq!(finite, vec![(1.0, 2), (2.0, 1)]);
        assert_eq!(inf, 1);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 12.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let mut reg = Registry::new();
        reg.counter_with("pla_z_total", "Z.", &[("b", "2")]).inc();
        reg.counter_with("pla_z_total", "Z.", &[("a", "1")]).inc();
        reg.gauge("pla_a", "A.").set(1.0);
        let first = reg.render();
        assert_eq!(first, reg.render());
        let a = first.find("pla_a").unwrap();
        let z = first.find("pla_z_total").unwrap();
        assert!(a < z, "families must render in name order");
        let la = first.find("{a=\"1\"}").unwrap();
        let lb = first.find("{b=\"2\"}").unwrap();
        assert!(la < lb, "samples must render in label order");
    }

    #[test]
    fn gauges_keep_the_largest_value_offered() {
        let g = Gauge::new();
        g.set(f64::NEG_INFINITY);
        for v in [3.0, 1.0, 7.5, 7.0] {
            g.set_max(v);
        }
        assert_eq!(g.get(), 7.5);
    }

    #[test]
    fn declared_families_render_empty_and_removed_series_go() {
        let mut reg = Registry::new();
        reg.family("pla_c_total", "C.", MetricKind::Counter);
        assert_eq!(reg.render(), "# HELP pla_c_total C.\n# TYPE pla_c_total counter\n");
        reg.counter_with("pla_c_total", "C.", &[("conn", "1")]).add(2);
        reg.gauge_with("pla_g", "G.", &[("conn", "1")]).set(1.0);
        reg.counter_with("pla_c_total", "C.", &[("conn", "2")]).add(3);
        reg.remove(&[("conn", "1")]);
        let text = reg.render();
        assert!(text.contains("pla_c_total{conn=\"2\"} 3"));
        assert!(!text.contains("conn=\"1\""), "{text}");
        assert!(text.contains("# TYPE pla_g gauge"), "families stay when their series go");
    }

    #[test]
    fn labeled_copies_share_their_handles() {
        let mut reg = Registry::new();
        let c = reg.counter_with("pla_x_total", "X.", &[("shard", "0")]);
        let copy = reg.with_labels(&[("edge", "3")]);
        c.add(5);
        assert!(copy.render().contains("pla_x_total{shard=\"0\",edge=\"3\"} 5"));
    }

    #[test]
    fn rendered_output_reparses() {
        let mut reg = Registry::new();
        reg.counter_with("pla_x_total", "X.", &[("path", "a\\b\"c\nd")]).add(7);
        reg.histogram("pla_h", "H.", &[0.5, 1.0]).observe(0.7);
        let text = reg.render();
        let parsed = parse_exposition(&text).expect("render must re-parse");
        let x = parsed.iter().find(|s| s.name == "pla_x_total").unwrap();
        assert_eq!(x.labels, vec![("path".to_string(), "a\\b\"c\nd".to_string())]);
        assert_eq!(x.value, 7.0);
        let inf = parsed
            .iter()
            .find(|s| s.name == "pla_h_bucket" && s.labels.iter().any(|(_, v)| v == "+Inf"))
            .unwrap();
        assert_eq!(inf.value, 1.0);
    }
}
