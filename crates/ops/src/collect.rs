//! Adapters scraping the pipeline's existing stats structs into
//! [`MetricFamily`] samples.
//!
//! Each `*_families` function is a pure snapshot-to-samples mapping; wire
//! one up live by registering a closure with
//! [`Registry::collect_fn`](crate::metrics::Registry::collect_fn) (or the
//! extra-source hook on [`CollectorAdmin`](crate::admin::CollectorAdmin))
//! that re-scrapes on every render.
//!
//! The metric names below are part of the repo's **wire contract** —
//! renaming one breaks every dashboard keyed on it. Convention:
//! `pla_<subsystem>_<name>{labels}`, counters suffixed `_total`.

use pla_ingest::{IngestReport, StoreSnapshot};
use pla_net::session::SessionStats;
use pla_net::CollectorStats;
use pla_query::{LookupStats, QueryServerStats};

use crate::metrics::{MetricFamily, MetricKind, Sample, SampleValue};

fn family(name: &str, help: &str, kind: MetricKind, samples: Vec<Sample>) -> MetricFamily {
    MetricFamily { name: name.to_string(), help: help.to_string(), kind, samples }
}

fn plain(value: SampleValue) -> Vec<Sample> {
    vec![Sample { labels: Vec::new(), value }]
}

fn counter(name: &str, help: &str, v: u64) -> MetricFamily {
    family(name, help, MetricKind::Counter, plain(SampleValue::Counter(v)))
}

fn gauge(name: &str, help: &str, v: f64) -> MetricFamily {
    family(name, help, MetricKind::Gauge, plain(SampleValue::Gauge(v)))
}

fn labeled(label: &str, id: String, value: SampleValue) -> Sample {
    Sample { labels: vec![(label.to_string(), id)], value }
}

/// Scrapes a [`CollectorStats`] snapshot: aggregate collector and session
/// counters plus per-connection series labeled `conn="<id>"`.
pub fn collector_families(stats: &CollectorStats, out: &mut Vec<MetricFamily>) {
    out.push(gauge(
        "pla_collector_connections",
        "Connections accepted and still tracked.",
        stats.connections as f64,
    ));
    out.push(gauge(
        "pla_collector_attached",
        "Connections currently holding a live link.",
        stats.attached as f64,
    ));
    out.push(counter(
        "pla_collector_frames_total",
        "Sequenced entries applied across all connections.",
        stats.frames,
    ));
    out.push(counter(
        "pla_collector_dup_drops_total",
        "Duplicate frames dropped (replays after reconnect).",
        stats.dup_drops,
    ));
    out.push(counter(
        "pla_collector_segments_total",
        "Segments published to the shared store.",
        stats.segments,
    ));
    out.push(counter(
        "pla_collector_backpressure_total",
        "Pump rounds that could not fully flush staged control bytes.",
        stats.backpressure,
    ));
    out.push(gauge(
        "pla_collector_failed",
        "Connections quarantined by a protocol violation.",
        stats.failed as f64,
    ));
    out.push(counter(
        "pla_collector_refused_total",
        "Handshakes refused (version mismatch, garbage, unknown token, timeout).",
        stats.refused,
    ));
    out.push(counter(
        "pla_collector_evicted_total",
        "Detached sessions evicted after their TTL lapsed.",
        stats.evicted,
    ));
    out.push(counter(
        "pla_collector_shed_segments_total",
        "Segments shed by per-stream quarantine instead of published.",
        stats.shed_segments,
    ));
    out.push(gauge(
        "pla_collector_quarantined_streams",
        "Streams currently under admin quarantine.",
        stats.quarantined_streams.len() as f64,
    ));
    out.push(counter(
        "pla_session_heartbeats_echoed_total",
        "Heartbeat frames received (and echoed) across all connections.",
        stats.heartbeats,
    ));
    out.push(counter(
        "pla_session_resumes_total",
        "Session-token resumes: a redialed link rebound to its existing connection.",
        stats.resumes,
    ));
    if let Some(reason) = &stats.last_refusal {
        out.push(family(
            "pla_collector_last_refusal_info",
            "Most recent handshake refusal; the reason rides the label.",
            MetricKind::Gauge,
            vec![labeled("reason", reason.clone(), SampleValue::Gauge(1.0))],
        ));
    }

    let conn_series = |pick: fn(&pla_net::ConnStats) -> SampleValue| -> Vec<Sample> {
        stats.conns.iter().map(|c| labeled("conn", c.conn.0.to_string(), pick(c))).collect()
    };
    out.push(family(
        "pla_conn_published_total",
        "Segments published to the store, per connection.",
        MetricKind::Counter,
        conn_series(|c| SampleValue::Counter(c.published)),
    ));
    out.push(family(
        "pla_conn_bytes_moved_total",
        "Bytes moved over the link (read + written), per connection.",
        MetricKind::Counter,
        conn_series(|c| SampleValue::Counter(c.bytes_moved)),
    ));
    out.push(family(
        "pla_conn_frames_total",
        "Sequenced entries applied, per connection.",
        MetricKind::Counter,
        conn_series(|c| SampleValue::Counter(c.receiver.frames_applied)),
    ));
    out.push(family(
        "pla_conn_resumes_total",
        "Session-token resumes, per connection.",
        MetricKind::Counter,
        conn_series(|c| SampleValue::Counter(c.resumes)),
    ));
    out.push(family(
        "pla_conn_attached",
        "Whether the connection currently holds a live link.",
        MetricKind::Gauge,
        conn_series(|c| SampleValue::Gauge(if c.attached { 1.0 } else { 0.0 })),
    ));
}

/// Scrapes an [`IngestReport`]: per-shard series labeled `shard="<i>"`.
/// When several engines feed one registry, element-wise-sum their
/// [`ShardStats`](pla_ingest::ShardStats) first and call
/// [`ingest_shard_families`] — per-shard labels must stay unique.
pub fn ingest_families(report: &IngestReport, out: &mut Vec<MetricFamily>) {
    ingest_shard_families(&report.shards, report.quarantined(), out);
}

/// [`ingest_families`] over bare per-shard stats plus a quarantined-
/// stream count (the form aggregated multi-engine callers use).
pub fn ingest_shard_families(
    shards: &[pla_ingest::ShardStats],
    quarantined: usize,
    out: &mut Vec<MetricFamily>,
) {
    let shard_series = |pick: fn(&pla_ingest::ShardStats) -> SampleValue| -> Vec<Sample> {
        shards.iter().enumerate().map(|(i, s)| labeled("shard", i.to_string(), pick(s))).collect()
    };
    out.push(family(
        "pla_ingest_ops_total",
        "Queue operations processed, per shard.",
        MetricKind::Counter,
        shard_series(|s| SampleValue::Counter(s.ops)),
    ));
    out.push(family(
        "pla_ingest_samples_total",
        "Samples pushed through filters, per shard.",
        MetricKind::Counter,
        shard_series(|s| SampleValue::Counter(s.samples)),
    ));
    out.push(family(
        "pla_ingest_segments_total",
        "Segments emitted, per shard.",
        MetricKind::Counter,
        shard_series(|s| SampleValue::Counter(s.segments)),
    ));
    out.push(family(
        "pla_ingest_backpressure_total",
        "try_push rejections due to a full shard queue, per shard.",
        MetricKind::Counter,
        shard_series(|s| SampleValue::Counter(s.backpressure)),
    ));
    out.push(family(
        "pla_ingest_unknown_stream_drops_total",
        "Samples dropped for unregistered streams, per shard.",
        MetricKind::Counter,
        shard_series(|s| SampleValue::Counter(s.unknown_stream_drops)),
    ));
    out.push(family(
        "pla_ingest_streams",
        "Streams registered, per shard.",
        MetricKind::Gauge,
        shard_series(|s| SampleValue::Gauge(s.streams as f64)),
    ));
    out.push(gauge(
        "pla_ingest_quarantined_streams",
        "Streams quarantined by a filter error.",
        quarantined as f64,
    ));
}

/// Scrapes a [`StoreSnapshot`]: totals, per-shard epochs
/// (`shard="<i>"`), and per-source watermarks (`source="<id>"`).
pub fn store_families(snap: &StoreSnapshot, out: &mut Vec<MetricFamily>) {
    out.push(gauge(
        "pla_store_streams",
        "Streams present in the store.",
        snap.streams.len() as f64,
    ));
    out.push(counter(
        "pla_store_segments_total",
        "Segments appended to the store.",
        snap.total_segments,
    ));
    out.push(family(
        "pla_store_shard_epoch",
        "Append epoch per store shard (cache-validation cursor).",
        MetricKind::Counter,
        snap.epochs
            .iter()
            .enumerate()
            .map(|(i, e)| labeled("shard", i.to_string(), SampleValue::Counter(*e)))
            .collect(),
    ));
    out.push(family(
        "pla_store_source_segments_total",
        "Segments appended per source connection (watermark).",
        MetricKind::Counter,
        snap.sources
            .iter()
            .map(|(src, w)| labeled("source", src.to_string(), SampleValue::Counter(w.segments)))
            .collect(),
    ));
    out.push(family(
        "pla_store_source_covered_through",
        "Latest segment end-time published per source connection.",
        MetricKind::Gauge,
        snap.sources
            .iter()
            .map(|(src, w)| {
                labeled("source", src.to_string(), SampleValue::Gauge(w.covered_through))
            })
            .collect(),
    ));
}

/// Scrapes a sender-side [`SessionStats`], labeled `sender="<id>"` so
/// several uplinks coexist in one registry.
pub fn session_families(sender: &str, stats: &SessionStats, out: &mut Vec<MetricFamily>) {
    let one = |value: SampleValue| vec![labeled("sender", sender.to_string(), value)];
    out.push(family(
        "pla_session_dials_total",
        "Dial attempts made (including failures), per sender.",
        MetricKind::Counter,
        one(SampleValue::Counter(stats.dials)),
    ));
    out.push(family(
        "pla_session_established_total",
        "Handshakes completed (first establishment plus resumes), per sender.",
        MetricKind::Counter,
        one(SampleValue::Counter(stats.established)),
    ));
    out.push(family(
        "pla_session_heartbeats_sent_total",
        "Heartbeat probes sent, per sender.",
        MetricKind::Counter,
        one(SampleValue::Counter(stats.heartbeats_sent)),
    ));
    out.push(family(
        "pla_session_echoes_seen_total",
        "Heartbeat echoes received back, per sender.",
        MetricKind::Counter,
        one(SampleValue::Counter(stats.echoes_seen)),
    ));
}

/// Scrapes accumulated query-side [`LookupStats`] totals (the caller
/// accumulates per-query stats into running sums).
pub fn query_families(lookups: u64, stats: &LookupStats, out: &mut Vec<MetricFamily>) {
    out.push(counter("pla_query_lookups_total", "Point/range lookups served.", lookups));
    out.push(counter(
        "pla_query_comparisons_total",
        "Index comparisons spent across all lookups.",
        stats.comparisons as u64,
    ));
}

/// Scrapes a [`QueryServerStats`] snapshot from the remote-query wire
/// tier: request/refusal counters plus the service-time histogram.
/// Register as an extra source on
/// [`CollectorAdmin`](crate::admin::CollectorAdmin) with a closure that
/// re-reads the shared server on every `/metrics`.
pub fn query_server_families(stats: &QueryServerStats, out: &mut Vec<MetricFamily>) {
    out.push(gauge(
        "pla_query_server_connections",
        "Query connections currently tracked.",
        stats.connections as f64,
    ));
    out.push(counter(
        "pla_query_server_accepted_total",
        "Query connections accepted.",
        stats.accepted,
    ));
    out.push(counter(
        "pla_query_server_requests_total",
        "Query requests answered.",
        stats.requests,
    ));
    out.push(counter(
        "pla_query_server_errors_total",
        "Answers that carried a typed query error.",
        stats.errors,
    ));
    out.push(counter(
        "pla_query_server_epoch_probes_total",
        "Epoch cache-validation probes answered.",
        stats.epoch_probes,
    ));
    out.push(counter(
        "pla_query_server_refused_total",
        "Query handshakes refused (version mismatch, non-Hello first frame).",
        stats.refused,
    ));
    out.push(counter(
        "pla_query_server_malformed_total",
        "Query connections killed by undecodable bytes.",
        stats.malformed,
    ));
    out.push(counter(
        "pla_query_server_heartbeats_total",
        "Heartbeats echoed on the query plane.",
        stats.heartbeats,
    ));
    out.push(counter(
        "pla_query_server_bytes_read_total",
        "Bytes read from query links.",
        stats.bytes_in,
    ));
    out.push(counter(
        "pla_query_server_bytes_written_total",
        "Bytes written to query links.",
        stats.bytes_out,
    ));
    out.push(counter(
        "pla_query_server_snapshot_rebuilds_total",
        "Engine rebuilds triggered by moved store epochs.",
        stats.rebuilds,
    ));
    out.push(family(
        "pla_query_server_service_seconds",
        "Per-request service time on the query server.",
        MetricKind::Histogram,
        plain(SampleValue::Histogram {
            buckets: stats.latency.buckets(),
            sum: stats.latency.sum,
            count: stats.latency.count,
        }),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::render_families;
    use pla_ingest::SegmentStore;

    #[test]
    fn store_families_render() {
        let store = SegmentStore::new();
        store.append(
            7,
            pla_ingest::StreamId(1),
            pla_core::Segment {
                t_start: 0.0,
                x_start: [1.0].into(),
                t_end: 2.0,
                x_end: [3.0].into(),
                connected: false,
                n_points: 3,
                new_recordings: 1,
            },
        );
        let mut fams = Vec::new();
        store_families(&store.snapshot(), &mut fams);
        let text = render_families(&fams);
        assert!(text.contains("pla_store_segments_total 1"));
        assert!(text.contains("pla_store_source_segments_total{source=\"7\"} 1"));
        assert!(text.contains("pla_store_source_covered_through{source=\"7\"} 2"));
    }

    #[test]
    fn query_server_families_render() {
        let mut stats =
            QueryServerStats { connections: 2, requests: 9, errors: 1, ..Default::default() };
        stats.latency.counts[0] = 9;
        stats.latency.count = 9;
        stats.latency.sum = 9.0 * 10e-6;
        let mut fams = Vec::new();
        query_server_families(&stats, &mut fams);
        let text = render_families(&fams);
        assert!(text.contains("pla_query_server_connections 2"));
        assert!(text.contains("pla_query_server_requests_total 9"));
        assert!(text.contains("pla_query_server_errors_total 1"));
        assert!(text.contains("pla_query_server_service_seconds_count 9"));
        assert!(text.contains("pla_query_server_service_seconds_bucket{le=\"0.00005\"} 9"));
    }
}
