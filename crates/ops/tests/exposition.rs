//! Exposition format tests: golden files pinning the exact rendered
//! text (the wire contract dashboards scrape) of one registry and of a
//! whole `/metrics` scrape merging several views, plus structural
//! checks that survive reordering-free re-renders.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use pla_ingest::SegmentStore;
use pla_net::listen::MemoryAcceptor;
use pla_net::{Collector, Link, NetConfig, SessionConfig};
use pla_ops::{parse_exposition, CollectorAdmin, MetricKind, OpsServer, Registry};
use pla_transport::wire::FixedCodec;

/// Builds the registry the golden file captures: every primitive, label
/// escaping, HELP escaping, multi-series families, and histogram
/// cumulativity in one exposition.
fn golden_registry() -> Registry {
    let mut reg = Registry::new();
    reg.counter("pla_golden_frames_total", "Frames applied.").add(42);
    reg.counter_with(
        "pla_golden_conn_bytes_total",
        "Bytes per connection.",
        &[("conn", "2"), ("site", "edge-a")],
    )
    .add(1024);
    reg.counter_with("pla_golden_conn_bytes_total", "Bytes per connection.", &[("conn", "1")])
        .add(7);
    reg.gauge("pla_golden_attached", "Links currently attached.").set(3.0);
    reg.gauge_with(
        "pla_golden_quoted",
        "Labels with \"quotes\", back\\slashes and\nnewlines must escape.",
        &[("reason", "bad \"token\" \\ line\nbreak")],
    )
    .set(1.0);
    reg.gauge("pla_golden_inf", "Non-finite values render as Prometheus spells them.")
        .set(f64::INFINITY);
    let h = reg.histogram("pla_golden_latency", "Observed latencies.", &[0.5, 1.0, 5.0]);
    for v in [0.1, 0.7, 0.7, 3.0, 100.0] {
        h.observe(v);
    }
    reg
}

#[test]
fn exposition_matches_golden_file() {
    let got = golden_registry().render();
    let want = include_str!("golden_metrics.txt");
    assert_eq!(got, want, "exposition text is a wire contract; update tests/golden_metrics.txt deliberately if the format changes:\n{got}");
}

#[test]
fn golden_file_reparses_losslessly() {
    let samples = parse_exposition(include_str!("golden_metrics.txt")).expect("golden parses");
    let find = |name: &str, labels: &[(&str, &str)]| {
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && s.labels.len() == labels.len()
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .unwrap_or_else(|| panic!("missing {name} {labels:?}"))
    };
    assert_eq!(find("pla_golden_frames_total", &[]).value, 42.0);
    assert_eq!(find("pla_golden_conn_bytes_total", &[("conn", "1")]).value, 7.0);
    assert_eq!(
        find("pla_golden_conn_bytes_total", &[("conn", "2"), ("site", "edge-a")]).value,
        1024.0
    );
    assert_eq!(find("pla_golden_attached", &[]).value, 3.0);
    // The escaped label round-trips back to the raw string.
    assert_eq!(find("pla_golden_quoted", &[("reason", "bad \"token\" \\ line\nbreak")]).value, 1.0);
    assert!(find("pla_golden_inf", &[]).value.is_infinite());
    // Histogram buckets are cumulative and capped by +Inf == count.
    assert_eq!(find("pla_golden_latency_bucket", &[("le", "0.5")]).value, 1.0);
    assert_eq!(find("pla_golden_latency_bucket", &[("le", "1")]).value, 3.0);
    assert_eq!(find("pla_golden_latency_bucket", &[("le", "5")]).value, 4.0);
    assert_eq!(find("pla_golden_latency_bucket", &[("le", "+Inf")]).value, 5.0);
    assert_eq!(find("pla_golden_latency_count", &[]).value, 5.0);
    assert_eq!(find("pla_golden_latency_sum", &[]).value, 0.1 + 0.7 + 0.7 + 3.0 + 100.0);
}

/// Rendering is deterministic: families sorted by name, series by label
/// set, independent of registration order.
#[test]
fn render_is_deterministic() {
    let a = golden_registry().render();
    let b = golden_registry().render();
    assert_eq!(a, b);
    let names: Vec<&str> = a
        .lines()
        .filter_map(|l| l.strip_prefix("# HELP "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "families must render in sorted order");
}

/// Scrapes `GET /metrics` from a [`CollectorAdmin`] over an idle
/// collector, with three views handed in beside the collector's, the
/// store's and the admin's own: two share a counter family under
/// `sender="1"` (added first, so its HELP is the one served) and
/// `sender="0"`, and the third declares an empty family and serves a
/// histogram whose label value needs escaping.
fn golden_scrape() -> String {
    let collector = Rc::new(RefCell::new(Collector::with_sessions(
        FixedCodec,
        1,
        NetConfig::default(),
        SessionConfig::default(),
        MemoryAcceptor::new(),
        Arc::new(SegmentStore::new()),
    )));
    let mut admin = CollectorAdmin::new(collector);
    for (sender, sent, help) in [("1", 5, "Frames sent."), ("0", 12, "Frames sent (second view).")]
    {
        let mut reg = Registry::new();
        reg.counter("pla_golden_sent_total", help).add(sent);
        reg.gauge("pla_golden_backlog", "Frames waiting.").set(sent as f64 / 4.0);
        admin.add_registry(reg, &[("sender", sender)]);
    }
    let mut reg = Registry::new();
    reg.family("pla_golden_idle_total", "Declared, never served.", MetricKind::Counter);
    let h = reg.histogram_with(
        "pla_golden_wait_seconds",
        "Waits by path.",
        &[0.001, 0.01],
        &[("path", "a \"b\" \\ c\nd")],
    );
    for v in [0.0005, 0.002, 0.5] {
        h.observe(v);
    }
    admin.add_registry(reg, &[]);

    let acceptor = MemoryAcceptor::new();
    let mut client = acceptor.connector().connect(1 << 16);
    let mut server = OpsServer::new(acceptor, admin);
    client.try_write(b"GET /metrics HTTP/1.1\r\nHost: ops\r\n\r\n").unwrap();
    server.pump();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 4096];
    while let Ok(n) = client.try_read(&mut chunk) {
        raw.extend_from_slice(&chunk[..n]);
    }
    let raw = String::from_utf8(raw).expect("utf8 response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("complete response");
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(head.contains(&format!("Content-Length: {}\r\n", body.len())), "{head}");
    body.to_string()
}

#[test]
fn scrape_matches_golden_file() {
    let got = golden_scrape();
    let want = include_str!("golden_scrape.txt");
    assert_eq!(got, want, "a scrape merges every view into one exposition; update tests/golden_scrape.txt deliberately if the format changes:\n{got}");
    parse_exposition(&got).expect("scrape re-parses");
}

/// Deliberate-update path for the wire contract:
/// `cargo test -p pla-ops --test exposition -- --ignored regenerate_golden`
/// rewrites both golden files from the current renderer.
#[test]
#[ignore]
fn regenerate_golden() {
    std::fs::write("tests/golden_metrics.txt", golden_registry().render()).unwrap();
    std::fs::write("tests/golden_scrape.txt", golden_scrape()).unwrap();
}
