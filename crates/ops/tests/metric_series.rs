//! Pins the real metric series: every family a `/metrics` scrape of a
//! fixed pipeline serves, with its type and its set of label keys.
//!
//! `golden_metrics.txt` pins the exposition *format* on synthetic
//! names; this list pins the *names* dashboards and alerts key on. The
//! pipeline is a session collector fed by two senders, its store, and
//! the ingest engine's, the senders' and the query server's registries
//! handed in through [`CollectorAdmin::add_registry`]. Values are not
//! pinned — they depend on timing — only which series exist and how
//! they are labeled.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use pla_core::filters::{FilterKind, FilterSpec};
use pla_core::Segment;
use pla_ingest::{IngestConfig, IngestEngine, SegmentStore, StreamId};
use pla_net::listen::MemoryAcceptor;
use pla_net::{Collector, ConnId, MemoryRedial, NetConfig, SessionConfig, SessionSender};
use pla_ops::http::Handler;
use pla_ops::{parse_exposition, CollectorAdmin, Request};
use pla_query::QueryServer;
use pla_transport::wire::FixedCodec;

fn seg(i: usize) -> Segment {
    let t = i as f64 * 10.0;
    Segment {
        t_start: t,
        x_start: [t].into(),
        t_end: t + 5.0,
        x_end: [t + 1.0].into(),
        connected: false,
        n_points: 2,
        new_recordings: 2,
    }
}

/// One `/metrics` scrape of the fixed pipeline.
fn scrape() -> String {
    let cfg = NetConfig::default();
    let sess = SessionConfig::default();
    let store = Arc::new(SegmentStore::new());
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let collector = Rc::new(RefCell::new(Collector::with_sessions(
        FixedCodec,
        1,
        cfg,
        sess,
        acceptor,
        store.clone(),
    )));
    let now = Instant::now();
    let mut senders: Vec<_> = (0..2u64)
        .map(|stream| {
            let redial = MemoryRedial::new(connector.clone(), 4096);
            let mut tx = SessionSender::new(FixedCodec, 1, cfg, sess, redial, now);
            for i in 0..4 {
                tx.mux_mut().try_send_segment(stream, &seg(i)).unwrap();
            }
            tx.mux_mut().finish_all();
            tx
        })
        .collect();
    let mut stalled = 0;
    while !(1..=2).all(|c| collector.borrow().conn_complete(ConnId(c))) {
        let mut moved = collector.borrow_mut().pump_at(now).expect("fault-free run");
        for tx in &mut senders {
            moved += tx.pump_at(now);
        }
        stalled = if moved == 0 { stalled + 1 } else { 0 };
        assert!(stalled < 10, "fan-in stalled");
    }

    let (engine, _tap) = IngestEngine::with_segment_tap(IngestConfig { shards: 2, queue_depth: 8 });
    let handle = engine.handle();
    handle.register(StreamId(0), FilterSpec::new(FilterKind::Swing, &[0.5])).expect("register");
    for i in 0..16 {
        handle.push(StreamId(0), i as f64, &[(i % 5) as f64]).expect("push");
    }
    let query_server = QueryServer::new(MemoryAcceptor::new(), store, cfg);

    let mut admin = CollectorAdmin::new(collector);
    admin.add_registry(engine.registry(), &[]);
    engine.finish();
    for (i, tx) in senders.iter().enumerate() {
        admin.add_registry(tx.registry(), &[("sender", &i.to_string())]);
    }
    admin.add_registry(query_server.registry(), &[]);
    let resp = admin.handle(&Request {
        method: "GET".to_string(),
        path: "/metrics".to_string(),
        body: Vec::new(),
    });
    assert_eq!(resp.status, 200);
    String::from_utf8(resp.body).expect("utf8 exposition")
}

/// `<family> <type> {<label keys>}`, one line per family, sorted by
/// family name. A sample belongs to the family whose `# TYPE` line
/// precedes it.
fn series_list(text: &str) -> String {
    parse_exposition(text).expect("exposition parses");
    let mut families: BTreeMap<String, (String, BTreeSet<String>)> = BTreeMap::new();
    let mut current = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE names a kind");
            families.insert(name.to_string(), (kind.to_string(), BTreeSet::new()));
            current = Some(name.to_string());
        } else if !line.is_empty() && !line.starts_with('#') {
            let family = current.as_ref().expect("a sample follows its TYPE line");
            let sample = parse_exposition(line).expect("sample line parses").remove(0);
            let keys = &mut families.get_mut(family).expect("family recorded").1;
            keys.extend(sample.labels.into_iter().map(|(k, _)| k));
        }
    }
    families
        .iter()
        .map(|(name, (kind, keys))| {
            format!("{name} {kind} {{{}}}\n", keys.iter().cloned().collect::<Vec<_>>().join(","))
        })
        .collect()
}

#[test]
fn metric_series_match_the_golden_list() {
    let got = series_list(&scrape());
    let want = include_str!("metric_series.txt");
    assert_eq!(
        got, want,
        "metric names, types and label keys are a dashboard contract; update tests/metric_series.txt deliberately:\n{got}"
    );
}

/// Deliberate-update path:
/// `cargo test -p pla-ops --test metric_series -- --ignored regenerate_series`
/// rewrites the list from the current pipeline.
#[test]
#[ignore]
fn regenerate_series() {
    std::fs::write("tests/metric_series.txt", series_list(&scrape())).unwrap();
}
