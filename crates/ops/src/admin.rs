//! The collector admin surface: `/metrics`, `/healthz`, and the JSON
//! admin API, as one [`Handler`] wrapping a shared [`Collector`].
//!
//! | Method | Path | Effect |
//! |---|---|---|
//! | GET | `/metrics` | Prometheus exposition of the ops, collector, store and handed-in registries |
//! | GET | `/healthz` | liveness probe, `200 ok` |
//! | GET | `/admin/connections` | per-connection counters as JSON |
//! | GET | `/admin/streams` | streams + quarantine state + per-source watermarks |
//! | POST | `/admin/drain/{conn}` | detach a connection (session resumes later) |
//! | POST | `/admin/quarantine/{stream}` | shed that stream at the publish seam |
//! | POST | `/admin/release/{stream}` | lift a stream quarantine |

use std::cell::RefCell;
use std::rc::Rc;

use pla_net::listen::Acceptor;
use pla_net::{Collector, ConnId};
use pla_transport::wire::Codec;

use crate::http::{Handler, Request, Response};
use crate::metrics::{render_families, Counter, Histogram, Registry};

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON value (`null` for non-finite, which JSON
/// cannot represent).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The admin [`Handler`]: owns the ops [`Registry`] (HTTP self-metrics
/// live here), renders it with the wrapped collector's and its store's
/// registries and every registry handed in through
/// [`add_registry`](Self::add_registry) on each `/metrics`, and maps
/// the admin POSTs onto the collector's drain/quarantine machinery.
pub struct CollectorAdmin<C: Codec + Clone, A: Acceptor> {
    collector: Rc<RefCell<Collector<C, A>>>,
    registry: Registry,
    /// Handed-in registries, each carrying its constant labels.
    sources: Vec<Registry>,
    requests: Counter,
    response_bytes: Histogram,
}

impl<C: Codec + Clone, A: Acceptor> CollectorAdmin<C, A> {
    /// Wraps `collector`, shared with the loop that pumps it: the loop
    /// borrows it for each `pump` round, the handler between rounds.
    pub fn new(collector: Rc<RefCell<Collector<C, A>>>) -> Self {
        let mut registry = Registry::new();
        let requests =
            registry.counter("pla_ops_requests_total", "HTTP requests served by the ops endpoint.");
        let response_bytes = registry.histogram(
            "pla_ops_response_bytes",
            "Response body sizes served by the ops endpoint.",
            &[256.0, 1024.0, 4096.0, 16384.0, 65536.0],
        );
        Self { collector, registry, sources: Vec::new(), requests, response_bytes }
    }

    /// Serves `registry`'s series on every `/metrics` with `labels`
    /// added to each (`sender="0"`, say), so several registries of one
    /// kind stay apart. The handles are shared, so every later update
    /// shows; a series `registry` gains after this call does not.
    pub fn add_registry(&mut self, registry: &Registry, labels: &[(&str, &str)]) {
        self.sources.push(registry.with_labels(labels));
    }

    fn metrics(&self) -> Response {
        let mut fams = self.registry.gather();
        {
            let coll = self.collector.borrow();
            fams.extend(coll.registry().gather());
            fams.extend(coll.store().registry().gather());
        }
        for source in &self.sources {
            fams.extend(source.gather());
        }
        Response::exposition(render_families(&fams))
    }

    fn connections_json(&self) -> Response {
        let coll = self.collector.borrow();
        let stats = coll.stats();
        let conns: Vec<String> = stats
            .conns
            .iter()
            .map(|c| {
                let acks: Vec<String> =
                    c.ack_points.iter().map(|(s, seq)| format!("[{s},{seq}]")).collect();
                format!(
                    "{{\"conn\":{},\"attached\":{},\"resumes\":{},\"published\":{},\
                     \"backpressure\":{},\"bytes_moved\":{},\"frames\":{},\"dup_drops\":{},\
                     \"heartbeats\":{},\"failed\":{},\"ack_points\":[{}]}}",
                    c.conn.0,
                    c.attached,
                    c.resumes,
                    c.published,
                    c.backpressure,
                    c.bytes_moved,
                    c.receiver.frames_applied,
                    c.receiver.dup_drops,
                    c.receiver.heartbeats,
                    match &c.failed {
                        Some(e) => format!("\"{}\"", json_escape(&e.to_string())),
                        None => "null".to_string(),
                    },
                    acks.join(",")
                )
            })
            .collect();
        Response::json(
            200,
            format!(
                "{{\"connections\":[{}],\"refused\":{},\"evicted\":{},\"last_refusal\":{}}}",
                conns.join(","),
                stats.refused,
                stats.evicted,
                match &stats.last_refusal {
                    Some(r) => format!("\"{}\"", json_escape(r)),
                    None => "null".to_string(),
                }
            ),
        )
    }

    fn streams_json(&self) -> Response {
        let coll = self.collector.borrow();
        let snap = coll.store().snapshot();
        let streams: Vec<String> = snap
            .streams
            .iter()
            .map(|(id, view)| {
                let span = match view.span() {
                    Some((lo, hi)) => format!("[{},{}]", json_f64(lo), json_f64(hi)),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"stream\":{},\"segments\":{},\"quarantined\":{},\"span\":{}}}",
                    id.0,
                    view.len(),
                    coll.stream_quarantined(id.0),
                    span
                )
            })
            .collect();
        let sources: Vec<String> = snap
            .sources
            .iter()
            .map(|(src, w)| {
                format!(
                    "{{\"source\":{},\"segments\":{},\"covered_through\":{}}}",
                    src,
                    w.segments,
                    json_f64(w.covered_through)
                )
            })
            .collect();
        let quarantined: Vec<String> =
            coll.quarantined_streams().iter().map(u64::to_string).collect();
        Response::json(
            200,
            format!(
                "{{\"streams\":[{}],\"sources\":[{}],\"quarantined\":[{}],\"total_segments\":{}}}",
                streams.join(","),
                sources.join(","),
                quarantined.join(","),
                snap.total_segments
            ),
        )
    }

    fn post(&mut self, action: &str, id_str: &str) -> Response {
        let Ok(id) = id_str.parse::<u64>() else {
            return Response::json(
                400,
                format!("{{\"error\":\"bad id {}\"}}", json_escape(id_str)),
            );
        };
        let mut coll = self.collector.borrow_mut();
        let (ok, verb) = match action {
            "drain" => (coll.drain(ConnId(id)), "drained"),
            "quarantine" => (coll.quarantine_stream(id), "quarantined"),
            "release" => (coll.release_stream(id), "released"),
            _ => return Response::not_found(),
        };
        if ok {
            Response::json(200, format!("{{\"{verb}\":{id}}}"))
        } else {
            Response::json(409, format!("{{\"error\":\"{verb} refused for {id}\"}}"))
        }
    }
}

impl<C: Codec + Clone, A: Acceptor> Handler for CollectorAdmin<C, A> {
    fn handle(&mut self, req: &Request) -> Response {
        self.requests.inc();
        let resp = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/metrics") => self.metrics(),
            ("GET", "/healthz") => Response::text(200, "ok\n"),
            ("GET", "/admin/connections") => self.connections_json(),
            ("GET", "/admin/streams") => self.streams_json(),
            (method, path) => {
                match path.strip_prefix("/admin/").and_then(|rest| rest.split_once('/')) {
                    Some((action, id)) if method == "POST" => self.post(action, id),
                    Some(_) => Response::method_not_allowed(),
                    None => Response::not_found(),
                }
            }
        };
        self.response_bytes.observe(resp.body.len() as f64);
        resp
    }
}
