//! The collector-side query server: accepts `pla-net` links, speaks the
//! versioned `Hello`/`HelloAck` handshake, and answers
//! [`QueryReq`](NetFrame::QueryReq) / [`EpochsReq`](NetFrame::EpochsReq)
//! frames against a shared [`SegmentStore`].
//!
//! Serving never blocks ingest: the engine wraps
//! [`SegmentStore::snapshot`] (two `Arc` clones per stream, no segment
//! copied; the store copies on write while the engine holds it) and is
//! rebuilt
//! lazily — only when a request arrives **and** the store's per-shard
//! [`epochs`](SegmentStore::epochs) moved since the last build. A
//! read-only workload over a quiet store never re-snapshots.
//!
//! Same driving model as `pla-ops`'s `OpsServer`: a sync non-blocking
//! [`pump`](QueryServer::pump) owns all protocol logic, and its owner
//! calls it in a plain loop that sleeps about 1 ms after a round that
//! moved nothing.
//!
//! Failure containment mirrors the collector: a version-mismatched
//! `Hello` gets a `HelloAck { token: 0 }` refusal and only that
//! connection closes; wire garbage (undecodable frame or query body)
//! kills only the offending connection. A *well-formed* query that the
//! engine refuses is not a failure at all — the typed
//! [`QueryError`](crate::QueryError) rides back inside the response.

use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

use pla_ingest::SegmentStore;
use pla_metrics::{Histogram, Registry};
use pla_net::driver::{pump_in, pump_out, DriveError};
use pla_net::frame::{FrameDecoder, NetFrame, Outbox, PROTOCOL_VERSION};
use pla_net::listen::Acceptor;
use pla_net::session::splitmix64;
use pla_net::{Link, NetConfig};

use crate::store::StoreQueryEngine;
use crate::wire::{Query, QueryResult};

/// Upper bounds (seconds) of the server's finite service-time buckets;
/// the implicit `+Inf` bucket follows.
pub const SERVICE_BUCKETS: [f64; 5] = [50e-6, 250e-6, 1e-3, 5e-3, 25e-3];

/// Aggregate server counters, read from the server's series.
#[derive(Debug, Clone)]
pub struct QueryServerStats {
    /// Connections currently tracked.
    pub connections: usize,
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Handshakes refused (version mismatch or a non-`Hello` first
    /// frame).
    pub refused: u64,
    /// Connections killed by wire garbage (frame or body decode
    /// failure, or an ingest-plane frame on the query plane).
    pub malformed: u64,
    /// `QueryReq` frames answered.
    pub requests: u64,
    /// Answers that carried a typed [`QueryError`](crate::QueryError).
    pub errors: u64,
    /// `EpochsReq` probes answered.
    pub epoch_probes: u64,
    /// Heartbeats echoed.
    pub heartbeats: u64,
    /// Link bytes read.
    pub bytes_in: u64,
    /// Link bytes written.
    pub bytes_out: u64,
    /// Engine rebuilds (one per request round that found moved epochs).
    pub rebuilds: u64,
    /// Service-time distribution over answered queries (the server's
    /// `pla_query_server_service_seconds` handle).
    pub latency: Histogram,
}

pla_metrics::series! {
    /// The server's series (see [`QueryServer::registry`]).
    struct ServerSeries {
        connections: gauge("pla_query_server_connections", "Query connections currently tracked."),
        accepted: counter("pla_query_server_accepted_total", "Query connections accepted."),
        refused: counter("pla_query_server_refused_total",
            "Query handshakes refused (version mismatch, non-Hello first frame)."),
        malformed: counter("pla_query_server_malformed_total",
            "Query connections killed by undecodable bytes."),
        requests: counter("pla_query_server_requests_total", "Query requests answered."),
        errors: counter("pla_query_server_errors_total", "Answers that carried a typed query error."),
        epoch_probes: counter("pla_query_server_epoch_probes_total",
            "Epoch cache-validation probes answered."),
        heartbeats: counter("pla_query_server_heartbeats_total",
            "Heartbeats echoed on the query plane."),
        bytes_in: counter("pla_query_server_bytes_read_total", "Bytes read from query links."),
        bytes_out: counter("pla_query_server_bytes_written_total", "Bytes written to query links."),
        rebuilds: counter("pla_query_server_snapshot_rebuilds_total",
            "Engine rebuilds triggered by moved store epochs."),
        latency: histogram("pla_query_server_service_seconds",
            "Per-request service time on the query server.", &SERVICE_BUCKETS),
        lookups: counter("pla_query_lookups_total", "Point lookups served."),
        comparisons: counter("pla_query_comparisons_total",
            "Index comparisons spent across all point lookups."),
    }
}

struct QueryConn<L: Link> {
    link: L,
    decoder: FrameDecoder,
    outbox: Outbox,
    /// Session token minted at handshake; `None` until a valid `Hello`.
    token: Option<u64>,
    closing: bool,
    dead: bool,
}

/// The query server. See the module docs.
pub struct QueryServer<A: Acceptor> {
    acceptor: A,
    store: Arc<SegmentStore>,
    config: NetConfig,
    conns: Vec<QueryConn<A::Link>>,
    engine: Option<StoreQueryEngine>,
    engine_epochs: Box<[u64]>,
    token_state: u64,
    series: ServerSeries,
}

impl<A: Acceptor> QueryServer<A> {
    /// New server answering queries against `store` for links arriving
    /// on `acceptor`.
    pub fn new(acceptor: A, store: Arc<SegmentStore>, config: NetConfig) -> Self {
        Self {
            acceptor,
            store,
            config,
            conns: Vec::new(),
            engine: None,
            engine_epochs: Box::new([]),
            token_state: 0x5EED_0F5E_51D5_0001,
            series: ServerSeries::new(),
        }
    }

    /// The served store.
    pub fn store(&self) -> &Arc<SegmentStore> {
        &self.store
    }

    /// Reads the server counters.
    pub fn stats(&self) -> QueryServerStats {
        let s = &self.series;
        QueryServerStats {
            connections: s.connections.get() as usize,
            accepted: s.accepted.get(),
            refused: s.refused.get(),
            malformed: s.malformed.get(),
            requests: s.requests.get(),
            errors: s.errors.get(),
            epoch_probes: s.epoch_probes.get(),
            heartbeats: s.heartbeats.get(),
            bytes_in: s.bytes_in.get(),
            bytes_out: s.bytes_out.get(),
            rebuilds: s.rebuilds.get(),
            latency: s.latency.clone(),
        }
    }

    /// The server's series, built from its handles on each call:
    /// `pla_query_server_*`, and the `pla_query_{lookups,comparisons}_total`
    /// of its point lookups.
    pub fn registry(&self) -> Registry {
        let mut registry = Registry::new();
        self.series.add_to(&mut registry, &[]);
        registry
    }

    /// Rebuilds the engine iff the store's epochs moved (or no engine
    /// exists yet); returns the engine to answer with.
    fn fresh_engine(&mut self) -> &StoreQueryEngine {
        let epochs = self.store.epochs();
        if self.engine.is_none() || epochs != self.engine_epochs {
            self.engine = Some(StoreQueryEngine::new(self.store.snapshot()));
            self.engine_epochs = epochs;
            self.series.rebuilds.inc();
        }
        self.engine.as_ref().expect("engine just ensured")
    }

    /// One non-blocking round: accept pending links, read and answer
    /// every complete frame, flush what fits. Returns bytes moved.
    pub fn pump(&mut self) -> usize {
        while let Ok(Some(link)) = self.acceptor.try_accept() {
            self.conns.push(QueryConn {
                link,
                decoder: FrameDecoder::new(self.config.max_frame),
                outbox: Outbox::default(),
                token: None,
                closing: false,
                dead: false,
            });
            self.series.accepted.inc();
        }
        let mut moved = 0;
        let mut conns = std::mem::take(&mut self.conns);
        for conn in &mut conns {
            moved += self.pump_conn(conn);
        }
        self.conns = conns;
        self.conns.retain(|c| !(c.dead || (c.closing && c.outbox.is_empty())));
        self.series.connections.set(self.conns.len() as f64);
        moved
    }

    fn pump_conn(&mut self, conn: &mut QueryConn<A::Link>) -> usize {
        let mut moved = 0;
        if !conn.closing {
            let decoder = &mut conn.decoder;
            let read = pump_in(&mut conn.link, |bytes| {
                decoder.extend(bytes);
                moved += bytes.len();
                Ok::<_, Infallible>(())
            });
            self.series.bytes_in.add(moved as u64);
            match read {
                Ok(_) => {}
                // The client hung up: answer what arrived, flush it,
                // then drop the connection.
                Err(DriveError::Closed) => conn.closing = true,
                Err(_) => {
                    conn.dead = true;
                    return moved;
                }
            }
        }
        while !conn.dead {
            match conn.decoder.try_next() {
                Ok(Some(frame)) => self.on_frame(conn, frame),
                Ok(None) => break,
                Err(_) => {
                    self.series.malformed.inc();
                    conn.dead = true;
                    return moved;
                }
            }
        }
        match pump_out(&mut conn.outbox, &mut conn.link) {
            Ok(n) => {
                moved += n;
                self.series.bytes_out.add(n as u64);
            }
            Err(_) => conn.dead = true,
        }
        moved
    }

    fn on_frame(&mut self, conn: &mut QueryConn<A::Link>, frame: NetFrame) {
        // Handshake: the first frame must be a version-matched Hello.
        let Some(token) = conn.token else {
            match frame {
                NetFrame::Hello { version, token: _ } if version == PROTOCOL_VERSION => {
                    let minted = loop {
                        splitmix64(&mut self.token_state);
                        if self.token_state != 0 {
                            break self.token_state;
                        }
                    };
                    conn.token = Some(minted);
                    conn.outbox.stage_frame(&NetFrame::HelloAck {
                        version: PROTOCOL_VERSION,
                        token: minted,
                        through: 0,
                        granted_total: 0,
                    });
                }
                NetFrame::Hello { .. } => {
                    // Version mismatch: refuse cleanly, then close.
                    self.series.refused.inc();
                    conn.outbox.stage_frame(&NetFrame::HelloAck {
                        version: PROTOCOL_VERSION,
                        token: 0,
                        through: 0,
                        granted_total: 0,
                    });
                    conn.closing = true;
                }
                _ => {
                    // Anything but Hello first is a protocol violation.
                    self.series.refused.inc();
                    conn.dead = true;
                }
            }
            return;
        };
        match frame {
            NetFrame::QueryReq { req_id, body } => {
                let started = Instant::now();
                let mut lookup = None;
                let result = match Query::decode(&body) {
                    Ok(query) => query.run_counted(self.fresh_engine(), &mut lookup),
                    Err(_) => {
                        // The body bytes are garbage: the peer and we
                        // disagree about the codec — kill the
                        // connection rather than guess.
                        self.series.malformed.inc();
                        conn.dead = true;
                        return;
                    }
                };
                self.series.requests.inc();
                if matches!(result, QueryResult::Err(_)) {
                    self.series.errors.inc();
                }
                if let Some(cost) = lookup {
                    self.series.lookups.inc();
                    self.series.comparisons.add(cost.comparisons as u64);
                }
                self.series.latency.observe(started.elapsed().as_secs_f64());
                conn.outbox.stage_frame(&NetFrame::QueryResp { req_id, body: result.encode() });
            }
            NetFrame::EpochsReq { req_id } => {
                self.series.epoch_probes.inc();
                let epochs = self.store.epochs().to_vec();
                conn.outbox.stage_frame(&NetFrame::EpochsResp { req_id, epochs });
            }
            NetFrame::Heartbeat { seq } => {
                self.series.heartbeats.inc();
                conn.outbox.stage_frame(&NetFrame::Heartbeat { seq });
            }
            // A duplicated Hello (replayed by a flaky path) re-states a
            // bound session: re-ack idempotently with the same token.
            NetFrame::Hello { version, .. } if version == PROTOCOL_VERSION => {
                conn.outbox.stage_frame(&NetFrame::HelloAck {
                    version: PROTOCOL_VERSION,
                    token,
                    through: 0,
                    granted_total: 0,
                });
            }
            // Ingest-plane frames (or a mid-session version change) do
            // not belong on the query plane.
            _ => {
                self.series.malformed.inc();
                conn.dead = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{QueryClient, QueryClientConfig, Response};
    use pla_core::Segment;
    use pla_ingest::StreamId;
    use pla_net::listen::MemoryAcceptor;
    use pla_net::MemoryRedial;

    #[test]
    fn registry_counts_requests_lookups_and_service_time() {
        let store = Arc::new(SegmentStore::new());
        for i in 0..8 {
            let t = i as f64;
            let seg = Segment {
                t_start: t,
                x_start: [t].into(),
                t_end: t + 1.0,
                x_end: [t + 1.0].into(),
                connected: i > 0,
                n_points: 2,
                new_recordings: if i == 0 { 2 } else { 1 },
            };
            store.append(1, StreamId(3), seg);
        }
        let acceptor = MemoryAcceptor::new();
        let redial = MemoryRedial::new(acceptor.connector(), 1 << 16);
        let mut server = QueryServer::new(acceptor, store, NetConfig::default());
        let mut client = QueryClient::new(redial, QueryClientConfig::default());
        let now = Instant::now();
        let point = client.submit(Query::PointWithStats { stream: 3, t: 4.5, dim: 0 }, now);
        // An unknown stream is a refused lookup: counted, no comparisons.
        client.submit(Query::Point { stream: 9, t: 0.0, dim: 0 }, now);
        client.submit(Query::Streams, now);
        for _ in 0..100 {
            client.pump_at(now);
            server.pump();
            client.pump_at(now);
        }
        assert!(client.is_idle());
        let Some(Ok(Response::Result(QueryResult::ValueWithStats { comparisons, .. }))) =
            client.take_outcome(point)
        else {
            panic!("the point lookup is answered with its cost");
        };
        assert!(comparisons > 0);

        let text = server.registry().render();
        for line in [
            "pla_query_server_connections 1".to_string(),
            "pla_query_server_requests_total 3".to_string(),
            "pla_query_server_errors_total 1".to_string(),
            "pla_query_lookups_total 2".to_string(),
            format!("pla_query_comparisons_total {comparisons}"),
            "pla_query_server_service_seconds_count 3".to_string(),
        ] {
            assert!(text.contains(&format!("{line}\n")), "missing {line:?} in:\n{text}");
        }
        assert_eq!(server.stats().latency.count(), 3);

        // A range query is answered but is no point lookup: the lookup
        // and comparison counts stay where they were.
        client.submit(Query::Range { stream: 3, a: 1.0, b: 6.0, dim: 0 }, now);
        for _ in 0..100 {
            client.pump_at(now);
            server.pump();
            client.pump_at(now);
        }
        assert!(client.is_idle());
        let text = server.registry().render();
        for line in [
            "pla_query_server_requests_total 4".to_string(),
            "pla_query_lookups_total 2".to_string(),
            format!("pla_query_comparisons_total {comparisons}"),
        ] {
            assert!(text.contains(&format!("{line}\n")), "missing {line:?} in:\n{text}");
        }
    }
}
