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

use bytes::BytesMut;

use pla_ingest::SegmentStore;
use pla_net::driver::{pump_in, pump_out, DriveError};
use pla_net::frame::{encode, FrameDecoder, NetFrame, Outbox, PROTOCOL_VERSION};
use pla_net::listen::Acceptor;
use pla_net::session::splitmix64;
use pla_net::{Link, NetConfig};

use crate::store::StoreQueryEngine;
use crate::wire::{Query, QueryResult};

/// Upper bounds (seconds) of the server's finite service-time buckets;
/// the implicit `+Inf` bucket follows.
pub const SERVICE_BUCKETS: [f64; 5] = [50e-6, 250e-6, 1e-3, 5e-3, 25e-3];

/// Fixed-bucket service-time distribution, accumulated by the server
/// and scraped by `pla-ops` into a Prometheus histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceLatency {
    /// Observation counts per bucket: one per [`SERVICE_BUCKETS`] bound
    /// (non-cumulative), then the `+Inf` overflow.
    pub counts: [u64; SERVICE_BUCKETS.len() + 1],
    /// Sum of all observations, seconds.
    pub sum: f64,
    /// Total observations.
    pub count: u64,
}

impl Default for ServiceLatency {
    fn default() -> Self {
        Self { counts: [0; SERVICE_BUCKETS.len() + 1], sum: 0.0, count: 0 }
    }
}

impl ServiceLatency {
    fn observe(&mut self, seconds: f64) {
        let slot =
            SERVICE_BUCKETS.iter().position(|&b| seconds <= b).unwrap_or(SERVICE_BUCKETS.len());
        self.counts[slot] += 1;
        self.sum += seconds;
        self.count += 1;
    }

    /// `(upper_bound, count)` per finite bucket, non-cumulative — the
    /// shape `pla-ops`'s histogram samples want.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        SERVICE_BUCKETS.iter().zip(self.counts.iter()).map(|(&b, &c)| (b, c)).collect()
    }
}

/// Aggregate server counters, cheap to copy out for scraping.
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Service-time distribution over answered queries.
    pub latency: ServiceLatency,
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
    stats: QueryServerStats,
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
            stats: QueryServerStats::default(),
        }
    }

    /// The served store.
    pub fn store(&self) -> &Arc<SegmentStore> {
        &self.store
    }

    /// Copies out the server counters.
    pub fn stats(&self) -> QueryServerStats {
        let mut s = self.stats.clone();
        s.connections = self.conns.len();
        s
    }

    /// Rebuilds the engine iff the store's epochs moved (or no engine
    /// exists yet); returns the engine to answer with.
    fn fresh_engine(&mut self) -> &StoreQueryEngine {
        let epochs = self.store.epochs();
        if self.engine.is_none() || epochs != self.engine_epochs {
            self.engine = Some(StoreQueryEngine::new(self.store.snapshot()));
            self.engine_epochs = epochs;
            self.stats.rebuilds += 1;
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
            self.stats.accepted += 1;
        }
        let mut moved = 0;
        let mut conns = std::mem::take(&mut self.conns);
        for conn in &mut conns {
            moved += self.pump_conn(conn);
        }
        self.conns = conns;
        self.conns.retain(|c| !(c.dead || (c.closing && c.outbox.is_empty())));
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
            self.stats.bytes_in += moved as u64;
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
                    self.stats.malformed += 1;
                    conn.dead = true;
                    return moved;
                }
            }
        }
        match pump_out(&mut conn.outbox, &mut conn.link) {
            Ok(n) => {
                moved += n;
                self.stats.bytes_out += n as u64;
            }
            Err(_) => conn.dead = true,
        }
        moved
    }

    /// Encodes `frame` and stages it — one whole frame per
    /// [`Outbox::stage`] call, the torn-write invariant.
    fn stage(conn: &mut QueryConn<A::Link>, frame: &NetFrame) {
        let mut buf = BytesMut::new();
        encode(frame, &mut buf);
        conn.outbox.stage(&buf);
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
                    Self::stage(
                        conn,
                        &NetFrame::HelloAck {
                            version: PROTOCOL_VERSION,
                            token: minted,
                            through: 0,
                            granted_total: 0,
                        },
                    );
                }
                NetFrame::Hello { .. } => {
                    // Version mismatch: refuse cleanly, then close.
                    self.stats.refused += 1;
                    Self::stage(
                        conn,
                        &NetFrame::HelloAck {
                            version: PROTOCOL_VERSION,
                            token: 0,
                            through: 0,
                            granted_total: 0,
                        },
                    );
                    conn.closing = true;
                }
                _ => {
                    // Anything but Hello first is a protocol violation.
                    self.stats.refused += 1;
                    conn.dead = true;
                }
            }
            return;
        };
        match frame {
            NetFrame::QueryReq { req_id, body } => {
                let started = Instant::now();
                let result = match Query::decode(&body) {
                    Ok(query) => query.run(self.fresh_engine()),
                    Err(_) => {
                        // The body bytes are garbage: the peer and we
                        // disagree about the codec — kill the
                        // connection rather than guess.
                        self.stats.malformed += 1;
                        conn.dead = true;
                        return;
                    }
                };
                self.stats.requests += 1;
                if matches!(result, QueryResult::Err(_)) {
                    self.stats.errors += 1;
                }
                self.stats.latency.observe(started.elapsed().as_secs_f64());
                Self::stage(conn, &NetFrame::QueryResp { req_id, body: result.encode() });
            }
            NetFrame::EpochsReq { req_id } => {
                self.stats.epoch_probes += 1;
                Self::stage(
                    conn,
                    &NetFrame::EpochsResp { req_id, epochs: self.store.epochs().to_vec() },
                );
            }
            NetFrame::Heartbeat { seq } => {
                self.stats.heartbeats += 1;
                Self::stage(conn, &NetFrame::Heartbeat { seq });
            }
            // A duplicated Hello (replayed by a flaky path) re-states a
            // bound session: re-ack idempotently with the same token.
            NetFrame::Hello { version, .. } if version == PROTOCOL_VERSION => {
                Self::stage(
                    conn,
                    &NetFrame::HelloAck {
                        version: PROTOCOL_VERSION,
                        token,
                        through: 0,
                        granted_total: 0,
                    },
                );
            }
            // Ingest-plane frames (or a mid-session version change) do
            // not belong on the query plane.
            _ => {
                self.stats.malformed += 1;
                conn.dead = true;
            }
        }
    }
}
