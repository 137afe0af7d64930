//! The remote reader: a sans-I/O query client with request pipelining,
//! per-request timeouts, automatic redial, and an epoch-validated
//! result cache.
//!
//! Mirrors the sender session machine's discipline
//! ([`SessionSender`](pla_net::SessionSender)): all time enters through
//! the explicit `now` of [`pump_at`](QueryClient::pump_at), so every
//! timeout/redial path is deterministic under test; all staging goes
//! through [`Outbox::stage`] one whole frame per call (torn-write
//! safety); and losing the link is an *event, not an error* — queries
//! are idempotent reads, so the client simply redials and re-issues
//! everything unanswered.
//!
//! Correlation: every request carries a client-minted `req_id`; the
//! server echoes it on the response. Responses may arrive out of order
//! (pipelining) or more than once (a redial can re-issue a request the
//! server already answered on the dead link — or answered *twice* when
//! a fault duplicates frames); the first answer per `req_id` wins and
//! later ones are counted as [`dup_drops`](ClientStats::dup_drops),
//! exactly the sequence-number discipline of the ingest plane.
//!
//! A request completes in one of exactly three ways: a decoded
//! [`QueryResult`], a typed [`ClientError::Timeout`] after
//! `max_attempts` per-request deadlines lapsed, or a typed
//! [`ClientError::Refused`]/[`ClientError::Wire`] when the server
//! refuses the protocol version or the response bytes are garbage.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::time::{Duration, Instant};

use bytes::BytesMut;

use pla_ingest::{shard_of, StreamId};
use pla_net::driver::{pump_in, pump_out};
use pla_net::frame::{encode, FrameDecoder, NetFrame, Outbox, PROTOCOL_VERSION};
use pla_net::{NetConfig, Redial};

use crate::wire::{Query, QueryResult, WireError};

/// Client knobs. Defaults suit tests and LAN deployments.
#[derive(Debug, Clone, Copy)]
pub struct QueryClientConfig {
    /// Frame-size bound shared with [`NetConfig`].
    pub net: NetConfig,
    /// Per-request deadline: a request unanswered this long is either
    /// re-issued over a fresh link or — after
    /// [`max_attempts`](Self::max_attempts) — completed as
    /// [`ClientError::Timeout`].
    pub request_timeout: Duration,
    /// Attempts (initial send plus re-issues) before a request times
    /// out for good.
    pub max_attempts: u32,
    /// First-retry backoff after a *failed dial attempt*.
    pub redial_initial: Duration,
    /// Backoff ceiling (doubles up to here).
    pub redial_cap: Duration,
}

impl Default for QueryClientConfig {
    fn default() -> Self {
        Self {
            net: NetConfig::default(),
            request_timeout: Duration::from_millis(500),
            max_attempts: 8,
            redial_initial: Duration::from_millis(10),
            redial_cap: Duration::from_secs(2),
        }
    }
}

/// Client-side completion failures (the *wire* failing, never the
/// engine: an engine refusal arrives as a successful
/// [`QueryResult::Err`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Every attempt's deadline lapsed without an answer.
    Timeout {
        /// Send attempts made.
        attempts: u32,
    },
    /// The server refused the handshake (version mismatch).
    Refused {
        /// The server's advertised protocol version.
        server_version: u16,
    },
    /// The response body did not decode — the peers disagree about the
    /// codec.
    Wire(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Timeout { attempts } => write!(f, "request timed out after {attempts} attempts"),
            Self::Refused { server_version } => {
                write!(f, "server (version {server_version}) refused version {PROTOCOL_VERSION}")
            }
            Self::Wire(e) => write!(f, "undecodable response: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A completed request's payload.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to a [`Query`].
    Result(QueryResult),
    /// Answer to an epochs probe.
    Epochs(Vec<u64>),
}

/// How one request finished.
pub type Outcome = Result<Response, ClientError>;

/// Client counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Dial attempts (including failures).
    pub dials: u64,
    /// Handshakes completed.
    pub established: u64,
    /// Requests re-issued over a fresh link.
    pub retransmits: u64,
    /// Responses dropped because their request was already answered.
    pub dup_drops: u64,
    /// Requests completed as [`ClientError::Timeout`].
    pub timeouts: u64,
    /// Cache hits served without touching the wire.
    pub cache_hits: u64,
    /// Cache entries invalidated by moved epochs.
    pub cache_invalidations: u64,
}

#[derive(Debug, Clone)]
enum PendingKind {
    Query(Query),
    Epochs,
}

#[derive(Debug)]
struct PendingReq {
    kind: PendingKind,
    deadline: Instant,
    attempts: u32,
    staged: bool,
}

struct CacheEntry {
    /// Store shard the answer depends on; `None` depends on the whole
    /// store (e.g. [`Query::Streams`]).
    shard: Option<usize>,
    result: QueryResult,
}

/// Epoch-validated result cache: an answer stays servable locally until
/// the store shard it came from moves its epoch. The client probes with
/// [`QueryClient::probe_epochs`]; each [`NetFrame::EpochsResp`]
/// revalidates, dropping exactly the entries whose shard advanced.
///
/// Epochs are monotone under a fixed server; observing any *decrease*
/// (or a shard-count change) means the server was replaced, and the
/// whole cache drops.
#[derive(Default)]
pub struct SnapshotCache {
    /// Last validated epochs; empty until the first probe answers.
    epochs: Box<[u64]>,
    entries: BTreeMap<Vec<u8>, CacheEntry>,
}

impl SnapshotCache {
    /// Whether the cache has been validated at least once (entries are
    /// only stored/served under a known epoch vector).
    pub fn validated(&self) -> bool {
        !self.epochs.is_empty()
    }

    /// The last validated epochs (empty before the first probe).
    pub fn epochs(&self) -> &[u64] {
        &self.epochs
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Applies a fresh epoch vector: drops entries on moved shards (and
    /// whole-store entries if anything moved). Returns how many entries
    /// were invalidated.
    pub fn revalidate(&mut self, new: &[u64]) -> usize {
        let before = self.entries.len();
        if self.epochs.len() != new.len() || self.epochs.iter().zip(new).any(|(old, new)| new < old)
        {
            // Shard-count change or an epoch running backwards: not the
            // store we validated against. Drop everything.
            if self.validated() {
                self.entries.clear();
            }
        } else {
            let moved: Vec<usize> = self
                .epochs
                .iter()
                .zip(new)
                .enumerate()
                .filter(|(_, (old, new))| new != old)
                .map(|(i, _)| i)
                .collect();
            if !moved.is_empty() {
                self.entries.retain(|_, e| match e.shard {
                    Some(s) => !moved.contains(&s),
                    None => false,
                });
            }
        }
        self.epochs = new.into();
        before - self.entries.len()
    }

    /// Cached answer for `query`, if still valid.
    pub fn get(&self, query: &Query) -> Option<&QueryResult> {
        if !self.validated() {
            return None;
        }
        self.entries.get(query.encode().as_ref()).map(|e| &e.result)
    }

    /// Stores an answer under the current epoch vector (no-op before
    /// the first validation — there is nothing to validate against).
    pub fn insert(&mut self, query: &Query, result: QueryResult) {
        if !self.validated() {
            return;
        }
        let shard = query_stream(query).map(|s| shard_of(StreamId(s), self.epochs.len()));
        self.entries.insert(query.encode().to_vec(), CacheEntry { shard, result });
    }
}

/// The stream a query depends on, if it names exactly one.
fn query_stream(q: &Query) -> Option<u64> {
    match q {
        Query::Point { stream, .. }
        | Query::PointWithStats { stream, .. }
        | Query::PointBounded { stream, .. }
        | Query::Range { stream, .. }
        | Query::RangeBounded { stream, .. }
        | Query::CountAbove { stream, .. }
        | Query::Span { stream } => Some(*stream),
        Query::Streams => None,
    }
}

/// Whether a cached request was served locally or went to the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Cached {
    /// Served from the epoch-validated cache.
    Hit(QueryResult),
    /// Submitted remotely; the answer arrives under this `req_id`.
    Sent(u64),
}

/// The remote query client. See the module docs.
pub struct QueryClient<R: Redial> {
    redial: R,
    link: Option<R::Link>,
    config: QueryClientConfig,
    decoder: FrameDecoder,
    outbox: Outbox,
    next_req_id: u64,
    pending: BTreeMap<u64, PendingReq>,
    done: BTreeMap<u64, Outcome>,
    /// Token from the last `HelloAck`, offered on the next dial.
    token: u64,
    backoff: Duration,
    /// Earliest next dial attempt; `None` = dial on the next pump.
    next_dial_at: Option<Instant>,
    fatal: Option<ClientError>,
    stats: ClientStats,
    cache: SnapshotCache,
}

impl<R: Redial> QueryClient<R> {
    /// New client dialing through `redial`.
    pub fn new(redial: R, config: QueryClientConfig) -> Self {
        Self {
            redial,
            link: None,
            decoder: FrameDecoder::new(config.net.max_frame),
            outbox: Outbox::default(),
            config,
            next_req_id: 0,
            pending: BTreeMap::new(),
            done: BTreeMap::new(),
            token: 0,
            backoff: config.redial_initial,
            next_dial_at: None,
            fatal: None,
            stats: ClientStats::default(),
            cache: SnapshotCache::default(),
        }
    }

    /// Client counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The result cache (inspection and direct seeding in tests).
    pub fn cache(&self) -> &SnapshotCache {
        &self.cache
    }

    /// The redial policy — chaos tests reach through it to sever or
    /// wedge the active link mid-flight.
    pub fn redial(&self) -> &R {
        &self.redial
    }

    /// A terminal failure (handshake refusal), if one happened. Once
    /// set, the client stops dialing; pending requests complete with
    /// the same error.
    pub fn failure(&self) -> Option<&ClientError> {
        self.fatal.as_ref()
    }

    /// Requests submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is in flight and nothing staged.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty() && self.outbox.is_empty()
    }

    fn mint(&mut self, kind: PendingKind, now: Instant) -> u64 {
        self.next_req_id += 1;
        let id = self.next_req_id;
        self.pending.insert(
            id,
            PendingReq {
                kind,
                deadline: now + self.config.request_timeout,
                attempts: 0,
                staged: false,
            },
        );
        id
    }

    /// Submits one query; the answer arrives under the returned
    /// `req_id` after enough [`pump_at`](Self::pump_at) rounds.
    pub fn submit(&mut self, query: Query, now: Instant) -> u64 {
        self.mint(PendingKind::Query(query), now)
    }

    /// Submits an epochs probe: the response revalidates the cache and
    /// completes as [`Response::Epochs`].
    pub fn probe_epochs(&mut self, now: Instant) -> u64 {
        self.mint(PendingKind::Epochs, now)
    }

    /// Cache-aware submit: serves from the epoch-validated cache when
    /// possible, otherwise goes remote (and caches the eventual answer).
    pub fn submit_cached(&mut self, query: Query, now: Instant) -> Cached {
        if let Some(hit) = self.cache.get(&query) {
            self.stats.cache_hits += 1;
            return Cached::Hit(hit.clone());
        }
        Cached::Sent(self.submit(query, now))
    }

    /// Removes and returns one completed request's outcome.
    pub fn take_outcome(&mut self, req_id: u64) -> Option<Outcome> {
        self.done.remove(&req_id)
    }

    /// Drains every completed request, ascending by `req_id`.
    pub fn take_completed(&mut self) -> Vec<(u64, Outcome)> {
        std::mem::take(&mut self.done).into_iter().collect()
    }

    /// One deterministic round at `now`: dial/handshake as needed,
    /// stage and flush unsent requests, apply every complete inbound
    /// frame, and enforce per-request deadlines. Returns bytes moved.
    pub fn pump_at(&mut self, now: Instant) -> usize {
        if self.fatal.is_some() {
            return 0;
        }
        if self.link.is_none() && !self.pending.is_empty() {
            self.try_dial(now);
        }
        let Some(mut link) = self.link.take() else {
            self.check_deadlines(now);
            return 0;
        };
        let mut moved = 0;
        let mut lost = false;

        // Stage unsent requests (pipelined behind the Hello already
        // staged at dial time).
        let ids: Vec<u64> =
            self.pending.iter().filter(|(_, p)| !p.staged).map(|(&id, _)| id).collect();
        for id in ids {
            let p = self.pending.get_mut(&id).expect("id just listed");
            p.staged = true;
            p.attempts += 1;
            p.deadline = now + self.config.request_timeout;
            if p.attempts > 1 {
                self.stats.retransmits += 1;
            }
            let frame = match &p.kind {
                PendingKind::Query(q) => NetFrame::QueryReq { req_id: id, body: q.encode() },
                PendingKind::Epochs => NetFrame::EpochsReq { req_id: id },
            };
            let mut buf = BytesMut::new();
            encode(&frame, &mut buf);
            self.outbox.stage(&buf);
        }

        // Flush, then read. A link that fails or closes is lost.
        match pump_out(&mut self.outbox, &mut link) {
            Ok(n) => moved += n,
            Err(_) => lost = true,
        }
        if !lost {
            let decoder = &mut self.decoder;
            let read = pump_in(&mut link, |bytes| {
                decoder.extend(bytes);
                moved += bytes.len();
                Ok::<_, Infallible>(())
            });
            lost = read.is_err();
        }

        // Apply.
        while self.fatal.is_none() {
            match self.decoder.try_next() {
                Ok(Some(frame)) => {
                    if !self.on_frame(frame) {
                        lost = true;
                        break;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    lost = true;
                    break;
                }
            }
        }

        if let Some(fatal) = self.fatal.clone() {
            // Refused: complete everything with the terminal error.
            let ids: Vec<u64> = self.pending.keys().copied().collect();
            for id in ids {
                self.pending.remove(&id);
                self.done.insert(id, Err(fatal.clone()));
            }
            return moved;
        }

        if lost {
            self.on_disconnect(now);
        } else {
            self.link = Some(link);
        }
        self.check_deadlines(now);
        moved
    }

    /// Applies one inbound frame. Returns `false` when the connection
    /// must drop (protocol violation).
    fn on_frame(&mut self, frame: NetFrame) -> bool {
        match frame {
            NetFrame::HelloAck { version, token: 0, .. } => {
                self.fatal = Some(ClientError::Refused { server_version: version });
            }
            NetFrame::HelloAck { token, .. } => {
                self.token = token;
                self.stats.established += 1;
            }
            NetFrame::QueryResp { req_id, body } => {
                let Some(p) = self.pending.remove(&req_id) else {
                    self.stats.dup_drops += 1;
                    return true;
                };
                let outcome = match QueryResult::decode(&body) {
                    Ok(result) => {
                        if let PendingKind::Query(q) = &p.kind {
                            self.cache.insert(q, result.clone());
                        }
                        Ok(Response::Result(result))
                    }
                    Err(e) => Err(ClientError::Wire(e)),
                };
                self.done.insert(req_id, outcome);
            }
            NetFrame::EpochsResp { req_id, epochs } => {
                if self.pending.remove(&req_id).is_none() {
                    self.stats.dup_drops += 1;
                    return true;
                }
                self.stats.cache_invalidations += self.cache.revalidate(&epochs) as u64;
                self.done.insert(req_id, Ok(Response::Epochs(epochs)));
            }
            NetFrame::Heartbeat { .. } => {}
            // Batch/Ack/Fin/Hello/QueryReq/EpochsReq have no
            // business arriving at a query client.
            _ => return false,
        }
        true
    }

    fn try_dial(&mut self, now: Instant) {
        if self.next_dial_at.is_some_and(|t| now < t) {
            return;
        }
        self.stats.dials += 1;
        match self.redial.redial() {
            Ok(link) => {
                self.link = Some(link);
                self.next_dial_at = None;
                self.backoff = self.config.redial_initial;
                self.decoder.reset();
                self.outbox.clear();
                let mut buf = BytesMut::new();
                encode(&NetFrame::Hello { version: PROTOCOL_VERSION, token: self.token }, &mut buf);
                self.outbox.stage(&buf);
                // Everything unanswered goes out again on this link.
                for p in self.pending.values_mut() {
                    p.staged = false;
                }
            }
            Err(_) => {
                self.next_dial_at = Some(now + self.backoff);
                self.backoff = (self.backoff * 2).min(self.config.redial_cap);
            }
        }
    }

    fn on_disconnect(&mut self, now: Instant) {
        self.link = None;
        self.decoder.reset();
        self.outbox.clear();
        // Nothing pending is on a wire anymore.
        for p in self.pending.values_mut() {
            p.staged = false;
        }
        // Dial again immediately on the next pump (backoff applies only
        // to *failed* dial attempts).
        self.next_dial_at = Some(now);
    }

    /// Times out or re-issues requests whose deadline lapsed. A lapsed
    /// deadline with attempts to spare means the link is suspect
    /// (wedged or lossy): drop it so the next pump redials and
    /// re-issues everything — reads are idempotent, so re-asking is
    /// always safe.
    fn check_deadlines(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.attempts > 0 && now >= p.deadline)
            .map(|(&id, _)| id)
            .collect();
        if expired.is_empty() {
            return;
        }
        let mut suspect = false;
        for id in expired {
            let p = self.pending.get_mut(&id).expect("id just listed");
            if p.attempts >= self.config.max_attempts {
                let attempts = p.attempts;
                self.pending.remove(&id);
                self.done.insert(id, Err(ClientError::Timeout { attempts }));
                self.stats.timeouts += 1;
            } else if p.staged {
                suspect = true;
            } else {
                // Unreachable server (dials failing): each elapsed
                // deadline burns one attempt so the request still
                // converges on a typed timeout.
                p.attempts += 1;
                p.deadline = now + self.config.request_timeout;
            }
        }
        if suspect && self.link.is_some() {
            self.on_disconnect(now);
        }
    }
}
