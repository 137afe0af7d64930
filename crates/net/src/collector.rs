//! The many-connection collector: N inbound links, one shared store.
//!
//! This is the base-station half of the paper's deployment picture —
//! many sensors compress at the edge ([`MuxSender`](crate::MuxSender)
//! over whatever uplink they have), one collector reconstructs
//! everything with the precision guarantee intact. Duvignau et al.
//! (arXiv:1808.08877) evaluate exactly this many-producer streaming-PLA
//! topology; the collector turns PR 4's point-to-point demo into it:
//!
//! * an [`Acceptor`] yields inbound [`Link`]s (a TCP listener in
//!   production, a [`MemoryAcceptor`](crate::listen::MemoryAcceptor)
//!   for deterministic tests);
//! * every connection gets its **own** [`NetReceiver`] — its own frame
//!   decoder, demultiplexer, session seq and credit window, so one slow
//!   or replaying sender cannot corrupt another's reconstruction;
//! * every reconstructed segment is published, in per-stream order, to
//!   one shared [`SegmentStore`] as `(ConnId, StreamId, Segment)` —
//!   each connection's receiver buffers a pump round's segments in
//!   arrival order, and the publish step empties that buffer;
//!   queries read cheap O(streams) store snapshots (per-shard
//!   consistent, `Arc`-shared sealed runs) while ingest continues.
//!
//! The collector is a sans-I/O-style state machine like the endpoints
//! it hosts: [`pump_at`](Collector::pump_at) does one non-blocking
//! round at an explicit instant (tests drive it deterministically on a
//! synthetic clock, interleaving and severing however they like), and
//! production calls [`pump`](Collector::pump) in a plain loop that
//! sleeps about 1 ms after a round that moved nothing. That loop never
//! waits on readiness: a silently wedged fd never becomes readable, so
//! only a timed re-pump lets the liveness deadline fire.
//!
//! Reconnect: every connection opens with a session `Hello`
//! ([`session`](crate::session)) and is issued a token. A dead or
//! silent link *detaches* its connection (state retained) rather than
//! destroying it; when the sender redials and presents its token, the
//! collector rebinds the same [`ConnId`] by itself and answers with its
//! resume point — the receiver re-announces its cumulative ack and
//! credit grant, the sender resends its unacked frames, replayed entries
//! are dropped by session seq — so the store ends up byte-identical to
//! an uninterrupted run.
//!
//! Metrics: the collector keeps only counter handles. Its
//! [`registry`](Collector::registry) is a view built on each call: the
//! totals, which count over its lifetime (evicted connections
//! included), gauges read off its state at that moment, one set of
//! `pla_conn_*{conn}` series per connection it still tracks, and the
//! latest refusal's reason. Data path handles move at most once per
//! connection per pump round, and [`stats`](Collector::stats) reads
//! them.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

use pla_core::Segment;
use pla_ingest::{SegmentStore, StreamId};
use pla_metrics::Registry;
use pla_transport::wire::Codec;

use crate::driver::{pump_in, pump_out, pump_receiver_split, DriveError};
use crate::frame::{FrameDecoder, NetFrame, Outbox};
use crate::link::Link;
use crate::listen::Acceptor;
use crate::receiver::{NetReceiver, ReceiverStats};
use crate::session::{splitmix64, HandshakeError, SessionConfig};
use crate::{NetConfig, NetError};

/// Identity of one accepted connection, assigned in accept order
/// (starting at 1). Doubles as the [`SegmentStore`] source id for the
/// connection's watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u64);

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

/// A fatal collector failure: one connection's byte stream violated the
/// protocol (reconnecting cannot help; I/O failures are *not* errors —
/// they detach the connection until its sender resumes by token).
#[derive(Debug)]
pub struct CollectorError {
    /// The connection whose stream failed.
    pub conn: ConnId,
    /// The protocol violation.
    pub error: NetError,
}

impl std::fmt::Display for CollectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.conn, self.error)
    }
}

impl std::error::Error for CollectorError {}

/// Point-in-time counters for one connection, surfaced per connection
/// so shed load stays observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnStats {
    /// The connection.
    pub conn: ConnId,
    /// Whether a link is currently attached (false = detached, awaiting
    /// reconnect).
    pub attached: bool,
    /// The session token bound to this connection (never 0 — 0 on the
    /// wire means "refused").
    pub token: u64,
    /// The connection's receiving-endpoint counters (entries applied,
    /// duplicate replays dropped, control frames staged after
    /// batching).
    pub receiver: ReceiverStats,
    /// Segments published to the shared store.
    pub published: u64,
    /// Pump rounds that could not fully flush staged control bytes to
    /// the link — the peer (or the pipe) is slow draining our acks,
    /// i.e. backpressure against the collector itself.
    pub backpressure: u64,
    /// Bytes moved over the link (read + written) across the
    /// connection's lifetime, including across resumes.
    pub bytes_moved: u64,
    /// Times this connection's sender presented its token on a fresh
    /// link and was rebound — the collector-side view of the peer's
    /// redial attempts.
    pub resumes: u64,
    /// The protocol violation that quarantined this connection, if any.
    pub failed: Option<NetError>,
    /// Per-stream `(stream, entries applied)` — each stream's share of
    /// what this connection's demux has durably applied. (The wire acks
    /// one session seq; this is the per-stream view of it.)
    pub ack_points: Vec<(u64, u64)>,
}

/// Aggregate counters across the collector, `IngestReport`-style
/// (`pla_ingest::IngestReport`): totals first, per-connection detail
/// attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectorStats {
    /// Connections bound and not yet evicted (quarantined and detached
    /// ones included).
    pub connections: usize,
    /// Connections currently holding a live link.
    pub attached: usize,
    /// Sequenced entries applied across all connections.
    pub frames: u64,
    /// Duplicate entries dropped across all connections (replays after
    /// reconnect — shed load).
    pub dup_drops: u64,
    /// Segments published to the shared store.
    pub segments: u64,
    /// Total backpressured pump rounds (see [`ConnStats::backpressure`]).
    pub backpressure: u64,
    /// Connections quarantined by a protocol violation.
    pub failed: usize,
    /// Handshakes refused (version mismatch, garbage first frame,
    /// unknown/quarantined token, handshake timeout). A refusal touches
    /// no bound connection.
    pub refused: u64,
    /// Detached sessions evicted after their TTL lapsed.
    pub evicted: u64,
    /// Heartbeat frames received across all connections — the echoed
    /// side of the session liveness protocol (senders count the sent
    /// side in `SessionStats::heartbeats_sent`).
    pub heartbeats: u64,
    /// Token resumes across all connections — see
    /// [`ConnStats::resumes`].
    pub resumes: u64,
    /// Segments shed by per-stream quarantine
    /// ([`Collector::quarantine_stream`]) instead of published.
    pub shed_segments: u64,
    /// Streams currently quarantined, ascending.
    pub quarantined_streams: Vec<u64>,
    /// Human-readable reason of the most recent handshake refusal, if
    /// any (refused links never get a `ConnId` to hang a failure on).
    pub last_refusal: Option<String>,
    /// Per-connection detail, in accept order.
    pub conns: Vec<ConnStats>,
}

pla_metrics::series! {
    /// The collector-wide counters (see the [module docs](self)).
    struct CollectorSeries {
        frames: counter("pla_collector_frames_total",
            "Sequenced entries applied across all connections."),
        dup_drops: counter("pla_collector_dup_drops_total",
            "Duplicate frames dropped (replays after reconnect)."),
        segments: counter("pla_collector_segments_total", "Segments published to the shared store."),
        backpressure: counter("pla_collector_backpressure_total",
            "Pump rounds that could not fully flush staged control bytes."),
        refused: counter("pla_collector_refused_total",
            "Handshakes refused (version mismatch, garbage, unknown token, timeout)."),
        evicted: counter("pla_collector_evicted_total",
            "Detached sessions evicted after their TTL lapsed."),
        shed_segments: counter("pla_collector_shed_segments_total",
            "Segments shed by per-stream quarantine instead of published."),
        heartbeats: counter("pla_session_heartbeats_echoed_total",
            "Heartbeat frames received (and echoed) across all connections."),
        resumes: counter("pla_session_resumes_total",
            "Session-token resumes: a redialed link rebound to its existing connection."),
    }
}

pla_metrics::series! {
    /// One connection's counters, labeled `conn="<id>"`.
    struct ConnSeries {
        published: counter("pla_conn_published_total",
            "Segments published to the store, per connection."),
        bytes_moved: counter("pla_conn_bytes_moved_total",
            "Bytes moved over the link (read + written), per connection."),
        frames: counter("pla_conn_frames_total", "Sequenced entries applied, per connection."),
        resumes: counter("pla_conn_resumes_total", "Session-token resumes, per connection."),
    }
}

pla_metrics::series! {
    /// The collector's state as gauges, set when a view is built.
    struct CollectorGauges {
        connections: gauge("pla_collector_connections", "Connections accepted and still tracked."),
        attached: gauge("pla_collector_attached", "Connections currently holding a live link."),
        failed: gauge("pla_collector_failed", "Connections quarantined by a protocol violation."),
        quarantined_streams: gauge("pla_collector_quarantined_streams",
            "Streams currently under admin quarantine."),
    }
}

pla_metrics::series! {
    /// One connection's state as a gauge, set when a view is built.
    struct ConnGauges {
        attached: gauge("pla_conn_attached", "Whether the connection currently holds a live link."),
    }
}

impl CollectorSeries {
    /// Adds what `c`'s receiver applied since it counted `before` to
    /// the collector's and the connection's series.
    fn count_applied<C: Codec, L: Link>(&self, c: &Connection<C, L>, before: [u64; 3]) {
        let [frames, dup_drops, heartbeats] = c.rx.counts();
        if frames > before[0] {
            self.frames.add(frames - before[0]);
            c.series.frames.add(frames - before[0]);
        }
        if dup_drops > before[1] {
            self.dup_drops.add(dup_drops - before[1]);
        }
        if heartbeats > before[2] {
            self.heartbeats.add(heartbeats - before[2]);
        }
    }
}

/// Per-connection state: the receiver plus publish bookkeeping.
struct Connection<C: Codec, L: Link> {
    rx: NetReceiver<C>,
    /// `None` while detached (link died; awaiting a token resume).
    link: Option<L>,
    /// Set when this connection's byte stream violated the protocol:
    /// the connection is quarantined (link dropped, resume refused) but
    /// every other connection keeps running — the collector-level
    /// analogue of `pla-ingest`'s per-stream quarantine.
    failed: Option<NetError>,
    /// The session token bound to this connection.
    token: u64,
    /// When inbound bytes last arrived — the liveness clock.
    last_recv: Instant,
    /// When the connection detached, for session-TTL eviction.
    detached_at: Option<Instant>,
    backpressure: u64,
    series: ConnSeries,
}

/// An accepted link that has not yet completed the session handshake:
/// it has no `ConnId` and no receiver until a valid `Hello` arrives.
struct Pending<L: Link> {
    link: L,
    dec: FrameDecoder,
    since: Instant,
}

/// The many-connection collector. See the [module docs](self) for the
/// model and the driving loop.
///
/// ```
/// use pla_ingest::SegmentStore;
/// use pla_net::listen::MemoryAcceptor;
/// use pla_net::{Collector, MemoryRedial, NetConfig, SessionConfig, SessionSender};
/// use pla_transport::wire::FixedCodec;
/// use std::sync::Arc;
/// use std::time::Instant;
///
/// let store = Arc::new(SegmentStore::new());
/// let acceptor = MemoryAcceptor::new();
/// let connector = acceptor.connector();
/// let (cfg, sess) = (NetConfig::default(), SessionConfig::default());
/// let mut collector = Collector::with_sessions(FixedCodec, 1, cfg, sess, acceptor, store.clone());
///
/// // Two edge senders, each with its own stream.
/// let now = Instant::now();
/// let mut senders = Vec::new();
/// for id in 0..2u64 {
///     let redial = MemoryRedial::new(connector.clone(), 4096);
///     let mut tx = SessionSender::new(FixedCodec, 1, cfg, sess, redial, now);
///     tx.mux_mut()
///         .try_send_segment(
///             id,
///             &pla_core::Segment {
///                 t_start: 0.0,
///                 x_start: [1.0].into(),
///                 t_end: 4.0,
///                 x_end: [5.0].into(),
///                 connected: false,
///                 n_points: 5,
///                 new_recordings: 2,
///             },
///         )
///         .unwrap();
///     tx.mux_mut().finish_all();
///     senders.push(tx);
/// }
/// // Senders dial and write `Hello` plus their data, the collector
/// // binds each session and applies it, `HelloAck` and acks flow back.
/// for tx in &mut senders {
///     tx.pump_at(now);
/// }
/// collector.pump_at(now).unwrap();
/// for tx in &mut senders {
///     tx.pump_at(now);
/// }
/// assert!(senders.iter().all(|tx| tx.is_established() && tx.mux().all_acked()));
/// let snap = store.snapshot();
/// assert_eq!(snap.streams.len(), 2);
/// assert_eq!(snap.total_segments, 2);
/// assert_eq!(collector.stats().connections, 2);
/// ```
pub struct Collector<C: Codec + Clone, A: Acceptor> {
    codec: C,
    dims: usize,
    config: NetConfig,
    acceptor: A,
    store: Arc<SegmentStore>,
    conns: BTreeMap<u64, Connection<C, A::Link>>,
    next_conn: u64,
    /// Handshake, liveness, and TTL-eviction timing.
    session: SessionConfig,
    /// Accepted links mid-handshake.
    pending: Vec<Pending<A::Link>>,
    /// Issued session tokens → connection ids.
    tokens: BTreeMap<u64, u64>,
    token_ctr: u64,
    /// The most recent handshake refusal, for observability (refused
    /// links have no `ConnId` to hang a failure on).
    last_refusal: Option<NetError>,
    /// Streams under admin quarantine: their segments are shed at the
    /// publish seam instead of appended to the store, isolating a bad
    /// stream without touching its connection (the per-stream analogue
    /// of connection quarantine, mirroring `pla-ingest`'s).
    quarantined_streams: std::collections::BTreeSet<u64>,
    /// Recycled publish buffer: one stream's run of segments on its way
    /// into the store.
    publish_batch: Vec<Segment>,
    series: CollectorSeries,
}

impl<C: Codec + Clone, A: Acceptor> Collector<C, A> {
    /// Creates a collector for `dims`-dimensional streams. Every
    /// connection must open with a versioned `Hello`, gets a
    /// server-issued session token in its `HelloAck`, and resumes by
    /// presenting that token on a fresh link. A link silent past
    /// `session.liveness_timeout` is detached; a detached session
    /// unclaimed past `session.session_ttl` is evicted. Every bound
    /// connection gets a receiver cloned from `codec` and `config` — as
    /// always, `config.window` must match what the senders were built
    /// with. Drive with [`pump_at`](Self::pump_at) (tests) or
    /// [`pump`](Self::pump) (production clock).
    pub fn with_sessions(
        codec: C,
        dims: usize,
        config: NetConfig,
        session: SessionConfig,
        acceptor: A,
        store: Arc<SegmentStore>,
    ) -> Self {
        Self {
            codec,
            dims,
            config,
            acceptor,
            store,
            conns: BTreeMap::new(),
            next_conn: 1,
            session,
            pending: Vec::new(),
            tokens: BTreeMap::new(),
            token_ctr: 0,
            last_refusal: None,
            quarantined_streams: std::collections::BTreeSet::new(),
            publish_batch: Vec::new(),
            series: CollectorSeries::new(),
        }
    }

    /// The shared store this collector publishes into.
    pub fn store(&self) -> &Arc<SegmentStore> {
        &self.store
    }

    /// The collector's metric series, built from its handles and state
    /// on each call (see the [module docs](self)): the counters stay
    /// live, the gauges hold the state at the call.
    pub fn registry(&self) -> Registry {
        let mut registry = Registry::new();
        self.series.add_to(&mut registry, &[]);
        let (attached, failed) = self.attached_and_failed();
        let gauges = CollectorGauges::new();
        gauges.connections.set(self.conns.len() as f64);
        gauges.attached.set(attached as f64);
        gauges.failed.set(failed as f64);
        gauges.quarantined_streams.set(self.quarantined_streams.len() as f64);
        gauges.add_to(&mut registry, &[]);
        ConnSeries::declare(&mut registry);
        ConnGauges::declare(&mut registry);
        for (id, c) in &self.conns {
            let labels = [("conn", &*id.to_string())];
            c.series.add_to(&mut registry, &labels);
            let gauges = ConnGauges::new();
            gauges.attached.set(f64::from(u8::from(c.link.is_some())));
            gauges.add_to(&mut registry, &labels);
        }
        if let Some(refusal) = &self.last_refusal {
            let help = "Most recent handshake refusal; the reason rides the label.";
            let labels = [("reason", &*refusal.to_string())];
            registry.gauge_with("pla_collector_last_refusal_info", help, &labels).set(1.0);
        }
        registry
    }

    /// Connections holding a live link, and connections quarantined by
    /// a protocol violation.
    fn attached_and_failed(&self) -> (usize, usize) {
        let attached = self.conns.values().filter(|c| c.link.is_some()).count();
        let failed = self.conns.values().filter(|c| c.failed.is_some()).count();
        (attached, failed)
    }

    /// Materializes a connection around a link whose `Hello` was just
    /// accepted with a freshly issued `token`.
    fn adopt(&mut self, link: A::Link, token: u64, now: Instant) -> u64 {
        let id = self.next_conn;
        self.next_conn += 1;
        let c = Connection {
            rx: NetReceiver::new(self.codec.clone(), self.dims, self.config),
            link: Some(link),
            failed: None,
            token,
            last_recv: now,
            detached_at: None,
            backpressure: 0,
            series: ConnSeries::new(),
        };
        self.conns.insert(id, c);
        id
    }

    /// One non-blocking round for one connection: absorb inbound
    /// frames, flush the round's batched acks, write them back, and
    /// publish newly reconstructed segments to the store. Returns bytes
    /// moved.
    ///
    /// An I/O failure or the peer closing the link **detaches** the
    /// connection (its reconstruction state is retained for a token
    /// resume) and counts as no progress.
    /// A protocol violation **quarantines** the connection — link
    /// dropped, resume refused, failure recorded in
    /// [`ConnStats::failed`] — and is returned once to the caller;
    /// every *other* connection is unaffected.
    pub fn pump_conn(&mut self, conn: ConnId) -> Result<usize, CollectorError> {
        self.pump_conn_at(conn, Instant::now())
    }

    /// [`pump_conn`](Self::pump_conn) with an explicit clock — the form
    /// deterministic tests drive. `now` feeds the liveness deadline: a
    /// link that produced no inbound bytes for `liveness_timeout` is
    /// shut down and the connection detached, its state retained for a
    /// token resume.
    pub fn pump_conn_at(&mut self, conn: ConnId, now: Instant) -> Result<usize, CollectorError> {
        let Some(c) = self.conns.get_mut(&conn.0) else { return Ok(0) };
        if c.failed.is_some() {
            return Ok(0);
        }
        let Some(link) = c.link.as_mut() else { return Ok(0) };
        let before = c.rx.counts();
        let round = pump_receiver_split(&mut c.rx, link);
        self.series.count_applied(c, before);
        match round {
            Ok((read, written)) => {
                if read > 0 {
                    c.last_recv = now;
                } else if now.duration_since(c.last_recv) >= self.session.liveness_timeout {
                    // Only *arriving* bytes prove the peer alive — our own
                    // writes may be vanishing into a wedged pipe.
                    if let Some(mut dead) = c.link.take() {
                        dead.shutdown();
                    }
                    c.detached_at = Some(now);
                    self.publish_conn(conn.0);
                    return Ok(written);
                }
                let moved = read + written;
                if moved == 0 {
                    return Ok(0);
                }
                if c.rx.staged_bytes() > 0 {
                    c.backpressure += 1;
                    self.series.backpressure.inc();
                }
                c.series.bytes_moved.add(moved as u64);
                self.publish_conn(conn.0);
                Ok(moved)
            }
            Err(DriveError::Io(_) | DriveError::Closed) => {
                c.link = None;
                c.detached_at = Some(now);
                // Frames applied before the link died may have produced
                // segments; publish them before going quiet.
                self.publish_conn(conn.0);
                Ok(0)
            }
            Err(DriveError::Net(error)) => {
                c.link = None;
                c.failed = Some(error.clone());
                self.publish_conn(conn.0);
                Err(CollectorError { conn, error })
            }
        }
    }

    /// Publishes `conn`'s newly reconstructed segments (a `Fin`'s
    /// trailing hold included) to the store, in one walk over the
    /// receiver's buffer. Each run of one stream's segments is checked
    /// against the quarantine set once, then shed or appended as one
    /// batch. The segments are *moved*: the connection keeps no copy of
    /// what it has published.
    fn publish_conn(&mut self, conn: u64) {
        let Some(c) = self.conns.get_mut(&conn) else { return };
        let batch = &mut self.publish_batch;
        let mut segments = c.rx.take_segments().peekable();
        while let Some((stream, first)) = segments.next() {
            batch.push(first);
            while let Some((_, seg)) = segments.next_if(|(s, _)| *s == stream) {
                batch.push(seg);
            }
            let n = batch.len() as u64;
            if self.quarantined_streams.contains(&stream) {
                // Shed instead of publish: a later release resumes from
                // live data, it does not backfill the quarantined span.
                self.series.shed_segments.add(n);
                batch.clear();
            } else {
                c.series.published.add(n);
                self.series.segments.add(n);
                self.store.append_batch(conn, StreamId(stream), batch);
            }
        }
    }

    /// Issues a fresh session token: unique among live sessions and
    /// nonzero (0 on the wire means "refused"). splitmix64 over the
    /// configured seed — identity, not authentication.
    fn issue_token(&mut self, seed: u64) -> u64 {
        loop {
            self.token_ctr += 1;
            let mut s = seed ^ self.token_ctr;
            splitmix64(&mut s);
            let token = if s == 0 { 1 } else { s };
            if !self.tokens.contains_key(&token) {
                return token;
            }
        }
    }

    /// Refuses a mid-handshake link: best-effort `HelloAck` with token 0
    /// (so the peer gets a *typed* refusal instead of a timeout), then
    /// the link is dropped — not shut down, which on in-memory pipes
    /// would destroy the refusal before the peer reads it. Only this
    /// link is touched — every bound connection keeps running.
    fn refuse(&mut self, link: &mut A::Link, version: u16, err: HandshakeError) {
        let mut out = Outbox::default();
        out.stage_frame(&NetFrame::HelloAck { version, token: 0, through: 0, granted_total: 0 });
        let _ = pump_out(&mut out, link);
        self.record_refusal(err);
    }

    /// Counts a refused handshake and keeps it as the latest.
    fn record_refusal(&mut self, err: HandshakeError) {
        self.series.refused.inc();
        self.last_refusal = Some(NetError::Handshake(err));
    }

    /// Feeds bytes that arrived in the same read as the `Hello` (the
    /// sender's 0-RTT replay) to the freshly bound connection.
    ///
    /// If those bytes violate the protocol the connection is quarantined,
    /// but only after its staged `HelloAck` is written (best effort): a
    /// sender that learns its token redials with it and is refused as
    /// [`Quarantined`](HandshakeError::Quarantined), a typed terminal
    /// failure, instead of redialing as a stranger and minting a fresh
    /// quarantined connection every time. As in
    /// [`refuse`](Self::refuse), the link is dropped, not shut down.
    /// Either way the segments of the entries applied before any
    /// violation are published, as [`pump_conn_at`](Self::pump_conn_at)
    /// publishes them.
    fn feed_adopted(&mut self, id: u64, leftover: &[u8], now: Instant) {
        if leftover.is_empty() {
            return;
        }
        let Some(c) = self.conns.get_mut(&id) else { return };
        let before = c.rx.counts();
        let fed = c.rx.on_bytes(leftover);
        self.series.count_applied(c, before);
        match fed {
            Ok(()) => {
                c.last_recv = now;
                c.series.bytes_moved.add(leftover.len() as u64);
            }
            Err(error) => {
                if let Some(mut dead) = c.link.take() {
                    let _ = pump_out(c.rx.outbox(), &mut dead);
                }
                c.failed = Some(error);
            }
        }
        self.publish_conn(id);
    }

    /// Accepts every waiting link and advances every mid-handshake link
    /// at the given instant: reads, decodes the first frame, and either
    /// binds a connection (fresh token or resume), refuses the link, or
    /// keeps waiting until the handshake deadline. Also evicts detached
    /// sessions whose TTL lapsed.
    pub fn pump_sessions(&mut self, now: Instant) {
        let sess = self.session;
        self.evict_expired(now, sess.session_ttl);
        // An accept error means the listener died; existing connections
        // keep running — a deployment would rebind and swap the acceptor.
        while let Ok(Some(link)) = self.acceptor.try_accept() {
            let dec = FrameDecoder::new(self.config.max_frame);
            self.pending.push(Pending { link, dec, since: now });
        }
        let mut keep = Vec::new();
        for mut p in std::mem::take(&mut self.pending) {
            let read = pump_in(&mut p.link, |bytes| {
                p.dec.extend(bytes);
                Ok::<_, Infallible>(())
            });
            if read.is_err() {
                // Died before identifying itself: nothing to retain.
                continue;
            }
            match p.dec.try_next() {
                Ok(None) => {
                    if now.duration_since(p.since) >= sess.handshake_timeout {
                        self.record_refusal(HandshakeError::Timeout);
                        p.link.shutdown();
                    } else {
                        keep.push(p);
                    }
                }
                Err(e) => {
                    self.refuse(&mut p.link, sess.version, HandshakeError::Garbage(e));
                }
                Ok(Some(NetFrame::Hello { version, token })) => {
                    if version != sess.version {
                        self.refuse(
                            &mut p.link,
                            sess.version,
                            HandshakeError::VersionMismatch { ours: sess.version, theirs: version },
                        );
                        continue;
                    }
                    let leftover = p.dec.take_remaining();
                    if token == 0 {
                        let token = self.issue_token(sess.token_seed);
                        let id = self.adopt(p.link, token, now);
                        self.tokens.insert(token, id);
                        let ack = NetFrame::HelloAck {
                            version: sess.version,
                            token,
                            through: 0,
                            granted_total: 0,
                        };
                        let c = self.conns.get_mut(&id).expect("just adopted");
                        c.rx.outbox().stage_frame(&ack);
                        self.feed_adopted(id, &leftover, now);
                    } else {
                        match self.tokens.get(&token).copied() {
                            Some(id) if self.conns[&id].failed.is_some() => {
                                self.refuse(
                                    &mut p.link,
                                    sess.version,
                                    HandshakeError::Quarantined(token),
                                );
                            }
                            Some(id) => {
                                let c = self.conns.get_mut(&id).expect("token maps to a conn");
                                if let Some(mut old) = c.link.replace(p.link) {
                                    old.shutdown();
                                }
                                c.rx.reset_link();
                                let (through, granted_total) = c.rx.resume_point();
                                let ack = NetFrame::HelloAck {
                                    version: sess.version,
                                    token,
                                    through,
                                    granted_total,
                                };
                                c.rx.outbox().stage_frame(&ack);
                                c.detached_at = None;
                                c.last_recv = now;
                                c.series.resumes.inc();
                                self.series.resumes.inc();
                                self.feed_adopted(id, &leftover, now);
                            }
                            None => {
                                self.refuse(
                                    &mut p.link,
                                    sess.version,
                                    HandshakeError::UnknownToken(token),
                                );
                            }
                        }
                    }
                }
                Ok(Some(other)) => {
                    self.refuse(
                        &mut p.link,
                        sess.version,
                        HandshakeError::NotHello(frame_name(&other)),
                    );
                }
            }
        }
        self.pending = keep;
    }

    /// Evicts detached sessions whose TTL lapsed: connection state and
    /// token are dropped; a later resume with that token is refused as
    /// [`HandshakeError::UnknownToken`].
    fn evict_expired(&mut self, now: Instant, ttl: std::time::Duration) {
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.detached_at.is_some_and(|at| now.duration_since(at) >= ttl))
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            if let Some(c) = self.conns.remove(&id) {
                self.tokens.remove(&c.token);
                self.series.evicted.inc();
            }
        }
    }

    /// One non-blocking round over the whole collector: accept and
    /// handshake new links, pump every attached connection. Returns
    /// total bytes moved.
    pub fn pump(&mut self) -> Result<usize, CollectorError> {
        self.pump_at(Instant::now())
    }

    /// [`pump`](Self::pump) with an explicit clock — the form
    /// deterministic tests drive. `now` drives the handshake, liveness,
    /// and TTL deadlines.
    pub fn pump_at(&mut self, now: Instant) -> Result<usize, CollectorError> {
        self.pump_sessions(now);
        let mut moved = 0;
        let mut first_failure = None;
        // Walks the ids in place, so an idle round allocates nothing:
        // each step finds the first connection past the last one pumped.
        let mut next = 0;
        while let Some(id) = self.conns.range(next..).next().map(|(&id, _)| id) {
            next = id + 1;
            match self.pump_conn_at(ConnId(id), now) {
                Ok(n) => moved += n,
                // Quarantine already happened; keep pumping the others
                // and report the first failure once at the end.
                Err(e) => {
                    first_failure.get_or_insert(e);
                }
            }
        }
        match first_failure {
            Some(e) => Err(e),
            None => Ok(moved),
        }
    }

    /// Administratively detaches `conn`: the link is shut down and
    /// dropped, pending reconstructed segments are published, and the
    /// connection parks as detached — its peer resumes with its token
    /// (TTL permitting). Returns false if the connection is unknown,
    /// quarantined, or already detached.
    pub fn drain(&mut self, conn: ConnId) -> bool {
        let now = Instant::now();
        match self.conns.get_mut(&conn.0) {
            Some(c) if c.failed.is_none() && c.link.is_some() => {
                if let Some(mut dead) = c.link.take() {
                    dead.shutdown();
                }
                c.detached_at = Some(now);
                self.publish_conn(conn.0);
                true
            }
            _ => false,
        }
    }

    /// Quarantines `stream` across every connection: from now on its
    /// reconstructed segments are shed at the publish seam instead of
    /// appended to the store. Already-published segments stay. Every
    /// other stream is untouched. Returns false if already quarantined.
    pub fn quarantine_stream(&mut self, stream: u64) -> bool {
        self.quarantined_streams.insert(stream)
    }

    /// Lifts a [`quarantine_stream`](Self::quarantine_stream): publishing
    /// resumes with segments reconstructed *after* the release (the
    /// quarantined span is shed, not backfilled). Returns false if the
    /// stream was not quarantined.
    pub fn release_stream(&mut self, stream: u64) -> bool {
        self.quarantined_streams.remove(&stream)
    }

    /// Whether `stream` is currently quarantined.
    pub fn stream_quarantined(&self, stream: u64) -> bool {
        self.quarantined_streams.contains(&stream)
    }

    /// Streams currently quarantined, ascending.
    pub fn quarantined_streams(&self) -> Vec<u64> {
        self.quarantined_streams.iter().copied().collect()
    }

    /// Ids of connections whose link died and await a token resume,
    /// ascending (quarantined connections cannot resume and are not
    /// listed).
    pub fn detached(&self) -> Vec<ConnId> {
        self.conns
            .iter()
            .filter(|(_, c)| c.link.is_none() && c.failed.is_none())
            .map(|(&id, _)| ConnId(id))
            .collect()
    }

    /// Whether `conn`'s sender has finished every stream it opened and
    /// nothing remains staged — the connection's session is complete.
    pub fn conn_complete(&self, conn: ConnId) -> bool {
        self.conns.get(&conn.0).is_some_and(|c| {
            let streams = c.rx.demux().streams().count();
            streams > 0
                && c.rx.finished_streams().count() == streams
                && c.rx.staged_bytes() == 0
                && !c.rx.control_dirty()
        })
    }

    /// The first quarantined connection's failure, if any — a protocol
    /// violation poisons only its own connection, so the driving loop's
    /// done check (or a post-run check) decides whether one bad sensor
    /// aborts the collection round or merely gets reported.
    pub fn failure(&self) -> Option<CollectorError> {
        self.conns.iter().find_map(|(&id, c)| {
            c.failed.clone().map(|error| CollectorError { conn: ConnId(id), error })
        })
    }

    /// Counters for one connection.
    pub fn conn_stats(&self, conn: ConnId) -> Option<ConnStats> {
        self.conns.get(&conn.0).map(|c| ConnStats {
            conn,
            attached: c.link.is_some(),
            token: c.token,
            receiver: c.rx.stats(),
            published: c.series.published.get(),
            backpressure: c.backpressure,
            bytes_moved: c.series.bytes_moved.get(),
            resumes: c.series.resumes.get(),
            failed: c.failed.clone(),
            ack_points: c
                .rx
                .demux()
                .streams()
                .map(|s| (s, c.rx.demux().entries_applied(s)))
                .collect(),
        })
    }

    /// Aggregate counters plus per-connection detail. The totals count
    /// over the collector's lifetime, evicted connections included.
    pub fn stats(&self) -> CollectorStats {
        let s = &self.series;
        let (attached, failed) = self.attached_and_failed();
        CollectorStats {
            connections: self.conns.len(),
            attached,
            frames: s.frames.get(),
            dup_drops: s.dup_drops.get(),
            segments: s.segments.get(),
            backpressure: s.backpressure.get(),
            failed,
            refused: s.refused.get(),
            evicted: s.evicted.get(),
            heartbeats: s.heartbeats.get(),
            resumes: s.resumes.get(),
            shed_segments: s.shed_segments.get(),
            quarantined_streams: self.quarantined_streams(),
            last_refusal: self.last_refusal.as_ref().map(|e| e.to_string()),
            conns: self.conns.keys().filter_map(|&id| self.conn_stats(ConnId(id))).collect(),
        }
    }

    /// The most recent handshake refusal, if any — refused links never
    /// get a `ConnId`, so their typed failure is surfaced here.
    pub fn last_refusal(&self) -> Option<&NetError> {
        self.last_refusal.as_ref()
    }

    /// Links accepted but still mid-handshake.
    pub fn pending_handshakes(&self) -> usize {
        self.pending.len()
    }
}

/// The wire-level name of a frame, for typed `NotHello` refusals.
fn frame_name(frame: &NetFrame) -> &'static str {
    match frame {
        NetFrame::Batch(_) => "Batch",
        NetFrame::Ack { .. } => "Ack",
        NetFrame::Fin { .. } => "Fin",
        NetFrame::Hello { .. } => "Hello",
        NetFrame::HelloAck { .. } => "HelloAck",
        NetFrame::Heartbeat { .. } => "Heartbeat",
        NetFrame::QueryReq { .. } => "QueryReq",
        NetFrame::QueryResp { .. } => "QueryResp",
        NetFrame::EpochsReq { .. } => "EpochsReq",
        NetFrame::EpochsResp { .. } => "EpochsResp",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PROTOCOL_VERSION;
    use crate::link::MemoryLink;
    use crate::listen::{MemoryAcceptor, MemoryConnector};
    use crate::session::{HandshakeError, MemoryRedial, SessionConfig, SessionSender};
    use crate::MuxSender;
    use pla_core::Segment;
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

    fn make(
        cfg: NetConfig,
        sess: SessionConfig,
    ) -> (Collector<FixedCodec, MemoryAcceptor>, MemoryConnector, Arc<SegmentStore>) {
        let store = Arc::new(SegmentStore::new());
        let acceptor = MemoryAcceptor::new();
        let connector = acceptor.connector();
        (
            Collector::with_sessions(FixedCodec, 1, cfg, sess, acceptor, store.clone()),
            connector,
            store,
        )
    }

    /// The production driving loop: pump on the wall clock until `done`
    /// holds, sleeping 1 ms after a round that moved nothing.
    fn pump_until(
        coll: &mut Collector<FixedCodec, MemoryAcceptor>,
        done: impl Fn(&Collector<FixedCodec, MemoryAcceptor>) -> bool,
    ) {
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while !done(coll) {
            assert!(Instant::now() < deadline, "collector never reached its done condition");
            if coll.pump().expect("collector") == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }

    /// A session sender that dials through `connector` on its first
    /// pump at or after `now`.
    fn sender(
        connector: &MemoryConnector,
        cfg: NetConfig,
        capacity: usize,
        now: Instant,
    ) -> SessionSender<FixedCodec, MemoryRedial> {
        let redial = MemoryRedial::new(connector.clone(), capacity);
        SessionSender::new(FixedCodec, 1, cfg, SessionConfig::default(), redial, now)
    }

    /// Publishing moves: once a pump round has published, the
    /// connection's segment buffer is empty — only the store holds the
    /// segments.
    #[test]
    fn published_segments_move_out_of_the_demux() {
        let cfg = NetConfig::default();
        let (mut coll, connector, store) = make(cfg, SessionConfig::default());
        let t0 = Instant::now();
        let mut tx = sender(&connector, cfg, 1 << 16, t0);
        let mut sent = 0;
        for round in 0..3 {
            // Stream 1 sends every round, stream 2 only in the first.
            for stream in [1u64, 2] {
                if stream == 1 || round == 0 {
                    tx.mux_mut().try_send_segment(stream, &seg(round)).unwrap();
                    sent += 1;
                }
            }
            tx.pump_at(t0);
            coll.pump_at(t0).unwrap();
            tx.pump_at(t0);
            assert_eq!(store.total_segments(), sent);
            let c = &coll.conns[&1];
            assert!(c.rx.demux().buffered().is_empty(), "published ⇒ moved");
            assert!(coll.publish_batch.is_empty(), "the run buffer is emptied too");
        }
        assert!(tx.is_established() && tx.mux().all_acked());
        assert_eq!(store.stream_segments(StreamId(1)).unwrap().len(), 3);
        assert_eq!(store.stream_segments(StreamId(2)).unwrap().len(), 1);
        assert_eq!(coll.stats().segments, 4);
    }

    #[test]
    fn two_connections_funnel_into_one_store() {
        let cfg = NetConfig::default();
        let (mut coll, connector, store) = make(cfg, SessionConfig::default());
        let t0 = Instant::now();
        let mut senders: Vec<SessionSender<FixedCodec, MemoryRedial>> = (0..2u64)
            .map(|c| {
                let mut tx = sender(&connector, cfg, 4096, t0);
                for s in 0..3u64 {
                    let stream = c * 3 + s;
                    for i in 0..4 {
                        tx.mux_mut().try_send_segment(stream, &seg(i)).unwrap();
                    }
                    tx.mux_mut().finish_stream(stream).unwrap();
                }
                tx
            })
            .collect();
        // Both dial before the collector's first round: ConnId follows
        // dial order.
        for tx in &mut senders {
            tx.pump_at(t0);
        }
        let mut stalled = 0;
        while !senders.iter().all(|tx| tx.mux().all_acked()) {
            let mut moved = coll.pump_at(t0).unwrap();
            for tx in &mut senders {
                moved += tx.pump_at(t0);
            }
            stalled = if moved == 0 { stalled + 1 } else { 0 };
            assert!(stalled < 10, "fan-in deadlocked");
        }
        let snap = store.snapshot();
        assert_eq!(snap.streams.len(), 6, "both connections' streams landed");
        assert_eq!(snap.total_segments, 6 * 4);
        for log in snap.streams.values() {
            assert_eq!(log.len(), 4);
        }
        // Watermarks are per connection.
        assert_eq!(snap.sources[&1].segments, 12);
        assert_eq!(snap.sources[&2].segments, 12);
        let stats = coll.stats();
        assert_eq!(stats.connections, 2);
        assert_eq!(stats.segments, 24);
        assert_eq!(stats.frames, 24);
        assert_eq!(stats.dup_drops, 0);
        assert!(coll.conn_complete(ConnId(1)) && coll.conn_complete(ConnId(2)));
        // Every bound connection carries its own nonzero token — the one
        // its sender was issued.
        for (c, tx) in stats.conns.iter().zip(&senders) {
            assert_ne!(c.token, 0, "{}: a bound connection always has a token", c.conn);
            assert_eq!(c.token, tx.token());
        }
        assert_ne!(stats.conns[0].token, stats.conns[1].token);
        // Per-connection ack state is exposed.
        let c1 = coll.conn_stats(ConnId(1)).unwrap();
        assert_eq!(c1.ack_points, vec![(0, 4), (1, 4), (2, 4)]);
    }

    #[test]
    fn protocol_violation_quarantines_only_its_own_connection() {
        let cfg = NetConfig::default();
        let (mut coll, connector, store) = make(cfg, SessionConfig::default());
        let t0 = Instant::now();
        // Conn 1 will turn hostile after its handshake; conn 2 stays
        // healthy.
        let mut bad_link = connector.connect(4096);
        bad_link
            .try_write(&frame_bytes(&NetFrame::Hello { version: PROTOCOL_VERSION, token: 0 }))
            .unwrap();
        let mut good = sender(&connector, cfg, 4096, t0);
        for i in 0..4 {
            good.mux_mut().try_send_segment(7, &seg(i)).unwrap();
        }
        good.mux_mut().finish_stream(7).unwrap();
        good.pump_at(t0);
        coll.pump_at(t0).unwrap();
        assert_eq!(coll.stats().connections, 2, "both handshakes bound");
        // A frame with an unknown kind byte: framing-fatal for conn 1.
        bad_link.try_write(&[1u8, 0, 0, 0, 99]).unwrap();
        let err = coll.pump_at(t0).expect_err("the violation must surface once");
        assert_eq!(err.conn, ConnId(1));
        // Conn 1 is quarantined: its token cannot resume, no further
        // pump errors, and the failure is visible in stats.
        let token = coll.conn_stats(ConnId(1)).unwrap().token;
        let mut retry = connector.connect(4096);
        retry
            .try_write(&frame_bytes(&NetFrame::Hello { version: PROTOCOL_VERSION, token }))
            .unwrap();
        coll.pump_at(t0).expect("no further errors after quarantine");
        assert!(matches!(
            coll.last_refusal(),
            Some(NetError::Handshake(HandshakeError::Quarantined(t))) if *t == token
        ));
        assert!(coll.detached().is_empty(), "quarantined conns are not awaiting a resume");
        let stats = coll.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.connections, 2, "the refused resume minted no connection");
        assert!(coll.conn_stats(ConnId(1)).unwrap().failed.is_some());
        assert_eq!(coll.failure().unwrap().conn, ConnId(1));
        // Conn 2's session completes untouched.
        let mut stalled = 0;
        while !(good.mux().all_acked() && coll.conn_complete(ConnId(2))) {
            let moved =
                coll.pump_at(t0).expect("no further errors after quarantine") + good.pump_at(t0);
            stalled = if moved == 0 { stalled + 1 } else { 0 };
            assert!(stalled < 10, "healthy connection starved by the quarantined one");
        }
        assert_eq!(store.stream_segments(StreamId(7)).unwrap().len(), 4);
    }

    /// A fresh session whose 0-RTT bytes violate the protocol is
    /// quarantined, but its `HelloAck` is delivered first: the peer
    /// learns its token, so its redial is refused as quarantined
    /// instead of minting one more quarantined connection per redial.
    /// Valid entries ahead of the violation are published, exactly as
    /// the same bytes publish through `pump_conn_at` after a clean
    /// handshake.
    #[test]
    fn zero_rtt_violation_delivers_the_hello_ack_before_quarantine() {
        let cfg = NetConfig::default();
        let hello = frame_bytes(&NetFrame::Hello { version: PROTOCOL_VERSION, token: 0 });
        let mut tx = MuxSender::new(FixedCodec, 1, cfg);
        for i in 0..3 {
            tx.try_send_segment(3, &seg(i)).unwrap();
        }
        tx.finish_stream(3).unwrap();
        let batch_and_fin = tx.outbox().take();

        // What the Batch and Fin publish through `pump_conn_at` once a
        // clean handshake bound the connection.
        let (mut clean, connector, clean_store) = make(cfg, SessionConfig::default());
        let t0 = Instant::now();
        let mut client = connector.connect(4096);
        client.try_write(&hello).unwrap();
        clean.pump_at(t0).unwrap();
        client.try_write(&batch_and_fin).unwrap();
        clean.pump_conn_at(ConnId(1), t0).unwrap();
        let published = clean_store.stream_segments(StreamId(3)).expect("stream 3 published");
        assert!(!published.is_empty());

        for zero_rtt in [Vec::new(), batch_and_fin] {
            let (mut coll, connector, store) = make(cfg, SessionConfig::default());
            let mut client = connector.connect(4096);
            // Hello, the 0-RTT entries and a frame whose length prefix
            // passes `max_frame`, in one write: the violation arrives in
            // the handshake's read.
            let mut burst = hello.clone();
            burst.extend_from_slice(&zero_rtt);
            burst.extend_from_slice(&(cfg.max_frame + 1).to_le_bytes());
            burst.push(12);
            client.try_write(&burst).unwrap();
            coll.pump_at(t0).unwrap();
            let stats = coll.stats();
            assert_eq!((stats.connections, stats.failed), (1, 1), "bound, then quarantined");
            let token = coll.conn_stats(ConnId(1)).unwrap().token;
            assert_ne!(token, 0);
            match read_frame(&mut client) {
                NetFrame::HelloAck { token: got, .. } => assert_eq!(got, token),
                other => panic!("expected the staged HelloAck, got {other:?}"),
            }
            let mut buf = [0u8; 64];
            assert_eq!(
                client.try_read(&mut buf).unwrap_err().kind(),
                std::io::ErrorKind::WouldBlock,
                "nothing follows the HelloAck: the collector dropped the link"
            );

            // The redial presents the learned token and is refused, typed.
            let mut redial = connector.connect(4096);
            redial
                .try_write(&frame_bytes(&NetFrame::Hello { version: PROTOCOL_VERSION, token }))
                .unwrap();
            coll.pump_at(t0).unwrap();
            assert!(matches!(
                coll.last_refusal(),
                Some(NetError::Handshake(HandshakeError::Quarantined(t))) if *t == token
            ));
            match read_frame(&mut redial) {
                NetFrame::HelloAck { token: 0, .. } => {}
                other => panic!("expected a refusal HelloAck, got {other:?}"),
            }
            let stats = coll.stats();
            assert_eq!(stats.connections, 1, "the redial minted no second connection");
            assert_eq!((stats.failed, stats.refused), (1, 1));
            assert!(coll.conn_stats(ConnId(1)).unwrap().failed.is_some());
            if zero_rtt.is_empty() {
                assert_eq!(store.total_segments(), 0);
            } else {
                assert_eq!(store.total_segments(), published.len() as u64);
                assert_eq!(store.stream_segments(StreamId(3)), Some(published.clone()));
                assert_eq!(stats.segments, published.len() as u64);
            }
        }
    }

    /// The same loop end to end: a sender whose 0-RTT batch exceeds the
    /// collector's `max_frame` establishes, loses the link, redials once
    /// with its token and then fails typed and terminal.
    #[test]
    fn session_sender_with_a_violating_zero_rtt_batch_fails_after_one_redial() {
        let sess = SessionConfig::default();
        let (mut coll, connector, store) =
            make(NetConfig { max_frame: 256, ..NetConfig::default() }, sess);
        let t0 = Instant::now();
        let mut client = sender(&connector, NetConfig::default(), 4096, t0);
        for i in 0..32 {
            client.mux_mut().try_send_segment(5, &seg(i)).unwrap();
        }
        client.pump_at(t0); // dial: Hello + an oversized Batch in one write
        coll.pump_at(t0).unwrap();
        client.pump_at(t0);
        assert!(client.is_established(), "the HelloAck reached the sender");
        let token = client.token();
        assert_eq!(token, coll.conn_stats(ConnId(1)).unwrap().token);

        // The silent link lapses; the redial carries the learned token.
        let lapse = t0 + sess.liveness_timeout;
        client.pump_at(lapse);
        let redial_at = lapse + sess.redial_cap;
        client.pump_at(redial_at);
        coll.pump_at(redial_at).unwrap();
        client.pump_at(redial_at);
        assert!(matches!(
            coll.last_refusal(),
            Some(NetError::Handshake(HandshakeError::Quarantined(t))) if *t == token
        ));
        assert!(matches!(
            client.failure(),
            Some(NetError::Handshake(HandshakeError::UnknownToken(t))) if *t == token
        ));
        assert_eq!(client.pump_at(redial_at + sess.redial_cap), 0, "terminal: no redial storm");
        assert_eq!(client.stats().dials, 2);
        let stats = coll.stats();
        assert_eq!((stats.connections, stats.failed, stats.refused), (1, 1, 1));
        assert_eq!(store.total_segments(), 0);
    }

    fn frame_bytes(frame: &NetFrame) -> Vec<u8> {
        let mut buf = bytes::BytesMut::new();
        crate::frame::encode(frame, &mut buf);
        buf.to_vec()
    }

    /// Reads exactly one already-delivered frame off the client's end.
    fn read_frame(link: &mut MemoryLink) -> NetFrame {
        let mut dec = FrameDecoder::new(1 << 20);
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = dec.try_next().expect("clean frame stream") {
                return frame;
            }
            let n = link.try_read(&mut buf).expect("frame must already be staged");
            dec.extend(&buf[..n]);
        }
    }

    #[test]
    fn session_handshake_binds_with_a_token_and_applies_zero_rtt_data() {
        let cfg = NetConfig::default();
        let sess = SessionConfig::default();
        let (mut coll, connector, store) = make(cfg, sess);
        let t0 = Instant::now();
        let mut client = connector.connect(4096);
        // Hello plus the whole session's data in one burst: the 0-RTT
        // path — bytes behind the Hello reach the bound receiver.
        client
            .try_write(&frame_bytes(&NetFrame::Hello { version: PROTOCOL_VERSION, token: 0 }))
            .unwrap();
        let mut tx = MuxSender::new(FixedCodec, 1, cfg);
        tx.try_send_segment(3, &seg(0)).unwrap();
        tx.finish_stream(3).unwrap();
        client.try_write(&tx.outbox().take()).unwrap();
        coll.pump_at(t0).unwrap();
        let stats = coll.stats();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.refused, 0);
        assert_eq!(coll.pending_handshakes(), 0);
        let cs = coll.conn_stats(ConnId(1)).unwrap();
        assert_ne!(cs.token, 0, "a bound session carries a nonzero token");
        match read_frame(&mut client) {
            NetFrame::HelloAck { version, token, through, granted_total } => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert_eq!(token, cs.token);
                assert_eq!((through, granted_total), (0, 0), "a fresh session has no resume state");
            }
            other => panic!("expected HelloAck first, got {other:?}"),
        }
        assert_eq!(store.total_segments(), 1, "0-RTT data behind the Hello was applied");
    }

    #[test]
    fn version_mismatch_and_garbage_first_frames_are_typed_refusals() {
        let cfg = NetConfig::default();
        let sess = SessionConfig::default();
        let (mut coll, connector, _store) = make(cfg, sess);
        let t0 = Instant::now();

        // A peer speaking a future wire version.
        let mut wrong = connector.connect(4096);
        wrong
            .try_write(&frame_bytes(&NetFrame::Hello { version: PROTOCOL_VERSION + 1, token: 0 }))
            .unwrap();
        coll.pump_at(t0).unwrap();
        assert_eq!(coll.stats().connections, 0);
        assert_eq!(coll.stats().refused, 1);
        assert!(matches!(
            coll.last_refusal(),
            Some(NetError::Handshake(HandshakeError::VersionMismatch { ours, theirs }))
                if *ours == PROTOCOL_VERSION && *theirs == PROTOCOL_VERSION + 1
        ));
        // The refusal is *delivered*: HelloAck with token 0 and the
        // server's version, so the client fails typed instead of timing
        // out.
        match read_frame(&mut wrong) {
            NetFrame::HelloAck { version, token, .. } => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert_eq!(token, 0);
            }
            other => panic!("expected refusal HelloAck, got {other:?}"),
        }

        // A peer whose first bytes don't even frame-decode.
        let mut garbage = connector.connect(4096);
        garbage.try_write(&[1u8, 0, 0, 0, 99]).unwrap();
        coll.pump_at(t0).unwrap();
        assert_eq!(coll.stats().refused, 2);
        assert!(matches!(
            coll.last_refusal(),
            Some(NetError::Handshake(HandshakeError::Garbage(_)))
        ));

        // A valid frame that isn't a Hello.
        let mut eager = connector.connect(4096);
        eager.try_write(&frame_bytes(&NetFrame::Ack { through: 0, granted_total: 0 })).unwrap();
        coll.pump_at(t0).unwrap();
        assert_eq!(coll.stats().refused, 3);
        assert!(matches!(
            coll.last_refusal(),
            Some(NetError::Handshake(HandshakeError::NotHello("Ack")))
        ));
        // No refusal ever minted a connection.
        assert_eq!(coll.stats().connections, 0);
    }

    /// The `Hello` layout is the same in every protocol version, so a
    /// sender built for version 2 (whose per-stream `Ack`, `Credit` and
    /// fixed-width `Data` layouts this build no longer reads) is
    /// recognised and refused by version before any of its ingest frames
    /// are decoded.
    #[test]
    fn a_version_2_hello_is_refused_as_a_version_mismatch() {
        let (mut coll, connector, store) = make(NetConfig::default(), SessionConfig::default());
        let mut v2 = connector.connect(4096);
        // [len 11][kind 5 = Hello][version 2][token 0], then a version-2
        // `Data` frame with its fixed-width 16-byte header.
        let mut bytes = vec![11, 0, 0, 0, 5, 2, 0];
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&[17, 0, 0, 0, 1]);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        v2.try_write(&bytes).unwrap();
        coll.pump_at(Instant::now()).unwrap();
        assert!(matches!(
            coll.last_refusal(),
            Some(NetError::Handshake(HandshakeError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: 2
            }))
        ));
        assert_eq!(coll.stats().connections, 0);
        assert_eq!(store.total_segments(), 0);
        match read_frame(&mut v2) {
            NetFrame::HelloAck { version, token, .. } => {
                assert_eq!((version, token), (PROTOCOL_VERSION, 0))
            }
            other => panic!("expected refusal HelloAck, got {other:?}"),
        }
    }

    #[test]
    fn token_resume_rebinds_the_same_connection_without_reattach() {
        let cfg = NetConfig::default();
        let sess = SessionConfig::default();
        let (mut coll, connector, store) = make(cfg, sess);
        let t0 = Instant::now();

        let mut client = connector.connect(4096);
        client
            .try_write(&frame_bytes(&NetFrame::Hello { version: PROTOCOL_VERSION, token: 0 }))
            .unwrap();
        let mut tx = MuxSender::new(FixedCodec, 1, cfg);
        for i in 0..3 {
            tx.try_send_segment(9, &seg(i)).unwrap();
        }
        client.try_write(&tx.outbox().take()).unwrap();
        coll.pump_at(t0).unwrap();
        let token = coll.conn_stats(ConnId(1)).unwrap().token;
        assert_ne!(token, 0);
        let before = store.total_segments();
        assert!(before > 0, "first link's frames landed");

        // The link dies mid-session.
        client.sever();
        coll.pump_at(t0).unwrap();
        assert_eq!(coll.detached(), vec![ConnId(1)], "dead link detaches, session retained");

        // A fresh link presents the token: same ConnId, no reattach call,
        // and the HelloAck carries the resume point.
        let mut resumed = connector.connect(4096);
        resumed
            .try_write(&frame_bytes(&NetFrame::Hello { version: PROTOCOL_VERSION, token }))
            .unwrap();
        // 0-RTT replay right behind the resume Hello.
        tx.on_reconnect();
        tx.finish_stream(9).unwrap();
        resumed.try_write(&tx.outbox().take()).unwrap();
        coll.pump_at(t0).unwrap();
        let stats = coll.stats();
        assert_eq!(stats.connections, 1, "resume rebinds; it does not mint a second conn");
        assert_eq!(stats.refused, 0);
        assert!(coll.detached().is_empty());
        match read_frame(&mut resumed) {
            NetFrame::HelloAck { token: t2, through, granted_total, .. } => {
                assert_eq!(t2, token);
                assert!(through > 0, "the resume point reflects applied entries");
                assert!(granted_total >= NetConfig::default().window, "and the current grant");
            }
            other => panic!("expected resume HelloAck, got {other:?}"),
        }
        let log = store.stream_segments(StreamId(9)).unwrap();
        assert_eq!(log.len(), 3, "no loss, no duplication across the resume");
        assert!(stats.dup_drops > 0, "the replay was partially duplicate");
    }

    #[test]
    fn liveness_lapse_detaches_and_session_ttl_evicts() {
        let cfg = NetConfig::default();
        let sess = SessionConfig::default();
        let (mut coll, connector, _store) = make(cfg, sess);
        let t0 = Instant::now();

        let mut client = connector.connect(4096);
        client
            .try_write(&frame_bytes(&NetFrame::Hello { version: PROTOCOL_VERSION, token: 0 }))
            .unwrap();
        coll.pump_at(t0).unwrap();
        assert_eq!(coll.stats().attached, 1);
        let token = coll.conn_stats(ConnId(1)).unwrap().token;

        // The link wedges silently: no bytes, no error. The liveness
        // deadline detaches it.
        let lapse = t0 + sess.liveness_timeout;
        coll.pump_at(lapse).unwrap();
        assert_eq!(coll.detached(), vec![ConnId(1)], "silent link declared dead by deadline");

        // Unclaimed past the TTL: the session is evicted outright.
        let expiry = lapse + sess.session_ttl;
        coll.pump_at(expiry).unwrap();
        let stats = coll.stats();
        assert_eq!(stats.connections, 0, "evicted sessions drop their state");
        assert_eq!(stats.evicted, 1);

        // Resuming with the evicted token is a typed refusal.
        let mut late = connector.connect(4096);
        late.try_write(&frame_bytes(&NetFrame::Hello { version: PROTOCOL_VERSION, token }))
            .unwrap();
        coll.pump_at(expiry).unwrap();
        assert!(matches!(
            coll.last_refusal(),
            Some(NetError::Handshake(HandshakeError::UnknownToken(t))) if *t == token
        ));
    }

    #[test]
    fn session_sender_establishes_heartbeats_and_sees_echoes() {
        let cfg = NetConfig::default();
        let sess = SessionConfig::default();
        let (mut coll, connector, _store) = make(cfg, sess);
        let t0 = Instant::now();
        let mut client =
            SessionSender::new(FixedCodec, 1, cfg, sess, MemoryRedial::new(connector, 4096), t0);
        client.pump_at(t0); // dial + Hello
        coll.pump_at(t0).unwrap(); // bind + HelloAck
        client.pump_at(t0); // absorb the ack
        assert!(client.is_established());
        assert_eq!(client.token(), coll.conn_stats(ConnId(1)).unwrap().token);
        assert_eq!(client.stats().established, 1);

        // Idle past the heartbeat interval: a probe goes out, the
        // collector echoes it, the sender counts the echo — the link is
        // audibly alive despite carrying no data.
        let t1 = t0 + sess.heartbeat_interval;
        client.pump_at(t1);
        coll.pump_at(t1).unwrap();
        client.pump_at(t1);
        assert_eq!(client.stats().heartbeats_sent, 1);
        assert_eq!(client.stats().echoes_seen, 1);
        assert_eq!(coll.conn_stats(ConnId(1)).unwrap().receiver.heartbeats, 1);
        assert!(client.is_established(), "a probed link stays established");
    }

    #[test]
    fn session_sender_gets_a_typed_version_mismatch_refusal() {
        let cfg = NetConfig::default();
        let sess = SessionConfig::default();
        let (mut coll, connector, _store) = make(cfg, sess);
        let t0 = Instant::now();
        let future = SessionConfig { version: PROTOCOL_VERSION + 1, ..sess };
        let mut client =
            SessionSender::new(FixedCodec, 1, cfg, future, MemoryRedial::new(connector, 4096), t0);
        client.pump_at(t0);
        coll.pump_at(t0).unwrap();
        client.pump_at(t0);
        assert!(!client.is_established());
        assert!(matches!(
            client.failure(),
            Some(NetError::Handshake(HandshakeError::VersionMismatch { ours, theirs }))
                if *ours == PROTOCOL_VERSION + 1 && *theirs == PROTOCOL_VERSION
        ));
        assert_eq!(client.pump_at(t0), 0, "a refused session is terminal; no redial storm");
    }

    /// A link that fails every read and every write once with
    /// `Interrupted` before passing it through.
    struct Interrupting {
        inner: MemoryLink,
        read_interrupted: bool,
        write_interrupted: bool,
    }

    impl Interrupting {
        fn new(inner: MemoryLink) -> Self {
            Self { inner, read_interrupted: false, write_interrupted: false }
        }
    }

    impl Link for Interrupting {
        fn try_write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_interrupted = !self.write_interrupted;
            if self.write_interrupted {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            self.inner.try_write(buf)
        }

        fn try_read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.read_interrupted = !self.read_interrupted;
            if self.read_interrupted {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            self.inner.try_read(buf)
        }

        fn shutdown(&mut self) {
            self.inner.shutdown();
        }
    }

    struct InterruptingAcceptor(MemoryAcceptor);

    impl Acceptor for InterruptingAcceptor {
        type Link = Interrupting;

        fn try_accept(&mut self) -> std::io::Result<Option<Interrupting>> {
            Ok(self.0.try_accept()?.map(Interrupting::new))
        }
    }

    struct InterruptingRedial(MemoryRedial);

    impl crate::Redial for InterruptingRedial {
        type Link = Interrupting;

        fn redial(&mut self) -> std::io::Result<Interrupting> {
            self.0.redial().map(Interrupting::new)
        }
    }

    /// `Interrupted` is retried at once on both ends: a session whose
    /// every read and write is interrupted first still completes on its
    /// first link, with one dial and no resume.
    #[test]
    fn collector_and_sender_retry_interrupted_reads_and_writes() {
        let cfg = NetConfig::default();
        let sess = SessionConfig::default();
        let store = Arc::new(SegmentStore::new());
        let acceptor = MemoryAcceptor::new();
        let redial = InterruptingRedial(MemoryRedial::new(acceptor.connector(), 4096));
        let acceptor = InterruptingAcceptor(acceptor);
        let mut coll = Collector::with_sessions(FixedCodec, 1, cfg, sess, acceptor, store.clone());
        let t0 = Instant::now();
        let mut tx = SessionSender::new(FixedCodec, 1, cfg, sess, redial, t0);
        for stream in 0..4u64 {
            for i in 0..16 {
                tx.mux_mut().try_send_segment(stream, &seg(i)).unwrap();
            }
            tx.mux_mut().finish_stream(stream).unwrap();
        }
        let mut stalled = 0;
        while !(tx.mux().all_acked() && coll.conn_complete(ConnId(1))) {
            let moved = coll.pump_at(t0).unwrap() + tx.pump_at(t0);
            stalled = if moved == 0 { stalled + 1 } else { 0 };
            assert!(stalled < 10, "transfer stalled");
        }
        assert_eq!(store.total_segments(), 4 * 16);
        assert_eq!((tx.stats().dials, tx.stats().established), (1, 1));
        let stats = coll.stats();
        assert_eq!((stats.connections, stats.resumes, stats.refused), (1, 0, 0));
    }

    #[test]
    fn silent_pending_sockets_are_dropped_at_the_handshake_deadline() {
        let cfg = NetConfig::default();
        let sess = SessionConfig::default();
        let (mut coll, connector, _store) = make(cfg, sess);
        let t0 = Instant::now();
        let _mute = connector.connect(4096);
        coll.pump_at(t0).unwrap();
        assert_eq!(coll.pending_handshakes(), 1, "accepted but not yet identified");
        assert_eq!(coll.stats().connections, 0, "no ConnId before the Hello");
        coll.pump_at(t0 + sess.handshake_timeout).unwrap();
        assert_eq!(coll.pending_handshakes(), 0);
        assert_eq!(coll.stats().refused, 1);
        assert!(matches!(coll.last_refusal(), Some(NetError::Handshake(HandshakeError::Timeout))));
    }

    #[test]
    fn pump_loop_collects_every_concurrent_sender() {
        let cfg = NetConfig::default();
        let (mut coll, connector, store) = make(cfg, SessionConfig::default());
        const CONNS: u64 = 4;
        // Sender threads dial in and push concurrently — the memory
        // connector is Send, so the collector's loop sees real
        // cross-thread arrivals.
        let senders: Vec<_> = (0..CONNS)
            .map(|c| {
                let connector = connector.clone();
                std::thread::spawn(move || {
                    let mut tx = sender(&connector, cfg, 512, Instant::now());
                    for i in 0..5 {
                        tx.mux_mut().try_send_segment(c, &seg(i)).unwrap();
                    }
                    tx.mux_mut().finish_stream(c).unwrap();
                    let mut stalled = 0;
                    while !tx.mux().all_acked() {
                        let moved = tx.pump();
                        if let Some(e) = tx.failure() {
                            panic!("session failed: {e}");
                        }
                        if moved == 0 {
                            stalled += 1;
                            assert!(stalled < 4000, "sender starved");
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        } else {
                            stalled = 0;
                        }
                    }
                })
            })
            .collect();
        // Segments land before the acks that release the sender threads
        // are written, so wait for both.
        pump_until(&mut coll, |c| {
            c.stats().segments == CONNS * 5 && (1..=CONNS).all(|id| c.conn_complete(ConnId(id)))
        });
        for s in senders {
            s.join().unwrap();
        }
        let snap = store.snapshot();
        assert_eq!(snap.streams.len(), CONNS as usize);
        assert_eq!(snap.total_segments, CONNS * 5);
        assert_eq!(coll.stats().connections, CONNS as usize);
    }

    /// The wall-clock pump loop end to end: handshakes arrive through
    /// `pump_sessions`, the 1 ms idle sleeps keep liveness ticking, and
    /// a mid-run redial rebinds by token.
    #[test]
    fn pump_loop_handshakes_and_resumes_a_severed_sender() {
        let cfg = NetConfig::default();
        let sess = SessionConfig::default();
        let (mut coll, connector, store) = make(cfg, sess);
        let sender = std::thread::spawn(move || {
            let mut tx = SessionSender::new(
                FixedCodec,
                1,
                cfg,
                sess,
                MemoryRedial::new(connector, 512),
                Instant::now(),
            );
            for i in 0..4 {
                tx.mux_mut().try_send_segment(7, &seg(i)).unwrap();
            }
            let mut severed = false;
            let mut finned = false;
            let mut stalled = 0;
            loop {
                let moved = tx.pump();
                if let Some(e) = tx.failure() {
                    panic!("session failed: {e}");
                }
                // Once established, kill the link once: the machine
                // must redial and resume by token on its own.
                if tx.is_established() && !severed {
                    tx.redial().last_link().expect("dialed").sever();
                    severed = true;
                    continue;
                }
                if severed && tx.is_established() && tx.mux().all_acked() && !finned {
                    tx.mux_mut().finish_stream(7).unwrap();
                    finned = true;
                }
                if finned && tx.mux().is_idle() {
                    break;
                }
                if moved == 0 {
                    stalled += 1;
                    assert!(stalled < 20_000, "session sender starved");
                    std::thread::sleep(std::time::Duration::from_micros(200));
                } else {
                    stalled = 0;
                }
            }
            tx.redial().dials()
        });
        pump_until(&mut coll, |c| c.stats().connections == 1 && c.conn_complete(ConnId(1)));
        let dials = sender.join().unwrap();
        assert!(dials >= 2, "the sever must have forced a redial, got {dials}");
        let stats = coll.stats();
        assert_eq!(stats.connections, 1, "the resume rebound the same conn");
        assert_eq!(store.snapshot().total_segments, 4);
    }
}
