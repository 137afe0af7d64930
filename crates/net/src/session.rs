//! Self-healing sessions: handshake, heartbeats, automatic redial.
//!
//! A connection outlives its link only if the collector can tell which
//! connection a fresh link belongs to. This module gives the wire that
//! session identity, following the shape of the rt-protocol forwarder
//! handshake (`ForwarderHello` / resume point / heartbeats), and it
//! is the only way a [`Collector`](crate::Collector) connection comes
//! back after its link dies:
//!
//! 1. The first frame of every collector connection is a
//!    [`Hello`](crate::frame::NetFrame::Hello) carrying the sender's
//!    wire version and either token 0 (new session) or a previously
//!    issued session token (resume).
//! 2. The collector answers with a
//!    [`HelloAck`](crate::frame::NetFrame::HelloAck): the issued or
//!    confirmed token plus the session seq it applied through and its
//!    current credit grant, so the sender trims its replay frames
//!    *before* retransmitting. Token 0 in the ack means refused (version
//!    mismatch, unknown token, or a quarantined session).
//! 3. Either side treats a link that has been silent past its liveness
//!    deadline as dead — [`Heartbeat`](crate::frame::NetFrame::Heartbeat)
//!    probes (echoed by the receiver) keep an idle-but-healthy link
//!    audibly alive, so a *silently wedged* link (writes vanish, reads
//!    never arrive) is detected instead of hanging forever.
//! 4. The sending side redials by itself through a [`Redial`] factory
//!    with capped exponential backoff — no operator in the loop.
//!
//! [`SessionSender`] composes all of that around a
//! [`MuxSender`], staying sans-I/O in spirit: all
//! time-dependent behavior takes an explicit `now` via
//! [`pump_at`](SessionSender::pump_at), so tests drive a synthetic
//! clock and every timeout path is deterministic.

use std::convert::Infallible;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use pla_metrics::Registry;
use pla_transport::wire::Codec;

use crate::driver::{pump_in, pump_out};
use crate::frame::{FrameDecoder, FrameError, NetFrame, Outbox, PROTOCOL_VERSION};
use crate::link::{Link, MemoryLink, TcpLink};
use crate::listen::MemoryConnector;
use crate::mux::MuxSender;
use crate::{NetConfig, NetError};

/// splitmix64 — the workspace's standard inline PRNG (same seeding
/// discipline as `pla-signal`): advances `state` in place. Used for
/// session-token issuance by the collector and the query server
/// (unique, nonzero identity — not secrecy) and by the fault harness to
/// scatter faults.
pub fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    *state = z ^ (z >> 31);
}

/// Why a session handshake failed. Carried by
/// [`NetError::Handshake`]; every variant quarantines only the
/// connection that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// The two endpoints speak different wire versions.
    VersionMismatch {
        /// This side's version.
        ours: u16,
        /// The peer's claimed version.
        theirs: u16,
    },
    /// The first frame of the connection was a valid frame but not a
    /// `Hello`.
    NotHello(&'static str),
    /// The first bytes of the connection did not even frame-decode.
    Garbage(FrameError),
    /// The presented session token was never issued (or already
    /// evicted).
    UnknownToken(u64),
    /// The presented token names a session that was quarantined for a
    /// protocol violation; resuming it is refused.
    Quarantined(u64),
    /// The server refused the session without this side presenting a
    /// resume token (its `HelloAck` carried token 0).
    Refused {
        /// The version the server announced in its refusal.
        server_version: u16,
    },
    /// The handshake deadline passed without a `HelloAck`.
    Timeout,
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::VersionMismatch { ours, theirs } => {
                write!(f, "wire version mismatch: ours {ours}, peer {theirs}")
            }
            Self::NotHello(what) => write!(f, "first frame was not Hello: {what}"),
            Self::Garbage(e) => write!(f, "first bytes did not frame-decode: {e}"),
            Self::UnknownToken(t) => write!(f, "session token {t:#x} unknown or evicted"),
            Self::Quarantined(t) => write!(f, "session token {t:#x} is quarantined"),
            Self::Refused { server_version } => {
                write!(f, "session refused by server (version {server_version})")
            }
            Self::Timeout => write!(f, "handshake deadline passed without HelloAck"),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Session-layer timing and identity knobs, shared by the sender and
/// the collector. Deliberately separate from
/// [`NetConfig`]: the byte protocol does not change shape when the
/// session layer sits on top of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Wire version announced in `Hello`/`HelloAck`
    /// ([`PROTOCOL_VERSION`]).
    pub version: u16,
    /// How often an established, idle sender probes the link.
    pub heartbeat_interval: Duration,
    /// A link silent for this long is declared dead: the sender
    /// redials, the collector detaches the connection.
    pub liveness_timeout: Duration,
    /// How long either side waits mid-handshake before giving up on the
    /// link (the sender redials; the collector drops the pending
    /// socket).
    pub handshake_timeout: Duration,
    /// How long the collector retains a *detached* session's state for
    /// resumption before evicting it.
    pub session_ttl: Duration,
    /// First redial delay after a failed dial attempt.
    pub redial_initial: Duration,
    /// Backoff ceiling: delays double per consecutive failure up to
    /// this.
    pub redial_cap: Duration,
    /// Seed for the collector's token issuance (tokens must only be
    /// unique and nonzero, not secret — this is session identity, not
    /// authentication).
    pub token_seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            version: PROTOCOL_VERSION,
            heartbeat_interval: Duration::from_millis(500),
            liveness_timeout: Duration::from_secs(3),
            handshake_timeout: Duration::from_secs(2),
            session_ttl: Duration::from_secs(60),
            redial_initial: Duration::from_millis(25),
            redial_cap: Duration::from_secs(2),
            token_seed: 0x5EED_0F5E_5510_0001,
        }
    }
}

/// A factory for fresh links to the same peer — the sender's redial
/// policy lives behind it so the session machine is substrate-agnostic.
pub trait Redial {
    /// The link type each dial attempt yields.
    type Link: Link;

    /// Attempts one connection. An `Err` is a *failed attempt* (the
    /// session machine backs off and retries), not a terminal failure.
    fn redial(&mut self) -> io::Result<Self::Link>;
}

/// Redials a TCP address.
#[derive(Debug, Clone)]
pub struct TcpRedial {
    addr: SocketAddr,
}

impl TcpRedial {
    /// Redials `addr` on demand.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr }
    }
}

impl Redial for TcpRedial {
    type Link = TcpLink;

    fn redial(&mut self) -> io::Result<TcpLink> {
        TcpLink::connect(self.addr)
    }
}

/// Deterministic in-process redialer: each attempt dials a fresh
/// [`MemoryLink`] through a [`MemoryConnector`] (queueing the serve
/// side for the acceptor). Tests can script dial failures and keep a
/// clone of the active link as a sever handle.
#[derive(Debug, Clone)]
pub struct MemoryRedial {
    connector: MemoryConnector,
    capacity: usize,
    /// Dial attempts that fail before one succeeds again.
    fail_next: usize,
    last: Option<MemoryLink>,
    dials: u64,
}

impl MemoryRedial {
    /// Redials through `connector` with `capacity`-byte pipes.
    pub fn new(connector: MemoryConnector, capacity: usize) -> Self {
        Self { connector, capacity, fail_next: 0, last: None, dials: 0 }
    }

    /// Makes the next `n` dial attempts fail with `ConnectionRefused` —
    /// the deterministic stand-in for a collector that is down, which
    /// is what exercises the exponential backoff path.
    pub fn fail_next(&mut self, n: usize) {
        self.fail_next = n;
    }

    /// A clone of the most recently dialed link (shares the same pipes)
    /// — the test's sever handle for the active connection.
    pub fn last_link(&self) -> Option<MemoryLink> {
        self.last.clone()
    }

    /// Total dial attempts, including scripted failures.
    pub fn dials(&self) -> u64 {
        self.dials
    }
}

impl Redial for MemoryRedial {
    type Link = MemoryLink;

    fn redial(&mut self) -> io::Result<MemoryLink> {
        self.dials += 1;
        if self.fail_next > 0 {
            self.fail_next -= 1;
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "scripted dial failure"));
        }
        let link = self.connector.connect(self.capacity);
        self.last = Some(link.clone());
        Ok(link)
    }
}

/// Where the session machine currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No live link; the next dial attempt fires once `now` reaches the
    /// deadline.
    Dialing { next_attempt: Instant },
    /// Link up, `Hello` staged/sent, waiting for the `HelloAck`.
    HelloSent { since: Instant },
    /// Session bound; data, control, and heartbeats flow.
    Established,
    /// Terminal protocol failure — redialing cannot help. See
    /// [`SessionSender::failure`].
    Failed,
}

/// Point-in-time session counters, read from the sender's series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Dial attempts made (including failures).
    pub dials: u64,
    /// Handshakes completed (first establishment plus every resume).
    pub established: u64,
    /// Heartbeat probes sent.
    pub heartbeats_sent: u64,
    /// Heartbeat echoes received back.
    pub echoes_seen: u64,
}

pla_metrics::series! {
    /// The sender's series, one per [`SessionStats`] field, unlabeled.
    struct SessionSeries {
        dials: counter("pla_session_dials_total",
            "Dial attempts made (including failures), per sender."),
        established: counter("pla_session_established_total",
            "Handshakes completed (first establishment plus resumes), per sender."),
        heartbeats_sent: counter("pla_session_heartbeats_sent_total",
            "Heartbeat probes sent, per sender."),
        echoes_seen: counter("pla_session_echoes_seen_total",
            "Heartbeat echoes received back, per sender."),
    }
}

/// A [`MuxSender`] wrapped in the self-healing session machine: it
/// dials, handshakes, replays, heartbeats, and redials on its own.
///
/// Drive it by calling [`pump_at`](Self::pump_at) (or
/// [`pump`](Self::pump), which stamps `Instant::now`) in a loop, the
/// way the sync tests drive `pump_sender`. The wrapped mux is reachable
/// through [`mux`](Self::mux)/[`mux_mut`](Self::mux_mut) for sending.
pub struct SessionSender<C: Codec, R: Redial> {
    mux: MuxSender<C>,
    redial: R,
    link: Option<R::Link>,
    phase: Phase,
    session: SessionConfig,
    /// Handshake/heartbeat frames, drained strictly before the mux
    /// outbox so a `Hello` always precedes the 0-RTT replay behind it.
    session_out: Outbox,
    /// The session machine decodes the link itself (it must intercept
    /// `HelloAck` before the mux sees bytes).
    dec: FrameDecoder,
    token: u64,
    backoff: Duration,
    last_recv: Instant,
    last_send: Instant,
    heartbeat_seq: u64,
    failed: Option<NetError>,
    series: SessionSeries,
}

impl<C: Codec, R: Redial> SessionSender<C, R> {
    /// Creates the session machine around a fresh mux. Nothing is
    /// dialed yet; the first [`pump_at`](Self::pump_at) dials
    /// immediately. `now` seeds the synthetic clock (tests pass their
    /// epoch; production passes `Instant::now()`).
    pub fn new(
        codec: C,
        dims: usize,
        config: NetConfig,
        session: SessionConfig,
        redial: R,
        now: Instant,
    ) -> Self {
        Self {
            mux: MuxSender::new(codec, dims, config),
            redial,
            link: None,
            phase: Phase::Dialing { next_attempt: now },
            session,
            session_out: Outbox::default(),
            dec: FrameDecoder::new(config.max_frame),
            token: 0,
            backoff: session.redial_initial,
            last_recv: now,
            last_send: now,
            heartbeat_seq: 0,
            failed: None,
            series: SessionSeries::new(),
        }
    }

    /// The wrapped mux (stream stats, idle checks).
    pub fn mux(&self) -> &MuxSender<C> {
        &self.mux
    }

    /// Mutable access for sending segments and finishing streams.
    pub fn mux_mut(&mut self) -> &mut MuxSender<C> {
        &mut self.mux
    }

    /// Whether the session is currently bound to a live link.
    pub fn is_established(&self) -> bool {
        self.phase == Phase::Established
    }

    /// The server-issued session token (0 until the first handshake
    /// completes).
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The terminal protocol failure, if the session machine gave up.
    /// Redial-able I/O failures never land here — only protocol
    /// violations and handshake refusals.
    pub fn failure(&self) -> Option<&NetError> {
        self.failed.as_ref()
    }

    /// Session counters.
    pub fn stats(&self) -> SessionStats {
        let s = &self.series;
        SessionStats {
            dials: s.dials.get(),
            established: s.established.get(),
            heartbeats_sent: s.heartbeats_sent.get(),
            echoes_seen: s.echoes_seen.get(),
        }
    }

    /// The sender's metric series, one `pla_session_*_total` counter
    /// per [`SessionStats`] field, built from its handles on each call.
    pub fn registry(&self) -> Registry {
        let mut registry = Registry::new();
        self.series.add_to(&mut registry, &[]);
        registry
    }

    /// The redial factory — fault-injection tests reach their
    /// sever/wedge handles through it.
    pub fn redial(&self) -> &R {
        &self.redial
    }

    /// Mutable access to the redial factory (scripting dial failures).
    pub fn redial_mut(&mut self) -> &mut R {
        &mut self.redial
    }

    fn fail(&mut self, err: NetError) {
        if let Some(mut link) = self.link.take() {
            link.shutdown();
        }
        self.phase = Phase::Failed;
        self.failed = Some(err);
    }

    /// Drops the current link (if any) and schedules the next dial
    /// attempt `self.backoff` out, doubling the backoff up to the cap.
    fn drop_link_and_backoff(&mut self, now: Instant) {
        if let Some(mut link) = self.link.take() {
            link.shutdown();
        }
        self.dec.reset();
        self.session_out.clear();
        self.phase = Phase::Dialing { next_attempt: now + self.backoff };
        self.backoff = (self.backoff * 2).min(self.session.redial_cap);
    }

    fn dial(&mut self, now: Instant) {
        self.series.dials.inc();
        match self.redial.redial() {
            Ok(link) => {
                self.link = Some(link);
                self.dec.reset();
                self.session_out.clear();
                let hello = NetFrame::Hello { version: self.session.version, token: self.token };
                self.session_out.stage_frame(&hello);
                // 0-RTT replay: stage the unacked frames right behind the
                // Hello. If the HelloAck's point later shows some of them
                // were already applied, `apply_resume` re-trims.
                self.mux.on_reconnect();
                self.phase = Phase::HelloSent { since: now };
                self.last_recv = now;
                self.last_send = now;
            }
            Err(_) => {
                self.phase = Phase::Dialing { next_attempt: now + self.backoff };
                self.backoff = (self.backoff * 2).min(self.session.redial_cap);
            }
        }
    }

    /// Applies one inbound frame. `Err` is terminal (protocol failure).
    fn on_frame(&mut self, frame: NetFrame) -> Result<(), NetError> {
        match frame {
            NetFrame::HelloAck { version, token, through, granted_total } => {
                match self.phase {
                    Phase::HelloSent { .. } => {
                        if token == 0 {
                            // Refused. Typed by the most specific cause
                            // this side can see.
                            let err = if version != self.session.version {
                                HandshakeError::VersionMismatch {
                                    ours: self.session.version,
                                    theirs: version,
                                }
                            } else if self.token != 0 {
                                HandshakeError::UnknownToken(self.token)
                            } else {
                                HandshakeError::Refused { server_version: version }
                            };
                            return Err(NetError::Handshake(err));
                        }
                        self.token = token;
                        self.mux.apply_resume(through, granted_total)?;
                        self.phase = Phase::Established;
                        self.backoff = self.session.redial_initial;
                        self.series.established.inc();
                    }
                    // A duplicated HelloAck for the session we already
                    // hold is replay noise; a *different* token
                    // mid-session means the byte stream is not what we
                    // think it is.
                    Phase::Established if token == self.token => {}
                    _ => return Err(NetError::UnexpectedFrame("HelloAck outside handshake")),
                }
                Ok(())
            }
            NetFrame::Heartbeat { .. } => {
                self.series.echoes_seen.inc();
                Ok(())
            }
            other => self.mux.on_frame(other),
        }
    }

    /// One pump round at the given instant: dial when due, read and
    /// dispatch, enforce deadlines, heartbeat, write. Returns bytes
    /// moved (0 = no progress this round). Terminal protocol failures
    /// park the machine — see [`failure`](Self::failure); link deaths
    /// never surface, they schedule a redial.
    pub fn pump_at(&mut self, now: Instant) -> usize {
        if self.phase == Phase::Failed {
            return 0;
        }
        if let Phase::Dialing { next_attempt } = self.phase {
            if now < next_attempt {
                return 0;
            }
            self.dial(now);
        }
        let Some(mut link) = self.link.take() else {
            return 0;
        };

        // Read. A link that failed or closed is lost: sessions close by
        // protocol, never by one side hanging up first.
        let dec = &mut self.dec;
        let read = pump_in(&mut link, |bytes| {
            dec.extend(bytes);
            Ok::<_, Infallible>(())
        });
        let Ok(moved) = read else {
            self.link = Some(link);
            self.drop_link_and_backoff(now);
            return 0;
        };
        if moved > 0 {
            self.last_recv = now;
        }
        // Dispatch. Frames are pulled out of the decoder one at a time
        // so a terminal error mid-buffer doesn't lose its cause.
        let mut net_err: Option<NetError> = None;
        loop {
            match self.dec.try_next() {
                Ok(Some(frame)) => {
                    if let Err(e) = self.on_frame(frame) {
                        net_err = Some(e);
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    net_err = Some(NetError::Frame(e));
                    break;
                }
            }
        }
        if let Some(e) = net_err {
            self.link = Some(link);
            self.fail(e);
            return moved;
        }

        // Deadlines.
        match self.phase {
            Phase::HelloSent { since }
                if now.duration_since(since) >= self.session.handshake_timeout =>
            {
                self.link = Some(link);
                self.drop_link_and_backoff(now);
                return moved;
            }
            Phase::Established => {
                if now.duration_since(self.last_recv) >= self.session.liveness_timeout {
                    // Silently wedged or half-dead link: abandon it.
                    self.link = Some(link);
                    self.drop_link_and_backoff(now);
                    return moved;
                }
                if now.duration_since(self.last_send) >= self.session.heartbeat_interval {
                    self.heartbeat_seq += 1;
                    let probe = NetFrame::Heartbeat { seq: self.heartbeat_seq };
                    self.session_out.stage_frame(&probe);
                    self.series.heartbeats_sent.inc();
                }
            }
            _ => {}
        }

        // Write: session frames strictly first, then the mux outbox —
        // unless the link tore a mux frame on an earlier partial write,
        // in which case that frame must complete before any session
        // frame may enter the wire (heartbeat bytes injected mid-frame
        // would desync the peer's decoder). Heartbeats never starve
        // behind a busy mux queue: the peer refreshes liveness on any
        // inbound bytes, data included.
        let mux_out = self.mux.outbox();
        let outboxes = if mux_out.partial_head().is_some() {
            [mux_out, &mut self.session_out]
        } else {
            [&mut self.session_out, mux_out]
        };
        let mut written = 0;
        let mut lost = false;
        for out in outboxes {
            match pump_out(out, &mut link) {
                Ok(n) => written += n,
                Err(_) => lost = true,
            }
            if lost || !out.is_empty() {
                break;
            }
        }
        self.link = Some(link);
        if lost {
            self.drop_link_and_backoff(now);
        } else if written > 0 {
            self.last_send = now;
        }
        moved + written
    }

    /// [`pump_at`](Self::pump_at) stamped with the real clock.
    pub fn pump(&mut self) -> usize {
        self.pump_at(Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode;
    use bytes::BytesMut;

    #[test]
    fn backoff_doubles_to_the_cap_and_resets_on_establishment() {
        let cfg = SessionConfig::default();
        assert_eq!(cfg.version, PROTOCOL_VERSION);
        assert!(cfg.redial_initial < cfg.redial_cap);
    }

    /// An ack past the last entry sealed is a protocol failure like any
    /// other: the session parks instead of trimming on it, whether the
    /// point rides the handshake or a later `Ack`.
    #[test]
    fn an_ack_beyond_sent_fails_the_session() {
        use crate::listen::{Acceptor, MemoryAcceptor};
        use crate::Link;
        use pla_core::Segment;
        use pla_transport::wire::FixedCodec;

        let seg = Segment {
            t_start: 0.0,
            x_start: [0.0].into(),
            t_end: 1.0,
            x_end: [1.0].into(),
            connected: false,
            n_points: 2,
            new_recordings: 2,
        };
        for (handshake, ack) in [(2, None), (0, Some(2))] {
            let mut acceptor = MemoryAcceptor::new();
            let redial = MemoryRedial::new(acceptor.connector(), 1 << 16);
            let now = Instant::now();
            let config = NetConfig::default();
            let session = SessionConfig::default();
            let mut tx = SessionSender::new(FixedCodec, 1, config, session, redial, now);
            tx.mux_mut().try_send_segment(4, &seg).unwrap();
            tx.pump_at(now);
            let mut peer = acceptor.try_accept().unwrap().expect("dialed");
            let mut reply = BytesMut::new();
            encode(
                &NetFrame::HelloAck {
                    version: PROTOCOL_VERSION,
                    token: 9,
                    through: handshake,
                    granted_total: 0,
                },
                &mut reply,
            );
            if let Some(through) = ack {
                encode(&NetFrame::Ack { through, granted_total: 0 }, &mut reply);
            }
            peer.try_write(&reply).unwrap();
            tx.pump_at(now);
            assert_eq!(
                tx.failure(),
                Some(&NetError::AckBeyondSent { through_seq: 2, last_seq: 1 })
            );
            assert_eq!(tx.mux().stats().replay_frames, 1, "nothing was trimmed");
        }
    }

    #[test]
    fn handshake_errors_display() {
        let cases: Vec<(HandshakeError, &str)> = vec![
            (HandshakeError::VersionMismatch { ours: 1, theirs: 2 }, "version mismatch"),
            (HandshakeError::NotHello("Batch"), "not Hello"),
            (HandshakeError::UnknownToken(7), "unknown"),
            (HandshakeError::Quarantined(7), "quarantined"),
            (HandshakeError::Refused { server_version: 1 }, "refused"),
            (HandshakeError::Timeout, "deadline"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should mention {needle:?}");
        }
    }
}
