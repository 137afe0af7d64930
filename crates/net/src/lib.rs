//! # pla-net — multiplexed transport for PLA segment streams
//!
//! The paper's transmitter/receiver model (§1–2) assumes one reliable
//! point-to-point link per stream. A deployment serving millions of
//! streams cannot afford that: many transmitters share few connections,
//! and the transport must multiplex them with explicit flow control and
//! recovery. This crate is that layer:
//!
//! * [`link`] — the byte-pipe abstraction the transport runs over:
//!   [`MemoryLink`] (in-process, capacity-bounded, severable — the
//!   deterministic test substrate) and [`TcpLink`] (non-blocking
//!   `std::net::TcpStream`).
//! * [`frame`] — length-delimited net frames (`Batch`/`Ack`/`Fin` plus
//!   the session and query frames) wrapping `pla-transport`'s wire
//!   encoding. A session has one sequence space: one `Batch` frame
//!   carries a flush's entries numbered consecutively from its base
//!   seq, each one stream's messages with its stream id, and one `Ack`
//!   frame carries the session's cumulative ack and connection credit
//!   grant.
//! * [`credit`] — cumulative-offset flow control per connection (the
//!   QUIC `MAX_DATA` shape): the receiver grants an absolute byte budget
//!   for the whole connection, the sender never exceeds it, and a
//!   saturated connection surfaces [`NetError::Backpressure`] to the
//!   caller — the same contract as `pla_ingest::IngestHandle::try_push`.
//! * [`MuxSender`] / [`NetReceiver`] — the two connection endpoints as
//!   *sans-I/O* state machines: bytes in, bytes out, no sockets inside,
//!   so every protocol path is unit-testable deterministically. The
//!   receiver feeds `pla_transport::StreamDemux`, which rebuilds every
//!   stream's segments into one buffer in arrival order; the collector
//!   takes that buffer after each pump and publishes it.
//! * [`session`] — the one way a connection comes back: a
//!   [`SessionSender`] redials on its own and resumes by session token.
//!   The resume `HelloAck` carries the receiver's cumulative ack and
//!   credit point, the sender resends its un-acknowledged sealed frames
//!   byte for byte, and the receiver drops every replayed entry at or
//!   below its applied session seq, so the reconstruction is
//!   byte-identical to an uninterrupted run.
//! * [`collector`] — the base-station side: a [`Collector`] funnels many
//!   accepted sessions into one shared `SegmentStore`.
//! * [`uplink`] — the `pla-ingest` integration: an engine's live segment
//!   tap flows straight out over one multiplexed connection.
//!
//! There is one driving model: every endpoint is a synchronous,
//! non-blocking `pump`, and whoever owns it calls it in a plain loop
//! that sleeps about 1 ms after a round that moved nothing. Nothing
//! waits on fd readiness. ([`runtime`] keeps only a `block_on` shim for
//! perfbench's `meta` line.)
//!
//! ```
//! use bytes::BytesMut;
//! use pla_core::Segment;
//! use pla_net::{MuxSender, NetConfig, NetReceiver};
//! use pla_transport::wire::FixedCodec;
//!
//! let cfg = NetConfig::default();
//! let mut tx = MuxSender::new(FixedCodec, 1, cfg);
//! let mut rx = NetReceiver::new(FixedCodec, 1, cfg);
//! let seg = Segment {
//!     t_start: 0.0,
//!     x_start: [1.0].into(),
//!     t_end: 4.0,
//!     x_end: [5.0].into(),
//!     connected: false,
//!     n_points: 5,
//!     new_recordings: 2,
//! };
//! tx.try_send_segment(7, &seg).unwrap();
//! tx.finish_stream(7).unwrap();
//! // A lossless in-memory hop: sender bytes → receiver, acks back.
//! rx.on_bytes(&tx.take_staged()).unwrap();
//! tx.on_bytes(&rx.take_staged()).unwrap();
//! assert!(tx.all_acked());
//! assert_eq!(rx.finished_streams().count(), 1);
//! assert_eq!(rx.into_demux().into_segment_logs()[&7].len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod collector;
pub mod credit;
pub mod driver;
pub mod frame;
pub mod link;
pub mod listen;
mod mux;
mod receiver;
pub mod runtime;
pub mod session;
#[cfg(feature = "test-util")]
pub mod testutil;
pub mod uplink;

pub use collector::{Collector, CollectorStats, ConnId, ConnStats};
pub use link::{Link, MemoryLink, TcpLink};
pub use listen::{Acceptor, MemoryAcceptor, MemoryConnector, TcpAcceptor};
pub use mux::{MuxSender, SendStats};
pub use receiver::{NetReceiver, ReceiverStats, RxStream};
pub use session::{HandshakeError, MemoryRedial, Redial, SessionConfig, SessionSender, TcpRedial};

use crate::frame::FrameError;
use pla_transport::ReceiveError;

/// Connection-level configuration shared by both endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Initial (and steady-state) connection credit window in payload
    /// bytes, shared by every stream of the connection. Both sides must
    /// agree on it: the sender starts with this budget implicitly
    /// granted, and the receiver keeps topping the grant up to
    /// `delivered + window` as it consumes. An entry whose payload
    /// exceeds it can never be sent
    /// ([`NetError::EntryExceedsWindow`]).
    pub window: u64,
    /// Maximum accepted frame length in bytes (guards the decoder
    /// against a corrupt or hostile length prefix).
    pub max_frame: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self { window: 1024 * 1024, max_frame: 1024 * 1024 }
    }
}

/// Errors surfaced by the transport endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The connection's credit window cannot cover this payload right
    /// now; retry after the receiver grants more (or shed load), exactly
    /// like `pla_ingest::IngestError::Backpressure`.
    Backpressure,
    /// The stream was already finished with
    /// [`MuxSender::finish_stream`]; no more payload may follow.
    Finished(u64),
    /// The entry cannot travel in any frame the peer accepts: even alone
    /// in a `Batch` frame it would exceed [`NetConfig::max_frame`], and
    /// the peer's decoder would fail the whole connection on it. Nothing
    /// was sent, sequenced or reserved; the caller sheds the entry or
    /// raises `max_frame` on both sides.
    EntryTooLarge {
        /// The stream the entry was for.
        stream: u64,
        /// The length prefix of the one-entry `Batch` frame.
        frame_len: usize,
        /// The configured maximum.
        max_frame: u32,
    },
    /// The entry's payload is larger than the whole connection credit
    /// window ([`NetConfig::window`]), so no grant could ever admit it.
    /// Nothing was sent, sequenced or reserved; the caller sheds the
    /// entry or raises `window` on both sides.
    EntryExceedsWindow {
        /// The stream the entry was for.
        stream: u64,
        /// The entry's payload bytes.
        payload_len: usize,
        /// The configured window.
        window: u64,
    },
    /// The peer sent a frame kind this endpoint never accepts (e.g.
    /// `Batch` arriving at the sender).
    UnexpectedFrame(&'static str),
    /// A `Fin` arrived before the session seq it names was applied —
    /// impossible on an ordered connection unless frames were lost.
    IncompleteFin {
        /// The stream being finished.
        stream: u64,
        /// The session seq the `Fin` names.
        final_seq: u64,
        /// The session seq actually applied through.
        applied: u64,
    },
    /// A `Batch` entry skipped ahead of the session's next seq: the
    /// connection lost an entry. (Entries at or below the applied seq
    /// are replays and are dropped, not refused.)
    SequenceGap {
        /// The session seq the receiver expected next.
        expected: u64,
        /// The session seq that arrived.
        got: u64,
    },
    /// A `Batch` entry's payload would take the bytes delivered on this
    /// session past the credit this receiver granted. A sender only
    /// holds grants the receiver announced, so only one that ignores its
    /// credit gets here; the entry is refused before it is applied.
    CreditOverrun {
        /// The cumulative grant, in payload bytes.
        granted: u64,
        /// The cumulative payload bytes the entry would have brought.
        delivered: u64,
    },
    /// The receiver acknowledged an entry this sender never sealed. A
    /// cumulative ack licenses the sender to discard its replay frames,
    /// so one that overshoots can only come from a corrupt or confused
    /// peer; the connection is failed rather than trusted.
    AckBeyondSent {
        /// The acknowledged session seq.
        through_seq: u64,
        /// The session seq of the last entry actually sealed.
        last_seq: u64,
    },
    /// Framing-layer failure (bad kind byte, oversized length prefix).
    Frame(FrameError),
    /// Demultiplexer failure (wire decode, protocol order within a
    /// stream).
    Receive(ReceiveError),
    /// Session handshake failure — version mismatch, a first frame that
    /// was not a valid `Hello`, or an unknown/quarantined session token.
    /// Quarantines only the offending connection.
    Handshake(HandshakeError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Backpressure => write!(f, "connection credit exhausted; retry or shed load"),
            Self::Finished(s) => write!(f, "stream#{s} is finished; no more payload may follow"),
            Self::EntryTooLarge { stream, frame_len, max_frame } => write!(
                f,
                "stream#{stream}: entry needs a {frame_len}-byte frame, over max_frame {max_frame}"
            ),
            Self::EntryExceedsWindow { stream, payload_len, window } => write!(
                f,
                "stream#{stream}: {payload_len}-byte entry exceeds the {window}-byte credit window"
            ),
            Self::UnexpectedFrame(what) => write!(f, "unexpected frame at this endpoint: {what}"),
            Self::IncompleteFin { stream, final_seq, applied } => write!(
                f,
                "stream#{stream}: Fin names session seq {final_seq} but only {applied} applied"
            ),
            Self::SequenceGap { expected, got } => {
                write!(f, "session seq gap: expected {expected}, got {got}")
            }
            Self::CreditOverrun { granted, delivered } => {
                write!(f, "credit overrun: {delivered} payload bytes delivered, {granted} granted")
            }
            Self::AckBeyondSent { through_seq, last_seq } => {
                write!(f, "ack through session seq {through_seq} but only {last_seq} sealed")
            }
            Self::Frame(e) => write!(f, "framing error: {e}"),
            Self::Receive(e) => write!(f, "receive error: {e}"),
            Self::Handshake(e) => write!(f, "handshake error: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        Self::Frame(e)
    }
}

impl From<HandshakeError> for NetError {
    fn from(e: HandshakeError) -> Self {
        Self::Handshake(e)
    }
}

impl From<ReceiveError> for NetError {
    fn from(e: ReceiveError) -> Self {
        Self::Receive(e)
    }
}
