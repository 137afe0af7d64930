//! # pla-net — async multiplexed transport for PLA segment streams
//!
//! The paper's transmitter/receiver model (§1–2) assumes one reliable
//! point-to-point link per stream. A deployment serving millions of
//! streams cannot afford that: many transmitters share few connections,
//! and the transport must multiplex them with explicit flow control and
//! recovery. This crate is that layer:
//!
//! * [`runtime`] — a minimal vendored-style futures runtime (same
//!   offline policy as `vendor/`): a single-threaded executor that parks
//!   until its next timer, timers, and `block_on`. No external
//!   dependencies.
//! * [`link`] — the byte-pipe abstraction the transport runs over:
//!   [`MemoryLink`] (in-process, capacity-bounded, severable — the
//!   deterministic test substrate) and [`TcpLink`] (non-blocking
//!   `std::net::TcpStream`).
//! * [`frame`] — length-delimited net frames (`Batch`/`Ack`/`Fin` plus
//!   the session and query frames) wrapping `pla-transport`'s wire
//!   encoding; one `Batch` frame carries a flush's sequenced entries,
//!   each one stream's messages with its stream id and per-stream
//!   sequence number, and one `Ack` frame carries every stream's
//!   cumulative ack and credit cursor for a flush.
//! * [`credit`] — cumulative-offset per-stream flow control (the QUIC
//!   `MAX_STREAM_DATA` shape): the receiver grants an absolute byte
//!   budget per stream, the sender never exceeds it, and a saturated
//!   stream surfaces [`NetError::Backpressure`] to the caller — the same
//!   contract as `pla_ingest::IngestHandle::try_push`.
//! * [`MuxSender`] / [`NetReceiver`] — the two connection endpoints as
//!   *sans-I/O* state machines: bytes in, bytes out, no sockets inside,
//!   so every protocol path is unit-testable deterministically. The
//!   receiver feeds `pla_transport::StreamDemux`, which rebuilds one
//!   segment log per stream.
//! * [`session`] — the one way a connection comes back: a
//!   [`SessionSender`] redials on its own and resumes by session token.
//!   The resume `HelloAck` carries the receiver's cumulative ack/credit
//!   cursors, the sender replays exactly its un-acknowledged tail, and
//!   the receiver drops replayed duplicates by sequence number
//!   ([`StreamDemux::consume_sequenced`](pla_transport::StreamDemux::consume_sequenced)),
//!   so the reconstruction is byte-identical to an uninterrupted run.
//! * [`collector`] — the base-station side: a [`Collector`] funnels many
//!   accepted sessions into one shared `SegmentStore`.
//! * [`uplink`] — the `pla-ingest` integration: an engine's live segment
//!   tap flows straight out over one multiplexed connection.
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

pub use collector::{drive_collector, Collector, CollectorStats, ConnId, ConnStats};
pub use link::{Link, MemoryLink, TcpLink};
pub use listen::{Acceptor, MemoryAcceptor, MemoryConnector, TcpAcceptor};
pub use mux::{MuxSender, SendStreamStats};
pub use receiver::{NetReceiver, ReceiverStats};
pub use session::{HandshakeError, MemoryRedial, Redial, SessionConfig, SessionSender, TcpRedial};

use crate::frame::FrameError;
use pla_transport::ReceiveError;

/// Connection-level configuration shared by both endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Initial (and steady-state) per-stream credit window in payload
    /// bytes. Both sides must agree on it: the sender starts with this
    /// budget implicitly granted, and the receiver keeps topping the
    /// grant up to `delivered + window` as it consumes.
    pub window: u64,
    /// Maximum accepted frame length in bytes (guards the decoder
    /// against a corrupt or hostile length prefix).
    pub max_frame: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self { window: 64 * 1024, max_frame: 1024 * 1024 }
    }
}

/// Errors surfaced by the transport endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The stream's credit window cannot cover this payload right now;
    /// retry after the receiver grants more (or shed load), exactly like
    /// `pla_ingest::IngestError::Backpressure`.
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
    /// The peer sent a frame kind this endpoint never accepts (e.g.
    /// `Batch` arriving at the sender).
    UnexpectedFrame(&'static str),
    /// A `Fin` arrived before every one of the stream's entries was
    /// applied — impossible on an ordered connection unless frames were
    /// lost.
    IncompleteFin {
        /// The stream being finished.
        stream: u64,
        /// The sender's declared final sequence number.
        final_seq: u64,
        /// The highest sequence number actually applied.
        applied: u64,
    },
    /// The receiver acknowledged an entry this sender never
    /// produced. A cumulative ack licenses the sender to discard its
    /// replay copies, so one that overshoots can only come from a
    /// corrupt or confused peer; the connection is failed rather than
    /// trusted.
    AckBeyondSent {
        /// The acknowledged stream.
        stream: u64,
        /// The acknowledged sequence number.
        through_seq: u64,
        /// The sequence number of the last entry actually sent.
        last_seq: u64,
    },
    /// Framing-layer failure (bad kind byte, oversized length prefix).
    Frame(FrameError),
    /// Demultiplexer failure (wire decode, protocol order, sequence
    /// gap).
    Receive(ReceiveError),
    /// Session handshake failure — version mismatch, a first frame that
    /// was not a valid `Hello`, or an unknown/quarantined session token.
    /// Quarantines only the offending connection.
    Handshake(HandshakeError),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Backpressure => write!(f, "stream credit exhausted; retry or shed load"),
            Self::Finished(s) => write!(f, "stream#{s} is finished; no more payload may follow"),
            Self::EntryTooLarge { stream, frame_len, max_frame } => write!(
                f,
                "stream#{stream}: entry needs a {frame_len}-byte frame, over max_frame {max_frame}"
            ),
            Self::UnexpectedFrame(what) => write!(f, "unexpected frame at this endpoint: {what}"),
            Self::IncompleteFin { stream, final_seq, applied } => write!(
                f,
                "stream#{stream}: Fin declares final seq {final_seq} but only {applied} applied"
            ),
            Self::AckBeyondSent { stream, through_seq, last_seq } => {
                write!(f, "stream#{stream}: ack through seq {through_seq} but only {last_seq} sent")
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
