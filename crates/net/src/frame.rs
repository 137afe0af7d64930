//! Length-delimited net frames.
//!
//! The byte stream between the two endpoints is a sequence of frames,
//! each `[u32 len LE][u8 kind][fields…]` where `len` counts everything
//! after the length prefix. Eleven kinds exist:
//!
//! | Kind | Direction | Carries |
//! |---|---|---|
//! | [`NetFrame::Data`] | sender → receiver | one stream's `pla-transport` codec bytes (led by that stream's `StreamFrame` header) plus a per-stream sequence number |
//! | [`NetFrame::Ack`] | receiver → sender | cumulative highest applied sequence number per stream |
//! | [`NetFrame::Credit`] | receiver → sender | cumulative payload-byte grant per stream (flow control) |
//! | [`NetFrame::Fin`] | sender → receiver | end of one stream, with its final sequence number |
//! | [`NetFrame::Hello`] | sender → receiver | protocol version + session token (0 = new session); **must** be the first frame of a session-mode connection |
//! | [`NetFrame::HelloAck`] | receiver → sender | protocol version + issued/confirmed token (0 = refused) + one [`ResumeCursor`] per known stream |
//! | [`NetFrame::Heartbeat`] | either | liveness probe with a sequence number; the receiver echoes it back |
//! | [`NetFrame::QueryReq`] | reader → query server | one query, opaque `pla-query` wire bytes, tagged with a client-chosen `req_id` |
//! | [`NetFrame::QueryResp`] | query server → reader | the matching result (or typed error), echoing the request's `req_id` |
//! | [`NetFrame::EpochsReq`] | reader → query server | cache-validation probe for the store's per-shard epochs |
//! | [`NetFrame::EpochsResp`] | query server → reader | the store's per-shard epoch counters, echoing the probe's `req_id` |
//!
//! Frames never split messages: a `Data` frame's payload is a
//! self-contained codec unit (the sender resets its codec per frame), so
//! a replayed frame decodes identically whenever it arrives — the
//! property the reconnect protocol rests on. The session frames keep
//! the same idempotence discipline: a duplicated `Hello` or `Heartbeat`
//! is harmless, and a replayed `HelloAck` carrying the same token is a
//! no-op at the sender.

use bytes::{BufMut, Bytes, BytesMut};

/// The wire-protocol version this build speaks. Carried by every
/// [`NetFrame::Hello`]/[`NetFrame::HelloAck`]; the receiver refuses any
/// other value with a typed
/// [`HandshakeError::VersionMismatch`](crate::session::HandshakeError::VersionMismatch)
/// instead of guessing at frame semantics it was never built for.
///
/// History: 1 = ingest frames only (Data/Ack/Credit/Fin + session);
/// 2 = adds the query frames (`QueryReq`/`QueryResp`/`EpochsReq`/
/// `EpochsResp`). A version-1 speaker cannot decode kind bytes 8–11,
/// so the bump makes old and new builds refuse each other cleanly at
/// the handshake instead of failing mid-stream.
pub const PROTOCOL_VERSION: u16 = 2;

/// One stream's resume position, carried by [`NetFrame::HelloAck`]: the
/// receiver's cumulative ack point and cumulative credit grant, i.e.
/// everything a replaying sender needs to trim its replay buffer and
/// resume sending — the role `ResumeCursor` plays in the rt-protocol
/// forwarder handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResumeCursor {
    /// The stream the cursor describes.
    pub stream: u64,
    /// Highest `Data` sequence number durably applied (cumulative ack).
    pub through_seq: u64,
    /// Cumulative payload-byte credit grant for the stream.
    pub granted_total: u64,
}

/// One frame of the multiplexed connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetFrame {
    /// A chunk of one stream's wire messages.
    Data {
        /// The stream the payload belongs to.
        stream: u64,
        /// Per-stream sequence number, starting at 1.
        seq: u64,
        /// `pla-transport` codec bytes, beginning with the stream's own
        /// `StreamFrame` header.
        payload: Bytes,
    },
    /// Cumulative acknowledgement: every `Data` frame of `stream` with
    /// `seq <= through_seq` has been applied.
    Ack {
        /// The acknowledged stream.
        stream: u64,
        /// Highest applied sequence number.
        through_seq: u64,
    },
    /// Cumulative flow-control grant: the sender may have sent at most
    /// `granted_total` payload bytes on `stream` since stream birth.
    Credit {
        /// The granted stream.
        stream: u64,
        /// Absolute cumulative byte budget (monotonically increasing).
        granted_total: u64,
    },
    /// The stream is complete; no `Data` frame with `seq > final_seq`
    /// will ever exist.
    Fin {
        /// The finished stream.
        stream: u64,
        /// Sequence number of its last `Data` frame (0 if none).
        final_seq: u64,
    },
    /// Session open/resume request. Must be the first frame a
    /// session-mode connection carries; anything else is a handshake
    /// violation that quarantines only that connection.
    Hello {
        /// The sender's wire-protocol version ([`PROTOCOL_VERSION`]).
        version: u16,
        /// Session token from a previous [`NetFrame::HelloAck`], or 0
        /// to request a fresh session.
        token: u64,
    },
    /// Handshake reply: the session is bound (nonzero `token`) or
    /// refused (`token == 0`), with the receiver's resume cursors so a
    /// resuming sender can trim its replay buffer before retransmitting.
    HelloAck {
        /// The receiver's wire-protocol version.
        version: u16,
        /// Issued or confirmed session token; 0 means refused.
        token: u64,
        /// One cursor per stream the receiver has state for (empty for
        /// a fresh session).
        cursors: Vec<ResumeCursor>,
    },
    /// Liveness probe. The receiver echoes each heartbeat back with the
    /// same sequence number; either side treats a quiet link as dead
    /// once its liveness deadline passes.
    Heartbeat {
        /// Sender-chosen sequence number, echoed verbatim.
        seq: u64,
    },
    /// One query from a remote reader. The body is opaque at this layer
    /// (`pla-query`'s wire codec owns it) so the frame format never
    /// changes when the query language grows.
    QueryReq {
        /// Client-chosen correlation id; the server echoes it verbatim
        /// on the matching [`NetFrame::QueryResp`]. Responses may be
        /// reordered or duplicated across redials — the id, not arrival
        /// order, pairs request with response.
        req_id: u64,
        /// `pla-query` wire-codec bytes describing the query.
        body: Bytes,
    },
    /// The server's answer to one [`NetFrame::QueryReq`]. Carries a
    /// result *or* a typed query error — both ride the opaque body; a
    /// well-formed request never kills the connection.
    QueryResp {
        /// The `req_id` of the request being answered.
        req_id: u64,
        /// `pla-query` wire-codec bytes describing the result or error.
        body: Bytes,
    },
    /// Cache-validation probe: asks the server for its store's
    /// per-shard epoch counters so the client can invalidate exactly
    /// the shards that moved.
    EpochsReq {
        /// Client-chosen correlation id, echoed on the response.
        req_id: u64,
    },
    /// The store's per-shard epochs. Each counter is monotone under a
    /// fixed server; a client observing any epoch *decrease* must drop
    /// its whole cache (the server was replaced).
    EpochsResp {
        /// The `req_id` of the probe being answered.
        req_id: u64,
        /// One monotone append counter per store shard.
        epochs: Vec<u64>,
    },
}

const KIND_DATA: u8 = 1;
const KIND_ACK: u8 = 2;
const KIND_CREDIT: u8 = 3;
const KIND_FIN: u8 = 4;
const KIND_HELLO: u8 = 5;
const KIND_HELLO_ACK: u8 = 6;
const KIND_HEARTBEAT: u8 = 7;
const KIND_QUERY_REQ: u8 = 8;
const KIND_QUERY_RESP: u8 = 9;
const KIND_EPOCHS_REQ: u8 = 10;
const KIND_EPOCHS_RESP: u8 = 11;

/// Bytes per [`ResumeCursor`] in a `HelloAck` body.
const CURSOR_BYTES: usize = 24;

/// Framing-layer errors. Any of these is fatal for the connection (the
/// byte stream is no longer trustworthy); the session layer reconnects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Unknown kind byte.
    BadKind(u8),
    /// The length prefix exceeds the configured maximum — a corrupt
    /// stream or a hostile peer; decoding must not buffer it.
    Oversized {
        /// Declared frame length.
        len: u32,
        /// Configured maximum.
        max: u32,
    },
    /// The declared length does not match the kind's field layout.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadKind(k) => write!(f, "unknown frame kind {k}"),
            Self::Oversized { len, max } => write!(f, "frame length {len} exceeds maximum {max}"),
            Self::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn put_u32_le(out: &mut BytesMut, n: u32) {
    out.put_slice(&n.to_le_bytes());
}

/// Encodes a `Data` frame whose payload is borrowed, returning the
/// encoded length — the same bytes as [`encode`] of the equivalent
/// [`NetFrame::Data`], without first building a [`Bytes`] payload. The
/// sender's hot path encodes every frame this way.
pub fn encode_data(stream: u64, seq: u64, payload: &[u8], out: &mut BytesMut) -> usize {
    put_u32_le(out, (1 + 16 + payload.len()) as u32);
    out.put_u8(KIND_DATA);
    out.put_u64_le(stream);
    out.put_u64_le(seq);
    out.put_slice(payload);
    4 + 1 + 16 + payload.len()
}

/// Encodes `frame` onto `out`, returning the encoded length.
pub fn encode(frame: &NetFrame, out: &mut BytesMut) -> usize {
    let before = out.len();
    match frame {
        NetFrame::Data { stream, seq, payload } => {
            encode_data(*stream, *seq, payload, out);
        }
        NetFrame::Ack { stream, through_seq } => {
            put_u32_le(out, 1 + 16);
            out.put_u8(KIND_ACK);
            out.put_u64_le(*stream);
            out.put_u64_le(*through_seq);
        }
        NetFrame::Credit { stream, granted_total } => {
            put_u32_le(out, 1 + 16);
            out.put_u8(KIND_CREDIT);
            out.put_u64_le(*stream);
            out.put_u64_le(*granted_total);
        }
        NetFrame::Fin { stream, final_seq } => {
            put_u32_le(out, 1 + 16);
            out.put_u8(KIND_FIN);
            out.put_u64_le(*stream);
            out.put_u64_le(*final_seq);
        }
        NetFrame::Hello { version, token } => {
            put_u32_le(out, 1 + 2 + 8);
            out.put_u8(KIND_HELLO);
            out.put_slice(&version.to_le_bytes());
            out.put_u64_le(*token);
        }
        NetFrame::HelloAck { version, token, cursors } => {
            put_u32_le(out, (1 + 2 + 8 + 4 + cursors.len() * CURSOR_BYTES) as u32);
            out.put_u8(KIND_HELLO_ACK);
            out.put_slice(&version.to_le_bytes());
            out.put_u64_le(*token);
            put_u32_le(out, cursors.len() as u32);
            for c in cursors {
                out.put_u64_le(c.stream);
                out.put_u64_le(c.through_seq);
                out.put_u64_le(c.granted_total);
            }
        }
        NetFrame::Heartbeat { seq } => {
            put_u32_le(out, 1 + 8);
            out.put_u8(KIND_HEARTBEAT);
            out.put_u64_le(*seq);
        }
        NetFrame::QueryReq { req_id, body } => {
            put_u32_le(out, (1 + 8 + body.len()) as u32);
            out.put_u8(KIND_QUERY_REQ);
            out.put_u64_le(*req_id);
            out.put_slice(body);
        }
        NetFrame::QueryResp { req_id, body } => {
            put_u32_le(out, (1 + 8 + body.len()) as u32);
            out.put_u8(KIND_QUERY_RESP);
            out.put_u64_le(*req_id);
            out.put_slice(body);
        }
        NetFrame::EpochsReq { req_id } => {
            put_u32_le(out, 1 + 8);
            out.put_u8(KIND_EPOCHS_REQ);
            out.put_u64_le(*req_id);
        }
        NetFrame::EpochsResp { req_id, epochs } => {
            put_u32_le(out, (1 + 8 + 4 + epochs.len() * 8) as u32);
            out.put_u8(KIND_EPOCHS_RESP);
            out.put_u64_le(*req_id);
            put_u32_le(out, epochs.len() as u32);
            for e in epochs {
                out.put_u64_le(*e);
            }
        }
    }
    out.len() - before
}

/// Incremental frame decoder: feed arbitrary byte chunks, pull complete
/// frames. Bytes of a partial frame wait in the accumulator until the
/// rest arrives.
///
/// Deliberately no `Default`: a decoder needs a real `max_frame` bound
/// (a zero bound would reject every frame as oversized).
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    max_frame: u32,
}

impl FrameDecoder {
    /// Creates a decoder enforcing `max_frame` as the largest accepted
    /// length prefix.
    pub fn new(max_frame: u32) -> Self {
        Self { buf: Vec::new(), pos: 0, max_frame }
    }

    /// Appends raw link bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily: reclaim consumed prefix once it dominates.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decodable into a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Discards any partially received frame — called when a connection
    /// dies mid-frame and a fresh link will restart the byte stream.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }

    /// Hands back every buffered-but-undecoded byte and empties the
    /// accumulator. The session handshake uses this to forward bytes
    /// that followed a `Hello` in the same read to the connection's own
    /// receiver once the session is bound.
    pub fn take_remaining(&mut self) -> Vec<u8> {
        let rest = self.buf.split_off(self.pos.min(self.buf.len()));
        self.buf.clear();
        self.pos = 0;
        rest
    }

    fn read_u64(body: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"))
    }

    /// Decodes the next complete frame, if a whole one is buffered.
    pub fn try_next(&mut self) -> Result<Option<NetFrame>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes"));
        if len > self.max_frame {
            return Err(FrameError::Oversized { len, max: self.max_frame });
        }
        if len < 1 {
            return Err(FrameError::Malformed("zero-length frame"));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let body = &avail[4..total];
        let kind = body[0];
        let frame = match kind {
            KIND_DATA => {
                if body.len() < 17 {
                    return Err(FrameError::Malformed("Data frame shorter than its header"));
                }
                NetFrame::Data {
                    stream: Self::read_u64(body, 1),
                    seq: Self::read_u64(body, 9),
                    payload: Bytes::copy_from_slice(&body[17..]),
                }
            }
            KIND_ACK | KIND_CREDIT | KIND_FIN => {
                if body.len() != 17 {
                    return Err(FrameError::Malformed("control frame must be exactly 17 bytes"));
                }
                let stream = Self::read_u64(body, 1);
                let value = Self::read_u64(body, 9);
                match kind {
                    KIND_ACK => NetFrame::Ack { stream, through_seq: value },
                    KIND_CREDIT => NetFrame::Credit { stream, granted_total: value },
                    _ => NetFrame::Fin { stream, final_seq: value },
                }
            }
            KIND_HELLO => {
                if body.len() != 11 {
                    return Err(FrameError::Malformed("Hello frame must be exactly 11 bytes"));
                }
                NetFrame::Hello {
                    version: u16::from_le_bytes(body[1..3].try_into().expect("2 bytes")),
                    token: Self::read_u64(body, 3),
                }
            }
            KIND_HELLO_ACK => {
                if body.len() < 15 {
                    return Err(FrameError::Malformed("HelloAck frame shorter than its header"));
                }
                let version = u16::from_le_bytes(body[1..3].try_into().expect("2 bytes"));
                let token = Self::read_u64(body, 3);
                let n = u32::from_le_bytes(body[11..15].try_into().expect("4 bytes")) as usize;
                if body.len() != 15 + n * CURSOR_BYTES {
                    return Err(FrameError::Malformed(
                        "HelloAck cursor count disagrees with length",
                    ));
                }
                let cursors = (0..n)
                    .map(|i| {
                        let at = 15 + i * CURSOR_BYTES;
                        ResumeCursor {
                            stream: Self::read_u64(body, at),
                            through_seq: Self::read_u64(body, at + 8),
                            granted_total: Self::read_u64(body, at + 16),
                        }
                    })
                    .collect();
                NetFrame::HelloAck { version, token, cursors }
            }
            KIND_HEARTBEAT => {
                if body.len() != 9 {
                    return Err(FrameError::Malformed("Heartbeat frame must be exactly 9 bytes"));
                }
                NetFrame::Heartbeat { seq: Self::read_u64(body, 1) }
            }
            KIND_QUERY_REQ | KIND_QUERY_RESP => {
                if body.len() < 9 {
                    return Err(FrameError::Malformed("query frame shorter than its header"));
                }
                let req_id = Self::read_u64(body, 1);
                let payload = Bytes::copy_from_slice(&body[9..]);
                if kind == KIND_QUERY_REQ {
                    NetFrame::QueryReq { req_id, body: payload }
                } else {
                    NetFrame::QueryResp { req_id, body: payload }
                }
            }
            KIND_EPOCHS_REQ => {
                if body.len() != 9 {
                    return Err(FrameError::Malformed("EpochsReq frame must be exactly 9 bytes"));
                }
                NetFrame::EpochsReq { req_id: Self::read_u64(body, 1) }
            }
            KIND_EPOCHS_RESP => {
                if body.len() < 13 {
                    return Err(FrameError::Malformed("EpochsResp frame shorter than its header"));
                }
                let req_id = Self::read_u64(body, 1);
                let n = u32::from_le_bytes(body[9..13].try_into().expect("4 bytes")) as usize;
                if body.len() != 13 + n * 8 {
                    return Err(FrameError::Malformed(
                        "EpochsResp shard count disagrees with length",
                    ));
                }
                let epochs = (0..n).map(|i| Self::read_u64(body, 13 + i * 8)).collect();
                NetFrame::EpochsResp { req_id, epochs }
            }
            other => return Err(FrameError::BadKind(other)),
        };
        self.pos += total;
        Ok(Some(frame))
    }
}

/// Staged outbound bytes: whole frames are appended, the link drains
/// from the front (partial writes allowed). The same offset-compaction
/// scheme as [`FrameDecoder`].
///
/// Frame boundaries are tracked so callers can tell when the write
/// position sits *inside* a frame — once a frame's prefix has entered
/// the wire, its remaining bytes must go out before any other frame or
/// the peer's decoder desyncs mid-frame.
#[derive(Debug, Default)]
pub struct Outbox {
    buf: Vec<u8>,
    pos: usize,
    /// Lengths of the staged units not yet fully written; the head may
    /// be partially consumed by `head_written` bytes.
    frame_lens: std::collections::VecDeque<usize>,
    head_written: usize,
}

impl Outbox {
    /// Appends encoded frame bytes (one whole frame per call).
    pub fn stage(&mut self, bytes: &[u8]) {
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
        self.frame_lens.push_back(bytes.len());
    }

    /// Bytes not yet handed to the link.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether everything staged has been written.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }

    /// The unwritten bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Marks `n` leading bytes as written.
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.pending());
        self.pos += n;
        self.head_written += n;
        while let Some(&len) = self.frame_lens.front() {
            if self.head_written >= len {
                self.head_written -= len;
                self.frame_lens.pop_front();
            } else {
                break;
            }
        }
    }

    /// The unwritten remainder of a frame whose prefix already entered
    /// the wire, if the write position sits mid-frame. Any rebuild of
    /// this outbox must emit these bytes first to keep the peer's
    /// decoder framed.
    pub fn partial_head(&self) -> Option<&[u8]> {
        if self.head_written == 0 {
            return None;
        }
        let remaining =
            self.frame_lens.front().expect("written bytes imply a head frame") - self.head_written;
        Some(&self.buf[self.pos..self.pos + remaining])
    }

    /// Takes every pending byte at once (manual pumping, tests).
    pub fn take(&mut self) -> Vec<u8> {
        let out = self.buf.split_off(self.pos.min(self.buf.len()));
        self.buf.clear();
        self.pos = 0;
        self.frame_lens.clear();
        self.head_written = 0;
        out
    }

    /// Discards everything staged (a dead link will never receive it;
    /// the reconnect path restages what still matters).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
        self.frame_lens.clear();
        self.head_written = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<NetFrame> {
        vec![
            NetFrame::Data { stream: 7, seq: 1, payload: Bytes::from(vec![9, 8, 7]) },
            NetFrame::Ack { stream: 7, through_seq: 1 },
            NetFrame::Credit { stream: 7, granted_total: 65536 },
            NetFrame::Data { stream: u64::MAX, seq: 2, payload: Bytes::from(vec![]) },
            NetFrame::Fin { stream: 7, final_seq: 2 },
            NetFrame::Hello { version: PROTOCOL_VERSION, token: 0 },
            NetFrame::Hello { version: 9, token: u64::MAX },
            NetFrame::HelloAck { version: PROTOCOL_VERSION, token: 0, cursors: vec![] },
            NetFrame::HelloAck {
                version: PROTOCOL_VERSION,
                token: 0xDEAD_BEEF,
                cursors: vec![
                    ResumeCursor { stream: 3, through_seq: 12, granted_total: 4096 },
                    ResumeCursor { stream: u64::MAX, through_seq: 0, granted_total: 0 },
                ],
            },
            NetFrame::Heartbeat { seq: 41 },
            NetFrame::QueryReq { req_id: 1, body: Bytes::from(vec![1, 2, 3, 4]) },
            NetFrame::QueryReq { req_id: u64::MAX, body: Bytes::from(vec![]) },
            NetFrame::QueryResp { req_id: 1, body: Bytes::from(vec![0xFF; 32]) },
            NetFrame::EpochsReq { req_id: 9 },
            NetFrame::EpochsResp { req_id: 9, epochs: vec![] },
            NetFrame::EpochsResp { req_id: 10, epochs: vec![0, 3, u64::MAX] },
        ]
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = BytesMut::new();
        for f in sample_frames() {
            encode(&f, &mut buf);
        }
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&buf);
        for want in sample_frames() {
            assert_eq!(dec.try_next().unwrap().unwrap(), want);
        }
        assert_eq!(dec.try_next().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut buf = BytesMut::new();
        encode(&NetFrame::Ack { stream: 3, through_seq: 9 }, &mut buf);
        let mut dec = FrameDecoder::new(1024);
        for (i, &b) in buf.iter().enumerate() {
            dec.extend(&[b]);
            let got = dec.try_next().unwrap();
            if i + 1 < buf.len() {
                assert_eq!(got, None, "byte {i} must not complete the frame");
            } else {
                assert_eq!(got, Some(NetFrame::Ack { stream: 3, through_seq: 9 }));
            }
        }
    }

    #[test]
    fn oversized_and_bad_kind_are_typed_errors() {
        let mut dec = FrameDecoder::new(16);
        dec.extend(&100u32.to_le_bytes());
        assert_eq!(dec.try_next(), Err(FrameError::Oversized { len: 100, max: 16 }));

        let mut dec = FrameDecoder::new(1024);
        dec.extend(&1u32.to_le_bytes());
        dec.extend(&[99u8]);
        assert_eq!(dec.try_next(), Err(FrameError::BadKind(99)));
    }

    #[test]
    fn malformed_control_length_is_rejected() {
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&2u32.to_le_bytes());
        dec.extend(&[super::KIND_ACK, 0]);
        assert!(matches!(dec.try_next(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn malformed_session_frames_are_rejected() {
        // Hello with a truncated token.
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&5u32.to_le_bytes());
        dec.extend(&[super::KIND_HELLO, 1, 0, 0, 0]);
        assert!(matches!(dec.try_next(), Err(FrameError::Malformed(_))));

        // HelloAck whose cursor count promises more cursors than the
        // frame carries.
        let mut dec = FrameDecoder::new(1024);
        let mut body = vec![super::KIND_HELLO_ACK, 1, 0];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&3u32.to_le_bytes()); // claims 3 cursors, has 0
        dec.extend(&(body.len() as u32).to_le_bytes());
        dec.extend(&body);
        assert!(matches!(dec.try_next(), Err(FrameError::Malformed(_))));

        // Heartbeat with extra trailing bytes.
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&10u32.to_le_bytes());
        dec.extend(&[super::KIND_HEARTBEAT, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(dec.try_next(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn malformed_query_frames_are_rejected() {
        // QueryReq with a truncated req_id.
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&5u32.to_le_bytes());
        dec.extend(&[super::KIND_QUERY_REQ, 1, 2, 3, 4]);
        assert!(matches!(dec.try_next(), Err(FrameError::Malformed(_))));

        // EpochsReq with trailing bytes.
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&10u32.to_le_bytes());
        dec.extend(&[super::KIND_EPOCHS_REQ, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(dec.try_next(), Err(FrameError::Malformed(_))));

        // EpochsResp whose shard count promises more epochs than the
        // frame carries.
        let mut dec = FrameDecoder::new(1024);
        let mut body = vec![super::KIND_EPOCHS_RESP];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.extend_from_slice(&4u32.to_le_bytes()); // claims 4 epochs, has 0
        dec.extend(&(body.len() as u32).to_le_bytes());
        dec.extend(&body);
        assert!(matches!(dec.try_next(), Err(FrameError::Malformed(_))));
    }

    #[test]
    fn take_remaining_hands_back_undecoded_bytes() {
        let mut buf = BytesMut::new();
        encode(&NetFrame::Hello { version: PROTOCOL_VERSION, token: 0 }, &mut buf);
        let mark = buf.len();
        encode(&NetFrame::Data { stream: 1, seq: 1, payload: Bytes::from(vec![5, 6]) }, &mut buf);
        encode(&NetFrame::Ack { stream: 1, through_seq: 1 }, &mut buf);

        let mut dec = FrameDecoder::new(1024);
        dec.extend(&buf);
        assert!(matches!(dec.try_next().unwrap(), Some(NetFrame::Hello { .. })));
        // Everything after the decoded Hello comes back verbatim so the
        // handshake can forward it to the bound receiver.
        let rest = dec.take_remaining();
        assert_eq!(rest, &buf[mark..]);
        assert_eq!(dec.pending(), 0);

        // The leftovers decode cleanly through a fresh decoder.
        let mut rx = FrameDecoder::new(1024);
        rx.extend(&rest);
        assert!(matches!(rx.try_next().unwrap(), Some(NetFrame::Data { .. })));
        assert!(matches!(rx.try_next().unwrap(), Some(NetFrame::Ack { .. })));
        assert_eq!(rx.try_next().unwrap(), None);
    }

    #[test]
    fn reset_discards_partial_frames() {
        let mut buf = BytesMut::new();
        encode(&NetFrame::Fin { stream: 1, final_seq: 4 }, &mut buf);
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&buf[..buf.len() - 3]);
        assert_eq!(dec.try_next().unwrap(), None);
        assert!(dec.pending() > 0);
        dec.reset();
        assert_eq!(dec.pending(), 0);
        // A fresh, complete frame decodes cleanly after the reset.
        dec.extend(&buf);
        assert_eq!(dec.try_next().unwrap(), Some(NetFrame::Fin { stream: 1, final_seq: 4 }));
    }

    #[test]
    fn outbox_stages_consumes_and_compacts() {
        let mut out = Outbox::default();
        out.stage(b"abc");
        out.stage(b"def");
        assert_eq!(out.pending(), 6);
        assert_eq!(out.as_bytes(), b"abcdef");
        out.consume(4);
        assert_eq!(out.as_bytes(), b"ef");
        let rest = out.take();
        assert_eq!(rest, b"ef");
        assert!(out.is_empty());
        // Compaction keeps memory bounded under sustained traffic.
        for _ in 0..5000 {
            out.stage(&[7u8; 8]);
            out.consume(8);
        }
        assert!(out.is_empty());
        assert!(out.buf.len() < 16 * 1024, "outbox must compact, got {}", out.buf.len());
    }

    #[test]
    fn accumulator_compacts_without_losing_data() {
        let mut buf = BytesMut::new();
        encode(&NetFrame::Credit { stream: 2, granted_total: 7 }, &mut buf);
        let mut dec = FrameDecoder::new(1024);
        for _ in 0..2000 {
            dec.extend(&buf);
            assert!(dec.try_next().unwrap().is_some());
        }
        assert_eq!(dec.pending(), 0);
        assert!(dec.buf.len() < 16 * 1024, "accumulator must compact, got {}", dec.buf.len());
    }
}
