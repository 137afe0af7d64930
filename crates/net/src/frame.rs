//! Length-delimited net frames.
//!
//! The byte stream between the two endpoints is a sequence of frames,
//! each `[u32 len LE][u8 kind][fields…]` where `len` counts everything
//! after the length prefix. Ten kinds exist:
//!
//! | Kind | Direction | Carries |
//! |---|---|---|
//! | [`NetFrame::Batch`] | sender → receiver | one flush's entries, numbered consecutively in the session's one sequence space from a base seq: per entry a stream and that stream's `pla-transport` codec bytes |
//! | [`NetFrame::Ack`] | receiver → sender | the session's cumulative ack (`through`) and cumulative connection credit grant (`granted_total`, 0 = no grant due) |
//! | [`NetFrame::Fin`] | sender → receiver | end of one stream, with a session seq at or after its last entry (the last seq sealed when it finished) |
//! | [`NetFrame::Hello`] | sender → receiver | protocol version + session token (0 = new session); **must** be the first frame of a collector or query-server connection |
//! | [`NetFrame::HelloAck`] | receiver → sender | protocol version + issued/confirmed token (0 = refused) + the same `through`/`granted_total` point as an `Ack` |
//! | [`NetFrame::Heartbeat`] | either | liveness probe with a sequence number; the receiver echoes it back |
//! | [`NetFrame::QueryReq`] | reader → query server | one query, opaque `pla-query` wire bytes, tagged with a client-chosen `req_id` |
//! | [`NetFrame::QueryResp`] | query server → reader | the matching result (or typed error), echoing the request's `req_id` |
//! | [`NetFrame::EpochsReq`] | reader → query server | cache-validation probe for the store's per-shard epochs |
//! | [`NetFrame::EpochsResp`] | query server → reader | the store's per-shard epoch counters, echoing the probe's `req_id` |
//!
//! One session is one in-order sender, so one sequence space covers
//! all of its streams. A `Batch` body is a varint entry count and the
//! varint session seq of its first entry (the *base*, at least 1), then
//! per entry the varint stream delta from the previous entry (from 0
//! for the first), the varint payload length and the payload. Entry `i`
//! carries seq `base + i`; streams are non-decreasing. The sender emits
//! one `Batch` per flush, split into several only where one would
//! exceed the peer's `max_frame`. `Ack` and `HelloAck` end in the same
//! two varints, `through` and `granted_total`. Every other integer field
//! is fixed-width little-endian.
//!
//! Entries never split messages: each payload is a self-contained codec
//! unit of one stream (the sender resets its codec per entry, and the
//! entry names its stream; the messages inside never do), so a replayed
//! entry decodes identically whenever it arrives. The sender
//! replays sealed frames byte for byte, and the receiver drops every
//! entry at or below its applied point. The control frames keep the
//! same idempotence discipline: `through` and `granted_total` are
//! cumulative, so a duplicated `Ack` or `HelloAck` is a no-op at the
//! sender, and a duplicated `Hello` or `Heartbeat` is harmless.

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
/// the handshake instead of failing mid-stream; 3 = one cumulative
/// cursor frame per flush, varint `Data` header, `Credit` retired (kind
/// byte 3 is now unknown); 4 = one `Batch` frame per flush replaces the
/// per-segment `Data` frame and the stream header inside its payload
/// (kind byte 1 is now unknown, and so is message tag 5); 5 = one
/// session sequence space (a `Batch` carries a base seq, entries drop
/// their per-stream seq), a single-point `Ack`/`HelloAck` replaces the
/// per-stream cursor lists, and one credit window per connection
/// replaces the per-stream ones.
pub const PROTOCOL_VERSION: u16 = 5;

/// One sequenced entry of a [`Batch`]: a chunk of one stream's wire
/// messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEntry {
    /// The stream the payload belongs to.
    pub stream: u64,
    /// Session sequence number: the batch's base plus the entry's index.
    pub seq: u64,
    /// The stream's `pla-transport` codec bytes, coded from a reset
    /// codec.
    pub payload: Bytes,
}

/// The entries of one [`NetFrame::Batch`], held as their encoded bytes.
/// A decoded batch was validated whole before the decoder returned it,
/// and every [`entries`](Self::entries) payload is a zero-copy slice of
/// the one buffer the decoder copied the frame body into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    count: u64,
    base: u64,
    /// The encoded entries: everything after the base seq.
    body: Bytes,
}

impl Batch {
    /// Packs `entries` (non-decreasing by stream) into one batch whose
    /// first entry carries session seq `base`. An out-of-order list
    /// encodes a wrapped stream delta, and an empty one a zero count;
    /// the peer's decoder refuses either rather than misreads it.
    pub fn from_entries<'a>(base: u64, entries: impl IntoIterator<Item = (u64, &'a [u8])>) -> Self {
        let mut body = BytesMut::new();
        let mut count = 0;
        let mut prev = 0;
        for (stream, payload) in entries {
            debug_assert!(count == 0 || stream >= prev, "batch streams must not descend");
            put_entry(&mut body, stream.wrapping_sub(prev), payload);
            prev = stream;
            count += 1;
        }
        Self { count, base, body: body.freeze() }
    }

    /// The entries in wire order; each payload is a slice of the
    /// batch's one buffer.
    pub fn entries(&self) -> BatchEntries<'_> {
        BatchEntries {
            batch: self,
            reader: BodyReader { body: &self.body, at: 0 },
            stream: 0,
            seq: self.base,
        }
    }
}

/// Iterator over a [`Batch`]'s entries (see [`Batch::entries`]).
pub struct BatchEntries<'a> {
    batch: &'a Batch,
    reader: BodyReader<'a>,
    stream: u64,
    seq: u64,
}

impl Iterator for BatchEntries<'_> {
    type Item = BatchEntry;

    fn next(&mut self) -> Option<BatchEntry> {
        // The bytes were validated when the batch was decoded (or
        // written by `from_entries`), so no read here can fail; a
        // failure would end the iteration, never panic.
        let r = &mut self.reader;
        if r.remaining() == 0 {
            return None;
        }
        self.stream = self.stream.wrapping_add(r.varint().ok()?);
        let len = usize::try_from(r.varint().ok()?).ok().filter(|&n| n <= r.remaining())?;
        let payload = self.batch.body.slice(r.at..r.at + len);
        r.at += len;
        let seq = self.seq;
        self.seq = seq.wrapping_add(1);
        Some(BatchEntry { stream: self.stream, seq, payload })
    }
}

/// One frame of the multiplexed connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetFrame {
    /// One flush's sequenced entries, ordered by stream.
    Batch(Batch),
    /// The session's cumulative control: every entry with
    /// `seq <= through` has been applied, and the sender may have sent
    /// at most `granted_total` payload bytes on the connection since the
    /// session began (0 = no new grant).
    Ack {
        /// Cumulative ack: the session seq applied through.
        through: u64,
        /// Cumulative connection credit grant; 0 announces none.
        granted_total: u64,
    },
    /// The stream is complete; none of its entries has a session seq
    /// above `final_seq`. The sender stages it behind the stream's last
    /// `Batch`.
    Fin {
        /// The finished stream.
        stream: u64,
        /// A session seq at or after its last entry: the last seq the
        /// sender had sealed when the stream finished (0 if none).
        final_seq: u64,
    },
    /// Session open/resume request. Must be the first frame a
    /// collector connection carries; anything else is a handshake
    /// violation that quarantines only that connection.
    Hello {
        /// The sender's wire-protocol version ([`PROTOCOL_VERSION`]).
        version: u16,
        /// Session token from a previous [`NetFrame::HelloAck`], or 0
        /// to request a fresh session.
        token: u64,
    },
    /// Handshake reply: the session is bound (nonzero `token`) or
    /// refused (`token == 0`), with the receiver's cumulative point so a
    /// resuming sender can trim its replay buffer before retransmitting.
    HelloAck {
        /// The receiver's wire-protocol version.
        version: u16,
        /// Issued or confirmed session token; 0 means refused.
        token: u64,
        /// The session seq applied through (0 for a fresh session).
        through: u64,
        /// The current cumulative connection credit grant (0 = none).
        granted_total: u64,
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

// Kind 1 was `Data` (protocol versions 1–3); entries ride in `Batch`.
const KIND_ACK: u8 = 2;
// Kind 3 was `Credit` (protocol versions 1–2); grants ride in `Ack`.
const KIND_FIN: u8 = 4;
const KIND_HELLO: u8 = 5;
const KIND_HELLO_ACK: u8 = 6;
const KIND_HEARTBEAT: u8 = 7;
const KIND_QUERY_REQ: u8 = 8;
const KIND_QUERY_RESP: u8 = 9;
const KIND_EPOCHS_REQ: u8 = 10;
const KIND_EPOCHS_RESP: u8 = 11;
const KIND_BATCH: u8 = 12;

/// The longest LEB128 encoding of a `u64`.
const MAX_VARINT_BYTES: usize = 10;

/// The shortest encoding of one batch entry: two one-byte varints
/// (stream delta, payload length 0).
const MIN_ENTRY_BYTES: usize = 2;

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

/// Writes `v` as an unsigned LEB128 varint at `buf[at..]`, returning
/// the index just past it.
fn write_varint(buf: &mut [u8], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        buf[at] = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    buf[at] = v as u8;
    at + 1
}

fn put_varint(out: &mut BytesMut, v: u64) {
    let mut buf = [0; MAX_VARINT_BYTES];
    let n = write_varint(&mut buf, 0, v);
    out.put_slice(&buf[..n]);
}

/// Bytes [`put_varint`] writes for `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Encoded length of one batch entry whose stream delta is `delta`.
fn entry_len(delta: u64, payload_len: usize) -> usize {
    varint_len(delta) + varint_len(payload_len as u64) + payload_len
}

fn put_entry(out: &mut BytesMut, delta: u64, payload: &[u8]) {
    // The header varints go out as one slice: on the sender's hot path
    // an entry is a few dozen bytes, and each append costs a call.
    let mut head = [0; 2 * MAX_VARINT_BYTES];
    let n = write_varint(&mut head, 0, delta);
    let n = write_varint(&mut head, n, payload.len() as u64);
    out.put_slice(&head[..n]);
    out.put_slice(payload);
}

/// The length prefix of a `Batch` frame of `count` entries from session
/// seq `base` whose encoded entries take `body_len` bytes.
fn batch_len(count: u64, base: u64, body_len: usize) -> usize {
    1 + varint_len(count) + varint_len(base) + body_len
}

fn put_batch_header(out: &mut BytesMut, count: u64, base: u64, body_len: usize) {
    put_u32_le(out, batch_len(count, base, body_len) as u32);
    out.put_u8(KIND_BATCH);
    put_varint(out, count);
    put_varint(out, base);
}

/// The length prefix of the smallest frame an entry can travel in: a
/// `Batch` holding it alone, whose base is the entry's session seq (or
/// any seq at or below it). An entry whose value exceeds the peer's
/// `max_frame` cannot be sent at all.
pub(crate) fn single_entry_frame_len(stream: u64, seq: u64, payload_len: usize) -> usize {
    batch_len(1, seq, entry_len(stream, payload_len))
}

/// The two cumulative varints `Ack` and `HelloAck` end in.
fn put_point(out: &mut BytesMut, through: u64, granted_total: u64) {
    put_varint(out, through);
    put_varint(out, granted_total);
}

/// Packs sequenced entries into sealed `Batch` frames: entries
/// accumulate into the open batch, and a batch is sealed when the next
/// entry would push its length prefix past `max_frame`, or on
/// [`finish`](Self::finish). The sender's one writer of `Batch` frames;
/// the same bytes as [`encode`] of the equivalent [`NetFrame::Batch`].
/// A sealed frame comes back whole, with the session seq of its last
/// entry, ready to stage and to keep for replay.
#[derive(Debug, Default)]
pub(crate) struct BatchWriter {
    body: BytesMut,
    count: u64,
    base: u64,
    prev: u64,
}

impl BatchWriter {
    /// Adds the entry with session seq `seq`, one past the open batch's
    /// last. Streams must not descend within one open batch, and the
    /// entry alone must fit `max_frame` ([`single_entry_frame_len`]).
    /// Returns the batch it sealed to make room, if any.
    pub(crate) fn push(
        &mut self,
        stream: u64,
        seq: u64,
        payload: &[u8],
        max_frame: u32,
    ) -> Option<(u64, Bytes)> {
        debug_assert!(self.count == 0 || stream >= self.prev, "batch streams must not descend");
        debug_assert!(self.count == 0 || seq == self.base + self.count, "seqs must be consecutive");
        let entry = entry_len(stream.wrapping_sub(self.prev), payload.len());
        let sealed = if self.count > 0
            && batch_len(self.count + 1, self.base, self.body.len() + entry) > max_frame as usize
        {
            self.finish()
        } else {
            None
        };
        if self.count == 0 {
            self.base = seq;
        }
        put_entry(&mut self.body, stream.wrapping_sub(self.prev), payload);
        self.prev = stream;
        self.count += 1;
        sealed
    }

    /// Seals the open batch, if it holds any entry.
    pub(crate) fn finish(&mut self) -> Option<(u64, Bytes)> {
        if self.count == 0 {
            return None;
        }
        let len = batch_len(self.count, self.base, self.body.len());
        let mut frame = BytesMut::with_capacity(4 + len);
        put_batch_header(&mut frame, self.count, self.base, self.body.len());
        frame.put_slice(&self.body);
        let last = self.base + self.count - 1;
        self.body.clear();
        self.count = 0;
        self.prev = 0;
        Some((last, frame.freeze()))
    }
}

/// Encodes `frame` onto `out`, returning the encoded length.
pub fn encode(frame: &NetFrame, out: &mut BytesMut) -> usize {
    let before = out.len();
    match frame {
        NetFrame::Batch(batch) => {
            put_batch_header(out, batch.count, batch.base, batch.body.len());
            out.put_slice(&batch.body);
        }
        NetFrame::Ack { through, granted_total } => {
            put_u32_le(out, (1 + varint_len(*through) + varint_len(*granted_total)) as u32);
            out.put_u8(KIND_ACK);
            put_point(out, *through, *granted_total);
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
        NetFrame::HelloAck { version, token, through, granted_total } => {
            let len = 1 + 2 + 8 + varint_len(*through) + varint_len(*granted_total);
            put_u32_le(out, len as u32);
            out.put_u8(KIND_HELLO_ACK);
            out.put_slice(&version.to_le_bytes());
            out.put_u64_le(*token);
            put_point(out, *through, *granted_total);
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

/// A read position over one frame body. Every read is bounds-checked
/// and fails with a typed [`FrameError`] instead of panicking.
struct BodyReader<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> BodyReader<'a> {
    fn remaining(&self) -> usize {
        self.body.len() - self.at
    }

    /// Reads one unsigned LEB128 varint of at most
    /// [`MAX_VARINT_BYTES`] bytes.
    fn varint(&mut self) -> Result<u64, FrameError> {
        let mut v = 0u64;
        for i in 0..MAX_VARINT_BYTES {
            let Some(&b) = self.body.get(self.at) else {
                return Err(FrameError::Malformed("truncated varint"));
            };
            self.at += 1;
            if i == MAX_VARINT_BYTES - 1 {
                if b & 0x80 != 0 {
                    return Err(FrameError::Malformed("varint longer than 10 bytes"));
                }
                if b > 1 {
                    return Err(FrameError::Malformed("varint overflows u64"));
                }
            }
            v |= u64::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                break;
            }
        }
        Ok(v)
    }

    /// Reads the `through`/`granted_total` point that must end exactly
    /// at the end of the body.
    fn point(&mut self) -> Result<(u64, u64), FrameError> {
        let through = self.varint()?;
        let granted_total = self.varint()?;
        if self.remaining() != 0 {
            return Err(FrameError::Malformed("trailing bytes after the ack point"));
        }
        Ok((through, granted_total))
    }

    /// Validates a `Batch` body that must end exactly at the end of the
    /// frame: the count is backed by the bytes (nothing is sized from
    /// it), the base seq is at least 1 and the last entry's seq fits a
    /// `u64`, stream deltas accumulate without overflow, and every
    /// payload lies inside the body. Returns the count, the base and
    /// where the entries start.
    fn batch(&mut self) -> Result<(u64, u64, usize), FrameError> {
        let n = self.varint()?;
        if n == 0 {
            return Err(FrameError::Malformed("batch frame carries no entries"));
        }
        let base = self.varint()?;
        if base == 0 {
            return Err(FrameError::Malformed("batch base seq must be at least 1"));
        }
        if base.checked_add(n - 1).is_none() {
            return Err(FrameError::Malformed("batch seqs run past u64::MAX"));
        }
        if n > (self.remaining() / MIN_ENTRY_BYTES) as u64 {
            return Err(FrameError::Malformed("batch entry count exceeds the frame body"));
        }
        let start = self.at;
        let mut stream = 0u64;
        for _ in 0..n {
            let delta = self.varint()?;
            stream = stream
                .checked_add(delta)
                .ok_or(FrameError::Malformed("batch stream delta overflows u64"))?;
            let len = self.varint()?;
            if len > self.remaining() as u64 {
                return Err(FrameError::Malformed("batch payload runs past the frame body"));
            }
            self.at += len as usize;
        }
        if self.remaining() != 0 {
            return Err(FrameError::Malformed("trailing bytes after the last batch entry"));
        }
        Ok((n, base, start))
    }
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
            KIND_BATCH => {
                let (count, base, start) = BodyReader { body, at: 1 }.batch()?;
                // One copy of the whole body; every entry's payload is a
                // slice of it.
                let body = Bytes::copy_from_slice(&body[start..]);
                NetFrame::Batch(Batch { count, base, body })
            }
            KIND_ACK => {
                let (through, granted_total) = BodyReader { body, at: 1 }.point()?;
                NetFrame::Ack { through, granted_total }
            }
            KIND_FIN => {
                if body.len() != 17 {
                    return Err(FrameError::Malformed("Fin frame must be exactly 17 bytes"));
                }
                NetFrame::Fin {
                    stream: Self::read_u64(body, 1),
                    final_seq: Self::read_u64(body, 9),
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
                if body.len() < 11 {
                    return Err(FrameError::Malformed("HelloAck frame shorter than its header"));
                }
                let (through, granted_total) = BodyReader { body, at: 11 }.point()?;
                NetFrame::HelloAck {
                    version: u16::from_le_bytes(body[1..3].try_into().expect("2 bytes")),
                    token: Self::read_u64(body, 3),
                    through,
                    granted_total,
                }
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

    fn batch(base: u64, entries: &[(u64, &[u8])]) -> NetFrame {
        NetFrame::Batch(Batch::from_entries(base, entries.iter().copied()))
    }

    fn sample_frames() -> Vec<NetFrame> {
        vec![
            batch(1, &[(7, &[9, 8, 7])]),
            NetFrame::Ack { through: 1, granted_total: 65536 },
            NetFrame::Ack { through: 0, granted_total: 0 },
            NetFrame::Ack { through: u64::MAX, granted_total: u64::MAX },
            batch(u64::MAX - 3, &[(0, &[]), (0, &[1]), (5, &[2, 3]), (u64::MAX, &[])]),
            NetFrame::Fin { stream: 7, final_seq: 2 },
            NetFrame::Hello { version: PROTOCOL_VERSION, token: 0 },
            NetFrame::Hello { version: 9, token: u64::MAX },
            NetFrame::HelloAck {
                version: PROTOCOL_VERSION,
                token: 0,
                through: 0,
                granted_total: 0,
            },
            NetFrame::HelloAck {
                version: PROTOCOL_VERSION,
                token: 0xDEAD_BEEF,
                through: 12,
                granted_total: 4096,
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

    fn ack(through: u64, granted_total: u64) -> NetFrame {
        NetFrame::Ack { through, granted_total }
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut values = vec![0, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX];
        values.extend((0..64).map(|b| 1u64 << b));
        for v in values {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "length of {v}");
            let mut r = BodyReader { body: &buf, at: 0 };
            assert_eq!(r.varint(), Ok(v));
            assert_eq!(r.remaining(), 0);
        }
    }

    /// Entries cost their varints: a count and a base seq per batch,
    /// then per entry a stream delta and a payload length — no seq.
    #[test]
    fn data_headers_shrink_to_their_varints() {
        let mut buf = BytesMut::new();
        assert_eq!(encode(&batch(1, &[(7, &[9, 8, 7])]), &mut buf), 4 + 1 + 2 + 2 + 3);
        assert_eq!(&buf[..], &[8, 0, 0, 0, KIND_BATCH, 1, 1, 7, 3, 9, 8, 7]);
        // A repeated stream costs a zero delta; the next stream its
        // distance from the previous one. Entries carry seqs 300..=302.
        buf.clear();
        encode(&batch(300, &[(7, &[9]), (7, &[8]), (300, &[])]), &mut buf);
        assert_eq!(&buf[5..], &[3, 0xAC, 0x02, 7, 1, 9, 0, 1, 8, 0xA5, 0x02, 0]);
        buf.clear();
        assert_eq!(encode(&batch(300, &[(u64::MAX, &[])]), &mut buf), 4 + 1 + 1 + 2 + 10 + 1);
        assert_eq!(single_entry_frame_len(u64::MAX, 300, 0), 1 + 1 + 2 + 10 + 1);
        // One `Ack` per flush: a kind byte and two varints.
        buf.clear();
        assert_eq!(encode(&ack(300, 0), &mut buf), 4 + 1 + 2 + 1);
        assert_eq!(&buf[4..], &[KIND_ACK, 0xAC, 0x02, 0]);
    }

    #[test]
    fn batch_entries_number_from_the_base() {
        let NetFrame::Batch(b) = batch(41, &[(2, &[1]), (2, &[2]), (9, &[])]) else {
            unreachable!()
        };
        let got: Vec<(u64, u64, Vec<u8>)> =
            b.entries().map(|e| (e.stream, e.seq, e.payload.to_vec())).collect();
        assert_eq!(got, [(2, 41, vec![1]), (2, 42, vec![2]), (9, 43, vec![])]);
    }

    /// The sender's writer produces the generic encoder's bytes, and
    /// splits only where one more entry would pass `max_frame`; each
    /// sealed frame reports the seq of its last entry.
    #[test]
    fn batch_writer_splits_at_max_frame_and_matches_encode() {
        let entries: Vec<(u64, u64, Vec<u8>)> =
            (0..12u64).map(|i| (i / 3, 1 + i, vec![i as u8; 5])).collect();
        let mut sealed = Vec::new();
        let mut writer = BatchWriter::default();
        for (stream, seq, payload) in &entries {
            sealed.extend(writer.push(*stream, *seq, payload, 40));
        }
        sealed.extend(writer.finish());
        assert!(writer.finish().is_none(), "nothing left open");
        let mut got = Vec::new();
        for (last, frame) in &sealed {
            let mut dec = FrameDecoder::new(40);
            dec.extend(frame);
            let Some(NetFrame::Batch(b)) = dec.try_next().unwrap() else { panic!("a Batch") };
            assert_eq!(dec.pending(), 0, "one whole frame");
            let mut one = BytesMut::new();
            encode(&NetFrame::Batch(b.clone()), &mut one);
            assert_eq!(&one[..], &frame[..], "the writer's bytes are the encoder's");
            assert!(frame.len() - 4 <= 40, "a {}-byte frame passed max_frame", frame.len());
            got.extend(b.entries().map(|e| (e.stream, e.seq, e.payload.to_vec())));
            assert_eq!(got.last().unwrap().1, *last);
        }
        assert_eq!(got, entries, "every entry once, in order");
        // 7 bytes per entry: 5 entries fit a 40-byte frame, not 6.
        assert_eq!(sealed.len(), 3);
    }

    #[test]
    fn partial_frames_wait_for_more_bytes() {
        let mut buf = BytesMut::new();
        encode(&ack(3, 9), &mut buf);
        let mut dec = FrameDecoder::new(1024);
        for (i, &b) in buf.iter().enumerate() {
            dec.extend(&[b]);
            let got = dec.try_next().unwrap();
            if i + 1 < buf.len() {
                assert_eq!(got, None, "byte {i} must not complete the frame");
            } else {
                assert_eq!(got, Some(ack(3, 9)));
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
        dec.extend(&[super::KIND_FIN, 0]);
        assert!(matches!(dec.try_next(), Err(FrameError::Malformed(_))));

        // An Ack whose grant ends mid-varint.
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&3u32.to_le_bytes());
        dec.extend(&[super::KIND_ACK, 9, 0x80]);
        assert_eq!(dec.try_next(), Err(FrameError::Malformed("truncated varint")));

        // The retired Credit kind is unknown in this version.
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&17u32.to_le_bytes());
        dec.extend(&[3u8; 17]);
        assert_eq!(dec.try_next(), Err(FrameError::BadKind(3)));
    }

    #[test]
    fn malformed_session_frames_are_rejected() {
        // Hello with a truncated token.
        let mut dec = FrameDecoder::new(1024);
        dec.extend(&5u32.to_le_bytes());
        dec.extend(&[super::KIND_HELLO, 1, 0, 0, 0]);
        assert!(matches!(dec.try_next(), Err(FrameError::Malformed(_))));

        // HelloAck whose point stops after `through`.
        let mut dec = FrameDecoder::new(1024);
        let mut body = vec![super::KIND_HELLO_ACK, 1, 0];
        body.extend_from_slice(&7u64.to_le_bytes());
        body.push(3); // `through`, then no grant
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
        encode(&batch(1, &[(1, &[5, 6])]), &mut buf);
        encode(&ack(1, 1), &mut buf);

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
        assert!(matches!(rx.try_next().unwrap(), Some(NetFrame::Batch(_))));
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
        encode(&ack(2, 7), &mut buf);
        let mut dec = FrameDecoder::new(1024);
        for _ in 0..2000 {
            dec.extend(&buf);
            assert!(dec.try_next().unwrap().is_some());
        }
        assert_eq!(dec.pending(), 0);
        assert!(dec.buf.len() < 16 * 1024, "accumulator must compact, got {}", dec.buf.len());
    }
}
