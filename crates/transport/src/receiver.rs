//! The receiver: byte stream → reconstructed segments + lag tracking.
//!
//! Two receivers share one reconstruction state machine ([`Assembler`]):
//!
//! * [`Receiver`] — the paper's single-stream endpoint. A
//!   [`StreamFrame`](Message::StreamFrame) header arriving here is a
//!   protocol violation: the sender is multiplexing and the bytes must go
//!   through a demultiplexer instead.
//! * [`StreamDemux`] — the multi-stream endpoint, producing one segment
//!   log per stream: [`consume`](StreamDemux::consume) applies every
//!   message to the stream named by the most recent frame header, and
//!   [`consume_sequenced`](StreamDemux::consume_sequenced) and
//!   [`consume_next`](StreamDemux::consume_next) apply one header-less
//!   entry to the stream their caller names.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use bytes::{Buf, Bytes};

use pla_core::{DimVec, Segment};

use crate::wire::{Codec, Message, WireError};

/// Errors raised by the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReceiveError {
    /// Decoding failed.
    Wire(WireError),
    /// Messages arrived in an order no transmitter produces (e.g. an
    /// `End` with no open segment).
    Protocol(&'static str),
    /// A sequenced frame skipped ahead: frames for one stream must arrive
    /// in contiguous sequence order (duplicates are tolerated and
    /// dropped; gaps mean the transport lost data).
    SequenceGap {
        /// The stream whose sequence jumped.
        stream: u64,
        /// The sequence number the demultiplexer expected next.
        expected: u64,
        /// The sequence number that actually arrived.
        got: u64,
    },
}

impl std::fmt::Display for ReceiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            Self::SequenceGap { stream, expected, got } => {
                write!(f, "stream#{stream}: expected frame seq {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ReceiveError {}

impl From<WireError> for ReceiveError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// The per-stream reconstruction state machine: wire messages in,
/// [`Segment`]s out. One per connection in [`Receiver`], one per stream in
/// [`StreamDemux`].
#[derive(Debug)]
struct Assembler {
    /// Reconstructed segments not yet drained
    /// ([`StreamDemux::drain_segments`]); the whole log for a consumer
    /// that never drains.
    segments: Vec<Segment>,
    /// Open piece-wise-linear segment start, with its "came from an End"
    /// connectedness flag.
    open: Option<(f64, DimVec<f64>, bool)>,
    /// Active piece-wise-constant hold.
    hold: Option<(f64, DimVec<f64>)>,
    /// Highest time the reconstruction covers; `f64::INFINITY` while a
    /// hold or provisional line allows forward extrapolation.
    covered: f64,
    provisionals: u64,
    messages: u64,
    /// One past the entries applied so far (see
    /// [`StreamDemux::consume_sequenced`], whose next expected sequence
    /// number it is, and [`StreamDemux::consume_next`]); stays 1 for
    /// streams only ever fed through plain [`StreamDemux::consume`].
    next_seq: u64,
}

impl Default for Assembler {
    fn default() -> Self {
        Self {
            segments: Vec::new(),
            open: None,
            hold: None,
            covered: f64::NEG_INFINITY,
            provisionals: 0,
            messages: 0,
            next_seq: 1,
        }
    }
}

impl Assembler {
    fn covered_finite(&self) -> f64 {
        if self.covered.is_finite() {
            self.covered
        } else {
            f64::NEG_INFINITY
        }
    }

    fn close_hold(&mut self, at: f64) {
        if let Some((t0, x)) = self.hold.take() {
            self.segments.push(constant_segment(t0, at, x));
        }
    }

    /// Closes any active hold at the end of the stream.
    fn flush(&mut self) {
        if let Some((t0, x)) = self.hold.take() {
            self.segments.push(constant_segment(t0, t0.max(self.covered_finite()), x));
        }
    }

    /// Applies one payload message. Frame headers never reach here — both
    /// receivers intercept them first.
    fn apply(&mut self, msg: Message) -> Result<(), ReceiveError> {
        self.messages += 1;
        match msg {
            Message::Hold { t, x } => {
                self.close_hold(t);
                self.open = None;
                self.hold = Some((t, x));
                self.covered = f64::INFINITY;
            }
            Message::Start { t, x } => {
                self.close_hold(t);
                if self.covered < t {
                    self.covered = t;
                }
                self.open = Some((t, x, false));
            }
            Message::End { t, x } => {
                let (t0, x0, connected) = self
                    .open
                    .take()
                    .ok_or(ReceiveError::Protocol("End without an open segment"))?;
                if t < t0 {
                    return Err(ReceiveError::Protocol("segment runs backwards"));
                }
                self.segments.push(Segment {
                    t_start: t0,
                    x_start: x0,
                    t_end: t,
                    x_end: x.clone(),
                    connected,
                    n_points: 0,
                    new_recordings: if connected { 1 } else { 2 },
                });
                self.covered = t;
                // A connected successor may begin at this endpoint.
                self.open = Some((t, x, true));
            }
            Message::Point { t, x } => {
                self.close_hold(t);
                self.open = None;
                self.segments.push(Segment {
                    t_start: t,
                    x_start: x.clone(),
                    t_end: t,
                    x_end: x,
                    connected: false,
                    n_points: 1,
                    new_recordings: 1,
                });
                self.covered = t;
            }
            Message::Provisional { .. } => {
                // The committed line lets the receiver extrapolate until
                // the segment's end recording arrives.
                self.provisionals += 1;
                self.covered = f64::INFINITY;
            }
            Message::StreamFrame { .. } => {
                unreachable!("frame headers are intercepted before apply")
            }
        }
        Ok(())
    }
}

/// Reconstructs segments from the transmitter's byte stream.
///
/// The receiver is *online*: [`consume`](Self::consume) may be called with
/// arbitrary byte chunks as they arrive (chunks must split on message
/// boundaries, which the paired [`Transmitter`](crate::Transmitter)
/// guarantees per drained batch). Reconstructed segments accumulate in
/// [`segments`](Self::segments); [`covered_through`](Self::covered_through)
/// reports how far the reconstruction currently reaches.
pub struct Receiver<C> {
    codec: C,
    dims: usize,
    asm: Assembler,
}

impl<C: Codec> Receiver<C> {
    /// Creates a receiver for `dims`-dimensional streams.
    pub fn new(codec: C, dims: usize) -> Self {
        Self { codec, dims, asm: Assembler::default() }
    }

    /// Segments reconstructed so far.
    pub fn segments(&self) -> &[Segment] {
        &self.asm.segments
    }

    /// Takes ownership of the reconstructed segments.
    pub fn into_segments(mut self) -> Vec<Segment> {
        self.flush();
        self.asm.segments
    }

    /// Highest timestamp the receiver can currently represent.
    pub fn covered_through(&self) -> f64 {
        self.asm.covered
    }

    /// Provisional updates received.
    pub fn provisionals(&self) -> u64 {
        self.asm.provisionals
    }

    /// Messages received.
    pub fn messages(&self) -> u64 {
        self.asm.messages
    }

    /// Decodes and applies every message in `bytes`.
    pub fn consume(&mut self, mut bytes: Bytes) -> Result<(), ReceiveError> {
        while bytes.remaining() > 0 {
            let msg = self.codec.decode(&mut bytes, self.dims)?;
            if matches!(msg, Message::StreamFrame { .. }) {
                return Err(ReceiveError::Protocol(
                    "StreamFrame on a single-stream receiver; use StreamDemux",
                ));
            }
            self.asm.apply(msg)?;
        }
        Ok(())
    }

    /// Closes any active hold at the end of the stream.
    pub fn flush(&mut self) {
        self.asm.flush();
    }
}

/// Demultiplexes one multi-stream connection into per-stream segment logs.
///
/// The transmitter interleaves [`Message::StreamFrame`] headers with
/// ordinary messages; every payload message is applied to the stream named
/// by the most recent header. Stream ids match `pla-ingest`'s `StreamId`
/// (the engine's per-shard fan-in log is exactly the feed a multiplexing
/// sender walks).
///
/// ```
/// use bytes::BytesMut;
/// use pla_transport::wire::{Codec, FixedCodec, Message};
/// use pla_transport::StreamDemux;
///
/// let mut codec = FixedCodec;
/// let mut buf = BytesMut::new();
/// for msg in [
///     Message::StreamFrame { stream: 7 },
///     Message::Start { t: 0.0, x: [0.0].into() },
///     Message::StreamFrame { stream: 9 },
///     Message::Point { t: 0.0, x: [5.0].into() },
///     Message::StreamFrame { stream: 7 },
///     Message::End { t: 4.0, x: [8.0].into() },
/// ] {
///     codec.encode(&msg, 1, &mut buf);
/// }
/// let mut demux = StreamDemux::new(FixedCodec, 1);
/// demux.consume(buf.freeze()).unwrap();
/// assert_eq!(demux.streams().collect::<Vec<_>>(), vec![7, 9]);
/// assert_eq!(demux.segments(7).unwrap().len(), 1);
/// assert_eq!(demux.segments(9).unwrap().len(), 1);
/// ```
///
/// Each stream's slot also holds a caller-defined `T` (default `()`),
/// reached through the same map lookup that applies an entry
/// ([`consume_next`](Self::consume_next)): a transport that keeps its
/// own per-stream bookkeeping beside the reconstruction pays one lookup
/// per entry, not one per table.
pub struct StreamDemux<C, T = ()> {
    codec: C,
    dims: usize,
    current: Option<u64>,
    streams: BTreeMap<u64, (Assembler, T)>,
    frames: u64,
}

/// What [`StreamDemux::consume_sequenced`] did with a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqOutcome {
    /// The frame was new and its messages were applied.
    Applied,
    /// The frame's sequence number was already applied (a replay after
    /// reconnect); its bytes were dropped without touching any state.
    Duplicate,
}

impl<C: Codec> StreamDemux<C> {
    /// Creates a demultiplexer for `dims`-dimensional streams.
    pub fn new(codec: C, dims: usize) -> Self {
        Self::with_slots(codec, dims)
    }
}

impl<C: Codec, T: Default> StreamDemux<C, T> {
    /// Creates a demultiplexer whose stream slots each carry a `T`
    /// (starting at `T::default()`).
    pub fn with_slots(codec: C, dims: usize) -> Self {
        Self { codec, dims, current: None, streams: BTreeMap::new(), frames: 0 }
    }

    /// Decodes and applies every message in `bytes`, routing by the
    /// interleaved frame headers.
    ///
    /// A payload message arriving before any `StreamFrame` is a protocol
    /// violation: nothing says which stream it belongs to.
    pub fn consume(&mut self, mut bytes: Bytes) -> Result<(), ReceiveError> {
        while bytes.remaining() > 0 {
            let msg = self.codec.decode(&mut bytes, self.dims)?;
            if let Message::StreamFrame { stream } = msg {
                self.frames += 1;
                self.current = Some(stream);
                self.streams.entry(stream).or_default();
                continue;
            }
            let stream = self
                .current
                .ok_or(ReceiveError::Protocol("payload message before any StreamFrame"))?;
            self.streams.get_mut(&stream).expect("current stream is registered").0.apply(msg)?;
        }
        Ok(())
    }

    /// Applies one *sequenced entry*: a self-contained chunk of one
    /// stream's codec bytes, tagged with a per-stream sequence number.
    /// This is the resumable-delivery entry point for a transport that
    /// sequences each stream on its own: after a reconnect the sender
    /// replays every unacknowledged entry, and the sequence numbers let
    /// this side drop the ones it already applied, so the reconstruction
    /// is identical to an uninterrupted run. (`pla-net` sequences a
    /// whole session instead and uses [`consume_next`](Self::consume_next).)
    ///
    /// The contract, enforced here:
    ///
    /// * `seq` starts at 1 and increments by 1 per entry per stream.
    ///   `seq < expected` is a replay → [`SeqOutcome::Duplicate`], bytes
    ///   dropped untouched. `seq > expected` means the transport lost an
    ///   entry → [`ReceiveError::SequenceGap`].
    /// * The payload holds at least one message, all for `stream`: the
    ///   entry names its stream, so a [`Message::StreamFrame`] inside
    ///   the payload is a protocol error (one entry, one stream —
    ///   otherwise dropping a duplicate would also drop other streams'
    ///   messages).
    /// * Each entry is decoded from a fresh codec state
    ///   ([`Codec::reset`]), so replayed entries decode identically no
    ///   matter what was decoded in between.
    ///
    /// On any error the entry is *not* counted as applied (the ack point
    /// stays put), and a stream the refused entry would have introduced
    /// is not registered.
    pub fn consume_sequenced(
        &mut self,
        stream: u64,
        seq: u64,
        bytes: Bytes,
    ) -> Result<SeqOutcome, ReceiveError> {
        if seq == 0 {
            return Err(ReceiveError::Protocol("frame sequence numbers start at 1"));
        }
        // One map lookup serves the sequence check and the apply: the
        // expected sequence number lives in the stream's own assembler.
        let (codec, dims) = (&mut self.codec, self.dims);
        let (slot, fresh) = match self.streams.entry(stream) {
            Entry::Occupied(e) => (e.into_mut(), false),
            Entry::Vacant(e) => (e.insert(Default::default()), true),
        };
        let expected = slot.0.next_seq;
        if seq < expected {
            return Ok(SeqOutcome::Duplicate);
        }
        let result = if seq > expected {
            Err(ReceiveError::SequenceGap { stream, expected, got: seq })
        } else {
            apply_entry(codec, dims, &mut slot.0, bytes)
        };
        if result.is_err() && fresh {
            self.streams.remove(&stream);
        }
        result.map(|()| SeqOutcome::Applied)
    }

    /// Applies `stream`'s next entry — the same contract as
    /// [`consume_sequenced`](Self::consume_sequenced) minus the
    /// per-stream sequence number, for a transport that orders and
    /// dedups entries itself (`pla-net` numbers entries per session) —
    /// and hands back the stream's slot from the same lookup.
    ///
    /// On any error the entry does not count as applied, and a stream
    /// the refused entry would have introduced is not registered.
    pub fn consume_next(&mut self, stream: u64, bytes: Bytes) -> Result<&mut T, ReceiveError> {
        let (codec, dims) = (&mut self.codec, self.dims);
        match self.streams.entry(stream) {
            Entry::Occupied(e) => {
                let slot = e.into_mut();
                apply_entry(codec, dims, &mut slot.0, bytes)?;
                Ok(&mut slot.1)
            }
            Entry::Vacant(e) => {
                let mut asm = Assembler::default();
                apply_entry(codec, dims, &mut asm, bytes)?;
                Ok(&mut e.insert((asm, T::default())).1)
            }
        }
    }

    /// `stream`'s slot, if the stream is known.
    pub fn slot(&self, stream: u64) -> Option<&T> {
        self.streams.get(&stream).map(|(_, slot)| slot)
    }

    /// `stream`'s slot, registering the stream (with an empty log) if
    /// it is new.
    pub fn slot_mut(&mut self, stream: u64) -> &mut T {
        &mut self.streams.entry(stream).or_default().1
    }

    /// Every stream's slot, ascending by stream.
    pub fn slots(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.streams.iter().map(|(&id, (_, slot))| (id, slot))
    }

    /// Entries applied for `stream` (0 when none). Under
    /// [`consume_sequenced`](Self::consume_sequenced) that is the highest
    /// sequence number applied — the cumulative acknowledgement point a
    /// transport should report back to the sender.
    pub fn ack_point(&self, stream: u64) -> u64 {
        self.streams.get(&stream).map_or(0, |(asm, _)| asm.next_seq - 1)
    }

    /// Stream ids seen so far, ascending.
    pub fn streams(&self) -> impl Iterator<Item = u64> + '_ {
        self.streams.keys().copied()
    }

    /// Flushes one stream's reconstruction — closes its active hold, if
    /// any, appending the trailing constant segment to its log.
    ///
    /// [`into_segment_logs`](Self::into_segment_logs) does this for
    /// every stream at teardown; an *incremental* consumer (pla-net's
    /// collector publishes segments into a shared store as they
    /// reconstruct) calls this per stream the moment that stream's
    /// end-of-stream marker arrives, so the published log matches what
    /// a dedicated single-stream [`Receiver::into_segments`] would have
    /// produced. Flushing a stream mid-flight is *not* idempotent in
    /// effect (a later `Hold` would open a new hold), so callers flush
    /// only streams that are complete. Unknown streams are a no-op.
    pub fn flush_stream(&mut self, stream: u64) {
        if let Some((asm, _)) = self.streams.get_mut(&stream) {
            asm.flush();
        }
    }

    /// Segments reconstructed for one stream and not yet moved out by
    /// [`drain_segments`](Self::drain_segments) — the whole log for a
    /// consumer that never drains (`None` if no frame header ever named
    /// the stream).
    pub fn segments(&self, stream: u64) -> Option<&[Segment]> {
        self.streams.get(&stream).map(|(a, _)| a.segments.as_slice())
    }

    /// Moves `stream`'s reconstructed segments onto the end of `out`, in
    /// order, leaving its log empty (its capacity is kept for the
    /// segments to come). An incremental consumer — pla-net's collector
    /// publishing into a shared store — drains instead of copying, so the
    /// demultiplexer only ever holds what it has not handed on yet.
    /// Unknown streams are a no-op.
    pub fn drain_segments(&mut self, stream: u64, out: &mut Vec<Segment>) {
        self.drain_segments_flushing_if(stream, out, |_| false);
    }

    /// [`drain_segments`](Self::drain_segments), first closing the
    /// stream's trailing hold ([`flush_stream`](Self::flush_stream)) when
    /// `complete` says its slot marks the stream finished — one map
    /// lookup for both. The flush is a no-op on a stream with no open
    /// hold, so a replayed end-of-stream marker may drain it again.
    /// Unknown streams are a no-op.
    pub fn drain_segments_flushing_if(
        &mut self,
        stream: u64,
        out: &mut Vec<Segment>,
        complete: impl FnOnce(&T) -> bool,
    ) {
        if let Some((asm, slot)) = self.streams.get_mut(&stream) {
            if complete(slot) {
                asm.flush();
            }
            out.append(&mut asm.segments);
        }
    }

    /// Highest timestamp the reconstruction of `stream` reaches.
    pub fn covered_through(&self, stream: u64) -> Option<f64> {
        self.streams.get(&stream).map(|(a, _)| a.covered)
    }

    /// `StreamFrame` headers seen by [`consume`](Self::consume).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Payload messages applied across all streams (frame headers not
    /// counted).
    pub fn messages(&self) -> u64 {
        self.streams.values().map(|(a, _)| a.messages).sum()
    }

    /// Flushes every stream and hands back the per-stream segment logs
    /// (what has not been drained), ordered by stream id.
    pub fn into_segment_logs(self) -> BTreeMap<u64, Vec<Segment>> {
        self.streams
            .into_iter()
            .map(|(id, (mut asm, _))| {
                asm.flush();
                (id, asm.segments)
            })
            .collect()
    }
}

/// Decodes one header-less entry from a reset codec and applies it to
/// `asm`, counting it in `asm.next_seq`. On any error the entry counts
/// as not applied.
fn apply_entry<C: Codec>(
    codec: &mut C,
    dims: usize,
    asm: &mut Assembler,
    mut bytes: Bytes,
) -> Result<(), ReceiveError> {
    if bytes.remaining() == 0 {
        return Err(ReceiveError::Protocol("sequenced entry carries no messages"));
    }
    // Entries are coded independently (the sender resets its codec per
    // entry) so a replay decodes byte-identically regardless of what
    // arrived in between.
    codec.reset();
    while bytes.remaining() > 0 {
        let msg = codec.decode(&mut bytes, dims)?;
        if matches!(msg, Message::StreamFrame { .. }) {
            return Err(ReceiveError::Protocol("StreamFrame header inside a sequenced entry"));
        }
        asm.apply(msg)?;
    }
    asm.next_seq += 1;
    Ok(())
}

fn constant_segment(t0: f64, t1: f64, x: DimVec<f64>) -> Segment {
    Segment {
        t_start: t0,
        x_start: x.clone(),
        t_end: t1.max(t0),
        x_end: x,
        connected: false,
        n_points: 0,
        new_recordings: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{CompactCodec, FixedCodec};
    use bytes::BytesMut;

    fn encode(msgs: &[Message], dims: usize) -> Bytes {
        let mut codec = FixedCodec;
        let mut buf = BytesMut::new();
        for m in msgs {
            codec.encode(m, dims, &mut buf);
        }
        buf.freeze()
    }

    #[test]
    fn flush_stream_closes_only_that_streams_hold() {
        let mut demux = StreamDemux::new(FixedCodec, 1);
        demux
            .consume(encode(
                &[
                    Message::StreamFrame { stream: 1 },
                    Message::Hold { t: 0.0, x: [4.0].into() },
                    Message::StreamFrame { stream: 2 },
                    Message::Hold { t: 0.0, x: [9.0].into() },
                ],
                1,
            ))
            .unwrap();
        assert_eq!(demux.segments(1).unwrap().len(), 0, "hold still open");
        demux.flush_stream(1);
        assert_eq!(demux.segments(1).unwrap().len(), 1, "flushed hold became a segment");
        assert_eq!(demux.segments(2).unwrap().len(), 0, "other stream untouched");
        demux.flush_stream(999); // unknown stream: no-op
                                 // The incremental flush matches the teardown flush.
        let logs = demux.into_segment_logs();
        assert_eq!(logs[&1].len(), 1);
        assert_eq!(logs[&2].len(), 1);
    }

    /// `flush_stream` on a stream with no open hold — already flushed,
    /// closed by an explicit `End`, or never carrying a message at all
    /// — must change nothing: the collector calls it when a stream's
    /// end-of-stream marker arrives, and replayed fins after a session
    /// resume hit the same path again.
    #[test]
    fn flush_stream_on_drained_or_empty_streams_changes_nothing() {
        let mut demux = StreamDemux::new(FixedCodec, 1);
        demux
            .consume(encode(
                &[
                    // Stream 1: an open hold to flush twice.
                    Message::StreamFrame { stream: 1 },
                    Message::Hold { t: 0.0, x: [4.0].into() },
                    // Stream 2: closed by an explicit End — no open hold.
                    Message::StreamFrame { stream: 2 },
                    Message::Start { t: 0.0, x: [1.0].into() },
                    Message::End { t: 3.0, x: [2.0].into() },
                    // Stream 3: a frame header and nothing else.
                    Message::StreamFrame { stream: 3 },
                ],
                1,
            ))
            .unwrap();
        demux.flush_stream(1);
        let after_first = demux.segments(1).unwrap().to_vec();
        assert_eq!(after_first.len(), 1);
        demux.flush_stream(1);
        assert_eq!(demux.segments(1).unwrap(), &after_first[..], "second flush is a no-op");
        assert_eq!(demux.covered_through(1), Some(f64::INFINITY), "a hold covers forward");

        let closed = demux.segments(2).unwrap().to_vec();
        assert_eq!(closed.len(), 1, "End already closed the segment");
        demux.flush_stream(2);
        assert_eq!(demux.segments(2).unwrap(), &closed[..], "nothing to flush after End");

        demux.flush_stream(3);
        assert_eq!(demux.segments(3).unwrap(), &[], "an empty stream flushes to nothing");
        assert_eq!(demux.covered_through(3), Some(f64::NEG_INFINITY));

        // Teardown agrees with every incremental answer.
        let logs = demux.into_segment_logs();
        assert_eq!(logs[&1], after_first);
        assert_eq!(logs[&2], closed);
        assert_eq!(logs[&3], vec![]);
    }

    /// The one-lookup publish step: a stream not yet complete keeps its
    /// hold open, a complete one drains it as its trailing segment once,
    /// and draining it again (a replayed end-of-stream marker) moves
    /// nothing.
    #[test]
    fn drain_flushing_if_complete_closes_the_hold_once() {
        let bytes = encode(
            &[
                Message::StreamFrame { stream: 1 },
                Message::Start { t: 0.0, x: [1.0].into() },
                Message::End { t: 3.0, x: [2.0].into() },
                Message::Hold { t: 4.0, x: [5.0].into() },
            ],
            1,
        );
        let mut demux = StreamDemux::new(FixedCodec, 1);
        demux.consume(bytes.clone()).unwrap();
        let mut out = Vec::new();
        demux.drain_segments_flushing_if(1, &mut out, |_| false);
        assert_eq!(out.len(), 1, "the closed segment moves; the hold stays open");
        demux.drain_segments_flushing_if(1, &mut out, |_| true);
        assert_eq!(out.len(), 2, "completion closes the hold into the log");
        demux.drain_segments_flushing_if(1, &mut out, |_| true);
        demux.drain_segments_flushing_if(999, &mut out, |_| true);
        assert_eq!(out.len(), 2, "a second drain and an unknown stream move nothing");
        let mut reference = StreamDemux::new(FixedCodec, 1);
        reference.consume(bytes).unwrap();
        assert_eq!(out, reference.into_segment_logs()[&1], "matches the teardown flush");
    }

    #[test]
    fn start_end_chain_reconstructs_connected_flags() {
        let bytes = encode(
            &[
                Message::Start { t: 0.0, x: [0.0].into() },
                Message::End { t: 5.0, x: [5.0].into() },
                Message::End { t: 9.0, x: [1.0].into() }, // connected
                Message::Start { t: 10.0, x: [7.0].into() },
                Message::End { t: 12.0, x: [8.0].into() },
            ],
            1,
        );
        let mut rx = Receiver::new(FixedCodec, 1);
        rx.consume(bytes).unwrap();
        let segs = rx.segments();
        assert_eq!(segs.len(), 3);
        assert!(!segs[0].connected);
        assert!(segs[1].connected);
        assert_eq!(segs[1].t_start, 5.0);
        assert!(!segs[2].connected);
        assert_eq!(rx.covered_through(), 12.0);
    }

    #[test]
    fn holds_close_on_next_message() {
        let bytes = encode(
            &[
                Message::Hold { t: 0.0, x: [1.0].into() },
                Message::Hold { t: 10.0, x: [2.0].into() },
            ],
            1,
        );
        let mut rx = Receiver::new(FixedCodec, 1);
        rx.consume(bytes).unwrap();
        assert_eq!(rx.covered_through(), f64::INFINITY);
        let segs = rx.into_segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].t_start, 0.0);
        assert_eq!(segs[0].t_end, 10.0);
        assert_eq!(segs[0].x_start[0], 1.0);
    }

    #[test]
    fn end_without_start_is_protocol_error() {
        let bytes = encode(&[Message::End { t: 1.0, x: [0.0].into() }], 1);
        let mut rx = Receiver::new(FixedCodec, 1);
        assert!(matches!(rx.consume(bytes), Err(ReceiveError::Protocol(_))));
    }

    #[test]
    fn provisional_extends_coverage() {
        let bytes = encode(
            &[
                Message::Start { t: 0.0, x: [0.0].into() },
                Message::Provisional {
                    t_anchor: 0.0,
                    x_anchor: [0.0].into(),
                    slopes: [1.0].into(),
                    covers_through: 9.0,
                },
            ],
            1,
        );
        let mut rx = Receiver::new(FixedCodec, 1);
        rx.consume(bytes).unwrap();
        assert_eq!(rx.covered_through(), f64::INFINITY);
        assert_eq!(rx.provisionals(), 1);
    }

    #[test]
    fn incremental_chunks_reassemble() {
        let all = encode(
            &[Message::Start { t: 0.0, x: [0.0].into() }, Message::End { t: 4.0, x: [4.0].into() }],
            1,
        );
        let mut rx = Receiver::new(FixedCodec, 1);
        // one message per chunk (17 bytes each for 1-D fixed codec)
        let mid = all.len() / 2;
        rx.consume(all.slice(0..mid)).unwrap();
        assert_eq!(rx.segments().len(), 0);
        rx.consume(all.slice(mid..)).unwrap();
        assert_eq!(rx.segments().len(), 1);
    }

    #[test]
    fn single_stream_receiver_rejects_frame_headers() {
        let bytes = encode(
            &[Message::StreamFrame { stream: 1 }, Message::Point { t: 0.0, x: [1.0].into() }],
            1,
        );
        let mut rx = Receiver::new(FixedCodec, 1);
        assert!(matches!(rx.consume(bytes), Err(ReceiveError::Protocol(_))));
    }

    #[test]
    fn demux_routes_interleaved_streams() {
        let bytes = encode(
            &[
                Message::StreamFrame { stream: 3 },
                Message::Start { t: 0.0, x: [0.0].into() },
                Message::StreamFrame { stream: 8 },
                Message::Hold { t: 0.0, x: [5.0].into() },
                Message::StreamFrame { stream: 3 },
                Message::End { t: 10.0, x: [10.0].into() },
                Message::End { t: 14.0, x: [6.0].into() }, // still stream 3: connected
                Message::StreamFrame { stream: 8 },
                Message::Hold { t: 20.0, x: [7.0].into() },
            ],
            1,
        );
        let mut demux = StreamDemux::new(FixedCodec, 1);
        demux.consume(bytes).unwrap();
        assert_eq!(demux.streams().collect::<Vec<_>>(), vec![3, 8]);
        assert_eq!(demux.frames(), 4);
        assert_eq!(demux.messages(), 5);
        assert_eq!(demux.covered_through(3), Some(14.0));
        assert_eq!(demux.covered_through(8), Some(f64::INFINITY));
        let logs = demux.into_segment_logs();
        let s3 = &logs[&3];
        assert_eq!(s3.len(), 2);
        assert!(!s3[0].connected);
        assert!(s3[1].connected);
        // Stream 8: two holds, the second flushed at end of stream.
        assert_eq!(logs[&8].len(), 2);
        assert_eq!(logs[&8][0].t_end, 20.0);
    }

    #[test]
    fn demux_requires_a_frame_header_first() {
        let bytes = encode(&[Message::Point { t: 0.0, x: [1.0].into() }], 1);
        let mut demux = StreamDemux::new(FixedCodec, 1);
        assert!(matches!(demux.consume(bytes), Err(ReceiveError::Protocol(_))));
    }

    #[test]
    fn demux_per_stream_state_is_independent() {
        // An End for stream 2 must not see stream 1's open segment.
        let bytes = encode(
            &[
                Message::StreamFrame { stream: 1 },
                Message::Start { t: 0.0, x: [0.0].into() },
                Message::StreamFrame { stream: 2 },
                Message::End { t: 1.0, x: [1.0].into() },
            ],
            1,
        );
        let mut demux = StreamDemux::new(FixedCodec, 1);
        assert!(matches!(demux.consume(bytes), Err(ReceiveError::Protocol(_))));
    }

    /// One sequenced entry's payload: the messages, no stream header.
    fn frame_bytes(msgs: &[Message]) -> Bytes {
        encode(msgs, 1)
    }

    #[test]
    fn sequenced_frames_apply_in_order_and_drop_duplicates() {
        let mut demux = StreamDemux::new(FixedCodec, 1);
        let f1 = frame_bytes(&[Message::Start { t: 0.0, x: [0.0].into() }]);
        let f2 = frame_bytes(&[Message::End { t: 4.0, x: [4.0].into() }]);
        assert_eq!(demux.consume_sequenced(5, 1, f1.clone()).unwrap(), SeqOutcome::Applied);
        assert_eq!(demux.ack_point(5), 1);
        // Replay of frame 1 (e.g. after a reconnect): dropped untouched.
        assert_eq!(demux.consume_sequenced(5, 1, f1).unwrap(), SeqOutcome::Duplicate);
        assert_eq!(demux.ack_point(5), 1);
        assert_eq!(demux.consume_sequenced(5, 2, f2.clone()).unwrap(), SeqOutcome::Applied);
        assert_eq!(demux.consume_sequenced(5, 2, f2).unwrap(), SeqOutcome::Duplicate);
        assert_eq!(demux.ack_point(5), 2);
        let logs = demux.into_segment_logs();
        assert_eq!(logs[&5].len(), 1, "duplicates must not duplicate segments");
    }

    /// `consume_next` applies each entry in turn and hands back the
    /// stream's slot; a refused entry applies nothing and registers no
    /// stream it would have introduced.
    #[test]
    fn next_entries_apply_in_order_and_share_the_slot_lookup() {
        let mut demux: StreamDemux<FixedCodec, u32> = StreamDemux::with_slots(FixedCodec, 1);
        let start = frame_bytes(&[Message::Start { t: 0.0, x: [0.0].into() }]);
        *demux.consume_next(5, start).unwrap() += 1;
        let end = frame_bytes(&[Message::End { t: 4.0, x: [4.0].into() }]);
        *demux.consume_next(5, end).unwrap() += 1;
        assert_eq!((demux.slot(5), demux.ack_point(5)), (Some(&2), 2), "one slot, two entries");
        assert_eq!(demux.segments(5).unwrap().len(), 1);
        let headed = frame_bytes(&[Message::StreamFrame { stream: 9 }]);
        assert!(demux.consume_next(9, headed).is_err());
        assert!(demux.consume_next(9, Bytes::from_static(&[])).is_err());
        assert_eq!(demux.slot(9), None, "a refused first entry registers nothing");
        *demux.slot_mut(9) = 7;
        assert_eq!(demux.slots().collect::<Vec<_>>(), [(5, &2), (9, &7)]);
    }

    #[test]
    fn drained_segments_leave_the_demux_and_reconstruction_continues() {
        let frames = [
            frame_bytes(&[Message::Start { t: 0.0, x: [0.0].into() }]),
            frame_bytes(&[Message::End { t: 4.0, x: [4.0].into() }]),
            // Connected to the drained segment's end point.
            frame_bytes(&[Message::End { t: 9.0, x: [1.0].into() }]),
            frame_bytes(&[Message::Hold { t: 12.0, x: [2.0].into() }]),
        ];
        let mut undrained = StreamDemux::new(FixedCodec, 1);
        let mut demux = StreamDemux::new(FixedCodec, 1);
        let mut out = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            undrained.consume_sequenced(5, i as u64 + 1, f.clone()).unwrap();
            demux.consume_sequenced(5, i as u64 + 1, f.clone()).unwrap();
            demux.drain_segments(5, &mut out);
            assert_eq!(demux.segments(5), Some(&[][..]), "drained ⇒ the demux keeps nothing");
        }
        demux.drain_segments(99, &mut out); // unknown stream: no-op
        assert_eq!(demux.ack_point(5), 4, "draining leaves the sequence state alone");
        // The drained pieces plus the teardown flush equal the
        // undrained log.
        out.extend(demux.into_segment_logs().remove(&5).unwrap());
        assert_eq!(out, undrained.into_segment_logs()[&5]);
        assert_eq!(out.len(), 3);
        assert!(out[1].connected);
    }

    #[test]
    fn sequence_gaps_are_typed_errors() {
        let mut demux = StreamDemux::new(FixedCodec, 1);
        let f = frame_bytes(&[Message::Point { t: 0.0, x: [1.0].into() }]);
        assert_eq!(
            demux.consume_sequenced(9, 3, f.clone()),
            Err(ReceiveError::SequenceGap { stream: 9, expected: 1, got: 3 })
        );
        assert_eq!(
            demux.consume_sequenced(9, 0, f),
            Err(ReceiveError::Protocol("frame sequence numbers start at 1"))
        );
        assert_eq!(demux.ack_point(9), 0);
        assert_eq!(demux.streams().count(), 0, "a refused frame registers no stream");
    }

    #[test]
    fn sequenced_entries_must_not_carry_stream_headers() {
        let mut demux = StreamDemux::new(FixedCodec, 1);
        let point = Message::Point { t: 0.0, x: [1.0].into() };
        // The entry names its stream; a header inside it — its own
        // stream's or another's, leading or after a message — is refused.
        for msgs in [
            vec![Message::StreamFrame { stream: 7 }, point.clone()],
            vec![Message::StreamFrame { stream: 8 }, point.clone()],
            vec![point.clone(), Message::StreamFrame { stream: 8 }],
        ] {
            assert_eq!(
                demux.consume_sequenced(7, 1, encode(&msgs, 1)),
                Err(ReceiveError::Protocol("StreamFrame header inside a sequenced entry"))
            );
        }
        // Empty payload.
        assert_eq!(
            demux.consume_sequenced(7, 1, Bytes::from_static(&[])),
            Err(ReceiveError::Protocol("sequenced entry carries no messages"))
        );
        // A failed entry is not counted as applied, and registers no
        // stream it would have introduced.
        assert_eq!(demux.ack_point(7), 0);
        assert_eq!(demux.streams().count(), 0);
        // The bare messages apply.
        assert_eq!(demux.consume_sequenced(7, 1, encode(&[point], 1)), Ok(SeqOutcome::Applied));
        assert_eq!(demux.segments(7).map(<[Segment]>::len), Some(1));
    }

    #[test]
    fn sequenced_compact_codec_replay_is_idempotent() {
        // The compact codec's delta predictor is reset per entry, so a
        // replayed entry decodes identically even though other entries
        // were decoded in between.
        let enc_frame = |msgs: &[Message]| {
            let mut codec = CompactCodec::new(0.01, &[0.01]);
            let mut buf = BytesMut::new();
            for m in msgs {
                codec.encode(m, 1, &mut buf);
            }
            buf.freeze()
        };
        let a1 = enc_frame(&[Message::Start { t: 0.0, x: [1.0].into() }]);
        let b1 = enc_frame(&[Message::Start { t: 0.0, x: [-1.0].into() }]);
        let a2 = enc_frame(&[Message::End { t: 8.0, x: [3.0].into() }]);
        let mut demux = StreamDemux::new(CompactCodec::new(0.01, &[0.01]), 1);
        demux.consume_sequenced(1, 1, a1.clone()).unwrap();
        demux.consume_sequenced(2, 1, b1).unwrap();
        assert_eq!(demux.consume_sequenced(1, 1, a1).unwrap(), SeqOutcome::Duplicate);
        demux.consume_sequenced(1, 2, a2).unwrap();
        let logs = demux.into_segment_logs();
        assert_eq!(logs[&1].len(), 1);
        assert!((logs[&1][0].x_end[0] - 3.0).abs() <= 0.005 + 1e-12);
    }

    #[test]
    fn demux_works_through_the_compact_codec() {
        let msgs = [
            Message::StreamFrame { stream: 40 },
            Message::Start { t: 0.0, x: [1.0].into() },
            Message::StreamFrame { stream: 41 },
            Message::Start { t: 0.0, x: [-1.0].into() },
            Message::StreamFrame { stream: 40 },
            Message::End { t: 8.0, x: [3.0].into() },
            Message::StreamFrame { stream: 41 },
            Message::End { t: 8.0, x: [-3.0].into() },
        ];
        let mut enc = CompactCodec::new(0.01, &[0.01]);
        let mut buf = BytesMut::new();
        for m in &msgs {
            enc.encode(m, 1, &mut buf);
        }
        let mut demux = StreamDemux::new(CompactCodec::new(0.01, &[0.01]), 1);
        demux.consume(buf.freeze()).unwrap();
        let logs = demux.into_segment_logs();
        assert_eq!(logs.len(), 2);
        assert_eq!(logs[&40].len(), 1);
        assert_eq!(logs[&41].len(), 1);
        assert!((logs[&40][0].x_end[0] - 3.0).abs() <= 0.005 + 1e-12);
        assert!((logs[&41][0].x_end[0] + 3.0).abs() <= 0.005 + 1e-12);
    }
}
