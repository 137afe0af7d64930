//! The receiver: byte stream → reconstructed segments + lag tracking.
//!
//! Two receivers share one reconstruction state machine ([`Assembler`]):
//!
//! * [`Receiver`] — the paper's single-stream endpoint, fed one byte
//!   stream.
//! * [`StreamDemux`] — the multi-stream endpoint:
//!   [`consume_next`](StreamDemux::consume_next) applies one entry to the
//!   stream its caller names, and every stream's reconstructed segments
//!   land in one buffer, in arrival order.

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
}

impl std::fmt::Display for ReceiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::Protocol(msg) => write!(f, "protocol violation: {msg}"),
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
/// [`Segment`]s out through the caller's `emit`. One per connection in
/// [`Receiver`], one per stream in [`StreamDemux`].
#[derive(Debug)]
struct Assembler {
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
    /// Entries applied through [`StreamDemux::consume_next`] (0 under a
    /// single-stream [`Receiver`]).
    entries: u64,
}

impl Default for Assembler {
    fn default() -> Self {
        Self {
            open: None,
            hold: None,
            covered: f64::NEG_INFINITY,
            provisionals: 0,
            messages: 0,
            entries: 0,
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

    fn close_hold(&mut self, at: f64, mut emit: impl FnMut(Segment)) {
        if let Some((t0, x)) = self.hold.take() {
            emit(constant_segment(t0, at, x));
        }
    }

    /// Closes any active hold at the end of the stream.
    fn flush(&mut self, mut emit: impl FnMut(Segment)) {
        if let Some((t0, x)) = self.hold.take() {
            emit(constant_segment(t0, t0.max(self.covered_finite()), x));
        }
    }

    /// Applies one message, emitting the segments it completes.
    fn apply(&mut self, msg: Message, mut emit: impl FnMut(Segment)) -> Result<(), ReceiveError> {
        self.messages += 1;
        match msg {
            Message::Hold { t, x } => {
                self.close_hold(t, emit);
                self.open = None;
                self.hold = Some((t, x));
                self.covered = f64::INFINITY;
            }
            Message::Start { t, x } => {
                self.close_hold(t, emit);
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
                emit(Segment {
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
                self.close_hold(t, &mut emit);
                self.open = None;
                emit(Segment {
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
    segments: Vec<Segment>,
}

impl<C: Codec> Receiver<C> {
    /// Creates a receiver for `dims`-dimensional streams.
    pub fn new(codec: C, dims: usize) -> Self {
        Self { codec, dims, asm: Assembler::default(), segments: Vec::new() }
    }

    /// Segments reconstructed so far.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Takes ownership of the reconstructed segments.
    pub fn into_segments(mut self) -> Vec<Segment> {
        self.flush();
        self.segments
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
            self.asm.apply(msg, |s| self.segments.push(s))?;
        }
        Ok(())
    }

    /// Closes any active hold at the end of the stream.
    pub fn flush(&mut self) {
        self.asm.flush(|s| self.segments.push(s));
    }
}

/// Demultiplexes one multi-stream connection into `(stream, segment)`
/// output, in arrival order.
///
/// The connection carries *entries*: self-contained chunks of one
/// stream's codec bytes, each handed over with the stream it belongs to
/// ([`consume_next`](Self::consume_next)). Stream ids match
/// `pla-ingest`'s `StreamId`. The transport orders entries and drops
/// duplicates itself (`pla-net` numbers them per session), so every
/// entry handed over is its stream's next one.
///
/// Every segment an entry completes lands in one buffer shared by all
/// streams, tagged with its stream and in arrival order, so each
/// stream's segments keep their own order. An incremental consumer
/// moves them out with [`take_segments`](Self::take_segments); the demux
/// keeps no segment once it is taken.
///
/// ```
/// use bytes::BytesMut;
/// use pla_transport::wire::{Codec, FixedCodec, Message};
/// use pla_transport::StreamDemux;
///
/// let entry = |msg: Message| {
///     let mut buf = BytesMut::new();
///     FixedCodec.encode(&msg, 1, &mut buf);
///     buf.freeze()
/// };
/// let mut demux = StreamDemux::new(FixedCodec, 1);
/// demux.consume_next(7, entry(Message::Start { t: 0.0, x: [0.0].into() })).unwrap();
/// demux.consume_next(9, entry(Message::Point { t: 0.0, x: [5.0].into() })).unwrap();
/// demux.consume_next(7, entry(Message::End { t: 4.0, x: [8.0].into() })).unwrap();
/// assert_eq!(demux.streams().collect::<Vec<_>>(), vec![7, 9]);
/// let order: Vec<u64> = demux.take_segments().map(|(stream, _)| stream).collect();
/// assert_eq!(order, vec![9, 7], "arrival order: the Point, then the End");
/// assert_eq!(demux.take_segments().count(), 0, "a take leaves nothing behind");
/// assert_eq!(demux.entries_applied(7), 2);
/// ```
///
/// Each stream's slot also holds a caller-defined `T` (default `()`),
/// reached through the same map lookup that applies an entry: a
/// transport that keeps its own per-stream bookkeeping beside the
/// reconstruction pays one lookup per entry, not one per table.
pub struct StreamDemux<C, T = ()> {
    codec: C,
    dims: usize,
    streams: BTreeMap<u64, (Assembler, T)>,
    /// Reconstructed segments not yet taken, in arrival order.
    out: Vec<(u64, Segment)>,
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
        Self { codec, dims, streams: BTreeMap::new(), out: Vec::new() }
    }

    /// Applies `stream`'s next entry and hands back the stream's slot
    /// from the same lookup.
    ///
    /// The contract, enforced here:
    ///
    /// * The payload holds at least one message, all for `stream`; the
    ///   messages themselves never name a stream.
    /// * Each entry is decoded from a fresh codec state
    ///   ([`Codec::reset`]), so an entry decodes the same whatever was
    ///   decoded before it — a resent entry included.
    /// * Ordering and deduplication belong to the transport: every entry
    ///   handed over is applied.
    ///
    /// On any error the entry does not count as applied
    /// ([`entries_applied`](Self::entries_applied) stays put), none of
    /// its segments stay buffered, and a stream the refused entry would
    /// have introduced is not registered.
    pub fn consume_next(&mut self, stream: u64, bytes: Bytes) -> Result<&mut T, ReceiveError> {
        let (codec, dims, out) = (&mut self.codec, self.dims, &mut self.out);
        match self.streams.entry(stream) {
            Entry::Occupied(e) => {
                let slot = e.into_mut();
                apply_entry(codec, dims, &mut slot.0, stream, out, bytes)?;
                Ok(&mut slot.1)
            }
            Entry::Vacant(e) => {
                let mut asm = Assembler::default();
                apply_entry(codec, dims, &mut asm, stream, out, bytes)?;
                Ok(&mut e.insert((asm, T::default())).1)
            }
        }
    }

    /// `stream`'s slot, if the stream is known.
    pub fn slot(&self, stream: u64) -> Option<&T> {
        self.streams.get(&stream).map(|(_, slot)| slot)
    }

    /// `stream`'s slot, registering the stream if it is new.
    pub fn slot_mut(&mut self, stream: u64) -> &mut T {
        &mut self.streams.entry(stream).or_default().1
    }

    /// Every stream's slot, ascending by stream.
    pub fn slots(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.streams.iter().map(|(&id, (_, slot))| (id, slot))
    }

    /// Entries applied to `stream` (0 when none, or for an unknown
    /// stream). A count, not a sequence number: the transport's own
    /// sequence space is separate.
    pub fn entries_applied(&self, stream: u64) -> u64 {
        self.streams.get(&stream).map_or(0, |(asm, _)| asm.entries)
    }

    /// Stream ids seen so far, ascending.
    pub fn streams(&self) -> impl Iterator<Item = u64> + '_ {
        self.streams.keys().copied()
    }

    /// Flushes one stream's reconstruction: closes its active hold, if
    /// any, appending the trailing constant segment to the buffer.
    ///
    /// [`into_segment_logs`](Self::into_segment_logs) does this for
    /// every stream at teardown; an incremental consumer (pla-net's
    /// receiver) calls it the moment a stream's end-of-stream marker
    /// arrives, so what it publishes matches what a dedicated
    /// single-stream [`Receiver::into_segments`] would have produced. A
    /// stream with no open hold (flushed already, closed by an `End`, or
    /// unknown) emits nothing, so a replayed marker may flush again.
    /// Flushing mid-flight is *not* harmless (a later `Hold` would open
    /// a new hold), so callers flush only streams that are complete.
    pub fn flush_stream(&mut self, stream: u64) {
        if let Some((asm, _)) = self.streams.get_mut(&stream) {
            asm.flush(|s| self.out.push((stream, s)));
        }
    }

    /// Segments reconstructed and not yet taken, as `(stream, segment)`
    /// in arrival order.
    pub fn buffered(&self) -> &[(u64, Segment)] {
        &self.out
    }

    /// Moves every buffered segment out, in arrival order, leaving the
    /// buffer empty with its capacity kept for the segments to come.
    /// Segments the caller does not iterate are dropped with the
    /// iterator.
    pub fn take_segments(&mut self) -> std::vec::Drain<'_, (u64, Segment)> {
        self.out.drain(..)
    }

    /// Highest timestamp the reconstruction of `stream` reaches.
    pub fn covered_through(&self, stream: u64) -> Option<f64> {
        self.streams.get(&stream).map(|(a, _)| a.covered)
    }

    /// Messages applied across all streams.
    pub fn messages(&self) -> u64 {
        self.streams.values().map(|(a, _)| a.messages).sum()
    }

    /// Flushes every stream and hands back the segments not yet taken,
    /// grouped into one log per stream (every known stream, ordered by
    /// stream id).
    pub fn into_segment_logs(mut self) -> BTreeMap<u64, Vec<Segment>> {
        for (&id, (asm, _)) in &mut self.streams {
            asm.flush(|s| self.out.push((id, s)));
        }
        let mut logs: BTreeMap<u64, Vec<Segment>> =
            self.streams.keys().map(|&id| (id, Vec::new())).collect();
        for (id, seg) in self.out {
            logs.entry(id).or_default().push(seg);
        }
        logs
    }
}

/// Decodes one entry from a reset codec and applies it to `asm`,
/// buffering its segments under `stream` in `out` and counting it in
/// `asm.entries`. All or nothing: on any error `asm` and `out` are
/// restored to their state before the entry.
fn apply_entry<C: Codec>(
    codec: &mut C,
    dims: usize,
    asm: &mut Assembler,
    stream: u64,
    out: &mut Vec<(u64, Segment)>,
    mut bytes: Bytes,
) -> Result<(), ReceiveError> {
    if bytes.remaining() == 0 {
        return Err(ReceiveError::Protocol("entry carries no messages"));
    }
    // Messages only ever push onto the buffer, so its length plus the
    // scalar state restore it. The clones copy inline `DimVec`s: no
    // allocation at d <= INLINE_DIMS.
    let buffered = out.len();
    let saved = (asm.open.clone(), asm.hold.clone(), asm.covered, asm.provisionals, asm.messages);
    // Entries are coded independently (the sender resets its codec per
    // entry) so a resent entry decodes byte-identically regardless of
    // what arrived in between.
    codec.reset();
    while bytes.remaining() > 0 {
        let applied = codec
            .decode(&mut bytes, dims)
            .map_err(ReceiveError::from)
            .and_then(|m| asm.apply(m, |s| out.push((stream, s))));
        if let Err(e) = applied {
            out.truncate(buffered);
            (asm.open, asm.hold, asm.covered, asm.provisionals, asm.messages) = saved;
            return Err(e);
        }
    }
    asm.entries += 1;
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

    fn encode_with<C: Codec>(mut codec: C, msgs: &[Message], dims: usize) -> Bytes {
        let mut buf = BytesMut::new();
        for m in msgs {
            codec.encode(m, dims, &mut buf);
        }
        buf.freeze()
    }

    fn encode(msgs: &[Message], dims: usize) -> Bytes {
        encode_with(FixedCodec, msgs, dims)
    }

    /// One entry's payload: 1-d messages from a fresh `FixedCodec`.
    fn entry(msgs: &[Message]) -> Bytes {
        encode(msgs, 1)
    }

    fn compact() -> CompactCodec {
        CompactCodec::new(0.01, &[0.01])
    }

    /// Tag 5 — the retired in-band stream header — followed by what was
    /// its 8-byte stream id.
    const RETIRED_TAG_5: &[u8] = &[5, 7, 0, 0, 0, 0, 0, 0, 0];

    /// `stream`'s segments still in the demux's buffer, in order.
    fn buffered<C: Codec, T: Default>(demux: &StreamDemux<C, T>, stream: u64) -> Vec<Segment> {
        demux.buffered().iter().filter(|(s, _)| *s == stream).map(|(_, seg)| seg.clone()).collect()
    }

    #[test]
    fn flush_stream_closes_only_that_streams_hold() {
        let mut demux = StreamDemux::new(FixedCodec, 1);
        demux.consume_next(1, entry(&[Message::Hold { t: 0.0, x: [4.0].into() }])).unwrap();
        demux.consume_next(2, entry(&[Message::Hold { t: 0.0, x: [9.0].into() }])).unwrap();
        assert!(demux.buffered().is_empty(), "holds still open");
        demux.flush_stream(1);
        assert_eq!(buffered(&demux, 1).len(), 1, "flushed hold became a segment");
        assert_eq!(buffered(&demux, 2).len(), 0, "other stream untouched");
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
        // Stream 1: an open hold to flush twice.
        demux.consume_next(1, entry(&[Message::Hold { t: 0.0, x: [4.0].into() }])).unwrap();
        // Stream 2: closed by an explicit End — no open hold.
        let closed_by_end =
            [Message::Start { t: 0.0, x: [1.0].into() }, Message::End { t: 3.0, x: [2.0].into() }];
        demux.consume_next(2, entry(&closed_by_end)).unwrap();
        // Stream 3: registered, and nothing else.
        demux.slot_mut(3);
        demux.flush_stream(1);
        let after_first = buffered(&demux, 1);
        assert_eq!(after_first.len(), 1);
        demux.flush_stream(1);
        assert_eq!(buffered(&demux, 1), after_first, "second flush is a no-op");
        assert_eq!(demux.covered_through(1), Some(f64::INFINITY), "a hold covers forward");

        let closed = buffered(&demux, 2);
        assert_eq!(closed.len(), 1, "End already closed the segment");
        demux.flush_stream(2);
        assert_eq!(buffered(&demux, 2), closed, "nothing to flush after End");

        demux.flush_stream(3);
        assert_eq!(buffered(&demux, 3), vec![], "an empty stream flushes to nothing");
        assert_eq!(demux.covered_through(3), Some(f64::NEG_INFINITY));

        // Teardown agrees with every incremental answer.
        let logs = demux.into_segment_logs();
        assert_eq!(logs[&1], after_first);
        assert_eq!(logs[&2], closed);
        assert_eq!(logs[&3], vec![]);
    }

    /// A stream's trailing hold enters the buffer once: taking before
    /// the flush moves only the closed segment, the flush then emits the
    /// hold, and a second flush (a replayed end-of-stream marker) or an
    /// unknown stream emits nothing.
    #[test]
    fn flush_stream_emits_the_trailing_hold_into_the_buffer_once() {
        let bytes = entry(&[
            Message::Start { t: 0.0, x: [1.0].into() },
            Message::End { t: 3.0, x: [2.0].into() },
            Message::Hold { t: 4.0, x: [5.0].into() },
        ]);
        let mut demux = StreamDemux::new(FixedCodec, 1);
        demux.consume_next(1, bytes.clone()).unwrap();
        let mut out: Vec<(u64, Segment)> = demux.take_segments().collect();
        assert_eq!(out.len(), 1, "the closed segment moves; the hold stays open");
        demux.flush_stream(1);
        out.extend(demux.take_segments());
        assert_eq!(out.len(), 2, "the flush closes the hold into the buffer");
        demux.flush_stream(1);
        demux.flush_stream(999);
        assert_eq!(
            demux.take_segments().count(),
            0,
            "a second flush and an unknown stream emit nothing"
        );
        let mut reference = StreamDemux::new(FixedCodec, 1);
        reference.consume_next(1, bytes).unwrap();
        let segs: Vec<Segment> = out.into_iter().map(|(_, seg)| seg).collect();
        assert_eq!(segs, reference.into_segment_logs()[&1], "matches the teardown flush");
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

    /// The retired stream-header tag is an unknown tag on the
    /// single-stream receiver too, and applies nothing.
    #[test]
    fn single_stream_receiver_rejects_frame_headers() {
        let mut rx = Receiver::new(FixedCodec, 1);
        assert_eq!(
            rx.consume(Bytes::from_static(RETIRED_TAG_5)),
            Err(ReceiveError::Wire(WireError::BadTag(5)))
        );
        assert_eq!(rx.messages(), 0);
    }

    #[test]
    fn demux_routes_interleaved_streams() {
        let mut demux = StreamDemux::new(FixedCodec, 1);
        for (stream, msgs) in [
            (3, vec![Message::Start { t: 0.0, x: [0.0].into() }]),
            (8, vec![Message::Hold { t: 0.0, x: [5.0].into() }]),
            (
                3,
                vec![
                    Message::End { t: 10.0, x: [10.0].into() },
                    Message::End { t: 14.0, x: [6.0].into() }, // still stream 3: connected
                ],
            ),
            (8, vec![Message::Hold { t: 20.0, x: [7.0].into() }]),
        ] {
            demux.consume_next(stream, entry(&msgs)).unwrap();
        }
        assert_eq!(demux.streams().collect::<Vec<_>>(), vec![3, 8]);
        assert_eq!((demux.entries_applied(3), demux.entries_applied(8)), (2, 2));
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
    fn demux_per_stream_state_is_independent() {
        // An End for stream 2 must not see stream 1's open segment.
        let mut demux = StreamDemux::new(FixedCodec, 1);
        demux.consume_next(1, entry(&[Message::Start { t: 0.0, x: [0.0].into() }])).unwrap();
        let end = entry(&[Message::End { t: 1.0, x: [1.0].into() }]);
        assert!(matches!(demux.consume_next(2, end), Err(ReceiveError::Protocol(_))));
        assert_eq!(demux.streams().collect::<Vec<_>>(), vec![1]);
    }

    /// `consume_next` applies each entry in turn and hands back the
    /// stream's slot; a refused entry applies nothing and registers no
    /// stream it would have introduced.
    #[test]
    fn next_entries_apply_in_order_and_share_the_slot_lookup() {
        let mut demux: StreamDemux<FixedCodec, u32> = StreamDemux::with_slots(FixedCodec, 1);
        let start = entry(&[Message::Start { t: 0.0, x: [0.0].into() }]);
        *demux.consume_next(5, start).unwrap() += 1;
        let end = entry(&[Message::End { t: 4.0, x: [4.0].into() }]);
        *demux.consume_next(5, end).unwrap() += 1;
        assert_eq!(
            (demux.slot(5), demux.entries_applied(5)),
            (Some(&2), 2),
            "one slot, two entries"
        );
        assert_eq!(buffered(&demux, 5).len(), 1);
        assert!(demux.consume_next(9, Bytes::from_static(RETIRED_TAG_5)).is_err());
        assert_eq!(
            demux.consume_next(9, Bytes::from_static(&[])),
            Err(ReceiveError::Protocol("entry carries no messages"))
        );
        assert_eq!(demux.slot(9), None, "a refused first entry registers nothing");
        *demux.slot_mut(9) = 7;
        assert_eq!(demux.slots().collect::<Vec<_>>(), [(5, &2), (9, &7)]);
    }

    /// Tag 5, once the in-band stream header, is retired: an entry that
    /// leads with it, or carries it after a valid message, is an unknown
    /// tag under both codecs. The refused entry registers no stream and
    /// leaves its stream's reconstruction exactly where it was: entry
    /// count, buffered segments, open segment, hold and coverage.
    #[test]
    fn entries_carrying_the_retired_tag_are_refused() {
        fn check<C: Codec + Clone>(codec: C) {
            let one = |msg: Message| encode_with(codec.clone(), &[msg], 1);
            let point = one(Message::Point { t: 0.0, x: [1.0].into() });
            let held = one(Message::Hold { t: 0.5, x: [3.0].into() });
            let trailing = |prefix: &Bytes| Bytes::from([&prefix[..], RETIRED_TAG_5].concat());
            let bad = [Bytes::from_static(RETIRED_TAG_5), trailing(&point), trailing(&held)];
            let mut demux = StreamDemux::new(codec.clone(), 1);
            let refused = Err(ReceiveError::Wire(WireError::BadTag(5)));
            for entry in &bad {
                assert_eq!(demux.consume_next(7, entry.clone()).map(|_| ()), refused);
                assert_eq!((demux.streams().count(), demux.entries_applied(7)), (0, 0));
            }
            demux.consume_next(7, point.clone()).unwrap();
            let buffered = demux.buffered().len();
            for entry in &bad {
                assert_eq!(demux.consume_next(7, entry.clone()).map(|_| ()), refused);
                assert_eq!((demux.streams().count(), demux.entries_applied(7)), (1, 1));
                // All or nothing: what the entry applied before its bad
                // tag is undone, so the buffer keeps its length.
                assert_eq!(demux.buffered().len(), buffered);
            }
            // Refusals while a segment is open leave it open, so the
            // `End` after them closes it exactly as in a demux that
            // never saw them.
            let start = one(Message::Start { t: 1.0, x: [2.0].into() });
            let end = one(Message::End { t: 3.0, x: [4.0].into() });
            demux.consume_next(7, start.clone()).unwrap();
            for entry in &bad {
                assert_eq!(demux.consume_next(7, entry.clone()).map(|_| ()), refused);
                assert_eq!(demux.buffered().len(), buffered);
            }
            demux.consume_next(7, end.clone()).unwrap();
            let mut clean = StreamDemux::new(codec, 1);
            for entry in [point, start, end] {
                clean.consume_next(7, entry).unwrap();
            }
            assert_eq!(demux.entries_applied(7), clean.entries_applied(7));
            assert_eq!(demux.messages(), clean.messages());
            assert_eq!(demux.covered_through(7), clean.covered_through(7));
            assert_eq!(demux.into_segment_logs(), clean.into_segment_logs());
        }
        check(FixedCodec);
        check(compact());
    }

    #[test]
    fn drained_segments_leave_the_demux_and_reconstruction_continues() {
        let entries = [
            entry(&[Message::Start { t: 0.0, x: [0.0].into() }]),
            entry(&[Message::End { t: 4.0, x: [4.0].into() }]),
            // Connected to the drained segment's end point.
            entry(&[Message::End { t: 9.0, x: [1.0].into() }]),
            entry(&[Message::Hold { t: 12.0, x: [2.0].into() }]),
        ];
        let mut undrained = StreamDemux::new(FixedCodec, 1);
        let mut demux = StreamDemux::new(FixedCodec, 1);
        let mut out = Vec::new();
        for e in &entries {
            undrained.consume_next(5, e.clone()).unwrap();
            demux.consume_next(5, e.clone()).unwrap();
            out.extend(demux.take_segments().map(|(_, seg)| seg));
            assert!(demux.buffered().is_empty(), "taken ⇒ the demux keeps nothing");
        }
        assert_eq!(demux.entries_applied(5), 4, "taking leaves the entry count alone");
        // The taken pieces plus the teardown flush equal the untaken
        // log.
        out.extend(demux.into_segment_logs().remove(&5).unwrap());
        assert_eq!(out, undrained.into_segment_logs()[&5]);
        assert_eq!(out.len(), 3);
        assert!(out[1].connected);
    }

    /// The compact codec's delta predictor is reset per entry, so a
    /// resent entry decodes exactly as its first delivery did, whatever
    /// other streams' entries were decoded in between.
    #[test]
    fn sequenced_compact_codec_replay_is_idempotent() {
        let a1 = encode_with(compact(), &[Message::Start { t: 0.0, x: [1.0].into() }], 1);
        let b1 = encode_with(compact(), &[Message::Start { t: 0.0, x: [-1.0].into() }], 1);
        let a2 = encode_with(compact(), &[Message::End { t: 8.0, x: [3.0].into() }], 1);
        let mut first = StreamDemux::new(compact(), 1);
        let mut resent = StreamDemux::new(compact(), 1);
        for (stream, e) in [(1, &a1), (2, &b1), (1, &a2)] {
            first.consume_next(stream, e.clone()).unwrap();
        }
        for (stream, e) in [(2, &b1), (1, &a1), (1, &a2)] {
            resent.consume_next(stream, e.clone()).unwrap();
        }
        let logs = first.into_segment_logs();
        assert_eq!(logs, resent.into_segment_logs());
        assert_eq!(logs[&1].len(), 1);
        assert!((logs[&1][0].x_end[0] - 3.0).abs() <= 0.005 + 1e-12);
    }

    #[test]
    fn demux_works_through_the_compact_codec() {
        let mut demux = StreamDemux::new(compact(), 1);
        for (stream, msg) in [
            (40, Message::Start { t: 0.0, x: [1.0].into() }),
            (41, Message::Start { t: 0.0, x: [-1.0].into() }),
            (40, Message::End { t: 8.0, x: [3.0].into() }),
            (41, Message::End { t: 8.0, x: [-3.0].into() }),
        ] {
            demux.consume_next(stream, encode_with(compact(), &[msg], 1)).unwrap();
        }
        let logs = demux.into_segment_logs();
        assert_eq!(logs.len(), 2);
        assert_eq!(logs[&40].len(), 1);
        assert_eq!(logs[&41].len(), 1);
        assert!((logs[&40][0].x_end[0] - 3.0).abs() <= 0.005 + 1e-12);
        assert!((logs[&41][0].x_end[0] + 3.0).abs() <= 0.005 + 1e-12);
    }
}
