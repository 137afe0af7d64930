//! The sending endpoint: N logical streams multiplexed onto one framed
//! byte stream, with per-stream credit and replayable delivery.
//!
//! Each send becomes one sequenced entry: the stream's codec bytes,
//! retained per entry for replay. Entries wait until the next flush —
//! [`take_staged`](MuxSender::take_staged), the pumps' outbox access, a
//! [`finish_stream`](MuxSender::finish_stream), or a replay — which
//! seals them, in ascending stream order, into as few `Batch` frames as
//! `max_frame` allows.
//!
//! [`MuxSender`] is *sans-I/O*: segments go in
//! ([`try_send_segment`](MuxSender::try_send_segment)), framed bytes
//! come out ([`take_staged`](MuxSender::take_staged) or the pump
//! functions in [`driver`](crate::driver)), and inbound control bytes
//! are fed back with [`on_bytes`](MuxSender::on_bytes). Nothing here
//! touches a socket, so every protocol path — credit exhaustion, ack
//! processing, reconnect replay — is deterministically testable.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use bytes::{Bytes, BytesMut};

use pla_core::{ProvisionalUpdate, Segment};
use pla_transport::wire::{provisional_message, segment_messages, Codec, Message};

use crate::credit::CreditWindow;
use crate::frame::{
    encode, single_entry_frame_len, BatchWriter, FrameDecoder, NetFrame, Outbox, ResumeCursor,
};
use crate::{NetConfig, NetError};

/// Per-stream sender state.
struct SendStream {
    /// Sequence number of the last entry produced (0 = none yet).
    last_seq: u64,
    /// Highest cumulatively acknowledged sequence number.
    acked: u64,
    credit: CreditWindow,
    /// `(seq, payload)` of every entry not yet acknowledged, oldest
    /// first — exactly what a reconnect replays. Each payload is its own
    /// buffer, so trimming one never pins another's bytes.
    unacked: VecDeque<(u64, Bytes)>,
    finished: bool,
}

impl SendStream {
    fn new(window: u64) -> Self {
        Self {
            last_seq: 0,
            acked: 0,
            credit: CreditWindow::new(window),
            unacked: VecDeque::new(),
            finished: false,
        }
    }
}

/// Point-in-time counters for one stream, for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendStreamStats {
    /// Entries produced so far.
    pub frames: u64,
    /// Highest acknowledged sequence number.
    pub acked: u64,
    /// Entries retained for possible replay.
    pub unacked: usize,
    /// Credit bytes currently available.
    pub credit_available: u64,
    /// Whether [`finish_stream`](MuxSender::finish_stream) was called.
    pub finished: bool,
}

/// The multiplexing sender. See the [crate docs](crate) for the
/// protocol and the module docs for the sans-I/O shape.
pub struct MuxSender<C: Codec> {
    codec: C,
    dims: usize,
    config: NetConfig,
    streams: BTreeMap<u64, SendStream>,
    /// `(stream, seq, payload range in pending_bytes)` of every entry
    /// not yet sealed into a frame, in send order. Sealing reads these
    /// freshly written bytes instead of revisiting every stream's replay
    /// buffer; both keep their capacity across flushes.
    pending: Vec<(u64, u64, Range<usize>)>,
    pending_bytes: Vec<u8>,
    batch: BatchWriter,
    out: Outbox,
    frames_in: FrameDecoder,
    scratch: BytesMut,
    frame_scratch: BytesMut,
}

impl<C: Codec> MuxSender<C> {
    /// Creates a sender for `dims`-dimensional streams.
    pub fn new(codec: C, dims: usize, config: NetConfig) -> Self {
        Self {
            codec,
            dims,
            config,
            streams: BTreeMap::new(),
            pending: Vec::new(),
            pending_bytes: Vec::new(),
            batch: BatchWriter::default(),
            out: Outbox::default(),
            frames_in: FrameDecoder::new(config.max_frame),
            scratch: BytesMut::new(),
            frame_scratch: BytesMut::new(),
        }
    }

    fn stream_entry(&mut self, stream: u64) -> &mut SendStream {
        let window = self.config.window;
        self.streams.entry(stream).or_insert_with(|| SendStream::new(window))
    }

    /// Encodes `msgs` as one sequenced entry for `stream` and retains
    /// it for replay; the next flush seals it into a `Batch` frame. The
    /// size and credit checks happen *before* anything is retained, so a
    /// refused send leaves no trace.
    fn try_send_messages<'a>(
        &mut self,
        stream: u64,
        msgs: impl IntoIterator<Item = &'a Message>,
    ) -> Result<(), NetError> {
        let window = self.config.window;
        let (entry, fresh) = match self.streams.entry(stream) {
            Entry::Occupied(e) => (e.into_mut(), false),
            Entry::Vacant(e) => (e.insert(SendStream::new(window)), true),
        };
        if entry.finished {
            return Err(NetError::Finished(stream));
        }
        let seq = entry.last_seq + 1;
        // Each entry is a self-contained codec unit (reset first) with no
        // stream header — the contract `StreamDemux::consume_sequenced`
        // enforces.
        self.scratch.clear();
        self.codec.reset();
        for m in msgs {
            self.codec.encode(m, self.dims, &mut self.scratch);
        }
        let frame_len = single_entry_frame_len(stream, seq, self.scratch.len());
        if frame_len > self.config.max_frame as usize {
            if fresh {
                self.streams.remove(&stream);
            }
            return Err(NetError::EntryTooLarge {
                stream,
                frame_len,
                max_frame: self.config.max_frame,
            });
        }
        if !entry.credit.try_reserve(self.scratch.len() as u64) {
            return Err(NetError::Backpressure);
        }
        entry.last_seq = seq;
        // The scratch buffer keeps its capacity from entry to entry; the
        // replay copy is the one allocation an entry costs.
        entry.unacked.push_back((seq, Bytes::copy_from_slice(&self.scratch)));
        let at = self.pending_bytes.len();
        self.pending_bytes.extend_from_slice(&self.scratch);
        self.pending.push((stream, seq, at..self.pending_bytes.len()));
        Ok(())
    }

    /// Seals every pending entry into `Batch` frames on the outbox:
    /// streams ascending (sorted here, the way the receiver sorts its
    /// ack list), each stream's entries in seq order.
    fn seal_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.pending.sort_unstable_by_key(|&(stream, seq, _)| (stream, seq));
        for (stream, seq, range) in &self.pending {
            let payload = &self.pending_bytes[range.clone()];
            self.batch.push(*stream, *seq, payload, self.config.max_frame, &mut self.out);
        }
        self.batch.finish(&mut self.out);
        self.pending.clear();
        self.pending_bytes.clear();
    }

    /// Sends one finalized segment on `stream`.
    ///
    /// The segment→message mapping is
    /// [`wire::segment_messages`](pla_transport::wire::segment_messages)
    /// — the same one the point-to-point
    /// [`Transmitter`](pla_transport::Transmitter) uses — so the far
    /// side's reconstruction is identical to a direct single-stream
    /// link.
    ///
    /// # Errors
    ///
    /// [`NetError::Backpressure`] when the stream's credit window cannot
    /// cover the encoded payload: nothing is sent, and the caller
    /// retries after the receiver grants more (or sheds load). This is
    /// the same contract as `pla_ingest::IngestHandle::try_push`.
    /// [`NetError::EntryTooLarge`] when even a `Batch` frame of this one
    /// entry would exceed `max_frame`: the peer would refuse it, so
    /// nothing is sent or reserved.
    pub fn try_send_segment(&mut self, stream: u64, seg: &Segment) -> Result<(), NetError> {
        // At most two messages per segment, staged on the stack — the
        // send path stays off the heap (beyond the payload buffer
        // itself), matching the workspace's hot-path discipline.
        let mut msgs: [Option<Message>; 2] = [None, None];
        let mut n = 0;
        segment_messages(seg, |m| {
            msgs[n] = Some(m);
            n += 1;
        });
        self.try_send_messages(stream, msgs.iter().flatten())
    }

    /// Sends a provisional (lag-bound) update on `stream`.
    pub fn try_send_provisional(
        &mut self,
        stream: u64,
        update: &ProvisionalUpdate,
    ) -> Result<(), NetError> {
        self.try_send_messages(stream, &[provisional_message(update)])
    }

    /// Marks `stream` complete and stages its `Fin` frame behind every
    /// pending entry (sealed first, so the `Fin` never overtakes its
    /// stream's data). Further sends on it fail with
    /// [`NetError::Finished`]; finishing twice is idempotent.
    pub fn finish_stream(&mut self, stream: u64) -> Result<(), NetError> {
        if self.streams.get(&stream).is_some_and(|s| s.finished) {
            return Ok(());
        }
        self.seal_pending();
        let entry = self.stream_entry(stream);
        entry.finished = true;
        let fin = NetFrame::Fin { stream, final_seq: entry.last_seq };
        self.frame_scratch.clear();
        encode(&fin, &mut self.frame_scratch);
        self.out.stage(&self.frame_scratch);
        Ok(())
    }

    /// Finishes every stream that has sent anything.
    pub fn finish_all(&mut self) {
        let ids: Vec<u64> = self.streams.keys().copied().collect();
        for id in ids {
            self.finish_stream(id).expect("finish is idempotent");
        }
    }

    /// Feeds inbound link bytes (the receiver's `Ack` control frames).
    pub fn on_bytes(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.frames_in.extend(bytes);
        while let Some(frame) = self.frames_in.try_next()? {
            if let Some(cursors) = self.on_frame(frame)? {
                self.frames_in.recycle_cursors(cursors);
            }
        }
        Ok(())
    }

    /// Applies one already-decoded inbound frame. The session layer
    /// decodes the link itself (it must intercept `HelloAck`) and
    /// forwards the control plane here frame by frame. An applied
    /// `Ack`'s cursor list comes back for
    /// [`FrameDecoder::recycle_cursors`].
    pub(crate) fn on_frame(
        &mut self,
        frame: NetFrame,
    ) -> Result<Option<Vec<ResumeCursor>>, NetError> {
        match frame {
            NetFrame::Ack { cursors } => {
                self.apply_cursors(&cursors)?;
                return Ok(Some(cursors));
            }
            // Liveness probes and echoes carry no stream state; the
            // session layer tracks arrival times, the mux ignores them.
            NetFrame::Heartbeat { .. } => {}
            NetFrame::Batch(_) => return Err(NetError::UnexpectedFrame("Batch at sender")),
            NetFrame::Fin { .. } => return Err(NetError::UnexpectedFrame("Fin at sender")),
            NetFrame::Hello { .. } => return Err(NetError::UnexpectedFrame("Hello at sender")),
            NetFrame::HelloAck { .. } => {
                return Err(NetError::UnexpectedFrame("HelloAck outside handshake"))
            }
            NetFrame::QueryReq { .. }
            | NetFrame::QueryResp { .. }
            | NetFrame::EpochsReq { .. }
            | NetFrame::EpochsResp { .. } => {
                return Err(NetError::UnexpectedFrame("query frame at ingest sender"))
            }
        }
        Ok(None)
    }

    /// Applies the receiver's cumulative cursors — from an `Ack` or a
    /// `HelloAck` alike: each ack point trims the stream's replay
    /// buffer, each grant raises its credit window (`grant_to` keeps the
    /// maximum, so a 0 grant changes nothing). Returns whether any
    /// replay entry was trimmed.
    ///
    /// Cursors naming a stream this sender never sent on are dropped
    /// without materializing state: a corrupt or hostile peer must not
    /// be able to conjure phantom streams (which `finish_all` would
    /// then Fin).
    ///
    /// # Errors
    ///
    /// [`NetError::AckBeyondSent`] when a cursor acknowledges an entry
    /// this sender never produced: trimming on it would discard entries
    /// the receiver cannot hold, so the connection is condemned instead.
    fn apply_cursors(&mut self, cursors: &[ResumeCursor]) -> Result<bool, NetError> {
        let mut trimmed = false;
        for c in cursors {
            let Some(entry) = self.streams.get_mut(&c.stream) else { continue };
            if c.through_seq > entry.last_seq {
                return Err(NetError::AckBeyondSent {
                    stream: c.stream,
                    through_seq: c.through_seq,
                    last_seq: entry.last_seq,
                });
            }
            entry.acked = entry.acked.max(c.through_seq);
            while entry.unacked.front().is_some_and(|(seq, _)| *seq <= c.through_seq) {
                entry.unacked.pop_front();
                trimmed = true;
            }
            entry.credit.grant_to(c.granted_total);
        }
        Ok(trimmed)
    }

    /// Applies the receiver's resume cursors from a `HelloAck` exactly
    /// as an `Ack` frame's cursors are applied — acks trim the replay
    /// buffer, grants raise the credit windows, cursors for unknown
    /// streams are dropped — then restages the replay if the cursors
    /// trimmed any of it.
    ///
    /// # Errors
    ///
    /// [`NetError::AckBeyondSent`] when a cursor acknowledges an entry
    /// this sender never produced, as for an `Ack` frame.
    pub fn apply_resume(&mut self, cursors: &[ResumeCursor]) -> Result<(), NetError> {
        // Nothing trimmed (always so for a fresh session): the staged
        // replay is already exact, and restaging would resend every
        // frame written behind the `Hello` before this ack arrived.
        if !self.apply_cursors(cursors)? {
            return Ok(());
        }
        // The replay staged by `on_reconnect` now contains entries the
        // cursors just acknowledged; restage from the trimmed buffers so
        // the wire never carries a *whole* frame the receiver already
        // holds. But this runs on a live link: if the link accepted a
        // partial write, the frame it tore must complete first — the
        // receiver drops duplicate entries by sequence number, it cannot
        // survive a torn frame.
        let torn: Option<Vec<u8>> = self.out.partial_head().map(<[u8]>::to_vec);
        self.out.clear();
        if let Some(tail) = torn {
            self.out.stage(&tail);
        }
        self.restage_unacked();
        Ok(())
    }

    /// The connection died: drop everything staged for the dead link,
    /// forget its partial inbound frame, and restage every
    /// unacknowledged entry (re-batched, in per-stream sequence order)
    /// plus the `Fin` of every finished stream. The receiver drops
    /// whatever it already applied by sequence number, so replaying is
    /// always safe.
    pub fn on_reconnect(&mut self) {
        self.out.clear();
        self.frames_in.reset();
        self.restage_unacked();
    }

    /// Stages every unacknowledged entry — pending ones included —
    /// re-batched from the per-entry bytes in ascending stream order,
    /// then the `Fin` of every finished stream, behind all of its data.
    fn restage_unacked(&mut self) {
        for (&stream, entry) in &self.streams {
            for (seq, payload) in &entry.unacked {
                self.batch.push(stream, *seq, payload, self.config.max_frame, &mut self.out);
            }
        }
        self.batch.finish(&mut self.out);
        self.pending.clear();
        self.pending_bytes.clear();
        for (&stream, entry) in &self.streams {
            if entry.finished {
                self.frame_scratch.clear();
                let fin = NetFrame::Fin { stream, final_seq: entry.last_seq };
                encode(&fin, &mut self.frame_scratch);
                self.out.stage(&self.frame_scratch);
            }
        }
    }

    /// Whether every produced entry has been acknowledged and nothing
    /// is waiting for the link — the sender's "safe to stop pumping"
    /// condition (together with having called
    /// [`finish_all`](Self::finish_all)).
    pub fn is_idle(&self) -> bool {
        self.out.is_empty() && self.all_acked()
    }

    /// Whether every produced entry has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.streams.values().all(|s| s.unacked.is_empty())
    }

    /// Bytes sealed into frames for the link but not yet written
    /// (entries still waiting for their flush are not counted).
    pub fn staged_bytes(&self) -> usize {
        self.out.pending()
    }

    /// Drains every staged byte (manual pumping; the
    /// [`driver`](crate::driver) pumps incrementally instead).
    /// Pending entries are sealed into frames first.
    pub fn take_staged(&mut self) -> Vec<u8> {
        self.seal_pending();
        self.out.take()
    }

    /// The outbox, with every pending entry sealed into it: each pump
    /// round's access is the flush that batches what the round sent.
    pub(crate) fn outbox(&mut self) -> &mut Outbox {
        self.seal_pending();
        &mut self.out
    }

    /// Streams this sender has touched, ascending.
    pub fn streams(&self) -> impl Iterator<Item = u64> + '_ {
        self.streams.keys().copied()
    }

    /// Counters for one stream (`None` if never sent on).
    pub fn stream_stats(&self, stream: u64) -> Option<SendStreamStats> {
        self.streams.get(&stream).map(|s| SendStreamStats {
            frames: s.last_seq,
            acked: s.acked,
            unacked: s.unacked.len(),
            credit_available: s.credit.available(),
            finished: s.finished,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Batch;
    use pla_transport::wire::FixedCodec;

    fn seg(t0: f64, x0: f64, t1: f64, x1: f64) -> Segment {
        Segment {
            t_start: t0,
            x_start: [x0].into(),
            t_end: t1,
            x_end: [x1].into(),
            connected: false,
            n_points: 2,
            new_recordings: 2,
        }
    }

    fn sender() -> MuxSender<FixedCodec> {
        MuxSender::new(FixedCodec, 1, NetConfig::default())
    }

    fn cursor(stream: u64, through_seq: u64, granted_total: u64) -> ResumeCursor {
        ResumeCursor { stream, through_seq, granted_total }
    }

    /// The wire bytes of one `Ack` frame.
    fn ack_bytes(cursors: &[ResumeCursor]) -> BytesMut {
        let mut buf = BytesMut::new();
        encode(&NetFrame::Ack { cursors: cursors.to_vec() }, &mut buf);
        buf
    }

    /// One sender → receiver frame, a `Batch` as its `(stream, seq)`
    /// entries.
    #[derive(Debug, PartialEq)]
    enum Wire {
        Batch(Vec<(u64, u64)>),
        Fin(u64, u64),
    }

    /// Decodes staged sender bytes, checking every frame fits
    /// `max_frame`.
    fn wire(bytes: &[u8], max_frame: u32) -> Vec<Wire> {
        let mut dec = FrameDecoder::new(max_frame);
        dec.extend(bytes);
        let mut out = Vec::new();
        while let Some(f) = dec.try_next().expect("the sender's frames decode") {
            out.push(match f {
                NetFrame::Batch(b) => Wire::Batch(b.entries().map(|e| (e.stream, e.seq)).collect()),
                NetFrame::Fin { stream, final_seq } => Wire::Fin(stream, final_seq),
                other => panic!("unexpected frame on the wire: {other:?}"),
            });
        }
        assert_eq!(dec.pending(), 0, "no torn bytes left behind");
        out
    }

    /// `apply_resume` arrives on the *live* link; if the link tore a
    /// frame on a partial write, the rebuilt outbox must lead with that
    /// frame's remaining bytes or the peer's decoder desyncs.
    #[test]
    fn apply_resume_preserves_a_torn_frame() {
        let mut tx = MuxSender::new(FixedCodec, 1, NetConfig { window: 4096, max_frame: 1 << 20 });
        for i in 0..4 {
            tx.try_send_segment(5, &seg(i as f64 * 10.0, 0.0, i as f64 * 10.0 + 5.0, 1.0)).unwrap();
            tx.outbox(); // one flush per send: one `Batch` frame each
        }
        let staged = tx.outbox().as_bytes().to_vec();
        // Frame boundaries from the length prefixes; cut mid-frame-3.
        let mut bounds = vec![0usize];
        let mut off = 0;
        while off < staged.len() {
            off += 4 + u32::from_le_bytes(staged[off..off + 4].try_into().unwrap()) as usize;
            bounds.push(off);
        }
        let cut = bounds[2] + 3;
        tx.outbox().consume(cut);

        tx.apply_resume(&[cursor(5, 1, 1 << 20)]).unwrap();

        // The wire = what the link already accepted + what goes out now.
        let mut wire_bytes = staged[..cut].to_vec();
        wire_bytes.extend(tx.take_staged());
        // Frames 1-2 were fully written, the torn frame 3 completes,
        // then the trimmed replay (unacked 2..=4, re-batched) follows;
        // the receiver dedups entries by seq.
        assert_eq!(
            wire(&wire_bytes, 1 << 20),
            [
                Wire::Batch(vec![(5, 1)]),
                Wire::Batch(vec![(5, 2)]),
                Wire::Batch(vec![(5, 3)]),
                Wire::Batch(vec![(5, 2), (5, 3), (5, 4)]),
            ]
        );
    }

    #[test]
    fn segments_become_sequenced_batch_entries() {
        let mut tx = sender();
        tx.try_send_segment(4, &seg(0.0, 1.0, 5.0, 2.0)).unwrap();
        tx.try_send_segment(4, &seg(6.0, 0.0, 9.0, 1.0)).unwrap();
        tx.try_send_segment(2, &seg(0.0, 0.0, 1.0, 1.0)).unwrap();
        assert_eq!(tx.staged_bytes(), 0, "entries wait for the flush");
        // One flush, one frame: streams ascending, per-stream seqs.
        assert_eq!(wire(&tx.take_staged(), 1 << 20), [Wire::Batch(vec![(2, 1), (4, 1), (4, 2)])]);
        let s4 = tx.stream_stats(4).unwrap();
        assert_eq!(s4.frames, 2);
        assert_eq!(s4.unacked, 2, "entries retained until acked");
        // Entries sent after a flush go out in the next one.
        tx.try_send_segment(4, &seg(10.0, 0.0, 12.0, 1.0)).unwrap();
        assert_eq!(wire(&tx.take_staged(), 1 << 20), [Wire::Batch(vec![(4, 3)])]);
        assert!(tx.take_staged().is_empty(), "sealed entries are not sent twice");
    }

    /// A `Fin` is staged behind its stream's last entry even when that
    /// entry was still waiting for a flush.
    #[test]
    fn fins_follow_their_streams_data() {
        let mut tx = sender();
        tx.try_send_segment(4, &seg(0.0, 1.0, 5.0, 2.0)).unwrap();
        tx.try_send_segment(2, &seg(0.0, 0.0, 1.0, 1.0)).unwrap();
        tx.finish_stream(4).unwrap();
        tx.try_send_segment(2, &seg(2.0, 0.0, 3.0, 1.0)).unwrap();
        tx.finish_all();
        assert_eq!(
            wire(&tx.take_staged(), 1 << 20),
            [
                Wire::Batch(vec![(2, 1), (4, 1)]),
                Wire::Fin(4, 1),
                Wire::Batch(vec![(2, 2)]),
                Wire::Fin(2, 2),
            ]
        );
    }

    /// No frame the sender writes, live or replayed, exceeds
    /// `max_frame`: a flush too large for one `Batch` splits.
    #[test]
    fn flushes_and_replays_split_at_max_frame() {
        // A 1-D Start+End entry: 34 payload bytes plus 3 header bytes.
        let max_frame = 100;
        let mut tx = MuxSender::new(FixedCodec, 1, NetConfig { window: 1 << 16, max_frame });
        let mut want = Vec::new();
        for i in 0..6 {
            for stream in [9, 3] {
                tx.try_send_segment(stream, &seg(i as f64 * 10.0, 0.0, i as f64 * 10.0 + 5.0, 1.0))
                    .unwrap();
            }
        }
        for stream in [3, 9] {
            want.extend((1..=6).map(|seq| (stream, seq)));
        }
        let flat = |frames: Vec<Wire>| -> (usize, Vec<(u64, u64)>) {
            let n = frames.len();
            let entries = frames
                .into_iter()
                .flat_map(|f| match f {
                    Wire::Batch(e) => e,
                    Wire::Fin(..) => panic!("no Fin was staged"),
                })
                .collect();
            (n, entries)
        };
        assert_eq!(flat(wire(&tx.take_staged(), max_frame)), (6, want.clone()), "two per frame");
        tx.on_reconnect();
        assert_eq!(flat(wire(&tx.take_staged(), max_frame)), (6, want), "the replay splits alike");
    }

    /// An entry that cannot fit `max_frame` even alone would make the
    /// peer fail the whole connection; it is refused up front, before
    /// any sequence number or credit is spent.
    #[test]
    fn an_entry_too_large_for_max_frame_is_refused_without_a_trace() {
        // A 5-D `Provisional` is 97 payload bytes: a 102-byte frame alone.
        let mut tx = MuxSender::new(FixedCodec, 5, NetConfig { window: 4096, max_frame: 100 });
        let update = ProvisionalUpdate {
            t_anchor: 0.0,
            x_anchor: [1.0; 5].into(),
            slopes: [0.5; 5].into(),
            covers_through: 2.0,
        };
        let too_large = NetError::EntryTooLarge { stream: 3, frame_len: 102, max_frame: 100 };
        assert_eq!(tx.try_send_provisional(3, &update), Err(too_large.clone()));
        assert_eq!(tx.stream_stats(3), None, "a refused first entry conjures no stream");
        assert!(tx.take_staged().is_empty());

        // A 5-D `Point` segment (49 payload bytes) fits, and the stream
        // keeps working around the refusals.
        let mut point = seg(1.0, 0.0, 1.0, 0.0);
        point.x_start = [2.0; 5].into();
        point.x_end = [2.0; 5].into();
        point.n_points = 1;
        tx.try_send_segment(3, &point).unwrap();
        let before = tx.stream_stats(3).unwrap();
        assert_eq!(tx.try_send_provisional(3, &update), Err(too_large));
        assert_eq!(tx.stream_stats(3).unwrap(), before, "no seq burned, no credit reserved");
        assert_eq!(wire(&tx.take_staged(), 100), [Wire::Batch(vec![(3, 1)])]);
    }

    #[test]
    fn credit_exhaustion_is_backpressure_and_leaves_no_trace() {
        let mut tx = MuxSender::new(FixedCodec, 1, NetConfig { window: 64, max_frame: 1 << 20 });
        // 1-D fixed-codec segment payload: Start (17) + End (17) = 34 bytes.
        tx.try_send_segment(1, &seg(0.0, 1.0, 5.0, 2.0)).unwrap();
        let staged_before = tx.staged_bytes();
        let frames_before = tx.stream_stats(1).unwrap().frames;
        assert_eq!(tx.try_send_segment(1, &seg(6.0, 0.0, 9.0, 1.0)), Err(NetError::Backpressure));
        assert_eq!(tx.staged_bytes(), staged_before, "refused send stages nothing");
        assert_eq!(tx.stream_stats(1).unwrap().frames, frames_before, "no seq burned");
        // An ack without a grant (granted_total 0) changes no credit.
        tx.on_bytes(&ack_bytes(&[cursor(1, 1, 0)])).unwrap();
        assert_eq!(tx.try_send_segment(1, &seg(6.0, 0.0, 9.0, 1.0)), Err(NetError::Backpressure));
        // A credit grant unblocks it.
        tx.on_bytes(&ack_bytes(&[cursor(1, 1, 1024)])).unwrap();
        tx.try_send_segment(1, &seg(6.0, 0.0, 9.0, 1.0)).unwrap();
    }

    #[test]
    fn acks_release_unacked_frames() {
        let mut tx = sender();
        for i in 0..3 {
            tx.try_send_segment(9, &seg(i as f64 * 10.0, 0.0, i as f64 * 10.0 + 5.0, 1.0)).unwrap();
        }
        assert!(!tx.all_acked());
        tx.on_bytes(&ack_bytes(&[cursor(9, 2, 0)])).unwrap();
        assert_eq!(tx.stream_stats(9).unwrap().unacked, 1);
        // A stale (replayed) ack changes nothing.
        tx.on_bytes(&ack_bytes(&[cursor(9, 1, 0)])).unwrap();
        assert_eq!(tx.stream_stats(9).unwrap().unacked, 1);
        tx.on_bytes(&ack_bytes(&[cursor(9, 3, 0)])).unwrap();
        assert!(tx.all_acked());
    }

    #[test]
    fn one_ack_frame_releases_every_stream_it_names() {
        let mut tx = sender();
        for stream in [2, 4, 6] {
            for i in 0..2 {
                let t = i as f64 * 10.0;
                tx.try_send_segment(stream, &seg(t, 0.0, t + 5.0, 1.0)).unwrap();
            }
        }
        tx.on_bytes(&ack_bytes(&[cursor(2, 2, 0), cursor(4, 1, 0), cursor(6, 2, 0)])).unwrap();
        assert_eq!(tx.stream_stats(2).unwrap().unacked, 0);
        assert_eq!(tx.stream_stats(4).unwrap().unacked, 1);
        assert_eq!(tx.stream_stats(6).unwrap().unacked, 0);
    }

    /// A cumulative ack must mean what the sender assumes when it trims:
    /// an ack point past the last frame sent cannot come from a correct
    /// receiver, on an `Ack` or in a `HelloAck`, and must not advance
    /// `acked` beyond anything sent.
    #[test]
    fn an_ack_beyond_the_last_frame_sent_is_a_protocol_error() {
        let mut tx = sender();
        for i in 0..3 {
            tx.try_send_segment(9, &seg(i as f64 * 10.0, 0.0, i as f64 * 10.0 + 5.0, 1.0)).unwrap();
        }
        let beyond = NetError::AckBeyondSent { stream: 9, through_seq: 4, last_seq: 3 };
        assert_eq!(tx.on_bytes(&ack_bytes(&[cursor(9, 4, 0)])), Err(beyond.clone()));
        let stats = tx.stream_stats(9).unwrap();
        assert_eq!((stats.acked, stats.unacked), (0, 3), "nothing trimmed, nothing reported");

        let mut tx = sender();
        tx.try_send_segment(9, &seg(0.0, 0.0, 5.0, 1.0)).unwrap();
        tx.on_reconnect();
        assert_eq!(
            tx.apply_resume(&[cursor(9, u64::MAX, 0)]),
            Err(NetError::AckBeyondSent { stream: 9, through_seq: u64::MAX, last_seq: 1 })
        );
        assert_eq!(tx.stream_stats(9).unwrap().acked, 0);
    }

    #[test]
    fn reconnect_replays_exactly_the_unacked_tail_and_fins() {
        let mut tx = sender();
        for i in 0..4 {
            tx.try_send_segment(5, &seg(i as f64 * 10.0, 0.0, i as f64 * 10.0 + 5.0, 1.0)).unwrap();
        }
        tx.finish_stream(5).unwrap();
        let _lost = tx.take_staged(); // written to a link that then died
        tx.on_bytes(&ack_bytes(&[cursor(5, 2, 0)])).unwrap();
        tx.on_reconnect();
        assert_eq!(
            wire(&tx.take_staged(), 1 << 20),
            [Wire::Batch(vec![(5, 3), (5, 4)]), Wire::Fin(5, 4)],
            "the two unacked entries re-batched, then the Fin"
        );
    }

    #[test]
    fn apply_resume_trims_replay_and_regrants_credit() {
        let mut tx = MuxSender::new(FixedCodec, 1, NetConfig { window: 256, max_frame: 1 << 20 });
        for i in 0..4 {
            tx.try_send_segment(5, &seg(i as f64 * 10.0, 0.0, i as f64 * 10.0 + 5.0, 1.0)).unwrap();
        }
        tx.finish_stream(5).unwrap();
        let _lost = tx.take_staged();
        tx.on_reconnect(); // 0-RTT replay staged alongside the Hello
        tx.apply_resume(&[
            cursor(5, 2, 4096),
            // Unknown stream: dropped, never materialized.
            cursor(99, 7, 1 << 40),
        ])
        .unwrap();
        assert_eq!(tx.stream_stats(99), None, "cursors must not conjure streams");
        assert_eq!(tx.stream_stats(5).unwrap().unacked, 2);
        assert!(tx.stream_stats(5).unwrap().credit_available > 0, "grant refreshed");
        // The staged replay was re-trimmed to match: seq 3, 4, then Fin.
        assert_eq!(
            wire(&tx.take_staged(), 1 << 20),
            [Wire::Batch(vec![(5, 3), (5, 4)]), Wire::Fin(5, 4)],
            "acked entries must not be replayed"
        );
    }

    /// A fresh session's `HelloAck` carries no cursors: the 0-RTT data
    /// already written behind the `Hello` must not be staged again.
    #[test]
    fn apply_resume_without_cursors_resends_nothing() {
        let mut tx = sender();
        tx.try_send_segment(5, &seg(0.0, 0.0, 5.0, 1.0)).unwrap();
        tx.on_reconnect(); // dial: the replay is staged behind the Hello
        assert!(!tx.take_staged().is_empty(), "written behind the Hello");
        tx.apply_resume(&[]).unwrap();
        assert_eq!(tx.staged_bytes(), 0, "nothing trimmed, nothing to resend");
    }

    #[test]
    fn heartbeats_at_the_sender_are_ignored_and_session_frames_rejected() {
        let mut tx = sender();
        tx.try_send_segment(1, &seg(0.0, 0.0, 1.0, 1.0)).unwrap();
        let mut buf = BytesMut::new();
        encode(&NetFrame::Heartbeat { seq: 3 }, &mut buf);
        tx.on_bytes(&buf).unwrap();
        let mut hello = BytesMut::new();
        encode(&NetFrame::Hello { version: 1, token: 0 }, &mut hello);
        assert!(matches!(tx.on_bytes(&hello), Err(NetError::UnexpectedFrame(_))));
    }

    #[test]
    fn finished_streams_refuse_more_payload() {
        let mut tx = sender();
        tx.try_send_segment(1, &seg(0.0, 0.0, 1.0, 1.0)).unwrap();
        tx.finish_stream(1).unwrap();
        tx.finish_stream(1).unwrap(); // idempotent
        assert_eq!(tx.try_send_segment(1, &seg(2.0, 0.0, 3.0, 1.0)), Err(NetError::Finished(1)));
    }

    #[test]
    fn control_frames_for_unknown_streams_are_dropped_without_state() {
        let mut tx = sender();
        tx.try_send_segment(1, &seg(0.0, 0.0, 1.0, 1.0)).unwrap();
        tx.on_bytes(&ack_bytes(&[cursor(999, 3, 1 << 40)])).unwrap();
        assert_eq!(tx.stream_stats(999), None, "no phantom stream may be conjured");
        assert_eq!(tx.streams().collect::<Vec<_>>(), vec![1]);
        // finish_all therefore fins only real streams.
        tx.finish_all();
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&tx.take_staged());
        let mut fins = 0;
        while let Some(f) = dec.try_next().unwrap() {
            if let NetFrame::Fin { stream, .. } = f {
                assert_eq!(stream, 1);
                fins += 1;
            }
        }
        assert_eq!(fins, 1);
    }

    #[test]
    fn payload_frames_at_the_sender_are_protocol_errors() {
        let mut tx = sender();
        let mut buf = BytesMut::new();
        encode(&NetFrame::Batch(Batch::from_entries([(1, 1, &b"x"[..])])), &mut buf);
        assert!(matches!(tx.on_bytes(&buf), Err(NetError::UnexpectedFrame(_))));
    }
}
