//! The sending endpoint: N logical streams multiplexed onto one framed
//! byte stream, with connection credit and replayable delivery.
//!
//! Each send becomes one entry: the stream's codec bytes. Entries wait
//! until the next flush — [`take_staged`](MuxSender::take_staged), the
//! pumps' outbox access, a [`finish_stream`](MuxSender::finish_stream),
//! or a replay — which sorts them by stream (each stream keeps its send
//! order), numbers them in the session's one sequence space, and seals
//! them into as few `Batch` frames as `max_frame` allows. Every sealed
//! frame is kept, byte for byte, until the receiver's cumulative ack
//! covers its last entry; a reconnect resends exactly those frames.
//!
//! [`MuxSender`] is *sans-I/O*: segments go in
//! ([`try_send_segment`](MuxSender::try_send_segment)), framed bytes
//! come out ([`take_staged`](MuxSender::take_staged) or the pump
//! functions in [`driver`](crate::driver)), and inbound control bytes
//! are fed back with [`on_bytes`](MuxSender::on_bytes). Nothing here
//! touches a socket, so every protocol path — credit exhaustion, ack
//! processing, reconnect replay — is deterministically testable.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use bytes::{Bytes, BytesMut};

use pla_core::{ProvisionalUpdate, Segment};
use pla_transport::wire::{provisional_message, segment_messages, Codec, Message};

use crate::credit::CreditWindow;
use crate::frame::{single_entry_frame_len, BatchWriter, FrameDecoder, NetFrame, Outbox};
use crate::{NetConfig, NetError};

/// Point-in-time sender counters, for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendStats {
    /// Session seq of the last entry sealed into a frame (0 = none).
    pub sealed: u64,
    /// Highest cumulatively acknowledged session seq.
    pub acked: u64,
    /// Entries waiting for the next flush.
    pub pending: usize,
    /// Sealed frames retained for possible replay.
    pub replay_frames: usize,
    /// Connection credit bytes currently available.
    pub credit_available: u64,
}

/// The multiplexing sender. See the [crate docs](crate) for the
/// protocol and the module docs for the sans-I/O shape.
pub struct MuxSender<C: Codec> {
    codec: C,
    dims: usize,
    config: NetConfig,
    /// Every stream sent on, with the session seq its `Fin` names once
    /// finished.
    streams: BTreeMap<u64, Option<u64>>,
    /// `(stream, payload range in pending_bytes)` of every entry not yet
    /// sealed into a frame, in send order. Both keep their capacity
    /// across flushes.
    pending: Vec<(u64, Range<usize>)>,
    pending_bytes: Vec<u8>,
    batch: BatchWriter,
    credit: CreditWindow,
    /// Session seq of the last entry sealed (0 = none yet).
    sealed: u64,
    /// Cumulative ack: every entry with `seq <= acked` was applied.
    acked: u64,
    /// Sealed `Batch` frames with an entry not yet acknowledged, oldest
    /// first, each with the seq of its last entry — exactly what a
    /// reconnect resends.
    replay: VecDeque<(u64, Bytes)>,
    out: Outbox,
    frames_in: FrameDecoder,
    scratch: BytesMut,
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
            credit: CreditWindow::new(config.window),
            sealed: 0,
            acked: 0,
            replay: VecDeque::new(),
            out: Outbox::default(),
            frames_in: FrameDecoder::new(config.max_frame),
            scratch: BytesMut::new(),
        }
    }

    /// Encodes `msgs` as one entry for `stream`; the next flush seals it
    /// into a `Batch` frame. The size and credit checks happen *before*
    /// anything is kept, so a refused send leaves no trace.
    fn try_send_messages<'a>(
        &mut self,
        stream: u64,
        msgs: impl IntoIterator<Item = &'a Message>,
    ) -> Result<(), NetError> {
        let known = match self.streams.get(&stream) {
            Some(Some(_)) => return Err(NetError::Finished(stream)),
            Some(None) => true,
            None => false,
        };
        // Each entry is a self-contained codec unit (reset first) with no
        // stream header — the contract `StreamDemux::consume_next`
        // enforces.
        self.scratch.clear();
        self.codec.reset();
        for m in msgs {
            self.codec.encode(m, self.dims, &mut self.scratch);
        }
        let len = self.scratch.len();
        // No seq is assigned before the seal; none will exceed this one.
        let seq_bound = self.sealed + self.pending.len() as u64 + 1;
        let frame_len = single_entry_frame_len(stream, seq_bound, len);
        if frame_len > self.config.max_frame as usize {
            let max_frame = self.config.max_frame;
            return Err(NetError::EntryTooLarge { stream, frame_len, max_frame });
        }
        if len as u64 > self.config.window {
            let window = self.config.window;
            return Err(NetError::EntryExceedsWindow { stream, payload_len: len, window });
        }
        if !self.credit.try_reserve(len as u64) {
            return Err(NetError::Backpressure);
        }
        if !known {
            self.streams.insert(stream, None);
        }
        let at = self.pending_bytes.len();
        self.pending_bytes.extend_from_slice(&self.scratch);
        self.pending.push((stream, at..self.pending_bytes.len()));
        Ok(())
    }

    /// Seals every pending entry into `Batch` frames, staged on the
    /// outbox and kept for replay: streams ascending, each stream's
    /// entries in send order, numbered consecutively from the session's
    /// next seq.
    fn seal_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        // Payload offsets grow in send order, so this key sorts stably
        // by stream without the scratch buffer a stable sort allocates.
        self.pending.sort_unstable_by_key(|(stream, range)| (*stream, range.start));
        for (stream, range) in &self.pending {
            self.sealed += 1;
            let payload = &self.pending_bytes[range.clone()];
            if let Some(frame) =
                self.batch.push(*stream, self.sealed, payload, self.config.max_frame)
            {
                self.out.stage(&frame.1);
                self.replay.push_back(frame);
            }
        }
        if let Some(frame) = self.batch.finish() {
            self.out.stage(&frame.1);
            self.replay.push_back(frame);
        }
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
    /// [`NetError::Backpressure`] when the connection's credit window
    /// cannot cover the encoded payload right now: nothing is sent, and
    /// the caller retries after the receiver grants more (or sheds
    /// load). This is the same contract as
    /// `pla_ingest::IngestHandle::try_push`.
    /// [`NetError::EntryTooLarge`] when even a `Batch` frame of this one
    /// entry would exceed `max_frame`, and
    /// [`NetError::EntryExceedsWindow`] when the payload is larger than
    /// the whole credit window: no retry could succeed, so nothing is
    /// sent or reserved.
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
    /// stream's data). The `Fin` names the last seq sealed so far, which
    /// is at or after the stream's last entry. Further sends on it fail
    /// with [`NetError::Finished`]; finishing twice is idempotent.
    pub fn finish_stream(&mut self, stream: u64) -> Result<(), NetError> {
        if self.is_finished(stream) {
            return Ok(());
        }
        self.seal_pending();
        let final_seq = self.sealed;
        self.streams.insert(stream, Some(final_seq));
        self.out.stage_frame(&NetFrame::Fin { stream, final_seq });
        Ok(())
    }

    /// Finishes every stream that has sent anything.
    pub fn finish_all(&mut self) {
        let ids: Vec<u64> = self.streams.keys().copied().collect();
        for id in ids {
            self.finish_stream(id).expect("finish is idempotent");
        }
    }

    /// Whether [`finish_stream`](Self::finish_stream) was called for
    /// `stream`.
    pub fn is_finished(&self, stream: u64) -> bool {
        matches!(self.streams.get(&stream), Some(Some(_)))
    }

    /// Feeds inbound link bytes (the receiver's `Ack` control frames).
    pub fn on_bytes(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.frames_in.extend(bytes);
        while let Some(frame) = self.frames_in.try_next()? {
            self.on_frame(frame)?;
        }
        Ok(())
    }

    /// Applies one already-decoded inbound frame. The session layer
    /// decodes the link itself (it must intercept `HelloAck`) and
    /// forwards the control plane here frame by frame.
    pub(crate) fn on_frame(&mut self, frame: NetFrame) -> Result<(), NetError> {
        match frame {
            NetFrame::Ack { through, granted_total } => {
                self.apply_ack(through, granted_total)?;
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
        Ok(())
    }

    /// Applies the receiver's cumulative point — from an `Ack` or a
    /// `HelloAck` alike: the ack drops every replay frame it covers
    /// whole, the grant raises the credit window (`grant_to` keeps the
    /// maximum, so a 0 grant changes nothing). Returns whether any
    /// replay frame was dropped.
    ///
    /// # Errors
    ///
    /// [`NetError::AckBeyondSent`] when the ack covers an entry this
    /// sender never sealed: trimming on it would discard frames the
    /// receiver cannot hold, so the connection is condemned instead.
    fn apply_ack(&mut self, through: u64, granted_total: u64) -> Result<bool, NetError> {
        if through > self.sealed {
            return Err(NetError::AckBeyondSent { through_seq: through, last_seq: self.sealed });
        }
        self.acked = self.acked.max(through);
        let before = self.replay.len();
        while self.replay.front().is_some_and(|(last, _)| *last <= through) {
            self.replay.pop_front();
        }
        self.credit.grant_to(granted_total);
        Ok(self.replay.len() < before)
    }

    /// Applies the receiver's point from a `HelloAck` exactly as an
    /// `Ack` frame's is applied, then restages the replay if the ack
    /// dropped any of it.
    ///
    /// # Errors
    ///
    /// [`NetError::AckBeyondSent`] when the ack covers an entry this
    /// sender never sealed, as for an `Ack` frame.
    pub fn apply_resume(&mut self, through: u64, granted_total: u64) -> Result<(), NetError> {
        // Nothing dropped (always so for a fresh session): the staged
        // replay is already exact, and restaging would resend every
        // frame written behind the `Hello` before this ack arrived.
        if !self.apply_ack(through, granted_total)? {
            return Ok(());
        }
        // The replay staged by `on_reconnect` now holds frames the ack
        // just covered; restage from the trimmed deque so the wire never
        // carries a *whole* frame the receiver already holds. But this
        // runs on a live link: if the link accepted a partial write, the
        // frame it tore must complete first — the receiver drops
        // duplicate entries by seq, it cannot survive a torn frame.
        let torn: Option<Vec<u8>> = self.out.partial_head().map(<[u8]>::to_vec);
        self.out.clear();
        if let Some(tail) = torn {
            self.out.stage(&tail);
        }
        self.restage();
        Ok(())
    }

    /// The connection died: drop everything staged for the dead link,
    /// forget its partial inbound frame, and restage every sealed frame
    /// not yet acknowledged, byte for byte, plus the `Fin` of every
    /// finished stream. The receiver drops whatever it already applied
    /// by seq, so replaying is always safe. Entries not yet sealed stay
    /// pending for the next flush.
    pub fn on_reconnect(&mut self) {
        self.out.clear();
        self.frames_in.reset();
        self.restage();
    }

    /// Stages every replay frame, then the `Fin` of every finished
    /// stream, behind all of its data.
    fn restage(&mut self) {
        for (_, frame) in &self.replay {
            self.out.stage(frame);
        }
        for (&stream, &fin) in &self.streams {
            if let Some(final_seq) = fin {
                self.out.stage_frame(&NetFrame::Fin { stream, final_seq });
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
        self.pending.is_empty() && self.replay.is_empty()
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

    /// The session's sequencing, replay and credit counters.
    pub fn stats(&self) -> SendStats {
        SendStats {
            sealed: self.sealed,
            acked: self.acked,
            pending: self.pending.len(),
            replay_frames: self.replay.len(),
            credit_available: self.credit.available(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode;
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

    /// The `i`-th of a run of non-overlapping segments.
    fn nth(i: usize) -> Segment {
        seg(i as f64 * 10.0, 0.0, i as f64 * 10.0 + 5.0, 1.0)
    }

    fn sender() -> MuxSender<FixedCodec> {
        MuxSender::new(FixedCodec, 1, NetConfig::default())
    }

    /// The wire bytes of one `Ack` frame.
    fn ack_bytes(through: u64, granted_total: u64) -> BytesMut {
        let mut buf = BytesMut::new();
        encode(&NetFrame::Ack { through, granted_total }, &mut buf);
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
            tx.try_send_segment(5, &nth(i)).unwrap();
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

        tx.apply_resume(1, 1 << 20).unwrap();

        // The wire = what the link already accepted + what goes out now.
        let mut wire_bytes = staged[..cut].to_vec();
        wire_bytes.extend(tx.take_staged());
        // Frames 1-2 were fully written, the torn frame 3 completes,
        // then the trimmed replay (frames 2..=4, byte for byte) follows;
        // the receiver dedups entries by seq.
        assert_eq!(
            wire(&wire_bytes, 1 << 20),
            [
                Wire::Batch(vec![(5, 1)]),
                Wire::Batch(vec![(5, 2)]),
                Wire::Batch(vec![(5, 3)]),
                Wire::Batch(vec![(5, 2)]),
                Wire::Batch(vec![(5, 3)]),
                Wire::Batch(vec![(5, 4)]),
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
        // One flush, one frame: streams ascending, each stream in send
        // order, session seqs assigned at the seal.
        assert_eq!(wire(&tx.take_staged(), 1 << 20), [Wire::Batch(vec![(2, 1), (4, 2), (4, 3)])]);
        let stats = tx.stats();
        assert_eq!((stats.sealed, stats.replay_frames), (3, 1), "the frame kept until acked");
        // Entries sent after a flush go out in the next one.
        tx.try_send_segment(4, &seg(10.0, 0.0, 12.0, 1.0)).unwrap();
        assert_eq!(wire(&tx.take_staged(), 1 << 20), [Wire::Batch(vec![(4, 4)])]);
        assert!(tx.take_staged().is_empty(), "sealed entries are not sent twice");
    }

    /// A `Fin` is staged behind its stream's last entry even when that
    /// entry was still waiting for a flush, and names the last seq
    /// sealed by then.
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
                Wire::Batch(vec![(2, 1), (4, 2)]),
                Wire::Fin(4, 2),
                Wire::Batch(vec![(2, 3)]),
                Wire::Fin(2, 3),
            ]
        );
    }

    /// No frame the sender writes, live or replayed, exceeds
    /// `max_frame`: a flush too large for one `Batch` splits, and the
    /// replay resends those same frames.
    #[test]
    fn flushes_and_replays_split_at_max_frame() {
        // A 1-D Start+End entry: 34 payload bytes plus 2 header bytes.
        let max_frame = 100;
        let mut tx = MuxSender::new(FixedCodec, 1, NetConfig { window: 1 << 16, max_frame });
        let mut want = Vec::new();
        for i in 0..6 {
            for stream in [9, 3] {
                tx.try_send_segment(stream, &nth(i)).unwrap();
            }
        }
        for (k, stream) in [3, 9].into_iter().enumerate() {
            want.extend((1..=6).map(|i| (stream, k as u64 * 6 + i)));
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
        let live = tx.take_staged();
        assert_eq!(flat(wire(&live, max_frame)), (6, want), "two per frame");
        tx.on_reconnect();
        assert_eq!(tx.take_staged(), live, "the replay resends the sealed frames byte for byte");
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
        assert_eq!(tx.streams().count(), 0, "a refused first entry conjures no stream");
        assert!(tx.take_staged().is_empty());

        // A 5-D `Point` segment (49 payload bytes) fits, and the stream
        // keeps working around the refusals.
        let mut point = seg(1.0, 0.0, 1.0, 0.0);
        point.x_start = [2.0; 5].into();
        point.x_end = [2.0; 5].into();
        point.n_points = 1;
        tx.try_send_segment(3, &point).unwrap();
        let before = tx.stats();
        assert_eq!(tx.try_send_provisional(3, &update), Err(too_large));
        assert_eq!(tx.stats(), before, "no entry kept, no credit reserved");
        assert_eq!(wire(&tx.take_staged(), 100), [Wire::Batch(vec![(3, 1)])]);
    }

    /// Grants top up to `delivered + window`, so a payload larger than
    /// the whole window could never be admitted: it is refused typed at
    /// send time instead of parking forever as backpressure.
    #[test]
    fn an_entry_larger_than_the_credit_window_is_refused_without_a_trace() {
        // A 3-D Start+End segment is 66 payload bytes.
        let mut tx = MuxSender::new(FixedCodec, 3, NetConfig { window: 64, max_frame: 1 << 20 });
        let mut wide = seg(0.0, 0.0, 5.0, 1.0);
        wide.x_start = [1.0; 3].into();
        wide.x_end = [2.0; 3].into();
        let over = NetError::EntryExceedsWindow { stream: 2, payload_len: 66, window: 64 };
        assert_eq!(tx.try_send_segment(2, &wide), Err(over));
        assert_eq!(tx.streams().count(), 0);
        assert_eq!(tx.stats().credit_available, 64, "no credit reserved");
        // A 3-D `Point` (33 bytes) fits the same window.
        let mut point = seg(1.0, 0.0, 1.0, 0.0);
        point.x_start = [2.0; 3].into();
        point.x_end = [2.0; 3].into();
        point.n_points = 1;
        tx.try_send_segment(2, &point).unwrap();
    }

    #[test]
    fn credit_exhaustion_is_backpressure_and_leaves_no_trace() {
        let mut tx = MuxSender::new(FixedCodec, 1, NetConfig { window: 64, max_frame: 1 << 20 });
        // 1-D fixed-codec segment payload: Start (17) + End (17) = 34 bytes.
        tx.try_send_segment(1, &seg(0.0, 1.0, 5.0, 2.0)).unwrap();
        let before = tx.stats();
        // The window is the connection's: another stream is refused too.
        for stream in [1, 2] {
            assert_eq!(tx.try_send_segment(stream, &nth(1)), Err(NetError::Backpressure));
        }
        assert_eq!(tx.stats(), before, "refused sends keep nothing");
        assert_eq!(tx.streams().collect::<Vec<_>>(), [1], "nor conjure a stream");
        tx.take_staged();
        // An ack without a grant (granted_total 0) changes no credit.
        tx.on_bytes(&ack_bytes(1, 0)).unwrap();
        assert_eq!(tx.try_send_segment(1, &nth(1)), Err(NetError::Backpressure));
        // A credit grant unblocks it.
        tx.on_bytes(&ack_bytes(1, 1024)).unwrap();
        tx.try_send_segment(2, &nth(1)).unwrap();
    }

    #[test]
    fn acks_release_unacked_frames() {
        let mut tx = sender();
        for i in 0..3 {
            tx.try_send_segment(9, &nth(i)).unwrap();
            tx.outbox(); // one frame per entry
        }
        assert!(!tx.all_acked());
        tx.on_bytes(&ack_bytes(2, 0)).unwrap();
        assert_eq!(tx.stats().replay_frames, 1);
        // A stale (replayed) ack changes nothing.
        tx.on_bytes(&ack_bytes(1, 0)).unwrap();
        assert_eq!((tx.stats().replay_frames, tx.stats().acked), (1, 2));
        tx.on_bytes(&ack_bytes(3, 0)).unwrap();
        assert!(tx.all_acked());
    }

    /// One cumulative ack covers every stream's entries at or below it;
    /// a frame stays until the ack covers its last entry.
    #[test]
    fn one_ack_frame_releases_every_stream_it_names() {
        let mut tx = sender();
        for stream in [2, 4, 6] {
            for i in 0..2 {
                tx.try_send_segment(stream, &nth(i)).unwrap();
            }
        }
        tx.outbox(); // one frame, seqs 1..=6
        tx.try_send_segment(2, &nth(2)).unwrap();
        tx.outbox(); // a second frame, seq 7
        tx.on_bytes(&ack_bytes(5, 0)).unwrap();
        assert_eq!(tx.stats().replay_frames, 2, "seq 6 is unacked, so its frame stays");
        tx.on_bytes(&ack_bytes(6, 0)).unwrap();
        assert_eq!(tx.stats().replay_frames, 1);
        assert!(!tx.all_acked());
    }

    /// A cumulative ack must mean what the sender assumes when it trims:
    /// an ack past the last entry sealed cannot come from a correct
    /// receiver, on an `Ack` or in a `HelloAck`, and must not advance
    /// `acked` beyond anything sealed.
    #[test]
    fn an_ack_beyond_the_last_frame_sent_is_a_protocol_error() {
        let mut tx = sender();
        for i in 0..3 {
            tx.try_send_segment(9, &nth(i)).unwrap();
        }
        // Entries still pending have no seq yet: nothing is sealed.
        let beyond = NetError::AckBeyondSent { through_seq: 1, last_seq: 0 };
        assert_eq!(tx.on_bytes(&ack_bytes(1, 0)), Err(beyond));
        tx.outbox();
        let beyond = NetError::AckBeyondSent { through_seq: 4, last_seq: 3 };
        assert_eq!(tx.on_bytes(&ack_bytes(4, 0)), Err(beyond));
        let stats = tx.stats();
        assert_eq!((stats.acked, stats.replay_frames), (0, 1), "nothing trimmed or reported");

        let mut tx = sender();
        tx.try_send_segment(9, &nth(0)).unwrap();
        tx.outbox();
        tx.on_reconnect();
        assert_eq!(
            tx.apply_resume(u64::MAX, 0),
            Err(NetError::AckBeyondSent { through_seq: u64::MAX, last_seq: 1 })
        );
        assert_eq!(tx.stats().acked, 0);
    }

    #[test]
    fn reconnect_replays_exactly_the_unacked_tail_and_fins() {
        let mut tx = sender();
        for i in 0..4 {
            tx.try_send_segment(5, &nth(i)).unwrap();
            tx.outbox(); // one frame per entry
        }
        tx.finish_stream(5).unwrap();
        let _lost = tx.take_staged(); // written to a link that then died
        tx.on_bytes(&ack_bytes(2, 0)).unwrap();
        tx.on_reconnect();
        assert_eq!(
            wire(&tx.take_staged(), 1 << 20),
            [Wire::Batch(vec![(5, 3)]), Wire::Batch(vec![(5, 4)]), Wire::Fin(5, 4)],
            "the two unacked frames resent as they were, then the Fin"
        );
    }

    #[test]
    fn apply_resume_trims_replay_and_regrants_credit() {
        let mut tx = MuxSender::new(FixedCodec, 1, NetConfig { window: 256, max_frame: 1 << 20 });
        for i in 0..4 {
            tx.try_send_segment(5, &nth(i)).unwrap();
            tx.outbox(); // one frame per entry
        }
        tx.finish_stream(5).unwrap();
        let _lost = tx.take_staged();
        assert_eq!(tx.stats().credit_available, 256 - 4 * 34);
        tx.on_reconnect(); // 0-RTT replay staged alongside the Hello
        tx.apply_resume(2, 4096).unwrap();
        assert_eq!(tx.stats().replay_frames, 2);
        assert_eq!(tx.stats().credit_available, 4096 - 4 * 34, "grant refreshed");
        // The staged replay was re-trimmed to match: seq 3, 4, then Fin.
        assert_eq!(
            wire(&tx.take_staged(), 1 << 20),
            [Wire::Batch(vec![(5, 3)]), Wire::Batch(vec![(5, 4)]), Wire::Fin(5, 4)],
            "acked frames must not be replayed"
        );
    }

    /// A fresh session's `HelloAck` acks nothing: the 0-RTT data
    /// already written behind the `Hello` must not be staged again.
    #[test]
    fn apply_resume_without_cursors_resends_nothing() {
        let mut tx = sender();
        tx.try_send_segment(5, &nth(0)).unwrap();
        tx.outbox();
        tx.on_reconnect(); // dial: the replay is staged behind the Hello
        assert!(!tx.take_staged().is_empty(), "written behind the Hello");
        tx.apply_resume(0, 0).unwrap();
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
        assert!(tx.is_finished(1));
        assert_eq!(tx.try_send_segment(1, &seg(2.0, 0.0, 3.0, 1.0)), Err(NetError::Finished(1)));
    }

    /// Control frames name no stream, so no ack or grant can conjure
    /// one: `finish_all` fins only streams that were sent on.
    #[test]
    fn control_frames_for_unknown_streams_are_dropped_without_state() {
        let mut tx = sender();
        tx.try_send_segment(1, &seg(0.0, 0.0, 1.0, 1.0)).unwrap();
        tx.outbox();
        tx.on_bytes(&ack_bytes(1, 1 << 40)).unwrap();
        assert_eq!(tx.streams().collect::<Vec<_>>(), vec![1]);
        tx.finish_all();
        let fins: Vec<Wire> = wire(&tx.take_staged(), 1 << 20)
            .into_iter()
            .filter(|w| matches!(w, Wire::Fin(..)))
            .collect();
        assert_eq!(fins, [Wire::Fin(1, 1)]);
    }

    #[test]
    fn payload_frames_at_the_sender_are_protocol_errors() {
        let mut tx = sender();
        let mut buf = BytesMut::new();
        encode(&NetFrame::Batch(Batch::from_entries(1, [(1, &b"x"[..])])), &mut buf);
        assert!(matches!(tx.on_bytes(&buf), Err(NetError::UnexpectedFrame(_))));
    }
}
