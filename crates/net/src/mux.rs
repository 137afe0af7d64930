//! The sending endpoint: N logical streams multiplexed onto one framed
//! byte stream, with per-stream credit and replayable delivery.
//!
//! [`MuxSender`] is *sans-I/O*: segments go in
//! ([`try_send_segment`](MuxSender::try_send_segment)), framed bytes
//! come out ([`take_staged`](MuxSender::take_staged) or the pump
//! functions in [`driver`](crate::driver)), and inbound control bytes
//! are fed back with [`on_bytes`](MuxSender::on_bytes). Nothing here
//! touches a socket, so every protocol path — credit exhaustion, ack
//! processing, reconnect replay — is deterministically testable.

use std::collections::{BTreeMap, VecDeque};

use bytes::{Bytes, BytesMut};

use pla_core::{ProvisionalUpdate, Segment};
use pla_transport::wire::{provisional_message, segment_messages, Codec, Message};

use crate::credit::CreditWindow;
use crate::frame::{encode, encode_data, FrameDecoder, NetFrame, Outbox, ResumeCursor};
use crate::{NetConfig, NetError};

/// Per-stream sender state.
struct SendStream {
    /// Sequence number of the last `Data` frame produced (0 = none yet).
    last_seq: u64,
    /// Highest cumulatively acknowledged sequence number.
    acked: u64,
    credit: CreditWindow,
    /// Encoded `Data` frames not yet acknowledged, oldest first —
    /// exactly what a reconnect replays.
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
    /// `Data` frames produced so far.
    pub frames: u64,
    /// Highest acknowledged sequence number.
    pub acked: u64,
    /// Frames retained for possible replay.
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

    /// Encodes `msgs` as one sequenced `Data` frame for `stream`,
    /// stages it, and retains it for replay. The credit check happens
    /// *before* anything is staged, so a refused send leaves no trace.
    fn try_send_messages<'a>(
        &mut self,
        stream: u64,
        msgs: impl IntoIterator<Item = &'a Message>,
    ) -> Result<(), NetError> {
        let window = self.config.window;
        let entry = self.streams.entry(stream).or_insert_with(|| SendStream::new(window));
        if entry.finished {
            return Err(NetError::Finished(stream));
        }
        // Each frame is a self-contained codec unit (reset first), led
        // by the stream's own header — the contract
        // `StreamDemux::consume_sequenced` enforces.
        self.scratch.clear();
        self.codec.reset();
        self.codec.encode(&Message::StreamFrame { stream }, self.dims, &mut self.scratch);
        for m in msgs {
            self.codec.encode(m, self.dims, &mut self.scratch);
        }
        let payload_len = self.scratch.len() as u64;
        if !entry.credit.try_reserve(payload_len) {
            return Err(NetError::Backpressure);
        }
        entry.last_seq += 1;
        let seq = entry.last_seq;
        // Both scratch buffers keep their capacity from frame to frame;
        // the replay copy is the one allocation a frame costs.
        self.frame_scratch.clear();
        encode_data(stream, seq, &self.scratch, &mut self.frame_scratch);
        self.out.stage(&self.frame_scratch);
        entry.unacked.push_back((seq, Bytes::copy_from_slice(&self.frame_scratch)));
        Ok(())
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

    /// Marks `stream` complete and stages its `Fin` frame. Further
    /// sends on it fail with [`NetError::Finished`]; finishing twice is
    /// idempotent.
    pub fn finish_stream(&mut self, stream: u64) -> Result<(), NetError> {
        let entry = self.stream_entry(stream);
        if entry.finished {
            return Ok(());
        }
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
            NetFrame::Data { .. } => return Err(NetError::UnexpectedFrame("Data at sender")),
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
    /// replay frame was trimmed.
    ///
    /// Cursors naming a stream this sender never sent on are dropped
    /// without materializing state: a corrupt or hostile peer must not
    /// be able to conjure phantom streams (which `finish_all` would
    /// then Fin).
    ///
    /// # Errors
    ///
    /// [`NetError::AckBeyondSent`] when a cursor acknowledges a frame
    /// this sender never produced: trimming on it would discard frames
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
    /// [`NetError::AckBeyondSent`] when a cursor acknowledges a frame
    /// this sender never produced, as for an `Ack` frame.
    pub fn apply_resume(&mut self, cursors: &[ResumeCursor]) -> Result<(), NetError> {
        // Nothing trimmed (always so for a fresh session): the staged
        // replay is already exact, and restaging would resend every
        // frame written behind the `Hello` before this ack arrived.
        if !self.apply_cursors(cursors)? {
            return Ok(());
        }
        // The replay staged by `on_reconnect` now contains frames the
        // cursors just acknowledged; restage from the trimmed buffers so
        // the wire never carries a *whole* frame the receiver already
        // holds. But this runs on a live link: if the link accepted a
        // partial write, the frame it tore must complete first — the
        // receiver drops duplicate frames by sequence number, it cannot
        // survive a torn one.
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
    /// unacknowledged `Data` frame (in per-stream sequence order) plus
    /// the `Fin` of every finished stream. The receiver drops whatever
    /// it already applied by sequence number, so replaying is always
    /// safe.
    pub fn on_reconnect(&mut self) {
        self.out.clear();
        self.frames_in.reset();
        self.restage_unacked();
    }

    /// Stages every unacknowledged `Data` frame (in per-stream sequence
    /// order) plus the `Fin` of every finished stream.
    fn restage_unacked(&mut self) {
        for (&stream, entry) in &self.streams {
            for (_, frame_bytes) in &entry.unacked {
                self.out.stage(frame_bytes);
            }
            if entry.finished {
                self.frame_scratch.clear();
                let fin = NetFrame::Fin { stream, final_seq: entry.last_seq };
                encode(&fin, &mut self.frame_scratch);
                self.out.stage(&self.frame_scratch);
            }
        }
    }

    /// Whether every produced frame has been acknowledged and nothing
    /// is waiting for the link — the sender's "safe to stop pumping"
    /// condition (together with having called
    /// [`finish_all`](Self::finish_all)).
    pub fn is_idle(&self) -> bool {
        self.out.is_empty() && self.streams.values().all(|s| s.unacked.is_empty())
    }

    /// Whether every produced frame has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.streams.values().all(|s| s.unacked.is_empty())
    }

    /// Bytes staged for the link but not yet written.
    pub fn staged_bytes(&self) -> usize {
        self.out.pending()
    }

    /// Drains every staged byte (manual pumping; the
    /// [`driver`](crate::driver) pumps incrementally instead).
    pub fn take_staged(&mut self) -> Vec<u8> {
        self.out.take()
    }

    pub(crate) fn outbox(&mut self) -> &mut Outbox {
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

    /// `apply_resume` arrives on the *live* link; if the link tore a
    /// frame on a partial write, the rebuilt outbox must lead with that
    /// frame's remaining bytes or the peer's decoder desyncs.
    #[test]
    fn apply_resume_preserves_a_torn_frame() {
        let mut tx = MuxSender::new(FixedCodec, 1, NetConfig { window: 4096, max_frame: 1 << 20 });
        for i in 0..4 {
            tx.try_send_segment(5, &seg(i as f64 * 10.0, 0.0, i as f64 * 10.0 + 5.0, 1.0)).unwrap();
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
        let mut wire = staged[..cut].to_vec();
        wire.extend(tx.take_staged());
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&wire);
        let mut seqs = Vec::new();
        while let Some(f) = dec.try_next().expect("wire must stay framed") {
            match f {
                NetFrame::Data { stream: 5, seq, .. } => seqs.push(seq),
                other => panic!("unexpected frame on the wire: {other:?}"),
            }
        }
        assert_eq!(dec.pending(), 0, "no torn bytes left behind");
        // Frames 1-2 were fully written, the torn frame 3 completes,
        // then the trimmed replay (unacked 2..=4) follows; the receiver
        // dedups whole frames by seq.
        assert_eq!(seqs, vec![1, 2, 3, 2, 3, 4]);
    }

    #[test]
    fn segments_become_sequenced_data_frames() {
        let mut tx = sender();
        tx.try_send_segment(4, &seg(0.0, 1.0, 5.0, 2.0)).unwrap();
        tx.try_send_segment(4, &seg(6.0, 0.0, 9.0, 1.0)).unwrap();
        tx.try_send_segment(2, &seg(0.0, 0.0, 1.0, 1.0)).unwrap();
        let bytes = tx.take_staged();
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&bytes);
        let mut seen = Vec::new();
        while let Some(f) = dec.try_next().unwrap() {
            match f {
                NetFrame::Data { stream, seq, .. } => seen.push((stream, seq)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen, vec![(4, 1), (4, 2), (2, 1)], "per-stream sequence numbers");
        let s4 = tx.stream_stats(4).unwrap();
        assert_eq!(s4.frames, 2);
        assert_eq!(s4.unacked, 2, "frames retained until acked");
    }

    #[test]
    fn credit_exhaustion_is_backpressure_and_leaves_no_trace() {
        let mut tx = MuxSender::new(FixedCodec, 1, NetConfig { window: 64, max_frame: 1 << 20 });
        // 1-D fixed-codec segment payload: header (9) + Start (17) + End (17) = 43 bytes.
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
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&tx.take_staged());
        let mut replay = Vec::new();
        while let Some(f) = dec.try_next().unwrap() {
            replay.push(f);
        }
        assert_eq!(replay.len(), 3, "two unacked Data frames plus the Fin");
        assert!(matches!(replay[0], NetFrame::Data { stream: 5, seq: 3, .. }));
        assert!(matches!(replay[1], NetFrame::Data { stream: 5, seq: 4, .. }));
        assert_eq!(replay[2], NetFrame::Fin { stream: 5, final_seq: 4 });
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
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&tx.take_staged());
        let mut replay = Vec::new();
        while let Some(f) = dec.try_next().unwrap() {
            replay.push(f);
        }
        assert_eq!(replay.len(), 3, "acked frames must not be replayed, got {replay:?}");
        assert!(matches!(replay[0], NetFrame::Data { stream: 5, seq: 3, .. }));
        assert!(matches!(replay[1], NetFrame::Data { stream: 5, seq: 4, .. }));
        assert_eq!(replay[2], NetFrame::Fin { stream: 5, final_seq: 4 });
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
        encode(&NetFrame::Data { stream: 1, seq: 1, payload: Bytes::from_static(b"x") }, &mut buf);
        assert!(matches!(tx.on_bytes(&buf), Err(NetError::UnexpectedFrame(_))));
    }
}
