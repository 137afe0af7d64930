//! The receiving endpoint: framed bytes in, reconstructed
//! `(stream, segment)` pairs out, acks and credit grants back.
//!
//! [`NetReceiver`] is the sans-I/O twin of
//! [`MuxSender`](crate::MuxSender): it owns the
//! [`FrameDecoder`], a [`StreamDemux`]
//! (which performs the actual segment reconstruction), the session's
//! applied seq (the dedup point that makes replay safe) and one
//! [`ReceiveWindow`] for the whole connection. Each stream's `Fin`
//! lives in the demux's slot for the stream, so applying an entry costs
//! one map lookup. Segments leave through one buffer, in arrival order
//! ([`take_segments`](NetReceiver::take_segments)); a `Fin` closes its
//! stream's trailing hold into that buffer the moment it is applied.
//!
//! # Batched acknowledgements
//!
//! Applying a `Batch` stages nothing. [`flush_control`](NetReceiver::flush_control)
//! — called once per pump round by the [`driver`](crate::driver) pumps
//! and by [`take_staged`](NetReceiver::take_staged) — then emits **one**
//! `Ack` frame: the session seq applied through and, when one is due,
//! the connection's credit top-up, however many entries and streams the
//! round applied. The cumulative ack makes the coalescing free: acking
//! `through = 7` acknowledges entries 1–7 at once, and a replayed `Ack`
//! is a no-op at the sender.

use std::collections::VecDeque;

use bytes::BytesMut;

use pla_core::Segment;
use pla_transport::wire::Codec;
use pla_transport::StreamDemux;

use crate::credit::ReceiveWindow;
use crate::frame::{encode, FrameDecoder, NetFrame, Outbox};
use crate::{NetConfig, NetError};

/// Heartbeats awaiting an echo are bounded: a peer that floods probes
/// faster than control flushes run only keeps the newest few echoed.
const HEARTBEAT_ECHO_CAP: usize = 32;

/// Point-in-time counters for one receiving endpoint, for the
/// collector's per-connection observability and for tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Sequenced entries applied to the demultiplexer.
    pub frames_applied: u64,
    /// Entries dropped as duplicates (replays after reconnect) —
    /// shed load that must stay observable, mirroring
    /// `pla_ingest::ShardStats::backpressure`.
    pub dup_drops: u64,
    /// Streams seen on this connection.
    pub streams: usize,
    /// Streams whose `Fin` has arrived.
    pub finished_streams: usize,
    /// `Ack` frames staged: one per control flush that followed any
    /// `Batch`, however many entries and streams it covers.
    pub acks_staged: u64,
    /// Connection credit grants staged: one per `Ack` carrying a nonzero
    /// `granted_total`.
    pub credits_staged: u64,
    /// `Heartbeat` probes received (each is echoed on the next control
    /// flush).
    pub heartbeats: u64,
    /// In-session `Hello` frames ignored — a replayed handshake is
    /// idempotent, like a replayed `Fin`, but stays observable.
    pub stray_hellos: u64,
}

/// The receiver's own state for one stream, kept in the demux's slot
/// for it (see [`StreamDemux::consume_next`]).
#[derive(Debug, Default)]
pub struct RxStream {
    /// The session seq its `Fin` named, once one arrived.
    fin: Option<u64>,
}

/// The multiplexed receiver. Feed it link bytes with
/// [`on_bytes`](Self::on_bytes); collect its outbound `Ack`
/// control frames from [`take_staged`](Self::take_staged) (or the
/// [`driver`](crate::driver) pumps); move reconstructed segments out
/// with [`take_segments`](Self::take_segments).
pub struct NetReceiver<C: Codec> {
    frames: FrameDecoder,
    demux: StreamDemux<C, RxStream>,
    /// Cumulative ack: the session seq applied through.
    applied: u64,
    window: ReceiveWindow,
    /// Whether a `Batch` arrived since the last
    /// [`flush_control`](Self::flush_control).
    ack_due: bool,
    out: Outbox,
    scratch: BytesMut,
    /// Heartbeat sequence numbers to echo back on the next control
    /// flush (bounded by [`HEARTBEAT_ECHO_CAP`]).
    heartbeat_echoes: VecDeque<u64>,
    frames_applied: u64,
    dup_drops: u64,
    acks_staged: u64,
    credits_staged: u64,
    heartbeats: u64,
    stray_hellos: u64,
}

impl<C: Codec> NetReceiver<C> {
    /// Creates a receiver for `dims`-dimensional streams. `config` must
    /// match the sender's (the initial credit window is an implicit
    /// shared constant).
    pub fn new(codec: C, dims: usize, config: NetConfig) -> Self {
        Self {
            frames: FrameDecoder::new(config.max_frame),
            demux: StreamDemux::with_slots(codec, dims),
            applied: 0,
            window: ReceiveWindow::new(config.window),
            ack_due: false,
            out: Outbox::default(),
            scratch: BytesMut::new(),
            heartbeat_echoes: VecDeque::new(),
            frames_applied: 0,
            dup_drops: 0,
            acks_staged: 0,
            credits_staged: 0,
            heartbeats: 0,
            stray_hellos: 0,
        }
    }

    fn stage_frame(&mut self, frame: &NetFrame) {
        self.scratch.clear();
        encode(frame, &mut self.scratch);
        self.out.stage(&self.scratch);
    }

    /// Feeds inbound link bytes, applying every complete frame:
    ///
    /// * `Batch` → each entry above the applied seq in order, exactly as
    ///   if it had arrived alone; entries at or below it are replays and
    ///   are dropped. Either way an `Ack` is due, so a sender whose acks
    ///   were lost with the old connection can still release its replay
    ///   frames. An entry whose payload would overrun the granted credit
    ///   is refused with [`NetError::CreditOverrun`]; replays do not
    ///   count against the credit.
    /// * `Fin` → the stream is complete; verified against the applied
    ///   seq. Its trailing hold, if any, is closed into the segment
    ///   buffer; a replayed `Fin` finds no hold and emits nothing.
    /// * `Ack` → protocol error at this endpoint.
    pub fn on_bytes(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.frames.extend(bytes);
        while let Some(frame) = self.frames.try_next()? {
            match frame {
                NetFrame::Batch(batch) => {
                    self.ack_due = true;
                    for entry in batch.entries() {
                        if entry.seq <= self.applied {
                            self.dup_drops += 1;
                            continue;
                        }
                        let expected = self.applied + 1;
                        if entry.seq != expected {
                            return Err(NetError::SequenceGap { expected, got: entry.seq });
                        }
                        self.window.on_delivered(entry.payload.len() as u64)?;
                        self.demux.consume_next(entry.stream, entry.payload)?;
                        self.applied = expected;
                        self.frames_applied += 1;
                    }
                }
                NetFrame::Fin { stream, final_seq } => {
                    if final_seq > self.applied {
                        let applied = self.applied;
                        return Err(NetError::IncompleteFin { stream, final_seq, applied });
                    }
                    // Idempotent: a replayed Fin re-records the same
                    // fact, and its flush finds no hold left to close.
                    self.demux.slot_mut(stream).fin = Some(final_seq);
                    self.demux.flush_stream(stream);
                }
                NetFrame::Heartbeat { seq } => {
                    self.heartbeats += 1;
                    if self.heartbeat_echoes.len() == HEARTBEAT_ECHO_CAP {
                        self.heartbeat_echoes.pop_front();
                    }
                    self.heartbeat_echoes.push_back(seq);
                }
                // A sender whose Hello was duplicated in flight (or
                // replayed by a faulty middlebox) must not lose the
                // session: like a replayed Fin, an in-session Hello
                // re-states a fact this side already acted on.
                NetFrame::Hello { .. } => self.stray_hellos += 1,
                NetFrame::Ack { .. } => return Err(NetError::UnexpectedFrame("Ack at receiver")),
                NetFrame::HelloAck { .. } => {
                    return Err(NetError::UnexpectedFrame("HelloAck at receiver"))
                }
                // The ingest plane never carries query traffic; a query
                // frame here means the peer confused the two servers.
                NetFrame::QueryReq { .. } | NetFrame::EpochsReq { .. } => {
                    return Err(NetError::UnexpectedFrame("query request at ingest receiver"))
                }
                NetFrame::QueryResp { .. } | NetFrame::EpochsResp { .. } => {
                    return Err(NetError::UnexpectedFrame("query response at ingest receiver"))
                }
            }
        }
        Ok(())
    }

    /// Stages the batched control traffic for everything received since
    /// the last flush: one `Ack` frame with the applied seq, whose
    /// `granted_total` is the connection's credit top-up when the grant
    /// schedule says one is due and 0 otherwise.
    ///
    /// The [`driver`](crate::driver) pumps call this once per round
    /// (and [`take_staged`](Self::take_staged) calls it for manual
    /// pumping), which is what turns per-entry control chatter into
    /// per-round batches: a round that applies 20 entries on each of 200
    /// streams acks them all with one frame of a few bytes.
    pub fn flush_control(&mut self) {
        if std::mem::take(&mut self.ack_due) {
            let grant = self.window.due_grant();
            self.credits_staged += u64::from(grant.is_some());
            self.acks_staged += 1;
            let ack = NetFrame::Ack { through: self.applied, granted_total: grant.unwrap_or(0) };
            self.stage_frame(&ack);
        }
        while let Some(seq) = self.heartbeat_echoes.pop_front() {
            self.stage_frame(&NetFrame::Heartbeat { seq });
        }
    }

    /// Moves every segment reconstructed since the last take out of the
    /// receiver as `(stream, segment)`, in arrival order — the
    /// collector's publish feed ([`StreamDemux::take_segments`]).
    pub fn take_segments(&mut self) -> std::vec::Drain<'_, (u64, Segment)> {
        self.demux.take_segments()
    }

    /// This side's cumulative resume point: the session seq applied
    /// through and the current credit grant — the payload of a
    /// session-resume `HelloAck`, from which the reconnected sender
    /// trims its replay frames and resumes sending.
    pub fn resume_point(&self) -> (u64, u64) {
        (self.applied, self.window.current_grant())
    }

    /// The link died but the session survives: forget the dead link's
    /// partial inbound frame, its undelivered control bytes, and any
    /// batched-but-unflushed ack — **without** staging anything. The
    /// session handshake announces this side's cumulative state through
    /// the [`resume_point`](Self::resume_point) of its `HelloAck`
    /// instead.
    pub fn reset_link(&mut self) {
        self.frames.reset();
        self.out.clear();
        self.ack_due = false;
        self.heartbeat_echoes.clear();
    }

    /// Stages one session-layer frame (`HelloAck`, handshake-time
    /// heartbeats) ahead of whatever control traffic follows.
    pub(crate) fn stage_session(&mut self, frame: &NetFrame) {
        self.stage_frame(frame);
    }

    /// The reconstruction state: buffered segments, coverage, counters.
    pub fn demux(&self) -> &StreamDemux<C, RxStream> {
        &self.demux
    }

    /// Consumes the receiver, handing back the demultiplexer (for
    /// [`StreamDemux::into_segment_logs`]).
    pub fn into_demux(self) -> StreamDemux<C, RxStream> {
        self.demux
    }

    /// Streams whose `Fin` has arrived, ascending.
    pub fn finished_streams(&self) -> impl Iterator<Item = u64> + '_ {
        self.demux.slots().filter(|(_, rx)| rx.fin.is_some()).map(|(stream, _)| stream)
    }

    /// Whether `stream` is complete.
    pub fn is_finished(&self, stream: u64) -> bool {
        self.demux.slot(stream).is_some_and(|rx| rx.fin.is_some())
    }

    /// Current endpoint counters (entries applied, duplicates dropped,
    /// acks and grants staged).
    pub fn stats(&self) -> ReceiverStats {
        ReceiverStats {
            frames_applied: self.frames_applied,
            dup_drops: self.dup_drops,
            streams: self.demux.streams().count(),
            finished_streams: self.finished_streams().count(),
            acks_staged: self.acks_staged,
            credits_staged: self.credits_staged,
            heartbeats: self.heartbeats,
            stray_hellos: self.stray_hellos,
        }
    }

    /// Bytes staged for the link (acks, credit grants) but not yet
    /// written. Control for freshly applied entries is staged by
    /// [`flush_control`](Self::flush_control) — the driver pumps run it
    /// every round, so after a pump this is an exact "nothing left to
    /// send" test.
    pub fn staged_bytes(&self) -> usize {
        self.out.pending()
    }

    /// Whether an un-flushed batched ack is pending
    /// ([`flush_control`](Self::flush_control) would stage bytes).
    pub fn control_dirty(&self) -> bool {
        self.ack_due || !self.heartbeat_echoes.is_empty()
    }

    /// Flushes batched control and drains every staged byte (manual
    /// pumping).
    pub fn take_staged(&mut self) -> Vec<u8> {
        self.flush_control();
        self.out.take()
    }

    pub(crate) fn outbox(&mut self) -> &mut Outbox {
        &mut self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Batch;
    use pla_transport::wire::{FixedCodec, Message};

    fn payload(msgs: &[Message]) -> Vec<u8> {
        let mut codec = FixedCodec;
        let mut buf = BytesMut::new();
        for m in msgs {
            codec.encode(m, 1, &mut buf);
        }
        buf.to_vec()
    }

    fn point(t: f64, x: f64) -> Vec<u8> {
        payload(&[Message::Point { t, x: [x].into() }])
    }

    /// A `Batch` frame of `(stream, payload)` entries from seq `base`.
    fn batch(base: u64, entries: &[(u64, &[u8])]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode(&NetFrame::Batch(Batch::from_entries(base, entries.iter().copied())), &mut buf);
        buf.to_vec()
    }

    /// A one-entry `Batch` frame.
    fn data_bytes(stream: u64, seq: u64, payload: &[u8]) -> Vec<u8> {
        batch(seq, &[(stream, payload)])
    }

    fn fin_bytes(stream: u64, final_seq: u64) -> BytesMut {
        let mut fin = BytesMut::new();
        encode(&NetFrame::Fin { stream, final_seq }, &mut fin);
        fin
    }

    /// How many of `stream`'s segments wait in the receiver's buffer.
    fn buffered(rx: &NetReceiver<FixedCodec>, stream: u64) -> usize {
        rx.demux().buffered().iter().filter(|(s, _)| *s == stream).count()
    }

    fn control_frames(rx: &mut NetReceiver<FixedCodec>) -> Vec<NetFrame> {
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&rx.take_staged());
        let mut out = Vec::new();
        while let Some(f) = dec.try_next().unwrap() {
            out.push(f);
        }
        out
    }

    /// The `(through, granted_total)` of a control flush that must be
    /// exactly one `Ack`.
    fn only_ack(rx: &mut NetReceiver<FixedCodec>) -> (u64, u64) {
        match control_frames(rx)[..] {
            [NetFrame::Ack { through, granted_total }] => (through, granted_total),
            ref other => panic!("expected exactly one Ack frame, got {other:?}"),
        }
    }

    #[test]
    fn applied_data_is_acked_and_counted() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(3, 1, &point(0.0, 1.0))).unwrap();
        assert!(rx.control_dirty());
        assert_eq!(only_ack(&mut rx), (1, 0), "acked through 1, no grant due");
        assert_eq!(buffered(&rx, 3), 1);
        assert_eq!(rx.stats().frames_applied, 1);
        assert!(!rx.control_dirty());
    }

    #[test]
    fn acks_batch_to_one_frame_per_stream_per_flush() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        // Five entries for stream 3, two for stream 8, in one round.
        for seq in 1..=5 {
            rx.on_bytes(&data_bytes(3, seq, &point(seq as f64, 1.0))).unwrap();
        }
        for seq in 6..=7 {
            rx.on_bytes(&data_bytes(8, seq, &point(seq as f64, 2.0))).unwrap();
        }
        assert_eq!(only_ack(&mut rx), (7, 0), "one cumulative ack per round, for every stream");
        assert_eq!(rx.stats().acks_staged, 1, "acks count frames, not entries or streams");
        assert_eq!(rx.demux().entries_applied(3), 5, "stream 3 applied five entries");
        // Nothing new ⇒ the next flush stages nothing.
        assert!(control_frames(&mut rx).is_empty());
    }

    /// A batch applies entry by entry, exactly as if each had arrived
    /// alone: a replayed batch overlapping what was applied drops only
    /// the entries at or below the applied seq.
    #[test]
    fn batch_entries_apply_and_dedup_one_by_one() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        let (p0, p1, p2) = (point(0.0, 1.0), point(1.0, 1.0), point(2.0, 1.0));
        rx.on_bytes(&batch(1, &[(3, &p0), (3, &p1), (8, &p0)])).unwrap();
        rx.on_bytes(&batch(2, &[(3, &p1), (8, &p0), (8, &p1), (9, &p2)])).unwrap();
        assert_eq!((rx.stats().frames_applied, rx.stats().dup_drops), (5, 2));
        assert_eq!(buffered(&rx, 3), 2, "no duplicate segment");
        assert_eq!(buffered(&rx, 8), 2);
        assert_eq!(only_ack(&mut rx), (5, 0));
        // An entry that fails mid-batch fails the connection, but the
        // entries before it stay applied (and acknowledged).
        let bad = batch(6, &[(3, &point(3.0, 0.0)), (3, &point(4.0, 0.0)), (9, &[])]);
        assert!(matches!(rx.on_bytes(&bad), Err(NetError::Receive(_))));
        assert_eq!(rx.resume_point().0, 7);
    }

    /// The session seq has no holes: an entry past the next seq means
    /// the connection lost one.
    #[test]
    fn a_session_seq_gap_is_a_typed_error() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(3, 1, &point(0.0, 1.0))).unwrap();
        let gap = batch(3, &[(4, &point(0.0, 1.0))]);
        assert_eq!(rx.on_bytes(&gap), Err(NetError::SequenceGap { expected: 2, got: 3 }));
        assert!(rx.demux().slot(4).is_none(), "nothing past the gap applied");
        assert_eq!(buffered(&rx, 4), 0);
        assert_eq!(rx.resume_point().0, 1);
    }

    /// Segments leave the receiver once, in arrival order across
    /// streams (so each stream's own order holds), and a take right
    /// after a take finds nothing.
    #[test]
    fn segments_leave_in_arrival_order_once_per_take() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        let (p0, p1, p2) = (point(0.0, 1.0), point(1.0, 2.0), point(2.0, 3.0));
        rx.on_bytes(&batch(1, &[(3, &p0), (3, &p1), (8, &p0)])).unwrap();
        rx.on_bytes(&data_bytes(3, 4, &p2)).unwrap();
        let taken: Vec<(u64, f64)> = rx.take_segments().map(|(s, seg)| (s, seg.t_start)).collect();
        assert_eq!(taken, vec![(3, 0.0), (3, 1.0), (8, 0.0), (3, 2.0)], "arrival order");
        assert_eq!(rx.take_segments().count(), 0, "nothing new since the last take");
        // A replay applies nothing, so it buffers nothing.
        rx.on_bytes(&data_bytes(3, 4, &p2)).unwrap();
        assert_eq!(rx.take_segments().count(), 0, "a dropped duplicate is not new data");
        rx.on_bytes(&data_bytes(8, 5, &p1)).unwrap();
        let taken: Vec<(u64, f64)> = rx.take_segments().map(|(s, seg)| (s, seg.t_start)).collect();
        assert_eq!(taken, vec![(8, 1.0)]);
    }

    /// A `Fin` closes its stream's trailing hold into the buffer when it
    /// is applied, exactly once: a replayed `Fin`, here after a resume
    /// that also replays the stream's entry, emits nothing more. What
    /// left the receiver matches a single-stream reconstruction.
    #[test]
    fn a_fin_closes_a_trailing_hold_exactly_once() {
        let msgs = [
            Message::Start { t: 0.0, x: [1.0].into() },
            Message::End { t: 3.0, x: [2.0].into() },
            Message::Hold { t: 4.0, x: [5.0].into() },
        ];
        let entry = payload(&msgs);
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(5, 1, &entry)).unwrap();
        let mut out: Vec<Segment> = rx.take_segments().map(|(_, seg)| seg).collect();
        assert_eq!(out.len(), 1, "the hold stays open until the Fin");
        rx.on_bytes(&fin_bytes(5, 1)).unwrap();
        assert_eq!(buffered(&rx, 5), 1, "the Fin closed the hold at arrival");
        out.extend(rx.take_segments().map(|(_, seg)| seg));
        // The link dies and the sender resumes: it replays the entry and
        // the Fin.
        let _ = control_frames(&mut rx);
        rx.reset_link();
        rx.on_bytes(&data_bytes(5, 1, &entry)).unwrap();
        rx.on_bytes(&fin_bytes(5, 1)).unwrap();
        assert_eq!(rx.take_segments().count(), 0, "the replayed Fin finds no hold");
        assert!(rx.is_finished(5));
        let mut single = pla_transport::Receiver::new(FixedCodec, 1);
        single.consume(bytes::Bytes::from(entry)).unwrap();
        assert_eq!(out, single.into_segments());
    }

    #[test]
    fn duplicates_are_dropped_but_reacked() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        let frame = data_bytes(3, 1, &point(0.0, 1.0));
        rx.on_bytes(&frame).unwrap();
        let _ = control_frames(&mut rx);
        rx.on_bytes(&frame).unwrap();
        assert_eq!(only_ack(&mut rx), (1, 0), "re-ack the replay");
        assert_eq!(buffered(&rx, 3), 1, "no duplicate segment");
        assert_eq!(rx.stats().dup_drops, 1, "the dropped replay is counted");
    }

    #[test]
    fn consumption_regrants_credit() {
        let cfg = NetConfig { window: 64, max_frame: 1 << 20 };
        let mut rx = NetReceiver::new(FixedCodec, 1, cfg);
        // Each Point entry payload is 17 bytes; two of them, on any
        // streams, cross half the connection's 64-byte window.
        rx.on_bytes(&data_bytes(1, 1, &point(0.0, 1.0))).unwrap();
        rx.on_bytes(&data_bytes(2, 2, &point(1.0, 2.0))).unwrap();
        assert_eq!(only_ack(&mut rx), (2, 34 + 64), "expected a top-up grant");
        assert_eq!(rx.stats().credits_staged, 1);
    }

    #[test]
    fn an_entry_past_the_granted_credit_is_refused_unapplied() {
        let cfg = NetConfig { window: 64, max_frame: 1 << 20 };
        let mut rx = NetReceiver::new(FixedCodec, 1, cfg);
        // Three 17-byte Point entries fit the initial 64-byte grant; a
        // fourth, sent without waiting for the top-up, would reach 68.
        for seq in 1..=3 {
            rx.on_bytes(&data_bytes(1, seq, &point(seq as f64, 1.0))).unwrap();
        }
        assert_eq!(
            rx.on_bytes(&data_bytes(1, 4, &point(4.0, 1.0))),
            Err(NetError::CreditOverrun { granted: 64, delivered: 68 })
        );
        assert_eq!(rx.stats().frames_applied, 3, "the overrunning entry was not applied");
        assert_eq!(rx.resume_point(), (3, 64));
    }

    #[test]
    fn replays_do_not_count_against_the_credit() {
        let cfg = NetConfig { window: 64, max_frame: 1 << 20 };
        let mut rx = NetReceiver::new(FixedCodec, 1, cfg);
        let first = data_bytes(1, 1, &point(0.0, 1.0));
        rx.on_bytes(&first).unwrap();
        rx.on_bytes(&data_bytes(1, 2, &point(1.0, 1.0))).unwrap();
        // 34 bytes delivered; replaying seq 1 many times moves nothing.
        for _ in 0..4 {
            rx.on_bytes(&first).unwrap();
        }
        rx.on_bytes(&data_bytes(1, 3, &point(2.0, 1.0))).unwrap();
        assert_eq!(rx.stats().frames_applied, 3);
    }

    #[test]
    fn fin_requires_every_frame_applied() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(2, 1, &point(0.0, 1.0))).unwrap();
        assert_eq!(
            rx.on_bytes(&fin_bytes(2, 5)),
            Err(NetError::IncompleteFin { stream: 2, final_seq: 5, applied: 1 })
        );
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(2, 1, &point(0.0, 1.0))).unwrap();
        rx.on_bytes(&fin_bytes(2, 1)).unwrap();
        assert!(rx.is_finished(2));
        // A replayed Fin is idempotent.
        rx.on_bytes(&fin_bytes(2, 1)).unwrap();
        assert_eq!(rx.finished_streams().collect::<Vec<_>>(), vec![2]);
        assert_eq!(rx.stats().finished_streams, 1);
    }

    #[test]
    fn reconnect_reannounces_cumulative_state() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(7, 1, &point(0.0, 1.0))).unwrap();
        let _ = control_frames(&mut rx); // acks lost with the old link
        rx.reset_link();
        let window = NetConfig::default().window;
        assert_eq!(rx.resume_point(), (1, window), "ack point and current grant");
    }

    /// The resume `HelloAck` carries one point for every stream the
    /// connection carried, however many.
    #[test]
    fn reconnect_stages_one_frame_covering_every_known_stream() {
        let cfg = NetConfig { window: 128, max_frame: 1 << 20 };
        let mut rx = NetReceiver::new(FixedCodec, 1, cfg);
        rx.on_bytes(&data_bytes(9, 1, &point(0.0, 1.0))).unwrap();
        rx.on_bytes(&data_bytes(2, 2, &point(0.0, 1.0))).unwrap();
        rx.on_bytes(&data_bytes(2, 3, &point(1.0, 2.0))).unwrap();
        rx.on_bytes(&data_bytes(5, 4, &point(0.0, 3.0))).unwrap();
        let _ = control_frames(&mut rx); // acks lost with the old link
        rx.reset_link();
        // The flush saw 68 bytes delivered, past half the 128-byte
        // window, so the grant moved to 68 + 128.
        assert_eq!(rx.resume_point(), (4, 68 + 128), "one point covers all three streams");
        assert_eq!(rx.staged_bytes(), 0, "the HelloAck, not the receiver, carries it");
    }

    #[test]
    fn reconnect_supersedes_pending_batched_acks() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(7, 1, &point(0.0, 1.0))).unwrap();
        // Ack still batched (dirty) when the link dies: the resume point
        // supersedes it, so nothing may stage it afterwards.
        assert!(rx.control_dirty());
        rx.reset_link();
        assert!(!rx.control_dirty());
        assert!(control_frames(&mut rx).is_empty(), "no Ack staged after the reset");
    }

    #[test]
    fn heartbeats_are_echoed_on_the_next_flush() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        let mut buf = BytesMut::new();
        encode(&NetFrame::Heartbeat { seq: 11 }, &mut buf);
        encode(&NetFrame::Heartbeat { seq: 12 }, &mut buf);
        rx.on_bytes(&buf).unwrap();
        assert!(rx.control_dirty(), "pending echoes count as dirty control");
        let ctl = control_frames(&mut rx);
        assert_eq!(
            ctl,
            vec![NetFrame::Heartbeat { seq: 11 }, NetFrame::Heartbeat { seq: 12 }],
            "each probe echoed verbatim, in order"
        );
        assert_eq!(rx.stats().heartbeats, 2);
        // A probe flood keeps only the newest echoes.
        let mut flood = BytesMut::new();
        for seq in 0..100u64 {
            encode(&NetFrame::Heartbeat { seq }, &mut flood);
        }
        rx.on_bytes(&flood).unwrap();
        let ctl = control_frames(&mut rx);
        assert_eq!(ctl.len(), super::HEARTBEAT_ECHO_CAP);
        assert_eq!(*ctl.last().unwrap(), NetFrame::Heartbeat { seq: 99 });
    }

    #[test]
    fn in_session_hello_is_ignored_but_counted() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(3, 1, &point(0.0, 1.0))).unwrap();
        let mut buf = BytesMut::new();
        encode(&NetFrame::Hello { version: 1, token: 42 }, &mut buf);
        rx.on_bytes(&buf).unwrap();
        assert_eq!(rx.stats().stray_hellos, 1);
        // The session keeps working afterwards.
        rx.on_bytes(&data_bytes(3, 2, &point(1.0, 2.0))).unwrap();
        assert_eq!(rx.stats().frames_applied, 2);
        // But a HelloAck at the receiver is still a protocol error.
        let mut ack = BytesMut::new();
        let hello_ack = NetFrame::HelloAck { version: 1, token: 1, through: 0, granted_total: 0 };
        encode(&hello_ack, &mut ack);
        assert!(matches!(rx.on_bytes(&ack), Err(NetError::UnexpectedFrame(_))));
    }

    #[test]
    fn resume_cursors_mirror_ack_and_grant_state() {
        let cfg = NetConfig { window: 64, max_frame: 1 << 20 };
        let mut rx = NetReceiver::new(FixedCodec, 1, cfg);
        rx.on_bytes(&data_bytes(1, 1, &point(0.0, 1.0))).unwrap();
        rx.on_bytes(&data_bytes(1, 2, &point(1.0, 2.0))).unwrap();
        rx.on_bytes(&data_bytes(4, 3, &point(0.0, 3.0))).unwrap();
        let (through, granted_total) = rx.resume_point();
        assert_eq!(through, 3);
        assert!(granted_total >= 64, "grant covers at least the initial window");
        // The flush that announces a grant moves the resume point's too.
        let (_, announced) = only_ack(&mut rx);
        assert_eq!(rx.resume_point(), (3, announced));
    }

    #[test]
    fn reset_link_clears_without_staging() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(7, 1, &point(0.0, 1.0))).unwrap();
        assert!(rx.control_dirty());
        rx.reset_link();
        assert!(!rx.control_dirty());
        assert_eq!(rx.staged_bytes(), 0, "reset_link must not stage the refresh");
        // The cumulative state survives for the HelloAck.
        assert_eq!(rx.resume_point().0, 1);
    }

    #[test]
    fn control_frames_at_the_receiver_are_protocol_errors() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        let mut buf = BytesMut::new();
        encode(&NetFrame::Ack { through: 1, granted_total: 0 }, &mut buf);
        assert!(matches!(rx.on_bytes(&buf), Err(NetError::UnexpectedFrame(_))));
    }

    /// Batched control lives in `ack_due`/`heartbeat_echoes`, not in
    /// the outbox, until a flush — so `staged_bytes()` alone reads
    /// "drained" while an ack is still owed. Completion checks must
    /// pair it with `control_dirty()`, and `take_staged()` must flush
    /// the batch rather than hand back the empty outbox.
    #[test]
    fn take_staged_flushes_batched_acks_that_staged_bytes_misses() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(4, 1, &point(0.0, 1.0))).unwrap();
        assert_eq!(rx.staged_bytes(), 0, "the batched ack is not in the outbox yet");
        assert!(rx.control_dirty(), "but the connection is not drained");
        let drained = rx.take_staged();
        assert!(!drained.is_empty(), "take_staged flushed the batch it was owed");
        assert!(!rx.control_dirty());
        assert_eq!(rx.staged_bytes(), 0);
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&drained);
        assert_eq!(dec.try_next().unwrap(), Some(NetFrame::Ack { through: 1, granted_total: 0 }));
        assert_eq!(dec.try_next().unwrap(), None);

        // Same trap with a pending heartbeat echo: zero staged bytes,
        // dirty control.
        let mut probe = BytesMut::new();
        encode(&NetFrame::Heartbeat { seq: 9 }, &mut probe);
        rx.on_bytes(&probe).unwrap();
        assert_eq!(rx.staged_bytes(), 0);
        assert!(rx.control_dirty());
        let drained = rx.take_staged();
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&drained);
        assert_eq!(dec.try_next().unwrap(), Some(NetFrame::Heartbeat { seq: 9 }));
        // Fully drained now: both signals agree.
        assert!(!rx.control_dirty());
        assert!(rx.take_staged().is_empty());
    }
}
