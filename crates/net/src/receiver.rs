//! The receiving endpoint: framed bytes in, per-stream segment logs
//! out, acks and credit grants back.
//!
//! [`NetReceiver`] is the sans-I/O twin of
//! [`MuxSender`](crate::MuxSender): it owns the
//! [`FrameDecoder`](crate::frame::FrameDecoder), a
//! [`StreamDemux`] (which performs the actual segment reconstruction
//! and the sequence-number dedup that makes replay safe), and one
//! [`ReceiveWindow`](crate::credit::ReceiveWindow) per stream for
//! credit scheduling.
//!
//! # Batched acknowledgements
//!
//! Applying a `Data` frame records the stream as *ack-dirty* but stages
//! nothing. [`flush_control`](NetReceiver::flush_control) — called once
//! per pump round by the [`driver`](crate::driver) pumps and by
//! [`take_staged`](NetReceiver::take_staged) — then emits **one**
//! cumulative `Ack` (and at most one `Credit` top-up) per dirty stream,
//! however many of its frames the round applied. Cumulative counters
//! make the coalescing free: acking `through_seq = 7` acknowledges
//! frames 1–7 at once, and a replayed ack is a no-op at the sender.

use std::collections::{BTreeMap, VecDeque};

use bytes::BytesMut;

use pla_transport::wire::Codec;
use pla_transport::{SeqOutcome, StreamDemux};

use crate::credit::ReceiveWindow;
use crate::frame::{encode, FrameDecoder, NetFrame, Outbox, ResumeCursor};
use crate::{NetConfig, NetError};

/// Heartbeats awaiting an echo are bounded: a peer that floods probes
/// faster than control flushes run only keeps the newest few echoed.
const HEARTBEAT_ECHO_CAP: usize = 32;

/// Point-in-time counters for one receiving endpoint, for the
/// collector's per-connection observability and for tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// `Data` frames applied to the demultiplexer.
    pub frames_applied: u64,
    /// `Data` frames dropped as duplicates (replays after reconnect) —
    /// shed load that must stay observable, mirroring
    /// `pla_ingest::ShardStats::backpressure`.
    pub dup_drops: u64,
    /// Streams seen on this connection.
    pub streams: usize,
    /// Streams whose `Fin` has arrived.
    pub finished_streams: usize,
    /// `Ack` frames staged (after batching).
    pub acks_staged: u64,
    /// `Credit` frames staged.
    pub credits_staged: u64,
    /// `Heartbeat` probes received (each is echoed on the next control
    /// flush).
    pub heartbeats: u64,
    /// In-session `Hello` frames ignored — a replayed handshake is
    /// idempotent, like a replayed `Fin`, but stays observable.
    pub stray_hellos: u64,
}

/// Per-stream receiving state kept beside the demultiplexer's
/// reconstruction.
struct RxStream {
    window: ReceiveWindow,
    /// The [`NetReceiver::ack_batch`] this stream was last queued in for
    /// an `Ack`; equal to the current batch means "already queued".
    ack_batch: u64,
    /// The [`NetReceiver::touch_batch`] this stream was last reported in.
    touch_batch: u64,
}

/// The multiplexed receiver. Feed it link bytes with
/// [`on_bytes`](Self::on_bytes); collect its outbound `Ack`/`Credit`
/// control frames from [`take_staged`](Self::take_staged) (or the
/// [`driver`](crate::driver) pumps); read the reconstruction from
/// [`demux`](Self::demux).
pub struct NetReceiver<C: Codec> {
    frames: FrameDecoder,
    demux: StreamDemux<C>,
    streams: BTreeMap<u64, RxStream>,
    /// Streams whose ack state advanced since the last
    /// [`flush_control`](Self::flush_control), each queued once.
    ack_dirty: Vec<u64>,
    /// Bumped whenever `ack_dirty` empties, which unqueues every stream
    /// at once without touching their entries.
    ack_batch: u64,
    /// Streams that applied a `Data` frame or received a `Fin` since the
    /// last [`take_touched`](Self::take_touched), each listed once.
    touched: Vec<u64>,
    /// Bumped whenever `touched` is taken (see `ack_batch`).
    touch_batch: u64,
    /// Streams whose `Fin` arrived, with their final sequence number.
    finished: BTreeMap<u64, u64>,
    out: Outbox,
    config: NetConfig,
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
            demux: StreamDemux::new(codec, dims),
            streams: BTreeMap::new(),
            ack_dirty: Vec::new(),
            ack_batch: 1,
            touched: Vec::new(),
            touch_batch: 1,
            finished: BTreeMap::new(),
            out: Outbox::default(),
            config,
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
    /// * `Data` → [`StreamDemux::consume_sequenced`]; an applied frame
    ///   is counted against the stream's credit window, a duplicate
    ///   (replay after reconnect) is dropped — and either way the
    ///   stream is marked ack-dirty, so the next
    ///   [`flush_control`](Self::flush_control) re-announces its
    ///   cumulative ack (a sender whose acks were lost with the old
    ///   connection can still release its replay buffer).
    /// * `Fin` → the stream is complete; verified against the applied
    ///   sequence point.
    /// * `Ack`/`Credit` → protocol error at this endpoint.
    pub fn on_bytes(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.frames.extend(bytes);
        while let Some(frame) = self.frames.try_next()? {
            match frame {
                NetFrame::Data { stream, seq, payload } => {
                    let payload_len = payload.len() as u64;
                    let outcome = self.demux.consume_sequenced(stream, seq, payload)?;
                    let window = self.config.window;
                    let rx = self.streams.entry(stream).or_insert_with(|| RxStream {
                        window: ReceiveWindow::new(window),
                        ack_batch: 0,
                        touch_batch: 0,
                    });
                    match outcome {
                        SeqOutcome::Applied => {
                            self.frames_applied += 1;
                            rx.window.on_delivered(payload_len);
                            if rx.touch_batch != self.touch_batch {
                                rx.touch_batch = self.touch_batch;
                                self.touched.push(stream);
                            }
                        }
                        SeqOutcome::Duplicate => self.dup_drops += 1,
                    }
                    if rx.ack_batch != self.ack_batch {
                        rx.ack_batch = self.ack_batch;
                        self.ack_dirty.push(stream);
                    }
                }
                NetFrame::Fin { stream, final_seq } => {
                    let applied = self.demux.ack_point(stream);
                    if applied != final_seq {
                        return Err(NetError::IncompleteFin { stream, final_seq, applied });
                    }
                    // Idempotent: a replayed Fin re-records the same fact.
                    self.finished.insert(stream, final_seq);
                    // A stream that never applied a frame has nothing to
                    // publish; a reported stream may be reported twice.
                    if let Some(rx) = self.streams.get_mut(&stream) {
                        if rx.touch_batch != self.touch_batch {
                            rx.touch_batch = self.touch_batch;
                            self.touched.push(stream);
                        }
                    }
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
                NetFrame::Credit { .. } => {
                    return Err(NetError::UnexpectedFrame("Credit at receiver"))
                }
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

    /// Stages the batched control traffic for everything applied since
    /// the last flush: per ack-dirty stream, one cumulative `Ack` and —
    /// only when the grant schedule says one is due — one `Credit`.
    ///
    /// The [`driver`](crate::driver) pumps call this once per round
    /// (and [`take_staged`](Self::take_staged) calls it for manual
    /// pumping), which is what turns per-frame control chatter into
    /// per-round batches: a round that applies 20 frames of one stream
    /// acks them with a single 21-byte frame.
    pub fn flush_control(&mut self) {
        // Ascending stream order, as a sorted set would give: the control
        // bytes do not depend on arrival order within a round.
        let mut dirty = std::mem::take(&mut self.ack_dirty);
        dirty.sort_unstable();
        for &stream in &dirty {
            let ack = self.demux.ack_point(stream);
            self.stage_frame(&NetFrame::Ack { stream, through_seq: ack });
            self.acks_staged += 1;
            let grant = self.streams.get_mut(&stream).and_then(|rx| rx.window.due_grant());
            if let Some(granted_total) = grant {
                self.stage_frame(&NetFrame::Credit { stream, granted_total });
                self.credits_staged += 1;
            }
        }
        dirty.clear();
        self.ack_dirty = dirty;
        self.ack_batch += 1;
        while let Some(seq) = self.heartbeat_echoes.pop_front() {
            self.stage_frame(&NetFrame::Heartbeat { seq });
        }
    }

    /// Drops every batched-but-unflushed ack.
    fn clear_ack_dirty(&mut self) {
        self.ack_dirty.clear();
        self.ack_batch += 1;
    }

    /// Moves onto `out` the id of every stream that applied a `Data`
    /// frame or received its `Fin` since the last call, each once, and
    /// starts tracking afresh. The collector publishes exactly these
    /// streams after a pump round, instead of walking every stream the
    /// connection has ever carried.
    pub fn take_touched(&mut self, out: &mut Vec<u64>) {
        out.append(&mut self.touched);
        self.touch_batch += 1;
    }

    /// The current credit grant of `stream` (the initial window for a
    /// stream that never applied a frame).
    fn current_grant(&self, stream: u64) -> u64 {
        self.streams.get(&stream).map_or(self.config.window, |rx| rx.window.current_grant())
    }

    /// The connection died: forget the dead link's partial inbound
    /// frame and its undelivered control bytes, then re-announce this
    /// side's cumulative state — an `Ack` and a `Credit` per known
    /// stream — so the reconnected sender can immediately trim its
    /// replay buffer and resume sending.
    pub fn on_reconnect(&mut self) {
        self.frames.reset();
        self.out.clear();
        self.clear_ack_dirty();
        let refresh: Vec<(u64, u64)> =
            self.demux.streams().map(|s| (s, self.current_grant(s))).collect();
        for (stream, granted_total) in refresh {
            let ack = self.demux.ack_point(stream);
            self.stage_frame(&NetFrame::Ack { stream, through_seq: ack });
            self.stage_frame(&NetFrame::Credit { stream, granted_total });
            self.acks_staged += 1;
            self.credits_staged += 1;
        }
    }

    /// This side's cumulative resume state, one cursor per known
    /// stream — the payload of a session-resume `HelloAck`. Equivalent
    /// to what [`on_reconnect`](Self::on_reconnect) would announce as
    /// individual `Ack`/`Credit` frames, delivered atomically with the
    /// handshake instead.
    pub fn resume_cursors(&self) -> Vec<ResumeCursor> {
        self.demux
            .streams()
            .map(|stream| ResumeCursor {
                stream,
                through_seq: self.demux.ack_point(stream),
                granted_total: self.current_grant(stream),
            })
            .collect()
    }

    /// The link died but the session survives: forget the dead link's
    /// partial inbound frame, its undelivered control bytes, and any
    /// batched-but-unflushed acks — **without** staging anything. The
    /// session handshake announces this side's cumulative state through
    /// the `HelloAck` resume cursors instead, so the per-stream refresh
    /// of [`on_reconnect`](Self::on_reconnect) would be redundant bytes.
    pub fn reset_link(&mut self) {
        self.frames.reset();
        self.out.clear();
        self.clear_ack_dirty();
        self.heartbeat_echoes.clear();
    }

    /// Stages one session-layer frame (`HelloAck`, handshake-time
    /// heartbeats) ahead of whatever control traffic follows.
    pub(crate) fn stage_session(&mut self, frame: &NetFrame) {
        self.stage_frame(frame);
    }

    /// The reconstruction state: per-stream segment logs, coverage,
    /// counters.
    pub fn demux(&self) -> &StreamDemux<C> {
        &self.demux
    }

    /// Mutable access to the reconstruction state — the collector uses
    /// it to flush a finished stream's trailing hold segment
    /// ([`StreamDemux::flush_stream`]) before publishing.
    pub fn demux_mut(&mut self) -> &mut StreamDemux<C> {
        &mut self.demux
    }

    /// Consumes the receiver, handing back the demultiplexer (for
    /// [`StreamDemux::into_segment_logs`]).
    pub fn into_demux(self) -> StreamDemux<C> {
        self.demux
    }

    /// Streams whose `Fin` has arrived, ascending.
    pub fn finished_streams(&self) -> impl Iterator<Item = u64> + '_ {
        self.finished.keys().copied()
    }

    /// Whether `stream` is complete.
    pub fn is_finished(&self, stream: u64) -> bool {
        self.finished.contains_key(&stream)
    }

    /// Current endpoint counters (frames applied, duplicates dropped,
    /// control frames staged).
    pub fn stats(&self) -> ReceiverStats {
        ReceiverStats {
            frames_applied: self.frames_applied,
            dup_drops: self.dup_drops,
            streams: self.demux.streams().count(),
            finished_streams: self.finished.len(),
            acks_staged: self.acks_staged,
            credits_staged: self.credits_staged,
            heartbeats: self.heartbeats,
            stray_hellos: self.stray_hellos,
        }
    }

    /// Bytes staged for the link (acks, credit grants) but not yet
    /// written. Control for freshly applied frames is staged by
    /// [`flush_control`](Self::flush_control) — the driver pumps run it
    /// every round, so after a pump this is an exact "nothing left to
    /// send" test.
    pub fn staged_bytes(&self) -> usize {
        self.out.pending()
    }

    /// Whether an un-flushed batched ack is pending
    /// ([`flush_control`](Self::flush_control) would stage bytes).
    pub fn control_dirty(&self) -> bool {
        !self.ack_dirty.is_empty() || !self.heartbeat_echoes.is_empty()
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
    use bytes::Bytes;
    use pla_transport::wire::{FixedCodec, Message};

    fn payload(stream: u64, msgs: &[Message]) -> Bytes {
        let mut codec = FixedCodec;
        let mut buf = BytesMut::new();
        codec.encode(&Message::StreamFrame { stream }, 1, &mut buf);
        for m in msgs {
            codec.encode(m, 1, &mut buf);
        }
        buf.freeze()
    }

    fn data_bytes(stream: u64, seq: u64, msgs: &[Message]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode(&NetFrame::Data { stream, seq, payload: payload(stream, msgs) }, &mut buf);
        buf.to_vec()
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

    #[test]
    fn applied_data_is_acked_and_counted() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(3, 1, &[Message::Point { t: 0.0, x: [1.0].into() }])).unwrap();
        assert!(rx.control_dirty());
        let ctl = control_frames(&mut rx);
        assert_eq!(ctl, vec![NetFrame::Ack { stream: 3, through_seq: 1 }]);
        assert_eq!(rx.demux().segments(3).unwrap().len(), 1);
        assert_eq!(rx.stats().frames_applied, 1);
        assert!(!rx.control_dirty());
    }

    #[test]
    fn acks_batch_to_one_frame_per_stream_per_flush() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        // Five frames for stream 3, two for stream 8, in one round.
        for seq in 1..=5 {
            let t = seq as f64;
            rx.on_bytes(&data_bytes(3, seq, &[Message::Point { t, x: [1.0].into() }])).unwrap();
        }
        for seq in 1..=2 {
            let t = seq as f64;
            rx.on_bytes(&data_bytes(8, seq, &[Message::Point { t, x: [2.0].into() }])).unwrap();
        }
        let ctl = control_frames(&mut rx);
        let acks: Vec<&NetFrame> =
            ctl.iter().filter(|f| matches!(f, NetFrame::Ack { .. })).collect();
        assert_eq!(
            acks,
            vec![
                &NetFrame::Ack { stream: 3, through_seq: 5 },
                &NetFrame::Ack { stream: 8, through_seq: 2 },
            ],
            "one cumulative ack per stream per round, not per frame"
        );
        assert_eq!(rx.stats().acks_staged, 2);
        // Nothing new ⇒ the next flush stages nothing.
        assert!(control_frames(&mut rx).is_empty());
    }

    #[test]
    fn touched_streams_are_reported_once_per_take() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        let point = |t: f64| [Message::Point { t, x: [1.0].into() }];
        rx.on_bytes(&data_bytes(3, 1, &point(0.0))).unwrap();
        rx.on_bytes(&data_bytes(3, 2, &point(1.0))).unwrap();
        rx.on_bytes(&data_bytes(8, 1, &point(0.0))).unwrap();
        let mut touched = Vec::new();
        rx.take_touched(&mut touched);
        assert_eq!(touched, vec![3, 8], "each stream once, however many frames it applied");
        touched.clear();
        rx.take_touched(&mut touched);
        assert!(touched.is_empty(), "nothing new since the last take");
        // A replay applies nothing, so it touches nothing — but a Fin does.
        rx.on_bytes(&data_bytes(3, 2, &point(1.0))).unwrap();
        rx.take_touched(&mut touched);
        assert!(touched.is_empty(), "a dropped duplicate is not new data");
        let mut fin = BytesMut::new();
        encode(&NetFrame::Fin { stream: 8, final_seq: 1 }, &mut fin);
        rx.on_bytes(&fin).unwrap();
        rx.take_touched(&mut touched);
        assert_eq!(touched, vec![8]);
    }

    #[test]
    fn duplicates_are_dropped_but_reacked() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        let frame = data_bytes(3, 1, &[Message::Point { t: 0.0, x: [1.0].into() }]);
        rx.on_bytes(&frame).unwrap();
        let _ = control_frames(&mut rx);
        rx.on_bytes(&frame).unwrap();
        let ctl = control_frames(&mut rx);
        assert_eq!(ctl, vec![NetFrame::Ack { stream: 3, through_seq: 1 }], "re-ack the replay");
        assert_eq!(rx.demux().segments(3).unwrap().len(), 1, "no duplicate segment");
        assert_eq!(rx.stats().dup_drops, 1, "the dropped replay is counted");
    }

    #[test]
    fn consumption_regrants_credit() {
        let cfg = NetConfig { window: 64, max_frame: 1 << 20 };
        let mut rx = NetReceiver::new(FixedCodec, 1, cfg);
        // Each Point frame payload is 9 (header) + 17 = 26 bytes; two of
        // them cross half the 64-byte window.
        rx.on_bytes(&data_bytes(1, 1, &[Message::Point { t: 0.0, x: [1.0].into() }])).unwrap();
        rx.on_bytes(&data_bytes(1, 2, &[Message::Point { t: 1.0, x: [2.0].into() }])).unwrap();
        let ctl = control_frames(&mut rx);
        assert!(
            ctl.contains(&NetFrame::Credit { stream: 1, granted_total: 52 + 64 }),
            "expected a top-up grant, got {ctl:?}"
        );
        assert_eq!(rx.stats().credits_staged, 1);
    }

    #[test]
    fn fin_requires_every_frame_applied() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(2, 1, &[Message::Point { t: 0.0, x: [1.0].into() }])).unwrap();
        let mut early_fin = BytesMut::new();
        encode(&NetFrame::Fin { stream: 2, final_seq: 5 }, &mut early_fin);
        assert_eq!(
            rx.on_bytes(&early_fin),
            Err(NetError::IncompleteFin { stream: 2, final_seq: 5, applied: 1 })
        );
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(2, 1, &[Message::Point { t: 0.0, x: [1.0].into() }])).unwrap();
        let mut fin = BytesMut::new();
        encode(&NetFrame::Fin { stream: 2, final_seq: 1 }, &mut fin);
        rx.on_bytes(&fin).unwrap();
        assert!(rx.is_finished(2));
        // A replayed Fin is idempotent.
        rx.on_bytes(&fin).unwrap();
        assert_eq!(rx.finished_streams().collect::<Vec<_>>(), vec![2]);
        assert_eq!(rx.stats().finished_streams, 1);
    }

    #[test]
    fn reconnect_reannounces_cumulative_state() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(7, 1, &[Message::Point { t: 0.0, x: [1.0].into() }])).unwrap();
        let _ = control_frames(&mut rx); // acks lost with the old link
        rx.on_reconnect();
        let ctl = control_frames(&mut rx);
        assert!(ctl.contains(&NetFrame::Ack { stream: 7, through_seq: 1 }));
        assert!(ctl.iter().any(|f| matches!(f, NetFrame::Credit { stream: 7, .. })));
    }

    #[test]
    fn reconnect_supersedes_pending_batched_acks() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(7, 1, &[Message::Point { t: 0.0, x: [1.0].into() }])).unwrap();
        // Ack still batched (dirty) when the link dies: the reconnect
        // refresh must not double-stage it.
        assert!(rx.control_dirty());
        rx.on_reconnect();
        assert!(!rx.control_dirty());
        let ctl = control_frames(&mut rx);
        let acks = ctl.iter().filter(|f| matches!(f, NetFrame::Ack { .. })).count();
        assert_eq!(acks, 1, "exactly one ack after the refresh, got {ctl:?}");
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
        rx.on_bytes(&data_bytes(3, 1, &[Message::Point { t: 0.0, x: [1.0].into() }])).unwrap();
        let mut buf = BytesMut::new();
        encode(&NetFrame::Hello { version: 1, token: 42 }, &mut buf);
        rx.on_bytes(&buf).unwrap();
        assert_eq!(rx.stats().stray_hellos, 1);
        // The session keeps working afterwards.
        rx.on_bytes(&data_bytes(3, 2, &[Message::Point { t: 1.0, x: [2.0].into() }])).unwrap();
        assert_eq!(rx.stats().frames_applied, 2);
        // But a HelloAck at the receiver is still a protocol error.
        let mut ack = BytesMut::new();
        encode(&NetFrame::HelloAck { version: 1, token: 1, cursors: vec![] }, &mut ack);
        assert!(matches!(rx.on_bytes(&ack), Err(NetError::UnexpectedFrame(_))));
    }

    #[test]
    fn resume_cursors_mirror_ack_and_grant_state() {
        let cfg = NetConfig { window: 64, max_frame: 1 << 20 };
        let mut rx = NetReceiver::new(FixedCodec, 1, cfg);
        rx.on_bytes(&data_bytes(1, 1, &[Message::Point { t: 0.0, x: [1.0].into() }])).unwrap();
        rx.on_bytes(&data_bytes(1, 2, &[Message::Point { t: 1.0, x: [2.0].into() }])).unwrap();
        rx.on_bytes(&data_bytes(4, 1, &[Message::Point { t: 0.0, x: [3.0].into() }])).unwrap();
        let cursors = rx.resume_cursors();
        assert_eq!(cursors.len(), 2);
        assert_eq!(cursors[0].stream, 1);
        assert_eq!(cursors[0].through_seq, 2);
        assert!(cursors[0].granted_total >= 64, "grant covers at least the initial window");
        assert_eq!(cursors[1].stream, 4);
        assert_eq!(cursors[1].through_seq, 1);
    }

    #[test]
    fn reset_link_clears_without_staging() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(7, 1, &[Message::Point { t: 0.0, x: [1.0].into() }])).unwrap();
        assert!(rx.control_dirty());
        rx.reset_link();
        assert!(!rx.control_dirty());
        assert_eq!(rx.staged_bytes(), 0, "reset_link must not stage the refresh");
        // The cumulative state survives for the HelloAck cursors.
        assert_eq!(rx.resume_cursors()[0].through_seq, 1);
    }

    #[test]
    fn control_frames_at_the_receiver_are_protocol_errors() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        let mut buf = BytesMut::new();
        encode(&NetFrame::Ack { stream: 1, through_seq: 1 }, &mut buf);
        assert!(matches!(rx.on_bytes(&buf), Err(NetError::UnexpectedFrame(_))));
    }

    /// Batched control lives in `ack_dirty`/`heartbeat_echoes`, not in
    /// the outbox, until a flush — so `staged_bytes()` alone reads
    /// "drained" while an ack is still owed. Completion checks must
    /// pair it with `control_dirty()`, and `take_staged()` must flush
    /// the batch rather than hand back the empty outbox.
    #[test]
    fn take_staged_flushes_batched_acks_that_staged_bytes_misses() {
        let mut rx = NetReceiver::new(FixedCodec, 1, NetConfig::default());
        rx.on_bytes(&data_bytes(4, 1, &[Message::Point { t: 0.0, x: [1.0].into() }])).unwrap();
        assert_eq!(rx.staged_bytes(), 0, "the batched ack is not in the outbox yet");
        assert!(rx.control_dirty(), "but the connection is not drained");
        let drained = rx.take_staged();
        assert!(!drained.is_empty(), "take_staged flushed the batch it was owed");
        assert!(!rx.control_dirty());
        assert_eq!(rx.staged_bytes(), 0);
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&drained);
        assert_eq!(dec.try_next().unwrap(), Some(NetFrame::Ack { stream: 4, through_seq: 1 }));
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
