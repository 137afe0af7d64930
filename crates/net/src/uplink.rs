//! The `pla-ingest` integration: an engine's shard fan-in flows
//! straight out over one multiplexed connection.
//!
//! [`IngestEngine::with_segment_tap`](pla_ingest::IngestEngine::with_segment_tap)
//! hands back a live channel of
//! `(StreamId, Segment)` in emission order; [`EngineUplink`] drains it
//! into a [`MuxSender`], honoring the connection's credit backpressure
//! by parking the head-of-line segment until the receiver grants more.
//! A segment no grant could ever admit (larger than `max_frame` or the
//! whole credit window) is a typed error, never parked. The far end's
//! `StreamDemux` then rebuilds per-stream segment logs identical to
//! what a direct per-stream [`Transmitter`](pla_transport::Transmitter)
//! link would have produced — that identity is what the loopback
//! integration test pins.

use std::sync::mpsc;

use pla_core::Segment;
use pla_ingest::StreamId;
use pla_transport::wire::Codec;

use crate::mux::MuxSender;
use crate::NetError;

/// What one [`EngineUplink::pump`] round left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UplinkStatus {
    /// The tap had nothing new; everything drained is on the wire
    /// (engine still running).
    Idle,
    /// A segment is parked on credit backpressure; pump again once the
    /// sender has processed grants.
    Blocked,
    /// The engine finished and every tapped segment has been handed to
    /// the sender; the uplink is done (streams can be finned).
    Drained,
}

/// Couples an engine segment tap to a multiplexing sender.
pub struct EngineUplink {
    tap: mpsc::Receiver<(StreamId, Segment)>,
    /// Head-of-line segment refused for credit, retried first.
    parked: Option<(StreamId, Segment)>,
    engine_done: bool,
    forwarded: u64,
}

impl EngineUplink {
    /// Wraps the tap returned by `IngestEngine::with_segment_tap`.
    pub fn new(tap: mpsc::Receiver<(StreamId, Segment)>) -> Self {
        Self { tap, parked: None, engine_done: false, forwarded: 0 }
    }

    /// Segments handed to the sender so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Moves as many tapped segments as credit allows into `mux`.
    ///
    /// Segment order per stream is preserved: the tap delivers in
    /// emission order, and a credit-refused segment parks at the head
    /// of the line rather than being skipped.
    ///
    /// # Errors
    ///
    /// Any refusal other than [`NetError::Backpressure`] — e.g.
    /// [`NetError::EntryTooLarge`] or [`NetError::EntryExceedsWindow`]
    /// — is returned as is; the refused segment is dropped, not parked.
    pub fn pump<C: Codec>(&mut self, mux: &mut MuxSender<C>) -> Result<UplinkStatus, NetError> {
        loop {
            let (stream, seg) = match self.parked.take() {
                Some(head) => head,
                None => match self.tap.try_recv() {
                    Ok(item) => item,
                    Err(mpsc::TryRecvError::Empty) => {
                        return Ok(if self.engine_done {
                            Self::drained()
                        } else {
                            UplinkStatus::Idle
                        })
                    }
                    Err(mpsc::TryRecvError::Disconnected) => {
                        self.engine_done = true;
                        return Ok(Self::drained());
                    }
                },
            };
            match mux.try_send_segment(stream.0, &seg) {
                Ok(()) => self.forwarded += 1,
                Err(NetError::Backpressure) => {
                    self.parked = Some((stream, seg));
                    return Ok(UplinkStatus::Blocked);
                }
                Err(other) => return Err(other),
            }
        }
    }

    fn drained() -> UplinkStatus {
        UplinkStatus::Drained
    }

    /// Whether the engine has finished and the tap is fully drained
    /// into the sender.
    pub fn is_drained(&self) -> bool {
        self.engine_done && self.parked.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetConfig, NetReceiver};
    use pla_core::filters::{FilterKind, FilterSpec};
    use pla_ingest::{IngestConfig, IngestEngine};
    use pla_transport::wire::FixedCodec;

    #[test]
    fn engine_tap_flows_through_the_mux_lossless() {
        let (engine, tap) =
            IngestEngine::with_segment_tap(IngestConfig { shards: 2, queue_depth: 64 });
        let h = engine.handle();
        for id in 0..8u64 {
            h.register(StreamId(id), FilterSpec::new(FilterKind::Swing, &[0.4])).unwrap();
        }
        for j in 0..400 {
            for id in 0..8u64 {
                h.push(StreamId(id), j as f64, &[(j as f64 * (0.15 + id as f64 * 0.04)).sin()])
                    .unwrap();
            }
        }
        let report = engine.finish();

        let cfg = NetConfig::default();
        let mut mux = MuxSender::new(FixedCodec, 1, cfg);
        let mut rx = NetReceiver::new(FixedCodec, 1, cfg);
        let mut uplink = EngineUplink::new(tap);
        loop {
            match uplink.pump(&mut mux).unwrap() {
                UplinkStatus::Drained => break,
                UplinkStatus::Blocked => {
                    // Lossless hop: let acks/credit flow back.
                    rx.on_bytes(&mux.take_staged()).unwrap();
                    mux.on_bytes(&rx.take_staged()).unwrap();
                }
                UplinkStatus::Idle => unreachable!("engine already finished"),
            }
        }
        mux.finish_all();
        rx.on_bytes(&mux.take_staged()).unwrap();
        mux.on_bytes(&rx.take_staged()).unwrap();
        assert!(mux.is_idle());
        assert_eq!(uplink.forwarded(), report.total_segments() as u64);
        assert_eq!(rx.finished_streams().count(), 8);

        // The wire reconstruction carries every stream's segments with
        // the filter's exact endpoints (FixedCodec is lossless).
        let logs = rx.into_demux().into_segment_logs();
        assert_eq!(logs.len(), 8);
        for (id, out) in &report.streams {
            let log = &logs[&id.0];
            assert_eq!(log.len(), out.segments.len(), "{id}");
            for (got, want) in log.iter().zip(&out.segments) {
                assert_eq!(got.t_start, want.t_start);
                assert_eq!(got.t_end, want.t_end);
                assert_eq!(got.x_end, want.x_end);
                assert_eq!(got.connected, want.connected);
            }
        }
    }

    /// A segment whose payload exceeds the whole credit window can never
    /// be admitted: the uplink surfaces the typed refusal instead of
    /// parking the segment and reporting `Blocked` forever.
    #[test]
    fn a_segment_larger_than_the_credit_window_is_refused_not_parked() {
        let (tx, tap) = mpsc::channel();
        let wide = Segment {
            t_start: 0.0,
            x_start: [1.0; 3].into(),
            t_end: 5.0,
            x_end: [2.0; 3].into(),
            connected: false,
            n_points: 2,
            new_recordings: 2,
        };
        tx.send((StreamId(4), wide)).unwrap();
        drop(tx);
        // A 3-D Start+End entry is 66 payload bytes.
        let cfg = NetConfig { window: 64, max_frame: 1 << 20 };
        let mut mux = MuxSender::new(FixedCodec, 3, cfg);
        let mut uplink = EngineUplink::new(tap);
        let over = NetError::EntryExceedsWindow { stream: 4, payload_len: 66, window: 64 };
        assert_eq!(uplink.pump(&mut mux), Err(over));
        assert_eq!(uplink.pump(&mut mux), Ok(UplinkStatus::Drained), "nothing left parked");
        assert_eq!(uplink.forwarded(), 0);
    }
}
