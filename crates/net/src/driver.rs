//! Pumps: moving bytes between the sans-I/O endpoints and a [`Link`].
//!
//! [`pump_in`] and [`pump_out`] are the read and write halves every
//! peer builds its rounds from — the collector, the session sender,
//! the query server and client, and the ops HTTP server. They hold the
//! one I/O rule for a [`Link`]: read 4 KiB chunks until `WouldBlock`,
//! write until the outbox empties, the link pushes back or accepts
//! nothing, retry `Interrupted` at once, and treat any other error as a
//! dead link. A read's EOF is reported apart
//! ([`DriveError::Closed`]), so each peer keeps its own EOF rule.
//!
//! The synchronous [`pump_sender`]/[`pump_receiver`] functions do one
//! non-blocking round each — read everything available, write
//! everything staged — and report progress; they are what the
//! deterministic tests call directly, in whatever interleaving they
//! want to probe.

use std::io;

use pla_transport::wire::Codec;

use crate::frame::Outbox;
use crate::link::Link;
use crate::mux::MuxSender;
use crate::receiver::NetReceiver;
use crate::NetError;

/// What can go wrong while pumping: the link died or closed
/// (reconnectable), or the bytes read were refused by the feed (for the
/// ingest plane, a protocol violation — fatal).
#[derive(Debug)]
pub enum DriveError<E = NetError> {
    /// The link failed; the session layer may reconnect and resume.
    Io(io::Error),
    /// The peer closed the link (a read returned `Ok(0)`). Ingest
    /// sessions close by protocol (`Fin` + acks), so their peers treat
    /// this as a lost link; the query and ops servers treat it as the
    /// client hanging up.
    Closed,
    /// The feed refused the bytes read and stopped the read; reading
    /// more cannot help.
    Net(E),
}

impl<E: std::fmt::Display> std::fmt::Display for DriveError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "link error: {e}"),
            Self::Closed => write!(f, "link closed by the peer"),
            Self::Net(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for DriveError<E> {}

impl<E> From<io::Error> for DriveError<E> {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

const READ_CHUNK: usize = 4096;

/// Writes staged bytes until the outbox empties, the link pushes back
/// (`WouldBlock`) or accepts nothing (`Ok(0)`). Returns bytes written.
pub fn pump_out<L: Link>(out: &mut Outbox, link: &mut L) -> io::Result<usize> {
    let mut written = 0;
    while !out.is_empty() {
        match link.try_write(out.as_bytes()) {
            Ok(0) => break,
            Ok(n) => {
                out.consume(n);
                written += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(written)
}

/// Reads until the link runs dry, handing each chunk to `feed`. Returns
/// bytes read. A `feed` error stops the read at once and surfaces as
/// [`DriveError::Net`]; a clean EOF (`Ok(0)`) as [`DriveError::Closed`].
/// Chunks fed before either stay fed.
pub fn pump_in<L: Link, E>(
    link: &mut L,
    mut feed: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<usize, DriveError<E>> {
    let mut buf = [0u8; READ_CHUNK];
    let mut read = 0;
    loop {
        match link.try_read(&mut buf) {
            Ok(0) => return Err(DriveError::Closed),
            Ok(n) => {
                feed(&buf[..n]).map_err(DriveError::Net)?;
                read += n;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(read),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(DriveError::Io(e)),
        }
    }
}

/// One non-blocking pump round for the sender: absorb inbound `Ack`
/// bytes, then seal the round's entries into `Batch` frames and push
/// the staged frames. Returns total bytes
/// moved (0 = no progress).
pub fn pump_sender<C: Codec, L: Link>(
    tx: &mut MuxSender<C>,
    link: &mut L,
) -> Result<usize, DriveError> {
    let read = pump_in(link, |bytes| tx.on_bytes(bytes))?;
    let written = pump_out(tx.outbox(), link)?;
    Ok(read + written)
}

/// One non-blocking pump round for the receiver: absorb inbound frames,
/// flush the round's batched `Ack` control
/// ([`NetReceiver::flush_control`] — one frame with the session's
/// cumulative ack, however many `Batch` entries and streams the round
/// applied), then push the staged bytes. Returns total bytes moved.
pub fn pump_receiver<C: Codec, L: Link>(
    rx: &mut NetReceiver<C>,
    link: &mut L,
) -> Result<usize, DriveError> {
    let (read, written) = pump_receiver_split(rx, link)?;
    Ok(read + written)
}

/// [`pump_receiver`] with the read/written counts kept separate — the
/// collector refreshes a connection's liveness deadline
/// only when bytes actually *arrived*, not when this side merely wrote.
pub(crate) fn pump_receiver_split<C: Codec, L: Link>(
    rx: &mut NetReceiver<C>,
    link: &mut L,
) -> Result<(usize, usize), DriveError> {
    let read = pump_in(link, |bytes| rx.on_bytes(bytes))?;
    rx.flush_control();
    let written = pump_out(rx.outbox(), link)?;
    Ok((read, written))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::MemoryLink;
    use crate::NetConfig;
    use pla_core::Segment;
    use pla_transport::wire::FixedCodec;

    fn seg(i: usize) -> Segment {
        let t = i as f64 * 10.0;
        Segment {
            t_start: t,
            x_start: [t].into(),
            t_end: t + 5.0,
            x_end: [t + 1.0].into(),
            connected: false,
            n_points: 2,
            new_recordings: 2,
        }
    }

    /// Sync pumps over a tiny-capacity link: partial writes everywhere,
    /// and the transfer still completes.
    #[test]
    fn sync_pumps_complete_over_a_tiny_pipe() {
        let (mut la, mut lb) = MemoryLink::pair(7);
        let cfg = NetConfig::default();
        let mut tx = MuxSender::new(FixedCodec, 1, cfg);
        let mut rx = NetReceiver::new(FixedCodec, 1, cfg);
        for s in 0..4u64 {
            for i in 0..5 {
                tx.try_send_segment(s, &seg(i)).unwrap();
            }
            tx.finish_stream(s).unwrap();
        }
        let mut stalled = 0;
        while !(tx.is_idle() && rx.finished_streams().count() == 4 && rx.staged_bytes() == 0) {
            let moved =
                pump_sender(&mut tx, &mut la).unwrap() + pump_receiver(&mut rx, &mut lb).unwrap();
            stalled = if moved == 0 { stalled + 1 } else { 0 };
            assert!(stalled < 10, "transfer deadlocked");
        }
        let logs = rx.into_demux().into_segment_logs();
        assert_eq!(logs.len(), 4);
        for log in logs.values() {
            assert_eq!(log.len(), 5);
        }
    }
}
