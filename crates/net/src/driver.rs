//! Pumps: moving bytes between the sans-I/O endpoints and a [`Link`].
//!
//! The synchronous [`pump_sender`]/[`pump_receiver`] functions do one
//! non-blocking round each — read everything available, write
//! everything staged — and report progress; they are what the
//! deterministic tests call directly, in whatever interleaving they
//! want to probe. The session layer and the collector build their
//! rounds from the same crate-private read and write halves.

use std::io;

use pla_transport::wire::Codec;

use crate::frame::Outbox;
use crate::link::Link;
use crate::mux::MuxSender;
use crate::receiver::NetReceiver;
use crate::NetError;

/// What can go wrong while pumping: the link died (reconnectable) or
/// the protocol itself failed (fatal).
#[derive(Debug)]
pub enum DriveError {
    /// The link failed; the session layer may reconnect and resume.
    Io(io::Error),
    /// The byte stream violated the protocol; reconnecting cannot help.
    Net(NetError),
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "link error: {e}"),
            Self::Net(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for DriveError {}

impl From<NetError> for DriveError {
    fn from(e: NetError) -> Self {
        Self::Net(e)
    }
}

impl From<io::Error> for DriveError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

const READ_CHUNK: usize = 4096;

/// Writes staged bytes until the outbox empties or the link pushes
/// back. Returns bytes written.
pub(crate) fn pump_out<L: Link>(out: &mut Outbox, link: &mut L) -> io::Result<usize> {
    let mut written = 0;
    while !out.is_empty() {
        match link.try_write(out.as_bytes()) {
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

/// Reads until the link runs dry, handing each chunk to `feed`.
/// Returns bytes read. A clean EOF (`Ok(0)`) surfaces as
/// `UnexpectedEof`: these sessions close by protocol (`Fin` + acks),
/// never by one side hanging up first.
pub(crate) fn pump_in<L: Link>(
    link: &mut L,
    mut feed: impl FnMut(&[u8]) -> Result<(), NetError>,
) -> Result<usize, DriveError> {
    let mut buf = [0u8; READ_CHUNK];
    let mut read = 0;
    loop {
        match link.try_read(&mut buf) {
            Ok(0) => {
                return Err(DriveError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-session",
                )))
            }
            Ok(n) => {
                feed(&buf[..n])?;
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
