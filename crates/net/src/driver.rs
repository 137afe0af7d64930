//! Pumps: moving bytes between the sans-I/O endpoints and a [`Link`].
//!
//! The synchronous [`pump_sender`]/[`pump_receiver`] functions do one
//! non-blocking round each — read everything available, write
//! everything staged — and report progress; they are what the
//! deterministic tests call directly, in whatever interleaving they
//! want to probe. The async [`drive_sender`]/[`drive_receiver`] wrap
//! those rounds in runtime tasks: pump, and when nothing moved, suspend
//! on [`runtime::io_ready`] — parked on the link's fd where it has one
//! (kernel-precise under the epoll reactor), at bounded poll cadence
//! otherwise.

use std::cell::RefCell;
use std::io;

use pla_transport::wire::Codec;

use crate::frame::Outbox;
use crate::link::Link;
use crate::mux::MuxSender;
use crate::receiver::NetReceiver;
use crate::runtime;
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
/// bytes, then push staged frames. Returns total bytes
/// moved (0 = no progress; wait for the reactor).
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
/// ([`NetReceiver::flush_control`] — one frame with one cumulative
/// cursor per touched stream, however many `Data` frames the round
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

/// The readiness to wait for after a round that moved nothing: always
/// reads; adds write interest only while bytes are actually staged (a
/// socket is almost always writable, so unconditional write interest
/// would turn an epoll sleep into a busy loop).
pub(crate) fn stall_interest(staged: usize) -> runtime::Interest {
    if staged > 0 {
        runtime::Interest::ReadWrite
    } else {
        runtime::Interest::Read
    }
}

/// Pumps the sender as an async task until `done(tx)` says the session
/// is over (typically: everything fed, finished, and
/// [`MuxSender::is_idle`]). A round that moves no bytes suspends on the
/// link's readiness source (kernel-precise under the epoll reactor;
/// bounded poll cadence otherwise).
pub async fn drive_sender<C: Codec, L: Link>(
    tx: &RefCell<MuxSender<C>>,
    link: &RefCell<L>,
    mut done: impl FnMut(&MuxSender<C>) -> bool,
) -> Result<(), DriveError> {
    loop {
        let moved = pump_sender(&mut tx.borrow_mut(), &mut *link.borrow_mut())?;
        if done(&tx.borrow()) {
            return Ok(());
        }
        if moved == 0 {
            let source = link.borrow().event_source();
            let interest = stall_interest(tx.borrow().staged_bytes());
            runtime::io_ready(source, interest).await;
        } else {
            runtime::yield_now().await;
        }
    }
}

/// Pumps the receiver as an async task until `done(rx)` says the
/// session is over (typically: every expected stream finished and
/// nothing staged).
pub async fn drive_receiver<C: Codec, L: Link>(
    rx: &RefCell<NetReceiver<C>>,
    link: &RefCell<L>,
    mut done: impl FnMut(&NetReceiver<C>) -> bool,
) -> Result<(), DriveError> {
    loop {
        let moved = pump_receiver(&mut rx.borrow_mut(), &mut *link.borrow_mut())?;
        if done(&rx.borrow()) {
            return Ok(());
        }
        if moved == 0 {
            let source = link.borrow().event_source();
            let interest = stall_interest(rx.borrow().staged_bytes());
            runtime::io_ready(source, interest).await;
        } else {
            runtime::yield_now().await;
        }
    }
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

    /// The async drivers move the same session over the runtime.
    #[test]
    fn async_drivers_complete_a_session() {
        use std::rc::Rc;

        let (la, lb) = MemoryLink::pair(64);
        let cfg = NetConfig::default();
        let tx = Rc::new(RefCell::new(MuxSender::new(FixedCodec, 1, cfg)));
        {
            let mut tx = tx.borrow_mut();
            for s in 0..3u64 {
                for i in 0..4 {
                    tx.try_send_segment(s, &seg(i)).unwrap();
                }
            }
            tx.finish_all();
        }
        let logs = runtime::block_on({
            let tx = tx.clone();
            async move {
                let spawner = runtime::spawner();
                let la = Rc::new(RefCell::new(la));
                let lb = RefCell::new(lb);
                spawner.spawn(async move {
                    drive_sender(&tx, &la, |t| t.is_idle()).await.expect("sender");
                });
                // The receiver lives entirely in the root task.
                let rx = RefCell::new(NetReceiver::new(FixedCodec, 1, cfg));
                drive_receiver(&rx, &lb, |r| {
                    r.finished_streams().count() == 3 && r.staged_bytes() == 0
                })
                .await
                .expect("receiver");
                // Let the sender task observe its final acks.
                for _ in 0..50 {
                    runtime::yield_now().await;
                }
                rx.into_inner().into_demux().into_segment_logs()
            }
        });
        assert_eq!(logs.len(), 3);
        for log in logs.values() {
            assert_eq!(log.len(), 4);
        }
        assert!(tx.borrow().all_acked());
    }
}
