//! Accepting inbound links: the listening half of the collector tier.
//!
//! An [`Acceptor`] hands the [`Collector`](crate::Collector) new
//! [`Link`]s as remote senders connect. Two implementations ship,
//! mirroring the two links:
//!
//! * [`TcpAcceptor`] — a non-blocking `std::net::TcpListener`; every
//!   accepted socket becomes a [`TcpLink`].
//! * [`MemoryAcceptor`] — the deterministic test substrate: a
//!   [`MemoryConnector`] handle (cloneable, any thread) creates
//!   capacity-bounded [`MemoryLink`] pairs and queues the serve-side
//!   end for the acceptor, so tests decide exactly when each
//!   "connection" arrives.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::{Arc, Mutex};

use crate::link::{Link, MemoryLink, TcpLink};

/// A source of inbound connections.
pub trait Acceptor {
    /// The link type each accepted connection yields.
    type Link: Link;

    /// Accepts one pending connection if any is waiting. `Ok(None)`
    /// means nothing pending right now (the non-blocking analogue of
    /// `WouldBlock` — surfaced as a value because "no connection yet"
    /// is the common case, not an error). A real error means the
    /// listening endpoint itself failed.
    fn try_accept(&mut self) -> io::Result<Option<Self::Link>>;
}

// ---------------------------------------------------------------------------

/// Shared queue between [`MemoryConnector`]s and their
/// [`MemoryAcceptor`].
type PendingLinks = Arc<Mutex<VecDeque<MemoryLink>>>;

/// The in-process acceptor: yields whatever links its connectors have
/// queued, in connection order.
///
/// ```
/// use pla_net::listen::{Acceptor, MemoryAcceptor};
/// use pla_net::Link;
///
/// let mut acceptor = MemoryAcceptor::new();
/// let connector = acceptor.connector();
/// assert!(acceptor.try_accept().unwrap().is_none(), "nothing queued yet");
/// let mut client = connector.connect(64);
/// let mut served = acceptor.try_accept().unwrap().expect("queued connection");
/// client.try_write(b"hi").unwrap();
/// let mut buf = [0u8; 4];
/// assert_eq!(served.try_read(&mut buf).unwrap(), 2);
/// ```
#[derive(Debug, Default)]
pub struct MemoryAcceptor {
    pending: PendingLinks,
}

impl MemoryAcceptor {
    /// An acceptor with no connections queued.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle remote "senders" use to connect. Cloneable and
    /// `Send`: a multi-threaded test can dial in from anywhere.
    pub fn connector(&self) -> MemoryConnector {
        MemoryConnector { pending: self.pending.clone() }
    }
}

impl Acceptor for MemoryAcceptor {
    type Link = MemoryLink;

    fn try_accept(&mut self) -> io::Result<Option<MemoryLink>> {
        Ok(self.pending.lock().expect("pending links").pop_front())
    }
}

/// The dialing half of a [`MemoryAcceptor`].
#[derive(Debug, Clone)]
pub struct MemoryConnector {
    pending: PendingLinks,
}

impl MemoryConnector {
    /// Creates a connected [`MemoryLink`] pair with the given per-
    /// direction byte capacity, queues the serve side for the acceptor,
    /// and returns the client side.
    pub fn connect(&self, capacity: usize) -> MemoryLink {
        let (client, server) = MemoryLink::pair(capacity);
        self.pending.lock().expect("pending links").push_back(server);
        client
    }
}

// ---------------------------------------------------------------------------

/// A non-blocking TCP listener yielding [`TcpLink`]s.
#[derive(Debug)]
pub struct TcpAcceptor {
    listener: TcpListener,
}

impl TcpAcceptor {
    /// Binds and switches the listener to non-blocking mode.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self { listener })
    }

    /// The bound local address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }
}

impl Acceptor for TcpAcceptor {
    type Link = TcpLink;

    fn try_accept(&mut self) -> io::Result<Option<TcpLink>> {
        match self.listener.accept() {
            Ok((stream, _)) => TcpLink::from_stream(stream).map(Some),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_acceptor_yields_connections_in_dial_order() {
        let mut acceptor = MemoryAcceptor::new();
        let connector = acceptor.connector();
        let mut c1 = connector.connect(16);
        let mut c2 = connector.connect(16);
        c1.try_write(b"one").unwrap();
        c2.try_write(b"two").unwrap();
        let mut buf = [0u8; 8];
        let mut s1 = acceptor.try_accept().unwrap().expect("first connection");
        assert_eq!(s1.try_read(&mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"one");
        let mut s2 = acceptor.try_accept().unwrap().expect("second connection");
        assert_eq!(s2.try_read(&mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"two");
        assert!(acceptor.try_accept().unwrap().is_none());
    }

    #[test]
    fn connectors_work_cross_thread() {
        let mut acceptor = MemoryAcceptor::new();
        let connector = acceptor.connector();
        let dialer = std::thread::spawn(move || {
            let mut link = connector.connect(32);
            link.try_write(b"remote").unwrap();
        });
        dialer.join().unwrap();
        let mut served = acceptor.try_accept().unwrap().expect("dialed in");
        let mut buf = [0u8; 8];
        assert_eq!(served.try_read(&mut buf).unwrap(), 6);
        assert_eq!(&buf[..6], b"remote");
    }

    #[test]
    fn tcp_acceptor_accepts_nonblocking() {
        let mut acceptor = match TcpAcceptor::bind("127.0.0.1:0") {
            Ok(a) => a,
            Err(e) => {
                eprintln!("skipping tcp acceptor test: cannot bind loopback ({e})");
                return;
            }
        };
        assert!(acceptor.try_accept().unwrap().is_none(), "no one dialed yet");
        let addr = acceptor.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        // The handshake may take a beat to land in the accept queue.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while acceptor.try_accept().unwrap().is_none() {
            assert!(std::time::Instant::now() < deadline, "accept timed out");
            std::thread::yield_now();
        }
        drop(client);
    }
}
