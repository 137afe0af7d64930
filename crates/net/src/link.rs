//! The byte-pipe abstraction the multiplexed transport runs over.
//!
//! A [`Link`] is one direction-agnostic non-blocking byte stream — the
//! only thing the protocol endpoints ever see of the outside world. Two
//! implementations ship:
//!
//! * [`MemoryLink`] — an in-process pair of capacity-bounded pipes. The
//!   bounded capacity makes partial writes and `WouldBlock` *routine*
//!   rather than rare, so the deterministic tests exercise exactly the
//!   paths a real socket exercises; [`MemoryLink::sever`] kills the
//!   connection from either end, which is how the reconnect tests force
//!   a mid-stream disconnect.
//! * [`TcpLink`] — a non-blocking `std::net::TcpStream`.

use std::collections::VecDeque;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};

/// A non-blocking, connection-oriented byte stream.
///
/// Both methods follow `std::io` conventions: `WouldBlock` means "try
/// again later" (the pumps end their round and the driving loop sleeps
/// about 1 ms), `Interrupted` means "retry now"; any other error means
/// the connection is dead and the session layer should reconnect.
/// Outside `Link` impls, only the
/// [`driver`](crate::driver)'s `pump_in`/`pump_out` call these methods,
/// so every peer applies that rule the same way.
pub trait Link {
    /// Writes some prefix of `buf`, returning how many bytes were
    /// accepted. `Err(WouldBlock)` when the pipe is full.
    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize>;

    /// Reads into `buf`. `Ok(0)` is a clean end-of-stream (the peer
    /// finished and closed); `Err(WouldBlock)` when no bytes are
    /// available yet.
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Tears the connection down from this side. The session layer
    /// calls it when a liveness deadline expires: the link looks alive
    /// at the I/O level but the peer has stopped responding, so this
    /// side abandons it before redialing. Default: no-op (dropping the
    /// link is the teardown).
    fn shutdown(&mut self) {}
}

// ---------------------------------------------------------------------------

/// One direction of a memory pipe.
#[derive(Debug)]
struct PipeBuf {
    data: VecDeque<u8>,
    capacity: usize,
    /// Set by [`MemoryLink::sever`]: the connection failed mid-flight;
    /// both ends see `ConnectionReset` from now on.
    severed: bool,
}

impl PipeBuf {
    fn new(capacity: usize) -> Self {
        Self { data: VecDeque::new(), capacity, severed: false }
    }
}

/// One end of an in-process, capacity-bounded duplex byte pipe.
///
/// ```
/// use pla_net::link::{Link, MemoryLink};
///
/// let (mut a, mut b) = MemoryLink::pair(8);
/// assert_eq!(a.try_write(b"hello").unwrap(), 5);
/// let mut buf = [0u8; 16];
/// assert_eq!(b.try_read(&mut buf).unwrap(), 5);
/// assert_eq!(&buf[..5], b"hello");
/// // An empty pipe reads WouldBlock, not EOF.
/// assert_eq!(b.try_read(&mut buf).unwrap_err().kind(), std::io::ErrorKind::WouldBlock);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryLink {
    /// Pipe this end writes into.
    out: Arc<Mutex<PipeBuf>>,
    /// Pipe this end reads from.
    inc: Arc<Mutex<PipeBuf>>,
}

impl MemoryLink {
    /// Creates a connected pair; each direction buffers at most
    /// `capacity` bytes before writers see `WouldBlock`.
    pub fn pair(capacity: usize) -> (Self, Self) {
        let ab = Arc::new(Mutex::new(PipeBuf::new(capacity)));
        let ba = Arc::new(Mutex::new(PipeBuf::new(capacity)));
        (Self { out: ab.clone(), inc: ba.clone() }, Self { out: ba, inc: ab })
    }

    /// Kills the connection: every subsequent read or write on either
    /// end fails with `ConnectionReset`, and bytes still buffered in
    /// flight are lost — the failure mode the reconnect protocol must
    /// survive.
    pub fn sever(&self) {
        for pipe in [&self.out, &self.inc] {
            let mut p = pipe.lock().expect("pipe");
            p.severed = true;
            p.data.clear();
        }
    }

    /// Whether [`sever`](Self::sever) was called on either end.
    pub fn is_severed(&self) -> bool {
        self.out.lock().expect("pipe").severed
    }
}

impl Link for MemoryLink {
    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut pipe = self.out.lock().expect("pipe");
        if pipe.severed {
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "link severed"));
        }
        let room = pipe.capacity.saturating_sub(pipe.data.len());
        if room == 0 {
            // A bare kind, not `io::Error::new` with a message: every pump
            // round ends on a `WouldBlock`, and a message boxes.
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = room.min(buf.len());
        pipe.data.extend(&buf[..n]);
        Ok(n)
    }

    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut pipe = self.inc.lock().expect("pipe");
        if pipe.severed {
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "link severed"));
        }
        if pipe.data.is_empty() {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(pipe.data.len());
        for slot in buf.iter_mut().take(n) {
            *slot = pipe.data.pop_front().expect("checked len");
        }
        Ok(n)
    }

    fn shutdown(&mut self) {
        self.sever();
    }
}

// ---------------------------------------------------------------------------

/// A non-blocking TCP connection.
#[derive(Debug)]
pub struct TcpLink {
    stream: TcpStream,
}

impl TcpLink {
    /// Connects and switches the stream to non-blocking mode.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Wraps an accepted stream, switching it to non-blocking mode and
    /// disabling Nagle (the transport already batches into frames; an
    /// extra 40 ms delayed-ack dance per credit round trip would swamp
    /// the 1 ms pump cadence).
    pub fn from_stream(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }
}

impl Link for TcpLink {
    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(&mut self.stream, buf)
    }

    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(&mut self.stream, buf)
    }

    fn shutdown(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_pair_round_trips_with_bounded_capacity() {
        let (mut a, mut b) = MemoryLink::pair(4);
        assert_eq!(a.try_write(b"abcdef").unwrap(), 4, "capacity-limited partial write");
        assert_eq!(a.try_write(b"ef").unwrap_err().kind(), io::ErrorKind::WouldBlock);
        let mut buf = [0u8; 8];
        assert_eq!(b.try_read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"abcd");
        assert_eq!(a.try_write(b"ef").unwrap(), 2);
        assert_eq!(b.try_read(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"ef");
    }

    #[test]
    fn both_directions_are_independent() {
        let (mut a, mut b) = MemoryLink::pair(16);
        a.try_write(b"ping").unwrap();
        b.try_write(b"pong").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(b.try_read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        assert_eq!(a.try_read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"pong");
    }

    #[test]
    fn sever_fails_both_ends_and_drops_in_flight_bytes() {
        let (mut a, mut b) = MemoryLink::pair(16);
        a.try_write(b"lost").unwrap();
        b.sever();
        assert!(a.is_severed());
        let mut buf = [0u8; 8];
        assert_eq!(b.try_read(&mut buf).unwrap_err().kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(a.try_write(b"x").unwrap_err().kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(a.try_read(&mut buf).unwrap_err().kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn tcp_link_round_trips_on_loopback() {
        // Environments without loopback networking (heavily sandboxed CI)
        // skip rather than fail: the protocol itself is fully covered by
        // MemoryLink; this test covers only the TcpStream adapter.
        let listener = match std::net::TcpListener::bind("127.0.0.1:0") {
            Ok(l) => l,
            Err(e) => {
                eprintln!("skipping tcp_link test: cannot bind loopback ({e})");
                return;
            }
        };
        let addr = listener.local_addr().unwrap();
        let mut client = TcpLink::connect(addr).unwrap();
        let (server_stream, _) = listener.accept().unwrap();
        let mut server = TcpLink::from_stream(server_stream).unwrap();
        let mut wrote = 0;
        while wrote < 4 {
            match client.try_write(&b"ping"[wrote..]) {
                Ok(n) => wrote += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("write failed: {e}"),
            }
        }
        let mut buf = [0u8; 8];
        let mut read = 0;
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while read < 4 {
            match server.try_read(&mut buf[read..]) {
                Ok(0) => panic!("unexpected EOF"),
                Ok(n) => read += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(std::time::Instant::now() < deadline, "timed out");
                    std::thread::yield_now();
                }
                Err(e) => panic!("read failed: {e}"),
            }
        }
        assert_eq!(&buf[..4], b"ping");
    }
}
