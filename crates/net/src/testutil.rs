//! Fault injection for chaos tests (the `test-util` feature).
//!
//! [`FaultLink`] wraps any [`Link`] and applies a deterministic,
//! seeded schedule of link pathologies to the traffic flowing through
//! it — severed connections, truncated frames, silent wedges, delayed
//! reads, duplicated deliveries. Faults are applied at **whole-frame
//! granularity** on the write side: the wrapper parses the
//! `[u32 len]`-prefixed frame boundaries, so a "duplicate" fault
//! duplicates a complete frame (absorbed by sequence dedup /
//! idempotent control), not an arbitrary byte range that would turn
//! the stream into garbage. Byte-level corruption is what `Truncate`
//! models — and it tears the link down, exactly like a mid-frame
//! connection loss.
//!
//! [`FaultRedial`] turns the wrapper into a [`Redial`] implementation:
//! each dial attempt draws the next [`FaultPlan`] from a queue (fault-
//! free once the queue runs dry, so every schedule converges), which
//! is how the chaos suites script an entire connection lifetime of
//! failures against a [`SessionSender`](crate::SessionSender): every
//! recovery is the sender's own redial and token resume.

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Mutex};

use crate::link::{Link, MemoryLink};
use crate::listen::MemoryConnector;
use crate::session::{splitmix64, Redial};

/// One scripted link pathology. Frame indices count complete frames
/// written through the wrapper, starting at 0 (the session `Hello` is
/// frame 0 of every connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Deliver frame `frame` twice — a retransmitting middlebox. The
    /// receiver's dedup/idempotence must absorb it.
    Duplicate {
        /// Frame index to duplicate.
        frame: u64,
    },
    /// Deliver only the first `keep` bytes of frame `frame`, then tear
    /// the connection down — a mid-frame connection loss.
    Truncate {
        /// Frame index to truncate.
        frame: u64,
        /// Bytes of the frame that still get through.
        keep: usize,
    },
    /// Tear the connection down *before* delivering frame `frame`.
    Sever {
        /// Frame index that never gets through.
        frame: u64,
    },
    /// From frame `frame` on, go silently dead: writes are accepted
    /// and discarded, reads return `WouldBlock` forever. The failure
    /// mode only a liveness deadline can detect.
    Wedge {
        /// First frame silently swallowed.
        frame: u64,
    },
    /// Return `WouldBlock` for `rounds` read calls starting at read
    /// call `read_call` — transient latency, must never break anything.
    Delay {
        /// Read-call index at which the stall starts.
        read_call: u64,
        /// How many read calls stall.
        rounds: u64,
    },
}

/// A deterministic schedule of [`Fault`]s for one connection lifetime.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: a perfectly healthy link.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with exactly these faults.
    pub fn new(faults: Vec<Fault>) -> Self {
        Self { faults }
    }

    /// A reproducible pseudo-random plan: 1–3 faults at frame indices
    /// up to `horizon`, drawn from seed via splitmix64. `Wedge` is
    /// excluded — random wedges belong to schedules that also drive
    /// the liveness clock; callers script them explicitly.
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        let mut s = seed;
        let horizon = horizon.max(1);
        splitmix64(&mut s);
        let count = 1 + (s % 3) as usize;
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            splitmix64(&mut s);
            let frame = s % horizon;
            splitmix64(&mut s);
            faults.push(match s % 4 {
                0 => Fault::Duplicate { frame },
                1 => {
                    splitmix64(&mut s);
                    Fault::Truncate { frame, keep: (s % 16) as usize }
                }
                2 => Fault::Sever { frame },
                _ => {
                    splitmix64(&mut s);
                    Fault::Delay { read_call: frame, rounds: 1 + s % 4 }
                }
            });
        }
        Self { faults }
    }

    /// The scheduled faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }
}

#[derive(Debug)]
struct FaultState {
    plan: Vec<Fault>,
    /// Bytes written through the wrapper, awaiting a complete frame
    /// boundary.
    parse: Vec<u8>,
    /// Whole-frame bytes cleared for delivery to the inner link.
    /// Unbounded by design: the wrapper absorbs backpressure so fault
    /// timing depends only on frame indices, not inner pipe capacity —
    /// acceptable for a test harness, never for production code.
    staged: VecDeque<u8>,
    frame_idx: u64,
    read_calls: u64,
    wedged: bool,
    severed: bool,
}

/// A [`Link`] wrapper injecting the faults of a [`FaultPlan`].
///
/// Faults apply to the **write** direction only (the wrapped side's
/// outbound traffic); reads pass through except for `Delay` stalls and
/// the total silence of a `Wedge`. Wrapping the *sender's* end of a
/// connection therefore faults the data path while leaving the
/// receiver's control path clean — the asymmetry real uplinks show.
///
/// Clones share both the inner link and the fault state, so a test can
/// keep a clone as a handle to wedge or sever the active connection.
#[derive(Debug)]
pub struct FaultLink<L: Link> {
    inner: L,
    state: Arc<Mutex<FaultState>>,
}

impl<L: Link + Clone> Clone for FaultLink<L> {
    fn clone(&self) -> Self {
        Self { inner: self.inner.clone(), state: self.state.clone() }
    }
}

impl<L: Link> FaultLink<L> {
    /// Wraps `inner`, applying `plan` to the traffic written through.
    pub fn new(inner: L, plan: FaultPlan) -> Self {
        Self {
            inner,
            state: Arc::new(Mutex::new(FaultState {
                plan: plan.faults,
                parse: Vec::new(),
                staged: VecDeque::new(),
                frame_idx: 0,
                read_calls: 0,
                wedged: false,
                severed: false,
            })),
        }
    }

    /// Silently wedges the connection from now on: writes vanish,
    /// reads stall forever. Only a liveness deadline can notice.
    pub fn wedge_now(&self) {
        self.state.lock().expect("fault state").wedged = true;
    }

    /// Whether the harness has torn the connection down.
    pub fn is_severed(&self) -> bool {
        self.state.lock().expect("fault state").severed
    }

    /// Whether the connection is silently wedged.
    pub fn is_wedged(&self) -> bool {
        self.state.lock().expect("fault state").wedged
    }

    /// Flushes staged whole-frame bytes into the inner link.
    fn flush_staged(&mut self, st: &mut FaultState) {
        while !st.staged.is_empty() {
            let (head, _) = st.staged.as_slices();
            match self.inner.try_write(head) {
                Ok(n) => {
                    st.staged.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    st.severed = true;
                    break;
                }
            }
        }
    }
}

impl<L: Link> Link for FaultLink<L> {
    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let state = self.state.clone();
        let mut st = state.lock().expect("fault state");
        if st.severed {
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "faulted link severed"));
        }
        if st.wedged {
            // The silent failure mode: bytes accepted, never delivered.
            return Ok(buf.len());
        }
        st.parse.extend_from_slice(buf);
        // Cut completed frames off the parse buffer and apply faults
        // per frame index.
        while !st.severed && !st.wedged {
            if st.parse.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes(st.parse[..4].try_into().expect("4 bytes")) as usize;
            let total = 4 + len;
            if st.parse.len() < total {
                break;
            }
            let frame: Vec<u8> = st.parse.drain(..total).collect();
            let idx = st.frame_idx;
            st.frame_idx += 1;
            let mut duplicate = false;
            let mut truncate: Option<usize> = None;
            let mut sever = false;
            let mut wedge = false;
            for f in &st.plan {
                match *f {
                    Fault::Duplicate { frame } if frame == idx => duplicate = true,
                    Fault::Truncate { frame, keep } if frame == idx => truncate = Some(keep),
                    Fault::Sever { frame } if frame == idx => sever = true,
                    Fault::Wedge { frame } if frame == idx => wedge = true,
                    _ => {}
                }
            }
            if wedge {
                st.wedged = true;
            } else if sever {
                st.severed = true;
            } else if let Some(keep) = truncate {
                st.staged.extend(&frame[..keep.min(frame.len())]);
                st.severed = true;
            } else {
                st.staged.extend(&frame);
                if duplicate {
                    st.staged.extend(&frame);
                }
            }
        }
        self.flush_staged(&mut st);
        if st.severed {
            // Deliver what was cleared, then kill the transport so both
            // ends observe the loss (in-flight bytes may die with it).
            self.inner.shutdown();
            return Ok(buf.len());
        }
        Ok(buf.len())
    }

    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let state = self.state.clone();
        let mut st = state.lock().expect("fault state");
        if st.wedged {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "wedged"));
        }
        if st.severed {
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "faulted link severed"));
        }
        let call = st.read_calls;
        st.read_calls += 1;
        let delayed = st.plan.iter().any(|f| {
            matches!(*f, Fault::Delay { read_call, rounds }
                if read_call <= call && call < read_call + rounds)
        });
        if delayed {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "scripted delay"));
        }
        // Keep draining staged writes opportunistically: a tiny inner
        // pipe may have blocked the last flush, and the read side is
        // pumped even when the caller has nothing to write.
        self.flush_staged(&mut st);
        drop(st);
        self.inner.try_read(buf)
    }

    fn shutdown(&mut self) {
        self.state.lock().expect("fault state").severed = true;
        self.inner.shutdown();
    }
}

/// A [`Redial`] implementation whose every dial attempt yields a
/// [`FaultLink`]-wrapped [`MemoryLink`], with a queue of per-connection
/// [`FaultPlan`]s. Once the queue is empty, dials yield fault-free
/// links — so any scripted storm eventually converges.
#[derive(Debug)]
pub struct FaultRedial {
    connector: MemoryConnector,
    capacity: usize,
    plans: VecDeque<FaultPlan>,
    last: Option<FaultLink<MemoryLink>>,
    last_inner: Option<MemoryLink>,
    dials: u64,
}

impl FaultRedial {
    /// Dials through `connector` with `capacity`-byte pipes, drawing
    /// one plan per connection from `plans` (then fault-free).
    pub fn new(connector: MemoryConnector, capacity: usize, plans: Vec<FaultPlan>) -> Self {
        Self { connector, capacity, plans: plans.into(), last: None, last_inner: None, dials: 0 }
    }

    /// Appends another connection's fault plan to the queue.
    pub fn push_plan(&mut self, plan: FaultPlan) {
        self.plans.push_back(plan);
    }

    /// Handle to the active faulted link (shares state with the one the
    /// sender holds).
    pub fn last_link(&self) -> Option<FaultLink<MemoryLink>> {
        self.last.clone()
    }

    /// Severs the active connection outright (both ends see
    /// `ConnectionReset`).
    pub fn sever_active(&self) {
        if let Some(inner) = &self.last_inner {
            inner.sever();
        }
        if let Some(link) = &self.last {
            link.state.lock().expect("fault state").severed = true;
        }
    }

    /// Silently wedges the active connection — the heartbeat-detection
    /// path.
    pub fn wedge_active(&self) {
        if let Some(link) = &self.last {
            link.wedge_now();
        }
    }

    /// Total dial attempts.
    pub fn dials(&self) -> u64 {
        self.dials
    }
}

impl Redial for FaultRedial {
    type Link = FaultLink<MemoryLink>;

    fn redial(&mut self) -> io::Result<FaultLink<MemoryLink>> {
        self.dials += 1;
        let inner = self.connector.connect(self.capacity);
        let plan = self.plans.pop_front().unwrap_or_default();
        let link = FaultLink::new(inner.clone(), plan);
        self.last = Some(link.clone());
        self.last_inner = Some(inner);
        Ok(link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode, FrameDecoder, NetFrame};
    use bytes::BytesMut;

    fn frame_bytes(seq: u64) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode(&NetFrame::Heartbeat { seq }, &mut buf);
        buf.to_vec()
    }

    #[test]
    fn clean_plan_passes_frames_through_unchanged() {
        let (client, mut server) = MemoryLink::pair(1024);
        let mut faulted = FaultLink::new(client, FaultPlan::none());
        for seq in 0..4 {
            faulted.try_write(&frame_bytes(seq)).unwrap();
        }
        let mut buf = [0u8; 1024];
        let n = server.try_read(&mut buf).unwrap();
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&buf[..n]);
        for seq in 0..4 {
            assert_eq!(dec.try_next().unwrap(), Some(NetFrame::Heartbeat { seq }));
        }
    }

    #[test]
    fn duplicate_fault_delivers_the_frame_twice() {
        let (client, mut server) = MemoryLink::pair(1024);
        let plan = FaultPlan::new(vec![Fault::Duplicate { frame: 1 }]);
        let mut faulted = FaultLink::new(client, plan);
        for seq in 0..3 {
            faulted.try_write(&frame_bytes(seq)).unwrap();
        }
        let mut buf = [0u8; 1024];
        let n = server.try_read(&mut buf).unwrap();
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&buf[..n]);
        let mut seqs = Vec::new();
        while let Some(NetFrame::Heartbeat { seq }) = dec.try_next().unwrap() {
            seqs.push(seq);
        }
        assert_eq!(seqs, vec![0, 1, 1, 2], "frame 1 delivered twice, whole frames only");
    }

    #[test]
    fn truncate_fault_delivers_a_prefix_then_severs() {
        let (client, mut server) = MemoryLink::pair(1024);
        let plan = FaultPlan::new(vec![Fault::Truncate { frame: 1, keep: 5 }]);
        let mut faulted = FaultLink::new(client, plan);
        faulted.try_write(&frame_bytes(0)).unwrap();
        let whole = frame_bytes(0).len();
        // Frame 1 completes inside this write; 5 bytes get through and
        // the transport dies. MemoryLink::sever clears in-flight bytes,
        // so the observable outcome is ConnectionReset on both ends —
        // exactly a mid-frame connection loss.
        faulted.try_write(&frame_bytes(1)).unwrap();
        assert!(faulted.is_severed());
        let mut buf = [0u8; 1024];
        assert_eq!(
            server.try_read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset,
            "whole frame was {whole} bytes; the truncated link must be dead"
        );
        assert_eq!(
            faulted.try_write(&frame_bytes(2)).unwrap_err().kind(),
            io::ErrorKind::ConnectionReset
        );
    }

    #[test]
    fn wedge_fault_goes_silent_without_erroring() {
        let (client, mut server) = MemoryLink::pair(1024);
        let plan = FaultPlan::new(vec![Fault::Wedge { frame: 1 }]);
        let mut faulted = FaultLink::new(client, plan);
        faulted.try_write(&frame_bytes(0)).unwrap();
        faulted.try_write(&frame_bytes(1)).unwrap(); // swallowed
        faulted.try_write(&frame_bytes(2)).unwrap(); // swallowed
        assert!(faulted.is_wedged());
        let mut buf = [0u8; 1024];
        let n = server.try_read(&mut buf).unwrap();
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&buf[..n]);
        assert_eq!(dec.try_next().unwrap(), Some(NetFrame::Heartbeat { seq: 0 }));
        assert_eq!(dec.try_next().unwrap(), None, "frames 1 and 2 vanished silently");
        // Reads stall forever rather than erroring — undetectable
        // without a liveness deadline.
        assert_eq!(faulted.try_read(&mut buf).unwrap_err().kind(), io::ErrorKind::WouldBlock);
    }

    #[test]
    fn delay_fault_stalls_reads_then_recovers() {
        let (client, mut server) = MemoryLink::pair(1024);
        let plan = FaultPlan::new(vec![Fault::Delay { read_call: 0, rounds: 2 }]);
        let mut faulted = FaultLink::new(client, plan);
        server.try_write(b"pong").unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(faulted.try_read(&mut buf).unwrap_err().kind(), io::ErrorKind::WouldBlock);
        assert_eq!(faulted.try_read(&mut buf).unwrap_err().kind(), io::ErrorKind::WouldBlock);
        assert_eq!(faulted.try_read(&mut buf).unwrap(), 4, "stall ends on schedule");
    }

    #[test]
    fn seeded_plans_are_reproducible() {
        let a = FaultPlan::seeded(42, 16);
        let b = FaultPlan::seeded(42, 16);
        assert_eq!(a.faults(), b.faults());
        assert!(!a.faults().is_empty());
        let c = FaultPlan::seeded(43, 16);
        assert_ne!(a.faults(), c.faults(), "different seeds, different storms");
    }

    #[test]
    fn fault_redial_draws_one_plan_per_dial_then_goes_clean() {
        let acceptor = crate::listen::MemoryAcceptor::new();
        let mut redial = FaultRedial::new(
            acceptor.connector(),
            64,
            vec![FaultPlan::new(vec![Fault::Sever { frame: 0 }])],
        );
        let mut first = redial.redial().unwrap();
        // Frame 0 never gets through on the first connection…
        first.try_write(&frame_bytes(0)).unwrap();
        assert!(first.is_severed());
        // …but the second connection is fault-free.
        let mut second = redial.redial().unwrap();
        second.try_write(&frame_bytes(0)).unwrap();
        assert!(!second.is_severed());
        assert_eq!(redial.dials(), 2);
    }
}
