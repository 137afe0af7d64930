//! The deployed path, assembled in one process and driven by one thread:
//! `IngestEngine` (tap) → `EngineUplink` → `SessionSender` → link →
//! `Collector::with_sessions` → `SegmentStore` → `QueryServer` →
//! `QueryClient`, plus the `CollectorAdmin` metrics handler.
//!
//! Every layer is reached through its public pump; each call goes
//! through the [`Ledger`] so a traced round can charge it to its layer.

use std::cell::RefCell;
use std::io;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pla_ingest::{IngestConfig, IngestEngine, IngestHandle, IngestReport, SegmentStore, StreamId};
use pla_net::listen::{Acceptor, MemoryAcceptor, TcpAcceptor};
use pla_net::session::SessionStats;
use pla_net::uplink::{EngineUplink, UplinkStatus};
use pla_net::{
    Collector, CollectorStats, MemoryRedial, NetConfig, Redial, SessionConfig, SessionSender,
    TcpRedial,
};
use pla_ops::http::Handler;
use pla_ops::{CollectorAdmin, Request};
use pla_query::{ClientStats, QueryClient, QueryClientConfig, QueryServer, QueryServerStats};
use pla_transport::wire::FixedCodec;

use crate::ledger::{Layer, Ledger};
use crate::workload::Spec;

/// Per-direction byte capacity of an in-process ingest pipe.
pub const PIPE_CAPACITY: usize = 64 * 1024;

/// How long set-up may take to complete both handshakes.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(10);

/// The substrate carrying the ingest session.
pub trait Transport {
    /// The sender's dialer.
    type R: Redial;
    /// The collector's listener.
    type A: Acceptor;
    /// A connected dialer/listener pair.
    fn open() -> io::Result<(Self::R, Self::A)>;
}

/// In-process `MemoryLink` pipes.
pub struct Mem;

impl Transport for Mem {
    type R = MemoryRedial;
    type A = MemoryAcceptor;

    fn open() -> io::Result<(MemoryRedial, MemoryAcceptor)> {
        let acceptor = MemoryAcceptor::new();
        Ok((MemoryRedial::new(acceptor.connector(), PIPE_CAPACITY), acceptor))
    }
}

/// Loopback TCP sockets.
pub struct Tcp;

impl Transport for Tcp {
    type R = TcpRedial;
    type A = TcpAcceptor;

    fn open() -> io::Result<(TcpRedial, TcpAcceptor)> {
        let acceptor = TcpAcceptor::bind("127.0.0.1:0")?;
        Ok((TcpRedial::new(acceptor.local_addr()?), acceptor))
    }
}

/// Counters and final stats of one pipeline, read at teardown.
pub struct Closing {
    /// The engine's shutdown report.
    pub report: IngestReport,
    /// Collector counters.
    pub collector: CollectorStats,
    /// Sender session counters.
    pub session: SessionStats,
    /// Query server counters.
    pub server: QueryServerStats,
    /// Query client counters.
    pub client: ClientStats,
    /// Segments the uplink handed to the mux.
    pub forwarded: u64,
    /// Uplink rounds that ended parked on credit.
    pub blocked_rounds: u64,
}

/// One assembled pipeline: `T` carries the ingest session, `Q` the
/// query connection.
pub struct Pipeline<T: Transport, Q: Transport> {
    engine: IngestEngine,
    handle: IngestHandle,
    uplink: EngineUplink,
    sess: SessionSender<FixedCodec, T::R>,
    collector: Rc<RefCell<Collector<FixedCodec, T::A>>>,
    admin: CollectorAdmin<FixedCodec, T::A>,
    store: Arc<SegmentStore>,
    server: QueryServer<Q::A>,
    client: QueryClient<Q::R>,
    streams: usize,
    blocked_rounds: u64,
}

impl<T: Transport, Q: Transport> Pipeline<T, Q> {
    /// Builds every layer with default configs (one engine shard),
    /// registers the workload's streams, and completes both handshakes.
    pub fn build(spec: &Spec) -> io::Result<Self> {
        let (engine, tap) =
            IngestEngine::with_segment_tap(IngestConfig { shards: 1, ..IngestConfig::default() });
        let handle = engine.handle();
        let filter = spec.filter();
        for s in 0..spec.streams {
            handle
                .register(StreamId(s as u64), filter.clone())
                .map_err(|e| io::Error::other(e.to_string()))?;
        }
        let net = NetConfig::default();
        let session = SessionConfig::default();
        let store = Arc::new(SegmentStore::new());
        let (redial, acceptor) = T::open()?;
        let sess = SessionSender::new(FixedCodec, spec.dims, net, session, redial, Instant::now());
        let collector = Rc::new(RefCell::new(Collector::with_sessions(
            FixedCodec,
            spec.dims,
            net,
            session,
            acceptor,
            store.clone(),
        )));
        let admin = CollectorAdmin::new(collector.clone());
        let (query_redial, query_acceptor) = Q::open()?;
        let server = QueryServer::new(query_acceptor, store.clone(), net);
        let client = QueryClient::new(query_redial, QueryClientConfig::default());
        let mut p = Self {
            engine,
            handle,
            uplink: EngineUplink::new(tap),
            sess,
            collector,
            admin,
            store,
            server,
            client,
            streams: spec.streams,
            blocked_rounds: 0,
        };
        p.handshake()?;
        Ok(p)
    }

    /// Pumps until the ingest session is established and the query
    /// client has its first answer (an epochs probe).
    fn handshake(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + HANDSHAKE_DEADLINE;
        let probe = self.client.probe_epochs(Instant::now());
        let mut answered = false;
        while !(answered && self.sess.is_established()) {
            let now = Instant::now();
            if now > deadline {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "pipeline handshakes"));
            }
            if let Some(e) = self.sess.failure() {
                return Err(io::Error::other(e.to_string()));
            }
            self.sess.pump_at(now);
            self.collector
                .borrow_mut()
                .pump_at(now)
                .map_err(|e| io::Error::other(e.to_string()))?;
            self.client.pump_at(now);
            self.server.pump();
            self.client.pump_at(now);
            if let Some(outcome) = self.client.take_outcome(probe) {
                outcome.map_err(|e| io::Error::other(e.to_string()))?;
                answered = true;
            }
        }
        Ok(())
    }

    /// The shared store.
    pub fn store(&self) -> &SegmentStore {
        &self.store
    }

    /// The remote query client.
    pub fn client(&mut self) -> &mut QueryClient<Q::R> {
        &mut self.client
    }

    /// One `IngestHandle::push`; `false` if it was refused.
    pub fn push(&mut self, led: &mut Ledger, stream: usize, t: f64, x: &[f64]) -> bool {
        led.time(Layer::Push, || self.handle.push(StreamId(stream as u64), t, x)).is_ok()
    }

    /// One `IngestHandle::push_batch`; `false` if it was refused.
    pub fn push_batch(&mut self, led: &mut Ledger, stream: usize, batch: &[(f64, &[f64])]) -> bool {
        led.time(Layer::Push, || self.handle.push_batch(StreamId(stream as u64), batch)).is_ok()
    }

    /// Ends every stream; returns how many ends were refused.
    pub fn finish_streams(&mut self, led: &mut Ledger) -> u64 {
        let mut refused = 0;
        for s in 0..self.streams {
            if led.time(Layer::Push, || self.handle.finish_stream(StreamId(s as u64))).is_err() {
                refused += 1;
            }
        }
        refused
    }

    /// Segments the uplink has handed to the mux.
    pub fn forwarded(&self) -> u64 {
        self.uplink.forwarded()
    }

    /// Sends `Fin` for every stream the mux has carried.
    pub fn fin_all(&mut self, led: &mut Ledger) {
        led.time(Layer::Session, || self.sess.mux_mut().finish_all());
    }

    /// One ingest-wire round: tap → mux, session I/O, collector (demux,
    /// store append, acks). Returns whether anything moved.
    pub fn wire_round(&mut self, led: &mut Ledger, now: Instant) -> bool {
        let before = self.uplink.forwarded();
        let status = led
            .time(Layer::Uplink, || self.uplink.pump(self.sess.mux_mut()))
            .expect("uplink refused a segment: protocol error");
        if status == UplinkStatus::Blocked {
            self.blocked_rounds += 1;
        }
        let sent = led.time(Layer::Session, || self.sess.pump_at(now));
        if let Some(e) = self.sess.failure() {
            panic!("ingest session failed: {e}");
        }
        let got = led
            .time(Layer::Collector, || self.collector.borrow_mut().pump_at(now))
            .expect("collector quarantined the session: protocol error");
        self.uplink.forwarded() > before || sent + got > 0
    }

    /// One query round: the client flushes requests, the server answers,
    /// the client reads the answers.
    pub fn query_round(&mut self, led: &mut Ledger, now: Instant) {
        led.time(Layer::Client, || self.client.pump_at(now));
        led.time(Layer::Server, || self.server.pump());
        led.time(Layer::Client, || self.client.pump_at(now));
    }

    /// Sends `GET /metrics` to the admin handler and checks the store
    /// total it reports. Returns the body size.
    pub fn scrape(&mut self, led: &mut Ledger) -> Result<usize, String> {
        let req = Request { method: "GET".into(), path: "/metrics".into(), body: Vec::new() };
        let resp = led.time(Layer::Scrape, || self.admin.handle(&req));
        if resp.status != 200 {
            return Err(format!("scrape answered {}", resp.status));
        }
        let body = String::from_utf8_lossy(&resp.body);
        let reported = body
            .lines()
            .find_map(|l| l.strip_prefix("pla_store_segments_total "))
            .and_then(|v| v.trim().parse::<f64>().ok());
        let actual = self.store.total_segments() as f64;
        match reported {
            Some(v) if v == actual => Ok(resp.body.len()),
            other => Err(format!("scrape reported store total {other:?}, store holds {actual}")),
        }
    }

    /// Shuts the engine down and collects every layer's counters.
    pub fn close(self) -> (Arc<SegmentStore>, Closing) {
        let collector = self.collector.borrow().stats();
        let closing = Closing {
            collector,
            session: self.sess.stats(),
            server: self.server.stats(),
            client: self.client.stats(),
            forwarded: self.uplink.forwarded(),
            blocked_rounds: self.blocked_rounds,
            report: self.engine.finish(),
        };
        (self.store, closing)
    }
}
