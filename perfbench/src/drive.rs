//! Round loops. A run is a sequence of rounds; each round builds a
//! fresh pipeline (timed as set-up), drives its measured phase from the
//! main thread, then checks every output against the reference
//! and tears the pipeline down.
//!
//! * Closed loop (`edge_compress`, `wire_fanin`): push the whole input
//!   as fast as the engine accepts it, end the streams, and stop the
//!   ingest clock when the store holds every reference segment; then a
//!   fixed batch of remote queries runs against the quiescent store.
//!   Rounds repeat until the run's time is spent.
//! * Open loop (`query_mixed`): set-up loads each stream's history;
//!   then one sample per stream is due every tick on a fixed schedule
//!   while the read loop keeps its requests in flight.

use std::time::{Duration, Instant};

use pla_core::Segment;
use pla_ingest::{SegmentStore, StreamId};
use pla_query::{Query, StoreQueryEngine};

use crate::ledger::{Layer, Ledger};
use crate::pipeline::{Closing, Pipeline, Transport};
use crate::procfs::{threads_cpu_seconds, SHARD_THREAD_PREFIX};
use crate::queries::{fixed_set, QueryLoad};
use crate::stats::RoundTiming;
use crate::workload::{splitmix64, Spec, StreamRef};

/// Remote queries per closed-loop round, run after ingest quiesces. The
/// first requests of a round pay the server's engine rebuild; at this
/// count they stay well beyond the 99th percentile.
const QUERIES_PER_ROUND: u64 = 2000;

/// Interval between `GET /metrics` scrapes.
const SCRAPE_INTERVAL: Duration = Duration::from_millis(100);

/// Least time between two store polls in the closed-loop workloads,
/// which bounds polling to a few percent of the main thread. The open
/// loop polls every round in which the store's epochs moved, since
/// freshness is what it measures.
const CLOSED_POLL_INTERVAL: Duration = Duration::from_millis(5);

/// How long the main thread parks after a round in which no layer had work.
const IDLE_BACKOFF: Duration = Duration::from_micros(50);

/// Open-loop ticks per measurement window (see `RoundTiming`).
const WINDOW_TICKS: usize = 125;

/// Any single phase that runs longer than this is a failed round.
const PHASE_DEADLINE: Duration = Duration::from_secs(60);

/// Counters summed over the traced rounds.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Samples pushed.
    pub samples: u64,
    /// Segments the filters emitted.
    pub segments: u64,
    /// Segments the uplink handed to the mux.
    pub forwarded: u64,
    /// Uplink rounds parked on credit.
    pub blocked_rounds: u64,
    /// Session dial attempts.
    pub dials: u64,
    /// `Data` frames the collector applied.
    pub frames: u64,
    /// `Ack` frames the collector staged.
    pub acks: u64,
    /// `Credit` frames the collector staged.
    pub credits: u64,
    /// Collector rounds that could not flush their control bytes.
    pub backpressure: u64,
    /// Duplicate frames the collector dropped.
    pub dup_drops: u64,
    /// Queries the server answered.
    pub requests: u64,
    /// Server engine rebuilds.
    pub rebuilds: u64,
    /// Server link bytes, both directions.
    pub server_bytes: u64,
    /// Client re-sends after a lost link or a lapsed deadline.
    pub retransmits: u64,
    /// Client timeouts.
    pub timeouts: u64,
    /// Refreshes answered through the cache-aware submit.
    pub cached_asks: u64,
    /// Of those, answered from the cache.
    pub cache_hits: u64,
}

/// Everything a run measures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Rounds completed.
    pub rounds: usize,
    /// Measured time (ingest and read phases), all rounds.
    pub measured: Duration,
    /// Set-up seconds, one per round.
    pub setup_s: Vec<f64>,
    /// Ingest samples per second, one per round.
    pub ingest_rates: Vec<f64>,
    /// Completed remote queries per second, one per round.
    pub qps: Vec<f64>,
    /// Per-round rate of the workload's headline loop, split by whether
    /// the round was traced (for the tracing overhead).
    pub traced_rates: Vec<f64>,
    /// See [`traced_rates`](Self::traced_rates).
    pub untraced_rates: Vec<f64>,
    /// Samples pushed, all rounds.
    pub samples: u64,
    /// Bytes the collector moved, all rounds.
    pub wire_bytes: u64,
    /// Per-segment freshness, ms.
    pub freshness_ms: RoundTiming,
    /// Per-query latency, µs.
    pub query_us: RoundTiming,
    /// Operations attempted (pushes, queries, scrapes).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Oracle failures; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Scrape body sizes.
    pub scrape_bytes: Vec<f64>,
    /// How late each generator step started, ms.
    pub gen_lag_ms: RoundTiming,
    /// Filter-thread CPU seconds over the traced windows.
    pub filter_cpu_s: f64,
    /// Local-engine replay latency per query, µs (traced rounds).
    pub local_us: Vec<f64>,
    /// Counters from the traced rounds.
    pub traced: Counts,
}

impl Tally {
    fn problem(&mut self, what: String) {
        if self.problems.len() < 16 {
            self.problems.push(what);
        }
    }
}

/// The inputs every round shares.
pub struct Ctx<'a> {
    /// The workload shape.
    pub spec: &'a Spec,
    /// Per-stream inputs and reference outputs.
    pub refs: &'a [StreamRef],
    /// Per-stream `(t, x)` views, for `push_batch`.
    pub pairs: Vec<Vec<(f64, &'a [f64])>>,
    /// The run seed (query mixes derive from it).
    pub seed: u64,
}

impl<'a> Ctx<'a> {
    /// Prepares the per-stream batch views.
    pub fn new(spec: &'a Spec, refs: &'a [StreamRef], seed: u64) -> Self {
        let pairs = refs.iter().map(|r| r.signal.iter().collect()).collect();
        Self { spec, refs, pairs, seed }
    }

    fn emitted(&self) -> u64 {
        self.refs.iter().map(|r| r.emitted.len() as u64).sum()
    }

    fn reconstructed(&self) -> u64 {
        self.refs.iter().map(|r| r.segments.len() as u64).sum()
    }
}

/// Which store segments are visible, polled the way a reader would:
/// compare epochs, and take a snapshot only when they moved.
struct Visibility {
    epochs: Box<[u64]>,
    seen: Vec<usize>,
    next_poll: Instant,
    interval: Duration,
}

impl Visibility {
    fn new(streams: usize, interval: Duration) -> Self {
        Self { epochs: Box::new([]), seen: vec![0; streams], next_poll: Instant::now(), interval }
    }

    /// Reports every segment that became visible since the last poll as
    /// `(stream, index, now)`. Unless `force`d, a poll waits out the
    /// interval since the previous one.
    fn poll(
        &mut self,
        store: &SegmentStore,
        force: bool,
        mut on_new: impl FnMut(usize, usize, Instant),
    ) {
        let now = Instant::now();
        if !force && now < self.next_poll {
            return;
        }
        if *store.epochs() != *self.epochs {
            let snap = store.snapshot();
            for (id, view) in &snap.streams {
                let s = id.0 as usize;
                for k in self.seen[s]..view.len() {
                    on_new(s, k, now);
                }
                self.seen[s] = view.len();
            }
            self.epochs = snap.epochs;
        }
        self.next_poll = now + self.interval;
    }
}

/// Times scrapes on a fixed interval.
struct Scrapes {
    next: Instant,
}

impl Scrapes {
    fn new() -> Self {
        Self { next: Instant::now() + SCRAPE_INTERVAL }
    }

    fn maybe<T: Transport, Q: Transport>(
        &mut self,
        p: &mut Pipeline<T, Q>,
        led: &mut Ledger,
        tally: &mut Tally,
    ) {
        let now = Instant::now();
        if now < self.next {
            return;
        }
        self.next = now + SCRAPE_INTERVAL;
        tally.attempted += 1;
        match p.scrape(led) {
            Ok(bytes) => tally.scrape_bytes.push(bytes as f64),
            Err(e) => {
                tally.failed += 1;
                tally.problem(format!("scrape: {e}"));
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One closed-loop round (`edge_compress`, `wire_fanin`).
pub fn closed_round<T: Transport, Q: Transport>(
    cx: &Ctx,
    led: &mut Ledger,
    tally: &mut Tally,
    traced: bool,
) {
    let spec = cx.spec;
    let (streams, n) = (spec.streams, spec.samples);
    led.set_tracing(traced);
    let t0 = Instant::now();
    let mut p = Pipeline::<T, Q>::build(spec).expect("pipeline set-up");
    tally.setup_s.push(t0.elapsed().as_secs_f64());

    let cpu0 = threads_cpu_seconds(SHARD_THREAD_PREFIX);
    let mut vis = Visibility::new(streams, CLOSED_POLL_INTERVAL);
    let mut scrapes = Scrapes::new();
    led.open_window();
    let start = Instant::now();

    // Due times: one per generator step (a batch or a tick).
    let chunk = spec.chunk;
    let mut due: Vec<Instant> = Vec::new();
    let mut fin_at: Option<Instant> = None;
    let step_of = |s: usize, i: usize| if chunk > 1 { (i / chunk) * streams + s } else { i };
    let mut freshness = Vec::new();
    let mut lags = Vec::new();
    macro_rules! poll {
        ($force:expr) => {{
            let (due, fin_at, refs) = (&due, fin_at, cx.refs);
            led.time(Layer::Poll, || {
                vis.poll(p.store(), $force, |s, k, now| {
                    let i = refs[s].emit_at[k];
                    let at = if i < n { Some(due[step_of(s, i)]) } else { fin_at };
                    if let Some(at) = at {
                        freshness.push(ms(now.saturating_duration_since(at)));
                    }
                })
            })
        }};
    }

    let mut last_end = start;
    let mut pushes = 0u64;
    let mut refused = 0u64;
    if chunk > 1 {
        for lo in (0..n).step_by(chunk) {
            let hi = (lo + chunk).min(n);
            for s in 0..streams {
                let at = Instant::now();
                lags.push(ms(at - last_end));
                due.push(at);
                pushes += 1;
                if !p.push_batch(led, s, &cx.pairs[s][lo..hi]) {
                    refused += 1;
                }
                last_end = Instant::now();
                p.wire_round(led, last_end);
                poll!(false);
                scrapes.maybe(&mut p, led, tally);
            }
        }
    } else {
        for i in 0..n {
            let at = Instant::now();
            lags.push(ms(at - last_end));
            due.push(at);
            for (s, r) in cx.refs.iter().enumerate() {
                let (t, x) = r.signal.sample(i);
                pushes += 1;
                if !p.push(led, s, t, x) {
                    refused += 1;
                }
            }
            last_end = Instant::now();
            p.wire_round(led, last_end);
            poll!(false);
            scrapes.maybe(&mut p, led, tally);
        }
    }
    fin_at = Some(Instant::now());
    pushes += streams as u64;
    refused += p.finish_streams(led);

    // Drain: every emitted segment onto the wire, Fin, and into the store.
    let (emitted, expected) = (cx.emitted(), cx.reconstructed());
    let mut finned = false;
    loop {
        let now = Instant::now();
        let moved = p.wire_round(led, now);
        if !finned && p.forwarded() == emitted {
            p.fin_all(led);
            finned = true;
        }
        if finned && led.time(Layer::Poll, || p.store().total_segments()) == expected {
            break;
        }
        poll!(false);
        scrapes.maybe(&mut p, led, tally);
        if !moved {
            led.time(Layer::Idle, || std::thread::sleep(IDLE_BACKOFF));
        }
        if now - start > PHASE_DEADLINE {
            tally.problem(format!("ingest did not complete within {PHASE_DEADLINE:?}"));
            break;
        }
    }
    poll!(true);
    let ingest_s = start.elapsed().as_secs_f64();
    let samples = (n * streams) as u64;
    tally.ingest_rates.push(samples as f64 / ingest_s);
    tally.freshness_ms.close_round(&mut freshness);
    tally.gen_lag_ms.close_round(&mut lags);
    tally.attempted += pushes;
    tally.failed += refused;

    // Reads against the quiescent store.
    let qstart = Instant::now();
    let visible: Vec<usize> = cx.refs.iter().map(|r| r.segments.len()).collect();
    let mut load = QueryLoad::new(cx.seed ^ splitmix64(&mut (tally.rounds as u64)), spec.eps);
    while load.completed < QUERIES_PER_ROUND {
        let now = Instant::now();
        if load.attempted < QUERIES_PER_ROUND {
            load.fill(p.client(), led, now, cx.refs, &visible);
        }
        p.query_round(led, now);
        load.absorb(p.client(), led, Instant::now(), cx.refs);
        if now - qstart > PHASE_DEADLINE {
            tally.problem("queries did not complete".into());
            break;
        }
    }
    let qps = load.completed as f64 / qstart.elapsed().as_secs_f64();
    led.close_window();
    tally.measured += start.elapsed();
    let cpu = threads_cpu_seconds(SHARD_THREAD_PREFIX) - cpu0;

    tally.qps.push(qps);
    let rate = samples as f64 / ingest_s;
    if traced {
        tally.traced_rates.push(rate)
    } else {
        tally.untraced_rates.push(rate)
    }
    settle(cx, p, led, tally, load, traced, samples, cpu);
}

/// One open-loop round (`query_mixed`).
pub fn open_round<T: Transport, Q: Transport>(
    cx: &Ctx,
    led: &mut Ledger,
    tally: &mut Tally,
    traced: bool,
) {
    let spec = cx.spec;
    let (streams, n, history) = (spec.streams, spec.samples, spec.history);
    led.set_tracing(traced);

    // Set-up: build, then load every stream's history through the
    // pipeline until the store shows all of it.
    let t0 = Instant::now();
    let mut p = Pipeline::<T, Q>::build(spec).expect("pipeline set-up");
    let mut untimed = Ledger::default();
    for lo in (0..history).step_by(spec.chunk) {
        let hi = (lo + spec.chunk).min(history);
        for s in 0..streams {
            if !p.push_batch(&mut untimed, s, &cx.pairs[s][lo..hi]) {
                tally.problem("history push refused".into());
            }
            p.wire_round(&mut untimed, Instant::now());
        }
    }
    let loaded: u64 =
        cx.refs.iter().map(|r| r.emit_at.partition_point(|&i| i < history) as u64).sum();
    while p.store().total_segments() < loaded {
        p.wire_round(&mut untimed, Instant::now());
        if t0.elapsed() > PHASE_DEADLINE {
            tally.problem("history load did not complete".into());
            break;
        }
    }
    let mut vis = Visibility::new(streams, Duration::ZERO);
    vis.poll(p.store(), true, |_, _, _| {});
    tally.setup_s.push(t0.elapsed().as_secs_f64());

    // Live: one sample per stream per tick on a fixed schedule, reads
    // in a closed loop beside it.
    let cpu0 = threads_cpu_seconds(SHARD_THREAD_PREFIX);
    let mut scrapes = Scrapes::new();
    let mut load = QueryLoad::new(cx.seed ^ splitmix64(&mut (tally.rounds as u64)), spec.eps);
    let (mut freshness, mut lags) = (Vec::new(), Vec::new());
    let live = n - history;
    let period = Duration::from_secs_f64(1.0 / spec.tick_hz);
    let live_visible: u64 =
        cx.refs.iter().map(|r| r.emit_at.partition_point(|&i| i < n) as u64).sum();
    led.open_window();
    let live0 = Instant::now();
    let due = |i: usize| live0 + period * (i - history) as u32;
    let (mut next, mut pushes, mut refused) = (history, 0u64, 0u64);
    // Window cuts: (when, freshness samples, query samples, completions).
    let mut cuts: Vec<(Instant, usize, usize, u64)> = Vec::new();
    macro_rules! poll {
        ($force:expr) => {{
            let refs = cx.refs;
            led.time(Layer::Poll, || {
                vis.poll(p.store(), $force, |s, k, now| {
                    let i = refs[s].emit_at[k];
                    if (history..n).contains(&i) {
                        freshness.push(ms(now.saturating_duration_since(due(i))));
                    }
                })
            })
        }};
    }
    loop {
        let now = Instant::now();
        if next >= history + WINDOW_TICKS * (cuts.len() + 1) && next < n {
            cuts.push((now, freshness.len(), load.latencies_us.len(), load.completed));
        }
        while next < n && due(next) <= now {
            lags.push(ms(now - due(next)));
            for (s, r) in cx.refs.iter().enumerate() {
                let (t, x) = r.signal.sample(next);
                pushes += 1;
                if !p.push(led, s, t, x) {
                    refused += 1;
                }
            }
            next += 1;
        }
        p.wire_round(led, Instant::now());
        poll!(false);
        if next == n && led.time(Layer::Poll, || p.store().total_segments()) >= live_visible {
            break;
        }
        let now = Instant::now();
        load.fill(p.client(), led, now, cx.refs, &vis.seen);
        p.query_round(led, now);
        load.absorb(p.client(), led, Instant::now(), cx.refs);
        scrapes.maybe(&mut p, led, tally);
        if now - live0 > period * live as u32 + PHASE_DEADLINE {
            tally.problem("live phase did not complete".into());
            break;
        }
    }
    poll!(true);
    let live_s = live0.elapsed().as_secs_f64();
    // Let the requests in flight land, then close the window.
    while load.in_flight() > 0 && live0.elapsed().as_secs_f64() < live_s + 5.0 {
        let now = Instant::now();
        p.query_round(led, now);
        load.absorb(p.client(), led, Instant::now(), cx.refs);
    }
    led.close_window();
    let end = Instant::now();
    let cpu = threads_cpu_seconds(SHARD_THREAD_PREFIX) - cpu0;
    let fresh_cuts: Vec<usize> = cuts.iter().map(|c| c.1).collect();
    let query_cuts: Vec<usize> = cuts.iter().map(|c| c.2).collect();
    tally.freshness_ms.close_windows(&mut freshness, &fresh_cuts);
    tally.query_us.close_windows(&mut load.latencies_us, &query_cuts);
    tally.gen_lag_ms.close_round(&mut lags);
    tally.attempted += pushes;
    tally.failed += refused;
    tally.ingest_rates.push((live * streams) as f64 / live_s);
    let mut from = (live0, 0);
    for &(at, _, _, done) in cuts.iter().chain(std::iter::once(&(end, 0, 0, load.completed))) {
        let qps = (done - from.1) as f64 / (at - from.0).as_secs_f64();
        tally.qps.push(qps);
        if traced {
            tally.traced_rates.push(qps)
        } else {
            tally.untraced_rates.push(qps)
        }
        from = (at, done);
    }

    // Quiesce: end the streams and wait for the store to hold it all.
    let mut untimed = Ledger::default();
    tally.attempted += streams as u64;
    tally.failed += p.finish_streams(&mut untimed);
    let (emitted, expected) = (cx.emitted(), cx.reconstructed());
    let mut finned = false;
    let q0 = Instant::now();
    while p.store().total_segments() < expected {
        p.wire_round(&mut untimed, Instant::now());
        if !finned && p.forwarded() == emitted {
            p.fin_all(&mut untimed);
            finned = true;
        }
        if q0.elapsed() > PHASE_DEADLINE {
            tally.problem("quiesce did not complete".into());
            break;
        }
    }
    settle(cx, p, led, tally, load, traced, (n * streams) as u64, cpu);
}

/// After a round's measured phase: fold the read load into the tally,
/// run the quiescent oracles, tear the pipeline down, and check the
/// engine report and the store against the reference.
#[allow(clippy::too_many_arguments)]
fn settle<T: Transport, Q: Transport>(
    cx: &Ctx,
    mut p: Pipeline<T, Q>,
    led: &mut Ledger,
    tally: &mut Tally,
    mut load: QueryLoad,
    traced: bool,
    samples: u64,
    filter_cpu_s: f64,
) {
    tally.rounds += 1;
    tally.attempted += load.attempted;
    tally.failed += load.failed;
    tally.query_us.close_round(&mut load.latencies_us);
    for f in &load.faults {
        tally.problem(format!("query: {f}"));
    }

    // Remote answers to a fixed query set ≡ the local engine, byte for byte.
    led.set_tracing(false);
    let fixed = fixed_set(cx.refs, cx.spec.eps);
    let ids: Vec<u64> =
        fixed.iter().map(|q| p.client().submit(q.clone(), Instant::now())).collect();
    let mut answers = std::collections::BTreeMap::new();
    let t0 = Instant::now();
    while answers.len() < ids.len() && t0.elapsed() < PHASE_DEADLINE {
        p.query_round(led, Instant::now());
        answers.extend(p.client().take_completed());
    }
    let engine = StoreQueryEngine::new(p.store().snapshot());
    for (q, id) in fixed.iter().zip(&ids) {
        let local = q.run(&engine).encode();
        match answers.get(id) {
            Some(Ok(pla_query::Response::Result(r))) if r.encode() == local => {}
            other => {
                tally.problem(format!("{q:?}: remote {other:?} differs from the local engine"))
            }
        }
    }
    if traced {
        tally.local_us.extend(load.asked.iter().map(|q: &Query| {
            let t = Instant::now();
            std::hint::black_box(q.run(std::hint::black_box(&engine)));
            t.elapsed().as_secs_f64() * 1e6
        }));
    }
    drop(engine);

    let (store, closing) = p.close();
    tally.samples += samples;
    tally.wire_bytes += closing.collector.conns.iter().map(|c| c.bytes_moved).sum::<u64>();
    verify(cx, &store, &closing, samples, tally);
    if traced {
        tally.filter_cpu_s += filter_cpu_s;
        let c = &mut tally.traced;
        c.samples += samples;
        c.segments += cx.emitted();
        c.forwarded += closing.forwarded;
        c.blocked_rounds += closing.blocked_rounds;
        c.dials += closing.session.dials;
        c.frames += closing.collector.frames;
        c.dup_drops += closing.collector.dup_drops;
        c.backpressure += closing.collector.backpressure;
        for conn in &closing.collector.conns {
            c.acks += conn.receiver.acks_staged;
            c.credits += conn.receiver.credits_staged;
        }
        c.requests += closing.server.requests;
        c.rebuilds += closing.server.rebuilds;
        c.server_bytes += closing.server.bytes_in + closing.server.bytes_out;
        c.retransmits += closing.client.retransmits;
        c.timeouts += closing.client.timeouts;
        c.cached_asks += load.cached_asks;
        c.cache_hits += load.cache_hits;
    }
}

fn same_bits(a: &Segment, b: &Segment) -> bool {
    let bits = |xs: &[f64], ys: &[f64]| {
        xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    a.t_start.to_bits() == b.t_start.to_bits()
        && a.t_end.to_bits() == b.t_end.to_bits()
        && bits(&a.x_start, &b.x_start)
        && bits(&a.x_end, &b.x_end)
        && a.connected == b.connected
        && a.n_points == b.n_points
        && a.new_recordings == b.new_recordings
}

fn same_log<'a>(got: impl Iterator<Item = &'a Segment>, len: usize, want: &[Segment]) -> bool {
    len == want.len() && got.zip(want).all(|(a, b)| same_bits(a, b))
}

/// The end-of-round oracles: the engine report accounts for every
/// sample and matches the standalone filter runs, and the store is
/// bit-identical to the dedicated-link reconstructions.
fn verify(cx: &Ctx, store: &SegmentStore, closing: &Closing, samples: u64, tally: &mut Tally) {
    let report = &closing.report;
    if report.total_samples() != samples {
        tally
            .problem(format!("report counts {} samples, pushed {samples}", report.total_samples()));
    }
    if report.quarantined() > 0 {
        tally.problem(format!("{} streams quarantined", report.quarantined()));
    }
    if closing.forwarded != cx.emitted() {
        tally.problem(format!(
            "uplink forwarded {} of {} segments",
            closing.forwarded,
            cx.emitted()
        ));
    }
    let snap = store.snapshot();
    for (s, r) in cx.refs.iter().enumerate() {
        let id = StreamId(s as u64);
        if !report
            .streams
            .get(&id)
            .is_some_and(|o| same_log(o.segments.iter(), o.segments.len(), &r.emitted))
        {
            tally.problem(format!("stream {s}: engine output differs from the standalone filter"));
        }
        let Some(view) = snap.streams.get(&id) else {
            tally.problem(format!("stream {s}: missing from the store"));
            continue;
        };
        if !same_log(view.iter(), view.len(), &r.segments) {
            tally.problem(format!("stream {s}: store log differs from the reference"));
        }
    }
    if snap.streams.len() != cx.refs.len() || snap.total_segments != cx.reconstructed() {
        tally.problem(format!(
            "store holds {} streams / {} segments, expected {} / {}",
            snap.streams.len(),
            snap.total_segments,
            cx.refs.len(),
            cx.reconstructed()
        ));
    }
}
