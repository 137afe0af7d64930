//! The remote read load: a closed loop keeping a fixed number of
//! requests in flight, a seeded query mix over the visible history, and
//! the oracle each answer is checked against.
//!
//! Mix: `Point` at raw sample timestamps (within ε·(1+1e-6) of the raw
//! value), `PointBounded` (the raw value inside the bounds), `Range`
//! (PLA extrema within ε of the raw extrema), `CountAbove` (the true
//! count inside the bounded count), and a re-ask of an earlier query
//! through `probe_epochs` + `submit_cached` — the dashboard refresh.

use std::collections::BTreeMap;
use std::time::Instant;

use pla_net::Redial;
use pla_query::{Cached, Outcome, Query, QueryClient, QueryResult, Response};

use crate::ledger::{Layer, Ledger};
use crate::workload::{splitmix64, StreamRef};

/// Requests kept in flight by the closed loop.
pub const IN_FLIGHT: usize = 8;

/// Relative slack on ε, the tolerance the pipeline property tests use.
const EPS_SLACK: f64 = 1.0 + 1e-6;

/// Earlier queries kept for refreshes.
const RECENT: usize = 64;

/// Queries remembered for the local-engine replay.
const REPLAY_CAP: usize = 20_000;

/// What an answer must satisfy.
#[derive(Debug, Clone)]
enum Check {
    /// Within ε of sample `i`'s value.
    Point { s: usize, i: usize, dim: usize },
    /// Bounds around the value contain sample `i`'s value.
    Bounded { s: usize, i: usize, dim: usize },
    /// Extrema over samples `i..=j` within ε of the raw extrema.
    Range { s: usize, i: usize, j: usize, dim: usize },
    /// The bounded count contains the true count.
    Count { truth: usize },
}

struct Op {
    started: Instant,
    check: Check,
    /// A refresh waiting for its epochs probe: the query to re-ask.
    refresh: Option<Query>,
}

/// The closed-loop read load and its tallies.
pub struct QueryLoad {
    rng: u64,
    eps: f64,
    ops: BTreeMap<u64, Op>,
    recent: Vec<(Query, Check)>,
    /// Completed-request latencies, µs.
    pub latencies_us: Vec<f64>,
    /// Operations started.
    pub attempted: u64,
    /// Operations that ended in an error or failed their check.
    pub failed: u64,
    /// Operations completed (successfully or not).
    pub completed: u64,
    /// Refreshes answered through `submit_cached`.
    pub cached_asks: u64,
    /// Refreshes the epoch-validated cache answered locally.
    pub cache_hits: u64,
    /// Queries asked, for the local-engine replay.
    pub asked: Vec<Query>,
    /// The first failure descriptions.
    pub faults: Vec<String>,
}

impl QueryLoad {
    /// A load whose mix is drawn from `seed`; `eps` is every stream's ε.
    pub fn new(seed: u64, eps: f64) -> Self {
        Self {
            rng: seed,
            eps,
            ops: BTreeMap::new(),
            recent: Vec::new(),
            latencies_us: Vec::new(),
            attempted: 0,
            failed: 0,
            completed: 0,
            cached_asks: 0,
            cache_hits: 0,
            asked: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// Requests in flight.
    pub fn in_flight(&self) -> usize {
        self.ops.len()
    }

    fn roll(&mut self, n: usize) -> usize {
        (splitmix64(&mut self.rng) % n.max(1) as u64) as usize
    }

    /// Tops the loop up to [`IN_FLIGHT`] requests. `visible[s]` is how
    /// many of stream `s`'s reference segments the store holds.
    pub fn fill(
        &mut self,
        client: &mut QueryClient<impl Redial>,
        led: &mut Ledger,
        now: Instant,
        refs: &[StreamRef],
        visible: &[usize],
    ) {
        while self.ops.len() < IN_FLIGHT {
            if !self.start(client, led, now, refs, visible) {
                return;
            }
        }
    }

    fn start(
        &mut self,
        client: &mut QueryClient<impl Redial>,
        led: &mut Ledger,
        now: Instant,
        refs: &[StreamRef],
        visible: &[usize],
    ) -> bool {
        let kind = self.roll(100);
        if kind >= 90 && !self.recent.is_empty() {
            let k = self.roll(self.recent.len());
            let (query, check) = self.recent[k].clone();
            let id = led.time(Layer::Client, || client.probe_epochs(now));
            self.ops.insert(id, Op { started: now, check, refresh: Some(query) });
            self.attempted += 1;
            return true;
        }
        // A stream with at least two visible samples.
        let Some(s) =
            (0..8).map(|_| self.roll(refs.len())).find(|&s| refs[s].covered(visible[s]) >= 2)
        else {
            return false;
        };
        let r = &refs[s];
        let n = r.covered(visible[s]);
        let times = r.signal.times();
        let i = self.roll(n);
        let dim = self.roll(r.signal.dims());
        let stream = s as u64;
        let (query, check) = match kind {
            0..=44 => {
                (Query::Point { stream, t: times[i], dim: dim as u32 }, Check::Point { s, i, dim })
            }
            45..=59 => (
                Query::PointBounded { stream, t: times[i], dim: dim as u32, eps: self.eps },
                Check::Bounded { s, i, dim },
            ),
            60..=74 => {
                let i = i.min(n - 2);
                let j = (i + 1 + self.roll(64)).min(n - 1);
                (
                    Query::Range { stream, a: times[i], b: times[j], dim: dim as u32 },
                    Check::Range { s, i, j, dim },
                )
            }
            _ => {
                let end = (i + 16).min(n);
                let pick = i + self.roll(end - i);
                let threshold = r.signal.value(pick, dim) + 0.37 * self.eps;
                let truth = (i..end).filter(|&k| r.signal.value(k, dim) > threshold).count();
                (
                    Query::CountAbove {
                        stream,
                        dim: dim as u32,
                        threshold,
                        eps: self.eps,
                        times: times[i..end].to_vec(),
                    },
                    Check::Count { truth },
                )
            }
        };
        if self.asked.len() < REPLAY_CAP {
            self.asked.push(query.clone());
        }
        if matches!(check, Check::Point { .. }) {
            if self.recent.len() < RECENT {
                self.recent.push((query.clone(), check.clone()));
            } else {
                let k = self.roll(RECENT);
                self.recent[k] = (query.clone(), check.clone());
            }
        }
        let id = led.time(Layer::Client, || client.submit(query, now));
        self.ops.insert(id, Op { started: now, check, refresh: None });
        self.attempted += 1;
        true
    }

    /// Takes every completed request off the client, checks it, and
    /// records its latency; answered refresh probes re-ask their query.
    pub fn absorb(
        &mut self,
        client: &mut QueryClient<impl Redial>,
        led: &mut Ledger,
        now: Instant,
        refs: &[StreamRef],
    ) {
        let done = led.time(Layer::Client, || client.take_completed());
        for (id, outcome) in done {
            let Some(op) = self.ops.remove(&id) else { continue };
            if let Some(query) = op.refresh {
                if let Err(e) = outcome {
                    self.finish(op.started, now, Err(format!("epochs probe: {e}")));
                    continue;
                }
                self.cached_asks += 1;
                match led.time(Layer::Client, || client.submit_cached(query, now)) {
                    Cached::Hit(result) => {
                        self.cache_hits += 1;
                        let verdict = self.verify(&op.check, &Ok(Response::Result(result)), refs);
                        self.finish(op.started, now, verdict);
                    }
                    Cached::Sent(next) => {
                        self.ops.insert(next, Op { refresh: None, ..op });
                    }
                }
                continue;
            }
            let verdict = self.verify(&op.check, &outcome, refs);
            self.finish(op.started, now, verdict);
        }
    }

    fn finish(&mut self, started: Instant, now: Instant, verdict: Result<(), String>) {
        self.completed += 1;
        match verdict {
            Ok(()) => self.latencies_us.push(now.duration_since(started).as_secs_f64() * 1e6),
            Err(e) => {
                self.failed += 1;
                if self.faults.len() < 8 {
                    self.faults.push(e);
                }
            }
        }
    }

    fn verify(&self, check: &Check, outcome: &Outcome, refs: &[StreamRef]) -> Result<(), String> {
        let result = match outcome {
            Ok(Response::Result(r)) => r,
            Ok(other) => return Err(format!("unexpected response {other:?}")),
            Err(e) => return Err(format!("client error: {e}")),
        };
        let tol = self.eps * EPS_SLACK;
        match (check, result) {
            (Check::Point { s, i, dim }, QueryResult::Value(v)) => {
                let raw = refs[*s].signal.value(*i, *dim);
                within(raw, *v, tol, "point")
            }
            (Check::Bounded { s, i, dim }, QueryResult::Bounded(b)) => {
                let raw = refs[*s].signal.value(*i, *dim);
                let slack = self.eps * (EPS_SLACK - 1.0);
                if b.lo - slack <= raw && raw <= b.hi + slack {
                    within(raw, b.value, tol, "bounded point")
                } else {
                    Err(format!("raw {raw} outside bounds [{}, {}]", b.lo, b.hi))
                }
            }
            (Check::Range { s, i, j, dim }, QueryResult::Range(agg)) => {
                let sig = &refs[*s].signal;
                let (lo, hi) = (*i..=*j)
                    .map(|k| sig.value(k, *dim))
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| (lo.min(v), hi.max(v)));
                if agg.max >= hi - tol && agg.min <= lo + tol {
                    Ok(())
                } else {
                    Err(format!("range [{}, {}] vs raw [{lo}, {hi}]", agg.min, agg.max))
                }
            }
            (Check::Count { truth }, QueryResult::Count(c)) => {
                if c.contains(*truth) {
                    Ok(())
                } else {
                    Err(format!("count {c:?} excludes true count {truth}"))
                }
            }
            (_, other) => Err(format!("unexpected answer {other:?}")),
        }
    }
}

fn within(raw: f64, value: f64, tol: f64, what: &str) -> Result<(), String> {
    if (value - raw).abs() <= tol {
        Ok(())
    } else {
        Err(format!("{what}: answer {value} vs raw {raw} exceeds ε"))
    }
}

/// The fixed query set whose remote answers must be byte-identical to a
/// local `StoreQueryEngine` once the pipeline is quiescent.
pub fn fixed_set(refs: &[StreamRef], eps: f64) -> Vec<Query> {
    let step = (refs.len() / 8).max(1);
    let mut out = vec![Query::Streams];
    for (s, r) in refs.iter().enumerate().step_by(step) {
        let stream = s as u64;
        let times = r.signal.times();
        let n = times.len();
        out.extend([
            Query::Span { stream },
            Query::Point { stream, t: times[n / 2], dim: 0 },
            Query::PointWithStats { stream, t: times[n / 3] + 0.25, dim: 0 },
            Query::PointBounded { stream, t: times[n - 1], dim: 0, eps },
            Query::Range { stream, a: times[0], b: times[n - 1], dim: 0 },
            Query::RangeBounded { stream, a: times[n / 4], b: times[n / 2], dim: 0, eps },
            Query::CountAbove {
                stream,
                dim: 0,
                threshold: r.signal.value(n / 2, 0),
                eps,
                times: times[..n.min(32)].to_vec(),
            },
        ]);
    }
    out
}
