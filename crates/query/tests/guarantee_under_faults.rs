//! The paper's L∞ guarantee, checked where a user sees it: through
//! every layer of the system at once, under link faults.
//!
//! Raw samples enter an `IngestEngine` (swing and slide filters, a
//! different εᵢ per dimension). The engine's segment tap feeds an
//! `EngineUplink` into a `SessionSender` whose links come from a
//! `FaultRedial`: seeded storms of severs, truncations and duplicate
//! deliveries, plus one scripted silent wedge that only the liveness
//! deadline can detect. A `Collector` rebuilds the streams into a
//! `SegmentStore`, and a `QueryServer` answers a `QueryClient` over a
//! `MemoryLink`. For every raw sample and every dimension:
//!
//! * the remote `Point` answer lies within εᵢ·(1+1e-6) of the raw
//!   value (the slack the pipeline benchmark and the filter property
//!   tests use), and
//! * the remote `PointBounded` interval, asked with that same
//!   tolerance, contains the raw value.
//!
//! The per-filter property tests and the per-hop byte-identity
//! loopbacks each check one piece of this; here the pieces compose.
//! The regression seeds at the bottom pin a few fault structures.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use pla_core::filters::{FilterKind, FilterSpec};
use pla_ingest::{IngestConfig, IngestEngine, SegmentStore, StreamId};
use pla_net::listen::MemoryAcceptor;
use pla_net::testutil::{FaultPlan, FaultRedial};
use pla_net::uplink::{EngineUplink, UplinkStatus};
use pla_net::{Collector, ConnId, MemoryRedial, NetConfig, SessionConfig, SessionSender};
use pla_query::{Query, QueryClient, QueryClientConfig, QueryResult, QueryServer, Response};
use pla_transport::wire::FixedCodec;

/// Samples per stream.
const SAMPLES: usize = 200;
/// Pipe capacity of the faulted ingest links: small enough that frames
/// tear across writes.
const LINK_CAPACITY: usize = 211;
/// Frame-index horizon of the seeded storms.
const FAULT_HORIZON: u64 = 16;
/// Synthetic-clock step per pump round.
const TICK: Duration = Duration::from_millis(5);
/// Relative slack on ε.
const EPS_SLACK: f64 = 1.0 + 1e-6;
/// Queries submitted per client drive.
const QUERY_CHUNK: usize = 512;

/// One generated workload: `streams` streams of `dims` dimensions.
#[derive(Debug, Clone)]
struct Case {
    dims: usize,
    streams: u64,
    signal_seed: u64,
    /// One seed per ingest link: two seeded storms, then clean links.
    fault_seed: u64,
}

/// splitmix64 over `state`, returning the next value.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in [0, 1).
fn unit(state: &mut u64) -> f64 {
    (next(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// εᵢ of `stream`: a different tolerance per dimension, scaled per
/// stream.
fn eps_for(stream: u64, dims: usize) -> Vec<f64> {
    let scale = 1.0 + (stream % 4) as f64 * 0.5;
    [0.5, 0.125, 2.0][..dims].iter().map(|e| e * scale).collect()
}

/// Swing and slide alternate across streams.
fn spec_for(stream: u64, dims: usize) -> FilterSpec {
    let kind = if stream.is_multiple_of(2) { FilterKind::Swing } else { FilterKind::Slide };
    FilterSpec::new(kind, &eps_for(stream, dims))
}

/// `(t, x)` samples of one stream: irregular increasing timestamps and
/// an independent random walk per dimension, each with its own step
/// scale (so every εᵢ is exercised at a different relative load).
fn signal_for(case: &Case, stream: u64) -> Vec<(f64, Vec<f64>)> {
    let mut rng = case.signal_seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
    let steps = [4.0, 1.0, 16.0];
    let mut t = 0.0;
    let mut x = vec![0.0; case.dims];
    (0..SAMPLES)
        .map(|_| {
            t += 0.25 + unit(&mut rng);
            for (d, v) in x.iter_mut().enumerate() {
                *v += (unit(&mut rng) - 0.5) * steps[d];
            }
            (t, x.clone())
        })
        .collect()
}

fn net_config() -> NetConfig {
    NetConfig { window: 1024, max_frame: 1 << 20 }
}

/// Session timing for the synthetic clock: redials land within a few
/// rounds, and a wedge is detected in tens of rounds.
fn session_config() -> SessionConfig {
    SessionConfig {
        heartbeat_interval: Duration::from_millis(50),
        liveness_timeout: Duration::from_millis(250),
        handshake_timeout: Duration::from_millis(100),
        session_ttl: Duration::from_secs(600),
        redial_initial: Duration::from_millis(5),
        redial_cap: Duration::from_millis(40),
        ..SessionConfig::default()
    }
}

/// Runs the whole ingest path under faults and returns the store the
/// collector filled.
fn ingest(case: &Case, signals: &[Vec<(f64, Vec<f64>)>]) -> Arc<SegmentStore> {
    let (engine, tap) =
        IngestEngine::with_segment_tap(IngestConfig { shards: 2, queue_depth: 128 });
    let handle = engine.handle();
    for (s, signal) in signals.iter().enumerate() {
        let id = StreamId(s as u64);
        handle.register(id, spec_for(s as u64, case.dims)).expect("register");
        let batch: Vec<(f64, &[f64])> = signal.iter().map(|(t, x)| (*t, &x[..])).collect();
        handle.push_batch(id, &batch).expect("feed");
    }
    let report = engine.finish();
    assert_eq!(report.quarantined(), 0);
    let expected = report.total_segments() as u64;

    let (cfg, sess_cfg) = (net_config(), session_config());
    let store = Arc::new(SegmentStore::new());
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut collector =
        Collector::with_sessions(FixedCodec, case.dims, cfg, sess_cfg, acceptor, store.clone());
    let plans = vec![
        FaultPlan::seeded(case.fault_seed, FAULT_HORIZON),
        FaultPlan::seeded(case.fault_seed ^ 0xA5A5_A5A5, FAULT_HORIZON),
    ];
    let redial = FaultRedial::new(connector, LINK_CAPACITY, plans);
    let epoch = Instant::now();
    let mut sess = SessionSender::new(FixedCodec, case.dims, cfg, sess_cfg, redial, epoch);
    let mut uplink = EngineUplink::new(tap);

    let (mut now, mut finned, mut wedged) = (epoch, false, false);
    for round in 0.. {
        assert!(round < 200_000, "the faulted ingest path did not converge");
        if uplink.pump(sess.mux_mut()).expect("uplink") == UplinkStatus::Drained && !finned {
            sess.mux_mut().finish_all();
            finned = true;
        }
        if let Some(failure) = sess.failure() {
            panic!("faults must never fail the session terminally: {failure}");
        }
        sess.pump_at(now);
        collector.pump_at(now).expect("no fault may violate the protocol");
        // One scripted silent wedge, once a third of the traffic landed.
        let published = store.watermark(1).map_or(0, |w| w.segments);
        if !wedged && published * 3 >= expected {
            sess.redial().wedge_active();
            wedged = true;
        }
        if finned && sess.mux().is_idle() && collector.conn_complete(ConnId(1)) {
            break;
        }
        now += TICK;
    }
    assert!(wedged, "the scripted wedge fired");
    assert_eq!(store.total_segments(), expected, "every emitted segment landed once");
    store
}

/// Asks `queries` over a fresh query connection, in chunks, and returns
/// every answer in order.
fn ask_remote(store: &Arc<SegmentStore>, queries: &[Query]) -> Vec<QueryResult> {
    let acceptor = MemoryAcceptor::new();
    let redial = MemoryRedial::new(acceptor.connector(), 1 << 16);
    let mut server = QueryServer::new(acceptor, store.clone(), NetConfig::default());
    let mut client = QueryClient::new(redial, QueryClientConfig::default());
    let mut now = Instant::now();
    let mut answers = Vec::with_capacity(queries.len());
    for chunk in queries.chunks(QUERY_CHUNK) {
        let ids: Vec<u64> = chunk.iter().map(|q| client.submit(q.clone(), now)).collect();
        let mut done = common::drive_to_completion(&mut client, &mut server, now, &ids, 10_000);
        now += Duration::from_secs(1);
        for id in ids {
            match done.remove(&id).expect("completed") {
                Ok(Response::Result(result)) => answers.push(result),
                other => panic!("query {id} failed on the wire: {other:?}"),
            }
        }
    }
    answers
}

/// Runs one case end to end and checks every sample through both query
/// kinds.
fn check_guarantee(case: &Case) {
    let signals: Vec<_> = (0..case.streams).map(|s| signal_for(case, s)).collect();
    let store = ingest(case, &signals);

    let mut queries = Vec::new();
    let mut raws = Vec::new();
    for (s, signal) in signals.iter().enumerate() {
        let eps = eps_for(s as u64, case.dims);
        for (t, x) in signal {
            for (dim, (&raw, &e)) in x.iter().zip(&eps).enumerate() {
                let (stream, t, dim) = (s as u64, *t, dim as u32);
                queries.push(Query::Point { stream, t, dim });
                queries.push(Query::PointBounded { stream, t, dim, eps: e * EPS_SLACK });
                raws.push((raw, e * EPS_SLACK));
            }
        }
    }
    let answers = ask_remote(&store, &queries);
    for ((pair, &(raw, tol)), q) in answers.chunks(2).zip(&raws).zip(queries.chunks(2)) {
        match &pair[0] {
            QueryResult::Value(v) => assert!(
                (v - raw).abs() <= tol,
                "{:?}: remote point {v} is {} from raw {raw}, over ε·(1+1e-6) = {tol}",
                q[0],
                (v - raw).abs()
            ),
            other => panic!("{:?}: expected a value, got {other:?}", q[0]),
        }
        match &pair[1] {
            QueryResult::Bounded(b) => assert!(
                b.lo <= raw && raw <= b.hi,
                "{:?}: raw {raw} outside the bounded answer [{}, {}]",
                q[1],
                b.lo,
                b.hi
            ),
            other => panic!("{:?}: expected bounds, got {other:?}", q[1]),
        }
    }
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (prop_oneof![Just(1usize), Just(3usize)], 8u64..=16, any::<u64>(), 1u64..1_000_000).prop_map(
        |(dims, streams, signal_seed, fault_seed)| Case { dims, streams, signal_seed, fault_seed },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Generated workloads under seeded storms and a wedge: every raw
    /// sample is within its εᵢ of the remote answer.
    #[test]
    fn every_sample_is_within_eps_of_the_remote_answer(case in case_strategy()) {
        check_guarantee(&case);
    }
}

/// Regression corpus: fixed fault structures at both dimensionalities.
#[test]
fn regression_seeds_hold_the_guarantee() {
    for case in [
        Case { dims: 1, streams: 8, signal_seed: 1, fault_seed: 42 },
        Case { dims: 3, streams: 16, signal_seed: 7, fault_seed: 271_828 },
        Case { dims: 3, streams: 11, signal_seed: 0xDEAD_BEEF, fault_seed: 999_983 },
        Case { dims: 1, streams: 16, signal_seed: 31_337, fault_seed: 7 },
    ] {
        check_guarantee(&case);
    }
}
