//! Chaos property tests for the session layer: arbitrary seeded fault
//! schedules (severs, truncations, duplicate deliveries, read delays)
//! crossed with arbitrary pump interleavings over 8 connections × 16
//! streams must always converge the shared `SegmentStore` snapshot
//! byte-identical to a fault-free run — and never panic. Recovery is
//! entirely the session machine's: every dead link is redialed
//! automatically and rebound by token; there is no operator-style
//! re-attach anywhere.
//!
//! The regression tests at the bottom are the checked-in seed corpus:
//! fault structures that pin specific recovery paths (first-dial sever,
//! mid-stream truncate + duplicate, a storm on every connection at
//! once) so a future refactor cannot silently lose them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use pla_core::Segment;
use pla_ingest::{SegmentStore, StoreSnapshot};
use pla_net::listen::MemoryAcceptor;
use pla_net::testutil::{Fault, FaultPlan, FaultRedial};
use pla_net::{Collector, ConnId, NetConfig, SessionConfig, SessionSender};
use pla_transport::wire::FixedCodec;

const CONNS: usize = 8;
const STREAMS_PER_CONN: u64 = 16;
const LINK_CAPACITY: usize = 127;
/// Frame-index horizon for seeded plans: comfortably inside one
/// connection's traffic (Hello + per-stream data and fins).
const FAULT_HORIZON: u64 = 24;

fn net_config() -> NetConfig {
    NetConfig { window: 4096, max_frame: 1 << 20 }
}

/// Session timing tuned for the synthetic millisecond clock the runs
/// advance: redials land within a few turns, liveness lapses stay out
/// of the way of healthy links.
fn session_config() -> SessionConfig {
    SessionConfig {
        heartbeat_interval: Duration::from_millis(50),
        liveness_timeout: Duration::from_millis(250),
        handshake_timeout: Duration::from_millis(100),
        session_ttl: Duration::from_secs(600),
        redial_initial: Duration::from_millis(2),
        redial_cap: Duration::from_millis(16),
        ..SessionConfig::default()
    }
}

/// Per-stream segment logs: monotone times, arbitrary values.
fn logs_strategy() -> impl Strategy<Value = Vec<Vec<Segment>>> {
    let seg_count = 1usize..4;
    let values = prop::collection::vec(-50.0f64..50.0, 2 * 4);
    (prop::collection::vec(seg_count, CONNS * STREAMS_PER_CONN as usize), values).prop_map(
        |(counts, values)| {
            counts
                .iter()
                .enumerate()
                .map(|(s, &n)| {
                    (0..n)
                        .map(|i| {
                            let t = i as f64 * 10.0;
                            let v = values[(s + i) % values.len()];
                            Segment {
                                t_start: t,
                                x_start: [v].into(),
                                t_end: t + 5.0,
                                x_end: [v + 1.0].into(),
                                connected: false,
                                n_points: 2,
                                new_recordings: 2,
                            }
                        })
                        .collect()
                })
                .collect()
        },
    )
}

/// Turns one seed per connection into that connection's fault-plan
/// queue: seed 0 = healthy, anything else = two seeded storms (first
/// and second link) before the redial queue runs dry and goes clean —
/// so every schedule converges.
fn plans_from_seeds(seeds: &[u64]) -> Vec<Vec<FaultPlan>> {
    seeds
        .iter()
        .map(|&seed| {
            if seed == 0 {
                vec![FaultPlan::none()]
            } else {
                vec![
                    FaultPlan::seeded(seed, FAULT_HORIZON),
                    FaultPlan::seeded(seed ^ 0xA5A5_A5A5, FAULT_HORIZON),
                ]
            }
        })
        .collect()
}

/// Runs the full session-mode fan-in under a pump interleaving and
/// per-connection fault-plan queues, returning the store snapshot.
/// Every recovery in here is automatic: a faulted link dies, the
/// session machine backs off, redials, presents its token, and resumes
/// from the collector's resume point.
fn run_chaos(
    logs: &[Vec<Segment>],
    schedule: &[usize],
    plans: Vec<Vec<FaultPlan>>,
) -> StoreSnapshot {
    let cfg = net_config();
    let sess_cfg = session_config();
    let store = Arc::new(SegmentStore::new());
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut collector =
        Collector::with_sessions(FixedCodec, 1, cfg, sess_cfg, acceptor, store.clone());

    let epoch = Instant::now();
    let mut edges: Vec<SessionSender<FixedCodec, FaultRedial>> = plans
        .into_iter()
        .enumerate()
        .map(|(c, queue)| {
            let redial = FaultRedial::new(connector.clone(), LINK_CAPACITY, queue);
            let mut sess = SessionSender::new(FixedCodec, 1, cfg, sess_cfg, redial, epoch);
            for s in 0..STREAMS_PER_CONN {
                let stream = c as u64 * STREAMS_PER_CONN + s;
                for seg in &logs[stream as usize] {
                    sess.mux_mut().try_send_segment(stream, seg).expect("roomy window");
                }
                sess.mux_mut().finish_stream(stream).expect("fin");
            }
            sess
        })
        .collect();

    // Every edge dials (and stages its Hello) before the collector's
    // first round, so ConnId assignment follows edge order whatever the
    // schedule says — snapshots stay comparable across runs.
    for edge in &mut edges {
        edge.pump_at(epoch);
    }

    let mut now = epoch;
    let mut schedule = schedule.iter().cycle();
    let mut turn = 0usize;
    loop {
        now += Duration::from_millis(1);
        // Unlike the passive senders of `collector_proptests`, session
        // machines have deadlines — a starved edge misses its own
        // handshake timeout and redials as a stranger. So every edge is
        // guaranteed its round-robin pump each cycle, and the schedule
        // layers *extra* pumps on top: the noise is ordering and double
        // pumping, never starvation.
        let rr = turn % CONNS;
        let extra = *schedule.next().expect("cycled") % CONNS;
        let mut moved = edges[rr].pump_at(now);
        if extra != rr {
            moved += edges[extra].pump_at(now);
        }
        for c in [rr, extra] {
            assert!(
                edges[c].failure().is_none(),
                "the fault vocabulary must never terminally fail a session: {:?}",
                edges[c].failure()
            );
        }
        moved += collector.pump_at(now).expect("no fault schedule may violate the protocol");
        let _ = moved;
        let done = edges.iter().all(|e| e.mux().is_idle())
            && (1..=CONNS as u64).all(|id| collector.conn_complete(ConnId(id)));
        if done {
            break;
        }
        turn += 1;
        assert!(turn < 50_000, "chaos run failed to converge");
    }
    store.snapshot()
}

/// Snapshot convergence: per-stream logs byte-identical, and the
/// per-source accounting identical up to relabeling. `ConnId` is an
/// arrival-order label — under chaos, redial timing permutes which edge
/// gets which id, and that permutation is scheduling noise, not state.
fn assert_converged(got: &StoreSnapshot, reference: &StoreSnapshot) {
    assert_eq!(got.streams, reference.streams, "per-stream logs must be byte-identical");
    assert_eq!(got.total_segments, reference.total_segments);
    assert_eq!(got.sources.len(), reference.sources.len(), "chaos must not mint extra sources");
    let watermarks = |snap: &StoreSnapshot| {
        let mut w: Vec<(u64, u64)> =
            snap.sources.values().map(|w| (w.segments, w.covered_through.to_bits())).collect();
        w.sort_unstable();
        w
    };
    assert_eq!(watermarks(got), watermarks(reference), "source watermarks must match as a set");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pure interleaving noise, no faults: any pump schedule produces
    /// the exact snapshot of canonical round-robin.
    #[test]
    fn interleavings_alone_do_not_change_the_snapshot(
        logs in logs_strategy(),
        schedule in prop::collection::vec(0usize..CONNS, 1..64),
    ) {
        let reference = run_chaos(&logs, &[0, 1, 2, 3, 4, 5, 6, 7], plans_from_seeds(&[0; CONNS]));
        let got = run_chaos(&logs, &schedule, plans_from_seeds(&[0; CONNS]));
        assert_converged(&got, &reference);
    }

    /// Interleaving noise *crossed with* seeded fault storms on every
    /// connection: severs, truncations, duplicate deliveries, and read
    /// delays at arbitrary frame indices. The snapshot must still match
    /// the fault-free run exactly — replay trimmed by the resume point,
    /// duplicates dropped by sequence dedup, truncated links redialed.
    #[test]
    fn fault_storms_converge_to_the_fault_free_snapshot(
        logs in logs_strategy(),
        schedule in prop::collection::vec(0usize..CONNS, 1..64),
        seeds in prop::collection::vec(0u64..1_000_000, CONNS),
    ) {
        let reference = run_chaos(&logs, &[0, 1, 2, 3, 4, 5, 6, 7], plans_from_seeds(&[0; CONNS]));
        let got = run_chaos(&logs, &schedule, plans_from_seeds(&seeds));
        assert_converged(&got, &reference);
    }
}

/// A small fixed workload for the regression corpus.
fn corpus_logs() -> Vec<Vec<Segment>> {
    (0..CONNS * STREAMS_PER_CONN as usize)
        .map(|s| {
            (0..1 + s % 3)
                .map(|i| {
                    let t = i as f64 * 10.0;
                    let v = (s % 7) as f64 - 3.0;
                    Segment {
                        t_start: t,
                        x_start: [v].into(),
                        t_end: t + 5.0,
                        x_end: [v + 1.0].into(),
                        connected: false,
                        n_points: 2,
                        new_recordings: 2,
                    }
                })
                .collect()
        })
        .collect()
}

fn corpus_reference(logs: &[Vec<Segment>]) -> StoreSnapshot {
    run_chaos(logs, &[0, 1, 2, 3, 4, 5, 6, 7], plans_from_seeds(&[0; CONNS]))
}

/// Regression: the very first dial's `Hello` never arrives (sever at
/// frame 0) — the session must back off, redial, and converge.
#[test]
fn regression_hello_severed_on_first_dial() {
    let logs = corpus_logs();
    let mut plans = plans_from_seeds(&[0; CONNS]);
    for queue in &mut plans {
        *queue = vec![FaultPlan::new(vec![Fault::Sever { frame: 0 }])];
    }
    let got = run_chaos(&logs, &[3, 1, 4, 1, 5, 0, 2, 6], plans);
    assert_converged(&got, &corpus_reference(&logs));
}

/// Regression: duplicate delivery plus a mid-stream truncation on the
/// same connection — dedup absorbs the duplicate, the truncation tears
/// the link down mid-frame, and the token resume replays the tail.
#[test]
fn regression_duplicate_then_midstream_truncate() {
    let logs = corpus_logs();
    let mut plans = plans_from_seeds(&[0; CONNS]);
    plans[2] = vec![FaultPlan::new(vec![
        Fault::Duplicate { frame: 1 },
        Fault::Truncate { frame: 6, keep: 7 },
    ])];
    plans[5] = vec![FaultPlan::new(vec![Fault::Delay { read_call: 2, rounds: 3 }])];
    let got = run_chaos(&logs, &[0, 1, 2, 3, 4, 5, 6, 7], plans);
    assert_converged(&got, &corpus_reference(&logs));
}

/// Regression: seeded storms on every connection at once — the seeds
/// that once drove this suite's development, kept verbatim.
#[test]
fn regression_seed_corpus_storms_every_connection() {
    let logs = corpus_logs();
    for seeds in [
        [42u64, 1337, 271_828, 314_159, 577_215, 141_421, 662_607, 602_214],
        [7u64, 7, 7, 7, 7, 7, 7, 7],
        [999_983u64, 2, 65_537, 4_294_967, 12_345, 54_321, 31_337, 161_803],
    ] {
        let got = run_chaos(&logs, &[1, 0, 3, 2, 5, 4, 7, 6], plans_from_seeds(&seeds));
        assert_converged(&got, &corpus_reference(&logs));
    }
}
