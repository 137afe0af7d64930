//! Property tests for the many-connection collector: however the
//! connections' traffic interleaves — arrival order, pump order, even
//! connection death and replay at arbitrary points — the shared
//! `SegmentStore` must end up with *identical* per-stream logs and
//! watermarks. Arrival order across connections is scheduling noise;
//! the reconstruction is not allowed to depend on it.
//!
//! Unlike `session_proptests`, which compares sources up to relabeling,
//! these properties pin the snapshot *exactly*, `ConnId`s included:
//! every edge dials before the collector's first round, and the clock
//! is frozen (with zero redial backoff) so a starved connection can
//! never miss a handshake or liveness deadline and come back as a
//! stranger.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use pla_core::Segment;
use pla_ingest::{SegmentStore, StoreSnapshot};
use pla_net::listen::MemoryAcceptor;
use pla_net::{Collector, ConnId, MemoryRedial, NetConfig, SessionConfig, SessionSender};
use pla_transport::wire::FixedCodec;

const CONNS: usize = 3;
const STREAMS_PER_CONN: u64 = 2;
const LINK_CAPACITY: usize = 97;

/// Per-stream segment logs: monotone times, arbitrary values.
fn logs_strategy() -> impl Strategy<Value = Vec<Vec<Segment>>> {
    let seg_count = 1usize..5;
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

/// Runs the full fan-in under a pump schedule (which connection moves
/// each turn) and optional per-connection sever rounds, returning the
/// store snapshot.
fn run_schedule(
    logs: &[Vec<Segment>],
    schedule: &[usize],
    sever_at: &[Option<usize>],
) -> StoreSnapshot {
    let cfg = NetConfig { window: 4096, max_frame: 1 << 20 };
    let sess = SessionConfig { redial_initial: Duration::ZERO, ..SessionConfig::default() };
    let store = Arc::new(SegmentStore::new());
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut collector = Collector::with_sessions(FixedCodec, 1, cfg, sess, acceptor, store.clone());

    let now = Instant::now();
    let mut senders: Vec<(SessionSender<FixedCodec, MemoryRedial>, bool)> = (0..CONNS)
        .map(|c| {
            let redial = MemoryRedial::new(connector.clone(), LINK_CAPACITY);
            let mut tx = SessionSender::new(FixedCodec, 1, cfg, sess, redial, now);
            for s in 0..STREAMS_PER_CONN {
                let stream = c as u64 * STREAMS_PER_CONN + s;
                for seg in &logs[stream as usize] {
                    tx.mux_mut().try_send_segment(stream, seg).expect("roomy window");
                }
                tx.mux_mut().finish_stream(stream).expect("fin");
            }
            (tx, false)
        })
        .collect();
    // Every edge dials before the collector's first round, so ConnId
    // follows dial order.
    for (tx, _) in &mut senders {
        tx.pump_at(now);
    }

    let mut turn = 0usize;
    let mut schedule = schedule.iter().cycle();
    let mut stalled = 0;
    while !(0..CONNS)
        .all(|c| senders[c].0.mux().all_acked() && collector.conn_complete(ConnId(c as u64 + 1)))
    {
        // A degenerate schedule (say, all zeros) would starve the other
        // connections forever; once the scheduled picks stop moving
        // bytes, fall back to round-robin picks so every schedule is
        // eventually fair — the *order* noise is what the property is
        // about, not liveness.
        let c =
            if stalled < CONNS { *schedule.next().expect("cycled") % CONNS } else { turn % CONNS };
        let conn = ConnId(c as u64 + 1);
        // Scheduled mid-transfer death: lose the pipe (and whatever it
        // carried); the sender redials and resumes by token. A session
        // that has not yet seen its `HelloAck` has no token to resume
        // with, so its death waits until it is established.
        let (tx, severed) = &mut senders[c];
        if sever_at[c].is_some_and(|at| at <= turn / CONNS) && !*severed && tx.is_established() {
            tx.redial().last_link().expect("dialed").sever();
            let _ = collector.pump_conn_at(conn, now);
            *severed = true;
        }
        let moved_tx = tx.pump_at(now);
        assert!(tx.failure().is_none(), "session failed: {:?}", tx.failure());
        collector.pump_sessions(now);
        let moved_rx = collector.pump_conn_at(conn, now).expect("protocol holds");
        turn += 1;
        stalled = if moved_tx + moved_rx == 0 { stalled + 1 } else { 0 };
        assert!(stalled < 10 * CONNS, "transfer deadlocked");
    }
    store.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pure arrival-order noise: any pump schedule produces the exact
    /// same snapshot as canonical round-robin.
    #[test]
    fn arrival_order_does_not_change_the_snapshot(
        logs in logs_strategy(),
        schedule in prop::collection::vec(0usize..CONNS, 1..64),
    ) {
        let reference = run_schedule(&logs, &[0, 1, 2], &[None; CONNS]);
        let got = run_schedule(&logs, &schedule, &[None; CONNS]);
        prop_assert_eq!(got, reference, "snapshot depends on arrival order");
    }

    /// Arrival-order noise *plus* connection death and replay at
    /// arbitrary rounds: the snapshot still matches an undisturbed
    /// round-robin run exactly (dedup absorbs the replays).
    #[test]
    fn severs_and_replays_do_not_change_the_snapshot(
        logs in logs_strategy(),
        schedule in prop::collection::vec(0usize..CONNS, 1..64),
        // Round at which each connection dies; values past the useful
        // range mean "never" (the vendored proptest has no Option
        // strategy).
        sever_codes in prop::collection::vec(0usize..10, CONNS),
    ) {
        let sever_rounds: Vec<Option<usize>> =
            sever_codes.iter().map(|&r| if r < 6 { Some(r) } else { None }).collect();
        let reference = run_schedule(&logs, &[0, 1, 2], &[None; CONNS]);
        let got = run_schedule(&logs, &schedule, &sever_rounds);
        prop_assert_eq!(got, reference, "snapshot depends on sever/replay timing");
    }
}
