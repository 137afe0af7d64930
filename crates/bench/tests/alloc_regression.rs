//! The allocation-free hot-path invariant, asserted.
//!
//! After one warm-up pass (which sizes the recycled hull / raw-point /
//! regression scratch), pushing a 1-D stream through any filter —
//! including every interval close and segment emission along the way —
//! must perform **zero** heap allocations. This is the PR-3 acceptance
//! criterion for the swing and slide filters; the other families are
//! held to the same bar because their state migrated to the same
//! inline-dimension storage.
//!
//! The wire path carries a budget instead of a zero: a segment sent
//! through the session sender, a link, the collector's receiver and
//! its publish into the shared store costs fewer than three heap
//! allocations in steady state (the sender's replay copy of the frame,
//! the receiver's copy of the payload, and amortized store growth).
//!
//! A collector round that moves no byte allocates nothing for the round
//! itself, however many rounds run: an idle collector polled in a loop
//! must not churn the heap.
//!
//! Handing samples to the ingest engine one at a time carries a budget
//! counted on both sides of the shard queue: at d = 1 the values travel
//! inline in the queue slot, so what is left per sample is amortized
//! growth of the engine's logs and channels, well under one allocation.
//!
//! A remote point query's round trip (client → link → query server →
//! link → client) carries a budget too: the request and answer bodies,
//! the decoded frames and the client's cache entry, with no per-frame
//! staging buffer on either side.
//!
//! The shared store's snapshot is pointer work: its allocations are the
//! snapshot's own maps and epochs box, the same whatever the streams'
//! runs and tails hold. With no snapshot alive, appends allocate only
//! when a tail seals.
//!
//! Requires the counting global allocator:
//!
//! ```sh
//! cargo test -p pla-bench --features alloc-counter
//! ```
#![cfg(feature = "alloc-counter")]

use std::sync::Mutex;

use std::sync::Arc;
use std::time::Instant;

use pla_bench::{alloc_counter, multi_walk, walk_signal, FilterKind, WalkParams};
use pla_core::filters::{run_filter, FilterSpec, StreamFilter};
use pla_core::metrics::CountingSink;
use pla_core::{DimVec, Segment, INLINE_DIMS};
use pla_ingest::{IngestConfig, IngestEngine, SegmentStore, StoreConfig, StreamId};
use pla_net::{Collector, MemoryAcceptor, MemoryRedial, NetConfig, SessionConfig, SessionSender};
use pla_query::{Query, QueryClient, QueryClientConfig, QueryServer};
use pla_transport::wire::FixedCodec;

/// The allocation counter is process-wide, but libtest runs `#[test]`s on
/// parallel threads — another test's setup allocations would land inside
/// this test's counting window. Serialize every counting test on one
/// lock (a poisoned lock just means an earlier test failed; counting is
/// still safe).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn steady_state_push_is_allocation_free_at_d1() {
    let _guard = serial();
    let signal = walk_signal(20_000, 0.5, 2.0, 0xA110C);
    for kind in FilterKind::OVERHEAD_SET {
        let mut filter = kind.build(&[0.8]).expect("valid epsilons");
        let mut sink = CountingSink::default();
        // Warm-up pass: grows hull buffers to their steady capacity and
        // exercises many interval closes; `finish` resets the filter.
        for (t, x) in signal.iter() {
            filter.push(t, x, &mut sink).unwrap();
        }
        filter.finish(&mut sink).unwrap();
        // Steady state: an identical pass must not touch the heap.
        let (_, allocs) = alloc_counter::count(|| {
            for (t, x) in signal.iter() {
                filter.push(t, x, &mut sink).unwrap();
            }
            filter.finish(&mut sink).unwrap();
        });
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations on the steady-state d=1 push path",
            kind.label()
        );
        assert!(sink.segments > 0, "{}: sanity — segments were emitted", kind.label());
    }
}

#[test]
fn batch_push_is_allocation_free_at_d1() {
    let _guard = serial();
    let signal = walk_signal(20_000, 0.5, 2.0, 0xBA7C);
    let samples: Vec<(f64, &[f64])> = signal.iter().collect();
    for kind in [FilterKind::Swing, FilterKind::Slide] {
        let mut filter = kind.build(&[0.8]).expect("valid epsilons");
        let mut sink = CountingSink::default();
        filter.push_batch(&samples, &mut sink).unwrap();
        filter.finish(&mut sink).unwrap();
        let (_, allocs) = alloc_counter::count(|| {
            filter.push_batch(&samples, &mut sink).unwrap();
            filter.finish(&mut sink).unwrap();
        });
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations on the steady-state d=1 batch path",
            kind.label()
        );
    }
}

#[test]
fn spill_regime_allocations_are_bounded_per_interval_close() {
    let _guard = serial();
    // Above INLINE_DIMS the per-dimension payloads spill to the heap.
    // PR 3 documented this regime's alloc headroom; the filter now
    // recycles every interval-close buffer — the Pending/Cone arena, the
    // filter-owned SoA envelopes, the one-point-state sample buffer, and
    // the connection probe's candidate lines — so the only steady-state
    // allocations left per close are the payloads that leave the filter
    // inside the emitted Segment (its x_start/x_end DimVecs).
    let d = 2 * INLINE_DIMS;
    let signal = multi_walk(d, WalkParams { n: 8_000, p_decrease: 0.5, max_delta: 2.0, seed: 11 });
    let eps = vec![0.8; d];
    let mut filter = pla_core::filters::SlideFilter::new(&eps).expect("valid epsilons");
    let mut sink = CountingSink::default();
    for (t, x) in signal.iter() {
        filter.push(t, x, &mut sink).unwrap();
    }
    filter.finish(&mut sink).unwrap();
    let before = sink.segments;
    let (_, allocs) = alloc_counter::count(|| {
        for (t, x) in signal.iter() {
            filter.push(t, x, &mut sink).unwrap();
        }
        filter.finish(&mut sink).unwrap();
    });
    let closes = sink.segments - before;
    assert!(closes > 20, "workload sanity: got {closes} closes");
    let per_close = allocs as f64 / closes as f64;
    eprintln!("slide d={d}: {allocs} allocs / {closes} closes = {per_close:.2} per close");
    assert!(
        per_close <= 4.0,
        "slide d={d}: {allocs} allocations over {closes} interval closes \
         ({per_close:.1}/close) — spill-regime recycling has regressed"
    );
}

#[test]
fn cleared_spilled_dimvec_refills_without_allocating() {
    let _guard = serial();
    // A spilled vector keeps its heap buffer through `clear`, so the
    // filters' recycled d > INLINE_DIMS scratch refills in place.
    let d = 2 * INLINE_DIMS + 1;
    let values: Vec<f64> = (0..d).map(|i| i as f64).collect();
    let mut v = DimVec::from_slice(&values);
    let (_, allocs) = alloc_counter::count(|| {
        for _ in 0..1_000 {
            v.clear();
            for &x in &values {
                v.push(x);
            }
            v.clear();
            v.extend_from_slice(&values);
            v.assign(&values[..INLINE_DIMS]);
            v.assign(&values);
        }
    });
    assert_eq!(allocs, 0, "{allocs} heap allocations refilling a cleared spilled DimVec");
    assert_eq!(v.as_slice(), &values[..]);
}

#[test]
fn metric_increments_are_allocation_free() {
    let _guard = serial();
    // The ops tier's invariant (crates/ops README): once a handle is
    // registered, every increment on the hot path — counter add, gauge
    // set, histogram observe — must stay off the heap, so instrumented
    // collector/ingest loops keep their own alloc-free guarantees.
    let mut reg = pla_ops::Registry::new();
    let counter = reg.counter("pla_bench_frames_total", "Alloc-regression counter.");
    let labeled = reg.counter_with(
        "pla_bench_conn_total",
        "Alloc-regression labeled counter.",
        &[("conn", "1")],
    );
    let gauge = reg.gauge("pla_bench_attached", "Alloc-regression gauge.");
    let hist =
        reg.histogram("pla_bench_latency", "Alloc-regression histogram.", &[0.5, 2.0, 8.0, 32.0]);
    // Warm-up: first touches, in case any primitive defers work.
    counter.inc();
    labeled.add(3);
    gauge.set(1.0);
    gauge.add(0.5);
    hist.observe(1.0);
    let (_, allocs) = alloc_counter::count(|| {
        for i in 0..10_000u64 {
            counter.inc();
            labeled.add(i & 7);
            gauge.set(i as f64);
            gauge.add(0.25);
            hist.observe((i % 64) as f64);
        }
    });
    assert_eq!(allocs, 0, "{allocs} heap allocations across 50k metric increments");
}

#[test]
fn inline_dims_stream_is_allocation_free() {
    let _guard = serial();
    // The inline threshold itself (d == INLINE_DIMS) must stay heap-free;
    // one past it is allowed to allocate (spilled DimVecs).
    let d = INLINE_DIMS;
    let signal = multi_walk(d, WalkParams { n: 5_000, p_decrease: 0.5, max_delta: 2.0, seed: 7 });
    let eps = vec![0.8; d];
    for kind in [FilterKind::Swing, FilterKind::Slide] {
        let mut filter = kind.build(&eps).expect("valid epsilons");
        let mut sink = CountingSink::default();
        for (t, x) in signal.iter() {
            filter.push(t, x, &mut sink).unwrap();
        }
        filter.finish(&mut sink).unwrap();
        let (_, allocs) = alloc_counter::count(|| {
            for (t, x) in signal.iter() {
                filter.push(t, x, &mut sink).unwrap();
            }
            filter.finish(&mut sink).unwrap();
        });
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations at d = INLINE_DIMS = {d}",
            kind.label()
        );
    }
}

#[test]
fn wire_path_allocations_per_segment_are_bounded() {
    let _guard = serial();
    // 256 d = 1 swing streams, one segment per stream per round, sent
    // through SessionSender → MemoryLink → Collector (NetReceiver::on_bytes,
    // flush_control, publish into a SegmentStore) with the batched acks
    // read back by the sender every round. The clock is frozen, so no
    // heartbeat or deadline fires mid-measurement.
    const STREAMS: u64 = 256;
    const WARMUP_ROUNDS: usize = 16;
    const ROUNDS: usize = 48;
    let logs: Vec<Vec<Segment>> = (0..STREAMS)
        .map(|s| {
            let signal = walk_signal(600, 0.5, 1.0, 0x5EED + s);
            let mut filter = FilterKind::Swing.build(&[0.3]).expect("valid epsilon");
            run_filter(filter.as_mut(), &signal).expect("filter runs")
        })
        .collect();
    let rounds = WARMUP_ROUNDS + ROUNDS;
    assert!(logs.iter().all(|log| log.len() >= rounds), "workload sanity: enough segments");

    let config = NetConfig::default();
    let session = SessionConfig::default();
    let store = Arc::new(SegmentStore::new());
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut collector =
        Collector::with_sessions(FixedCodec, 1, config, session, acceptor, store.clone());
    let now = Instant::now();
    let redial = MemoryRedial::new(connector, 1 << 20);
    let mut tx = SessionSender::new(FixedCodec, 1, config, session, redial, now);
    let mut round = |k: usize| {
        for (s, log) in logs.iter().enumerate() {
            tx.mux_mut().try_send_segment(s as u64, &log[k]).expect("credit never runs out");
        }
        tx.pump_at(now);
        collector.pump_at(now).unwrap();
        tx.pump_at(now);
    };
    for k in 0..WARMUP_ROUNDS {
        round(k);
    }
    let ((), allocs) = alloc_counter::count(|| {
        for k in WARMUP_ROUNDS..rounds {
            round(k);
        }
    });
    assert!(tx.is_established() && tx.mux().all_acked(), "every frame acknowledged");
    assert_eq!(store.total_segments(), STREAMS * rounds as u64, "every segment published");
    let measured = STREAMS * ROUNDS as u64;
    let per_segment = allocs as f64 / measured as f64;
    eprintln!("wire path: {allocs} allocs / {measured} segments = {per_segment:.2} per segment");
    assert!(
        per_segment < 3.0,
        "wire path: {per_segment:.2} heap allocations per segment (budget < 3)"
    );
}

#[test]
fn idle_collector_rounds_do_not_allocate() {
    let _guard = serial();
    // Four bound sessions with nothing in flight, on a frozen clock so no
    // deadline fires: every round finds no bytes to move.
    let config = NetConfig::default();
    let session = SessionConfig::default();
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let store = Arc::new(SegmentStore::new());
    let mut collector = Collector::with_sessions(FixedCodec, 1, config, session, acceptor, store);
    let now = Instant::now();
    let mut senders: Vec<_> = (0..4)
        .map(|_| {
            let redial = MemoryRedial::new(connector.clone(), 4096);
            SessionSender::new(FixedCodec, 1, config, session, redial, now)
        })
        .collect();
    for tx in &mut senders {
        tx.pump_at(now);
    }
    collector.pump_at(now).unwrap();
    for tx in &mut senders {
        tx.pump_at(now);
    }
    assert!(senders.iter().all(|tx| tx.is_established()), "every session bound");
    assert_eq!(collector.stats().attached, 4);
    let mut idle = |rounds: usize| {
        alloc_counter::count(|| {
            for _ in 0..rounds {
                assert_eq!(collector.pump_at(now).unwrap(), 0, "an idle round moves nothing");
            }
        })
        .1
    };
    idle(8);
    let (few, many) = (idle(8), idle(256));
    eprintln!("idle collector: {few} allocs over 8 rounds, {many} over 256");
    assert_eq!(
        few, many,
        "idle collector rounds allocate per round: {few} over 8, {many} over 256"
    );
}

#[test]
fn engine_push_allocations_per_sample_are_bounded() {
    let _guard = serial();
    // 64 d = 1 swing streams pushed one sample at a time through a
    // 1-shard engine with a segment tap. The count is process-wide, so
    // the shard thread's allocations (applying each push, the filter,
    // the report log, the tap send) land in it beside the producer's.
    // The window closes with `finish`, which drains every queued push.
    const STREAMS: u64 = 64;
    const WARMUP: usize = 200;
    const N: usize = 2_000;
    let signals: Vec<_> =
        (0..STREAMS).map(|s| walk_signal(WARMUP + N, 0.5, 1.0, 0xE6 + s)).collect();
    let config = IngestConfig { shards: 1, queue_depth: 64 };
    let (engine, tap) = IngestEngine::with_segment_tap(config);
    let h = engine.handle();
    let spec = FilterSpec::new(pla_core::filters::FilterKind::Swing, &[0.3]);
    for s in 0..STREAMS {
        h.register(StreamId(s), spec.clone()).expect("valid spec");
    }
    let push = |samples: std::ops::Range<usize>| {
        for j in samples {
            for (s, signal) in signals.iter().enumerate() {
                let (t, x) = signal.sample(j);
                h.push(StreamId(s as u64), t, x).expect("engine is running");
            }
        }
    };
    push(0..WARMUP);
    let before = alloc_counter::allocations();
    push(WARMUP..WARMUP + N);
    let report = engine.finish();
    let allocs = alloc_counter::allocations() - before;
    let pushed = STREAMS * N as u64;
    assert_eq!(report.total_samples(), STREAMS * (WARMUP + N) as u64, "every sample applied");
    assert_eq!(tap.iter().count(), report.total_segments(), "the tap carried every segment");
    let per_sample = allocs as f64 / pushed as f64;
    eprintln!("engine push: {allocs} allocs / {pushed} samples = {per_sample:.3} per sample");
    assert!(
        per_sample <= 0.1,
        "engine push: {per_sample:.3} heap allocations per sample (budget <= 0.1)"
    );
}

fn store_seg(k: usize) -> Segment {
    let t = k as f64;
    Segment {
        t_start: t,
        x_start: [t].into(),
        t_end: t + 1.0,
        x_end: [t + 0.5].into(),
        connected: false,
        n_points: 2,
        new_recordings: 2,
    }
}

#[test]
fn snapshot_allocations_do_not_depend_on_runs_or_tails() {
    let _guard = serial();
    const STREAMS: u64 = 16;
    const SOURCES: u64 = 4;
    let config = StoreConfig::default();
    let seal = config.seal_threshold;
    // Both stores hold the same streams and sources; only the shape of
    // each stream's log differs.
    let filled = |runs: usize, tail: usize| {
        let store = SegmentStore::with_config(config);
        let mut batch = Vec::new();
        for s in 0..STREAMS {
            batch.extend((0..runs * seal + tail).map(store_seg));
            store.append_batch(s % SOURCES, StreamId(s), &mut batch);
        }
        store
    };
    let small = filled(1, 1);
    let large = filled(100, seal - 1);
    let shape = |store: &SegmentStore| {
        let snap = store.snapshot();
        let view = &snap.streams[&StreamId(0)];
        (view.runs().len(), view.tail().len())
    };
    assert_eq!(shape(&small), (1, 1));
    assert_eq!(shape(&large), (100, seal - 1));
    let (_, small_allocs) = alloc_counter::count(|| drop(small.snapshot()));
    let (_, large_allocs) = alloc_counter::count(|| drop(large.snapshot()));
    assert_eq!(
        small_allocs, large_allocs,
        "a snapshot's allocations must not grow with the runs and tails it shares"
    );
    // Only the maps (at most one node per entry) and the epochs box.
    let bound = STREAMS + SOURCES + 1;
    assert!(
        small_allocs <= bound,
        "snapshot: {small_allocs} allocations for {STREAMS} streams (map and epochs bound {bound})"
    );
}

#[test]
fn unshared_appends_allocate_only_at_seals() {
    let _guard = serial();
    const STREAMS: u64 = 8;
    const ROUNDS: usize = 20;
    let config = StoreConfig::default();
    let seal = config.seal_threshold;
    let store = SegmentStore::with_config(config);
    // Create every stream and its source watermark first.
    for s in 0..STREAMS {
        store.append(s, StreamId(s), store_seg(0));
    }
    let mut batch = Vec::with_capacity(seal);
    let (mut seals, mut seal_allocs) = (0u64, 0u64);
    let mut len = 1;
    for round in 0..ROUNDS * seal {
        for s in 0..STREAMS {
            // Alternate single appends and three-segment batches; each
            // stream seals at the same positions.
            let (_, allocs) = alloc_counter::count(|| {
                if round % 2 == 0 {
                    store.append(s, StreamId(s), store_seg(len));
                } else {
                    batch.extend((len..len + 3).map(store_seg));
                    store.append_batch(s, StreamId(s), &mut batch);
                }
            });
            let added = if round % 2 == 0 { 1 } else { 3 };
            let sealed = (len + added) / seal - len / seal;
            if sealed == 0 {
                assert_eq!(allocs, 0, "stream {s}: an append that sealed nothing allocated");
            } else {
                seals += sealed as u64;
                seal_allocs += allocs;
            }
        }
        len += if round % 2 == 0 { 1 } else { 3 };
    }
    let runs_per_stream = (len / seal) as u64;
    assert!(seals > STREAMS * 10, "workload sanity: {seals} seals");
    // Each seal allocates its run and a fresh tail; the run list's own
    // amortized growth adds at most one allocation per doubling.
    let growth = STREAMS * (u64::from(runs_per_stream.ilog2()) + 2);
    assert!(
        seal_allocs <= 2 * seals + growth,
        "{seal_allocs} allocations across {seals} seals (budget {})",
        2 * seals + growth
    );
}

#[test]
fn remote_query_allocations_per_round_trip_are_bounded() {
    let _guard = serial();
    // One remote point lookup at a time through QueryClient → MemoryLink
    // → QueryServer and back, against a static 64-segment stream, so no
    // engine rebuild lands in the window. Each round trip encodes the
    // request body, stages and decodes both frames, evaluates, encodes
    // the answer, and caches it at the client.
    const WARMUP: usize = 64;
    const ROUND_TRIPS: usize = 1_000;
    const BUDGET: f64 = 12.5;
    let store = Arc::new(SegmentStore::new());
    for k in 0..64 {
        store.append(1, StreamId(3), store_seg(k));
    }
    let acceptor = MemoryAcceptor::new();
    let redial = MemoryRedial::new(acceptor.connector(), 1 << 16);
    let mut server = QueryServer::new(acceptor, store, NetConfig::default());
    let mut client = QueryClient::new(redial, QueryClientConfig::default());
    let now = Instant::now();
    let mut round_trip = |k: usize| {
        let query = Query::PointWithStats { stream: 3, t: (k % 64) as f64 + 0.5, dim: 0 };
        let id = client.submit(query, now);
        client.pump_at(now);
        server.pump();
        client.pump_at(now);
        assert!(client.take_outcome(id).is_some_and(|o| o.is_ok()), "answered in one round");
    };
    for k in 0..WARMUP {
        round_trip(k);
    }
    let ((), allocs) = alloc_counter::count(|| {
        for k in 0..ROUND_TRIPS {
            round_trip(k);
        }
    });
    let per_trip = allocs as f64 / ROUND_TRIPS as f64;
    eprintln!("remote query: {allocs} allocs / {ROUND_TRIPS} round trips = {per_trip:.2} per trip");
    assert!(
        per_trip <= BUDGET,
        "remote query: {per_trip:.2} heap allocations per round trip (budget {BUDGET})"
    );
}
