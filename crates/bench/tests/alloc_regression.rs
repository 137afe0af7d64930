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
//! through the multiplexed sender, a link, the collector's receiver and
//! its publish into the shared store costs fewer than three heap
//! allocations in steady state (the sender's replay copy of the frame,
//! the receiver's copy of the payload, and amortized store growth).
//!
//! Requires the counting global allocator:
//!
//! ```sh
//! cargo test -p pla-bench --features alloc-counter
//! ```
#![cfg(feature = "alloc-counter")]

use std::sync::Mutex;

use std::sync::Arc;

use pla_bench::{alloc_counter, multi_walk, walk_signal, FilterKind, WalkParams};
use pla_core::filters::{run_filter, StreamFilter};
use pla_core::metrics::CountingSink;
use pla_core::{Segment, INLINE_DIMS};
use pla_ingest::SegmentStore;
use pla_net::driver::pump_sender;
use pla_net::{Collector, MemoryAcceptor, MuxSender, NetConfig};
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
    // through MuxSender → MemoryLink → Collector (NetReceiver::on_bytes,
    // flush_control, publish into a SegmentStore) with the batched acks
    // read back by the sender every round.
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
    let store = Arc::new(SegmentStore::new());
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut collector = Collector::new(FixedCodec, 1, config, acceptor, store.clone());
    let mut link = connector.connect(1 << 20);
    let mut tx = MuxSender::new(FixedCodec, 1, config);
    let mut round = |k: usize| {
        for (s, log) in logs.iter().enumerate() {
            tx.try_send_segment(s as u64, &log[k]).expect("credit never runs out");
        }
        pump_sender(&mut tx, &mut link).unwrap();
        collector.pump().unwrap();
        pump_sender(&mut tx, &mut link).unwrap();
    };
    for k in 0..WARMUP_ROUNDS {
        round(k);
    }
    let ((), allocs) = alloc_counter::count(|| {
        for k in WARMUP_ROUNDS..rounds {
            round(k);
        }
    });
    assert!(tx.all_acked(), "every frame acknowledged");
    assert_eq!(store.total_segments(), STREAMS * rounds as u64, "every segment published");
    let measured = STREAMS * ROUNDS as u64;
    let per_segment = allocs as f64 / measured as f64;
    eprintln!("wire path: {allocs} allocs / {measured} segments = {per_segment:.2} per segment");
    assert!(
        per_segment < 3.0,
        "wire path: {per_segment:.2} heap allocations per segment (budget < 3)"
    );
}
