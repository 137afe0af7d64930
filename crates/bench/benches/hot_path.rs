//! Steady-state hot-path cost of every filter: ns/point on a pre-built,
//! warm filter, and — with the `alloc-counter` feature — heap
//! allocations per point.
//!
//! Unlike `throughput.rs` (which rebuilds the filter each iteration,
//! the cold-start number), this bench reuses one filter instance across
//! iterations so the recycled scratch buffers are warm: the measured
//! quantity is the per-point cost the ingest engine pays in steady
//! state, and allocs/point is expected to be exactly 0 for `d = 1`
//! (asserted by `tests/alloc_regression.rs`).
//!
//! Run with allocation counting:
//!
//! ```sh
//! cargo bench --bench hot_path --features alloc-counter
//! ```

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use pla_bench::{multi_walk, run_filter_steady, walk_signal, FilterKind, WalkParams};
use pla_core::Signal;

const N_1D: usize = 100_000;
const N_MULTI: usize = 20_000;

/// Dimension counts under measurement: the `d == 1` scalar dispatch, the
/// `d ∈ {2, 4}` inline-lane (`kern` lane-op) dispatch at both ends of its
/// range, and the `d = 8` generic spill regime.
const DIMS: [usize; 4] = [1, 2, 4, 8];

fn signal_for(dims: usize) -> Signal {
    if dims == 1 {
        walk_signal(N_1D, 0.5, 2.0, 0x407)
    } else {
        multi_walk(dims, WalkParams { n: N_MULTI, p_decrease: 0.5, max_delta: 2.0, seed: 0x408 })
    }
}

fn bench_dims(c: &mut Criterion, dims: usize) {
    let signal = signal_for(dims);
    let eps = vec![1.0; dims];
    let mut group = c.benchmark_group(format!("hot_path/{dims}d"));
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10)
        .throughput(Throughput::Elements(signal.len() as u64));
    for kind in FilterKind::OVERHEAD_SET {
        let mut filter = kind.build(&eps).expect("valid epsilons");
        // One untimed pass warms the recycled scratch buffers.
        run_filter_steady(filter.as_mut(), &signal);
        group.bench_function(BenchmarkId::from_parameter(kind.label()), |b| {
            b.iter(|| black_box(run_filter_steady(filter.as_mut(), &signal)))
        });
    }
    group.finish();
}

fn hot_path_dims(c: &mut Criterion) {
    for dims in DIMS {
        bench_dims(c, dims);
    }
}

/// Reports heap allocations per point for every filter at each measured
/// dimension count, over one warm steady-state pass. Printed alongside
/// the timing lines (the `allocs/point` unit keeps these out of
/// `BENCH_BASELINE.json`, which only parses `ns/iter` lines).
#[cfg(feature = "alloc-counter")]
fn report_allocs(_c: &mut Criterion) {
    use pla_bench::alloc_counter;
    for dims in DIMS {
        let signal = signal_for(dims);
        let eps = vec![1.0; dims];
        for kind in FilterKind::OVERHEAD_SET {
            let mut filter = kind.build(&eps).expect("valid epsilons");
            run_filter_steady(filter.as_mut(), &signal);
            let (_, allocs) = alloc_counter::count(|| {
                black_box(run_filter_steady(filter.as_mut(), &signal));
            });
            let per_point = allocs as f64 / signal.len() as f64;
            let label = format!("hot_path/allocs/{}d/{}", dims, kind.label());
            eprintln!("{label:60} {allocs:>10} allocs {per_point:14.6} allocs/point");
        }
    }
    eprintln!();
}

#[cfg(not(feature = "alloc-counter"))]
fn report_allocs(_c: &mut Criterion) {
    eprintln!("hot_path: allocs/point not measured (enable --features alloc-counter)\n");
}

criterion_group!(benches, hot_path_dims, report_allocs);
criterion_main!(benches);
