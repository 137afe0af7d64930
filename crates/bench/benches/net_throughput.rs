//! Multiplexed transport throughput: segments/second through one
//! `pla-net` connection (framing, session sequencing, connection credit
//! flow control, acks, and `StreamDemux` reconstruction), sweeping
//! stream count × credit window.
//!
//! Each iteration is one complete end-to-end transfer of every
//! stream's full segment log — the unit a deployment pays per
//! collection round. The segment population is fixed per stream-count
//! cell, so ns/iter is comparable along the window axis directly.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use pla_core::filters::run_filter;
use pla_core::Segment;
use pla_eval::experiments::{netstream_transfer, stream_workload};
use pla_eval::FilterKind;

/// Samples per cell, split evenly across the cell's streams.
const TOTAL_SAMPLES: usize = 64_000;

fn segment_logs(streams: usize) -> Vec<Vec<Segment>> {
    stream_workload(streams, TOTAL_SAMPLES / streams, 0x7E72)
        .iter()
        .map(|signal| {
            let mut filter = FilterKind::Swing.build(&[0.5]).expect("valid eps");
            run_filter(filter.as_mut(), signal).expect("valid signal")
        })
        .collect()
}

fn net_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_throughput");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(10);
    for &streams in &[16usize, 64, 256] {
        let logs = segment_logs(streams);
        let total: u64 = logs.iter().map(|l| l.len() as u64).sum();
        group.throughput(Throughput::Elements(total));
        for &(window, label) in &[(2 * 1024u64, "2KiB"), (64 * 1024, "64KiB")] {
            group.bench_function(
                BenchmarkId::new(format!("streams={streams}"), format!("window={label}")),
                |b| b.iter(|| black_box(netstream_transfer(&logs, window))),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, net_throughput);
criterion_main!(benches);
