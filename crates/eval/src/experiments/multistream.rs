//! Multi-stream ingest throughput: shard scaling over the signal
//! generators.
//!
//! The paper evaluates one filter on one stream; the deployment the
//! introduction motivates (a DSMS fed by thousands of sensors) runs one
//! filter *per stream*. Duvignau et al.'s implementation study
//! (arXiv:1808.08877) found that at that scale the dispatch layer around
//! the O(d) filter core — routing, queueing, per-sample call overhead —
//! dominates throughput. This experiment measures exactly that layer:
//! aggregate samples/second through `pla-ingest`'s shard-per-core
//! [`IngestEngine`], sweeping shard count for several stream populations
//! of random-walk signals.

use std::time::Instant;

use pla_core::filters::{FilterKind, FilterSpec};
use pla_core::Signal;
use pla_ingest::{IngestConfig, IngestEngine, StreamId};
use pla_signal::{random_walk, WalkParams};

use crate::experiments::Config;
use crate::Table;

/// Batch size used when feeding the engine: large enough to amortize the
/// channel rendezvous, small enough to keep all shards busy while a
/// signal is being chopped up.
const FEED_BATCH: usize = 256;

/// Generates one random-walk signal per stream, seeds derived from
/// `seed` so the workload is reproducible.
pub fn stream_workload(streams: usize, samples_per_stream: usize, seed: u64) -> Vec<Signal> {
    (0..streams)
        .map(|i| {
            random_walk(WalkParams {
                n: samples_per_stream,
                p_decrease: 0.5,
                max_delta: 1.0,
                seed: seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            })
        })
        .collect()
}

/// Feeds `signals` (one stream each) through a fresh engine with
/// `shards` shards and returns the total samples absorbed.
///
/// Streams are fed round-robin in batches of `FEED_BATCH` (256) samples — the
/// interleaved arrival pattern of many sensors on one collector — and the
/// run panics if any stream is quarantined or loses samples, so the
/// timing can never silently measure partial work.
pub fn ingest_run(shards: usize, signals: &[Signal]) -> u64 {
    let engine = IngestEngine::new(IngestConfig { shards, queue_depth: 1024, shard_log: false });
    let handle = engine.handle();
    for i in 0..signals.len() {
        handle
            .register(StreamId(i as u64), FilterSpec::new(FilterKind::Swing, &[0.5]))
            .expect("valid spec");
    }
    let per_stream: Vec<Vec<(f64, &[f64])>> = signals.iter().map(|s| s.iter().collect()).collect();
    let longest = per_stream.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut offset = 0;
    while offset < longest {
        for (i, samples) in per_stream.iter().enumerate() {
            if offset < samples.len() {
                let end = (offset + FEED_BATCH).min(samples.len());
                handle.push_batch(StreamId(i as u64), &samples[offset..end]).expect("engine up");
            }
        }
        offset += FEED_BATCH;
    }
    let report = engine.finish();
    assert_eq!(report.quarantined(), 0, "no stream may be quarantined");
    let expected: u64 = signals.iter().map(|s| s.len() as u64).sum();
    assert_eq!(report.total_samples(), expected, "every sample must be absorbed");
    expected
}

/// Multi-stream ingest throughput (million samples/second) vs shard
/// count, one series per stream population.
///
/// Samples per stream are sized so each cell processes `cfg.n` samples in
/// total, keeping quick and full configurations proportionate.
pub fn multistream_throughput(cfg: &Config) -> Table {
    let stream_counts = [16usize, 64, 256];
    let shard_counts = [1usize, 2, 4, 8];
    let mut table = Table::new(
        "Multi-stream ingest throughput (Msamples/s) vs shard count",
        "shards",
        stream_counts.iter().map(|s| format!("{s} streams")).collect(),
    );
    for &shards in &shard_counts {
        let mut row = Vec::with_capacity(stream_counts.len());
        for &streams in &stream_counts {
            let per_stream = (cfg.n / streams).max(2);
            let signals = stream_workload(streams, per_stream, cfg.seed);
            // Warm-up pass (thread spawn, page-in), then the timed run.
            ingest_run(shards, &signals);
            let start = Instant::now();
            let samples = ingest_run(shards, &signals);
            let secs = start.elapsed().as_secs_f64();
            row.push(samples as f64 / secs / 1e6);
        }
        table.push_row(shards as f64, row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_table_has_expected_shape() {
        let t = multistream_throughput(&Config::quick());
        assert_eq!(t.rows.len(), 4);
        assert_eq!(t.series.len(), 3);
        for (shards, row) in &t.rows {
            for (series, v) in t.series.iter().zip(row) {
                assert!(
                    v.is_finite() && *v > 0.0,
                    "{shards} shards / {series}: bad throughput {v}"
                );
            }
        }
    }

    #[test]
    fn ingest_run_absorbs_every_sample() {
        let signals = stream_workload(5, 40, 0xC0FFEE);
        assert_eq!(ingest_run(2, &signals), 5 * 40);
    }

    #[test]
    fn workload_is_reproducible() {
        let a = stream_workload(3, 20, 7);
        let b = stream_workload(3, 20, 7);
        for (sa, sb) in a.iter().zip(&b) {
            assert_eq!(sa.len(), sb.len());
            for j in 0..sa.len() {
                assert_eq!(sa.sample(j), sb.sample(j));
            }
        }
        // Distinct streams are distinct signals.
        assert_ne!(a[0].sample(5), a[1].sample(5));
    }
}
