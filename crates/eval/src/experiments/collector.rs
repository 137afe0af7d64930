//! Collector fan-in throughput: many connections, one shared store.
//!
//! The `netstream` experiment measures one multiplexed connection; this
//! one measures the paper's full deployment shape — N edge senders,
//! each multiplexing its own stream population over its own connection,
//! funneled by one `Collector` into one `SegmentStore`. Each cell
//! transfers every stream's full segment log end-to-end and reports
//! thousands of segments per second into the store, plus the wire cost
//! per segment (data frames + the batched `Ack` control traffic, both
//! directions, plus each connection's `HelloAck`).

use std::sync::Arc;
use std::time::Instant;

use pla_core::filters::{run_filter, FilterKind};
use pla_core::Segment;
use pla_ingest::SegmentStore;
use pla_net::listen::MemoryAcceptor;
use pla_net::{Collector, MemoryRedial, NetConfig, SessionConfig, SessionSender};
use pla_transport::wire::FixedCodec;

use crate::experiments::Config;
use crate::Table;

/// Builds one segment log per stream from the Figure 9/10 random-walk
/// workload.
fn segment_logs(streams: usize, samples_per_stream: usize, seed: u64) -> Vec<Vec<Segment>> {
    super::multistream::stream_workload(streams, samples_per_stream, seed)
        .iter()
        .map(|signal| {
            let mut filter = FilterKind::Swing.build(&[0.5]).expect("valid eps");
            run_filter(filter.as_mut(), signal).expect("valid signal")
        })
        .collect()
}

/// Fans `logs` in over `conns` connections (streams split round-robin)
/// into one shared store, returning `(segments, wire_bytes)`.
/// `wire_bytes` counts every byte the collector moved on a bound
/// connection — inbound data frames plus outbound acks, credit grants,
/// and the `HelloAck` (the opening `Hello` is read before the
/// connection exists). The clock is frozen at the start of the
/// transfer: a lossless run needs no heartbeat, redial, or deadline.
pub fn collector_transfer(logs: &[Vec<Segment>], conns: usize, window: u64) -> (u64, u64) {
    let cfg = NetConfig { window, max_frame: 1 << 20 };
    let sess = SessionConfig::default();
    let store = Arc::new(SegmentStore::new());
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut collector = Collector::with_sessions(FixedCodec, 1, cfg, sess, acceptor, store.clone());

    // Connection c owns streams c, c + conns, c + 2·conns, …
    let now = Instant::now();
    let mut senders: Vec<(SessionSender<FixedCodec, MemoryRedial>, Vec<usize>)> = (0..conns)
        .map(|c| {
            let redial = MemoryRedial::new(connector.clone(), 8 * 1024);
            let streams: Vec<usize> = (c..logs.len()).step_by(conns).collect();
            (SessionSender::new(FixedCodec, 1, cfg, sess, redial, now), streams)
        })
        .collect();
    let mut cursors = vec![0usize; logs.len()];
    let mut done = false;
    while !done {
        done = true;
        for (tx, streams) in &mut senders {
            let mut conn_done = true;
            for &s in streams.iter() {
                let log = &logs[s];
                let cursor = &mut cursors[s];
                while *cursor < log.len() {
                    match tx.mux_mut().try_send_segment(s as u64, &log[*cursor]) {
                        Ok(()) => *cursor += 1,
                        Err(pla_net::NetError::Backpressure) => break,
                        Err(e) => panic!("send failed: {e}"),
                    }
                }
                if *cursor < log.len() {
                    conn_done = false;
                }
            }
            if conn_done && !streams.is_empty() {
                for &s in streams.iter() {
                    tx.mux_mut().finish_stream(s as u64).expect("fin");
                }
            } else {
                done = false;
            }
            tx.pump_at(now);
        }
        collector.pump_at(now).expect("collector");
        for (tx, _) in &mut senders {
            tx.pump_at(now);
            assert!(tx.failure().is_none(), "lossless session failed: {:?}", tx.failure());
            if !tx.mux().all_acked() {
                done = false;
            }
        }
    }
    let stats = collector.stats();
    let wire_bytes: u64 = stats.conns.iter().map(|c| c.bytes_moved).sum();
    let want: u64 = logs.iter().map(|l| l.len() as u64).sum();
    assert_eq!(store.total_segments(), want, "every segment must land exactly once");
    assert_eq!(stats.dup_drops, 0, "no replays on a lossless run");
    (want, wire_bytes)
}

/// Collector fan-in throughput (Ksegments/s into the store) and wire
/// cost per segment vs connection count, for a fixed 64-stream
/// population. One connection is the PR 4 single-uplink baseline; more
/// connections split the same streams across more links.
pub fn collector_fanin(cfg: &Config) -> Table {
    let conn_counts = [1usize, 4, 16];
    const STREAMS: usize = 64;
    let window = 16 * 1024u64;
    let mut table = Table::new(
        "Collector fan-in throughput (Ksegments/s) and bytes/segment vs connection count",
        "connections",
        vec!["Kseg/s".to_string(), "bytes/seg".to_string()],
    );
    let per_stream = (cfg.n / STREAMS).max(2);
    let logs = segment_logs(STREAMS, per_stream, cfg.seed);
    for &conns in &conn_counts {
        collector_transfer(&logs, conns, window); // warm-up
        let start = Instant::now();
        let (segments, wire_bytes) = collector_transfer(&logs, conns, window);
        let secs = start.elapsed().as_secs_f64();
        table.push_row(
            conns as f64,
            vec![segments as f64 / secs / 1e3, wire_bytes as f64 / segments.max(1) as f64],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_table_has_expected_shape() {
        let t = collector_fanin(&Config::quick());
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.series.len(), 2);
        for (conns, row) in &t.rows {
            assert!(row[0].is_finite() && row[0] > 0.0, "{conns} conns: {row:?}");
            assert!(
                row[1] > 16.0 && row[1] < 256.0,
                "{conns} conns: implausible wire cost {}",
                row[1]
            );
        }
    }

    #[test]
    fn transfer_is_lossless_across_many_connections() {
        let logs = segment_logs(12, 150, 0xBEEF);
        let want: u64 = logs.iter().map(|l| l.len() as u64).sum();
        for conns in [1usize, 3, 12] {
            let (segments, wire_bytes) = collector_transfer(&logs, conns, 4096);
            assert_eq!(segments, want, "{conns} connections");
            assert!(wire_bytes > 0);
        }
    }
}
