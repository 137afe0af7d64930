//! Multiplexed transport throughput: how fast `pla-net` can move many
//! streams' segment logs over one connection.
//!
//! The paper's transmitter/receiver analysis (§5.4) counts recordings;
//! this experiment measures the *transport* those recordings ride on
//! once many transmitters share one multiplexed connection: framing,
//! per-stream sequencing, credit flow control, acks, and the
//! `StreamDemux` reconstruction on the far side. Each cell transfers
//! every stream's full segment log end-to-end (sender endpoint →
//! framed bytes → receiver endpoint → per-stream logs) and reports
//! thousands of segments per second, plus the wire cost per segment.

use std::time::Instant;

use pla_core::filters::{run_filter, FilterKind};
use pla_core::Segment;
use pla_net::{MuxSender, NetConfig, NetReceiver};
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

/// Transfers every log over one multiplexed connection (lossless
/// in-process hop), returning `(segments, wire_bytes)`.
///
/// Streams are fed round-robin — the interleaved arrival pattern of
/// many transmitters — and a stream that hits credit backpressure
/// simply waits for the next grant round, so small windows exercise the
/// full credit protocol rather than erroring out.
pub fn transfer(logs: &[Vec<Segment>], window: u64) -> (u64, u64) {
    let cfg = NetConfig { window, max_frame: 1 << 20 };
    let mut tx = MuxSender::new(FixedCodec, 1, cfg);
    let mut rx = NetReceiver::new(FixedCodec, 1, cfg);
    let mut cursors = vec![0usize; logs.len()];
    let mut segments = 0u64;
    let mut wire_bytes = 0u64;
    let mut done = false;
    while !done {
        done = true;
        for (id, log) in logs.iter().enumerate() {
            let cursor = &mut cursors[id];
            while *cursor < log.len() {
                match tx.try_send_segment(id as u64, &log[*cursor]) {
                    Ok(()) => {
                        *cursor += 1;
                        segments += 1;
                    }
                    Err(pla_net::NetError::Backpressure) => break,
                    Err(e) => panic!("send failed: {e}"),
                }
            }
            if *cursor < log.len() {
                done = false;
            }
        }
        if done {
            tx.finish_all();
        }
        // The lossless hop: sender bytes over, control bytes back.
        let staged = tx.take_staged();
        wire_bytes += staged.len() as u64;
        rx.on_bytes(&staged).expect("receiver");
        let back = rx.take_staged();
        wire_bytes += back.len() as u64;
        tx.on_bytes(&back).expect("sender");
    }
    assert!(tx.is_idle(), "all frames must be acknowledged");
    assert_eq!(rx.finished_streams().count(), logs.len());
    let recovered = rx.into_demux().into_segment_logs();
    let total: usize = recovered.values().map(|l| l.len()).sum();
    assert_eq!(total as u64, segments, "every segment must arrive exactly once");
    (segments, wire_bytes)
}

/// Multiplexed transport throughput (Ksegments/s) and wire cost vs
/// stream count, for a tight and a roomy credit window. The wire cost
/// is reported per window too: a tight window carries more credit
/// grants in its `Ack` cursors per segment.
pub fn netstream_throughput(cfg: &Config) -> Table {
    let stream_counts = [8usize, 32, 128];
    let windows: [(u64, &str); 2] = [(2 * 1024, "2 KiB window"), (64 * 1024, "64 KiB window")];
    let mut table = Table::new(
        "Multiplexed transport throughput (Ksegments/s) and bytes/segment vs stream count",
        "streams",
        vec![
            format!("Kseg/s ({})", windows[0].1),
            format!("Kseg/s ({})", windows[1].1),
            format!("bytes/seg ({})", windows[0].1),
            format!("bytes/seg ({})", windows[1].1),
        ],
    );
    for &streams in &stream_counts {
        let per_stream = (cfg.n / streams).max(2);
        let logs = segment_logs(streams, per_stream, cfg.seed);
        let mut rates = Vec::new();
        let mut costs = Vec::new();
        for &(window, _) in &windows {
            transfer(&logs, window); // warm-up
            let start = Instant::now();
            let (segments, wire_bytes) = transfer(&logs, window);
            let secs = start.elapsed().as_secs_f64();
            rates.push(segments as f64 / secs / 1e3);
            costs.push(wire_bytes as f64 / segments.max(1) as f64);
        }
        rates.extend(costs);
        table.push_row(streams as f64, rates);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netstream_table_has_expected_shape() {
        let t = netstream_throughput(&Config::quick());
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.series.len(), 4);
        for (streams, row) in &t.rows {
            assert!(row[0].is_finite() && row[0] > 0.0, "{streams} streams: {row:?}");
            assert!(row[1].is_finite() && row[1] > 0.0, "{streams} streams: {row:?}");
            assert!(row[2] > 16.0, "{streams} streams: implausible wire cost {}", row[2]);
            assert!(
                row[2] >= row[3],
                "{streams} streams: the tight window cannot be cheaper on the wire ({row:?})"
            );
        }
    }

    #[test]
    fn transfer_is_lossless_under_a_tiny_window() {
        let logs = segment_logs(6, 200, 0xF00D);
        let want: u64 = logs.iter().map(|l| l.len() as u64).sum();
        let (segments, wire_bytes) = transfer(&logs, 256);
        assert_eq!(segments, want);
        assert!(wire_bytes > 0);
    }
}
