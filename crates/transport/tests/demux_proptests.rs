//! Adversarial property tests for [`StreamDemux`]: whatever a hostile
//! or failing transport does to the byte stream — interleaving streams
//! in any order, replaying frames after reconnects, truncating the tail
//! — the demultiplexer must either reconstruct per-stream segment logs
//! *identical* to single-stream reconstruction, or fail with a typed
//! error. It must never panic and never silently corrupt a log.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

use pla_transport::wire::{Codec, FixedCodec, Message};
use pla_transport::{ReceiveError, Receiver, SeqOutcome, StreamDemux};

/// Ops that always yield a protocol-valid per-stream message sequence,
/// whatever order they're drawn in. Times are assigned while lowering.
#[derive(Debug, Clone, Copy)]
enum Op {
    Hold(f64),
    Point(f64),
    /// `Start`+`End` pair (a disconnected segment).
    Segment(f64, f64),
    /// A connected `End` if a segment chain is open, else a fresh pair.
    Extend(f64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let v = -100.0f64..100.0;
    prop_oneof![
        v.clone().prop_map(Op::Hold),
        v.clone().prop_map(Op::Point),
        (v.clone(), v.clone()).prop_map(|(a, b)| Op::Segment(a, b)),
        v.prop_map(Op::Extend),
    ]
}

/// Lowers ops to messages with strictly increasing times and the
/// Start/End discipline a real transmitter obeys.
fn lower(ops: &[Op]) -> Vec<Message> {
    let mut out = Vec::new();
    let mut t = 0.0;
    let mut chain_open = false;
    let mut next_t = || {
        t += 1.0;
        t
    };
    for &op in ops {
        match op {
            Op::Hold(v) => {
                out.push(Message::Hold { t: next_t(), x: [v].into() });
                chain_open = false;
            }
            Op::Point(v) => {
                out.push(Message::Point { t: next_t(), x: [v].into() });
                chain_open = false;
            }
            Op::Segment(a, b) => {
                out.push(Message::Start { t: next_t(), x: [a].into() });
                out.push(Message::End { t: next_t(), x: [b].into() });
                chain_open = true;
            }
            Op::Extend(v) => {
                if !chain_open {
                    out.push(Message::Start { t: next_t(), x: [v - 1.0].into() });
                }
                out.push(Message::End { t: next_t(), x: [v].into() });
                chain_open = true;
            }
        }
    }
    out
}

/// 2–4 streams, each with its own valid message sequence.
fn streams_strategy() -> impl Strategy<Value = Vec<Vec<Message>>> {
    prop::collection::vec(prop::collection::vec(op_strategy(), 1..12), 2..5)
        .prop_map(|streams| streams.iter().map(|ops| lower(ops)).collect())
}

/// The single-stream reference: what a dedicated `Receiver` makes of
/// one stream's messages alone.
fn single_stream_reference(msgs: &[Message]) -> Vec<pla_core::Segment> {
    let mut codec = FixedCodec;
    let mut buf = BytesMut::new();
    for m in msgs {
        codec.encode(m, 1, &mut buf);
    }
    let mut rx = Receiver::new(FixedCodec, 1);
    rx.consume(buf.freeze()).expect("valid single-stream sequence");
    rx.into_segments()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of the streams onto one connection — chosen by
    /// an arbitrary schedule, switching headers at every turn —
    /// reconstructs each stream's log exactly as a dedicated
    /// single-stream receiver would.
    #[test]
    fn arbitrary_interleavings_match_single_stream_reconstruction(
        streams in streams_strategy(),
        schedule in prop::collection::vec(0usize..16, 1..160),
    ) {
        let mut cursors = vec![0usize; streams.len()];
        let mut codec = FixedCodec;
        let mut buf = BytesMut::new();
        let mut schedule = schedule.into_iter().cycle();
        // Drain every stream according to the schedule.
        while cursors.iter().zip(&streams).any(|(&c, s)| c < s.len()) {
            let pick = schedule.next().expect("cycled") % streams.len();
            let (pick, cursor) = if cursors[pick] < streams[pick].len() {
                (pick, &mut cursors[pick])
            } else {
                // This stream is spent; take the first live one.
                let alive = cursors.iter().zip(&streams).position(|(&c, s)| c < s.len())
                    .expect("loop condition");
                (alive, &mut cursors[alive])
            };
            codec.encode(&Message::StreamFrame { stream: pick as u64 }, 1, &mut buf);
            codec.encode(&streams[pick][*cursor], 1, &mut buf);
            *cursor += 1;
        }
        let mut demux = StreamDemux::new(FixedCodec, 1);
        demux.consume(buf.freeze()).expect("valid interleaving");
        let logs = demux.into_segment_logs();
        for (id, msgs) in streams.iter().enumerate() {
            let want = single_stream_reference(msgs);
            prop_assert_eq!(
                logs.get(&(id as u64)).cloned().unwrap_or_default(),
                want,
                "stream {} diverged from single-stream reconstruction",
                id
            );
        }
    }

    /// Sequenced frames with arbitrary replays of already-delivered
    /// frames (what reconnect storms produce): duplicates are dropped,
    /// logs stay byte-identical to single-stream reconstruction.
    #[test]
    fn duplicated_frames_never_corrupt_the_logs(
        streams in streams_strategy(),
        chop in prop::collection::vec(1usize..4, 1..40),
        replays in prop::collection::vec((0usize..8, 0usize..8), 0..24),
    ) {
        // Chop each stream's messages into sequenced frames.
        let mut frames: Vec<(u64, u64, Bytes)> = Vec::new(); // (stream, seq, bytes)
        for (id, msgs) in streams.iter().enumerate() {
            let mut chop = chop.iter().cycle();
            let mut seq = 0u64;
            let mut i = 0;
            while i < msgs.len() {
                let take = (*chop.next().expect("cycled")).min(msgs.len() - i);
                let mut codec = FixedCodec;
                let mut buf = BytesMut::new();
                codec.encode(&Message::StreamFrame { stream: id as u64 }, 1, &mut buf);
                for m in &msgs[i..i + take] {
                    codec.encode(m, 1, &mut buf);
                }
                seq += 1;
                frames.push((id as u64, seq, buf.freeze()));
                i += take;
            }
        }
        // Deliver in order, splicing in replays of frames already
        // delivered (per stream, a replay re-sends a frame at or before
        // the current delivery point — what a reconnecting sender does).
        let mut demux = StreamDemux::new(FixedCodec, 1);
        let mut delivered: Vec<usize> = Vec::new();
        let mut replays = replays.into_iter();
        for (idx, (stream, seq, bytes)) in frames.iter().enumerate() {
            let outcome = demux.consume_sequenced(*stream, *seq, bytes.clone())
                .expect("in-order frame");
            prop_assert_eq!(outcome, SeqOutcome::Applied);
            delivered.push(idx);
            if let Some((a, b)) = replays.next() {
                for pick in [a, b] {
                    let replay_idx = delivered[pick % delivered.len()];
                    let (rs, rq, rb) = &frames[replay_idx];
                    let outcome = demux
                        .consume_sequenced(*rs, *rq, rb.clone())
                        .expect("replay of a delivered frame");
                    prop_assert_eq!(outcome, SeqOutcome::Duplicate);
                }
            }
        }
        let logs = demux.into_segment_logs();
        for (id, msgs) in streams.iter().enumerate() {
            let want = single_stream_reference(msgs);
            prop_assert_eq!(
                logs.get(&(id as u64)).cloned().unwrap_or_default(),
                want,
                "stream {} corrupted by replayed frames",
                id
            );
        }
    }

    /// A frame from the future (sequence gap) is a typed error and does
    /// not count as applied.
    #[test]
    fn sequence_gaps_are_typed_errors(
        msgs in prop::collection::vec(op_strategy(), 1..8).prop_map(|ops| lower(&ops)),
        gap in 2u64..100,
    ) {
        let mut codec = FixedCodec;
        let mut buf = BytesMut::new();
        codec.encode(&Message::StreamFrame { stream: 1 }, 1, &mut buf);
        for m in &msgs {
            codec.encode(m, 1, &mut buf);
        }
        let mut demux = StreamDemux::new(FixedCodec, 1);
        let got = demux.consume_sequenced(1, gap, buf.freeze());
        prop_assert_eq!(got, Err(ReceiveError::SequenceGap { stream: 1, expected: 1, got: gap }));
        prop_assert_eq!(demux.ack_point(1), 0, "a gapped frame must not be applied");
    }

    /// Truncating the connection at any byte yields a typed error (or a
    /// clean prefix), never a panic — and the messages decoded before
    /// the cut still demux into valid per-stream state.
    #[test]
    fn truncated_tail_bytes_never_panic(
        streams in streams_strategy(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut codec = FixedCodec;
        let mut buf = BytesMut::new();
        for (id, msgs) in streams.iter().enumerate() {
            codec.encode(&Message::StreamFrame { stream: id as u64 }, 1, &mut buf);
            for m in msgs {
                codec.encode(m, 1, &mut buf);
            }
        }
        let full = buf.freeze();
        let cut = ((full.len() as f64) * cut_fraction) as usize;
        let mut demux = StreamDemux::new(FixedCodec, 1);
        match demux.consume(full.slice(0..cut)) {
            Ok(()) => {} // the cut landed on a message boundary
            Err(ReceiveError::Wire(_)) => {} // mid-message cut, typed
            Err(other) => prop_assert!(false, "unexpected error class: {}", other),
        }
        // Whatever survived the cut is still a consistent prefix: no
        // stream has more segments than the uncut run produces.
        let uncut = {
            let mut d = StreamDemux::new(FixedCodec, 1);
            d.consume(full).expect("valid full stream");
            d.into_segment_logs()
        };
        for (stream, log) in demux.into_segment_logs() {
            let max = uncut.get(&stream).map_or(0, |l| l.len());
            prop_assert!(
                log.len() <= max,
                "stream {} invented segments after truncation",
                stream
            );
        }
    }
}
