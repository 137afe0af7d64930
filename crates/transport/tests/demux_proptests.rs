//! Adversarial property tests for [`StreamDemux`]: whatever a hostile
//! or failing transport does to the byte stream — interleaving streams
//! in any order, replaying entries after reconnects, truncating the
//! tail, or handing over arbitrary bytes — the demultiplexer must either
//! reconstruct per-stream segment logs *identical* to single-stream
//! reconstruction, or fail with a typed error. It must never panic and
//! never silently corrupt a log.
//!
//! Sequenced entries follow the header-less contract
//! ([`StreamDemux::consume_sequenced`]): the caller names the stream,
//! the payload is that stream's codec bytes alone, and a `StreamFrame`
//! header inside it is a protocol error.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

use pla_transport::wire::{Codec, CompactCodec, FixedCodec, Message};
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
    let mut rx = Receiver::new(FixedCodec, 1);
    rx.consume(entry(msgs)).expect("valid single-stream sequence");
    rx.into_segments()
}

/// One sequenced entry's payload: `msgs` from a fresh `FixedCodec`,
/// with no stream header.
fn entry(msgs: &[Message]) -> Bytes {
    let mut codec = FixedCodec;
    let mut buf = BytesMut::new();
    for m in msgs {
        codec.encode(m, 1, &mut buf);
    }
    buf.freeze()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of the streams onto one connection — chosen by
    /// an arbitrary schedule, one message per turn — reconstructs each
    /// stream's log exactly as a dedicated single-stream receiver would,
    /// whether each turn is a header-less sequenced entry or a message
    /// behind a `StreamFrame` header on one unsequenced byte stream.
    #[test]
    fn arbitrary_interleavings_match_single_stream_reconstruction(
        streams in streams_strategy(),
        schedule in prop::collection::vec(0usize..16, 1..160),
    ) {
        let mut cursors = vec![0usize; streams.len()];
        let mut seqs = vec![0u64; streams.len()];
        let mut sequenced = StreamDemux::new(FixedCodec, 1);
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
            let msg = &streams[pick][*cursor];
            seqs[pick] += 1;
            let outcome = sequenced
                .consume_sequenced(pick as u64, seqs[pick], entry(std::slice::from_ref(msg)))
                .expect("in-order entry");
            prop_assert_eq!(outcome, SeqOutcome::Applied);
            codec.encode(&Message::StreamFrame { stream: pick as u64 }, 1, &mut buf);
            codec.encode(msg, 1, &mut buf);
            *cursor += 1;
        }
        let mut demux = StreamDemux::new(FixedCodec, 1);
        demux.consume(buf.freeze()).expect("valid interleaving");
        for logs in [demux.into_segment_logs(), sequenced.into_segment_logs()] {
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
    }

    /// Sequenced entries with arbitrary replays of already-delivered
    /// entries (what reconnect storms produce): duplicates are dropped,
    /// logs stay byte-identical to single-stream reconstruction.
    #[test]
    fn duplicated_frames_never_corrupt_the_logs(
        streams in streams_strategy(),
        chop in prop::collection::vec(1usize..4, 1..40),
        replays in prop::collection::vec((0usize..8, 0usize..8), 0..24),
    ) {
        // Chop each stream's messages into header-less sequenced
        // entries.
        let mut frames: Vec<(u64, u64, Bytes)> = Vec::new(); // (stream, seq, bytes)
        for (id, msgs) in streams.iter().enumerate() {
            let mut chop = chop.iter().cycle();
            let mut seq = 0u64;
            let mut i = 0;
            while i < msgs.len() {
                let take = (*chop.next().expect("cycled")).min(msgs.len() - i);
                seq += 1;
                frames.push((id as u64, seq, entry(&msgs[i..i + take])));
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

    /// An entry from the future (sequence gap) is a typed error and
    /// does not count as applied — nor does a valid entry carrying a
    /// `StreamFrame` header, under the header-less contract.
    #[test]
    fn sequence_gaps_are_typed_errors(
        msgs in prop::collection::vec(op_strategy(), 1..8).prop_map(|ops| lower(&ops)),
        gap in 2u64..100,
    ) {
        let mut demux = StreamDemux::new(FixedCodec, 1);
        let got = demux.consume_sequenced(1, gap, entry(&msgs));
        prop_assert_eq!(got, Err(ReceiveError::SequenceGap { stream: 1, expected: 1, got: gap }));
        prop_assert_eq!(demux.ack_point(1), 0, "a gapped entry must not be applied");
        let mut headed = vec![Message::StreamFrame { stream: 1 }];
        headed.extend(msgs.iter().cloned());
        prop_assert!(matches!(
            demux.consume_sequenced(1, 1, entry(&headed)),
            Err(ReceiveError::Protocol(_))
        ));
        prop_assert_eq!(demux.ack_point(1), 0, "a headed entry must not be applied");
        prop_assert_eq!(demux.consume_sequenced(1, 1, entry(&msgs)), Ok(SeqOutcome::Applied));
    }

    /// Truncating the connection at any byte yields a typed error (or a
    /// clean prefix), never a panic — and the messages decoded before
    /// the cut still demux into valid per-stream state. The same holds
    /// for a truncated sequenced entry, which is refused whole: its ack
    /// point does not move.
    #[test]
    fn truncated_tail_bytes_never_panic(
        streams in streams_strategy(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let payload = entry(&streams[0]);
        let entry_cut = ((payload.len() as f64) * cut_fraction) as usize;
        let mut sequenced = StreamDemux::new(FixedCodec, 1);
        match sequenced.consume_sequenced(0, 1, payload.slice(0..entry_cut)) {
            // A cut on a message boundary is a shorter, valid entry.
            Ok(outcome) => prop_assert_eq!(outcome, SeqOutcome::Applied),
            Err(ReceiveError::Wire(_) | ReceiveError::Protocol(_)) => {
                prop_assert_eq!(sequenced.ack_point(0), 0, "a refused entry must not apply");
            }
            Err(other) => prop_assert!(false, "unexpected error class: {}", other),
        }

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

    /// Arbitrary payload bytes under both codecs: each entry either
    /// applies cleanly or is refused with a typed error — never a panic
    /// — and a refused entry leaves the ack point where it was.
    #[test]
    fn arbitrary_entry_payloads_apply_or_fail_typed(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..12),
        compact in any::<bool>(),
    ) {
        if compact {
            feed_arbitrary(CompactCodec::new(0.01, &[0.01]), &payloads)?;
        } else {
            feed_arbitrary(FixedCodec, &payloads)?;
        }
    }
}

/// Feeds each payload as the next entry of stream 3, checking the ack
/// point moves by exactly one per applied entry and not at all per
/// refused one.
fn feed_arbitrary<C: Codec>(
    codec: C,
    payloads: &[Vec<u8>],
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut demux = StreamDemux::new(codec, 1);
    for payload in payloads {
        let before = demux.ack_point(3);
        match demux.consume_sequenced(3, before + 1, Bytes::copy_from_slice(payload)) {
            Ok(outcome) => {
                prop_assert_eq!(outcome, SeqOutcome::Applied);
                prop_assert_eq!(demux.ack_point(3), before + 1);
            }
            Err(ReceiveError::Wire(_) | ReceiveError::Protocol(_)) => {
                prop_assert_eq!(demux.ack_point(3), before, "a refused entry must not apply");
            }
            Err(other) => prop_assert!(false, "unexpected error class: {}", other),
        }
    }
    Ok(())
}
