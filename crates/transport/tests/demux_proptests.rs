//! Adversarial property tests for [`StreamDemux::consume_next`], the
//! demultiplexer's one entry point: whatever a hostile or failing
//! transport does to the entries — interleaving streams in any order,
//! chopping them at any message boundary, truncating the tail, or
//! handing over arbitrary bytes — the demultiplexer must either
//! reconstruct per-stream segment logs *identical* to single-stream
//! reconstruction, or fail with a typed error. It must never panic and
//! never silently corrupt a log. Every property runs under both codecs.
//!
//! An entry is one stream's codec bytes alone, coded from a reset codec;
//! the caller names its stream. Ordering and deduplication belong to the
//! transport (`pla-net`'s session sequence), not to the demultiplexer.

use std::collections::VecDeque;

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;

use pla_transport::wire::{Codec, CompactCodec, FixedCodec, Message, WireError};
use pla_transport::{ReceiveError, Receiver, StreamDemux};

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

/// The codec under test: lossless fixed-width, or compact with quanta
/// fine enough for the generated values.
#[derive(Debug, Clone)]
enum AnyCodec {
    Fixed(FixedCodec),
    Compact(CompactCodec),
}

impl AnyCodec {
    fn new(compact: bool) -> Self {
        if compact {
            Self::Compact(CompactCodec::new(0.01, &[0.01]))
        } else {
            Self::Fixed(FixedCodec)
        }
    }
}

impl Codec for AnyCodec {
    fn encode(&mut self, msg: &Message, dims: usize, out: &mut BytesMut) -> usize {
        match self {
            Self::Fixed(c) => c.encode(msg, dims, out),
            Self::Compact(c) => c.encode(msg, dims, out),
        }
    }

    fn decode(&mut self, buf: &mut Bytes, dims: usize) -> Result<Message, WireError> {
        match self {
            Self::Fixed(c) => c.decode(buf, dims),
            Self::Compact(c) => c.decode(buf, dims),
        }
    }

    fn reset(&mut self) {
        match self {
            Self::Fixed(c) => c.reset(),
            Self::Compact(c) => c.reset(),
        }
    }
}

/// `msgs` coded from a fresh copy of `codec`: one entry's payload, or
/// (for the reference) a whole single-stream connection.
fn encode(codec: &AnyCodec, msgs: &[Message]) -> Bytes {
    let mut codec = codec.clone();
    let mut buf = BytesMut::new();
    for m in msgs {
        codec.encode(m, 1, &mut buf);
    }
    buf.freeze()
}

/// The single-stream reference: what a dedicated `Receiver` makes of
/// one stream's messages alone, sent as one uninterrupted byte stream.
fn single_stream_reference(codec: &AnyCodec, msgs: &[Message]) -> Vec<pla_core::Segment> {
    let mut rx = Receiver::new(codec.clone(), 1);
    rx.consume(encode(codec, msgs)).expect("valid single-stream sequence");
    rx.into_segments()
}

/// Chops every stream into entries of 1–3 messages (sizes cycled from
/// `chop`) and interleaves them by `schedule`: each turn sends the next
/// entry of the picked stream, or of the first live one if the picked
/// stream is spent. Returns `(stream, payload)` in delivery order.
fn interleave(
    codec: &AnyCodec,
    streams: &[Vec<Message>],
    chop: &[usize],
    schedule: &[usize],
) -> Vec<(u64, Bytes)> {
    let mut queues: Vec<VecDeque<Bytes>> = streams
        .iter()
        .map(|msgs| {
            let mut sizes = chop.iter().cycle();
            let mut out = VecDeque::new();
            let mut i = 0;
            while i < msgs.len() {
                let take = (*sizes.next().expect("cycled")).min(msgs.len() - i);
                out.push_back(encode(codec, &msgs[i..i + take]));
                i += take;
            }
            out
        })
        .collect();
    let mut schedule = schedule.iter().cycle();
    let mut delivery = Vec::new();
    while let Some(alive) = queues.iter().position(|q| !q.is_empty()) {
        let pick = schedule.next().expect("cycled") % queues.len();
        let pick = if queues[pick].is_empty() { alive } else { pick };
        delivery.push((pick as u64, queues[pick].pop_front().expect("live stream")));
    }
    delivery
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of the streams' entries onto one connection,
    /// with entries chopped at any message boundary, reconstructs each
    /// stream's log exactly as a dedicated single-stream receiver would.
    #[test]
    fn arbitrary_interleavings_match_single_stream_reconstruction(
        streams in streams_strategy(),
        chop in prop::collection::vec(1usize..4, 1..40),
        schedule in prop::collection::vec(0usize..16, 1..160),
        compact in any::<bool>(),
    ) {
        let codec = AnyCodec::new(compact);
        let delivery = interleave(&codec, &streams, &chop, &schedule);
        let mut demux = StreamDemux::new(codec.clone(), 1);
        for (stream, payload) in &delivery {
            let before = demux.entries_applied(*stream);
            demux.consume_next(*stream, payload.clone()).expect("valid entry");
            prop_assert_eq!(demux.entries_applied(*stream), before + 1);
        }
        let logs = demux.into_segment_logs();
        for (id, msgs) in streams.iter().enumerate() {
            prop_assert_eq!(
                logs.get(&(id as u64)).cloned().unwrap_or_default(),
                single_stream_reference(&codec, msgs),
                "stream {} diverged from single-stream reconstruction",
                id
            );
        }
    }

    /// Truncating the connection at any byte — every entry before the
    /// cut delivered whole, the one it lands in cut short — yields a
    /// typed error (or a shorter valid entry), never a panic. A refused
    /// entry does not count as applied and registers no stream it would
    /// have introduced, and no stream ends up with more segments than
    /// the uncut run gives it.
    #[test]
    fn truncated_tail_bytes_never_panic(
        streams in streams_strategy(),
        chop in prop::collection::vec(1usize..4, 1..40),
        schedule in prop::collection::vec(0usize..16, 1..160),
        cut_fraction in 0.0f64..1.0,
        compact in any::<bool>(),
    ) {
        let codec = AnyCodec::new(compact);
        let delivery = interleave(&codec, &streams, &chop, &schedule);
        let total: usize = delivery.iter().map(|(_, p)| p.len()).sum();
        let mut left = ((total as f64) * cut_fraction) as usize;
        let mut demux = StreamDemux::new(codec.clone(), 1);
        for (stream, payload) in &delivery {
            if left >= payload.len() {
                demux.consume_next(*stream, payload.clone()).expect("whole entry");
                left -= payload.len();
                continue;
            }
            let known = demux.streams().any(|s| s == *stream);
            let before = demux.entries_applied(*stream);
            match demux.consume_next(*stream, payload.slice(0..left)) {
                // A cut on a message boundary is a shorter, valid entry.
                Ok(_) => prop_assert_eq!(demux.entries_applied(*stream), before + 1),
                Err(ReceiveError::Wire(_) | ReceiveError::Protocol(_)) => {
                    prop_assert_eq!(demux.entries_applied(*stream), before, "a refused entry must not apply");
                    prop_assert_eq!(
                        demux.streams().any(|s| s == *stream),
                        known,
                        "a refused entry must not register its stream"
                    );
                }
            }
            break;
        }
        let mut uncut = StreamDemux::new(codec, 1);
        for (stream, payload) in delivery {
            uncut.consume_next(stream, payload).expect("whole entry");
        }
        let uncut = uncut.into_segment_logs();
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
    /// — and a refused entry leaves the applied count where it was and
    /// registers no stream.
    #[test]
    fn arbitrary_entry_payloads_apply_or_fail_typed(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..12),
        compact in any::<bool>(),
    ) {
        let mut demux = StreamDemux::new(AnyCodec::new(compact), 1);
        for payload in &payloads {
            let before = demux.entries_applied(3);
            match demux.consume_next(3, Bytes::copy_from_slice(payload)) {
                Ok(_) => prop_assert_eq!(demux.entries_applied(3), before + 1),
                Err(ReceiveError::Wire(_) | ReceiveError::Protocol(_)) => {
                    prop_assert_eq!(demux.entries_applied(3), before, "a refused entry must not apply");
                }
            }
            prop_assert_eq!(
                demux.streams().count(),
                usize::from(demux.entries_applied(3) > 0),
                "only an applied entry registers its stream"
            );
        }
    }
}
