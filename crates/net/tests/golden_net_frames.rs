//! Golden wire-format pin for the ingest plane: the exact bytes of every
//! ingest-plane frame kind — `Hello`, `HelloAck` (with and without resume
//! cursors), `Data`, `Ack`, `Credit`, `Fin` and `Heartbeat` — are checked
//! into `golden_net_frames.bin`. The `Data` section carries payloads with
//! every `pla-transport` message tag (`StreamFrame`, `Hold`, `Start`,
//! `End`, `Point`, `Provisional`) under both codecs, at d = 1 and at
//! d = 5 (past `INLINE_DIMS`, where per-dimension payloads spill to the
//! heap).
//!
//! Two independent writers must reproduce the file byte for byte: the
//! generic [`encode`] over [`NetFrame`] values, and the [`MuxSender`] hot
//! path, which encodes its `Data` frames in place. Any byte change here
//! must come with a `PROTOCOL_VERSION` bump.
//!
//! Deliberate-update path:
//! `cargo test -p pla-net --test golden_net_frames -- --ignored regenerate_golden`

use bytes::{Bytes, BytesMut};

use pla_core::{DimVec, ProvisionalUpdate, Segment};
use pla_net::frame::{encode, FrameDecoder, NetFrame, ResumeCursor, PROTOCOL_VERSION};
use pla_net::{MuxSender, NetConfig};
use pla_transport::wire::{
    provisional_message, segment_messages, Codec, CompactCodec, FixedCodec, Message,
};

const GOLDEN: &[u8] = include_bytes!("golden_net_frames.bin");

/// A window no golden script comes close to exhausting.
const CONFIG: NetConfig = NetConfig { window: 1 << 20, max_frame: 1 << 20 };

/// Every ingest-plane control frame with fixed, representative field
/// values — edge values included (`u64::MAX` ids, zero sequence numbers,
/// empty cursor lists, an empty `Data` payload).
fn control_frames() -> Vec<NetFrame> {
    vec![
        NetFrame::Hello { version: PROTOCOL_VERSION, token: 0 },
        NetFrame::Hello { version: PROTOCOL_VERSION, token: u64::MAX },
        NetFrame::HelloAck { version: PROTOCOL_VERSION, token: 0, cursors: vec![] },
        NetFrame::HelloAck {
            version: PROTOCOL_VERSION,
            token: 0x0123_4567_89AB_CDEF,
            cursors: vec![
                ResumeCursor { stream: 3, through_seq: 12, granted_total: 65_536 },
                ResumeCursor { stream: u64::MAX, through_seq: 0, granted_total: 0 },
            ],
        },
        NetFrame::Data { stream: 7, seq: 1, payload: Bytes::from(vec![]) },
        NetFrame::Ack { stream: 7, through_seq: 1 },
        NetFrame::Ack { stream: u64::MAX, through_seq: u64::MAX },
        NetFrame::Credit { stream: 7, granted_total: 98_304 },
        NetFrame::Fin { stream: 7, final_seq: 0 },
        NetFrame::Fin { stream: 7, final_seq: 1 },
        NetFrame::Heartbeat { seq: 0 },
        NetFrame::Heartbeat { seq: u64::MAX },
    ]
}

/// One scripted send: a finalized segment or a provisional update.
enum Item {
    Segment(Segment),
    Provisional(ProvisionalUpdate),
}

fn values(d: usize, base: f64) -> DimVec<f64> {
    DimVec::from_fn(d, |i| base + 0.25 * i as f64 - 1.5 * (i % 2) as f64)
}

fn segment(d: usize, t0: f64, x0: f64, t1: f64, x1: f64, connected: bool) -> Segment {
    Segment {
        t_start: t0,
        x_start: values(d, x0),
        t_end: t1,
        x_end: values(d, x1),
        connected,
        n_points: 3,
        new_recordings: if connected { 1 } else { 2 },
    }
}

/// A script whose segments map onto every payload message tag (see
/// `segment_messages`): a point, a hold, a disconnected Start+End pair,
/// a connected End, and a provisional line.
fn script(d: usize) -> Vec<Item> {
    let mut hold = segment(d, 10.0, -0.0, 12.5, -0.0, false);
    hold.new_recordings = 1;
    vec![
        Item::Segment(segment(d, 0.0, 1.5, 0.0, 1.5, false)),
        Item::Segment(hold),
        Item::Segment(segment(d, 13.0, 2.0, 20.25, -7.75, false)),
        Item::Segment(segment(d, 20.25, -7.75, 31.0, 1e6, true)),
        Item::Provisional(ProvisionalUpdate {
            t_anchor: 31.0,
            x_anchor: values(d, 1e6),
            slopes: DimVec::from_fn(d, |i| 0.5 - 0.125 * i as f64),
            covers_through: 33.5,
        }),
        Item::Segment(segment(d, 31.0, 1e6, 40.0, 3.25, true)),
    ]
}

fn compact(d: usize) -> CompactCodec {
    let quanta: Vec<f64> = (0..d).map(|i| 0.01 * (i + 1) as f64).collect();
    CompactCodec::new(0.001, &quanta)
}

/// One stream's share of the `Data` section, built both ways.
struct Section {
    /// The frames as [`NetFrame`] values: each payload is the stream's
    /// `StreamFrame` header plus the item's messages from a reset codec
    /// (the documented `Data` payload contract), then the stream's `Fin`.
    frames: Vec<NetFrame>,
    /// The same frames as a `MuxSender` stages them.
    mux_bytes: Vec<u8>,
    /// Which message tags the payloads carry, decoded with the codec.
    tags: [bool; 6],
}

fn section<C: Codec + Clone>(codec: C, stream: u64, d: usize) -> Section {
    let mut enc = codec.clone();
    let mut frames = Vec::new();
    let items = script(d);
    for (i, item) in items.iter().enumerate() {
        let mut msgs = Vec::new();
        match item {
            Item::Segment(seg) => segment_messages(seg, |m| msgs.push(m)),
            Item::Provisional(u) => msgs.push(provisional_message(u)),
        }
        let mut payload = BytesMut::new();
        enc.reset();
        enc.encode(&Message::StreamFrame { stream }, d, &mut payload);
        for m in &msgs {
            enc.encode(m, d, &mut payload);
        }
        frames.push(NetFrame::Data { stream, seq: i as u64 + 1, payload: payload.freeze() });
    }
    frames.push(NetFrame::Fin { stream, final_seq: items.len() as u64 });

    let mut tx = MuxSender::new(codec.clone(), d, CONFIG);
    for item in &items {
        match item {
            Item::Segment(seg) => tx.try_send_segment(stream, seg).unwrap(),
            Item::Provisional(u) => tx.try_send_provisional(stream, u).unwrap(),
        }
    }
    tx.finish_stream(stream).unwrap();
    let mux_bytes = tx.take_staged();

    let mut dec = codec;
    let mut tags = [false; 6];
    for frame in &frames {
        let NetFrame::Data { payload, .. } = frame else { continue };
        dec.reset();
        let mut bytes = payload.clone();
        while !bytes.is_empty() {
            let tag = match dec.decode(&mut bytes, d).expect("golden payload decodes") {
                Message::Hold { .. } => 0,
                Message::Start { .. } => 1,
                Message::End { .. } => 2,
                Message::Point { .. } => 3,
                Message::Provisional { .. } => 4,
                Message::StreamFrame { .. } => 5,
            };
            tags[tag] = true;
        }
    }
    Section { frames, mux_bytes, tags }
}

/// The codec/dimension matrix the `Data` section covers, each on its own
/// stream id.
fn sections() -> Vec<Section> {
    vec![
        section(FixedCodec, 11, 1),
        section(FixedCodec, u64::MAX, 5),
        section(compact(1), 13, 1),
        section(compact(5), 14, 5),
    ]
}

fn golden_frames() -> Vec<NetFrame> {
    let mut frames = control_frames();
    for s in sections() {
        frames.extend(s.frames);
    }
    frames
}

fn encode_all() -> Vec<u8> {
    let mut buf = BytesMut::new();
    for frame in golden_frames() {
        encode(&frame, &mut buf);
    }
    buf.to_vec()
}

/// The same bytes, with every `Data`/`Fin` frame written by a
/// `MuxSender` instead of the generic encoder.
fn mux_all() -> Vec<u8> {
    let mut buf = BytesMut::new();
    for frame in control_frames() {
        encode(&frame, &mut buf);
    }
    let mut out = buf.to_vec();
    for s in sections() {
        out.extend(s.mux_bytes);
    }
    out
}

#[test]
fn generic_encoder_matches_the_golden_file() {
    assert_eq!(
        encode_all(),
        GOLDEN,
        "ingest wire bytes are a versioned contract; if this change is deliberate, bump \
         pla_net::frame::PROTOCOL_VERSION and regenerate tests/golden_net_frames.bin \
         with the #[ignore] regenerate_golden test"
    );
}

#[test]
fn mux_sender_matches_the_golden_file() {
    assert_eq!(mux_all(), GOLDEN, "the sender's in-place Data encoding drifted from the contract");
}

#[test]
fn golden_file_is_for_protocol_version_2() {
    assert_eq!(PROTOCOL_VERSION, 2, "regenerate the golden file when the version moves");
    assert_eq!(&GOLDEN[5..7], &2u16.to_le_bytes(), "golden Hello must advertise version 2");
}

#[test]
fn golden_file_redecodes_losslessly() {
    let mut decoder = FrameDecoder::new(1 << 20);
    decoder.extend(GOLDEN);
    let mut decoded = Vec::new();
    while let Some(frame) = decoder.try_next().expect("golden bytes decode") {
        decoded.push(frame);
    }
    assert_eq!(decoder.pending(), 0);
    assert_eq!(decoded, golden_frames(), "decode(golden) must reproduce the frames exactly");
}

/// Coverage pin: under each codec and dimension, the `Data` payloads
/// carry every message tag.
#[test]
fn data_payloads_cover_every_message_tag() {
    for (i, s) in sections().iter().enumerate() {
        assert_eq!(s.tags, [true; 6], "section {i} misses a message tag");
    }
}

/// Deliberate-update path for the wire contract.
#[test]
#[ignore]
fn regenerate_golden() {
    std::fs::write("tests/golden_net_frames.bin", encode_all()).unwrap();
}
