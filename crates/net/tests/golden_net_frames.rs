//! Golden wire-format pin for the ingest plane: the exact bytes of every
//! ingest-plane frame kind — `Hello`, `HelloAck` (fresh and resuming),
//! `Batch` (including one whose last entry is seq `u64::MAX`), `Ack`
//! (zero, small, grant-carrying and `u64::MAX` points), `Fin` and
//! `Heartbeat` — are checked into
//! `golden_net_frames.bin`. The data section is `Batch` frames whose
//! entries carry every `pla-transport` payload message tag (`Hold`,
//! `Start`, `End`, `Point`, `Provisional`) under both codecs, at d = 1
//! and at d = 5 (past `INLINE_DIMS`, where per-dimension payloads spill
//! to the heap), for two interleaved streams per section; one section's
//! `max_frame` is small enough to split its flush into several batches.
//!
//! Two independent writers must reproduce the file byte for byte: the
//! generic [`encode`] over [`NetFrame`] values (batches packed greedily
//! here, entry by entry), and the [`MuxSender`] hot path, which seals
//! its pending entries into `Batch` frames in place. Any byte change
//! here must come with a `PROTOCOL_VERSION` bump.
//!
//! Deliberate-update path:
//! `cargo test -p pla-net --test golden_net_frames -- --ignored regenerate_golden`

use bytes::BytesMut;

use pla_core::{DimVec, ProvisionalUpdate, Segment};
use pla_net::frame::{encode, Batch, FrameDecoder, NetFrame, PROTOCOL_VERSION};
use pla_net::{MuxSender, NetConfig};
use pla_transport::wire::{
    provisional_message, segment_messages, Codec, CompactCodec, FixedCodec, Message,
};

const GOLDEN: &[u8] = include_bytes!("golden_net_frames.bin");

/// A window no golden script comes close to exhausting.
const WINDOW: u64 = 1 << 20;

/// Every ingest-plane control frame with fixed, representative field
/// values — edge values included (`u64::MAX` ids, seqs and grants,
/// zero points, empty and repeated-stream batch entries).
fn control_frames() -> Vec<NetFrame> {
    vec![
        NetFrame::Hello { version: PROTOCOL_VERSION, token: 0 },
        NetFrame::Hello { version: PROTOCOL_VERSION, token: u64::MAX },
        NetFrame::HelloAck { version: PROTOCOL_VERSION, token: 0, through: 0, granted_total: 0 },
        NetFrame::HelloAck {
            version: PROTOCOL_VERSION,
            token: 0x0123_4567_89AB_CDEF,
            through: 12,
            granted_total: 1 << 20,
        },
        NetFrame::Batch(Batch::from_entries(
            u64::MAX - 3,
            [(0, &[][..]), (7, &[][..]), (7, &[0xAB][..]), (u64::MAX, &[0x00, 0xFF][..])],
        )),
        NetFrame::Ack { through: 0, granted_total: 0 },
        NetFrame::Ack { through: 1, granted_total: 0 },
        NetFrame::Ack { through: 300, granted_total: 1_572_864 },
        NetFrame::Ack { through: u64::MAX, granted_total: u64::MAX },
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

/// One section of the data frames, built both ways.
struct Section {
    /// The frames as [`NetFrame`] values: every entry's payload is the
    /// item's messages from a reset codec (the documented entry
    /// contract), the entries packed greedily into batches no longer
    /// than `max_frame`, then the streams' `Fin`s.
    frames: Vec<NetFrame>,
    /// The same frames as a `MuxSender` stages them.
    mux_bytes: Vec<u8>,
    /// Which message tags the payloads carry, decoded with the codec.
    tags: [bool; 5],
}

/// The encoded length prefix of `frame`.
fn frame_len(frame: &NetFrame) -> usize {
    let mut buf = BytesMut::new();
    encode(frame, &mut buf) - 4
}

/// A `Batch` of `entries` from session seq `base`.
fn batch(base: u64, entries: &[(u64, Vec<u8>)]) -> NetFrame {
    NetFrame::Batch(Batch::from_entries(base, entries.iter().map(|(s, p)| (*s, &p[..]))))
}

/// Sends the script on streams `a < b` alternately, one flush at the
/// end (`finish_all`): the flush sorts by stream, so all of `a`'s
/// entries take session seqs 1..=n and `b`'s the next n.
fn section<C: Codec + Clone>(codec: C, streams: [u64; 2], d: usize, max_frame: u32) -> Section {
    let items = script(d);
    let mut enc = codec.clone();
    let mut entries: Vec<(u64, Vec<u8>)> = Vec::new();
    for stream in streams {
        for item in &items {
            let mut msgs = Vec::new();
            match item {
                Item::Segment(seg) => segment_messages(seg, |m| msgs.push(m)),
                Item::Provisional(u) => msgs.push(provisional_message(u)),
            }
            let mut payload = BytesMut::new();
            enc.reset();
            for m in &msgs {
                enc.encode(m, d, &mut payload);
            }
            entries.push((stream, payload.to_vec()));
        }
    }
    let mut frames = Vec::new();
    let mut base = 1;
    let mut open: Vec<(u64, Vec<u8>)> = Vec::new();
    for entry in entries.iter().cloned() {
        open.push(entry);
        if open.len() > 1 && frame_len(&batch(base, &open)) > max_frame as usize {
            let next = open.pop().expect("just pushed");
            frames.push(batch(base, &open));
            base += open.len() as u64;
            open = vec![next];
        }
    }
    frames.push(batch(base, &open));
    // Both streams finish after the one flush: each `Fin` names the last
    // seq sealed.
    for stream in streams {
        frames.push(NetFrame::Fin { stream, final_seq: entries.len() as u64 });
    }

    let mut tx = MuxSender::new(codec.clone(), d, NetConfig { window: WINDOW, max_frame });
    for item in &items {
        for stream in streams.into_iter().rev() {
            match item {
                Item::Segment(seg) => tx.try_send_segment(stream, seg).unwrap(),
                Item::Provisional(u) => tx.try_send_provisional(stream, u).unwrap(),
            }
        }
    }
    tx.finish_all();
    let mux_bytes = tx.take_staged();

    let mut dec = codec;
    let mut tags = [false; 5];
    for (_, payload) in &entries {
        dec.reset();
        let mut bytes = bytes::Bytes::copy_from_slice(payload);
        while !bytes.is_empty() {
            let tag = match dec.decode(&mut bytes, d).expect("golden payload decodes") {
                Message::Hold { .. } => 0,
                Message::Start { .. } => 1,
                Message::End { .. } => 2,
                Message::Point { .. } => 3,
                Message::Provisional { .. } => 4,
                Message::StreamFrame { .. } => panic!("entries carry no stream header"),
            };
            tags[tag] = true;
        }
    }
    Section { frames, mux_bytes, tags }
}

/// The codec/dimension matrix the data section covers, each on its own
/// pair of stream ids. The first section's small `max_frame` splits its
/// flush into several batches.
fn sections() -> Vec<Section> {
    vec![
        section(FixedCodec, [11, 300], 1, 96),
        section(FixedCodec, [u64::MAX - 1, u64::MAX], 5, 1 << 20),
        section(compact(1), [13, 14], 1, 1 << 20),
        section(compact(5), [0, 1 << 40], 5, 1 << 20),
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

/// The same bytes, with every data-section `Batch`/`Fin` frame written
/// by a `MuxSender` instead of the generic encoder.
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
    assert_eq!(mux_all(), GOLDEN, "the sender's in-place Batch encoding drifted from the contract");
}

#[test]
fn golden_file_is_for_protocol_version_5() {
    assert_eq!(PROTOCOL_VERSION, 5, "regenerate the golden file when the version moves");
    assert_eq!(&GOLDEN[5..7], &5u16.to_le_bytes(), "golden Hello must advertise version 5");
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

/// Coverage pin: under each codec and dimension, the entry payloads
/// carry every payload message tag, and the small-`max_frame` section
/// really splits its flush.
#[test]
fn data_payloads_cover_every_message_tag() {
    for (i, s) in sections().iter().enumerate() {
        assert_eq!(s.tags, [true; 5], "section {i} misses a message tag");
    }
    let batches = |s: &Section| s.frames.iter().filter(|f| matches!(f, NetFrame::Batch(_))).count();
    let sections = sections();
    assert!(batches(&sections[0]) >= 3, "the first section must split its flush");
    assert!(sections[1..].iter().all(|s| batches(s) == 1), "one batch per roomy flush");
}

/// Deliberate-update path for the wire contract.
#[test]
#[ignore]
fn regenerate_golden() {
    std::fs::write("tests/golden_net_frames.bin", encode_all()).unwrap();
}
