//! Hostile-bytes harness for [`FrameDecoder`], the first decoder every
//! network peer reaches: arbitrary byte strings, arbitrary bodies behind
//! a well-formed length prefix, and truncations and single-byte
//! mutations of every frame in the two golden wire files must each
//! decode to a frame, wait for more bytes, or fail with a typed
//! [`FrameError`] — never panic. Any frame that does decode must survive
//! an encode/decode round trip unchanged.
//!
//! The variable-length fields (varints, cursor lists and batches) are
//! also pinned against the inputs a hostile peer would reach for: an
//! over-long varint, a varint past `u64::MAX`, a stream delta that
//! overflows, a cursor or entry count the body cannot hold, seq 0, a
//! payload length past the body, and trailing bytes after the last
//! cursor or entry. Each is refused before anything is sized from it,
//! measured by the counting allocator below: no allocation at all,
//! except that a cursor list whose count the body can hold is allocated
//! once before its cursors are read. A `Batch` is validated whole before
//! its one body copy, so every refused batch — truncated golden batches
//! included — allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::BytesMut;
use proptest::prelude::*;

use pla_net::frame::{encode, FrameDecoder, FrameError, NetFrame};

const NET_GOLDEN: &[u8] = include_bytes!("golden_net_frames.bin");
const QUERY_GOLDEN: &[u8] = include_bytes!("../../query/tests/golden_query_frames.bin");

const MAX_FRAME: u32 = 1 << 16;

const KIND_ACK: u8 = 2;
const KIND_HELLO_ACK: u8 = 6;
const KIND_BATCH: u8 = 12;

thread_local! {
    /// Allocation events on this thread; const-initialized with no
    /// destructor, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] wrapper counting allocation requests per thread.
struct CountingAllocator;

// SAFETY: delegates verbatim to `System`; the counter carries no
// allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Splits a golden file into its frames (length prefix included).
fn split_frames(bytes: &[u8]) -> Vec<&[u8]> {
    let mut frames = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        frames.push(&bytes[at..at + 4 + len]);
        at += 4 + len;
    }
    frames
}

fn golden_frames() -> Vec<&'static [u8]> {
    let mut frames = split_frames(NET_GOLDEN);
    frames.extend(split_frames(QUERY_GOLDEN));
    frames
}

/// `[len][kind][body]` with a length prefix that matches.
fn framed(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut out = ((1 + body.len()) as u32).to_le_bytes().to_vec();
    out.push(kind);
    out.extend_from_slice(body);
    out
}

/// Decodes everything `bytes` holds. Returns the error that stopped
/// decoding, if any; every frame decoded on the way must re-encode to
/// bytes that decode back to the same frame.
fn decode_all(bytes: &[u8]) -> Option<FrameError> {
    let mut dec = FrameDecoder::new(MAX_FRAME);
    dec.extend(bytes);
    loop {
        match dec.try_next() {
            Ok(Some(frame)) => assert_round_trips(&frame),
            Ok(None) => return None,
            Err(e) => return Some(e),
        }
    }
}

fn assert_round_trips(frame: &NetFrame) {
    let mut buf = BytesMut::new();
    encode(frame, &mut buf);
    let mut dec = FrameDecoder::new(u32::MAX);
    dec.extend(&buf);
    assert_eq!(dec.try_next().as_ref(), Ok(&Some(frame.clone())), "re-encoded {frame:?}");
    assert_eq!(dec.pending(), 0);
}

/// Decodes exactly one frame from `bytes`, returning the result and the
/// heap allocations `try_next` performed.
fn decode_one(bytes: &[u8]) -> (Result<Option<NetFrame>, FrameError>, u64) {
    let mut dec = FrameDecoder::new(MAX_FRAME);
    dec.extend(bytes);
    let before = ALLOCS.with(Cell::get);
    let result = dec.try_next();
    let allocs = ALLOCS.with(Cell::get) - before;
    (result, allocs)
}

/// Asserts `bytes` is refused with `Malformed(what)` and that the
/// refusal allocated nothing.
fn assert_refused_without_allocating(bytes: &[u8], what: &'static str) {
    let (result, allocs) = decode_one(bytes);
    assert_eq!(result, Err(FrameError::Malformed(what)));
    assert_eq!(allocs, 0, "refusing {what:?} allocated {allocs} times");
}

#[test]
fn golden_files_decode_as_whole_frames() {
    for frame in golden_frames() {
        assert_eq!(decode_all(frame), None, "golden frame {frame:?} must decode cleanly");
    }
}

#[test]
fn every_truncation_of_every_golden_frame_is_typed() {
    for frame in golden_frames() {
        for cut in 0..frame.len() {
            // The prefix as it arrives: the decoder waits for the rest.
            let (result, _) = decode_one(&frame[..cut]);
            assert_eq!(result, Ok(None), "a {cut}-byte prefix must wait for more bytes");
            // The prefix re-framed as if it were whole: shorter bodies
            // are frames of their own or typed errors.
            if cut >= 5 {
                let body = &frame[5..cut];
                let _ = decode_all(&framed(frame[4], body));
            }
        }
    }
}

#[test]
fn every_single_byte_mutation_of_every_golden_frame_is_typed() {
    for frame in golden_frames() {
        for at in 0..frame.len() {
            for value in [0x00, 0x01, 0x02, 0x7F, 0x80, 0xFF, frame[at] ^ 0x01, frame[at] ^ 0x80] {
                let mut mutated = frame.to_vec();
                mutated[at] = value;
                let _ = decode_all(&mutated);
            }
        }
    }
}

/// The varint of `u64::MAX`: nine 0xFF bytes and a final 0x01.
const MAX_VARINT: [u8; 10] = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];

#[test]
fn an_over_long_varint_is_refused_without_allocating() {
    // A `Batch` entry count whose continuation bit never clears.
    let mut body = vec![0x80; 10];
    body.push(0x01);
    body.extend_from_slice(&[1, 9, 9]);
    assert_refused_without_allocating(&framed(KIND_BATCH, &body), "varint longer than 10 bytes");
}

#[test]
fn a_varint_past_u64_max_is_refused_without_allocating() {
    // Ten bytes, but the last one carries bits 64 and up.
    let mut body = vec![0xFF; 9];
    body.push(0x02);
    body.push(1);
    assert_refused_without_allocating(&framed(KIND_BATCH, &body), "varint overflows u64");
    // The largest value that fits still decodes: one entry on stream
    // u64::MAX.
    let mut body = vec![1];
    body.extend_from_slice(&MAX_VARINT);
    body.extend_from_slice(&[1, 0]);
    let (result, _) = decode_one(&framed(KIND_BATCH, &body));
    let Ok(Some(NetFrame::Batch(batch))) = result else { panic!("a valid batch: {result:?}") };
    let entries: Vec<(u64, u64, usize)> =
        batch.entries().map(|e| (e.stream, e.seq, e.payload.len())).collect();
    assert_eq!(entries, [(u64::MAX, 1, 0)]);
}

#[test]
fn a_batch_entry_count_the_body_cannot_back_is_refused_without_allocating() {
    // Count u64::MAX over three bytes: nothing may be sized from it.
    let mut body = MAX_VARINT.to_vec();
    body.extend_from_slice(&[1, 1, 0]);
    assert_refused_without_allocating(
        &framed(KIND_BATCH, &body),
        "batch entry count exceeds the frame body",
    );
    // Count 2 with five bytes, one short of two minimal entries.
    assert_refused_without_allocating(
        &framed(KIND_BATCH, &[2, 1, 1, 0, 2, 1]),
        "batch entry count exceeds the frame body",
    );
    // Count 2 backed by six bytes, but the first entry's payload takes
    // the bytes the second one needs.
    assert_refused_without_allocating(
        &framed(KIND_BATCH, &[2, 1, 1, 1, 9, 2, 1]),
        "truncated varint",
    );
    // A zero count is no batch at all.
    assert_refused_without_allocating(&framed(KIND_BATCH, &[0]), "batch frame carries no entries");
}

#[test]
fn a_batch_stream_delta_that_overflows_is_refused_without_allocating() {
    // Stream u64::MAX, then a delta of 1 past it.
    let mut body = vec![2];
    body.extend_from_slice(&MAX_VARINT);
    body.extend_from_slice(&[1, 0, 1, 1, 0]);
    assert_refused_without_allocating(
        &framed(KIND_BATCH, &body),
        "batch stream delta overflows u64",
    );
}

#[test]
fn a_batch_entry_with_seq_zero_is_refused_without_allocating() {
    assert_refused_without_allocating(
        &framed(KIND_BATCH, &[1, 5, 0, 1, 9]),
        "batch entry seq must be at least 1",
    );
    // A repeated stream must carry the next seq, not skip or repeat one.
    for seq in [1, 3] {
        assert_refused_without_allocating(
            &framed(KIND_BATCH, &[2, 5, 1, 0, 0, seq, 0]),
            "repeated batch stream skips a seq",
        );
    }
}

#[test]
fn a_batch_payload_length_past_the_body_is_refused_without_allocating() {
    assert_refused_without_allocating(
        &framed(KIND_BATCH, &[1, 5, 1, 4, 9, 9, 9]),
        "batch payload runs past the frame body",
    );
    let mut body = vec![1, 5, 1];
    body.extend_from_slice(&MAX_VARINT);
    assert_refused_without_allocating(
        &framed(KIND_BATCH, &body),
        "batch payload runs past the frame body",
    );
}

#[test]
fn trailing_bytes_after_the_last_batch_entry_are_refused_without_allocating() {
    assert_refused_without_allocating(
        &framed(KIND_BATCH, &[1, 5, 1, 1, 9, 0xAA]),
        "trailing bytes after the last batch entry",
    );
}

/// Every strict truncation of a golden batch body, re-framed as if it
/// were whole, is a typed refusal that allocated nothing — the decoder
/// validates a batch before it copies any of it.
#[test]
fn every_truncated_golden_batch_is_refused_without_allocating() {
    let batches: Vec<&[u8]> =
        split_frames(NET_GOLDEN).into_iter().filter(|f| f[4] == KIND_BATCH).collect();
    assert!(batches.len() >= 8, "the golden file holds the batch section");
    for frame in batches {
        for cut in 5..frame.len() {
            let (result, allocs) = decode_one(&framed(KIND_BATCH, &frame[5..cut]));
            assert!(matches!(result, Err(FrameError::Malformed(_))), "cut {cut}: {result:?}");
            assert_eq!(allocs, 0, "refusing a {cut}-byte cut allocated {allocs} times");
        }
    }
}

#[test]
fn a_stream_delta_that_overflows_is_refused_without_allocating() {
    // Two cursors: stream u64::MAX, then a delta of 1 past it. The count
    // fits the body, so the cursor list itself is allocated first — the
    // overflow must be refused without allocating anything further.
    let mut body = vec![2];
    body.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0, 0]);
    body.extend_from_slice(&[1, 0, 0]);
    let (result, allocs) = decode_one(&framed(KIND_ACK, &body));
    assert_eq!(result, Err(FrameError::Malformed("cursor stream delta overflows u64")));
    assert!(allocs <= 1, "only the cursor list itself may be allocated, got {allocs}");
}

#[test]
fn a_cursor_count_the_body_cannot_hold_is_refused_without_allocating() {
    // Count u64::MAX, three bytes of body: nothing may be sized from it.
    let mut body = vec![0xFF; 9];
    body.extend_from_slice(&[0x01, 1, 2, 3]);
    assert_refused_without_allocating(
        &framed(KIND_ACK, &body),
        "cursor count exceeds the frame body",
    );
    // Count 2 with one cursor's worth of bytes (five, one short of two
    // minimal cursors).
    assert_refused_without_allocating(
        &framed(KIND_ACK, &[2, 1, 1, 1, 1, 1]),
        "cursor count exceeds the frame body",
    );
    // The same bound holds for a `HelloAck`'s resume cursors.
    let mut body = vec![3, 0];
    body.extend_from_slice(&7u64.to_le_bytes());
    body.extend_from_slice(&[0x80, 0x80, 0x04, 1, 1, 1]);
    assert_refused_without_allocating(
        &framed(KIND_HELLO_ACK, &body),
        "cursor count exceeds the frame body",
    );
}

#[test]
fn trailing_bytes_after_the_last_cursor_are_refused() {
    assert_refused_without_allocating(
        &framed(KIND_ACK, &[0, 0]),
        "trailing bytes after the last cursor",
    );
    let (result, _) = decode_one(&framed(KIND_ACK, &[1, 3, 9, 0, 0]));
    assert_eq!(result, Err(FrameError::Malformed("trailing bytes after the last cursor")));
    let mut body = vec![3, 0];
    body.extend_from_slice(&7u64.to_le_bytes());
    body.extend_from_slice(&[1, 3, 9, 0, 0xAA]);
    let (result, _) = decode_one(&framed(KIND_HELLO_ACK, &body));
    assert_eq!(result, Err(FrameError::Malformed("trailing bytes after the last cursor")));
}

#[test]
fn repeated_cursor_streams_are_refused() {
    let (result, _) = decode_one(&framed(KIND_ACK, &[2, 3, 1, 0, 0, 2, 0]));
    assert_eq!(result, Err(FrameError::Malformed("cursor streams must ascend strictly")));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_all(&bytes);
    }

    /// Arbitrary bodies behind a matching length prefix and a kind byte
    /// drawn around the valid range, so every kind's parser sees them.
    #[test]
    fn arbitrary_bodies_of_every_kind_are_typed(
        kind in 0u8..13,
        body in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = decode_all(&framed(kind, &body));
    }

    #[test]
    fn random_mutations_of_golden_frames_are_typed(
        pick in any::<usize>(),
        edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let frames = golden_frames();
        let mut mutated = frames[pick % frames.len()].to_vec();
        for (at, value) in edits {
            let at = at % mutated.len();
            mutated[at] = value;
        }
        let _ = decode_all(&mutated);
    }
}
