//! Golden wire-format pin for the query protocol: the exact bytes of
//! every query-plane frame kind — `QueryReq` carrying each query
//! variant, `QueryResp` carrying each result variant (including every
//! typed engine error), `EpochsReq`/`EpochsResp`, and the version-4
//! handshake pair — are checked into `golden_query_frames.bin`. The
//! encoding is a wire contract between deployed speakers: any byte
//! change here must come with a `PROTOCOL_VERSION` bump so old and new
//! speakers refuse each other cleanly instead of misreading frames.
//!
//! Deliberate-update path:
//! `cargo test -p pla-query --test query_golden_frames -- --ignored regenerate_golden`

use bytes::BytesMut;

use pla_net::frame::{encode, FrameDecoder, NetFrame, PROTOCOL_VERSION};
use pla_query::{
    Bounded, BoundedCount, BoundedRange, Query, QueryError, QueryResult, RangeAggregate,
};

const GOLDEN: &[u8] = include_bytes!("golden_query_frames.bin");

/// Every query-plane frame with fixed, representative field values —
/// edge values included (`u64::MAX` ids, negative zero, empty vectors).
fn golden_frames() -> Vec<NetFrame> {
    let queries = vec![
        Query::Point { stream: 5, t: 1.5, dim: 0 },
        Query::PointWithStats { stream: u64::MAX, t: -0.0, dim: 3 },
        Query::PointBounded { stream: 1, t: 2.25, dim: 0, eps: 0.25 },
        Query::Range { stream: 2, a: 0.0, b: 6.0, dim: 1 },
        Query::RangeBounded { stream: 2, a: -1.0, b: 1.0, dim: 0, eps: 1e-9 },
        Query::CountAbove {
            stream: 9,
            dim: 0,
            threshold: 4.4,
            eps: 0.5,
            times: vec![0.0, 0.5, 1.0],
        },
        Query::CountAbove { stream: 9, dim: 0, threshold: 0.0, eps: 0.1, times: vec![] },
        Query::Span { stream: 7 },
        Query::Streams,
    ];
    let results = vec![
        QueryResult::Value(4.5),
        QueryResult::ValueWithStats { value: f64::NEG_INFINITY, comparisons: 12 },
        QueryResult::Bounded(Bounded { value: 1.0, lo: 0.5, hi: 1.5 }),
        QueryResult::Range(RangeAggregate { min: 0.0, max: 5.0, integral: 20.0, mean: 2.5 }),
        QueryResult::BoundedRange(BoundedRange {
            min: Bounded { value: 0.0, lo: -0.5, hi: 0.5 },
            max: Bounded { value: 5.0, lo: 4.5, hi: 5.5 },
            integral: Bounded { value: 20.0, lo: 17.0, hi: 23.0 },
            mean: Bounded { value: 2.5, lo: 2.0, hi: 3.0 },
        }),
        QueryResult::Count(BoundedCount { definite: 1, possible: 2 }),
        QueryResult::Span(Some((0.0, 6.0))),
        QueryResult::Span(None),
        QueryResult::Streams(vec![1, 5, u64::MAX]),
        QueryResult::Streams(vec![]),
        QueryResult::Err(QueryError::DimensionMismatch { expected: 2, got: 3 }),
        QueryResult::Err(QueryError::BadDimension(7)),
        QueryResult::Err(QueryError::Uncovered { t: -1.0 }),
        QueryResult::Err(QueryError::EmptyGrid),
        QueryResult::Err(QueryError::InvalidEpsilon(-0.5)),
        QueryResult::Err(QueryError::UnknownStream(99)),
    ];

    let mut frames = vec![
        NetFrame::Hello { version: PROTOCOL_VERSION, token: 0 },
        NetFrame::HelloAck {
            version: PROTOCOL_VERSION,
            token: 0x1122_3344_5566_7788,
            cursors: vec![],
        },
    ];
    frames.extend(
        queries
            .into_iter()
            .enumerate()
            .map(|(i, q)| NetFrame::QueryReq { req_id: i as u64 + 1, body: q.encode() }),
    );
    frames.extend(
        results
            .into_iter()
            .enumerate()
            .map(|(i, r)| NetFrame::QueryResp { req_id: i as u64 + 1, body: r.encode() }),
    );
    frames.push(NetFrame::EpochsReq { req_id: u64::MAX });
    frames.push(NetFrame::EpochsResp { req_id: 100, epochs: vec![0, 3, u64::MAX] });
    frames.push(NetFrame::EpochsResp { req_id: 101, epochs: vec![] });
    frames
}

fn encode_all() -> Vec<u8> {
    let mut buf = BytesMut::new();
    for frame in golden_frames() {
        encode(&frame, &mut buf);
    }
    buf.to_vec()
}

#[test]
fn wire_encoding_matches_the_golden_file() {
    assert_eq!(
        encode_all(),
        GOLDEN,
        "query wire bytes are a versioned contract; if this change is deliberate, bump \
         pla_net::frame::PROTOCOL_VERSION and regenerate tests/golden_query_frames.bin \
         with the #[ignore] regenerate_golden test"
    );
}

/// The version the golden bytes were captured under. A version bump
/// without a regenerated fixture (or vice versa) fails here.
#[test]
fn golden_file_is_for_protocol_version_4() {
    assert_eq!(PROTOCOL_VERSION, 4, "regenerate the golden file when the version moves");
    // The Hello's version field lives right after the 4-byte length and
    // 1-byte kind: pin it in the raw bytes too.
    assert_eq!(&GOLDEN[5..7], &4u16.to_le_bytes(), "golden Hello must advertise version 4");
}

#[test]
fn golden_file_redecodes_losslessly() {
    let mut decoder = FrameDecoder::new(1 << 20);
    decoder.extend(GOLDEN);
    let mut decoded = Vec::new();
    while let Some(frame) = decoder.try_next().expect("golden bytes decode") {
        decoded.push(frame);
    }
    assert_eq!(decoded, golden_frames(), "decode(golden) must reproduce the frames exactly");
}

/// Deliberate-update path for the wire contract.
#[test]
#[ignore]
fn regenerate_golden() {
    std::fs::write("tests/golden_query_frames.bin", encode_all()).unwrap();
}
