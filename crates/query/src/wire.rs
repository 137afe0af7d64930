//! Wire codec for remote queries: the opaque bodies of
//! [`NetFrame::QueryReq`](pla_net::frame::NetFrame::QueryReq) /
//! [`NetFrame::QueryResp`](pla_net::frame::NetFrame::QueryResp).
//!
//! The frame layer carries `(req_id, body)` and never looks inside the
//! body; this module owns the body format, so the query language can
//! grow without touching `pla-net`'s framing (new tags here, not new
//! frame kinds there — though any change *here* still changes frame
//! *meaning* and must bump
//! [`PROTOCOL_VERSION`](pla_net::frame::PROTOCOL_VERSION)).
//!
//! Every `f64` travels as its IEEE-754 bit pattern
//! ([`f64::to_bits`], little-endian), never through a decimal detour:
//! a remote answer must be **bit-identical** to the local
//! [`StoreQueryEngine`] answer on the same
//! snapshot, which a text round-trip cannot promise.
//!
//! Layout: one leading tag byte, then the variant's fields in
//! declaration order, fixed-width little-endian. Vectors are a `u32`
//! count followed by the elements. A decoded body must consume every
//! byte — trailing garbage is a typed [`WireError::Trailing`], not
//! silently ignored, so a desynced peer fails loudly.

use bytes::Bytes;

use crate::store::{check_eps, BoundedRange, LookupStats, RangeAggregate, StoreQueryEngine};
use crate::types::{Bounded, BoundedCount, QueryError};
use pla_ingest::StreamId;

/// One remote query — the body of a `QueryReq` frame. Mirrors the
/// [`StoreQueryEngine`] surface method for
/// method.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// [`StoreQueryEngine::point`].
    Point {
        /// Raw stream id.
        stream: u64,
        /// Query time.
        t: f64,
        /// Dimension index.
        dim: u32,
    },
    /// [`StoreQueryEngine::point_with_stats`] — the comparison count
    /// rides back so the O(log n) pin survives serialization.
    PointWithStats {
        /// Raw stream id.
        stream: u64,
        /// Query time.
        t: f64,
        /// Dimension index.
        dim: u32,
    },
    /// [`StoreQueryEngine::point_bounded`].
    PointBounded {
        /// Raw stream id.
        stream: u64,
        /// Query time.
        t: f64,
        /// Dimension index.
        dim: u32,
        /// The stream's L∞ filter tolerance.
        eps: f64,
    },
    /// [`StoreQueryEngine::range`].
    Range {
        /// Raw stream id.
        stream: u64,
        /// Range start.
        a: f64,
        /// Range end.
        b: f64,
        /// Dimension index.
        dim: u32,
    },
    /// [`StoreQueryEngine::range_bounded`].
    RangeBounded {
        /// Raw stream id.
        stream: u64,
        /// Range start.
        a: f64,
        /// Range end.
        b: f64,
        /// Dimension index.
        dim: u32,
        /// The stream's L∞ filter tolerance.
        eps: f64,
    },
    /// [`StoreQueryEngine::count_above`].
    CountAbove {
        /// Raw stream id.
        stream: u64,
        /// Dimension index.
        dim: u32,
        /// Threshold the count is measured against.
        threshold: f64,
        /// The stream's L∞ filter tolerance.
        eps: f64,
        /// The sampling-grid times to evaluate at.
        times: Vec<f64>,
    },
    /// [`StoreQueryEngine::span`].
    Span {
        /// Raw stream id.
        stream: u64,
    },
    /// [`StoreQueryEngine::streams`] — the ids present in the snapshot.
    Streams,
}

/// One remote answer — the body of a `QueryResp` frame. A well-formed
/// query always gets a `QueryResult` back, including engine errors
/// ([`QueryResult::Err`]); only a *malformed body* is a connection-level
/// failure.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// A plain scalar ([`Query::Point`]).
    Value(f64),
    /// Scalar plus lookup cost ([`Query::PointWithStats`]).
    ValueWithStats {
        /// The point value.
        value: f64,
        /// Comparisons the server's lookup spent.
        comparisons: u64,
    },
    /// A bounded scalar ([`Query::PointBounded`]).
    Bounded(Bounded),
    /// Exact range aggregates ([`Query::Range`]).
    Range(RangeAggregate),
    /// Bounded range aggregates ([`Query::RangeBounded`]).
    BoundedRange(BoundedRange),
    /// A bounded count ([`Query::CountAbove`]).
    Count(BoundedCount),
    /// Covered span, if any ([`Query::Span`]).
    Span(Option<(f64, f64)>),
    /// Stream ids present, ascending ([`Query::Streams`]).
    Streams(Vec<u64>),
    /// The engine's typed refusal.
    Err(QueryError),
}

/// Body-decoding errors. Unlike [`QueryError`] (a well-formed query the
/// engine refuses), any of these means the peer and we disagree about
/// the byte format — the connection is no longer trustworthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before the variant's fields did.
    Truncated(&'static str),
    /// Unknown variant tag.
    BadTag {
        /// Which enum the tag was decoding.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// Bytes left over after a complete variant.
    Trailing(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated(what) => write!(f, "query body truncated inside {what}"),
            Self::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            Self::Trailing(n) => write!(f, "{n} trailing bytes after query body"),
        }
    }
}

impl std::error::Error for WireError {}

const Q_POINT: u8 = 1;
const Q_POINT_STATS: u8 = 2;
const Q_POINT_BOUNDED: u8 = 3;
const Q_RANGE: u8 = 4;
const Q_RANGE_BOUNDED: u8 = 5;
const Q_COUNT_ABOVE: u8 = 6;
const Q_SPAN: u8 = 7;
const Q_STREAMS: u8 = 8;

const R_VALUE: u8 = 1;
const R_VALUE_STATS: u8 = 2;
const R_BOUNDED: u8 = 3;
const R_RANGE: u8 = 4;
const R_RANGE_BOUNDED: u8 = 5;
const R_COUNT: u8 = 6;
const R_SPAN: u8 = 7;
const R_STREAMS: u8 = 8;
const R_ERR: u8 = 9;

const E_DIMENSION_MISMATCH: u8 = 1;
const E_BAD_DIMENSION: u8 = 2;
const E_UNCOVERED: u8 = 3;
const E_EMPTY_GRID: u8 = 4;
const E_INVALID_EPSILON: u8 = 5;
const E_UNKNOWN_STREAM: u8 = 6;

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bounded(out: &mut Vec<u8>, b: &Bounded) {
    put_f64(out, b.value);
    put_f64(out, b.lo);
    put_f64(out, b.hi);
}

/// Byte cursor over a query body; every read is bounds-checked into a
/// typed [`WireError::Truncated`].
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.at < n {
            return Err(WireError::Truncated(what));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn bounded(&mut self, what: &'static str) -> Result<Bounded, WireError> {
        Ok(Bounded { value: self.f64(what)?, lo: self.f64(what)?, hi: self.f64(what)? })
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.at;
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing(left))
        }
    }
}

impl Query {
    /// Encodes this query as a `QueryReq` frame body.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        match self {
            Self::Point { stream, t, dim } => {
                out.push(Q_POINT);
                put_u64(&mut out, *stream);
                put_f64(&mut out, *t);
                put_u32(&mut out, *dim);
            }
            Self::PointWithStats { stream, t, dim } => {
                out.push(Q_POINT_STATS);
                put_u64(&mut out, *stream);
                put_f64(&mut out, *t);
                put_u32(&mut out, *dim);
            }
            Self::PointBounded { stream, t, dim, eps } => {
                out.push(Q_POINT_BOUNDED);
                put_u64(&mut out, *stream);
                put_f64(&mut out, *t);
                put_u32(&mut out, *dim);
                put_f64(&mut out, *eps);
            }
            Self::Range { stream, a, b, dim } => {
                out.push(Q_RANGE);
                put_u64(&mut out, *stream);
                put_f64(&mut out, *a);
                put_f64(&mut out, *b);
                put_u32(&mut out, *dim);
            }
            Self::RangeBounded { stream, a, b, dim, eps } => {
                out.push(Q_RANGE_BOUNDED);
                put_u64(&mut out, *stream);
                put_f64(&mut out, *a);
                put_f64(&mut out, *b);
                put_u32(&mut out, *dim);
                put_f64(&mut out, *eps);
            }
            Self::CountAbove { stream, dim, threshold, eps, times } => {
                out.push(Q_COUNT_ABOVE);
                put_u64(&mut out, *stream);
                put_u32(&mut out, *dim);
                put_f64(&mut out, *threshold);
                put_f64(&mut out, *eps);
                put_u32(&mut out, times.len() as u32);
                for &t in times {
                    put_f64(&mut out, t);
                }
            }
            Self::Span { stream } => {
                out.push(Q_SPAN);
                put_u64(&mut out, *stream);
            }
            Self::Streams => out.push(Q_STREAMS),
        }
        Bytes::from(out)
    }

    /// Decodes a `QueryReq` frame body.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(body);
        let query = match c.u8("Query tag")? {
            Q_POINT => {
                Self::Point { stream: c.u64("Point")?, t: c.f64("Point")?, dim: c.u32("Point")? }
            }
            Q_POINT_STATS => Self::PointWithStats {
                stream: c.u64("PointWithStats")?,
                t: c.f64("PointWithStats")?,
                dim: c.u32("PointWithStats")?,
            },
            Q_POINT_BOUNDED => Self::PointBounded {
                stream: c.u64("PointBounded")?,
                t: c.f64("PointBounded")?,
                dim: c.u32("PointBounded")?,
                eps: c.f64("PointBounded")?,
            },
            Q_RANGE => Self::Range {
                stream: c.u64("Range")?,
                a: c.f64("Range")?,
                b: c.f64("Range")?,
                dim: c.u32("Range")?,
            },
            Q_RANGE_BOUNDED => Self::RangeBounded {
                stream: c.u64("RangeBounded")?,
                a: c.f64("RangeBounded")?,
                b: c.f64("RangeBounded")?,
                dim: c.u32("RangeBounded")?,
                eps: c.f64("RangeBounded")?,
            },
            Q_COUNT_ABOVE => {
                let stream = c.u64("CountAbove")?;
                let dim = c.u32("CountAbove")?;
                let threshold = c.f64("CountAbove")?;
                let eps = c.f64("CountAbove")?;
                let n = c.u32("CountAbove count")? as usize;
                let mut times = Vec::with_capacity(n.min(body.len() / 8 + 1));
                for _ in 0..n {
                    times.push(c.f64("CountAbove times")?);
                }
                Self::CountAbove { stream, dim, threshold, eps, times }
            }
            Q_SPAN => Self::Span { stream: c.u64("Span")? },
            Q_STREAMS => Self::Streams,
            tag => return Err(WireError::BadTag { what: "Query", tag }),
        };
        c.finish()?;
        Ok(query)
    }

    /// Executes this query against a local engine — the server's
    /// dispatch, and the reference the remote≡local equivalence tests
    /// compare wire answers against.
    pub fn run(&self, engine: &StoreQueryEngine) -> QueryResult {
        self.run_counted(engine, &mut None)
    }

    /// [`run`](Self::run), recording in `lookup` the cost of a point
    /// query's lookup (zero comparisons if refused), which the query
    /// server counts; other queries leave `lookup` as it was.
    pub fn run_counted(
        &self,
        engine: &StoreQueryEngine,
        lookup: &mut Option<LookupStats>,
    ) -> QueryResult {
        fn wrap<T>(r: Result<T, QueryError>, ok: impl FnOnce(T) -> QueryResult) -> QueryResult {
            match r {
                Ok(v) => ok(v),
                Err(e) => QueryResult::Err(e),
            }
        }
        let mut point = |stream: &u64, t: &f64, dim: &u32| {
            let looked = engine.point_with_stats(StreamId(*stream), *t, *dim as usize);
            *lookup = Some(looked.as_ref().map_or_else(|_| LookupStats::default(), |(_, s)| *s));
            looked
        };
        match self {
            Self::Point { stream, t, dim } => {
                wrap(point(stream, t, dim), |(value, _)| QueryResult::Value(value))
            }
            Self::PointWithStats { stream, t, dim } => {
                wrap(point(stream, t, dim), |(value, stats)| QueryResult::ValueWithStats {
                    value,
                    comparisons: stats.comparisons as u64,
                })
            }
            Self::PointBounded { stream, t, dim, eps } => {
                wrap(check_eps(*eps).and_then(|()| point(stream, t, dim)), |(value, _)| {
                    QueryResult::Bounded(Bounded::around(value, *eps))
                })
            }
            Self::Range { stream, a, b, dim } => {
                wrap(engine.range(StreamId(*stream), *a, *b, *dim as usize), QueryResult::Range)
            }
            Self::RangeBounded { stream, a, b, dim, eps } => wrap(
                engine.range_bounded(StreamId(*stream), *a, *b, *dim as usize, *eps),
                QueryResult::BoundedRange,
            ),
            Self::CountAbove { stream, dim, threshold, eps, times } => wrap(
                engine.count_above(StreamId(*stream), times, *dim as usize, *threshold, *eps),
                QueryResult::Count,
            ),
            Self::Span { stream } => QueryResult::Span(engine.span(StreamId(*stream))),
            Self::Streams => QueryResult::Streams(engine.streams().map(|id| id.0).collect()),
        }
    }
}

impl QueryResult {
    /// Encodes this result as a `QueryResp` frame body.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        match self {
            Self::Value(v) => {
                out.push(R_VALUE);
                put_f64(&mut out, *v);
            }
            Self::ValueWithStats { value, comparisons } => {
                out.push(R_VALUE_STATS);
                put_f64(&mut out, *value);
                put_u64(&mut out, *comparisons);
            }
            Self::Bounded(b) => {
                out.push(R_BOUNDED);
                put_bounded(&mut out, b);
            }
            Self::Range(r) => {
                out.push(R_RANGE);
                put_f64(&mut out, r.min);
                put_f64(&mut out, r.max);
                put_f64(&mut out, r.integral);
                put_f64(&mut out, r.mean);
            }
            Self::BoundedRange(r) => {
                out.push(R_RANGE_BOUNDED);
                put_bounded(&mut out, &r.min);
                put_bounded(&mut out, &r.max);
                put_bounded(&mut out, &r.integral);
                put_bounded(&mut out, &r.mean);
            }
            Self::Count(c) => {
                out.push(R_COUNT);
                put_u64(&mut out, c.definite as u64);
                put_u64(&mut out, c.possible as u64);
            }
            Self::Span(span) => {
                out.push(R_SPAN);
                match span {
                    Some((lo, hi)) => {
                        out.push(1);
                        put_f64(&mut out, *lo);
                        put_f64(&mut out, *hi);
                    }
                    None => out.push(0),
                }
            }
            Self::Streams(ids) => {
                out.push(R_STREAMS);
                put_u32(&mut out, ids.len() as u32);
                for &id in ids {
                    put_u64(&mut out, id);
                }
            }
            Self::Err(e) => {
                out.push(R_ERR);
                match e {
                    QueryError::DimensionMismatch { expected, got } => {
                        out.push(E_DIMENSION_MISMATCH);
                        put_u64(&mut out, *expected as u64);
                        put_u64(&mut out, *got as u64);
                    }
                    QueryError::BadDimension(d) => {
                        out.push(E_BAD_DIMENSION);
                        put_u64(&mut out, *d as u64);
                    }
                    QueryError::Uncovered { t } => {
                        out.push(E_UNCOVERED);
                        put_f64(&mut out, *t);
                    }
                    QueryError::EmptyGrid => out.push(E_EMPTY_GRID),
                    QueryError::InvalidEpsilon(e) => {
                        out.push(E_INVALID_EPSILON);
                        put_f64(&mut out, *e);
                    }
                    QueryError::UnknownStream(id) => {
                        out.push(E_UNKNOWN_STREAM);
                        put_u64(&mut out, *id);
                    }
                }
            }
        }
        Bytes::from(out)
    }

    /// Decodes a `QueryResp` frame body.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut c = Cursor::new(body);
        let result = match c.u8("QueryResult tag")? {
            R_VALUE => Self::Value(c.f64("Value")?),
            R_VALUE_STATS => Self::ValueWithStats {
                value: c.f64("ValueWithStats")?,
                comparisons: c.u64("ValueWithStats")?,
            },
            R_BOUNDED => Self::Bounded(c.bounded("Bounded")?),
            R_RANGE => Self::Range(RangeAggregate {
                min: c.f64("Range")?,
                max: c.f64("Range")?,
                integral: c.f64("Range")?,
                mean: c.f64("Range")?,
            }),
            R_RANGE_BOUNDED => Self::BoundedRange(BoundedRange {
                min: c.bounded("BoundedRange")?,
                max: c.bounded("BoundedRange")?,
                integral: c.bounded("BoundedRange")?,
                mean: c.bounded("BoundedRange")?,
            }),
            R_COUNT => Self::Count(BoundedCount {
                definite: c.u64("Count")? as usize,
                possible: c.u64("Count")? as usize,
            }),
            R_SPAN => match c.u8("Span flag")? {
                0 => Self::Span(None),
                1 => Self::Span(Some((c.f64("Span")?, c.f64("Span")?))),
                tag => return Err(WireError::BadTag { what: "Span flag", tag }),
            },
            R_STREAMS => {
                let n = c.u32("Streams count")? as usize;
                let mut ids = Vec::with_capacity(n.min(body.len() / 8 + 1));
                for _ in 0..n {
                    ids.push(c.u64("Streams ids")?);
                }
                Self::Streams(ids)
            }
            R_ERR => {
                let err = match c.u8("QueryError tag")? {
                    E_DIMENSION_MISMATCH => QueryError::DimensionMismatch {
                        expected: c.u64("DimensionMismatch")? as usize,
                        got: c.u64("DimensionMismatch")? as usize,
                    },
                    E_BAD_DIMENSION => QueryError::BadDimension(c.u64("BadDimension")? as usize),
                    E_UNCOVERED => QueryError::Uncovered { t: c.f64("Uncovered")? },
                    E_EMPTY_GRID => QueryError::EmptyGrid,
                    E_INVALID_EPSILON => QueryError::InvalidEpsilon(c.f64("InvalidEpsilon")?),
                    E_UNKNOWN_STREAM => QueryError::UnknownStream(c.u64("UnknownStream")?),
                    tag => return Err(WireError::BadTag { what: "QueryError", tag }),
                };
                Self::Err(err)
            }
            tag => return Err(WireError::BadTag { what: "QueryResult", tag }),
        };
        c.finish()?;
        Ok(result)
    }

    /// The lookup stats a `ValueWithStats` carries, if this is one —
    /// convenience for the metrics accumulation path.
    pub fn lookup_stats(&self) -> Option<LookupStats> {
        match self {
            Self::ValueWithStats { comparisons, .. } => {
                Some(LookupStats { comparisons: *comparisons as usize })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_queries() -> Vec<Query> {
        vec![
            Query::Point { stream: 5, t: 1.5, dim: 0 },
            Query::PointWithStats { stream: u64::MAX, t: -0.0, dim: 3 },
            Query::PointBounded { stream: 1, t: f64::MAX, dim: 0, eps: 0.25 },
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
        ]
    }

    pub(crate) fn sample_results() -> Vec<QueryResult> {
        vec![
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
        ]
    }

    #[test]
    fn queries_round_trip() {
        for q in sample_queries() {
            let body = q.encode();
            assert_eq!(Query::decode(&body).unwrap(), q);
        }
    }

    #[test]
    fn results_round_trip() {
        for r in sample_results() {
            let body = r.encode();
            assert_eq!(QueryResult::decode(&body).unwrap(), r);
        }
    }

    #[test]
    fn nan_round_trips_bit_exactly() {
        // PartialEq can't see it (NaN != NaN), so compare the bits.
        let weird = f64::from_bits(0x7FF8_DEAD_BEEF_0001);
        let body = QueryResult::Value(weird).encode();
        match QueryResult::decode(&body).unwrap() {
            QueryResult::Value(v) => assert_eq!(v.to_bits(), weird.to_bits()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn truncated_and_trailing_are_typed() {
        let body = Query::Point { stream: 5, t: 1.5, dim: 0 }.encode();
        for cut in 0..body.len() {
            assert!(
                matches!(Query::decode(&body[..cut]), Err(WireError::Truncated(_))),
                "cut at {cut} must be Truncated"
            );
        }
        let mut long = body.to_vec();
        long.push(0);
        assert_eq!(Query::decode(&long), Err(WireError::Trailing(1)));

        assert_eq!(Query::decode(&[200]), Err(WireError::BadTag { what: "Query", tag: 200 }));
        assert_eq!(
            QueryResult::decode(&[200]),
            Err(WireError::BadTag { what: "QueryResult", tag: 200 })
        );
    }

    #[test]
    fn count_above_length_is_checked() {
        // A count promising more times than the body carries truncates.
        let mut body =
            Query::CountAbove { stream: 1, dim: 0, threshold: 0.0, eps: 0.5, times: vec![1.0] }
                .encode()
                .to_vec();
        let count_at = 1 + 8 + 4 + 8 + 8;
        body[count_at..count_at + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(Query::decode(&body), Err(WireError::Truncated(_))));
    }
}
