//! The crate's one per-stream evaluator, and live-store queries over it:
//! point, range, and aggregate answers straight off a [`StoreSnapshot`]
//! — no intermediate [`Polyline`](pla_core::Polyline) materialization.
//!
//! Every query evaluates one stream's [`StreamView`] through the same
//! code (locate, span check, gap interpolation, the `range` knot walk,
//! the `count_above` threshold count). [`StoreQueryEngine`] runs it on
//! every stream of a snapshot, the grid [`QueryEngine`](crate::QueryEngine)
//! on one view of its polyline's segments. The segments themselves are
//! the index — Ferragina & Lari's learned-index reading of PLA: each
//! segment is a model mapping time to value, and the sorted run starts
//! are the routing layer above the models. A point lookup is two binary
//! searches (runs by first breakpoint, then within one run), O(log n)
//! comparisons total over an immutable layout that appends never
//! invalidate.
//!
//! ```
//! use pla_ingest::{SegmentStore, StreamId};
//! use pla_core::Segment;
//! use pla_query::StoreQueryEngine;
//!
//! let store = SegmentStore::new();
//! for i in 0..10 {
//!     let t = i as f64;
//!     store.append(1, StreamId(3), Segment {
//!         t_start: t,
//!         x_start: [t].into(),
//!         t_end: t + 1.0,
//!         x_end: [t + 1.0].into(),
//!         connected: i > 0,
//!         n_points: 2,
//!         new_recordings: if i == 0 { 2 } else { 1 },
//!     });
//! }
//! let engine = StoreQueryEngine::new(store.snapshot());
//! // The identity ramp: value(t) == t anywhere in the covered span.
//! assert_eq!(engine.point(StreamId(3), 4.5, 0).unwrap(), 4.5);
//! let agg = engine.range(StreamId(3), 2.0, 8.0, 0).unwrap();
//! assert_eq!((agg.min, agg.max, agg.mean), (2.0, 8.0, 5.0));
//! ```
//!
//! Streams are expected to be time-ordered (each segment starting no
//! earlier than its predecessor ends — what every PLA filter emits and
//! the transport preserves). The engine never panics on disorderly
//! streams, but its answers are only meaningful for ordered ones.

use std::collections::BTreeMap;

use pla_core::Segment;
use pla_ingest::{StoreSnapshot, StreamId, StreamView};

use crate::types::{Bounded, BoundedCount, QueryError};

/// Cost accounting for one lookup: how many ordering comparisons the
/// binary searches spent. Exposed so tests (and curious operators) can
/// pin the O(log n) bound instead of trusting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LookupStats {
    /// Ordering comparisons against segment breakpoints (run-start
    /// routing plus the in-run search plus coverage checks).
    pub comparisons: usize,
}

/// Exact aggregates of the piece-wise linear function over a time range
/// (gaps between disconnected segments interpolate, as everywhere in
/// the query layer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeAggregate {
    /// Minimum of the PLA over the range.
    pub min: f64,
    /// Maximum of the PLA over the range.
    pub max: f64,
    /// Piecewise-exact integral over the range.
    pub integral: f64,
    /// Time-weighted mean (`integral / (b − a)`; the point value for a
    /// degenerate range).
    pub mean: f64,
}

/// [`RangeAggregate`] with the filters' L∞ guarantee folded in: each
/// field carries deterministic bounds on the true-signal counterpart.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedRange {
    /// Bounds on the true minimum.
    pub min: Bounded,
    /// Bounds on the true maximum.
    pub max: Bounded,
    /// Bounds on the true integral (`± ε·(b−a)`).
    pub integral: Bounded,
    /// Bounds on the true time-weighted mean.
    pub mean: Bounded,
}

/// Per-stream routing layer: the first breakpoint time of every sealed
/// run (and of the tail), sorted by construction for a time-ordered
/// stream. `O(runs)` to build — snapshotting plus indexing never walks
/// the segments.
#[derive(Debug)]
pub(crate) struct StreamIndex {
    starts: Vec<f64>,
    dims: usize,
}

impl StreamIndex {
    /// Indexes one view, reading only each block's first breakpoint.
    pub(crate) fn new(view: &StreamView) -> Self {
        let mut starts: Vec<f64> = view.runs().iter().map(|r| r.segments()[0].t_start).collect();
        if let Some(first) = view.tail().first() {
            starts.push(first.t_start);
        }
        Self { starts, dims: view.get(0).map_or(0, Segment::dims) }
    }
}

/// The per-stream evaluator: one stream's view and its routing index.
/// Dimension checks belong to the callers, which differ in what an
/// empty stream means to them.
#[derive(Clone, Copy)]
pub(crate) struct StreamEval<'a> {
    pub(crate) view: &'a StreamView,
    pub(crate) index: &'a StreamIndex,
}

/// An ε must be finite and positive.
pub(crate) fn check_eps(eps: f64) -> Result<(), QueryError> {
    if eps.is_finite() && eps > 0.0 {
        Ok(())
    } else {
        Err(QueryError::InvalidEpsilon(eps))
    }
}

/// Binary partition over a slice with comparison counting: first index
/// where `pred` is false (the slice is assumed pred-partitioned).
fn partition_counted<T>(slice: &[T], mut pred: impl FnMut(&T) -> bool, cmp: &mut usize) -> usize {
    let (mut lo, mut hi) = (0, slice.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        *cmp += 1;
        if pred(&slice[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl StreamEval<'_> {
    /// Number of segments with `t_start <= t`, via the two-level binary
    /// search: route to a block by run start, then partition within it.
    fn partition(&self, t: f64, cmp: &mut usize) -> usize {
        let view = self.view;
        let blocks = partition_counted(&self.index.starts, |&s| s <= t, cmp);
        if blocks == 0 {
            return 0;
        }
        let block = blocks - 1;
        let (slice, base) = if block < view.runs().len() {
            (view.runs()[block].segments(), block * view.run_len())
        } else {
            (view.tail(), view.runs().len() * view.run_len())
        };
        base + partition_counted(slice, |s| s.t_start <= t, cmp)
    }

    /// Index of the segment covering `t` (the last segment starting at
    /// or before `t` — exactly [`Polyline::eval`](pla_core::Polyline)'s
    /// preference), or the insertion point when `t` falls in a gap.
    fn find(&self, t: f64, cmp: &mut usize) -> Result<usize, usize> {
        let p = self.partition(t, cmp);
        if p == 0 {
            return Err(0);
        }
        *cmp += 1;
        if self.view.get(p - 1).is_some_and(|s| s.covers(t)) {
            return Ok(p - 1);
        }
        *cmp += 1;
        if self.view.get(p).is_some_and(|s| s.covers(t)) {
            return Ok(p);
        }
        Err(p)
    }

    /// PLA value at `t`: in-segment linear interpolation, gap times
    /// interpolated between the surrounding endpoints. Errors outside
    /// the covered span.
    fn eval(&self, t: f64, dim: usize, cmp: &mut usize) -> Result<f64, QueryError> {
        let view = self.view;
        let (lo, hi) = view.span().ok_or(QueryError::Uncovered { t })?;
        if t < lo || t > hi {
            return Err(QueryError::Uncovered { t });
        }
        match self.find(t, cmp) {
            Ok(i) => Ok(view.get(i).expect("find returned a valid index").eval(t, dim)),
            Err(after) => {
                // Inside the span but between segments: interpolate the
                // gap; an abutting disconnected boundary holds the
                // earlier endpoint (cannot occur for `find` misses, but
                // keep the Hold fallback for degenerate geometry).
                let a = view.get(after - 1).ok_or(QueryError::Uncovered { t })?;
                match view.get(after) {
                    Some(b) if b.t_start > a.t_end => {
                        let frac = (t - a.t_end) / (b.t_start - a.t_end);
                        Ok(a.x_end[dim] + frac * (b.x_start[dim] - a.x_end[dim]))
                    }
                    _ => Ok(a.x_end[dim]),
                }
            }
        }
    }

    /// Feeds `visit` each of `times` with its PLA value, in order.
    /// `EmptyGrid` for no times; `Uncovered` at the first time outside
    /// the span.
    pub(crate) fn on_grid(
        &self,
        times: &[f64],
        dim: usize,
        mut visit: impl FnMut(f64, f64),
    ) -> Result<(), QueryError> {
        if times.is_empty() {
            return Err(QueryError::EmptyGrid);
        }
        let mut cmp = 0;
        for &t in times {
            visit(t, self.eval(t, dim, &mut cmp)?);
        }
        Ok(())
    }

    /// Sample count strictly above `threshold` at the grid `times`,
    /// bounded from both sides: a sample counts as *definite* when its
    /// whole ε-band clears the threshold, as *possible* when any part of
    /// the band does.
    pub(crate) fn count_above(
        &self,
        times: &[f64],
        dim: usize,
        threshold: f64,
        eps: f64,
    ) -> Result<BoundedCount, QueryError> {
        let mut count = BoundedCount { definite: 0, possible: 0 };
        self.on_grid(times, dim, |_, v| {
            count.definite += usize::from(v - eps > threshold);
            count.possible += usize::from(v + eps > threshold);
        })?;
        Ok(count)
    }

    /// Exact min/max/integral/mean of the PLA over `[a, b]`: every
    /// segment boundary in the range is a knot.
    pub(crate) fn range(&self, a: f64, b: f64, dim: usize) -> Result<RangeAggregate, QueryError> {
        if b < a {
            return Err(QueryError::EmptyGrid);
        }
        let mut cmp = 0;
        let va = self.eval(a, dim, &mut cmp)?;
        if a == b {
            return Ok(RangeAggregate { min: va, max: va, integral: 0.0, mean: va });
        }
        let vb = self.eval(b, dim, &mut cmp)?;
        // Knots: the range endpoints plus every segment breakpoint
        // strictly inside (a, b), walked in segment order. The PLA is
        // linear between consecutive knots (in-segment pieces and
        // interpolated gaps alike), so endpoint values carry the exact
        // extrema and trapezoids the exact integral. An abutting
        // disconnected boundary contributes two knots at the same time
        // — a zero-width piece that costs the integral nothing and
        // feeds the jump's both sides into min/max.
        let first = match self.find(a, &mut cmp) {
            Ok(i) => i,
            Err(after) => after.saturating_sub(1),
        };
        let mut min = va.min(vb);
        let mut max = va.max(vb);
        let mut integral = 0.0;
        let (mut t_prev, mut v_prev) = (a, va);
        let mut knot = |t: f64, v: f64, min: &mut f64, max: &mut f64, integral: &mut f64| {
            *min = min.min(v);
            *max = max.max(v);
            *integral += 0.5 * (v_prev + v) * (t - t_prev);
            (t_prev, v_prev) = (t, v);
        };
        for i in first..self.view.len() {
            let seg = self.view.get(i).expect("index in bounds");
            if seg.t_start >= b {
                break;
            }
            if seg.t_start > a {
                knot(seg.t_start, seg.x_start[dim], &mut min, &mut max, &mut integral);
            }
            if seg.t_end > a && seg.t_end < b {
                knot(seg.t_end, seg.x_end[dim], &mut min, &mut max, &mut integral);
            }
        }
        knot(b, vb, &mut min, &mut max, &mut integral);
        Ok(RangeAggregate { min, max, integral, mean: integral / (b - a) })
    }
}

/// Point/range/aggregate queries over a live [`StoreSnapshot`]. See the
/// module docs.
pub struct StoreQueryEngine {
    snap: StoreSnapshot,
    index: BTreeMap<StreamId, StreamIndex>,
}

impl StoreQueryEngine {
    /// Indexes a snapshot for querying. Costs O(streams + runs): only
    /// each block's *first* breakpoint is read, never the segments.
    pub fn new(snap: StoreSnapshot) -> Self {
        let index = snap.streams.iter().map(|(&id, view)| (id, StreamIndex::new(view))).collect();
        Self { snap, index }
    }

    /// The wrapped snapshot.
    pub fn snapshot(&self) -> &StoreSnapshot {
        &self.snap
    }

    /// Stream ids present, ascending.
    pub fn streams(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.snap.streams.keys().copied()
    }

    /// One stream's view, or `None` if the snapshot has no such stream.
    pub fn stream(&self, stream: StreamId) -> Option<&StreamView> {
        self.snap.streams.get(&stream)
    }

    /// Covered time span of one stream.
    pub fn span(&self, stream: StreamId) -> Option<(f64, f64)> {
        self.stream(stream)?.span()
    }

    /// `stream`'s evaluator, once `dim` is known to be one of its
    /// dimensions.
    fn evaluator(&self, stream: StreamId, dim: usize) -> Result<StreamEval<'_>, QueryError> {
        match (self.snap.streams.get(&stream), self.index.get(&stream)) {
            (Some(view), Some(index)) if dim < index.dims => Ok(StreamEval { view, index }),
            (Some(_), Some(_)) => Err(QueryError::BadDimension(dim)),
            _ => Err(QueryError::UnknownStream(stream.0)),
        }
    }

    /// PLA value of `stream` at time `t` for dimension `dim`.
    pub fn point(&self, stream: StreamId, t: f64, dim: usize) -> Result<f64, QueryError> {
        Ok(self.point_with_stats(stream, t, dim)?.0)
    }

    /// [`point`](Self::point) plus the comparison count the lookup
    /// spent — the observable the O(log n) acceptance test pins.
    pub fn point_with_stats(
        &self,
        stream: StreamId,
        t: f64,
        dim: usize,
    ) -> Result<(f64, LookupStats), QueryError> {
        let mut cmp = 0;
        let value = self.evaluator(stream, dim)?.eval(t, dim, &mut cmp)?;
        Ok((value, LookupStats { comparisons: cmp }))
    }

    /// Point query with the ±ε guarantee folded in: the true sample (if
    /// one was taken at `t`) lies within the returned bounds.
    pub fn point_bounded(
        &self,
        stream: StreamId,
        t: f64,
        dim: usize,
        eps: f64,
    ) -> Result<Bounded, QueryError> {
        check_eps(eps)?;
        Ok(Bounded::around(self.point(stream, t, dim)?, eps))
    }

    /// Exact min/max/integral/mean of the PLA over `[a, b]` —
    /// piecewise-exact (every segment boundary in the range is a knot),
    /// O(log n + k) for k covered segments, no polyline materialized.
    pub fn range(
        &self,
        stream: StreamId,
        a: f64,
        b: f64,
        dim: usize,
    ) -> Result<RangeAggregate, QueryError> {
        self.evaluator(stream, dim)?.range(a, b, dim)
    }

    /// [`range`](Self::range) with the ±ε guarantee folded in: bounds
    /// on the true signal's extrema, integral (`± ε·(b−a)`), and mean.
    pub fn range_bounded(
        &self,
        stream: StreamId,
        a: f64,
        b: f64,
        dim: usize,
        eps: f64,
    ) -> Result<BoundedRange, QueryError> {
        check_eps(eps)?;
        let agg = self.range(stream, a, b, dim)?;
        Ok(BoundedRange {
            min: Bounded::around(agg.min, eps),
            max: Bounded::around(agg.max, eps),
            integral: Bounded::around(agg.integral, eps * (b - a)),
            mean: Bounded::around(agg.mean, eps),
        })
    }

    /// Sample count strictly above `threshold` at the grid `times`,
    /// bounded from both sides (the [`QueryEngine::count_above`]
    /// semantics; both run the same evaluator).
    ///
    /// [`QueryEngine::count_above`]: crate::QueryEngine::count_above
    pub fn count_above(
        &self,
        stream: StreamId,
        times: &[f64],
        dim: usize,
        threshold: f64,
        eps: f64,
    ) -> Result<BoundedCount, QueryError> {
        let eval = self.evaluator(stream, dim)?;
        check_eps(eps)?;
        eval.count_above(times, dim, threshold, eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pla_ingest::{SegmentStore, StoreConfig};

    fn seg(t0: f64, x0: f64, t1: f64, x1: f64) -> Segment {
        Segment {
            t_start: t0,
            x_start: [x0].into(),
            t_end: t1,
            x_end: [x1].into(),
            connected: false,
            n_points: 2,
            new_recordings: 2,
        }
    }

    /// The module-doc polyline shape from pla-core's reconstruct tests:
    /// ramp, gap, plateau, connected descent.
    fn sample_store() -> SegmentStore {
        let store = SegmentStore::with_config(StoreConfig { shards: 2, seal_threshold: 2 });
        store.append(1, StreamId(5), seg(0.0, 0.0, 2.0, 2.0));
        // gap (2, 3)
        store.append(1, StreamId(5), seg(3.0, 5.0, 5.0, 5.0));
        store.append(1, StreamId(5), seg(5.0, 5.0, 6.0, 4.0));
        store
    }

    #[test]
    fn point_matches_polyline_semantics() {
        let eng = StoreQueryEngine::new(sample_store().snapshot());
        let id = StreamId(5);
        assert_eq!(eng.point(id, 1.0, 0).unwrap(), 1.0);
        assert_eq!(eng.point(id, 4.0, 0).unwrap(), 5.0);
        assert_eq!(eng.point(id, 5.5, 0).unwrap(), 4.5);
        // Boundaries resolve; the gap interpolates.
        assert_eq!(eng.point(id, 2.0, 0).unwrap(), 2.0);
        assert_eq!(eng.point(id, 3.0, 0).unwrap(), 5.0);
        assert_eq!(eng.point(id, 2.5, 0).unwrap(), 3.5);
        // Outside the span is typed, not extrapolated.
        assert!(matches!(eng.point(id, -1.0, 0), Err(QueryError::Uncovered { .. })));
        assert!(matches!(eng.point(id, 7.0, 0), Err(QueryError::Uncovered { .. })));
    }

    #[test]
    fn unknown_stream_and_bad_dim_are_typed() {
        let eng = StoreQueryEngine::new(sample_store().snapshot());
        assert!(matches!(eng.point(StreamId(99), 1.0, 0), Err(QueryError::UnknownStream(99))));
        assert!(matches!(eng.point(StreamId(5), 1.0, 3), Err(QueryError::BadDimension(3))));
        assert!(matches!(
            eng.point_bounded(StreamId(5), 1.0, 0, -0.5),
            Err(QueryError::InvalidEpsilon(_))
        ));
    }

    #[test]
    fn range_aggregates_are_piecewise_exact() {
        let eng = StoreQueryEngine::new(sample_store().snapshot());
        let id = StreamId(5);
        // Whole span: ramp 0→2, gap 2→5, plateau, descent 5→4.
        let agg = eng.range(id, 0.0, 6.0, 0).unwrap();
        assert_eq!(agg.min, 0.0);
        assert_eq!(agg.max, 5.0);
        // Exact: ramp 2.0 + gap 3.5 + plateau 10.0 + descent 4.5.
        assert!((agg.integral - 20.0).abs() < 1e-12, "integral {}", agg.integral);
        assert!((agg.mean - 20.0 / 6.0).abs() < 1e-12);
        // Sub-range straddling the gap only.
        let gap = eng.range(id, 2.0, 3.0, 0).unwrap();
        assert_eq!((gap.min, gap.max), (2.0, 5.0));
        assert!((gap.integral - 3.5).abs() < 1e-12);
        // Degenerate range: the point value.
        let p = eng.range(id, 4.0, 4.0, 0).unwrap();
        assert_eq!((p.min, p.max, p.integral, p.mean), (5.0, 5.0, 0.0, 5.0));
        // Backwards range is typed.
        assert!(matches!(eng.range(id, 5.0, 1.0, 0), Err(QueryError::EmptyGrid)));
    }

    #[test]
    fn bounded_variants_carry_the_guarantee() {
        let eng = StoreQueryEngine::new(sample_store().snapshot());
        let id = StreamId(5);
        let b = eng.point_bounded(id, 1.0, 0, 0.5).unwrap();
        assert_eq!((b.lo, b.value, b.hi), (0.5, 1.0, 1.5));
        let r = eng.range_bounded(id, 0.0, 6.0, 0, 0.5).unwrap();
        assert_eq!(r.min.lo, -0.5);
        assert_eq!(r.integral.radius(), 3.0); // ε·(b−a)
        let c = eng.count_above(id, &[1.0, 4.0, 5.5], 0, 4.4, 0.5).unwrap();
        assert_eq!((c.definite, c.possible), (1, 2));
    }

    #[test]
    fn abutting_disconnected_jump_feeds_both_sides_to_extrema() {
        let store = SegmentStore::with_config(StoreConfig { shards: 1, seal_threshold: 4 });
        store.append(1, StreamId(1), seg(0.0, 0.0, 1.0, 0.0));
        store.append(1, StreamId(1), seg(1.0, 10.0, 2.0, 10.0));
        let eng = StoreQueryEngine::new(store.snapshot());
        // At the jump instant the later segment wins (same preference as
        // `Polyline::eval`: the last segment starting at or before t)…
        assert_eq!(eng.point(StreamId(1), 1.0, 0).unwrap(), 10.0);
        // …but the range sees both plateaus and the exact integral.
        let agg = eng.range(StreamId(1), 0.0, 2.0, 0).unwrap();
        assert_eq!((agg.min, agg.max), (0.0, 10.0));
        assert!((agg.integral - 10.0).abs() < 1e-12);
    }

    #[test]
    fn lookups_route_through_runs_and_tail() {
        // Enough segments to seal several runs; probe each region.
        let store = SegmentStore::with_config(StoreConfig { shards: 1, seal_threshold: 4 });
        for i in 0..11 {
            let t = i as f64;
            store.append(1, StreamId(2), seg(t, t, t + 1.0, t + 1.0));
        }
        let eng = StoreQueryEngine::new(store.snapshot());
        for probe in [0.25, 3.75, 4.5, 7.25, 9.5, 10.75] {
            let (v, stats) = eng.point_with_stats(StreamId(2), probe, 0).unwrap();
            assert!((v - probe).abs() < 1e-12, "identity ramp at {probe} gave {v}");
            assert!(stats.comparisons > 0);
        }
    }
}
