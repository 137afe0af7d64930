//! The cache filter: piece-wise constant approximation (paper §2.2).
//!
//! The cache filter predicts that the next data point equals a cached
//! value; points within `εᵢ` of the cache in every dimension are filtered
//! out. Three variants choose the cached/recorded value:
//!
//! * [`CacheVariant::FirstValue`] — the value of the first point of the
//!   run (Olston et al., the paper's default comparison baseline);
//! * [`CacheVariant::Midrange`] — `(min+max)/2` of the run, the
//!   L∞-optimal representative (Lazaridis & Mehrotra's PMC-MR); a run
//!   continues while `max − min ≤ 2εᵢ` holds in every dimension;
//! * [`CacheVariant::Mean`] — the run mean, clamped into
//!   `[max−εᵢ, min+εᵢ]` so the precision guarantee still holds (the
//!   unclamped mean of a run can stray more than `ε` from an extreme
//!   point; Lazaridis & Mehrotra's PMC-MEAN has the same issue, which we
//!   fix by clamping — see DESIGN.md).
//!
//! For the `FirstValue` variant the recording is available the moment the
//! run starts, so the receiver lag is zero; the other two variants lag by
//! the current run length, like the paper's swing/slide filters.

use crate::dimvec::DimVec;
use crate::error::FilterError;
use crate::kern;
use crate::segment::{validate_epsilons, Segment, SegmentSink};

use super::common::point_segment;
use super::{validate_push, StreamFilter};

/// Strategy for choosing a run's recorded value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheVariant {
    /// Record the first value of the run (Olston et al.).
    #[default]
    FirstValue,
    /// Record the midrange of the run (L∞-optimal, Lazaridis & Mehrotra).
    Midrange,
    /// Record the clamped mean of the run (Lazaridis & Mehrotra, clamped for safety).
    Mean,
}

#[derive(Debug, Clone)]
struct Run {
    t_first: f64,
    t_last: f64,
    /// Cached value per dimension (`FirstValue`) — also min/max/mean
    /// accumulators for the other variants.
    first: DimVec<f64>,
    min: DimVec<f64>,
    max: DimVec<f64>,
    sum: DimVec<f64>,
    n: u32,
}

/// Piece-wise constant filter. See the module docs.
///
/// ```
/// use pla_core::filters::{CacheFilter, StreamFilter};
/// use pla_core::Segment;
///
/// let mut filter = CacheFilter::new(&[0.25]).unwrap();
/// let mut out: Vec<Segment> = Vec::new();
/// for (j, x) in [1.0, 1.1, 0.9, 1.2, 5.0, 5.1].iter().enumerate() {
///     filter.push(j as f64, &[*x], &mut out).unwrap();
/// }
/// filter.finish(&mut out).unwrap();
/// // Two constant runs, one recording each.
/// assert_eq!(out.len(), 2);
/// assert_eq!(out[0].new_recordings, 1);
/// ```
#[derive(Debug, Clone)]
pub struct CacheFilter {
    eps: DimVec<f64>,
    variant: CacheVariant,
    run: Option<Run>,
}

impl CacheFilter {
    /// Creates a cache filter with the default [`CacheVariant::FirstValue`]
    /// behaviour.
    pub fn new(eps: &[f64]) -> Result<Self, FilterError> {
        Self::with_variant(eps, CacheVariant::default())
    }

    /// Creates a cache filter with an explicit variant.
    pub fn with_variant(eps: &[f64], variant: CacheVariant) -> Result<Self, FilterError> {
        validate_epsilons(eps)?;
        Ok(Self { eps: eps.into(), variant, run: None })
    }

    /// The configured variant.
    pub fn variant(&self) -> CacheVariant {
        self.variant
    }

    /// Fused acceptance test + run update: absorbs `(t, x)` into the run
    /// and returns `true`, or leaves the run untouched and returns
    /// `false`. Min/max use the lane kernels' compare-and-select
    /// (`a < b ? a : b`) semantics.
    ///
    /// Associated (not `&self`) so the push hot path can run while
    /// holding a disjoint mutable borrow of the live run.
    fn step(variant: CacheVariant, eps: &DimVec<f64>, run: &mut Run, t: f64, x: &[f64]) -> bool {
        let Run { first, min, max, sum, .. } = run;
        let accepted = match variant {
            CacheVariant::FirstValue => {
                let fit = kern::fits_const(first, eps, x);
                if fit {
                    kern::minmax_sum(min, max, sum, x);
                }
                fit
            }
            // Run stays representable while every dimension's range,
            // including the candidate, spans at most 2ε.
            CacheVariant::Midrange | CacheVariant::Mean => kern::range_step(min, max, sum, eps, x),
        };
        if accepted {
            run.t_last = t;
            run.n += 1;
        }
        accepted
    }

    fn start_run(t: f64, x: &[f64]) -> Run {
        Run {
            t_first: t,
            t_last: t,
            first: x.into(),
            min: x.into(),
            max: x.into(),
            sum: x.into(),
            n: 1,
        }
    }

    fn representative(&self, run: &Run, dim: usize) -> f64 {
        match self.variant {
            CacheVariant::FirstValue => run.first[dim],
            CacheVariant::Midrange => 0.5 * (run.min[dim] + run.max[dim]),
            CacheVariant::Mean => {
                let mean = run.sum[dim] / run.n as f64;
                // Clamp into the feasible band so |mean − x| ≤ ε for every
                // point of the run. Non-empty because max − min ≤ 2ε.
                mean.clamp(run.max[dim] - self.eps[dim], run.min[dim] + self.eps[dim])
            }
        }
    }

    fn emit(&self, run: &Run, sink: &mut dyn SegmentSink) {
        let value = DimVec::from_fn(self.eps.len(), |d| self.representative(run, d));
        sink.segment(Segment {
            t_start: run.t_first,
            x_start: value.clone(),
            t_end: run.t_last,
            x_end: value,
            connected: false,
            n_points: run.n,
            // One recording per constant segment: the receiver holds the
            // value until the next message arrives (§2.2).
            new_recordings: 1,
        });
    }
}

impl StreamFilter for CacheFilter {
    fn dims(&self) -> usize {
        self.eps.len()
    }

    fn epsilons(&self) -> &[f64] {
        &self.eps
    }

    fn push(&mut self, t: f64, x: &[f64], sink: &mut dyn SegmentSink) -> Result<(), FilterError> {
        validate_push(self.dims(), self.run.as_ref().map(|r| r.t_last), t, x)?;
        // The live run is mutated in place — moving it out of the Option
        // and back costs a struct copy per point, which dominates this
        // filter's tiny per-point work.
        match &mut self.run {
            None => self.run = Some(Self::start_run(t, x)),
            Some(run) => {
                if !Self::step(self.variant, &self.eps, run, t, x) {
                    let done = std::mem::replace(run, Self::start_run(t, x));
                    self.emit(&done, sink);
                }
            }
        }
        Ok(())
    }

    fn finish(&mut self, sink: &mut dyn SegmentSink) -> Result<(), FilterError> {
        if let Some(run) = self.run.take() {
            if run.n == 1 {
                sink.segment(point_segment(run.t_first, &run.first, false));
            } else {
                self.emit(&run, sink);
            }
        }
        Ok(())
    }

    fn pending_points(&self) -> usize {
        match (&self.run, self.variant) {
            // FirstValue: the receiver could have been told the value when
            // the run began, so nothing is pending beyond that message.
            (Some(_), CacheVariant::FirstValue) => 0,
            (Some(run), _) => run.n as usize,
            (None, _) => 0,
        }
    }

    fn name(&self) -> &'static str {
        "cache"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::run_filter;
    use crate::sample::Signal;

    fn compress(values: &[f64], eps: f64, variant: CacheVariant) -> Vec<Segment> {
        let mut f = CacheFilter::with_variant(&[eps], variant).unwrap();
        run_filter(&mut f, &Signal::from_values(values)).unwrap()
    }

    #[test]
    fn constant_signal_is_one_segment() {
        let segs = compress(&[5.0; 20], 0.1, CacheVariant::FirstValue);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].n_points, 20);
        assert_eq!(segs[0].new_recordings, 1);
    }

    #[test]
    fn jump_starts_new_segment() {
        let segs = compress(&[0.0, 0.05, 10.0, 10.05], 0.1, CacheVariant::FirstValue);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].x_start[0], 0.0);
        assert_eq!(segs[1].x_start[0], 10.0);
    }

    #[test]
    fn first_value_variant_records_first_point() {
        let segs = compress(&[1.0, 1.09, 0.95], 0.1, CacheVariant::FirstValue);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].x_start[0], 1.0);
    }

    #[test]
    fn midrange_variant_covers_wider_runs() {
        // Oscillation of amplitude 1.5ε: first-value splits, midrange does
        // not (range 1.5ε ≤ 2ε).
        let values = [0.0, 0.15, 0.0, 0.15, 0.0];
        let fv = compress(&values, 0.1, CacheVariant::FirstValue);
        let mr = compress(&values, 0.1, CacheVariant::Midrange);
        assert!(fv.len() > 1);
        assert_eq!(mr.len(), 1);
        assert!((mr[0].x_start[0] - 0.075).abs() < 1e-12);
    }

    #[test]
    fn mean_variant_clamps_into_feasible_band() {
        // Run 0,0,0,0.2 with ε=0.1: mean 0.05 is 0.15 away from 0.2 →
        // must clamp up to max−ε = 0.1.
        let segs = compress(&[0.0, 0.0, 0.0, 0.2], 0.1, CacheVariant::Mean);
        assert_eq!(segs.len(), 1);
        let v = segs[0].x_start[0];
        for x in [0.0, 0.0, 0.0, 0.2] {
            assert!((x - v).abs() <= 0.1 + 1e-12, "value {v} misses point {x}");
        }
    }

    #[test]
    fn multi_dim_violation_in_any_dimension_splits() {
        let mut f = CacheFilter::new(&[1.0, 0.1]).unwrap();
        let mut s = Signal::new(2);
        s.push(0.0, &[0.0, 0.0]).unwrap();
        s.push(1.0, &[0.5, 0.05]).unwrap(); // fine in both
        s.push(2.0, &[0.5, 0.5]).unwrap(); // dim 1 violates
        let segs = run_filter(&mut f, &s).unwrap();
        assert_eq!(segs.len(), 2);
    }

    #[test]
    fn single_point_stream_yields_point_segment() {
        let segs = compress(&[7.0], 0.1, CacheVariant::FirstValue);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].t_start, segs[0].t_end);
        assert_eq!(segs[0].n_points, 1);
    }

    #[test]
    fn empty_stream_yields_nothing() {
        let mut f = CacheFilter::new(&[0.1]).unwrap();
        let mut out: Vec<Segment> = Vec::new();
        f.finish(&mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn filter_is_reusable_after_finish() {
        let mut f = CacheFilter::new(&[0.1]).unwrap();
        let s = Signal::from_values(&[1.0, 1.0, 9.0]);
        let a = run_filter(&mut f, &s).unwrap();
        let b = run_filter(&mut f, &s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn precision_guarantee_holds_for_all_variants() {
        let values: Vec<f64> =
            (0..200).map(|i| ((i as f64) * 0.37).sin() * 3.0 + (i % 7) as f64 * 0.1).collect();
        let signal = Signal::from_values(&values);
        for variant in [CacheVariant::FirstValue, CacheVariant::Midrange, CacheVariant::Mean] {
            let mut f = CacheFilter::with_variant(&[0.5], variant).unwrap();
            let segs = run_filter(&mut f, &signal).unwrap();
            for (t, x) in signal.iter() {
                let seg = segs.iter().find(|s| s.covers(t)).expect("every sample covered");
                assert!(
                    (seg.eval(t, 0) - x[0]).abs() <= 0.5 + 1e-9,
                    "{variant:?} broke the guarantee at t={t}"
                );
            }
        }
    }

    #[test]
    fn rejects_invalid_construction() {
        assert!(CacheFilter::new(&[]).is_err());
        assert!(CacheFilter::new(&[-1.0]).is_err());
    }
}
