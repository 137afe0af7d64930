//! The grid query engine: bounded aggregates over one finished
//! [`Polyline`], evaluated at a sampling grid by the crate's one
//! per-stream evaluator (the one [`StoreQueryEngine`] runs).
//!
//! [`StoreQueryEngine`]: crate::StoreQueryEngine

use pla_core::Polyline;
use pla_ingest::{SegmentStore, StreamId, StreamView};

use crate::store::{check_eps, StreamEval, StreamIndex};
use crate::types::{Bounded, BoundedCount, Crossing, CrossingKind, QueryError};

/// Answers queries over one compressed stream. See the crate docs.
pub struct QueryEngine {
    view: StreamView,
    index: StreamIndex,
    eps: Vec<f64>,
}

impl QueryEngine {
    /// Wraps a reconstruction and the precision widths it was produced
    /// under.
    pub fn new(polyline: Polyline, eps: &[f64]) -> Result<Self, QueryError> {
        if !polyline.segments().is_empty() && eps.len() != polyline.dims() {
            return Err(QueryError::DimensionMismatch {
                expected: polyline.dims(),
                got: eps.len(),
            });
        }
        eps.iter().try_for_each(|&e| check_eps(e))?;
        // The segments go through a store so that the view has the
        // run/tail layout every other query reads.
        let store = SegmentStore::new();
        store.append_batch(0, StreamId(0), &mut polyline.segments().to_vec());
        let view = store.snapshot().streams.remove(&StreamId(0)).unwrap_or_default();
        Ok(Self { index: StreamIndex::new(&view), view, eps: eps.to_vec() })
    }

    fn stream(&self) -> StreamEval<'_> {
        StreamEval { view: &self.view, index: &self.index }
    }

    /// `dim`'s ε. Queries check it first, then the grid, then coverage
    /// (the evaluator answers only within the covered span; gaps between
    /// disconnected segments interpolate).
    fn check_dim(&self, dim: usize) -> Result<f64, QueryError> {
        self.eps.get(dim).copied().ok_or(QueryError::BadDimension(dim))
    }

    /// Mean of the samples at `times`, with ±ε bounds.
    pub fn mean(&self, times: &[f64], dim: usize) -> Result<Bounded, QueryError> {
        let eps = self.check_dim(dim)?;
        let mut sum = 0.0;
        self.stream().on_grid(times, dim, |_, v| sum += v)?;
        Ok(Bounded::around(sum / times.len() as f64, eps))
    }

    /// Minimum of the samples at `times`, with ±ε bounds.
    pub fn min(&self, times: &[f64], dim: usize) -> Result<Bounded, QueryError> {
        let eps = self.check_dim(dim)?;
        let mut min = f64::INFINITY;
        self.stream().on_grid(times, dim, |_, v| min = min.min(v))?;
        Ok(Bounded::around(min, eps))
    }

    /// Maximum of the samples at `times`, with ±ε bounds.
    pub fn max(&self, times: &[f64], dim: usize) -> Result<Bounded, QueryError> {
        let eps = self.check_dim(dim)?;
        let mut max = f64::NEG_INFINITY;
        self.stream().on_grid(times, dim, |_, v| max = max.max(v))?;
        Ok(Bounded::around(max, eps))
    }

    /// Sample count strictly above `threshold`, bounded from both sides:
    /// a sample counts as *definite* when its whole ε-band clears the
    /// threshold, as *possible* when any part of the band does.
    pub fn count_above(
        &self,
        times: &[f64],
        dim: usize,
        threshold: f64,
    ) -> Result<BoundedCount, QueryError> {
        let eps = self.check_dim(dim)?;
        self.stream().count_above(times, dim, threshold, eps)
    }

    /// Threshold-crossing events along the grid, classified by certainty.
    ///
    /// The signal's state at each grid point is *above* (PLA value more
    /// than ε above the threshold), *below* (more than ε below), or
    /// *ambiguous*. A [`CrossingKind::Certain`] event is a transition
    /// between the two certain states; entering/leaving the ambiguity
    /// band reports [`CrossingKind::Possible`].
    pub fn crossings(
        &self,
        times: &[f64],
        dim: usize,
        threshold: f64,
    ) -> Result<Vec<Crossing>, QueryError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Zone {
            Above,
            Below,
            Ambiguous,
        }
        let eps = self.check_dim(dim)?;
        let mut out = Vec::new();
        // The previous grid point's zone, and the most recent *certain*
        // zone. Only a transition between the two certain zones
        // (directly or through the ambiguity band) is a certain crossing
        // — a stream that merely starts ambiguous and then resolves has
        // not crossed.
        let (mut prev, mut last_certain) = (None, None);
        self.stream().on_grid(times, dim, |t, v| {
            let cur = if v - eps > threshold {
                Zone::Above
            } else if v + eps < threshold {
                Zone::Below
            } else {
                Zone::Ambiguous
            };
            if prev.is_some_and(|p| p != cur) {
                if cur == Zone::Ambiguous {
                    let rising = prev == Some(Zone::Below);
                    out.push(Crossing { t, rising, kind: CrossingKind::Possible });
                } else if last_certain.is_some_and(|lc| lc != cur) {
                    let rising = cur == Zone::Above;
                    out.push(Crossing { t, rising, kind: CrossingKind::Certain });
                }
            }
            if cur != Zone::Ambiguous {
                last_certain = Some(cur);
            }
            prev = Some(cur);
        })?;
        Ok(out)
    }

    /// Continuous-time integral of the PLA over `[a, b]` with bound
    /// `± ε·(b−a)`: valid for any underlying signal that stays within ε
    /// of the approximation over the window (which holds at sample times
    /// by the filters' guarantee, and in between under the usual
    /// piecewise-linear interpolation reading of the recordings). The
    /// value is piecewise-exact, the store engine's range integral.
    pub fn integral(&self, a: f64, b: f64, dim: usize) -> Result<Bounded, QueryError> {
        let eps = self.check_dim(dim)?;
        let integral = self.stream().range(a, b, dim)?.integral;
        Ok(Bounded::around(integral, eps * (b - a)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pla_core::filters::{run_filter, SlideFilter, SwingFilter};
    use pla_core::Signal;

    fn engine_for(signal: &Signal, eps: f64) -> QueryEngine {
        let mut f = SlideFilter::new(&vec![eps; signal.dims()]).unwrap();
        let segs = run_filter(&mut f, signal).unwrap();
        QueryEngine::new(Polyline::new(segs), &vec![eps; signal.dims()]).unwrap()
    }

    fn noisy(n: usize, seed: u64) -> Signal {
        let mut state = seed | 1;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut x = 0.0;
        Signal::from_values(
            &(0..n)
                .map(|_| {
                    x += rnd();
                    x
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn mean_bounds_contain_truth() {
        let signal = noisy(500, 1);
        let eng = engine_for(&signal, 0.5);
        let truth =
            (0..signal.len()).map(|j| signal.value(j, 0)).sum::<f64>() / signal.len() as f64;
        let b = eng.mean(signal.times(), 0).unwrap();
        assert!(b.contains(truth), "truth {truth} outside [{}, {}]", b.lo, b.hi);
        assert!(b.radius() <= 0.5 + 1e-12);
    }

    #[test]
    fn extrema_bounds_contain_truth() {
        let signal = noisy(500, 2);
        let eng = engine_for(&signal, 0.8);
        let t_min = (0..signal.len()).map(|j| signal.value(j, 0)).fold(f64::INFINITY, f64::min);
        let t_max = (0..signal.len()).map(|j| signal.value(j, 0)).fold(f64::NEG_INFINITY, f64::max);
        assert!(eng.min(signal.times(), 0).unwrap().contains(t_min));
        assert!(eng.max(signal.times(), 0).unwrap().contains(t_max));
    }

    #[test]
    fn count_above_brackets_truth() {
        let signal = noisy(400, 3);
        let eng = engine_for(&signal, 0.6);
        let threshold = 0.0;
        let truth = (0..signal.len()).filter(|&j| signal.value(j, 0) > threshold).count();
        let c = eng.count_above(signal.times(), 0, threshold).unwrap();
        assert!(c.contains(truth), "truth {truth} outside [{}, {}]", c.definite, c.possible);
    }

    #[test]
    fn certain_crossings_are_real() {
        // A clean ramp through a threshold: exactly one certain rise.
        let signal =
            Signal::from_values(&(0..100).map(|i| i as f64 * 0.2 - 10.0).collect::<Vec<_>>());
        let eng = engine_for(&signal, 0.3);
        let crossings = eng.crossings(signal.times(), 0, -2.0).unwrap();
        let certain: Vec<_> =
            crossings.iter().filter(|c| c.kind == CrossingKind::Certain).collect();
        assert_eq!(certain.len(), 1);
        assert!(certain[0].rising);
    }

    #[test]
    fn oscillation_inside_band_gives_no_certain_crossings() {
        // Signal oscillates ±0.4 around the threshold with ε = 0.5: every
        // sample is ambiguous, so nothing is certain.
        let signal = Signal::from_values(
            &(0..100).map(|i| if i % 2 == 0 { 0.4 } else { -0.4 }).collect::<Vec<_>>(),
        );
        let eng = engine_for(&signal, 0.5);
        let crossings = eng.crossings(signal.times(), 0, 0.0).unwrap();
        assert!(crossings.iter().all(|c| c.kind == CrossingKind::Possible));
    }

    #[test]
    fn integral_bounds_contain_trapezoid_truth() {
        let signal = noisy(300, 4);
        let eng = engine_for(&signal, 0.5);
        // Trapezoid integral of the original samples.
        let mut truth = 0.0;
        for j in 1..signal.len() {
            let dt = signal.times()[j] - signal.times()[j - 1];
            truth += 0.5 * (signal.value(j, 0) + signal.value(j - 1, 0)) * dt;
        }
        let (a, b) = (signal.times()[0], *signal.times().last().unwrap());
        let res = eng.integral(a, b, 0).unwrap();
        assert!(res.contains(truth), "truth {truth} outside [{}, {}]", res.lo, res.hi);
    }

    #[test]
    fn works_with_swing_segments_too() {
        let signal = noisy(400, 5);
        let mut f = SwingFilter::new(&[0.7]).unwrap();
        let segs = run_filter(&mut f, &signal).unwrap();
        let eng = QueryEngine::new(Polyline::new(segs), &[0.7]).unwrap();
        let truth =
            (0..signal.len()).map(|j| signal.value(j, 0)).sum::<f64>() / signal.len() as f64;
        assert!(eng.mean(signal.times(), 0).unwrap().contains(truth));
    }

    #[test]
    fn error_cases() {
        let signal = noisy(50, 6);
        let eng = engine_for(&signal, 0.5);
        assert!(matches!(eng.mean(&[], 0), Err(QueryError::EmptyGrid)));
        assert!(matches!(eng.mean(signal.times(), 7), Err(QueryError::BadDimension(7))));
        assert!(matches!(eng.mean(&[1e12], 0), Err(QueryError::Uncovered { .. })));
        let poly =
            Polyline::new(run_filter(&mut SlideFilter::new(&[0.5]).unwrap(), &signal).unwrap());
        assert!(matches!(QueryEngine::new(poly, &[0.0]), Err(QueryError::InvalidEpsilon(_))));
    }
}
