//! Receiver-side reconstruction: turn a segment stream back into a
//! queryable function.
//!
//! The receiver of the paper's monitoring pipeline sees only recordings;
//! [`Polyline`] is the function those recordings define. Evaluation inside
//! a segment interpolates linearly; evaluation in a gap between
//! disconnected segments is governed by [`GapPolicy`]. Gaps never contain
//! original sample times (segments jointly cover every sample — an
//! invariant the test suites check), so the policy only matters when
//! resampling at arbitrary times.

use crate::sample::Signal;
use crate::segment::Segment;

/// How [`Polyline::eval`] treats times falling between two disconnected
/// segments (or outside the covered span).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GapPolicy {
    /// Return `None`.
    #[default]
    Strict,
    /// Hold the previous segment's end value (a receiver that keeps
    /// displaying the last known value).
    Hold,
    /// Interpolate linearly between the surrounding segment endpoints.
    Interpolate,
}

/// An immutable piece-wise linear function assembled from segments.
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    segments: Vec<Segment>,
    dims: usize,
}

impl Polyline {
    /// Builds a polyline from time-ordered segments.
    ///
    /// # Panics
    ///
    /// Panics if segments overlap, run backwards in time, or disagree on
    /// dimensionality — filters never produce such streams.
    pub fn new(segments: Vec<Segment>) -> Self {
        let dims = segments.first().map_or(1, |s| s.dims());
        for s in &segments {
            assert_eq!(s.dims(), dims, "segments must agree on dimensionality");
            assert!(s.t_end >= s.t_start, "segment runs backwards");
        }
        for pair in segments.windows(2) {
            assert!(
                pair[1].t_start >= pair[0].t_end - 1e-9,
                "segments overlap: {} then {}",
                pair[0].t_end,
                pair[1].t_start
            );
        }
        Self { segments, dims }
    }

    /// The underlying segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total recordings the segments cost (the paper's §5.1 denominator).
    pub fn recordings(&self) -> u64 {
        self.segments.iter().map(|s| s.new_recordings as u64).sum()
    }

    /// Covered time span `(first start, last end)`, or `None` when empty.
    pub fn span(&self) -> Option<(f64, f64)> {
        Some((self.segments.first()?.t_start, self.segments.last()?.t_end))
    }

    /// Index of the segment covering `t`: the last segment starting at or
    /// before `t`, so of two abutting segments the later one wins.
    fn find(&self, t: f64) -> Result<usize, usize> {
        // Binary search on start times, then check coverage.
        let idx = self.segments.partition_point(|s| s.t_start <= t);
        if idx == 0 {
            return Err(0);
        }
        let cand = idx - 1;
        if self.segments[cand].covers(t) {
            Ok(cand)
        } else if idx < self.segments.len() && self.segments[idx].covers(t) {
            Ok(idx)
        } else {
            Err(idx)
        }
    }

    /// Value of dimension `dim` at time `t` under `policy`.
    pub fn eval(&self, t: f64, dim: usize, policy: GapPolicy) -> Option<f64> {
        assert!(dim < self.dims);
        match self.find(t) {
            Ok(i) => Some(self.segments[i].eval(t, dim)),
            Err(after) => match policy {
                GapPolicy::Strict => None,
                GapPolicy::Hold => {
                    if after == 0 {
                        None
                    } else {
                        Some(self.segments[after - 1].x_end[dim])
                    }
                }
                GapPolicy::Interpolate => {
                    if after == 0 || after >= self.segments.len() {
                        None
                    } else {
                        let a = &self.segments[after - 1];
                        let b = &self.segments[after];
                        let frac = (t - a.t_end) / (b.t_start - a.t_end);
                        Some(a.x_end[dim] + frac * (b.x_start[dim] - a.x_end[dim]))
                    }
                }
            },
        }
    }

    /// Resamples the polyline at the given times into a [`Signal`]
    /// (receiver-side replay of the original sampling grid).
    ///
    /// Returns `None` if any time is uncovered under the policy.
    pub fn resample(&self, times: &[f64], policy: GapPolicy) -> Option<Signal> {
        let mut out = Signal::with_capacity(self.dims, times.len());
        let mut buf = vec![0.0; self.dims];
        for &t in times {
            for (dim, slot) in buf.iter_mut().enumerate() {
                *slot = self.eval(t, dim, policy)?;
            }
            out.push(t, &buf).ok()?;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(t0: f64, x0: f64, t1: f64, x1: f64, connected: bool) -> Segment {
        Segment {
            t_start: t0,
            x_start: [x0].into(),
            t_end: t1,
            x_end: [x1].into(),
            connected,
            n_points: 2,
            new_recordings: if connected { 1 } else { 2 },
        }
    }

    fn sample_polyline() -> Polyline {
        Polyline::new(vec![
            seg(0.0, 0.0, 2.0, 2.0, false),
            // gap (2, 3)
            seg(3.0, 5.0, 5.0, 5.0, false),
            seg(5.0, 5.0, 6.0, 4.0, true),
        ])
    }

    #[test]
    fn eval_inside_segments() {
        let p = sample_polyline();
        assert_eq!(p.eval(1.0, 0, GapPolicy::Strict), Some(1.0));
        assert_eq!(p.eval(4.0, 0, GapPolicy::Strict), Some(5.0));
        assert_eq!(p.eval(5.5, 0, GapPolicy::Strict), Some(4.5));
    }

    #[test]
    fn boundary_times_resolve() {
        let p = sample_polyline();
        assert_eq!(p.eval(2.0, 0, GapPolicy::Strict), Some(2.0));
        assert_eq!(p.eval(3.0, 0, GapPolicy::Strict), Some(5.0));
        assert_eq!(p.eval(5.0, 0, GapPolicy::Strict), Some(5.0));
        assert_eq!(p.eval(0.0, 0, GapPolicy::Strict), Some(0.0));
        assert_eq!(p.eval(6.0, 0, GapPolicy::Strict), Some(4.0));
        // A disconnected jump at t = 1: the later segment wins under
        // every policy (the sample polyline's abutting values at t = 5
        // are equal, so only a jump tells the two covers apart).
        let jump =
            Polyline::new(vec![seg(0.0, 0.0, 1.0, 0.0, false), seg(1.0, 10.0, 2.0, 10.0, false)]);
        for policy in [GapPolicy::Strict, GapPolicy::Hold, GapPolicy::Interpolate] {
            assert_eq!(jump.eval(1.0, 0, policy), Some(10.0));
        }
    }

    #[test]
    fn gap_policies() {
        let p = sample_polyline();
        assert_eq!(p.eval(2.5, 0, GapPolicy::Strict), None);
        assert_eq!(p.eval(2.5, 0, GapPolicy::Hold), Some(2.0));
        assert_eq!(p.eval(2.5, 0, GapPolicy::Interpolate), Some(3.5));
    }

    #[test]
    fn outside_span() {
        let p = sample_polyline();
        assert_eq!(p.eval(-1.0, 0, GapPolicy::Hold), None);
        assert_eq!(p.eval(7.0, 0, GapPolicy::Strict), None);
        assert_eq!(p.eval(7.0, 0, GapPolicy::Hold), Some(4.0));
    }

    #[test]
    fn recordings_accounting() {
        let p = sample_polyline();
        assert_eq!(p.recordings(), 2 + 2 + 1);
    }

    #[test]
    fn resample_round_trip() {
        let p = sample_polyline();
        let s = p.resample(&[0.0, 1.0, 4.0, 6.0], GapPolicy::Strict).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.value(1, 0), 1.0);
        assert!(p.resample(&[2.5], GapPolicy::Strict).is_none());
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_segments_rejected() {
        Polyline::new(vec![seg(0.0, 0.0, 2.0, 2.0, false), seg(1.0, 0.0, 3.0, 0.0, false)]);
    }

    #[test]
    fn empty_polyline() {
        let p = Polyline::new(vec![]);
        assert_eq!(p.span(), None);
        assert_eq!(p.eval(0.0, 0, GapPolicy::Hold), None);
        assert_eq!(p.recordings(), 0);
    }
}
