//! The linear filter: fixed-slope piece-wise linear baseline (paper §2.2).
//!
//! A linear filter predicts that points fall near a line whose slope is
//! fixed by the *first two* points it represents. When a point lands more
//! than `εᵢ` from the predicted line in any dimension, the segment is
//! terminated at the prediction for the last accepted point, and a new
//! line starts:
//!
//! * [`LinearMode::Connected`] — the new line runs from the terminated
//!   segment's endpoint to the violating point (one recording per
//!   segment);
//! * [`LinearMode::Disconnected`] — the new line is defined by the
//!   violating point and the point after it (two recordings per segment).
//!
//! The linear filter is the natural "single-hypothesis" strawman the swing
//! and slide filters improve on: it commits to one line immediately
//! instead of maintaining the whole feasible set.

use pla_geom::{Line, Point2};

use crate::dimvec::DimVec;
use crate::error::FilterError;
use crate::kern;
use crate::segment::{validate_epsilons, Segment, SegmentSink};

use super::common::point_segment;
use super::{validate_push, StreamFilter};

/// Whether consecutive segments share endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinearMode {
    /// Segments share endpoints; one recording each (paper's comparison
    /// baseline).
    #[default]
    Connected,
    /// Segments are independent; two recordings each.
    Disconnected,
}

/// Per-interval bookkeeping. The approximating lines live on the filter
/// (`LinearFilter::lines`) and are recycled across intervals, so this
/// struct stays a few words and opening an interval allocates nothing.
#[derive(Debug, Clone)]
struct Interval {
    t_start: f64,
    start_connected: bool,
    last_t: f64,
    n_pts: u32,
}

#[derive(Debug, Clone)]
enum State {
    Empty,
    /// One pending point that will anchor the next interval.
    One {
        t: f64,
        x: DimVec<f64>,
        connected: bool,
    },
    Active(Interval),
}

/// The live interval's approximating lines in structure-of-arrays form.
/// Every dimension's line is anchored at the same time (the segment
/// start), so one anchor time serves all lanes: `xᵢ(t) = x0ᵢ + slopeᵢ ·
/// (t − t0)` — the same expression tree as [`Line::eval`]. Buffers are
/// sized once at construction and overwritten per interval.
#[derive(Debug, Clone)]
struct SharedLines {
    t0: f64,
    x0: DimVec<f64>,
    slope: DimVec<f64>,
}

impl SharedLines {
    fn new(dims: usize) -> Self {
        Self { t0: 0.0, x0: DimVec::splat(dims, 0.0), slope: DimVec::splat(dims, 0.0) }
    }

    /// Refits every dimension's line through `(t0, x0[d])` and
    /// `(t1, x1[d])` — the same construction as [`Line::through`].
    fn refit(&mut self, t0: f64, x0: &[f64], t1: f64, x1: &[f64]) {
        self.t0 = t0;
        let xs = self.x0.as_mut_slice();
        let slopes = self.slope.as_mut_slice();
        for d in 0..x0.len() {
            let line = Line::through(Point2::new(t0, x0[d]), Point2::new(t1, x1[d]));
            xs[d] = line.x0;
            slopes[d] = line.slope;
        }
    }

    #[inline]
    fn eval(&self, d: usize, t: f64) -> f64 {
        self.x0[d] + self.slope[d] * (t - self.t0)
    }
}

/// Piece-wise linear baseline filter. See the module docs.
///
/// ```
/// use pla_core::filters::{LinearFilter, LinearMode, StreamFilter};
/// use pla_core::Segment;
///
/// let mut filter = LinearFilter::with_mode(&[0.5], LinearMode::Connected).unwrap();
/// let mut out: Vec<Segment> = Vec::new();
/// // Slope is fixed by the first two points; the jump breaks the line.
/// for (t, x) in [(0.0, 0.0), (1.0, 1.0), (2.0, 2.1), (3.0, 9.0), (4.0, 15.0)] {
///     filter.push(t, &[x], &mut out).unwrap();
/// }
/// filter.finish(&mut out).unwrap();
/// assert!(out.len() >= 2);
/// assert!(out[1].connected); // connected mode chains endpoints
/// ```
#[derive(Debug, Clone)]
pub struct LinearFilter {
    eps: DimVec<f64>,
    mode: LinearMode,
    state: State,
    /// Approximating lines of the live interval, anchored at the segment
    /// start. Recycled across intervals (buffers retained).
    lines: SharedLines,
    emitted_any: bool,
}

impl LinearFilter {
    /// Creates a connected-mode linear filter.
    pub fn new(eps: &[f64]) -> Result<Self, FilterError> {
        Self::with_mode(eps, LinearMode::default())
    }

    /// Creates a linear filter with an explicit segment mode.
    pub fn with_mode(eps: &[f64], mode: LinearMode) -> Result<Self, FilterError> {
        validate_epsilons(eps)?;
        Ok(Self {
            eps: eps.into(),
            mode,
            state: State::Empty,
            lines: SharedLines::new(eps.len()),
            emitted_any: false,
        })
    }

    /// The configured mode.
    pub fn mode(&self) -> LinearMode {
        self.mode
    }

    /// Opens an interval, refilling the filter's recycled line buffers.
    fn start_interval(
        &mut self,
        t0: f64,
        x0: &[f64],
        t1: f64,
        x1: &[f64],
        connected: bool,
    ) -> Interval {
        self.lines.refit(t0, x0, t1, x1);
        Interval { t_start: t0, start_connected: connected, last_t: t1, n_pts: 2 }
    }

    /// Associated (not `&self`) so the push hot path can test acceptance
    /// while holding a disjoint mutable borrow of the live interval.
    #[inline]
    fn fits(eps: &DimVec<f64>, lines: &SharedLines, t: f64, x: &[f64]) -> bool {
        let dt = t - lines.t0;
        kern::fits_affine(&lines.x0, &lines.slope, eps, dt, x)
    }

    /// Ends `iv` at its last accepted time, emitting the segment and
    /// returning the predicted endpoint.
    fn close_interval(&mut self, iv: &Interval, sink: &mut dyn SegmentSink) -> (f64, DimVec<f64>) {
        let t_end = iv.last_t;
        let x_end = DimVec::from_fn(self.eps.len(), |d| self.lines.eval(d, t_end));
        let x_start = DimVec::from_fn(self.eps.len(), |d| self.lines.eval(d, iv.t_start));
        let new_recordings = if iv.start_connected { 1 } else { 2 };
        sink.segment(Segment {
            t_start: iv.t_start,
            x_start,
            t_end,
            x_end: x_end.clone(),
            connected: iv.start_connected,
            n_points: iv.n_pts,
            new_recordings,
        });
        self.emitted_any = true;
        (t_end, x_end)
    }

    fn last_t(&self) -> Option<f64> {
        match &self.state {
            State::Empty => None,
            State::One { t, .. } => Some(*t),
            State::Active(iv) => Some(iv.last_t),
        }
    }
}

impl StreamFilter for LinearFilter {
    fn dims(&self) -> usize {
        self.eps.len()
    }

    fn epsilons(&self) -> &[f64] {
        &self.eps
    }

    fn push(&mut self, t: f64, x: &[f64], sink: &mut dyn SegmentSink) -> Result<(), FilterError> {
        validate_push(self.dims(), self.last_t(), t, x)?;
        // Hot path: an accepted sample extends the live interval in place
        // — no state-enum move per point.
        if let State::Active(iv) = &mut self.state {
            if Self::fits(&self.eps, &self.lines, t, x) {
                iv.last_t = t;
                iv.n_pts += 1;
                return Ok(());
            }
        }
        match std::mem::replace(&mut self.state, State::Empty) {
            State::Empty => {
                self.state = State::One { t, x: x.into(), connected: false };
            }
            State::One { t: t0, x: x0, connected } => {
                self.state = State::Active(self.start_interval(t0, &x0, t, x, connected));
            }
            State::Active(iv) => {
                // Violation (the in-place accept above didn't take it):
                // close and restart.
                let (t_end, x_end) = self.close_interval(&iv, sink);
                match self.mode {
                    LinearMode::Connected => {
                        // Slope fixed by the terminated endpoint and
                        // the violating point; the violator is the
                        // interval's first represented sample.
                        let mut next = self.start_interval(t_end, &x_end, t, x, true);
                        next.n_pts = 1;
                        self.state = State::Active(next);
                    }
                    LinearMode::Disconnected => {
                        self.state = State::One { t, x: x.into(), connected: false };
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(&mut self, sink: &mut dyn SegmentSink) -> Result<(), FilterError> {
        match std::mem::replace(&mut self.state, State::Empty) {
            State::Empty => {}
            State::One { t, x, connected } => {
                sink.segment(point_segment(t, &x, connected));
            }
            State::Active(iv) => {
                self.close_interval(&iv, sink);
            }
        }
        self.emitted_any = false;
        Ok(())
    }

    fn pending_points(&self) -> usize {
        match &self.state {
            State::Empty => 0,
            State::One { .. } => 1,
            State::Active(iv) => iv.n_pts as usize,
        }
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::run_filter;
    use crate::sample::Signal;

    fn compress(values: &[f64], eps: f64, mode: LinearMode) -> Vec<Segment> {
        let mut f = LinearFilter::with_mode(&[eps], mode).unwrap();
        run_filter(&mut f, &Signal::from_values(values)).unwrap()
    }

    #[test]
    fn straight_ramp_is_one_segment() {
        let values: Vec<f64> = (0..50).map(|i| 2.0 * i as f64).collect();
        for mode in [LinearMode::Connected, LinearMode::Disconnected] {
            let segs = compress(&values, 0.1, mode);
            assert_eq!(segs.len(), 1, "{mode:?}");
            assert_eq!(segs[0].n_points, 50);
            assert!((segs[0].slope(0) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_example_breaks_at_fourth_point() {
        // Figure 2: slope set by points 1–2; point 3 fits, point 4 exceeds
        // ε from the fixed line.
        let signal = Signal::from_pairs(&[
            (1.0, 0.0),
            (2.0, 1.0), // slope fixed at 1
            (3.0, 2.3), // |2.3 − 2| ≤ 0.5 → ok
            (4.0, 4.2), // |4.2 − 3| > 0.5 → violation
            (5.0, 6.2), // fits the new line (3,2)→(4,4.2): predicts 6.4
        ]);
        let mut f = LinearFilter::new(&[0.5]).unwrap();
        let segs = run_filter(&mut f, &signal).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].t_end, 3.0);
        // connected: second segment starts at first segment's end
        assert_eq!(segs[1].t_start, 3.0);
        assert!(segs[1].connected);
        assert_eq!(segs[1].new_recordings, 1);
    }

    #[test]
    fn disconnected_mode_restarts_from_data_points() {
        let signal = Signal::from_pairs(&[
            (1.0, 0.0),
            (2.0, 1.0),
            (3.0, 2.0),
            (4.0, 10.0), // violation
            (5.0, 11.0),
            (6.0, 12.0),
        ]);
        let mut f = LinearFilter::with_mode(&[0.5], LinearMode::Disconnected).unwrap();
        let segs = run_filter(&mut f, &signal).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].t_end, 3.0);
        assert_eq!(segs[1].t_start, 4.0);
        assert_eq!(segs[1].x_start[0], 10.0); // anchored at the data point
        assert!(!segs[1].connected);
        assert_eq!(segs[1].new_recordings, 2);
    }

    #[test]
    fn connected_endpoints_chain() {
        let values: Vec<f64> = (0..60)
            .map(|i| {
                if i < 20 {
                    i as f64
                } else if i < 40 {
                    40.0 - i as f64
                } else {
                    i as f64 - 40.0
                }
            })
            .collect();
        let segs = compress(&values, 0.25, LinearMode::Connected);
        assert!(segs.len() >= 3);
        for pair in segs.windows(2) {
            assert_eq!(pair[0].t_end, pair[1].t_start);
            assert!((pair[0].x_end[0] - pair[1].x_start[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn precision_guarantee_holds() {
        let values: Vec<f64> = (0..300)
            .map(|i| ((i as f64) * 0.21).sin() * 5.0 + ((i as f64) * 0.043).cos() * 2.0)
            .collect();
        let signal = Signal::from_values(&values);
        for mode in [LinearMode::Connected, LinearMode::Disconnected] {
            let mut f = LinearFilter::with_mode(&[0.3], mode).unwrap();
            let segs = run_filter(&mut f, &signal).unwrap();
            for (t, x) in signal.iter() {
                let seg = segs.iter().find(|s| s.covers(t)).expect("sample covered");
                assert!(
                    (seg.eval(t, 0) - x[0]).abs() <= 0.3 + 1e-9,
                    "{mode:?} broke the guarantee at t={t}"
                );
            }
        }
    }

    #[test]
    fn two_point_stream() {
        let segs = compress(&[1.0, 2.0], 0.1, LinearMode::Connected);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].n_points, 2);
        assert_eq!(segs[0].new_recordings, 2);
    }

    #[test]
    fn single_point_stream() {
        let segs = compress(&[1.0], 0.1, LinearMode::Disconnected);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].n_points, 1);
    }

    #[test]
    fn trailing_violator_becomes_point_segment() {
        let segs = compress(&[0.0, 1.0, 2.0, 50.0], 0.1, LinearMode::Disconnected);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[1].t_start, segs[1].t_end);
        assert_eq!(segs[1].x_start[0], 50.0);
    }

    #[test]
    fn multi_dim_violation_any_dimension() {
        let mut s = Signal::new(2);
        for j in 0..6 {
            let t = j as f64;
            // dim 0 perfectly linear; dim 1 jumps at j=4
            let x1 = if j < 4 { 0.0 } else { 5.0 };
            s.push(t, &[t, x1]).unwrap();
        }
        let mut f = LinearFilter::new(&[0.5, 0.5]).unwrap();
        let segs = run_filter(&mut f, &s).unwrap();
        // The jump in dim 1 forces a break at t=3; the steep recovery line
        // breaks again right after, so at least two segments result.
        assert!(segs.len() >= 2);
        assert_eq!(segs[0].t_end, 3.0);
    }

    #[test]
    fn reusable_after_finish() {
        let mut f = LinearFilter::new(&[0.2]).unwrap();
        let s = Signal::from_values(&[0.0, 1.0, 0.0, 1.0, 8.0]);
        let a = run_filter(&mut f, &s).unwrap();
        let b = run_filter(&mut f, &s).unwrap();
        assert_eq!(a, b);
    }
}
