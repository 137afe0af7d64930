//! The swing filter (paper §3): connected segments from a maintained set
//! of candidate lines.
//!
//! For each filtering interval `k` the filter keeps, per dimension, the
//! cone of lines through the previous recording `(t_{k−1}, X_{k−1})` that
//! are within `εᵢ` of every point observed so far, represented by its two
//! extreme slopes (`uᵢᵏ` and `lᵢᵏ`). A new point is accepted iff its value
//! lies within `εᵢ` of the band `[lᵢᵏ, uᵢᵏ]`; accepting may *swing* `lᵢᵏ`
//! up or `uᵢᵏ` down (Algorithm 1 lines 14–18), which preserves the
//! invariant that every line in the cone represents every point
//! (Theorem 3.1). On violation the filter records the endpoint of the
//! mean-square-error-optimal line of the cone (eq. 5–6) and starts the
//! next interval at that recording — hence connected segments, one
//! recording each.
//!
//! Time and space are O(d) per point: the cone is two slopes per
//! dimension and the MSE solution is computed from running sums.
//!
//! # Lag bound
//!
//! With [`SwingBuilder::max_lag`], an interval that accumulates
//! `m_max_lag` points commits to its MSE-optimal line, ships it to the
//! receiver as a [`ProvisionalUpdate`],
//! and degrades to a plain linear filter until the interval ends (paper
//! §3.3), keeping the receiver at most `m_max_lag` points behind.

use crate::dimvec::DimVec;
use crate::error::FilterError;
use crate::kern;
use crate::mse::RegressionSums;
use crate::segment::{validate_epsilons, ProvisionalUpdate, Segment, SegmentSink};

use super::common::point_segment;
use super::{validate_batch, validate_push, StreamFilter};
use crate::error::BatchError;

/// How the swing filter picks the recording that ends an interval
/// (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecordingStrategy {
    /// Minimize the interval's mean square error among feasible lines
    /// (eq. 5–6) — the paper's choice.
    #[default]
    MseOptimal,
    /// The "straightforward approach" the paper rejects: head toward the
    /// last observed data point, clamped into the feasible cone so the
    /// precision guarantee still holds. Cheaper (no running sums) but
    /// yields higher average error; kept for the ablation benchmarks.
    ClampedLastPoint,
}

/// Per-interval state, all inline ([`DimVec`]) for `d ≤ 4`; the running
/// regression sums live on the filter and are recycled across intervals.
#[derive(Debug, Clone)]
struct Interval {
    /// Previous recording — all candidate lines pass through it.
    origin_t: f64,
    origin_x: DimVec<f64>,
    /// True only for the first interval of a stream, whose origin is the
    /// first data point and costs an extra recording.
    origin_is_first: bool,
    /// Extreme slopes of the candidate cone, per dimension.
    u_slope: DimVec<f64>,
    l_slope: DimVec<f64>,
    /// Last accepted sample.
    last_t: f64,
    last_x: DimVec<f64>,
    /// Points represented by this interval (the paper's `mₖ`).
    n_pts: u32,
    /// Committed slopes once the lag bound froze the interval.
    frozen: Option<DimVec<f64>>,
}

// One `State` lives per filter (never in collections), so the size gap
// between `Empty` and `Active` costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum State {
    Empty,
    One { t: f64, x: DimVec<f64> },
    Active(Interval),
}

/// Builder for [`SwingFilter`].
#[derive(Debug, Clone)]
pub struct SwingBuilder {
    eps: Vec<f64>,
    max_lag: Option<usize>,
    recording: RecordingStrategy,
}

impl SwingBuilder {
    /// Bounds the transmitter→receiver lag to `m_max_lag` data points
    /// (must be ≥ 2). Unset by default: unbounded lag, maximum
    /// compression, matching the paper's experimental setup.
    pub fn max_lag(mut self, m: usize) -> Self {
        self.max_lag = Some(m);
        self
    }

    /// Selects the recording strategy (default:
    /// [`RecordingStrategy::MseOptimal`]).
    pub fn recording(mut self, strategy: RecordingStrategy) -> Self {
        self.recording = strategy;
        self
    }

    /// Validates the configuration and builds the filter.
    pub fn build(self) -> Result<SwingFilter, FilterError> {
        validate_epsilons(&self.eps)?;
        if let Some(m) = self.max_lag {
            if m < 2 {
                return Err(FilterError::InvalidMaxLag { value: m });
            }
        }
        Ok(SwingFilter {
            sums: RegressionSums::new(0.0, &vec![0.0; self.eps.len()]),
            eps: self.eps.as_slice().into(),
            max_lag: self.max_lag,
            recording: self.recording,
            state: State::Empty,
        })
    }
}

/// The swing filter. See the module docs.
///
/// ```
/// use pla_core::filters::{StreamFilter, SwingFilter};
/// use pla_core::Segment;
///
/// // ε = 0.5, lag bounded to 100 samples.
/// let mut filter = SwingFilter::builder(&[0.5]).max_lag(100).build().unwrap();
/// let mut out: Vec<Segment> = Vec::new();
/// for j in 0..50 {
///     // A clean ramp: one connected segment suffices.
///     filter.push(j as f64, &[2.0 * j as f64], &mut out).unwrap();
/// }
/// filter.finish(&mut out).unwrap();
/// assert_eq!(out.len(), 1);
/// assert!((out[0].slope(0) - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct SwingFilter {
    eps: DimVec<f64>,
    max_lag: Option<usize>,
    recording: RecordingStrategy,
    state: State,
    /// Regression moments of the live interval, recycled via `reset()`
    /// so opening an interval never allocates.
    sums: RegressionSums,
}

impl SwingFilter {
    /// Creates a swing filter with unbounded lag.
    pub fn new(eps: &[f64]) -> Result<Self, FilterError> {
        Self::builder(eps).build()
    }

    /// Starts configuring a swing filter.
    pub fn builder(eps: &[f64]) -> SwingBuilder {
        SwingBuilder { eps: eps.to_vec(), max_lag: None, recording: RecordingStrategy::default() }
    }

    /// The configured lag bound, if any.
    pub fn max_lag(&self) -> Option<usize> {
        self.max_lag
    }

    /// The configured recording strategy.
    pub fn recording_strategy(&self) -> RecordingStrategy {
        self.recording
    }

    fn start_interval(
        &mut self,
        origin_t: f64,
        origin_x: DimVec<f64>,
        origin_is_first: bool,
        t: f64,
        x: &[f64],
        n_pts: u32,
    ) -> Interval {
        let dt = t - origin_t;
        let u_slope = DimVec::from_fn(self.dims(), |d| (x[d] + self.eps[d] - origin_x[d]) / dt);
        let l_slope = DimVec::from_fn(self.dims(), |d| (x[d] - self.eps[d] - origin_x[d]) / dt);
        self.sums.reset(origin_t, &origin_x);
        if self.recording == RecordingStrategy::MseOptimal {
            self.sums.push(t, x);
        }
        Interval {
            origin_t,
            origin_x,
            origin_is_first,
            u_slope,
            l_slope,
            last_t: t,
            last_x: x.into(),
            n_pts,
            frozen: None,
        }
    }

    /// Fused acceptance test + cone update (Algorithm 1 lines 7 and
    /// 14–18): returns whether `(t, x)` can still be represented by the
    /// interval's candidate set, swinging `lᵢᵏ` / `uᵢᵏ` in place when it
    /// can. Frozen intervals are only checked against the committed line,
    /// never mutated.
    ///
    /// Associated (not `&self`) so the push hot path can run while
    /// holding a disjoint mutable borrow of the live interval.
    fn step(eps: &DimVec<f64>, iv: &mut Interval, t: f64, x: &[f64]) -> bool {
        let dt = t - iv.origin_t;
        if let Some(slopes) = &iv.frozen {
            return kern::fits_affine(&iv.origin_x, slopes, eps, dt, x);
        }
        let fit = kern::swing_step(&iv.origin_x, eps, dt, x, &mut iv.l_slope, &mut iv.u_slope);
        #[cfg(debug_assertions)]
        if fit {
            for d in 0..x.len() {
                debug_assert!(
                    iv.l_slope[d] <= iv.u_slope[d] + 1e-12 * iv.u_slope[d].abs().max(1.0),
                    "swing cone emptied: dim {d}"
                );
            }
        }
        fit
    }

    /// [`step`](Self::step) followed, on a fit, by the MSE
    /// accumulation — the dominant `MseOptimal` accept path of a
    /// non-frozen interval. Associated for the same borrow reason.
    #[inline]
    fn step_mse(
        eps: &DimVec<f64>,
        sums: &mut RegressionSums,
        iv: &mut Interval,
        t: f64,
        x: &[f64],
    ) -> bool {
        debug_assert!(iv.frozen.is_none());
        let fit = Self::step(eps, iv, t, x);
        if fit {
            sums.push(t, x);
        }
        fit
    }

    /// The recording slopes: MSE-optimal (eq. 5), clamped-last-point, or
    /// the frozen ones.
    fn final_slopes(&self, iv: &Interval) -> DimVec<f64> {
        if let Some(slopes) = &iv.frozen {
            return slopes.clone();
        }
        match self.recording {
            RecordingStrategy::MseOptimal => DimVec::from_fn(self.dims(), |d| {
                self.sums.clamped_slope(
                    iv.origin_t,
                    iv.origin_x[d],
                    d,
                    iv.l_slope[d],
                    iv.u_slope[d],
                )
            }),
            RecordingStrategy::ClampedLastPoint => {
                let dt = iv.last_t - iv.origin_t;
                DimVec::from_fn(self.dims(), |d| {
                    let toward_last =
                        if dt > 0.0 { (iv.last_x[d] - iv.origin_x[d]) / dt } else { 0.0 };
                    toward_last.clamp(iv.l_slope[d], iv.u_slope[d])
                })
            }
        }
    }

    /// Ends the interval at its last accepted sample, emitting the
    /// connected segment, and returns the new recording.
    fn close_interval(&self, iv: &Interval, sink: &mut dyn SegmentSink) -> (f64, DimVec<f64>) {
        let slopes = self.final_slopes(iv);
        let t_k = iv.last_t;
        let x_k =
            DimVec::from_fn(self.dims(), |d| iv.origin_x[d] + slopes[d] * (t_k - iv.origin_t));
        sink.segment(Segment {
            t_start: iv.origin_t,
            x_start: iv.origin_x.clone(),
            t_end: t_k,
            x_end: x_k.clone(),
            connected: !iv.origin_is_first,
            n_points: iv.n_pts,
            new_recordings: if iv.origin_is_first { 2 } else { 1 },
        });
        (t_k, x_k)
    }

    fn maybe_freeze(&self, iv: &mut Interval, sink: &mut dyn SegmentSink) {
        let Some(m) = self.max_lag else { return };
        if iv.frozen.is_some() || (iv.n_pts as usize) < m {
            return;
        }
        let slopes = self.final_slopes(iv);
        sink.provisional(ProvisionalUpdate {
            t_anchor: iv.origin_t,
            x_anchor: iv.origin_x.clone(),
            slopes: slopes.clone(),
            covers_through: iv.last_t,
        });
        iv.frozen = Some(slopes);
    }

    fn last_t(&self) -> Option<f64> {
        match &self.state {
            State::Empty => None,
            State::One { t, .. } => Some(*t),
            State::Active(iv) => Some(iv.last_t),
        }
    }
}

impl StreamFilter for SwingFilter {
    fn dims(&self) -> usize {
        self.eps.len()
    }

    fn epsilons(&self) -> &[f64] {
        &self.eps
    }

    fn push(&mut self, t: f64, x: &[f64], sink: &mut dyn SegmentSink) -> Result<(), FilterError> {
        validate_push(self.dims(), self.last_t(), t, x)?;
        // Hot path: an accepted sample swings the live interval's cone in
        // place — no state-enum move per point. Lag-bounded filters take
        // the general path below (they may need to freeze via the sink).
        if self.max_lag.is_none() {
            if let State::Active(iv) = &mut self.state {
                if iv.frozen.is_none() {
                    let fit = if self.recording == RecordingStrategy::MseOptimal {
                        Self::step_mse(&self.eps, &mut self.sums, iv, t, x)
                    } else {
                        Self::step(&self.eps, iv, t, x)
                    };
                    if fit {
                        iv.last_t = t;
                        iv.last_x.copy_from_slice(x);
                        iv.n_pts += 1;
                        return Ok(());
                    }
                }
            }
        }
        match std::mem::replace(&mut self.state, State::Empty) {
            State::Empty => {
                self.state = State::One { t, x: x.into() };
            }
            State::One { t: t1, x: x1 } => {
                // Algorithm 1 lines 1–4: the first point is recorded as
                // (t₀′, X₀′); the first interval covers both points.
                let mut iv = self.start_interval(t1, x1, true, t, x, 2);
                self.maybe_freeze(&mut iv, sink);
                self.state = State::Active(iv);
            }
            State::Active(mut iv) => {
                let fit = if iv.frozen.is_none() && self.recording == RecordingStrategy::MseOptimal
                {
                    Self::step_mse(&self.eps, &mut self.sums, &mut iv, t, x)
                } else {
                    Self::step(&self.eps, &mut iv, t, x)
                };
                if fit {
                    iv.last_t = t;
                    iv.last_x.copy_from_slice(x);
                    iv.n_pts += 1;
                    self.maybe_freeze(&mut iv, sink);
                    self.state = State::Active(iv);
                } else {
                    // Algorithm 1 lines 8–10: record and start the next
                    // interval at the recording, seeded by the violator.
                    let (t_k, x_k) = self.close_interval(&iv, sink);
                    let mut next = self.start_interval(t_k, x_k, false, t, x, 1);
                    self.maybe_freeze(&mut next, sink);
                    self.state = State::Active(next);
                }
            }
        }
        Ok(())
    }

    /// Batch fast path: one validation scan for the whole batch, then an
    /// inner accept loop that keeps the live interval out of the state
    /// enum (no per-point `mem::replace` of the interval struct).
    fn push_batch(
        &mut self,
        samples: &[(f64, &[f64])],
        sink: &mut dyn SegmentSink,
    ) -> Result<usize, BatchError> {
        let (upto, err) = validate_batch(self.dims(), self.last_t(), samples);
        let mut state = std::mem::replace(&mut self.state, State::Empty);
        let mut i = 0;
        while i < upto {
            let (t, x) = samples[i];
            state = match state {
                State::Empty => {
                    i += 1;
                    State::One { t, x: x.into() }
                }
                State::One { t: t1, x: x1 } => {
                    i += 1;
                    let mut iv = self.start_interval(t1, x1, true, t, x, 2);
                    self.maybe_freeze(&mut iv, sink);
                    State::Active(iv)
                }
                State::Active(mut iv) => {
                    // Absorb the longest run of accepted samples.
                    while i < upto {
                        let (t, x) = samples[i];
                        let fit = if iv.frozen.is_none()
                            && self.recording == RecordingStrategy::MseOptimal
                        {
                            Self::step_mse(&self.eps, &mut self.sums, &mut iv, t, x)
                        } else {
                            Self::step(&self.eps, &mut iv, t, x)
                        };
                        if !fit {
                            break;
                        }
                        iv.last_t = t;
                        iv.last_x.copy_from_slice(x);
                        iv.n_pts += 1;
                        self.maybe_freeze(&mut iv, sink);
                        i += 1;
                    }
                    if i < upto {
                        // The violator closes the interval and seeds the next.
                        let (t, x) = samples[i];
                        i += 1;
                        let (t_k, x_k) = self.close_interval(&iv, sink);
                        let mut next = self.start_interval(t_k, x_k, false, t, x, 1);
                        self.maybe_freeze(&mut next, sink);
                        State::Active(next)
                    } else {
                        State::Active(iv)
                    }
                }
            };
        }
        self.state = state;
        match err {
            Some(error) => Err(BatchError { absorbed: upto, error }),
            None => Ok(upto),
        }
    }

    fn finish(&mut self, sink: &mut dyn SegmentSink) -> Result<(), FilterError> {
        match std::mem::replace(&mut self.state, State::Empty) {
            State::Empty => {}
            State::One { t, x } => sink.segment(point_segment(t, &x, false)),
            State::Active(iv) => {
                self.close_interval(&iv, sink);
            }
        }
        Ok(())
    }

    fn pending_points(&self) -> usize {
        match &self.state {
            State::Empty => 0,
            State::One { .. } => 1,
            // Once frozen, the receiver holds a line that represents every
            // accepted point of the interval, so nothing is pending.
            State::Active(iv) => {
                if iv.frozen.is_some() {
                    0
                } else {
                    iv.n_pts as usize
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "swing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::{run_filter, LinearFilter};
    use crate::sample::Signal;
    use crate::segment::CollectingSink;

    fn compress(signal: &Signal, eps: f64) -> Vec<Segment> {
        let mut f = SwingFilter::new(&vec![eps; signal.dims()]).unwrap();
        run_filter(&mut f, signal).unwrap()
    }

    /// The Figure 2/3 scenario: the linear filter (slope fixed by the
    /// first two points) rejects the fourth point, the swing filter keeps
    /// swinging and accepts it.
    #[test]
    fn swing_outlives_linear_on_paper_pattern() {
        let signal =
            Signal::from_pairs(&[(1.0, 0.0), (2.0, 1.0), (3.0, 2.5), (4.0, 4.5), (5.0, 8.1)]);
        let mut linear = LinearFilter::new(&[1.0]).unwrap();
        let linear_segs = run_filter(&mut linear, &signal).unwrap();
        assert!(linear_segs.len() >= 2, "linear must split at the 4th point");
        assert_eq!(linear_segs[0].t_end, 3.0);

        let swing_segs = compress(&signal, 1.0);
        assert_eq!(swing_segs.len(), 2, "swing splits only at the 5th point");
        assert_eq!(swing_segs[0].t_end, 4.0);
    }

    #[test]
    fn straight_line_is_one_segment() {
        let values: Vec<f64> = (0..100).map(|i| 0.5 * i as f64 + 3.0).collect();
        let segs = compress(&Signal::from_values(&values), 0.01);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].n_points, 100);
        assert!((segs[0].slope(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn segments_are_connected() {
        let values: Vec<f64> = (0..200).map(|i| ((i as f64) * 0.25).sin() * 4.0).collect();
        let segs = compress(&Signal::from_values(&values), 0.2);
        assert!(segs.len() > 2);
        assert!(!segs[0].connected);
        assert_eq!(segs[0].new_recordings, 2);
        for pair in segs.windows(2) {
            assert_eq!(pair[0].t_end, pair[1].t_start);
            for d in 0..1 {
                assert!((pair[0].x_end[d] - pair[1].x_start[d]).abs() < 1e-12);
            }
            assert!(pair[1].connected);
            assert_eq!(pair[1].new_recordings, 1);
        }
    }

    #[test]
    fn precision_guarantee_theorem_3_1() {
        // Deterministic pseudo-random walk.
        let mut seed = 42u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut x = 0.0;
        let values: Vec<f64> = (0..2000)
            .map(|_| {
                x += rnd() * 2.0;
                x
            })
            .collect();
        let signal = Signal::from_values(&values);
        for eps in [0.1, 0.5, 2.0, 10.0] {
            let segs = compress(&signal, eps);
            for (t, x) in signal.iter() {
                let seg = segs.iter().find(|s| s.covers(t)).expect("sample covered");
                let err = (seg.eval(t, 0) - x[0]).abs();
                assert!(err <= eps * (1.0 + 1e-9), "ε={eps}: error {err} at t={t}");
            }
        }
    }

    #[test]
    fn recording_is_mse_optimal_within_cone() {
        // Symmetric oscillation around a trend: the optimal slope is the
        // trend slope, strictly inside the cone.
        let values: Vec<f64> =
            (0..20).map(|i| i as f64 + if i % 2 == 0 { 0.3 } else { -0.3 }).collect();
        let signal = Signal::from_values(&values);
        let segs = compress(&signal, 1.0);
        assert_eq!(segs.len(), 1);
        // Least-squares through (0, 0.3): slope ≈ 1 − small correction;
        // verify against brute force.
        let mut best = (f64::INFINITY, 0.0);
        let mut a = 0.5;
        while a < 1.5 {
            let e: f64 = signal
                .iter()
                .map(|(t, x)| {
                    let v = 0.3 + a * t;
                    (v - x[0]) * (v - x[0])
                })
                .sum();
            if e < best.0 {
                best = (e, a);
            }
            a += 1e-4;
        }
        assert!(
            (segs[0].slope(0) - best.1).abs() < 1e-3,
            "slope {} vs brute-force {}",
            segs[0].slope(0),
            best.1
        );
    }

    #[test]
    fn multi_dim_interval_breaks_when_any_dim_breaks() {
        let mut s = Signal::new(2);
        for j in 0..10 {
            let t = j as f64;
            let jump = if j >= 5 { 4.0 } else { 0.0 };
            s.push(t, &[t * 0.1, jump]).unwrap();
        }
        let mut f = SwingFilter::new(&[1.0, 1.0]).unwrap();
        let segs = run_filter(&mut f, &s).unwrap();
        // The jump in dim 1 must break the first interval at t=4; the
        // connected-segment constraint may force further breaks after it.
        assert!(segs.len() >= 2);
        assert_eq!(segs[0].t_end, 4.0);
    }

    #[test]
    fn multi_dim_guarantee() {
        let mut s = Signal::new(3);
        let mut seed = 7u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut vals = [0.0f64; 3];
        for j in 0..500 {
            for v in vals.iter_mut() {
                *v += rnd();
            }
            s.push(j as f64, &vals).unwrap();
        }
        let eps = [0.3, 0.7, 1.5];
        let mut f = SwingFilter::new(&eps).unwrap();
        let segs = run_filter(&mut f, &s).unwrap();
        for (t, x) in s.iter() {
            let seg = segs.iter().find(|sg| sg.covers(t)).unwrap();
            for d in 0..3 {
                let err = (seg.eval(t, d) - x[d]).abs();
                assert!(err <= eps[d] * (1.0 + 1e-9), "dim {d} err {err} at t={t}");
            }
        }
    }

    #[test]
    fn max_lag_freezes_interval_and_bounds_pending() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64 * 0.01).sin()).collect();
        let signal = Signal::from_values(&values);
        let mut f = SwingFilter::builder(&[10.0]).max_lag(8).build().unwrap();
        let mut sink = CollectingSink::default();
        for (t, x) in signal.iter() {
            f.push(t, x, &mut sink).unwrap();
            assert!(f.pending_points() <= 8, "lag exceeded at t={t}");
        }
        f.finish(&mut sink).unwrap();
        assert!(!sink.provisionals.is_empty(), "smooth signal must have frozen");
        // Guarantee still holds.
        for (t, x) in signal.iter() {
            let seg = sink.segments.iter().find(|s| s.covers(t)).unwrap();
            assert!((seg.eval(t, 0) - x[0]).abs() <= 10.0 * (1.0 + 1e-9));
        }
    }

    #[test]
    fn provisional_line_matches_final_segment() {
        // With a perfectly linear signal the frozen line and the final
        // segment coincide.
        let values: Vec<f64> = (0..50).map(|i| 2.0 * i as f64).collect();
        let signal = Signal::from_values(&values);
        let mut f = SwingFilter::builder(&[0.5]).max_lag(10).build().unwrap();
        let mut sink = CollectingSink::default();
        for (t, x) in signal.iter() {
            f.push(t, x, &mut sink).unwrap();
        }
        f.finish(&mut sink).unwrap();
        assert_eq!(sink.segments.len(), 1);
        assert_eq!(sink.provisionals.len(), 1);
        let p = &sink.provisionals[0];
        let s = &sink.segments[0];
        assert!((p.eval(s.t_end, 0) - s.x_end[0]).abs() < 1e-9);
    }

    #[test]
    fn clamped_last_point_keeps_guarantee_with_higher_error() {
        let mut seed = 31u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut x = 0.0;
        let values: Vec<f64> = (0..1500)
            .map(|_| {
                x += rnd();
                x
            })
            .collect();
        let signal = Signal::from_values(&values);
        let eps = 0.8;
        let mut mse = SwingFilter::new(&[eps]).unwrap();
        let mut last = SwingFilter::builder(&[eps])
            .recording(RecordingStrategy::ClampedLastPoint)
            .build()
            .unwrap();
        let report_mse = crate::metrics::evaluate(&mut mse, &signal).unwrap();
        let report_last = crate::metrics::evaluate(&mut last, &signal).unwrap();
        // Both honour the guarantee.
        assert!(report_mse.error.max_abs_overall() <= eps * (1.0 + 1e-6));
        assert!(report_last.error.max_abs_overall() <= eps * (1.0 + 1e-6));
        // The MSE-optimal recording should not have *higher* average error
        // (the paper's secondary objective).
        assert!(
            report_mse.error.mean_abs_overall() <= report_last.error.mean_abs_overall() * 1.05,
            "mse {} vs last-point {}",
            report_mse.error.mean_abs_overall(),
            report_last.error.mean_abs_overall()
        );
    }

    #[test]
    fn invalid_max_lag_is_rejected() {
        assert!(matches!(
            SwingFilter::builder(&[1.0]).max_lag(1).build(),
            Err(FilterError::InvalidMaxLag { value: 1 })
        ));
    }

    #[test]
    fn single_and_empty_streams() {
        let mut f = SwingFilter::new(&[1.0]).unwrap();
        let mut out: Vec<Segment> = Vec::new();
        f.finish(&mut out).unwrap();
        assert!(out.is_empty());
        f.push(0.0, &[3.0], &mut out).unwrap();
        f.finish(&mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].n_points, 1);
    }

    #[test]
    fn rejects_time_regression() {
        let mut f = SwingFilter::new(&[1.0]).unwrap();
        let mut out: Vec<Segment> = Vec::new();
        f.push(1.0, &[0.0], &mut out).unwrap();
        assert!(matches!(f.push(1.0, &[0.0], &mut out), Err(FilterError::NonMonotonicTime { .. })));
    }

    #[test]
    fn reusable_after_finish() {
        let signal = Signal::from_values(&[0.0, 1.0, 5.0, 2.0, 8.0]);
        let mut f = SwingFilter::new(&[0.5]).unwrap();
        let a = run_filter(&mut f, &signal).unwrap();
        let b = run_filter(&mut f, &signal).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn n_points_accounting_totals_stream_length() {
        let values: Vec<f64> = (0..777).map(|i| ((i as f64) * 0.37).sin() * 5.0).collect();
        let signal = Signal::from_values(&values);
        let segs = compress(&signal, 0.4);
        let total: u32 = segs.iter().map(|s| s.n_points).sum();
        assert_eq!(total as usize, signal.len());
    }
}
