//! Kalman-filter baseline (paper §6, Jain et al., SIGMOD 2004).
//!
//! Jain et al. compress streams by running a Kalman filter on both ends:
//! the transmitter stays silent while the receiver's (identical) Kalman
//! prediction is within ε of the truth, and sends a correction otherwise.
//! The paper positions this as the adaptive baseline that can *model*
//! cache and linear filters but — maintaining a single hypothesis —
//! cannot simulate swing/slide's candidate sets.
//!
//! To make the comparison live inside this library's segment model, the
//! baseline here is a **Kalman-slope linear filter**: a connected linear
//! filter whose segment slope is the constant-velocity Kalman estimate at
//! segment start, rather than the slope through the first two points.
//! Acceptance is the plain `|x − line(t)| ≤ εᵢ` test, so the precision
//! guarantee is unconditional; the Kalman state only chooses *better
//! slopes* — which is exactly where the smoothing helps on noisy
//! signals. Process/measurement noise are configurable per filter.

use crate::dimvec::DimVec;
use crate::error::FilterError;
use crate::kern;
use crate::segment::{validate_epsilons, Segment, SegmentSink};

use super::common::point_segment;
use super::{validate_push, StreamFilter};

/// One-dimensional constant-velocity Kalman state.
///
/// State vector `(x, v)`; transition `x ← x + v·dt`; position-only
/// measurements. Exposed publicly because the transport layer's receiver
/// documentation refers to it and because it is a useful building block
/// on its own.
#[derive(Debug, Clone, Copy)]
pub struct Kalman1D {
    /// Estimated position.
    pub x: f64,
    /// Estimated velocity.
    pub v: f64,
    // Covariance matrix entries (symmetric 2×2).
    p00: f64,
    p01: f64,
    p11: f64,
    /// Process-noise intensity (white-noise acceleration model).
    q: f64,
    /// Measurement-noise variance.
    r: f64,
}

impl Default for Kalman1D {
    /// A zeroed tracker at the origin with unit measurement noise —
    /// carries no estimation meaning; exists so trackers can live in
    /// fixed-capacity inline storage ([`DimVec`]).
    fn default() -> Self {
        Self::new(0.0, 0.0, 1.0)
    }
}

impl Kalman1D {
    /// Creates a tracker at the given position with unknown velocity.
    pub fn new(x0: f64, process_noise: f64, measurement_noise: f64) -> Self {
        Self {
            x: x0,
            v: 0.0,
            p00: measurement_noise.max(1e-9),
            p01: 0.0,
            p11: 1.0,
            q: process_noise.max(0.0),
            r: measurement_noise.max(1e-12),
        }
    }

    /// Advances the state by `dt` (prediction step).
    pub fn predict(&mut self, dt: f64) {
        self.x += self.v * dt;
        // P ← F P Fᵀ + Q, with white-noise-acceleration Q.
        let p00 = self.p00 + dt * (2.0 * self.p01 + dt * self.p11);
        let p01 = self.p01 + dt * self.p11;
        let dt2 = dt * dt;
        self.p00 = p00 + self.q * dt2 * dt2 / 4.0;
        self.p01 = p01 + self.q * dt2 * dt / 2.0;
        self.p11 += self.q * dt2;
    }

    /// Folds in a position measurement (update step).
    pub fn update(&mut self, z: f64) {
        let s = self.p00 + self.r;
        let k0 = self.p00 / s;
        let k1 = self.p01 / s;
        let innovation = z - self.x;
        self.x += k0 * innovation;
        self.v += k1 * innovation;
        let p00 = (1.0 - k0) * self.p00;
        let p01 = (1.0 - k0) * self.p01;
        let p11 = self.p11 - k1 * self.p01;
        self.p00 = p00;
        self.p01 = p01;
        self.p11 = p11;
    }
}

#[derive(Debug, Clone)]
struct Interval {
    anchor_t: f64,
    anchor_x: DimVec<f64>,
    slopes: DimVec<f64>,
    start_connected: bool,
    last_t: f64,
    n_pts: u32,
}

#[derive(Debug, Clone)]
enum State {
    Empty,
    One { t: f64, x: DimVec<f64> },
    Active(Interval),
}

/// Kalman-slope linear filter. See the module docs.
///
/// ```
/// use pla_core::filters::{KalmanFilter, StreamFilter};
/// use pla_core::Segment;
///
/// // Low process noise: the tracker assumes a steady trend.
/// let mut filter = KalmanFilter::with_noise(&[0.5], 1e-4, 0.2).unwrap();
/// let mut out: Vec<Segment> = Vec::new();
/// for j in 0..100 {
///     let noise = if j % 2 == 0 { 0.2 } else { -0.2 };
///     filter.push(j as f64, &[0.5 * j as f64 + noise], &mut out).unwrap();
/// }
/// filter.finish(&mut out).unwrap();
/// // Once the velocity estimate warms up, the smoothed slope shrugs off
/// // the alternating noise: few segments, long tail segments.
/// assert!(out.len() <= 8);
/// assert!(out.last().unwrap().n_points > 20);
/// ```
#[derive(Debug, Clone)]
pub struct KalmanFilter {
    eps: DimVec<f64>,
    process_noise: f64,
    measurement_noise: f64,
    trackers: DimVec<Kalman1D>,
    last_tracked_t: f64,
    state: State,
}

impl KalmanFilter {
    /// Creates a Kalman-slope filter with default noise parameters
    /// (process 0.01, measurement 0.1 — mild smoothing).
    pub fn new(eps: &[f64]) -> Result<Self, FilterError> {
        Self::with_noise(eps, 0.01, 0.1)
    }

    /// Creates a Kalman-slope filter with explicit noise intensities.
    pub fn with_noise(
        eps: &[f64],
        process_noise: f64,
        measurement_noise: f64,
    ) -> Result<Self, FilterError> {
        validate_epsilons(eps)?;
        if !(process_noise.is_finite()
            && process_noise >= 0.0
            && measurement_noise.is_finite()
            && measurement_noise > 0.0)
        {
            return Err(FilterError::InvalidEpsilon { dim: 0, value: process_noise });
        }
        Ok(Self {
            eps: eps.into(),
            process_noise,
            measurement_noise,
            trackers: DimVec::new(),
            last_tracked_t: 0.0,
            state: State::Empty,
        })
    }

    fn track(&mut self, t: f64, x: &[f64]) {
        if self.trackers.is_empty() {
            for &v in x {
                self.trackers.push(Kalman1D::new(v, self.process_noise, self.measurement_noise));
            }
        } else {
            let dt = t - self.last_tracked_t;
            for (tr, &z) in self.trackers.iter_mut().zip(x.iter()) {
                tr.predict(dt);
                tr.update(z);
            }
        }
        self.last_tracked_t = t;
    }

    fn open_interval(&self, t0: f64, x0: DimVec<f64>, connected: bool, n_pts: u32) -> Interval {
        Interval {
            anchor_t: t0,
            anchor_x: x0,
            slopes: self.trackers.iter().map(|tr| tr.v).collect(),
            start_connected: connected,
            last_t: t0,
            n_pts,
        }
    }

    /// Associated (not `&self`) so the push hot path can test acceptance
    /// while holding a disjoint mutable borrow of the live interval.
    fn fits(eps: &DimVec<f64>, iv: &Interval, t: f64, x: &[f64]) -> bool {
        let dt = t - iv.anchor_t;
        kern::fits_affine(&iv.anchor_x, &iv.slopes, eps, dt, x)
    }

    fn close(&self, iv: &Interval, sink: &mut dyn SegmentSink) -> (f64, DimVec<f64>) {
        let t_end = iv.last_t;
        let x_end = DimVec::from_fn(self.eps.len(), |d| {
            iv.anchor_x[d] + iv.slopes[d] * (t_end - iv.anchor_t)
        });
        sink.segment(Segment {
            t_start: iv.anchor_t,
            x_start: iv.anchor_x.clone(),
            t_end,
            x_end: x_end.clone(),
            connected: iv.start_connected,
            n_points: iv.n_pts,
            new_recordings: if iv.start_connected { 1 } else { 2 },
        });
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

impl StreamFilter for KalmanFilter {
    fn dims(&self) -> usize {
        self.eps.len()
    }

    fn epsilons(&self) -> &[f64] {
        &self.eps
    }

    fn push(&mut self, t: f64, x: &[f64], sink: &mut dyn SegmentSink) -> Result<(), FilterError> {
        validate_push(self.dims(), self.last_t(), t, x)?;
        self.track(t, x);
        // Hot path: an accepted sample extends the live interval in place
        // — no state-enum move per point.
        if let State::Active(iv) = &mut self.state {
            if Self::fits(&self.eps, iv, t, x) {
                iv.last_t = t;
                iv.n_pts += 1;
                return Ok(());
            }
        }
        match std::mem::replace(&mut self.state, State::Empty) {
            State::Empty => {
                self.state = State::One { t, x: x.into() };
            }
            State::One { t: t0, x: x0 } => {
                // Open the first segment at the first point; slope from
                // the tracker after two measurements.
                let mut iv = self.open_interval(t0, x0, false, 1);
                if Self::fits(&self.eps, &iv, t, x) {
                    iv.last_t = t;
                    iv.n_pts += 1;
                    self.state = State::Active(iv);
                } else {
                    // Velocity estimate still cold; fall back to the
                    // two-point slope like a plain linear filter.
                    let dt = t - iv.anchor_t;
                    for (d, &v) in x.iter().enumerate() {
                        iv.slopes[d] = (v - iv.anchor_x[d]) / dt;
                    }
                    iv.last_t = t;
                    iv.n_pts += 1;
                    self.state = State::Active(iv);
                }
            }
            State::Active(iv) => {
                // Violation (the in-place accept above didn't take it).
                let (t_end, x_end) = self.close(&iv, sink);
                let mut next = self.open_interval(t_end, x_end, true, 1);
                if !Self::fits(&self.eps, &next, t, x) {
                    // Ensure the violator itself is representable.
                    let dt = t - next.anchor_t;
                    for (d, &v) in x.iter().enumerate() {
                        next.slopes[d] = (v - next.anchor_x[d]) / dt;
                    }
                }
                next.last_t = t;
                self.state = State::Active(next);
            }
        }
        Ok(())
    }

    fn finish(&mut self, sink: &mut dyn SegmentSink) -> Result<(), FilterError> {
        match std::mem::replace(&mut self.state, State::Empty) {
            State::Empty => {}
            State::One { t, x } => sink.segment(point_segment(t, &x, false)),
            State::Active(iv) => {
                self.close(&iv, sink);
            }
        }
        self.trackers.clear();
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
        "kalman"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::{run_filter, LinearFilter};
    use crate::sample::Signal;

    #[test]
    fn tracker_locks_onto_constant_velocity() {
        let mut k = Kalman1D::new(0.0, 0.01, 0.1);
        for j in 1..100 {
            k.predict(1.0);
            k.update(2.0 * j as f64);
        }
        assert!((k.v - 2.0).abs() < 0.05, "velocity {}", k.v);
        assert!((k.x - 198.0).abs() < 0.5, "position {}", k.x);
    }

    #[test]
    fn tracker_smooths_noise() {
        let mut k = Kalman1D::new(0.0, 0.001, 1.0);
        let mut seed = 5u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 32) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for j in 1..500 {
            k.predict(1.0);
            k.update(j as f64 + rnd() * 0.5);
        }
        assert!((k.v - 1.0).abs() < 0.05, "velocity {}", k.v);
    }

    #[test]
    fn guarantee_holds() {
        let mut seed = 77u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 32) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut x = 0.0;
        let values: Vec<f64> = (0..2000)
            .map(|_| {
                x += rnd() * 2.0;
                x
            })
            .collect();
        let signal = Signal::from_values(&values);
        for eps in [0.2, 1.0, 5.0] {
            let mut f = KalmanFilter::new(&[eps]).unwrap();
            let segs = run_filter(&mut f, &signal).unwrap();
            for (t, xv) in signal.iter() {
                let seg = segs.iter().find(|s| s.covers(t)).expect("covered");
                assert!(
                    (seg.eval(t, 0) - xv[0]).abs() <= eps * (1.0 + 1e-9),
                    "ε={eps}: broke at t={t}"
                );
            }
            let total: u32 = segs.iter().map(|s| s.n_points).sum();
            assert_eq!(total as usize, signal.len());
        }
    }

    #[test]
    fn beats_linear_on_noisy_trend() {
        // Noisy ramp: the two-point slope of the linear filter is noise-
        // dominated; the Kalman velocity estimate smooths it out.
        let mut seed = 99u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 32) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let values: Vec<f64> = (0..3000).map(|j| 0.5 * j as f64 + rnd() * 0.45).collect();
        let signal = Signal::from_values(&values);
        let eps = 0.5;
        let mut kalman = KalmanFilter::with_noise(&[eps], 1e-4, 0.2).unwrap();
        let mut linear = LinearFilter::new(&[eps]).unwrap();
        let k_segs = run_filter(&mut kalman, &signal).unwrap();
        let l_segs = run_filter(&mut linear, &signal).unwrap();
        let k_recs: u64 = k_segs.iter().map(|s| s.new_recordings as u64).sum();
        let l_recs: u64 = l_segs.iter().map(|s| s.new_recordings as u64).sum();
        assert!(k_recs < l_recs, "kalman {k_recs} recordings should beat linear {l_recs}");
    }

    #[test]
    fn connected_chain_structure() {
        let values: Vec<f64> = (0..200).map(|i| ((i as f64) * 0.3).sin() * 5.0).collect();
        let signal = Signal::from_values(&values);
        let mut f = KalmanFilter::new(&[0.4]).unwrap();
        let segs = run_filter(&mut f, &signal).unwrap();
        for pair in segs.windows(2) {
            assert_eq!(pair[0].t_end, pair[1].t_start);
            assert!(pair[1].connected);
        }
    }

    #[test]
    fn degenerate_streams() {
        let mut f = KalmanFilter::new(&[1.0]).unwrap();
        let mut out: Vec<Segment> = Vec::new();
        f.finish(&mut out).unwrap();
        assert!(out.is_empty());
        f.push(0.0, &[1.0], &mut out).unwrap();
        f.finish(&mut out).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn reusable_after_finish() {
        let signal = Signal::from_values(&[0.0, 1.0, 9.0, 2.0]);
        let mut f = KalmanFilter::new(&[0.5]).unwrap();
        let a = run_filter(&mut f, &signal).unwrap();
        let b = run_filter(&mut f, &signal).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_noise() {
        assert!(KalmanFilter::with_noise(&[1.0], -1.0, 0.1).is_err());
        assert!(KalmanFilter::with_noise(&[1.0], 0.1, 0.0).is_err());
    }
}
