//! Output model: segments, recordings accounting, and the sink trait.
//!
//! Filters turn a stream of samples into a stream of [`Segment`]s. A
//! segment is one straight piece `gᵏ` of the approximating function
//! together with the bookkeeping the paper's §5.1 compression-ratio metric
//! needs: how many *recordings* materializing this segment cost. The paper
//! counts one recording per connected-segment endpoint, two for a
//! disconnected segment, and one per cache-filter (piece-wise constant)
//! segment; filters set [`Segment::new_recordings`] accordingly so the
//! metric never has to guess.

use crate::dimvec::DimVec;
use crate::error::FilterError;

/// One line segment of the piece-wise linear (or constant) approximation.
///
/// The per-dimension payloads are [`DimVec`]s, so constructing and
/// cloning a segment is allocation-free for `d ≤`
/// [`INLINE_DIMS`](crate::INLINE_DIMS) — the filters' hot emission path
/// relies on this.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Segment {
    /// Start time of the segment.
    pub t_start: f64,
    /// Values at the start time, one per dimension.
    pub x_start: DimVec<f64>,
    /// End time of the segment (`≥ t_start`; equal for a degenerate
    /// single-point segment).
    pub t_end: f64,
    /// Values at the end time, one per dimension.
    pub x_end: DimVec<f64>,
    /// Whether the start point coincides with the previous segment's end
    /// point (a *connected* segment, needing no start recording of its
    /// own).
    pub connected: bool,
    /// Number of data points this segment approximates (the paper's `mₖ`).
    pub n_points: u32,
    /// Recordings that materializing this segment adds to the output: 1
    /// for a connected or piece-wise-constant segment, 2 for a
    /// disconnected one (including the very first segment of a
    /// piece-wise-linear stream).
    pub new_recordings: u8,
}

// Layout pin: every copy of a segment the pipeline holds pays this size,
// so a field that regrows it fails the build.
const _: () = assert!(size_of::<Segment>() == 104);

impl Segment {
    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.x_start.len()
    }

    /// Value of dimension `dim` at time `t`, linearly interpolated.
    ///
    /// `t` is not clamped to `[t_start, t_end]`; callers that need strict
    /// in-segment evaluation should check [`Self::covers`] first.
    #[inline]
    pub fn eval(&self, t: f64, dim: usize) -> f64 {
        let dt = self.t_end - self.t_start;
        if dt == 0.0 {
            return self.x_start[dim];
        }
        let frac = (t - self.t_start) / dt;
        self.x_start[dim] + frac * (self.x_end[dim] - self.x_start[dim])
    }

    /// Whether `t` lies within the segment's closed time span.
    #[inline]
    pub fn covers(&self, t: f64) -> bool {
        t >= self.t_start && t <= self.t_end
    }

    /// Slope `dx/dt` of dimension `dim` (0 for a degenerate segment).
    #[inline]
    pub fn slope(&self, dim: usize) -> f64 {
        let dt = self.t_end - self.t_start;
        if dt == 0.0 {
            0.0
        } else {
            (self.x_end[dim] - self.x_start[dim]) / dt
        }
    }
}

/// A provisional receiver update emitted when a filtering interval reaches
/// `m_max_lag` points (paper §3.3): the filter commits to one line of its
/// candidate set and tells the receiver about it, then degrades to a plain
/// linear filter until the interval ends.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ProvisionalUpdate {
    /// Anchor time of the committed line.
    pub t_anchor: f64,
    /// Values of the committed line at the anchor time.
    pub x_anchor: DimVec<f64>,
    /// Slope per dimension of the committed line.
    pub slopes: DimVec<f64>,
    /// Timestamp of the newest point covered when the update was sent.
    pub covers_through: f64,
}

impl ProvisionalUpdate {
    /// Value of the committed line at time `t` for dimension `dim`.
    #[inline]
    pub fn eval(&self, t: f64, dim: usize) -> f64 {
        self.x_anchor[dim] + self.slopes[dim] * (t - self.t_anchor)
    }
}

/// Receives filter output.
///
/// `Vec<Segment>` implements this (dropping provisional updates), which is
/// all most callers need; the transport layer implements it to forward
/// both event kinds to a receiver.
pub trait SegmentSink {
    /// Called for every finalized segment, oldest first.
    fn segment(&mut self, seg: Segment);

    /// Called when a lag-bounded filter commits to a line mid-interval.
    /// Default: ignored.
    fn provisional(&mut self, update: ProvisionalUpdate) {
        let _ = update;
    }
}

impl SegmentSink for Vec<Segment> {
    fn segment(&mut self, seg: Segment) {
        self.push(seg);
    }
}

/// Sink adapter that counts provisional updates while collecting segments;
/// useful in tests and metrics.
#[derive(Debug, Default)]
pub struct CollectingSink {
    /// Finalized segments, oldest first.
    pub segments: Vec<Segment>,
    /// Provisional updates, oldest first.
    pub provisionals: Vec<ProvisionalUpdate>,
}

impl SegmentSink for CollectingSink {
    fn segment(&mut self, seg: Segment) {
        self.segments.push(seg);
    }
    fn provisional(&mut self, update: ProvisionalUpdate) {
        self.provisionals.push(update);
    }
}

/// Validates a precision-width vector: finite and strictly positive in
/// every dimension, at least one dimension.
pub fn validate_epsilons(eps: &[f64]) -> Result<(), FilterError> {
    if eps.is_empty() {
        return Err(FilterError::ZeroDimensions);
    }
    for (dim, &e) in eps.iter().enumerate() {
        if !(e.is_finite() && e > 0.0) {
            return Err(FilterError::InvalidEpsilon { dim, value: e });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn eval_interpolates() {
        let s = seg(0.0, 0.0, 2.0, 4.0);
        assert_eq!(s.eval(1.0, 0), 2.0);
        assert_eq!(s.eval(0.0, 0), 0.0);
        assert_eq!(s.eval(2.0, 0), 4.0);
        assert_eq!(s.slope(0), 2.0);
    }

    #[test]
    fn degenerate_segment_is_constant() {
        let s = seg(1.0, 3.0, 1.0, 3.0);
        assert_eq!(s.eval(1.0, 0), 3.0);
        assert_eq!(s.slope(0), 0.0);
    }

    #[test]
    fn covers_is_closed() {
        let s = seg(1.0, 0.0, 2.0, 0.0);
        assert!(s.covers(1.0));
        assert!(s.covers(2.0));
        assert!(!s.covers(0.999));
        assert!(!s.covers(2.001));
    }

    #[test]
    fn vec_sink_collects_segments() {
        let mut v: Vec<Segment> = Vec::new();
        v.segment(seg(0.0, 0.0, 1.0, 1.0));
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn collecting_sink_sees_provisionals() {
        let mut sink = CollectingSink::default();
        sink.provisional(ProvisionalUpdate {
            t_anchor: 0.0,
            x_anchor: [1.0].into(),
            slopes: [0.5].into(),
            covers_through: 3.0,
        });
        assert_eq!(sink.provisionals.len(), 1);
        assert_eq!(sink.provisionals[0].eval(2.0, 0), 2.0);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn output_types_implement_serde() {
        fn assert_impl<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_impl::<Segment>();
        assert_impl::<ProvisionalUpdate>();
    }

    #[test]
    fn epsilon_validation() {
        assert!(validate_epsilons(&[0.1, 2.0]).is_ok());
        assert!(matches!(validate_epsilons(&[]), Err(FilterError::ZeroDimensions)));
        assert!(matches!(
            validate_epsilons(&[0.1, 0.0]),
            Err(FilterError::InvalidEpsilon { dim: 1, .. })
        ));
        assert!(matches!(
            validate_epsilons(&[f64::NAN]),
            Err(FilterError::InvalidEpsilon { dim: 0, .. })
        ));
    }
}
