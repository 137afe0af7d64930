//! Result and error types of the query layer.

/// A scalar answer with deterministic bounds: the true value (computed on
/// the original samples) is guaranteed to lie in `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounded {
    /// The estimate computed on the approximation.
    pub value: f64,
    /// Lower bound on the true value.
    pub lo: f64,
    /// Upper bound on the true value.
    pub hi: f64,
}

impl Bounded {
    /// `value ± radius`.
    pub(crate) fn around(value: f64, radius: f64) -> Self {
        Self { value, lo: value - radius, hi: value + radius }
    }

    /// Half-width of the uncertainty interval.
    pub fn radius(&self) -> f64 {
        0.5 * (self.hi - self.lo)
    }

    /// Whether `truth` is consistent with the bounds (used by tests).
    pub fn contains(&self, truth: f64) -> bool {
        truth >= self.lo - 1e-9 && truth <= self.hi + 1e-9
    }
}

/// A counting answer: `definite` samples certainly satisfy the predicate,
/// `possible` is the upper bound (samples whose ε-band straddles the
/// threshold could go either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedCount {
    /// Samples that satisfy the predicate no matter where they sit in
    /// their ε-band.
    pub definite: usize,
    /// Samples that *might* satisfy it.
    pub possible: usize,
}

impl BoundedCount {
    /// Whether a true count is consistent with the bounds.
    pub fn contains(&self, truth: usize) -> bool {
        truth >= self.definite && truth <= self.possible
    }
}

/// Certainty class of a detected threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossingKind {
    /// The approximation moved from certainly-below to certainly-above
    /// (or vice versa): a real crossing happened nearby.
    Certain,
    /// The approximation entered or left the ±ε ambiguity band around
    /// the threshold: a crossing may have happened.
    Possible,
}

/// One detected threshold crossing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// Grid time at which the state change was observed.
    pub t: f64,
    /// Rising (below→above) or falling.
    pub rising: bool,
    /// Certainty classification.
    pub kind: CrossingKind,
}

/// A regular sampling schedule `t0, t0+dt, …` with `n` points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingGrid {
    /// First sample time.
    pub t0: f64,
    /// Sample spacing (must be positive).
    pub dt: f64,
    /// Number of samples.
    pub n: usize,
}

impl SamplingGrid {
    /// Materializes the grid times.
    pub fn times(&self) -> Vec<f64> {
        (0..self.n).map(|j| self.t0 + self.dt * j as f64).collect()
    }
}

/// Errors raised by the query engine.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The engine's ε vector does not match the polyline's dimensions.
    DimensionMismatch {
        /// Dimensions of the polyline.
        expected: usize,
        /// Length of the provided ε vector.
        got: usize,
    },
    /// A query referenced a dimension the polyline does not have.
    BadDimension(usize),
    /// A grid time is not covered by the approximation.
    Uncovered {
        /// The offending time.
        t: f64,
    },
    /// The query grid was empty.
    EmptyGrid,
    /// An ε was not finite and positive.
    InvalidEpsilon(f64),
    /// A store query named a stream the snapshot does not hold (the raw
    /// stream id, to keep this crate's error type transport-agnostic).
    UnknownStream(u64),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DimensionMismatch { expected, got } => {
                write!(f, "ε vector has {got} entries, polyline has {expected} dimensions")
            }
            Self::BadDimension(d) => write!(f, "dimension {d} out of range"),
            Self::Uncovered { t } => write!(f, "time {t} not covered by the approximation"),
            Self::EmptyGrid => write!(f, "query grid is empty"),
            Self::InvalidEpsilon(e) => write!(f, "ε must be finite and positive, got {e}"),
            Self::UnknownStream(id) => write!(f, "stream#{id} not present in the snapshot"),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_contains_and_radius() {
        let b = Bounded { value: 5.0, lo: 4.0, hi: 6.0 };
        assert!(b.contains(4.5));
        assert!(!b.contains(6.5));
        assert_eq!(b.radius(), 1.0);
    }

    #[test]
    fn bounded_count_contains() {
        let c = BoundedCount { definite: 2, possible: 5 };
        assert!(c.contains(2));
        assert!(c.contains(5));
        assert!(!c.contains(1));
        assert!(!c.contains(6));
    }

    #[test]
    fn grid_times() {
        let g = SamplingGrid { t0: 1.0, dt: 0.5, n: 3 };
        assert_eq!(g.times(), vec![1.0, 1.5, 2.0]);
    }
}
