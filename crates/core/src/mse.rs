//! Incremental least-squares slope selection (paper eq. 5–6).
//!
//! Both filters pick, as a *secondary* objective, the candidate line that
//! minimizes the mean square error over the interval's points among all
//! lines through a fixed anchor with slope inside the feasible cone:
//!
//! ```text
//! aᵢ = min(max(Aᵢ, a_lower), a_upper)                      (eq. 5)
//! Aᵢ = Σ (xᵢⱼ − xᵢ⁰)(tⱼ − t⁰) / Σ (tⱼ − t⁰)²               (eq. 6)
//! ```
//!
//! The swing filter's anchor (the previous recording) is known while the
//! interval runs, but the slide filter's anchor `zᵢ` (the envelope
//! intersection) is only known when the interval *ends* and differs per
//! dimension. [`RegressionSums`] therefore stores anchor-independent
//! moments, centred on the interval's first sample for numerical health,
//! from which `Aᵢ` for *any* anchor follows in O(d):
//!
//! ```text
//! Σ (tⱼ−t_z)²        = Suu − 2a·Su + n·a²            (a = t_z − t_ref)
//! Σ (xⱼ−x_z)(tⱼ−t_z) = Suv − a·Sv − b·Su + n·a·b     (b = x_z − x_ref)
//! ```

use crate::dimvec::DimVec;

/// Running moments of an interval's samples, relative to a fixed reference
/// sample, supporting O(1)-space least-squares slopes through arbitrary
/// anchors (one slope per dimension).
///
/// Per-dimension state lives in [`DimVec`]s, so constructing or resetting
/// the sums allocates nothing for `d ≤ 4`; filters additionally recycle
/// one instance across intervals via [`reset`](Self::reset).
#[derive(Debug, Clone)]
pub struct RegressionSums {
    t_ref: f64,
    x_ref: DimVec<f64>,
    n: u32,
    su: f64,
    suu: f64,
    sv: DimVec<f64>,
    suv: DimVec<f64>,
}

impl RegressionSums {
    /// Starts a new interval whose reference sample is `(t_ref, x_ref)`.
    /// The reference sample itself is *not* counted; push it explicitly if
    /// it belongs to the interval.
    pub fn new(t_ref: f64, x_ref: &[f64]) -> Self {
        Self {
            t_ref,
            x_ref: x_ref.into(),
            n: 0,
            su: 0.0,
            suu: 0.0,
            sv: DimVec::splat(x_ref.len(), 0.0),
            suv: DimVec::splat(x_ref.len(), 0.0),
        }
    }

    /// Resets to an empty interval with a new reference sample, reusing
    /// buffers.
    pub fn reset(&mut self, t_ref: f64, x_ref: &[f64]) {
        debug_assert_eq!(x_ref.len(), self.x_ref.len());
        self.t_ref = t_ref;
        self.x_ref.copy_from_slice(x_ref);
        self.n = 0;
        self.su = 0.0;
        self.suu = 0.0;
        self.sv.iter_mut().for_each(|v| *v = 0.0);
        self.suv.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Accumulates one sample through the lane kernel
    /// ([`crate::kern`]): per dimension, `v = x − x_ref`, `sv += v`,
    /// `suv += u·v`.
    #[inline]
    pub fn push(&mut self, t: f64, x: &[f64]) {
        debug_assert_eq!(x.len(), self.x_ref.len());
        let u = t - self.t_ref;
        self.n += 1;
        self.su += u;
        self.suu += u * u;
        let Self { x_ref, sv, suv, .. } = self;
        crate::kern::sums_push(x_ref, sv, suv, u, x);
    }

    /// Number of accumulated samples.
    #[inline]
    pub fn len(&self) -> u32 {
        self.n
    }

    /// Whether no samples have been accumulated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Unconstrained least-squares slope `Aᵢ` (eq. 6) for dimension `dim`
    /// of the line forced through the anchor `(t_anchor, x_anchor_dim)`.
    ///
    /// Returns `None` when the denominator vanishes (no samples, or every
    /// sample at the anchor time), in which case any slope is equally
    /// optimal and the caller should fall back to the cone midpoint.
    pub fn optimal_slope(&self, t_anchor: f64, x_anchor_dim: f64, dim: usize) -> Option<f64> {
        let a = t_anchor - self.t_ref;
        let denom = self.suu - 2.0 * a * self.su + self.n as f64 * a * a;
        if denom <= 0.0 || !denom.is_finite() {
            return None;
        }
        let b = x_anchor_dim - self.x_ref[dim];
        let numer = self.suv[dim] - a * self.sv[dim] - b * self.su + self.n as f64 * a * b;
        let slope = numer / denom;
        slope.is_finite().then_some(slope)
    }

    /// Eq. (5): the least-squares slope clamped into `[lo, hi]`; falls
    /// back to the midpoint of the cone when the unconstrained optimum is
    /// undefined.
    pub fn clamped_slope(
        &self,
        t_anchor: f64,
        x_anchor_dim: f64,
        dim: usize,
        lo: f64,
        hi: f64,
    ) -> f64 {
        // Callers guarantee lo <= hi only up to rounding (the slide filter
        // tracks its envelope cone with the same relative tolerance); a
        // numerically inverted cone is a single slope — its midpoint. A
        // grossly inverted cone is a caller bug and must fail in release
        // too, or segments could silently violate the ε guarantee.
        assert!(
            lo <= hi + 1e-9 * hi.abs().max(1.0),
            "feasible cone must be non-empty: {lo} > {hi}"
        );
        if lo > hi {
            return 0.5 * (lo + hi);
        }
        match self.optimal_slope(t_anchor, x_anchor_dim, dim) {
            Some(a) => a.clamp(lo, hi),
            None => 0.5 * (lo + hi),
        }
    }

    /// The denominator `Σ (tⱼ − t_anchor)²` — the curvature of the
    /// per-dimension MSE as a function of the slope. Used by the
    /// multi-dimensional slide connection to weight dimensions.
    pub fn slope_curvature(&self, t_anchor: f64) -> f64 {
        let a = t_anchor - self.t_ref;
        self.suu - 2.0 * a * self.su + self.n as f64 * a * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: minimize Σ (x − (x_a + a(t−t_a)))² over a.
    fn brute_slope(pts: &[(f64, f64)], t_a: f64, x_a: f64) -> f64 {
        let num: f64 = pts.iter().map(|&(t, x)| (x - x_a) * (t - t_a)).sum();
        let den: f64 = pts
            .iter()
            .map(|&(t, x_)| {
                let _ = x_;
                (t - t_a) * (t - t_a)
            })
            .sum();
        num / den
    }

    #[test]
    fn matches_brute_force_at_reference_anchor() {
        let pts = [(1.0, 2.0), (2.0, 2.5), (3.0, 4.0), (4.0, 3.5)];
        let mut s = RegressionSums::new(0.0, &[1.0]);
        for &(t, x) in &pts {
            s.push(t, &[x]);
        }
        let got = s.optimal_slope(0.0, 1.0, 0).unwrap();
        let want = brute_slope(&pts, 0.0, 1.0);
        assert!((got - want).abs() < 1e-12, "{got} vs {want}");
    }

    #[test]
    fn matches_brute_force_at_shifted_anchor() {
        let pts = [(10.0, 5.0), (11.0, 6.0), (12.0, 5.5), (14.0, 8.0)];
        let mut s = RegressionSums::new(10.0, &[5.0]);
        for &(t, x) in &pts {
            s.push(t, &[x]);
        }
        for &(t_a, x_a) in &[(9.0, 4.0), (12.5, 6.0), (20.0, 11.0)] {
            let got = s.optimal_slope(t_a, x_a, 0).unwrap();
            let want = brute_slope(&pts, t_a, x_a);
            assert!((got - want).abs() < 1e-10, "anchor ({t_a},{x_a}): {got} vs {want}");
        }
    }

    #[test]
    fn perfect_line_recovers_exact_slope() {
        let mut s = RegressionSums::new(0.0, &[0.0]);
        for j in 1..=10 {
            let t = j as f64;
            s.push(t, &[3.0 + 2.0 * t]); // line through (0,3) slope 2
        }
        let a = s.optimal_slope(0.0, 3.0, 0).unwrap();
        assert!((a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn multi_dimensional_slopes_are_independent() {
        let mut s = RegressionSums::new(0.0, &[0.0, 10.0]);
        for j in 1..=5 {
            let t = j as f64;
            s.push(t, &[t, 10.0 - 3.0 * t]);
        }
        assert!((s.optimal_slope(0.0, 0.0, 0).unwrap() - 1.0).abs() < 1e-12);
        assert!((s.optimal_slope(0.0, 10.0, 1).unwrap() + 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_yield_none() {
        let s = RegressionSums::new(0.0, &[0.0]);
        assert_eq!(s.optimal_slope(0.0, 0.0, 0), None);
        let mut s = RegressionSums::new(0.0, &[0.0]);
        s.push(5.0, &[1.0]);
        // anchor exactly at the single accumulated point's time
        assert_eq!(s.optimal_slope(5.0, 1.0, 0), None);
    }

    #[test]
    fn clamping_respects_cone() {
        let mut s = RegressionSums::new(0.0, &[0.0]);
        for j in 1..=4 {
            s.push(j as f64, &[5.0 * j as f64]); // steep slope 5
        }
        let a = s.clamped_slope(0.0, 0.0, 0, -1.0, 2.0);
        assert_eq!(a, 2.0);
        let a = s.clamped_slope(0.0, 0.0, 0, 6.0, 7.0);
        assert_eq!(a, 6.0);
        // degenerate optimum → midpoint
        let empty = RegressionSums::new(0.0, &[0.0]);
        assert_eq!(empty.clamped_slope(0.0, 0.0, 0, 1.0, 3.0), 2.0);
    }

    #[test]
    fn tolerates_cone_inverted_by_rounding() {
        let mut s = RegressionSums::new(0.0, &[0.0]);
        for j in 1..=4 {
            s.push(j as f64, &[5.0 * j as f64]);
        }
        // lo exceeds hi by one ulp-scale error, as the slide filter's
        // envelope intersection can produce; must not panic.
        let lo = 0.0034000000000000102;
        let hi = 0.0033999999999999807;
        let a = s.clamped_slope(0.0, 0.0, 0, lo, hi);
        assert!((a - 0.5 * (lo + hi)).abs() < 1e-15);
    }

    #[test]
    fn reset_reuses_buffers() {
        let mut s = RegressionSums::new(0.0, &[0.0]);
        s.push(1.0, &[1.0]);
        s.reset(10.0, &[5.0]);
        assert!(s.is_empty());
        s.push(11.0, &[7.0]);
        let a = s.optimal_slope(10.0, 5.0, 0).unwrap();
        assert!((a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn curvature_matches_denominator() {
        let mut s = RegressionSums::new(0.0, &[0.0]);
        s.push(1.0, &[0.0]);
        s.push(3.0, &[0.0]);
        // Σ (t − 2)² = 1 + 1 = 2
        assert!((s.slope_curvature(2.0) - 2.0).abs() < 1e-12);
    }
}
