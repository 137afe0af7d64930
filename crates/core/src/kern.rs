//! Fixed-width f64 lane kernels for the filter hot path.
//!
//! Every filter spends its per-point budget in a handful of tiny
//! per-dimension loops: the fused fits-check + cone clamp of the swing
//! filter, the envelope evaluation of the slide filter, the min/max
//! range update of the cache filter, the affine residual tests of the
//! linear and Kalman filters, and the regression-sum accumulation they
//! share. For `2 ≤ d ≤ INLINE_DIMS` those loops run over [`DimVec`]'s
//! inline block — a fixed `[f64; 4]` — as *lane operations*: one
//! portable function each, looping over all [`LANES`] entries.
//!
//! The bodies are written in compute-both-then-select form: every lane
//! computes the candidate of a conditional update and a select keeps
//! either it or the old value, and fits conjunctions fold with `&`
//! rather than `&&`. The loops are therefore branch-free over a fixed
//! width, which is what lets the compiler keep them in vector
//! registers on any target. A filter fixes its [`Dispatch`] once at
//! construction; there is no per-point branching beyond one enum match.
//!
//! ## Byte-identity contract
//!
//! Every lane op evaluates the *same expression tree* in the same order
//! as the generic per-dimension loop it replaces: same associativity,
//! no FMA contraction, conditional updates expressed as selects (which
//! keep the untouched value bit-for-bit). Inputs are pre-validated
//! finite (`validate_push` rejects NaN/±inf before any kernel runs), so
//! IEEE-754 makes the per-lane results bit-equal to the loop's. The unit
//! test `lane_ops_match_per_dimension_expressions` pins each op against
//! a plain per-dimension loop; the proptests in `batch_proptests.rs` pin
//! the filters: `Segment`/`ProvisionalUpdate` streams must be identical
//! under every dispatch.
//!
//! ## Padding lanes
//!
//! Lane ops always process all `INLINE_DIMS` lanes. For `d < 4` the
//! tail lanes hold `0.0` (the `DimVec` inline block is always fully
//! `Default`-initialized, and every mutating kernel writes `0.0` back).
//! All-zero lanes are constructed to be neutral: they pass every fits
//! test (`0 ∈ [0, 0]`) and absorb every update as a no-op, so no
//! masking by `d` is needed.
//!
//! [`DimVec`]: crate::DimVec

use crate::dimvec::INLINE_DIMS;

/// Number of f64 lanes each kernel processes — [`INLINE_DIMS`].
pub const LANES: usize = INLINE_DIMS;

/// The lane-kernel backend, reported as run metadata only.
///
/// The lane ops have one backend, the portable loops in this module;
/// nothing in the filters reads this value. It exists so that run
/// reports can name the backend they measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable `[f64; LANES]` loops, compiled for the build target.
    Portable,
}

impl Kernel {
    /// The backend the lane ops run on: always [`Kernel::Portable`].
    pub fn detect() -> Self {
        Kernel::Portable
    }
}

/// How a filter iterates its per-dimension state, fixed at construction.
///
/// Exposed (doc-hidden on the filters) so tests can pin byte-identity
/// across all three modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// The monomorphized `d == 1` scalar fast path (PR 3).
    Scalar1,
    /// `2 ≤ d ≤ INLINE_DIMS`: fixed-width lane kernels operating on the
    /// `DimVec` inline block directly.
    Lanes,
    /// Per-dimension loop over slices — the only dispatch valid at
    /// every `d`, and the reference semantics the others must match.
    Generic,
}

impl Dispatch {
    /// The dispatch a fresh filter of dimension `dims` should use.
    ///
    /// `scalar1` says whether the filter has a monomorphized `d == 1`
    /// path (swing and slide do; cache/linear/kalman run their generic
    /// loop at `d == 1`, which is already a single iteration).
    pub fn auto(dims: usize, scalar1: bool) -> Self {
        match dims {
            1 if scalar1 => Dispatch::Scalar1,
            2..=LANES => Dispatch::Lanes,
            _ => Dispatch::Generic,
        }
    }

    /// `self` if it is valid for `dims`, otherwise [`Dispatch::auto`].
    ///
    /// Guards the doc-hidden test overrides: `Scalar1` requires
    /// `d == 1`, `Lanes` requires `2 ≤ d ≤ INLINE_DIMS`.
    pub fn sanitized(self, dims: usize, scalar1: bool) -> Self {
        let valid = match self {
            Dispatch::Scalar1 => dims == 1 && scalar1,
            Dispatch::Lanes => (2..=LANES).contains(&dims),
            Dispatch::Generic => true,
        };
        if valid {
            self
        } else {
            Dispatch::auto(dims, scalar1)
        }
    }
}

/// Copies `x` (length ≤ [`LANES`]) into a zero-padded lane block.
#[inline(always)]
fn pad4(x: &[f64]) -> [f64; LANES] {
    debug_assert!(x.len() <= LANES);
    let mut a = [0.0; LANES];
    a[..x.len()].copy_from_slice(x);
    a
}

/// Borrowed structure-of-arrays view of one envelope (`u` or `l`) of
/// the slide filter: per-lane anchor time, anchor value, and slope of
/// the line `x(t) = x0 + slope · (t − t0)`.
pub(crate) struct EnvView<'a> {
    pub t0: &'a [f64; LANES],
    pub x0: &'a [f64; LANES],
    pub slope: &'a [f64; LANES],
}

/// Result of [`slide_step`]: the fused fits test plus, when the point
/// fits, which lanes need their lower/upper envelope re-derived from a
/// hull tangent (bit `i` set ⇔ dimension `i`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlideStep {
    pub fits: bool,
    pub needs_l: u32,
    pub needs_u: u32,
}

/// Fused swing-filter step: the band fits test, and — when the point
/// fits — the conditional upper/lower slope clamps, in one pass.
///
/// Mirrors `SwingFilter::fits` + `SwingFilter::swing` exactly:
/// `hi = (origin + u·dt) + ε`, `lo = (origin + l·dt) − ε`, the point
/// fits iff `lo ≤ v ≤ hi` in every dimension; on a fit each slope is
/// tightened iff the point's ε-band edge clears the current envelope
/// value. Returns whether the point fit (no mutation on a miss).
#[inline(always)]
pub(crate) fn swing_step(
    origin: &[f64; LANES],
    eps: &[f64; LANES],
    dt: f64,
    x: &[f64],
    l: &mut [f64; LANES],
    u: &mut [f64; LANES],
) -> bool {
    let x = pad4(x);
    let mut lo_val = [0.0; LANES];
    let mut hi_val = [0.0; LANES];
    let mut ok = true;
    for d in 0..LANES {
        lo_val[d] = origin[d] + l[d] * dt;
        hi_val[d] = origin[d] + u[d] * dt;
        ok &= (x[d] >= lo_val[d] - eps[d]) & (x[d] <= hi_val[d] + eps[d]);
    }
    if !ok {
        return false;
    }
    for d in 0..LANES {
        let vme = x[d] - eps[d];
        let vpe = x[d] + eps[d];
        let nl = (vme - origin[d]) / dt;
        let nu = (vpe - origin[d]) / dt;
        l[d] = if vme > lo_val[d] { nl } else { l[d] };
        u[d] = if vpe < hi_val[d] { nu } else { u[d] };
    }
    true
}

/// Affine residual fits test: `|v − (anchor + slope·dt)| ≤ ε` in every
/// dimension. Serves the swing filter's frozen intervals, the linear
/// filter (shared anchor time), and the Kalman filter's intervals.
#[inline(always)]
pub(crate) fn fits_affine(
    anchor: &[f64; LANES],
    slope: &[f64; LANES],
    eps: &[f64; LANES],
    dt: f64,
    x: &[f64],
) -> bool {
    let x = pad4(x);
    let mut ok = true;
    for d in 0..LANES {
        ok &= (x[d] - (anchor[d] + slope[d] * dt)).abs() <= eps[d];
    }
    ok
}

/// Constant-prediction fits test: `|v − c| ≤ ε` in every dimension
/// (the cache filter's first-value acceptance).
#[inline(always)]
pub(crate) fn fits_const(center: &[f64; LANES], eps: &[f64; LANES], x: &[f64]) -> bool {
    let x = pad4(x);
    let mut ok = true;
    for d in 0..LANES {
        ok &= (x[d] - center[d]).abs() <= eps[d];
    }
    ok
}

/// Fused slide-filter step: evaluates both envelopes once, runs the
/// fits test (`l(t) − ε ≤ v ≤ u(t) + ε`), and — when the point fits —
/// reports per-lane whether the point pierces an envelope
/// (`v > l(t) + ε` / `v < u(t) − ε`) and so needs a hull-tangent
/// rebuild. Pure: the caller applies the rebuilds.
#[inline(always)]
pub(crate) fn slide_step(
    u: EnvView<'_>,
    l: EnvView<'_>,
    eps: &[f64; LANES],
    t: f64,
    x: &[f64],
) -> SlideStep {
    let x = pad4(x);
    let mut ue = [0.0; LANES];
    let mut le = [0.0; LANES];
    let mut ok = true;
    for d in 0..LANES {
        ue[d] = u.x0[d] + u.slope[d] * (t - u.t0[d]);
        le[d] = l.x0[d] + l.slope[d] * (t - l.t0[d]);
        ok &= (x[d] <= ue[d] + eps[d]) & (x[d] >= le[d] - eps[d]);
    }
    if !ok {
        return SlideStep { fits: false, needs_l: 0, needs_u: 0 };
    }
    let mut needs_l = 0u32;
    let mut needs_u = 0u32;
    for d in 0..LANES {
        needs_l |= u32::from(x[d] > le[d] + eps[d]) << d;
        needs_u |= u32::from(x[d] < ue[d] - eps[d]) << d;
    }
    SlideStep { fits: true, needs_l, needs_u }
}

/// Fused cache-filter range step: extends the running min/max with the
/// point, accepts iff `max' − min' ≤ 2ε` in every dimension, and on
/// acceptance commits the extended range and `sum += v`. Returns
/// whether the point was accepted (no mutation on a miss).
///
/// Min/max use compare-and-select (`a < b ? a : b`) semantics — for
/// the validated (non-NaN) inputs filters see, value-identical to
/// `f64::min`/`f64::max`.
#[inline(always)]
pub(crate) fn range_step(
    min: &mut [f64; LANES],
    max: &mut [f64; LANES],
    sum: &mut [f64; LANES],
    eps: &[f64; LANES],
    x: &[f64],
) -> bool {
    let x = pad4(x);
    let mut lo = [0.0; LANES];
    let mut hi = [0.0; LANES];
    let mut ok = true;
    for d in 0..LANES {
        lo[d] = if min[d] < x[d] { min[d] } else { x[d] };
        hi[d] = if max[d] > x[d] { max[d] } else { x[d] };
        ok &= hi[d] - lo[d] <= 2.0 * eps[d];
    }
    if !ok {
        return false;
    }
    *min = lo;
    *max = hi;
    for d in 0..LANES {
        sum[d] += x[d];
    }
    true
}

/// Unconditional min/max/sum absorb (the cache filter's first-value
/// variant, whose acceptance test doesn't involve the range).
#[inline(always)]
pub(crate) fn minmax_sum(
    min: &mut [f64; LANES],
    max: &mut [f64; LANES],
    sum: &mut [f64; LANES],
    x: &[f64],
) {
    let x = pad4(x);
    for d in 0..LANES {
        min[d] = if min[d] < x[d] { min[d] } else { x[d] };
        max[d] = if max[d] > x[d] { max[d] } else { x[d] };
        sum[d] += x[d];
    }
}

/// Per-dimension regression-sum accumulation (`RegressionSums::push`):
/// `v = x − x_ref`, `sv += v`, `suv += u·v`.
#[inline(always)]
pub(crate) fn sums_push(
    x_ref: &[f64; LANES],
    sv: &mut [f64; LANES],
    suv: &mut [f64; LANES],
    u: f64,
    x: &[f64],
) {
    let x = pad4(x);
    for d in 0..LANES {
        let v = x[d] - x_ref[d];
        sv[d] += v;
        suv[d] += u * v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random source for the kernel tests.
    struct Lcg(u64);
    impl Lcg {
        /// Uniform in [-1, 1).
        fn unit(&mut self) -> f64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((self.0 >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        }
        /// `d` active lanes drawn from `f`, then zero padding.
        fn lanes(&mut self, d: usize, mut f: impl FnMut(&mut Self) -> f64) -> [f64; LANES] {
            std::array::from_fn(|i| if i < d { f(self) } else { 0.0 })
        }
    }

    fn bits(a: &[f64; LANES]) -> [u64; LANES] {
        a.map(f64::to_bits)
    }

    #[test]
    fn dispatch_auto_and_sanitize() {
        assert_eq!(Dispatch::auto(1, true), Dispatch::Scalar1);
        assert_eq!(Dispatch::auto(1, false), Dispatch::Generic);
        assert_eq!(Dispatch::auto(3, true), Dispatch::Lanes);
        assert_eq!(Dispatch::auto(8, true), Dispatch::Generic);
        // Invalid overrides snap back to auto.
        assert_eq!(Dispatch::Scalar1.sanitized(4, true), Dispatch::auto(4, true));
        assert_eq!(Dispatch::Lanes.sanitized(8, true), Dispatch::Generic);
        assert_eq!(Dispatch::Lanes.sanitized(1, true), Dispatch::Scalar1);
        assert_eq!(Dispatch::Lanes.sanitized(2, false), Dispatch::Lanes);
    }

    /// Every lane op must be bit-identical — result and mutated state,
    /// padding lanes included — to a plain per-dimension loop written the
    /// way the filters' `Generic` arms write it, across many seeded
    /// rounds at every lane dimension count. Inputs are drawn near the
    /// fits boundaries so both outcomes of every test occur.
    #[test]
    fn lane_ops_match_per_dimension_expressions() {
        let mut rng = Lcg(0xC0FFEE);
        // [op][outcome]: how often each fits test accepted and rejected.
        let mut seen = [[0usize; 2]; 5];
        for round in 0..500 {
            let d = 2 + round % 3;
            let eps = rng.lanes(d, |r| r.unit().abs() + 1e-3);
            let dt = rng.unit().abs() * 10.0 + 0.01;

            // swing_step: a cone [l, u] and a point inside or just outside
            // its ε-widened band at `dt`.
            let origin = rng.lanes(d, |r| r.unit() * 100.0);
            let mid = rng.lanes(d, Lcg::unit);
            let half = rng.lanes(d, |r| r.unit().abs());
            let base_l: [f64; LANES] = std::array::from_fn(|i| mid[i] - half[i]);
            let base_u: [f64; LANES] = std::array::from_fn(|i| mid[i] + half[i]);
            let off = rng.lanes(d, |r| r.unit() * 1.2);
            let x: [f64; LANES] =
                std::array::from_fn(|i| origin[i] + mid[i] * dt + off[i] * (half[i] * dt + eps[i]));
            let (mut want_l, mut want_u) = (base_l, base_u);
            let want = (0..d).all(|i| {
                let hi = origin[i] + want_u[i] * dt + eps[i];
                let lo = origin[i] + want_l[i] * dt - eps[i];
                x[i] >= lo && x[i] <= hi
            });
            if want {
                for i in 0..d {
                    let lo_val = origin[i] + want_l[i] * dt;
                    if x[i] - eps[i] > lo_val {
                        want_l[i] = (x[i] - eps[i] - origin[i]) / dt;
                    }
                    let hi_val = origin[i] + want_u[i] * dt;
                    if x[i] + eps[i] < hi_val {
                        want_u[i] = (x[i] + eps[i] - origin[i]) / dt;
                    }
                }
            }
            let (mut l, mut u) = (base_l, base_u);
            let got = swing_step(&origin, &eps, dt, &x[..d], &mut l, &mut u);
            assert_eq!(got, want, "round {round}: swing_step fits");
            assert_eq!(bits(&l), bits(&want_l), "round {round}: swing_step l");
            assert_eq!(bits(&u), bits(&want_u), "round {round}: swing_step u");
            seen[0][usize::from(got)] += 1;

            // fits_affine / fits_const: residuals within ±1.2ε.
            let slope = rng.lanes(d, Lcg::unit);
            let off = rng.lanes(d, |r| r.unit() * 1.2);
            let xa: [f64; LANES] =
                std::array::from_fn(|i| origin[i] + slope[i] * dt + off[i] * eps[i]);
            let want = (0..d).all(|i| (xa[i] - (origin[i] + slope[i] * dt)).abs() <= eps[i]);
            let got = fits_affine(&origin, &slope, &eps, dt, &xa[..d]);
            assert_eq!(got, want, "round {round}: fits_affine");
            seen[1][usize::from(got)] += 1;
            let xc: [f64; LANES] = std::array::from_fn(|i| origin[i] + off[i] * eps[i]);
            let want = (0..d).all(|i| (xc[i] - origin[i]).abs() <= eps[i]);
            let got = fits_const(&origin, &eps, &xc[..d]);
            assert_eq!(got, want, "round {round}: fits_const");
            seen[2][usize::from(got)] += 1;

            // slide_step: an upper envelope above the lower one at `t`,
            // and a point between them give or take 40% of the gap.
            let t = rng.unit();
            let (ut0, lt0) = (rng.lanes(d, Lcg::unit), rng.lanes(d, Lcg::unit));
            let (us, ls) = (rng.lanes(d, |r| r.unit() * 0.5), rng.lanes(d, |r| r.unit() * 0.5));
            let lx0 = rng.lanes(d, |r| r.unit() * 100.0);
            let gap = rng.lanes(d, |r| 2.0 + r.unit().abs() * 2.0);
            let ux0: [f64; LANES] = std::array::from_fn(|i| lx0[i] + gap[i]);
            let ue: [f64; LANES] = std::array::from_fn(|i| ux0[i] + us[i] * (t - ut0[i]));
            let le: [f64; LANES] = std::array::from_fn(|i| lx0[i] + ls[i] * (t - lt0[i]));
            let frac = rng.lanes(d, |r| r.unit() * 0.9 + 0.5);
            let xs: [f64; LANES] = std::array::from_fn(|i| le[i] + frac[i] * (ue[i] - le[i]));
            let want_fit = (0..d).all(|i| xs[i] <= ue[i] + eps[i] && xs[i] >= le[i] - eps[i]);
            let (mut want_nl, mut want_nu) = (0u32, 0u32);
            if want_fit {
                for i in 0..d {
                    want_nl |= u32::from(xs[i] > le[i] + eps[i]) << i;
                    want_nu |= u32::from(xs[i] < ue[i] - eps[i]) << i;
                }
            }
            let s = slide_step(
                EnvView { t0: &ut0, x0: &ux0, slope: &us },
                EnvView { t0: &lt0, x0: &lx0, slope: &ls },
                &eps,
                t,
                &xs[..d],
            );
            assert_eq!(
                (s.fits, s.needs_l, s.needs_u),
                (want_fit, want_nl, want_nu),
                "round {round}: slide_step"
            );
            seen[3][usize::from(s.fits)] += 1;

            // range_step then minmax_sum: a run spanning at most 2ε and a
            // point that may widen it past that.
            let center = rng.lanes(d, |r| r.unit() * 100.0);
            let base_min: [f64; LANES] =
                std::array::from_fn(|i| center[i] - rng.unit().abs() * eps[i]);
            let base_max: [f64; LANES] =
                std::array::from_fn(|i| center[i] + rng.unit().abs() * eps[i]);
            let base_sum = rng.lanes(d, |r| r.unit() * 1000.0);
            let xr: [f64; LANES] = std::array::from_fn(|i| center[i] + rng.unit() * 1.5 * eps[i]);
            let (mut want_min, mut want_max, mut want_sum) = (base_min, base_max, base_sum);
            let want = (0..d).all(|i| {
                let lo = if want_min[i] < xr[i] { want_min[i] } else { xr[i] };
                let hi = if want_max[i] > xr[i] { want_max[i] } else { xr[i] };
                hi - lo <= 2.0 * eps[i]
            });
            let absorb =
                |min: &mut [f64; LANES], max: &mut [f64; LANES], sum: &mut [f64; LANES]| {
                    for i in 0..d {
                        min[i] = if min[i] < xr[i] { min[i] } else { xr[i] };
                        max[i] = if max[i] > xr[i] { max[i] } else { xr[i] };
                        sum[i] += xr[i];
                    }
                };
            if want {
                absorb(&mut want_min, &mut want_max, &mut want_sum);
            }
            let (mut mn, mut mx, mut sm) = (base_min, base_max, base_sum);
            let got = range_step(&mut mn, &mut mx, &mut sm, &eps, &xr[..d]);
            assert_eq!(got, want, "round {round}: range_step accept");
            seen[4][usize::from(got)] += 1;
            absorb(&mut want_min, &mut want_max, &mut want_sum);
            minmax_sum(&mut mn, &mut mx, &mut sm, &xr[..d]);
            assert_eq!(
                [bits(&mn), bits(&mx), bits(&sm)],
                [bits(&want_min), bits(&want_max), bits(&want_sum)],
                "round {round}: range_step + minmax_sum state"
            );

            // sums_push, as `RegressionSums::push` writes it.
            let x_ref = rng.lanes(d, |r| r.unit() * 100.0);
            let ut = rng.unit() * 50.0;
            let (base_sv, base_suv) =
                (rng.lanes(d, |r| r.unit() * 1e3), rng.lanes(d, |r| r.unit() * 1e5));
            let (mut want_sv, mut want_suv) = (base_sv, base_suv);
            for i in 0..d {
                let v = x[i] - x_ref[i];
                want_sv[i] += v;
                want_suv[i] += ut * v;
            }
            let (mut sv, mut suv) = (base_sv, base_suv);
            sums_push(&x_ref, &mut sv, &mut suv, ut, &x[..d]);
            assert_eq!(
                [bits(&sv), bits(&suv)],
                [bits(&want_sv), bits(&want_suv)],
                "round {round}: sums_push"
            );
        }
        // Each fits test both accepted and rejected a fair share.
        for (op, tally) in seen.iter().enumerate() {
            assert!(tally.iter().all(|&n| n >= 50), "op {op} outcomes too one-sided: {tally:?}");
        }
    }

    /// Zero padding lanes pass every fits test, absorb every update as a
    /// no-op, and stay exactly 0.0 through mutating kernels.
    #[test]
    fn padding_lanes_are_neutral() {
        let origin = [1.0, -2.0, 0.0, 0.0];
        let eps = [0.5, 0.5, 0.0, 0.0];
        let mut l = [-1.0, -1.0, 0.0, 0.0];
        let mut u = [1.0, 1.0, 0.0, 0.0];
        assert!(swing_step(&origin, &eps, 2.0, &[1.4, -1.7], &mut l, &mut u), "active lanes fit");
        assert_eq!(&l[2..], &[0.0, 0.0], "l padding disturbed");
        assert_eq!(&u[2..], &[0.0, 0.0], "u padding disturbed");

        let zeros = [0.0; LANES];
        assert!(fits_affine(&zeros, &zeros, &zeros, 123.0, &[]));
        assert!(fits_const(&zeros, &zeros, &[]));
        let s = slide_step(
            EnvView { t0: &zeros, x0: &zeros, slope: &zeros },
            EnvView { t0: &zeros, x0: &zeros, slope: &zeros },
            &zeros,
            7.5,
            &[],
        );
        assert!(s.fits && s.needs_l == 0 && s.needs_u == 0, "padding not neutral");

        let (mut mn, mut mx, mut sm) = (zeros, zeros, zeros);
        assert!(range_step(&mut mn, &mut mx, &mut sm, &zeros, &[]));
        assert_eq!([mn, mx, sm], [zeros; 3], "range padding disturbed");
        let (mut sv, mut suv) = (zeros, zeros);
        sums_push(&zeros, &mut sv, &mut suv, 3.0, &[]);
        assert_eq!([sv, suv], [zeros; 2], "sums padding disturbed");
    }
}
