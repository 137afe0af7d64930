//! Fixed-width f64 lane kernels for the filter hot path.
//!
//! Every filter spends its per-point budget in a handful of tiny
//! per-dimension loops: the fused fits-check + cone clamp of the swing
//! filter, the envelope evaluation of the slide filter, the min/max
//! range update of the cache filter, the affine residual tests of the
//! linear and Kalman filters, and the regression-sum accumulation they
//! share. Those loops run, at every `d`, as *lane operations* over
//! [`DimVec`]'s chunks: `⌈d / LANES⌉` blocks of [`LANES`] f64s, one block
//! (the inline one) for `d ≤ LANES`. Each op is one portable function
//! that walks the chunks and loops over all `LANES` entries of each;
//! there is no other per-dimension path.
//!
//! The chunk bodies are written in compute-both-then-select form: every
//! lane computes the candidate of a conditional update and a select keeps
//! either it or the old value, and fits conjunctions fold with `&`
//! rather than `&&`. The loops are therefore branch-free over a fixed
//! width, which is what lets the compiler keep them in vector registers
//! on any target.
//!
//! ## The chunk contract
//!
//! * **State** arrives as `DimVec<f64>`s of the filter's `d`; an op reads
//!   their chunks once it has fixed the storage regime (inline or
//!   spilled) for all of them, so the one-chunk case compiles to
//!   straight-line code. The sample `x` arrives as a plain `&[f64]` of
//!   length `d` and is zero padded chunk by chunk.
//! * **Padding lanes** (past `d`) hold `0.0`. All-zero lanes are
//!   neutral by construction: they pass every fits test (`0 ∈ [0, 0]`)
//!   and absorb every update as a no-op, so no masking by `d` is needed.
//!   Mutating ops leave them at `0.0`, and every `DimVec` mutator keeps
//!   them there.
//! * **No mutation on a miss.** An op that tests and then writes tests
//!   every chunk before it writes any.
//! * **Fixed expression trees.** Each lane evaluates its expression in
//!   one fixed order: same associativity, no FMA contraction, conditional
//!   updates as selects (which keep the untouched value bit-for-bit).
//!   Inputs are pre-validated finite (`validate_push` rejects NaN/±inf
//!   before any kernel runs). The filter output these trees produce is
//!   pinned by `tests/golden_filter_output.rs`; the unit test
//!   `lane_ops_match_per_dimension_expressions` pins each op against a
//!   plain per-dimension loop at d ∈ 1..=9.
//!
//! [`DimVec`]: crate::DimVec

use crate::dimvec::{DimVec, INLINE_DIMS};

/// Number of f64 lanes in one chunk — [`INLINE_DIMS`].
pub const LANES: usize = INLINE_DIMS;

/// One chunk of per-dimension state.
type Lanes = [f64; LANES];

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

/// Evaluates `$body` with `$inline` bound to the operands' storage
/// regime (`DimVec::is_inline`) as a constant: the body is expanded once
/// per regime, so it compiles once as straight-line code over the single
/// inline chunk and once as a loop over the spilled chunks. (A closure
/// would not do: the compiler may keep it out of line, with the regime
/// a runtime argument.)
macro_rules! by_regime {
    ($regime:expr, |$inline:ident| $body:expr) => {
        if $regime {
            let $inline = true;
            $body
        } else {
            let $inline = false;
            $body
        }
    };
}

/// Chunk `c` of the sample `x`, zero padded past `x.len()`. Spelled out
/// per tail length (so for `LANES == 4`): a match on the slice compiles
/// to plain loads, where a variable-length copy would call `memcpy`.
#[inline(always)]
fn x_chunk(x: &[f64], c: usize) -> Lanes {
    const _: () = assert!(LANES == 4);
    let start = (c * LANES).min(x.len());
    match &x[start..] {
        [x0, x1, x2, x3, ..] => [*x0, *x1, *x2, *x3],
        [x0, x1, x2] => [*x0, *x1, *x2, 0.0],
        [x0, x1] => [*x0, *x1, 0.0, 0.0],
        [x0] => [*x0, 0.0, 0.0, 0.0],
        [] => [0.0; LANES],
    }
}

/// One envelope (`u` or `l`) of the slide filter in structure-of-arrays
/// form: per-dimension anchor time, anchor value, and slope of the line
/// `x(t) = x0 + slope · (t − t0)`.
#[derive(Clone, Copy)]
pub(crate) struct EnvView<'a> {
    pub t0: &'a DimVec<f64>,
    pub x0: &'a DimVec<f64>,
    pub slope: &'a DimVec<f64>,
}

impl EnvView<'_> {
    /// Both envelopes' values at `t` in chunk `c`: `(u(t), l(t))`.
    #[inline(always)]
    fn eval(u: Self, l: Self, inline: bool, c: usize, t: f64) -> (Lanes, Lanes) {
        let (ut0, ux0, us) =
            (&u.t0.lanes(inline)[c], &u.x0.lanes(inline)[c], &u.slope.lanes(inline)[c]);
        let (lt0, lx0, ls) =
            (&l.t0.lanes(inline)[c], &l.x0.lanes(inline)[c], &l.slope.lanes(inline)[c]);
        let mut ue = [0.0; LANES];
        let mut le = [0.0; LANES];
        for d in 0..LANES {
            ue[d] = ux0[d] + us[d] * (t - ut0[d]);
            le[d] = lx0[d] + ls[d] * (t - lt0[d]);
        }
        (ue, le)
    }
}

/// Which lanes of one chunk a fitting slide-filter point pierces (bit
/// `i` ⇔ lane `i`), so that envelope needs a hull-tangent rebuild.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Pierced {
    /// `v > l(t) + ε`: the lower envelope moves up.
    pub lower: u8,
    /// `v < u(t) − ε`: the upper envelope moves down.
    pub upper: u8,
}

/// Swing-filter envelope values at `dt`: `origin + l·dt` and
/// `origin + u·dt`.
#[inline(always)]
fn swing_edges(origin: &Lanes, l: &Lanes, u: &Lanes, dt: f64) -> (Lanes, Lanes) {
    let mut lo = [0.0; LANES];
    let mut hi = [0.0; LANES];
    for d in 0..LANES {
        lo[d] = origin[d] + l[d] * dt;
        hi[d] = origin[d] + u[d] * dt;
    }
    (lo, hi)
}

/// Fused swing-filter step: the band fits test, and — when the point
/// fits — the conditional upper/lower slope clamps.
///
/// `hi = (origin + u·dt) + ε`, `lo = (origin + l·dt) − ε`; the point
/// fits iff `lo ≤ v ≤ hi` in every dimension, and on a fit each slope is
/// tightened iff the point's ε-band edge clears the current envelope
/// value. Returns whether the point fit (no mutation on a miss).
#[inline(always)]
pub(crate) fn swing_step(
    origin: &DimVec<f64>,
    eps: &DimVec<f64>,
    dt: f64,
    x: &[f64],
    l: &mut DimVec<f64>,
    u: &mut DimVec<f64>,
) -> bool {
    by_regime!(eps.is_inline(), |inline| {
        let (origin, eps) = (origin.lanes(inline), eps.lanes(inline));
        let fits = (0..eps.len()).all(|c| {
            let (lo, hi) = swing_edges(&origin[c], &l.lanes(inline)[c], &u.lanes(inline)[c], dt);
            let (e, x) = (&eps[c], x_chunk(x, c));
            let mut ok = true;
            for d in 0..LANES {
                ok &= (x[d] >= lo[d] - e[d]) & (x[d] <= hi[d] + e[d]);
            }
            ok
        });
        if fits {
            let (l, u) = (l.lanes_mut(inline), u.lanes_mut(inline));
            for c in 0..eps.len() {
                let (lo, hi) = swing_edges(&origin[c], &l[c], &u[c], dt);
                let (o, e, x, l, u) = (&origin[c], &eps[c], x_chunk(x, c), &mut l[c], &mut u[c]);
                for d in 0..LANES {
                    let vme = x[d] - e[d];
                    let vpe = x[d] + e[d];
                    let nl = (vme - o[d]) / dt;
                    let nu = (vpe - o[d]) / dt;
                    l[d] = if vme > lo[d] { nl } else { l[d] };
                    u[d] = if vpe < hi[d] { nu } else { u[d] };
                }
            }
        }
        fits
    })
}

/// Affine residual fits test: `|v − (anchor + slope·dt)| ≤ ε` in every
/// dimension. Serves the swing filter's frozen intervals, the linear
/// filter (shared anchor time), and the Kalman filter's intervals.
#[inline(always)]
pub(crate) fn fits_affine(
    anchor: &DimVec<f64>,
    slope: &DimVec<f64>,
    eps: &DimVec<f64>,
    dt: f64,
    x: &[f64],
) -> bool {
    by_regime!(eps.is_inline(), |inline| {
        let (anchor, slope, eps) = (anchor.lanes(inline), slope.lanes(inline), eps.lanes(inline));
        (0..eps.len()).all(|c| {
            let (a, s, e, x) = (&anchor[c], &slope[c], &eps[c], x_chunk(x, c));
            let mut ok = true;
            for d in 0..LANES {
                ok &= (x[d] - (a[d] + s[d] * dt)).abs() <= e[d];
            }
            ok
        })
    })
}

/// Constant-prediction fits test: `|v − c| ≤ ε` in every dimension
/// (the cache filter's first-value acceptance).
#[inline(always)]
pub(crate) fn fits_const(center: &DimVec<f64>, eps: &DimVec<f64>, x: &[f64]) -> bool {
    by_regime!(eps.is_inline(), |inline| {
        let (center, eps) = (center.lanes(inline), eps.lanes(inline));
        (0..eps.len()).all(|c| {
            let (m, e, x) = (&center[c], &eps[c], x_chunk(x, c));
            let mut ok = true;
            for d in 0..LANES {
                ok &= (x[d] - m[d]).abs() <= e[d];
            }
            ok
        })
    })
}

/// Slide-filter fits test: evaluates both envelopes and accepts iff
/// `l(t) − ε ≤ v ≤ u(t) + ε` in every dimension. Pure.
#[inline(always)]
pub(crate) fn slide_step(
    u: EnvView<'_>,
    l: EnvView<'_>,
    eps: &DimVec<f64>,
    t: f64,
    x: &[f64],
) -> bool {
    by_regime!(eps.is_inline(), |inline| {
        let eps = eps.lanes(inline);
        (0..eps.len()).all(|c| {
            let (ue, le) = EnvView::eval(u, l, inline, c, t);
            let (e, x) = (&eps[c], x_chunk(x, c));
            let mut ok = true;
            for d in 0..LANES {
                ok &= (x[d] <= ue[d] + e[d]) & (x[d] >= le[d] - e[d]);
            }
            ok
        })
    })
}

/// Which lanes of chunk `c` a point that passed [`slide_step`] pierces
/// (`v > l(t) + ε` / `v < u(t) − ε`), so their envelope needs a
/// hull-tangent rebuild. The caller asks chunk by chunk and rebuilds in
/// between: a rebuild touches only its own dimension, so later chunks
/// read the same envelopes the fits test did. Pure.
#[inline(always)]
pub(crate) fn slide_pierced(
    u: EnvView<'_>,
    l: EnvView<'_>,
    eps: &DimVec<f64>,
    t: f64,
    x: &[f64],
    c: usize,
) -> Pierced {
    by_regime!(eps.is_inline(), |inline| {
        let (ue, le) = EnvView::eval(u, l, inline, c, t);
        let (e, x) = (&eps.lanes(inline)[c], x_chunk(x, c));
        let mut p = Pierced::default();
        for d in 0..LANES {
            p.lower |= u8::from(x[d] > le[d] + e[d]) << d;
            p.upper |= u8::from(x[d] < ue[d] - e[d]) << d;
        }
        p
    })
}

/// A chunk's running min/max extended by the point (compare-and-select
/// `a < b ? a : b` semantics — for the validated, non-NaN inputs filters
/// see, value-identical to `f64::min`/`f64::max`).
#[inline(always)]
fn extend_range(min: &Lanes, max: &Lanes, x: &Lanes) -> (Lanes, Lanes) {
    let mut lo = [0.0; LANES];
    let mut hi = [0.0; LANES];
    for d in 0..LANES {
        lo[d] = if min[d] < x[d] { min[d] } else { x[d] };
        hi[d] = if max[d] > x[d] { max[d] } else { x[d] };
    }
    (lo, hi)
}

/// Fused cache-filter range step: extends the running min/max with the
/// point, accepts iff `max' − min' ≤ 2ε` in every dimension, and on
/// acceptance commits the extended range and `sum += v`. Returns
/// whether the point was accepted (no mutation on a miss).
#[inline(always)]
pub(crate) fn range_step(
    min: &mut DimVec<f64>,
    max: &mut DimVec<f64>,
    sum: &mut DimVec<f64>,
    eps: &DimVec<f64>,
    x: &[f64],
) -> bool {
    let fits = by_regime!(eps.is_inline(), |inline| {
        let eps = eps.lanes(inline);
        (0..eps.len()).all(|c| {
            let (lo, hi) =
                extend_range(&min.lanes(inline)[c], &max.lanes(inline)[c], &x_chunk(x, c));
            let mut ok = true;
            for d in 0..LANES {
                ok &= hi[d] - lo[d] <= 2.0 * eps[c][d];
            }
            ok
        })
    });
    if fits {
        minmax_sum(min, max, sum, x);
    }
    fits
}

/// Unconditional min/max/sum absorb (the cache filter's first-value
/// variant, whose acceptance test doesn't involve the range).
#[inline(always)]
pub(crate) fn minmax_sum(
    min: &mut DimVec<f64>,
    max: &mut DimVec<f64>,
    sum: &mut DimVec<f64>,
    x: &[f64],
) {
    by_regime!(min.is_inline(), |inline| {
        let (min, max, sum) = (min.lanes_mut(inline), max.lanes_mut(inline), sum.lanes_mut(inline));
        for c in 0..min.len() {
            let x = x_chunk(x, c);
            (min[c], max[c]) = extend_range(&min[c], &max[c], &x);
            for d in 0..LANES {
                sum[c][d] += x[d];
            }
        }
    })
}

/// Per-dimension regression-sum accumulation (`RegressionSums::push`):
/// `v = x − x_ref`, `sv += v`, `suv += u·v`.
#[inline(always)]
pub(crate) fn sums_push(
    x_ref: &DimVec<f64>,
    sv: &mut DimVec<f64>,
    suv: &mut DimVec<f64>,
    u: f64,
    x: &[f64],
) {
    by_regime!(x_ref.is_inline(), |inline| {
        let (x_ref, sv, suv) = (x_ref.lanes(inline), sv.lanes_mut(inline), suv.lanes_mut(inline));
        for c in 0..x_ref.len() {
            let (r, x) = (&x_ref[c], x_chunk(x, c));
            for d in 0..LANES {
                let v = x[d] - r[d];
                sv[c][d] += v;
                suv[c][d] += u * v;
            }
        }
    })
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
        /// `d` values drawn from `f`.
        fn vec(&mut self, d: usize, mut f: impl FnMut(&mut Self) -> f64) -> Vec<f64> {
            (0..d).map(|_| f(self)).collect()
        }
    }

    /// The bits of every lane of `got`, against `want` plus zero padding.
    fn assert_lanes(got: &DimVec<f64>, want: &[f64], what: &str) {
        let got = got.lanes(got.is_inline()).as_flattened();
        let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        let mut padded: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
        padded.resize(got.len(), 0.0f64.to_bits());
        assert_eq!(got, padded, "{what}");
    }

    /// Every lane op must be bit-identical — result and mutated state,
    /// padding lanes included — to a plain per-dimension loop, across
    /// many seeded rounds at every d ∈ 1..=9: one to three chunks, with
    /// a partial last chunk. Inputs are drawn near the fits boundaries
    /// so both outcomes of every test occur.
    #[test]
    fn lane_ops_match_per_dimension_expressions() {
        let mut rng = Lcg(0xC0FFEE);
        // [op][outcome]: how often each fits test accepted and rejected.
        let mut seen = [[0usize; 2]; 5];
        for round in 0..1800 {
            let d = 1 + round % 9;
            let what = |op: &str| format!("round {round} d={d}: {op}");
            let eps = rng.vec(d, |r| r.unit().abs() + 1e-3);
            let dt = rng.unit().abs() * 10.0 + 0.01;

            // swing_step: a cone [l, u] and a point inside or just outside
            // its ε-widened band at `dt`.
            let origin = rng.vec(d, |r| r.unit() * 100.0);
            let mid = rng.vec(d, Lcg::unit);
            let half = rng.vec(d, |r| r.unit().abs());
            let base_l: Vec<f64> = (0..d).map(|i| mid[i] - half[i]).collect();
            let base_u: Vec<f64> = (0..d).map(|i| mid[i] + half[i]).collect();
            // Near the band edge in one dimension only, so the fit rate
            // does not vanish as d grows.
            let edge = round % d;
            let off = rng.vec(d, |r| r.unit() * 0.9);
            let x: Vec<f64> = (0..d)
                .map(|i| {
                    let o = if i == edge { off[i] / 0.9 * 1.2 } else { off[i] };
                    origin[i] + mid[i] * dt + o * (half[i] * dt + eps[i])
                })
                .collect();
            let (mut want_l, mut want_u) = (base_l.clone(), base_u.clone());
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
            let (mut l, mut u) = (DimVec::from_slice(&base_l), DimVec::from_slice(&base_u));
            let got = swing_step(
                &DimVec::from_slice(&origin),
                &DimVec::from_slice(&eps),
                dt,
                &x,
                &mut l,
                &mut u,
            );
            assert_eq!(got, want, "{}", what("swing_step fits"));
            assert_lanes(&l, &want_l, &what("swing_step l"));
            assert_lanes(&u, &want_u, &what("swing_step u"));
            seen[0][usize::from(got)] += 1;

            // fits_affine / fits_const: residuals within ±ε, one
            // dimension within ±1.2ε.
            let slope = rng.vec(d, Lcg::unit);
            let off = rng.vec(d, |r| r.unit());
            let off: Vec<f64> =
                (0..d).map(|i| if i == edge { off[i] * 1.2 } else { off[i] }).collect();
            let xa: Vec<f64> =
                (0..d).map(|i| origin[i] + slope[i] * dt + off[i] * eps[i]).collect();
            let want = (0..d).all(|i| (xa[i] - (origin[i] + slope[i] * dt)).abs() <= eps[i]);
            let got = fits_affine(
                &DimVec::from_slice(&origin),
                &DimVec::from_slice(&slope),
                &DimVec::from_slice(&eps),
                dt,
                &xa,
            );
            assert_eq!(got, want, "{}", what("fits_affine"));
            seen[1][usize::from(got)] += 1;
            let xc: Vec<f64> = (0..d).map(|i| origin[i] + off[i] * eps[i]).collect();
            let want = (0..d).all(|i| (xc[i] - origin[i]).abs() <= eps[i]);
            let got = fits_const(&DimVec::from_slice(&origin), &DimVec::from_slice(&eps), &xc);
            assert_eq!(got, want, "{}", what("fits_const"));
            seen[2][usize::from(got)] += 1;

            // slide_step: an upper envelope above the lower one at `t`,
            // and a point between them, one dimension give or take 40%
            // of the gap.
            let t = rng.unit();
            let (ut0, lt0) = (rng.vec(d, Lcg::unit), rng.vec(d, Lcg::unit));
            let (us, ls) = (rng.vec(d, |r| r.unit() * 0.5), rng.vec(d, |r| r.unit() * 0.5));
            let lx0 = rng.vec(d, |r| r.unit() * 100.0);
            let gap = rng.vec(d, |r| 2.0 + r.unit().abs() * 2.0);
            let ux0: Vec<f64> = (0..d).map(|i| lx0[i] + gap[i]).collect();
            let ue: Vec<f64> = (0..d).map(|i| ux0[i] + us[i] * (t - ut0[i])).collect();
            let le: Vec<f64> = (0..d).map(|i| lx0[i] + ls[i] * (t - lt0[i])).collect();
            let frac = rng.vec(d, |r| r.unit() * 0.5 + 0.5);
            let frac: Vec<f64> =
                (0..d).map(|i| if i == edge { frac[i] * 1.8 - 0.4 } else { frac[i] }).collect();
            let xs: Vec<f64> = (0..d).map(|i| le[i] + frac[i] * (ue[i] - le[i])).collect();
            let want_fit = (0..d).all(|i| xs[i] <= ue[i] + eps[i] && xs[i] >= le[i] - eps[i]);
            let (ut0c, ux0c, usc) =
                (DimVec::from_slice(&ut0), DimVec::from_slice(&ux0), DimVec::from_slice(&us));
            let (lt0c, lx0c, lsc) =
                (DimVec::from_slice(&lt0), DimVec::from_slice(&lx0), DimVec::from_slice(&ls));
            let uv = EnvView { t0: &ut0c, x0: &ux0c, slope: &usc };
            let lv = EnvView { t0: &lt0c, x0: &lx0c, slope: &lsc };
            let epsc = DimVec::from_slice(&eps);
            let fit = slide_step(uv, lv, &epsc, t, &xs);
            let pierced: Vec<Pierced> =
                (0..d.div_ceil(LANES)).map(|c| slide_pierced(uv, lv, &epsc, t, &xs, c)).collect();
            assert_eq!(fit, want_fit, "{}", what("slide_step fits"));
            if fit {
                for i in 0..d {
                    let p = pierced[i / LANES];
                    let bit = 1u8 << (i % LANES);
                    assert_eq!(
                        (p.lower & bit != 0, p.upper & bit != 0),
                        (xs[i] > le[i] + eps[i], xs[i] < ue[i] - eps[i]),
                        "{} lane {i}",
                        what("slide_step pierced")
                    );
                }
                // Padding lanes pierce nothing.
                let tail = d % LANES;
                if tail != 0 {
                    let last = pierced[d / LANES];
                    assert_eq!((last.lower >> tail, last.upper >> tail), (0, 0), "{}", what("pad"));
                }
            }
            seen[3][usize::from(fit)] += 1;

            // range_step then minmax_sum: a run spanning at most 2ε and a
            // point that may widen it past that in one dimension.
            let center = rng.vec(d, |r| r.unit() * 100.0);
            let base_min: Vec<f64> =
                (0..d).map(|i| center[i] - rng.unit().abs() * eps[i]).collect();
            let base_max: Vec<f64> =
                (0..d).map(|i| center[i] + rng.unit().abs() * eps[i]).collect();
            let base_sum = rng.vec(d, |r| r.unit() * 1000.0);
            let xr: Vec<f64> = (0..d)
                .map(|i| {
                    let w = if i == edge { 2.0 } else { 0.4 };
                    center[i] + rng.unit() * w * eps[i]
                })
                .collect();
            let (mut want_min, mut want_max, mut want_sum) =
                (base_min.clone(), base_max.clone(), base_sum.clone());
            let want = (0..d).all(|i| {
                let lo = if want_min[i] < xr[i] { want_min[i] } else { xr[i] };
                let hi = if want_max[i] > xr[i] { want_max[i] } else { xr[i] };
                hi - lo <= 2.0 * eps[i]
            });
            let absorb = |min: &mut [f64], max: &mut [f64], sum: &mut [f64]| {
                for i in 0..d {
                    min[i] = if min[i] < xr[i] { min[i] } else { xr[i] };
                    max[i] = if max[i] > xr[i] { max[i] } else { xr[i] };
                    sum[i] += xr[i];
                }
            };
            if want {
                absorb(&mut want_min, &mut want_max, &mut want_sum);
            }
            let (mut mn, mut mx, mut sm) = (
                DimVec::from_slice(&base_min),
                DimVec::from_slice(&base_max),
                DimVec::from_slice(&base_sum),
            );
            let got = range_step(&mut mn, &mut mx, &mut sm, &DimVec::from_slice(&eps), &xr);
            assert_eq!(got, want, "{}", what("range_step accept"));
            assert_lanes(&mn, &want_min, &what("range_step min"));
            assert_lanes(&mx, &want_max, &what("range_step max"));
            assert_lanes(&sm, &want_sum, &what("range_step sum"));
            seen[4][usize::from(got)] += 1;
            absorb(&mut want_min, &mut want_max, &mut want_sum);
            minmax_sum(&mut mn, &mut mx, &mut sm, &xr);
            assert_lanes(&mn, &want_min, &what("minmax_sum min"));
            assert_lanes(&mx, &want_max, &what("minmax_sum max"));
            assert_lanes(&sm, &want_sum, &what("minmax_sum sum"));

            // sums_push, as `RegressionSums::push` writes it.
            let x_ref = rng.vec(d, |r| r.unit() * 100.0);
            let ut = rng.unit() * 50.0;
            let (base_sv, base_suv) =
                (rng.vec(d, |r| r.unit() * 1e3), rng.vec(d, |r| r.unit() * 1e5));
            let (mut want_sv, mut want_suv) = (base_sv.clone(), base_suv.clone());
            for i in 0..d {
                let v = x[i] - x_ref[i];
                want_sv[i] += v;
                want_suv[i] += ut * v;
            }
            let (mut sv, mut suv) = (DimVec::from_slice(&base_sv), DimVec::from_slice(&base_suv));
            sums_push(&DimVec::from_slice(&x_ref), &mut sv, &mut suv, ut, &x);
            assert_lanes(&sv, &want_sv, &what("sums_push sv"));
            assert_lanes(&suv, &want_suv, &what("sums_push suv"));
        }
        // Each fits test both accepted and rejected a fair share.
        for (op, tally) in seen.iter().enumerate() {
            assert!(tally.iter().all(|&n| n >= 180), "op {op} outcomes too one-sided: {tally:?}");
        }
    }

    /// At every d ∈ 1..=9, zero padding lanes pass every fits test,
    /// pierce nothing, and stay exactly 0.0 through the mutating kernels,
    /// while the live lanes sit at a fitting point.
    #[test]
    fn padding_lanes_are_neutral() {
        for d in 1usize..=9 {
            let live = |v: f64| DimVec::splat(d, v);
            let pad_is_zero = |v: &DimVec<f64>, what: &str| {
                let lanes = v.lanes(v.is_inline()).as_flattened();
                assert!(lanes[d..].iter().all(|&p| p == 0.0), "d={d}: {what} padding");
            };
            let x = vec![1.4; d];
            let (origin, eps) = (live(1.0), live(0.5));
            let (mut l, mut u) = (live(-1.0), live(1.0));
            assert!(swing_step(&origin, &eps, 2.0, &x, &mut l, &mut u), "d={d}: swing fit");
            pad_is_zero(&l, "swing l");
            pad_is_zero(&u, "swing u");

            let zeros = live(0.0);
            assert!(fits_affine(&origin, &zeros, &eps, 123.0, &x), "d={d}: affine");
            assert!(fits_const(&origin, &eps, &x), "d={d}: const");
            let (hi, lo) = (live(2.0), live(0.5));
            let uv = EnvView { t0: &zeros, x0: &hi, slope: &zeros };
            let lv = EnvView { t0: &zeros, x0: &lo, slope: &zeros };
            assert!(slide_step(uv, lv, &eps, 7.5, &x), "d={d}: slide fit");
            let tail = d % LANES;
            if tail != 0 {
                let p = slide_pierced(uv, lv, &eps, 7.5, &x, d / LANES);
                assert_eq!((p.lower >> tail, p.upper >> tail), (0, 0), "d={d}: padding pierced");
            }

            let (mut mn, mut mx, mut sm) = (live(1.2), live(1.6), live(3.0));
            assert!(range_step(&mut mn, &mut mx, &mut sm, &eps, &x), "d={d}: range");
            minmax_sum(&mut mn, &mut mx, &mut sm, &x);
            for (v, what) in [(&mn, "min"), (&mx, "max"), (&sm, "sum")] {
                pad_is_zero(v, what);
            }
            let (mut sv, mut suv) = (live(0.0), live(0.0));
            sums_push(&origin, &mut sv, &mut suv, 3.0, &x);
            pad_is_zero(&sv, "sv");
            pad_is_zero(&suv, "suv");
        }
    }
}
