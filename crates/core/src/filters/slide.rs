//! The slide filter (paper §4): mostly disconnected segments from sliding
//! extrapolation envelopes.
//!
//! Per filtering interval and dimension the filter maintains two envelope
//! lines over the points seen so far (Lemma 4.1):
//!
//! * `uᵢᵏ` — the *highest* feasible extrapolation line beyond the data:
//!   the minimum-slope line through some `(t_h, x_h − εᵢ)` and a later
//!   `(t_l, x_l + εᵢ)`;
//! * `lᵢᵏ` — the *lowest*: the maximum-slope line through some
//!   `(t_h, x_h + εᵢ)` and a later `(t_l, x_l − εᵢ)`.
//!
//! Every line within `εᵢ` of all observed points runs between `lᵢᵏ` and
//! `uᵢᵏ` after the data, so a new point is representable iff it lies
//! within `εᵢ` of that band (Lemma 4.2). Unlike the swing filter the
//! envelopes do not pivot around a fixed origin — they *slide*. Rebuilding
//! an envelope only needs the convex hull of the interval's points
//! (Lemma 4.3), maintained incrementally; the candidate recomputation is a
//! tangent query answered in O(log m_H) ([`pla_geom`]). The hulls are
//! built *lazily*: intervals below [`LAZY_HULL_THRESHOLD`] points answer
//! rebuilds by a linear scan of their raw-point buffer (cheaper than two
//! hull-chain updates per dimension per point at that size, and the
//! common case on noisy streams), and an interval that outgrows the
//! threshold replays the buffer into the hulls once and switches.
//!
//! When an interval ends, the feasible lines are exactly those through the
//! envelope intersection `zᵢ` with slope between the envelopes' (each such
//! line is a pointwise convex combination of `uᵢᵏ` and `lᵢᵏ`, hence within
//! `εᵢ` of every point). The filter picks the MSE-optimal slope (eq. 5–6)
//! and, per Lemma 4.4, tries to *connect* the new segment to the previous
//! one — sharing a recording — by intersecting them inside an admissible
//! time window `[α, β]`; otherwise the two segments stay disconnected and
//! cost two recordings.
//!
//! # Deviations from the paper's pseudo-code (see DESIGN.md §4)
//!
//! * The `[αᵢ, βᵢ]` window is computed from the same crossing times the
//!   paper defines (`c`, `d`, `e`, `f` of Lemma 4.4) but located by a
//!   predicate probe instead of the paper's below/above case analysis,
//!   which is insensitive to the PDF's garbled sub/superscripts and
//!   handles both orientations uniformly.
//! * Every accepted connection is re-verified against the stored envelope
//!   lines (new-interval cone membership + old-interval envelope sandwich
//!   at up to three times); any numerical doubt falls back to the always
//!   safe disconnected recording, so Theorem 4.1 holds unconditionally.
//! * For `d > 1` the connection time minimizes an ε-normalized sum of the
//!   per-dimension MSE surrogates, because the paper's per-dimension slope
//!   choice does not pin down a single intersection time in more than one
//!   dimension.

use pla_geom::{
    max_slope_to_chain, min_slope_to_chain, scan, Chain, IncrementalHull, Line, Point2,
};

use crate::dimvec::DimVec;
use crate::error::FilterError;
use crate::kern::{self, LANES};
use crate::mse::RegressionSums;
use crate::segment::{validate_epsilons, ProvisionalUpdate, Segment, SegmentSink};

use super::common::point_segment;
use super::{validate_batch, validate_push, StreamFilter};
use crate::error::BatchError;

/// Envelope-update strategy for the slide filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HullMode {
    /// Maintain per-dimension convex hulls and answer envelope rebuilds
    /// with tangent queries (Lemma 4.3) — the paper's optimized filter.
    #[default]
    Optimized,
    /// Keep every point of the interval and scan them all on each rebuild
    /// — the paper's "non-optimized slide filter" of Figure 13, kept for
    /// the overhead ablation.
    Exhaustive,
}

/// Statistics about hull sizes, backing the paper's observation that the
/// number of hull vertices stays small regardless of interval length
/// (§4.3, Figure 13 discussion).
#[derive(Debug, Clone, Copy, Default)]
pub struct HullStats {
    /// Largest number of hull vertices observed in any dimension at any
    /// interval close. Intervals that closed before building their hulls
    /// (fewer than [`LAZY_HULL_THRESHOLD`] points) report their raw point
    /// count — an upper bound on the vertex count.
    pub max_vertices: usize,
    /// Sum over interval closes of the per-close max vertex count.
    pub total_vertices: u64,
    /// Number of interval closes observed.
    pub intervals: u64,
    /// Largest number of raw points held by any interval.
    pub max_interval_points: u32,
}

impl HullStats {
    /// Mean hull vertex count per closed interval.
    pub fn mean_vertices(&self) -> f64 {
        if self.intervals == 0 {
            0.0
        } else {
            self.total_vertices as f64 / self.intervals as f64
        }
    }
}

/// Fallback vertex capacity reserved per hull chain before any interval
/// statistics exist.
const MIN_HULL_CAPACITY: usize = 16;

/// Interval size at which the optimized mode switches from scanning the
/// raw point buffer to maintaining convex hulls. Most intervals on noisy
/// streams close within a handful of points, where a linear scan over the
/// buffer beats paying two hull-chain updates per dimension per point;
/// the one-time hull build on crossing the threshold keeps long intervals
/// on the paper's O(log n) tangent queries.
const LAZY_HULL_THRESHOLD: usize = 8;

/// Committed line state once the lag bound freezes an interval.
#[derive(Debug, Clone)]
struct Frozen {
    g: DimVec<Line>,
    start_t: f64,
    start_x: DimVec<f64>,
    connected: bool,
}

/// Structure-of-arrays envelope: one line per dimension, stored as
/// parallel `t0` / `x0` / `slope` columns so they can be handed to the
/// lane kernels ([`crate::kern`]) as chunks.
/// `eval` reproduces [`Line::eval`]'s expression tree bit for bit.
#[derive(Debug, Clone, Default)]
struct EnvLines {
    t0: DimVec<f64>,
    x0: DimVec<f64>,
    slope: DimVec<f64>,
}

impl EnvLines {
    fn clear(&mut self) {
        self.t0.clear();
        self.x0.clear();
        self.slope.clear();
    }

    fn push(&mut self, line: Line) {
        self.t0.push(line.t0);
        self.x0.push(line.x0);
        self.slope.push(line.slope);
    }

    #[inline]
    fn set(&mut self, i: usize, line: Line) {
        self.t0[i] = line.t0;
        self.x0[i] = line.x0;
        self.slope[i] = line.slope;
    }

    #[inline]
    fn line(&self, i: usize) -> Line {
        Line { t0: self.t0[i], x0: self.x0[i], slope: self.slope[i] }
    }

    /// Same expression as [`Line::eval`]: `x0 + slope · (t − t0)`.
    #[inline]
    fn eval(&self, i: usize, t: f64) -> f64 {
        self.x0[i] + self.slope[i] * (t - self.t0[i])
    }

    fn assign(&mut self, other: &EnvLines) {
        self.t0.assign(other.t0.as_slice());
        self.x0.assign(other.x0.as_slice());
        self.slope.assign(other.slope.as_slice());
    }

    /// The columns as the kernels take them.
    #[inline]
    fn view(&self) -> kern::EnvView<'_> {
        kern::EnvView { t0: &self.t0, x0: &self.x0, slope: &self.slope }
    }
}

/// Both envelopes of the live interval. Owned by the filter (not the
/// [`Interval`]) and recycled across intervals like the hulls, so the
/// `d > 4` spill regime re-uses the same six spill buffers forever
/// instead of re-buying them at every interval open.
#[derive(Debug, Clone, Default)]
struct Envelopes {
    u: EnvLines,
    l: EnvLines,
}

/// Per-interval state. The heap-backed companions — envelopes, hulls,
/// raw-point buffers, regression sums — live on the filter itself and
/// are recycled across intervals, so opening or closing an interval
/// allocates nothing.
#[derive(Debug, Clone)]
struct Interval {
    first_t: f64,
    last_t: f64,
    n_pts: u32,
    frozen: Option<Frozen>,
    /// Optimized mode only: whether this interval has outgrown the raw
    /// point buffer and built its per-dimension hulls
    /// ([`LAZY_HULL_THRESHOLD`]).
    hull_built: bool,
}

/// A closed interval's segment waiting for its end point, which is only
/// decided when the *next* interval closes (possibly as a connection).
///
/// For `d >` [`INLINE_DIMS`](crate::INLINE_DIMS) the [`DimVec`] payloads
/// spill to the heap; retired `Pending`s are therefore pooled on the
/// filter ([`SlideFilter::retired`]) and their spill buffers recycled at
/// the next interval close, so the spill regime allocates O(1) small
/// per close instead of re-buying every payload.
#[derive(Debug, Clone, Default)]
struct Pending {
    g: DimVec<Line>,
    start_t: f64,
    start_x: DimVec<f64>,
    connected: bool,
    /// Last data-point time of the closed interval (`t_{j(k−1)}`).
    end_data_t: f64,
    /// Final envelopes of the closed interval, for Lemma 4.4's
    /// tail-coverage constraint.
    u_env: EnvLines,
    l_env: EnvLines,
    n_pts: u32,
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

/// Per-dimension cone of feasible lines at interval close. Inline
/// ([`DimVec`]) for `d ≤ 4`; the spilled buffers above that are recycled
/// across closes via [`SlideFilter::cone_scratch`].
#[derive(Debug, Clone, Default)]
struct Cone {
    /// Envelope intersection per dimension; `None` when the envelopes are
    /// (near-)parallel.
    z: DimVec<Option<Point2>>,
    lo: DimVec<f64>,
    hi: DimVec<f64>,
}

struct Connection {
    t_c: f64,
    x_c: DimVec<f64>,
    g: DimVec<Line>,
}

/// Builder for [`SlideFilter`].
#[derive(Debug, Clone)]
pub struct SlideBuilder {
    eps: Vec<f64>,
    max_lag: Option<usize>,
    hull_mode: HullMode,
}

impl SlideBuilder {
    /// Bounds the transmitter→receiver lag to `m_max_lag` data points
    /// (must be ≥ 2). Unset by default, matching the paper's experiments.
    pub fn max_lag(mut self, m: usize) -> Self {
        self.max_lag = Some(m);
        self
    }

    /// Selects the envelope-update strategy (default:
    /// [`HullMode::Optimized`]).
    pub fn hull_mode(mut self, mode: HullMode) -> Self {
        self.hull_mode = mode;
        self
    }

    /// Validates the configuration and builds the filter.
    pub fn build(self) -> Result<SlideFilter, FilterError> {
        validate_epsilons(&self.eps)?;
        if let Some(m) = self.max_lag {
            if m < 2 {
                return Err(FilterError::InvalidMaxLag { value: m });
            }
        }
        let d = self.eps.len();
        let hulls = match self.hull_mode {
            HullMode::Optimized => {
                (0..d).map(|_| IncrementalHull::with_capacity(MIN_HULL_CAPACITY)).collect()
            }
            HullMode::Exhaustive => Vec::new(),
        };
        // Both modes buffer raw points: exhaustive scans them forever,
        // optimized scans them until the interval outgrows
        // [`LAZY_HULL_THRESHOLD`] and hulls take over.
        let raw = (0..d).map(|_| Vec::with_capacity(MIN_HULL_CAPACITY)).collect();
        Ok(SlideFilter {
            sums: RegressionSums::new(0.0, &vec![0.0; d]),
            eps: self.eps.as_slice().into(),
            max_lag: self.max_lag,
            hull_mode: self.hull_mode,
            state: State::Empty,
            pending: None,
            stats: HullStats::default(),
            hulls,
            raw,
            env: Envelopes::default(),
            retired: Vec::new(),
            cone_scratch: None,
            x_pool: None,
            line_pool: None,
        })
    }
}

/// The slide filter. See the module docs.
///
/// ```
/// use pla_core::filters::{SlideFilter, StreamFilter};
/// use pla_core::Segment;
///
/// let mut filter = SlideFilter::new(&[1.0]).unwrap();
/// let mut out: Vec<Segment> = Vec::new();
/// // The paper's Example 4.1 pattern: all five points fit one segment
/// // because the envelopes slide instead of pivoting.
/// for (t, x) in [(1.0, 0.0), (2.0, 1.0), (3.0, 2.5), (4.0, 4.5), (5.0, 3.6)] {
///     filter.push(t, &[x], &mut out).unwrap();
/// }
/// filter.finish(&mut out).unwrap();
/// assert_eq!(out.len(), 1);
/// // Every input is within ε = 1 of the emitted line (Theorem 4.1).
/// assert!((out[0].eval(3.0, 0) - 2.5).abs() <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct SlideFilter {
    eps: DimVec<f64>,
    max_lag: Option<usize>,
    hull_mode: HullMode,
    state: State,
    pending: Option<Pending>,
    stats: HullStats,
    /// Per-dimension hulls of the live interval's raw points (Optimized
    /// mode), recycled across intervals via `clear()` so their buffers
    /// are allocated once and kept warm.
    hulls: Vec<IncrementalHull>,
    /// Per-dimension raw points of the live interval (Exhaustive mode),
    /// recycled the same way.
    raw: Vec<Vec<Point2>>,
    /// Regression moments of the live interval, recycled via `reset()`.
    sums: RegressionSums,
    /// Envelopes of the live interval, recycled via `clear()`.
    env: Envelopes,
    /// Arena of retired [`Pending`]s (at most 2): their spilled `DimVec`
    /// payloads are reused at the next interval close, covering the
    /// `d > 4` spill regime's alloc headroom documented in PR 3.
    retired: Vec<Pending>,
    /// Recycled [`Cone`] scratch, same purpose.
    cone_scratch: Option<Cone>,
    /// Recycled buffer for the one-point state's sample, so reopening
    /// after a violation stays allocation-free in the spill regime.
    x_pool: Option<DimVec<f64>>,
    /// Recycled line buffer for [`Self::try_connect`]'s candidate `g`.
    line_pool: Option<DimVec<Line>>,
}

impl SlideFilter {
    /// Creates a hull-optimized slide filter with unbounded lag.
    pub fn new(eps: &[f64]) -> Result<Self, FilterError> {
        Self::builder(eps).build()
    }

    /// Starts configuring a slide filter.
    pub fn builder(eps: &[f64]) -> SlideBuilder {
        SlideBuilder { eps: eps.to_vec(), max_lag: None, hull_mode: HullMode::default() }
    }

    /// The configured lag bound, if any.
    pub fn max_lag(&self) -> Option<usize> {
        self.max_lag
    }

    /// The configured envelope-update strategy.
    pub fn hull_mode(&self) -> HullMode {
        self.hull_mode
    }

    /// Hull-size statistics accumulated since construction.
    pub fn hull_stats(&self) -> HullStats {
        self.stats
    }

    fn dims_(&self) -> usize {
        self.eps.len()
    }

    // ----- interval lifecycle -------------------------------------------------

    /// Algorithm 2 lines 2 / 29: two points open an interval, recycling
    /// the filter's hull / raw-point / regression storage. The hull
    /// capacity floor follows the observed worst case
    /// ([`HullStats::max_vertices`]), so skewed streams stop re-growing
    /// hulls on every interval.
    fn start_interval(&mut self, t0: f64, x0: &[f64], t1: f64, x1: &[f64]) -> Interval {
        let d = self.dims_();
        self.env.u.clear();
        self.env.l.clear();
        for i in 0..d {
            let e = self.eps[i];
            self.env.u.push(Line::through(Point2::new(t0, x0[i] - e), Point2::new(t1, x1[i] + e)));
            self.env.l.push(Line::through(Point2::new(t0, x0[i] + e), Point2::new(t1, x1[i] - e)));
        }
        // Every interval starts in the raw buffer; optimized mode builds
        // hulls lazily once the interval outgrows the scan threshold.
        for (i, r) in self.raw.iter_mut().enumerate() {
            r.clear();
            r.push(Point2::new(t0, x0[i]));
            r.push(Point2::new(t1, x1[i]));
        }
        self.sums.reset(t0, x0);
        self.sums.push(t0, x0);
        self.sums.push(t1, x1);
        Interval { first_t: t0, last_t: t1, n_pts: 2, frozen: None, hull_built: false }
    }

    /// Acceptance test against a frozen interval's committed lines (a
    /// scalar loop: the lines are AoS and this path is off the envelope
    /// hot loop).
    fn fits_frozen(eps: &DimVec<f64>, f: &Frozen, t: f64, x: &[f64]) -> bool {
        let g = f.g.as_slice();
        x.iter().enumerate().all(|(i, &v)| (v - g[i].eval(t)).abs() <= eps[i])
    }

    /// Fused Lemma 4.2 acceptance test plus Algorithm 2 lines 32–39
    /// (hull update and envelope rebuilds through tangent queries) for a
    /// live (unfrozen) interval. Returns whether the point fit; nothing
    /// is mutated on a miss.
    ///
    /// Associated, over explicit field borrows, so the push hot path can
    /// run it on the live interval in place.
    #[allow(clippy::too_many_arguments)]
    fn step(
        hull_mode: HullMode,
        eps: &DimVec<f64>,
        env: &mut Envelopes,
        hulls: &mut [IncrementalHull],
        raw: &mut [Vec<Point2>],
        sums: &mut RegressionSums,
        iv: &mut Interval,
        t: f64,
        x: &[f64],
    ) -> bool {
        if !kern::slide_step(env.u.view(), env.l.view(), eps, t, x) {
            return false;
        }
        let use_hull = hull_mode == HullMode::Optimized && iv.hull_built;
        for (c, (xc, ec)) in x.chunks(LANES).zip(eps.chunks(LANES)).enumerate() {
            let p = kern::slide_pierced(env.u.view(), env.l.view(), eps, t, x, c);
            for (lane, (&v, &e)) in xc.iter().zip(ec).enumerate() {
                let (i, bit) = (c * LANES + lane, 1 << lane);
                // Max-slope line through an up-shifted earlier point and
                // the down-shifted new point; earlier touch on the lower
                // chain (and symmetrically for the upper).
                if p.lower & bit != 0 {
                    Self::rebuild_lower(
                        use_hull,
                        &mut env.l,
                        hulls,
                        raw,
                        i,
                        e,
                        Point2::new(t, v - e),
                    );
                }
                if p.upper & bit != 0 {
                    Self::rebuild_upper(
                        use_hull,
                        &mut env.u,
                        hulls,
                        raw,
                        i,
                        e,
                        Point2::new(t, v + e),
                    );
                }
                Self::note_point(use_hull, env, hulls, raw, i, t, v);
            }
        }
        sums.push(t, x);
        Self::maybe_build_hulls(hull_mode, iv, hulls, raw);
        iv.last_t = t;
        iv.n_pts += 1;
        true
    }

    /// Rebuilds the lower envelope of dimension `i` from a hull tangent
    /// through the shifted new point `q = (t, v − ε)`.
    fn rebuild_lower(
        use_hull: bool,
        env_l: &mut EnvLines,
        hulls: &mut [IncrementalHull],
        raw: &mut [Vec<Point2>],
        i: usize,
        e: f64,
        q: Point2,
    ) {
        let hit = if use_hull {
            max_slope_to_chain(hulls[i].chain(Chain::Lower), e, q)
        } else {
            // Interval points always precede the query point in time.
            scan::max_slope_before(&raw[i], e, q)
        }
        .expect("interval always holds at least one prior point");
        // Same bits as `Line::through(hit.vertex, q)` — the query already
        // paid for that division.
        env_l.set(i, Line::new(hit.vertex, hit.slope));
    }

    /// Rebuilds the upper envelope of dimension `i` from a hull tangent
    /// through the shifted new point `q = (t, v + ε)`.
    fn rebuild_upper(
        use_hull: bool,
        env_u: &mut EnvLines,
        hulls: &mut [IncrementalHull],
        raw: &mut [Vec<Point2>],
        i: usize,
        e: f64,
        q: Point2,
    ) {
        let hit = if use_hull {
            min_slope_to_chain(hulls[i].chain(Chain::Upper), -e, q)
        } else {
            scan::min_slope_before(&raw[i], -e, q)
        }
        .expect("interval always holds at least one prior point");
        env_u.set(i, Line::new(hit.vertex, hit.slope));
    }

    /// Per-dimension tail of an accepted step: cone sanity check plus
    /// adding the raw point to the hull (or point list).
    #[inline]
    fn note_point(
        use_hull: bool,
        env: &Envelopes,
        hulls: &mut [IncrementalHull],
        raw: &mut [Vec<Point2>],
        i: usize,
        t: f64,
        v: f64,
    ) {
        debug_assert!(
            env.l.slope[i] <= env.u.slope[i] + 1e-9 * env.u.slope[i].abs().max(1.0),
            "slide cone emptied in dim {i}"
        );
        if use_hull {
            hulls[i].push(Point2::new(t, v));
        } else {
            raw[i].push(Point2::new(t, v));
        }
    }

    /// Lazy hull activation: once an optimized-mode interval outgrows
    /// [`LAZY_HULL_THRESHOLD`], replay its raw buffer into the hulls and
    /// route subsequent points and tangent queries there. Scans over the
    /// raw buffer and tangent queries on the hull of the same points pick
    /// the same extreme slope (the extreme vertex is a hull vertex), so
    /// the switch is behaviour-preserving.
    #[inline]
    fn maybe_build_hulls(
        hull_mode: HullMode,
        iv: &mut Interval,
        hulls: &mut [IncrementalHull],
        raw: &[Vec<Point2>],
    ) {
        if hull_mode != HullMode::Optimized || iv.hull_built || raw[0].len() < LAZY_HULL_THRESHOLD {
            return;
        }
        for (h, r) in hulls.iter_mut().zip(raw) {
            h.clear();
            for &p in r {
                h.push(p);
            }
        }
        iv.hull_built = true;
    }

    /// The feasible cone at interval close: per-dimension envelope
    /// intersection and slope bounds, filled into recycled scratch.
    fn fill_cone(&self, cone: &mut Cone) {
        cone.z.clear();
        cone.lo.clear();
        cone.hi.clear();
        for i in 0..self.dims_() {
            let u = self.env.u.line(i);
            let l = self.env.l.line(i);
            cone.lo.push(l.slope);
            cone.hi.push(u.slope);
            cone.z.push(u.intersection(&l));
        }
    }

    /// Chooses the MSE-optimal feasible line per dimension, ignoring any
    /// connection opportunity (Algorithm 2 line 17 for the disconnected
    /// case), filling recycled storage.
    fn mse_lines_into(&self, iv: &Interval, cone: &Cone, out: &mut DimVec<Line>) {
        out.clear();
        for i in 0..self.dims_() {
            out.push(match cone.z[i] {
                Some(z) => {
                    let a = self.sums.clamped_slope(z.t, z.x, i, cone.lo[i], cone.hi[i]);
                    Line::new(z, a).anchored_at(iv.first_t)
                }
                None => {
                    // (Near-)parallel envelopes: the midline is a pointwise
                    // convex combination of two feasible lines, hence
                    // feasible.
                    let mid = 0.5 * (self.env.u.eval(i, iv.last_t) + self.env.l.eval(i, iv.last_t));
                    Line::new(Point2::new(iv.last_t, mid), self.env.l.slope[i])
                        .anchored_at(iv.first_t)
                }
            });
        }
    }

    /// Emits the resolved pending segment. `p` is consumed: its start
    /// payload moves straight into the [`Segment`] (no clone, no heap)
    /// and its remaining `DimVec` payloads retire into the arena for
    /// the next interval close to reuse.
    fn emit_pending(
        &mut self,
        p: Pending,
        t_end: f64,
        x_end: DimVec<f64>,
        sink: &mut dyn SegmentSink,
    ) {
        let Pending { g, start_t, start_x, connected, end_data_t: _, u_env, l_env, n_pts } = p;
        sink.segment(Segment {
            t_start: start_t,
            x_start: start_x,
            t_end,
            x_end,
            connected,
            n_points: n_pts,
            new_recordings: if connected { 1 } else { 2 },
        });
        if self.retired.len() < 2 {
            self.retired.push(Pending { g, u_env, l_env, ..Pending::default() });
        }
    }

    /// A pooled [`Pending`] whose payload buffers (if any retired) carry
    /// their spill capacity; fields still hold stale retired values and
    /// must all be overwritten by the caller.
    fn take_retired(&mut self) -> Pending {
        self.retired.pop().unwrap_or_default()
    }

    /// A copy of `x` in the pooled one-point-state buffer (fresh only on
    /// the very first use), so re-opening after a violation allocates
    /// nothing even when the dimensions spill.
    fn one_x(&mut self, x: &[f64]) -> DimVec<f64> {
        let mut buf = self.x_pool.take().unwrap_or_default();
        buf.assign(x);
        buf
    }

    fn note_stats(&mut self, iv: &Interval) {
        // Intervals that never outgrew the raw buffer report its point
        // count — an upper bound on (and for tiny intervals a good proxy
        // of) the hull vertex count.
        let verts = if self.hull_mode == HullMode::Optimized && iv.hull_built {
            self.hulls.iter().map(|h| h.num_vertices()).max().unwrap_or(0)
        } else {
            self.raw.iter().map(|r| r.len()).max().unwrap_or(0)
        };
        self.stats.max_vertices = self.stats.max_vertices.max(verts);
        self.stats.total_vertices += verts as u64;
        self.stats.intervals += 1;
        self.stats.max_interval_points = self.stats.max_interval_points.max(iv.n_pts);
    }

    /// Closes `iv`: resolves the pending segment (connecting when Lemma
    /// 4.4 admits it), emits it, and returns the new pending segment for
    /// `iv` itself.
    fn close_interval(&mut self, iv: &Interval, sink: &mut dyn SegmentSink) -> Pending {
        self.note_stats(iv);
        let mut cone = self.cone_scratch.take().unwrap_or_default();
        self.fill_cone(&mut cone);
        let next = 'next: {
            if let Some(p) = self.pending.take() {
                if let Some(conn) = self.try_connect(&p, &cone) {
                    self.emit_pending(p, conn.t_c, conn.x_c.clone(), sink);
                    let mut np = self.take_retired();
                    // Swap the candidate line buffer in and recycle the
                    // retired one for the next connection attempt.
                    self.line_pool = Some(std::mem::replace(&mut np.g, conn.g));
                    np.start_t = conn.t_c;
                    np.start_x = conn.x_c;
                    np.connected = true;
                    np.end_data_t = iv.last_t;
                    np.u_env.assign(&self.env.u);
                    np.l_env.assign(&self.env.l);
                    np.n_pts = iv.n_pts;
                    break 'next np;
                }
                // Disconnected: the previous segment ends at its own last
                // data point (Algorithm 2 line 21).
                let e = p.end_data_t;
                let x_e: DimVec<f64> = p.g.iter().map(|g| g.eval(e)).collect();
                self.emit_pending(p, e, x_e, sink);
            }
            let mut np = self.take_retired();
            self.mse_lines_into(iv, &cone, &mut np.g);
            np.start_t = iv.first_t;
            np.start_x = np.g.iter().map(|gl| gl.eval(iv.first_t)).collect();
            np.connected = false;
            np.end_data_t = iv.last_t;
            np.u_env.assign(&self.env.u);
            np.l_env.assign(&self.env.l);
            np.n_pts = iv.n_pts;
            np
        };
        self.cone_scratch = Some(cone);
        next
    }

    // ----- Lemma 4.4: connection ----------------------------------------------

    /// Attempts to intersect the pending segment's line with a feasible
    /// line of the just-closed interval (whose final envelopes are still
    /// live in [`Self::env`]).
    fn try_connect(&mut self, p: &Pending, cone: &Cone) -> Option<Connection> {
        if p.n_pts == 0 {
            return None;
        }
        let e = p.end_data_t;
        let d = self.dims_();
        // Connection must give the previous segment positive extent.
        let span = (e - p.start_t).abs().max(1.0);
        let mut alpha = p.start_t + 1e-9 * span;
        let mut beta = e;
        for i in 0..d {
            let z = cone.z[i]?;
            // Guard degenerate geometry: the envelope intersection must lie
            // beyond the previous interval's data.
            if z.t <= e + 1e-12 * span {
                return None;
            }
            let u_line = self.env.u.line(i);
            let l_line = self.env.l.line(i);
            let g_prev = &p.g[i];
            let eps = self.eps[i];
            // T1: times where g^{k−1} runs between the new envelopes, so a
            // line through z and that point has a feasible slope.
            let (t1_lo, t1_hi) = bounded_true_interval(
                g_prev.intersection_t(&u_line),
                g_prev.intersection_t(&l_line),
                |t| {
                    let v = g_prev.eval(t);
                    let a = u_line.eval(t);
                    let b = l_line.eval(t);
                    v >= a.min(b) - 1e-9 * eps && v <= a.max(b) + 1e-9 * eps
                },
                e,
            )?;
            // T2: times where the connecting line still lies between the
            // previous interval's envelopes at t = e (Lemma 4.4's s/q
            // constraint), so the old interval's tail stays covered.
            let le = p.l_env.eval(i, e);
            let ue = p.u_env.eval(i, e);
            let s_line = Line::through(z, Point2::new(e, le));
            let q_line = Line::through(z, Point2::new(e, ue));
            let (t2_lo, t2_hi) = bounded_true_interval(
                g_prev.intersection_t(&s_line),
                g_prev.intersection_t(&q_line),
                |t| {
                    if (z.t - t).abs() < 1e-12 * span {
                        return false;
                    }
                    let a = (z.x - g_prev.eval(t)) / (z.t - t);
                    let at_e = z.x + a * (e - z.t);
                    at_e >= le.min(ue) - 1e-9 * eps && at_e <= le.max(ue) + 1e-9 * eps
                },
                e,
            )?;
            alpha = alpha.max(t1_lo).max(t2_lo);
            beta = beta.min(t1_hi).min(t2_hi);
            if alpha > beta {
                return None;
            }
        }
        let t_c = self.pick_connection_time(p, cone, alpha, beta)?;
        // Force the per-dimension slopes through z and the connection
        // point, then verify everything before committing. The candidate
        // line buffer is pooled; it returns to the pool on every bail-out
        // so failed attempts stay allocation-free too.
        let mut g = self.line_pool.take().unwrap_or_default();
        g.clear();
        let mut x_c = DimVec::with_capacity(d);
        for i in 0..d {
            let z = cone.z[i].expect("checked above");
            let gx = p.g[i].eval(t_c);
            if (z.t - t_c).abs() < 1e-12 * span.max(z.t.abs()) {
                self.line_pool = Some(g);
                return None;
            }
            let a = (z.x - gx) / (z.t - t_c);
            let slack = 1e-9 * (cone.hi[i] - cone.lo[i]).abs().max(1e-9);
            if !(a >= cone.lo[i] - slack && a <= cone.hi[i] + slack) {
                self.line_pool = Some(g);
                return None;
            }
            let line = Line::new(Point2::new(t_c, gx), a);
            let (pl, pu) = (p.l_env.line(i), p.u_env.line(i));
            if !sandwich_ok(&pl, &pu, &line, t_c, e, self.eps[i]) {
                self.line_pool = Some(g);
                return None;
            }
            g.push(line);
            x_c.push(gx);
        }
        Some(Connection { t_c, x_c, g })
    }

    /// Chooses the connection time inside `[alpha, beta]`.
    ///
    /// For one dimension this follows the paper exactly: clamp the
    /// MSE-optimal slope into the narrowed cone and intersect. For `d > 1`
    /// the slopes are functions of the single connection time, so we
    /// minimize the ε-normalized quadratic MSE surrogate over the window.
    fn pick_connection_time(&self, p: &Pending, cone: &Cone, alpha: f64, beta: f64) -> Option<f64> {
        if !(alpha.is_finite() && beta.is_finite() && alpha <= beta) {
            return None;
        }
        let d = self.dims_();
        if d == 1 {
            let z = cone.z[0]?;
            let g_prev = &p.g[0];
            let slope_at = |t: f64| (z.x - g_prev.eval(t)) / (z.t - t);
            let (sa, sb) = (slope_at(alpha), slope_at(beta));
            let (lo_s, hi_s) = (sa.min(sb), sa.max(sb));
            let want = self.sums.clamped_slope(z.t, z.x, 0, cone.lo[0], cone.hi[0]);
            let a = want.clamp(lo_s, hi_s);
            let t_c = Line::new(z, a).intersection_t(g_prev)?;
            return Some(t_c.clamp(alpha, beta));
        }
        // Multi-dimensional: weighted quadratic surrogate, coarse scan +
        // ternary refinement.
        let mut weights = DimVec::new();
        let mut targets = DimVec::new();
        for i in 0..d {
            let z = cone.z[i]?;
            let w = self.sums.slope_curvature(z.t) / (self.eps[i] * self.eps[i]);
            let a = self
                .sums
                .optimal_slope(z.t, z.x, i)
                .map(|s| s.clamp(cone.lo[i], cone.hi[i]))
                .unwrap_or(0.5 * (cone.lo[i] + cone.hi[i]));
            weights.push(w.max(0.0));
            targets.push(a);
        }
        let cost = |t: f64| -> f64 {
            (0..d)
                .map(|i| {
                    let z = cone.z[i].expect("checked above");
                    let a = (z.x - p.g[i].eval(t)) / (z.t - t);
                    weights[i] * (a - targets[i]) * (a - targets[i])
                })
                .sum()
        };
        const COARSE: usize = 17;
        let mut best_t = alpha;
        let mut best_c = f64::INFINITY;
        for k in 0..=COARSE {
            let t = alpha + (beta - alpha) * k as f64 / COARSE as f64;
            let c = cost(t);
            if c < best_c {
                best_c = c;
                best_t = t;
            }
        }
        // Ternary refinement with a width-based convergence cut: stop as
        // soon as the bracket is tight relative to the window's time
        // scale instead of always burning the full iteration budget (two
        // `cost` evaluations each) on already-converged brackets. The
        // iteration cap bounds the worst case.
        let span = beta.abs().max(alpha.abs()).max(1.0);
        let step = (beta - alpha) / COARSE as f64;
        let mut lo = (best_t - step).max(alpha);
        let mut hi = (best_t + step).min(beta);
        for _ in 0..48 {
            if hi - lo <= 1e-12 * span {
                break;
            }
            let m1 = lo + (hi - lo) / 3.0;
            let m2 = hi - (hi - lo) / 3.0;
            if cost(m1) <= cost(m2) {
                hi = m2;
            } else {
                lo = m1;
            }
        }
        Some(0.5 * (lo + hi))
    }

    // ----- lag bound -----------------------------------------------------------

    fn unshipped(&self, iv: &Interval) -> usize {
        let pend = self.pending.as_ref().map_or(0, |p| p.n_pts as usize);
        let live = if iv.frozen.is_some() { 0 } else { iv.n_pts as usize };
        pend + live
    }

    /// Paper §4.3 note: when the receiver is `m_max_lag` points behind,
    /// resolve the pending segment, commit the current interval to one
    /// line, ship it, and degrade to a linear filter.
    fn maybe_freeze(&mut self, iv: &mut Interval, sink: &mut dyn SegmentSink) {
        let Some(m) = self.max_lag else { return };
        if iv.frozen.is_some() || self.unshipped(iv) < m {
            return;
        }
        let next = self.close_interval(iv, sink);
        sink.provisional(ProvisionalUpdate {
            t_anchor: next.start_t,
            x_anchor: next.start_x.clone(),
            slopes: next.g.iter().map(|g| g.slope).collect(),
            covers_through: iv.last_t,
        });
        iv.frozen = Some(Frozen {
            g: next.g,
            start_t: next.start_t,
            start_x: next.start_x,
            connected: next.connected,
        });
        // The frozen line was shipped; its end recording is sent when the
        // interval ends, so nothing becomes pending.
        self.pending = None;
    }

    /// Emits a frozen interval's segment (its line is already at the
    /// receiver; only the end recording is new).
    fn emit_frozen(iv: &Interval, sink: &mut dyn SegmentSink) {
        let f = iv.frozen.as_ref().expect("caller checked");
        let x_end: DimVec<f64> = f.g.iter().map(|g| g.eval(iv.last_t)).collect();
        sink.segment(Segment {
            t_start: f.start_t,
            x_start: f.start_x.clone(),
            t_end: iv.last_t,
            x_end,
            connected: f.connected,
            n_points: iv.n_pts,
            new_recordings: if f.connected { 1 } else { 2 },
        });
    }

    /// After a violation leaves a fresh one-point state, flush the pending
    /// segment if it alone exceeds the lag bound.
    fn enforce_lag_on_pending(&mut self, extra: usize, sink: &mut dyn SegmentSink) {
        let Some(m) = self.max_lag else { return };
        let pend = self.pending.as_ref().map_or(0, |p| p.n_pts as usize);
        if pend + extra >= m {
            if let Some(p) = self.pending.take() {
                let e = p.end_data_t;
                let x_e: DimVec<f64> = p.g.iter().map(|g| g.eval(e)).collect();
                self.emit_pending(p, e, x_e, sink);
            }
        }
    }

    fn last_t(&self) -> Option<f64> {
        match &self.state {
            State::Empty => None,
            State::One { t, .. } => Some(*t),
            State::Active(iv) => Some(iv.last_t),
        }
    }
}

/// Locates the (clipped) interval where `pred` holds, delimited by up to
/// two crossing times. `probe` is a time inside the caller's domain used
/// when both crossings are absent (constant predicate).
///
/// Returns `None` when the true-region is empty or is not a single
/// interval (the paper's connection conditions fail in those
/// orientations).
fn bounded_true_interval(
    c1: Option<f64>,
    c2: Option<f64>,
    pred: impl Fn(f64) -> bool,
    probe: f64,
) -> Option<(f64, f64)> {
    match (c1, c2) {
        (Some(a), Some(b)) => {
            let (lo, hi) = (a.min(b), a.max(b));
            if hi - lo > 0.0 && pred(0.5 * (lo + hi)) {
                Some((lo, hi))
            } else {
                None
            }
        }
        (Some(c), None) | (None, Some(c)) => {
            // Half-line: find which side is true.
            let w = c.abs().max(probe.abs()).max(1.0);
            if pred(c - w) {
                Some((f64::NEG_INFINITY, c))
            } else if pred(c + w) {
                Some((c, f64::INFINITY))
            } else {
                None
            }
        }
        (None, None) => pred(probe).then_some((f64::NEG_INFINITY, f64::INFINITY)),
    }
}

/// Airtight tail-coverage check: `line` must run between the previous
/// interval's envelopes `l_env`/`u_env` (each within ε of every old point)
/// on `[t_c, e]`. Both bounds are lines, so checking the ends — plus the
/// envelope crossing if it falls inside — is exact up to the slack.
fn sandwich_ok(l_env: &Line, u_env: &Line, line: &Line, t_c: f64, e: f64, eps: f64) -> bool {
    let slack = 1e-9 * eps.max(1.0);
    let inside = |t: f64| {
        let a = l_env.eval(t);
        let b = u_env.eval(t);
        let v = line.eval(t);
        v >= a.min(b) - slack && v <= a.max(b) + slack
    };
    if !inside(t_c) || !inside(e) {
        return false;
    }
    if let Some(t_cross) = l_env.intersection_t(u_env) {
        if t_cross > t_c && t_cross < e && !inside(t_cross) {
            return false;
        }
    }
    true
}

impl StreamFilter for SlideFilter {
    fn dims(&self) -> usize {
        self.eps.len()
    }

    fn epsilons(&self) -> &[f64] {
        &self.eps
    }

    fn push(&mut self, t: f64, x: &[f64], sink: &mut dyn SegmentSink) -> Result<(), FilterError> {
        validate_push(self.dims_(), self.last_t(), t, x)?;
        // Hot path: an accepted sample updates the live interval's
        // envelopes/hulls in place — no state-enum move per point.
        // Lag-bounded filters take the general path below (they may need
        // to freeze via the sink).
        if self.max_lag.is_none() {
            if let State::Active(iv) = &mut self.state {
                if iv.frozen.is_none()
                    && Self::step(
                        self.hull_mode,
                        &self.eps,
                        &mut self.env,
                        &mut self.hulls,
                        &mut self.raw,
                        &mut self.sums,
                        iv,
                        t,
                        x,
                    )
                {
                    return Ok(());
                }
            }
        }
        match std::mem::replace(&mut self.state, State::Empty) {
            State::Empty => {
                let x = self.one_x(x);
                self.state = State::One { t, x };
            }
            State::One { t: t0, x: x0 } => {
                let mut iv = self.start_interval(t0, &x0, t, x);
                self.x_pool = Some(x0);
                self.maybe_freeze(&mut iv, sink);
                self.state = State::Active(iv);
            }
            State::Active(mut iv) => {
                let ok = if let Some(f) = &iv.frozen {
                    Self::fits_frozen(&self.eps, f, t, x)
                } else {
                    Self::step(
                        self.hull_mode,
                        &self.eps,
                        &mut self.env,
                        &mut self.hulls,
                        &mut self.raw,
                        &mut self.sums,
                        &mut iv,
                        t,
                        x,
                    )
                };
                if ok {
                    if iv.frozen.is_some() {
                        iv.last_t = t;
                        iv.n_pts += 1;
                    }
                    self.maybe_freeze(&mut iv, sink);
                    self.state = State::Active(iv);
                } else {
                    // Algorithm 2 lines 6–30: close, remember the segment
                    // as pending, reopen with the violator.
                    if iv.frozen.is_some() {
                        Self::emit_frozen(&iv, sink);
                    } else {
                        let next = self.close_interval(&iv, sink);
                        self.pending = Some(next);
                    }
                    self.enforce_lag_on_pending(1, sink);
                    let x = self.one_x(x);
                    self.state = State::One { t, x };
                }
            }
        }
        Ok(())
    }

    /// Batch fast path: one validation scan for the whole batch, then an
    /// inner accept loop that keeps the live interval (hulls, envelopes,
    /// sums) out of the state enum instead of moving it through
    /// `mem::replace` on every point.
    fn push_batch(
        &mut self,
        samples: &[(f64, &[f64])],
        sink: &mut dyn SegmentSink,
    ) -> Result<usize, BatchError> {
        let (upto, err) = validate_batch(self.dims_(), self.last_t(), samples);
        let mut state = std::mem::replace(&mut self.state, State::Empty);
        let mut i = 0;
        while i < upto {
            let (t, x) = samples[i];
            state = match state {
                State::Empty => {
                    i += 1;
                    let x = self.one_x(x);
                    State::One { t, x }
                }
                State::One { t: t0, x: x0 } => {
                    i += 1;
                    let mut iv = self.start_interval(t0, &x0, t, x);
                    self.x_pool = Some(x0);
                    self.maybe_freeze(&mut iv, sink);
                    State::Active(iv)
                }
                State::Active(mut iv) => {
                    // Absorb the longest run of accepted samples.
                    while i < upto {
                        let (t, x) = samples[i];
                        let ok = if let Some(f) = &iv.frozen {
                            let ok = Self::fits_frozen(&self.eps, f, t, x);
                            if ok {
                                iv.last_t = t;
                                iv.n_pts += 1;
                            }
                            ok
                        } else {
                            Self::step(
                                self.hull_mode,
                                &self.eps,
                                &mut self.env,
                                &mut self.hulls,
                                &mut self.raw,
                                &mut self.sums,
                                &mut iv,
                                t,
                                x,
                            )
                        };
                        if !ok {
                            break;
                        }
                        self.maybe_freeze(&mut iv, sink);
                        i += 1;
                    }
                    if i < upto {
                        // The violator closes the interval and reopens.
                        let (t, x) = samples[i];
                        i += 1;
                        if iv.frozen.is_some() {
                            Self::emit_frozen(&iv, sink);
                        } else {
                            let next = self.close_interval(&iv, sink);
                            self.pending = Some(next);
                        }
                        self.enforce_lag_on_pending(1, sink);
                        let x = self.one_x(x);
                        State::One { t, x }
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
            State::Empty => {
                debug_assert!(self.pending.is_none(), "pending without samples");
            }
            State::One { t, x } => {
                if let Some(p) = self.pending.take() {
                    let e = p.end_data_t;
                    let x_e: DimVec<f64> = p.g.iter().map(|g| g.eval(e)).collect();
                    self.emit_pending(p, e, x_e, sink);
                }
                sink.segment(point_segment(t, &x, false));
                self.x_pool = Some(x);
            }
            State::Active(iv) => {
                if iv.frozen.is_some() {
                    Self::emit_frozen(&iv, sink);
                } else {
                    // Algorithm 2 lines 24–25: the last interval's segment
                    // ends at the final data point; the connection attempt
                    // with the previous segment still applies.
                    let p = self.close_interval(&iv, sink);
                    let x_e: DimVec<f64> = p.g.iter().map(|g| g.eval(iv.last_t)).collect();
                    self.emit_pending(p, iv.last_t, x_e, sink);
                }
            }
        }
        self.pending = None;
        Ok(())
    }

    fn pending_points(&self) -> usize {
        let state_points = match &self.state {
            State::Empty => 0,
            State::One { .. } => 1,
            State::Active(iv) => {
                if iv.frozen.is_some() {
                    0
                } else {
                    iv.n_pts as usize
                }
            }
        };
        self.pending.as_ref().map_or(0, |p| p.n_pts as usize) + state_points
    }

    fn name(&self) -> &'static str {
        "slide"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filters::{run_filter, SwingFilter};
    use crate::sample::Signal;
    use crate::segment::CollectingSink;

    fn compress(signal: &Signal, eps: f64) -> Vec<Segment> {
        let mut f = SlideFilter::new(&vec![eps; signal.dims()]).unwrap();
        run_filter(&mut f, signal).unwrap()
    }

    fn check_guarantee(signal: &Signal, segs: &[Segment], eps: &[f64]) {
        for (t, x) in signal.iter() {
            let seg = segs
                .iter()
                .find(|s| s.covers(t))
                .unwrap_or_else(|| panic!("no segment covers t={t}"));
            for d in 0..signal.dims() {
                let err = (seg.eval(t, d) - x[d]).abs();
                assert!(
                    err <= eps[d] * (1.0 + 1e-6),
                    "dim {d}: error {err} > ε={} at t={t}",
                    eps[d]
                );
            }
        }
    }

    #[test]
    fn straight_line_is_one_segment() {
        let values: Vec<f64> = (0..100).map(|i| 0.25 * i as f64).collect();
        let signal = Signal::from_values(&values);
        let segs = compress(&signal, 0.05);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].n_points, 100);
        assert!((segs[0].slope(0) - 0.25).abs() < 1e-9);
    }

    /// The paper's Example 4.1 follow-through: the pattern that defeats
    /// the swing filter at the 5th point survives in the slide filter
    /// because envelopes slide instead of pivoting around the origin.
    #[test]
    fn slide_outlives_swing_on_paper_pattern() {
        let signal =
            Signal::from_pairs(&[(1.0, 0.0), (2.0, 1.0), (3.0, 2.5), (4.0, 4.5), (5.0, 3.6)]);
        let mut swing = SwingFilter::new(&[1.0]).unwrap();
        let swing_segs = run_filter(&mut swing, &signal).unwrap();
        let slide_segs = compress(&signal, 1.0);
        assert!(
            slide_segs.len() < swing_segs.len(),
            "slide ({}) must beat swing ({}) here",
            slide_segs.len(),
            swing_segs.len()
        );
        assert_eq!(slide_segs.len(), 1);
        check_guarantee(&signal, &slide_segs, &[1.0]);
    }

    #[test]
    fn precision_guarantee_theorem_4_1_random_walk() {
        let mut seed = 0xDEADBEEFu64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut x = 0.0;
        let values: Vec<f64> = (0..3000)
            .map(|_| {
                x += rnd() * 2.0;
                x
            })
            .collect();
        let signal = Signal::from_values(&values);
        for eps in [0.05, 0.3, 1.0, 5.0] {
            let segs = compress(&signal, eps);
            check_guarantee(&signal, &segs, &[eps]);
        }
    }

    #[test]
    fn exhaustive_mode_matches_guarantee_and_compression() {
        let mut seed = 99u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut x = 0.0;
        let values: Vec<f64> = (0..800)
            .map(|_| {
                x += rnd();
                x
            })
            .collect();
        let signal = Signal::from_values(&values);
        let mut opt = SlideFilter::builder(&[0.7]).build().unwrap();
        let mut exh = SlideFilter::builder(&[0.7]).hull_mode(HullMode::Exhaustive).build().unwrap();
        let so = run_filter(&mut opt, &signal).unwrap();
        let se = run_filter(&mut exh, &signal).unwrap();
        check_guarantee(&signal, &so, &[0.7]);
        check_guarantee(&signal, &se, &[0.7]);
        // Lemma 4.3: the hull-optimized filter finds the same envelopes,
        // hence the same segmentation.
        assert_eq!(so.len(), se.len());
        for (a, b) in so.iter().zip(se.iter()) {
            assert!((a.t_start - b.t_start).abs() < 1e-9);
            assert!((a.t_end - b.t_end).abs() < 1e-9);
            assert_eq!(a.connected, b.connected);
        }
    }

    #[test]
    fn connections_share_endpoints_and_cost_one_recording() {
        // A noisy zig-zag provokes many segments, some connectable.
        let values: Vec<f64> = (0..400)
            .map(|i| {
                let t = i as f64;
                (t * 0.5).sin() * 5.0 + (t * 0.077).cos() * 2.0
            })
            .collect();
        let signal = Signal::from_values(&values);
        let segs = compress(&signal, 0.4);
        check_guarantee(&signal, &segs, &[0.4]);
        let mut any_connected = false;
        for pair in segs.windows(2) {
            if pair[1].connected {
                any_connected = true;
                assert!((pair[0].t_end - pair[1].t_start).abs() < 1e-9);
                assert!((pair[0].x_end[0] - pair[1].x_start[0]).abs() < 1e-9);
                assert_eq!(pair[1].new_recordings, 1);
            } else if pair[1].t_start < pair[1].t_end {
                assert_eq!(pair[1].new_recordings, 2);
                assert!(pair[1].t_start >= pair[0].t_end - 1e-9);
            } else {
                // degenerate trailing point segment: one recording
                assert_eq!(pair[1].new_recordings, 1);
            }
        }
        assert!(any_connected, "expected at least one connection on this workload");
    }

    #[test]
    fn slide_compresses_at_least_as_well_as_swing_on_oscillation() {
        // Figure 10 discussion: sharp oscillation favours the slide filter.
        let values: Vec<f64> = (0..500).map(|i| if i % 2 == 0 { 0.0 } else { 4.0 }).collect();
        let signal = Signal::from_values(&values);
        let slide = compress(&signal, 0.5);
        let mut swing = SwingFilter::new(&[0.5]).unwrap();
        let swing_segs = run_filter(&mut swing, &signal).unwrap();
        let slide_recs: u32 = slide.iter().map(|s| s.new_recordings as u32).sum();
        let swing_recs: u32 = swing_segs.iter().map(|s| s.new_recordings as u32).sum();
        assert!(slide_recs <= swing_recs, "slide {slide_recs} recordings vs swing {swing_recs}");
        check_guarantee(&signal, &slide, &[0.5]);
    }

    #[test]
    fn multi_dim_guarantee_and_joint_segmentation() {
        let mut s = Signal::new(2);
        let mut seed = 123u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let (mut a, mut b) = (0.0f64, 0.0f64);
        for j in 0..1000 {
            a += rnd();
            b += rnd() * 3.0;
            s.push(j as f64, &[a, b]).unwrap();
        }
        let eps = [0.5, 1.5];
        let mut f = SlideFilter::new(&eps).unwrap();
        let segs = run_filter(&mut f, &s).unwrap();
        check_guarantee(&s, &segs, &eps);
        let total: u32 = segs.iter().map(|sg| sg.n_points).sum();
        assert_eq!(total as usize, s.len());
    }

    #[test]
    fn multi_dim_connections_happen_and_hold() {
        // Exercise the d > 1 connection path (shared connection time via
        // the ternary-search surrogate). Perfectly correlated dimensions
        // keep the per-dimension windows aligned, so the 2-D run must
        // reproduce the 1-D connection structure; independent dimensions
        // rarely have intersecting windows (checked by the guarantee
        // tests instead).
        let mut s1 = Signal::new(1);
        let mut s2 = Signal::new(2);
        for j in 0..800 {
            let t = j as f64;
            let a = (t * 0.4).sin() * 5.0;
            s1.push(t, &[a]).unwrap();
            s2.push(t, &[a, a]).unwrap();
        }
        let eps2 = [0.5, 0.5];
        let mut f1 = SlideFilter::new(&[0.5]).unwrap();
        let mut f2 = SlideFilter::new(&eps2).unwrap();
        let segs1 = run_filter(&mut f1, &s1).unwrap();
        let segs2 = run_filter(&mut f2, &s2).unwrap();
        check_guarantee(&s2, &segs2, &eps2);
        let c1 = segs1.iter().filter(|sg| sg.connected).count();
        let c2 = segs2.iter().filter(|sg| sg.connected).count();
        assert!(c1 > 0, "1-D workload must produce connections");
        assert_eq!(segs1.len(), segs2.len(), "identical dims: same segmentation");
        assert_eq!(c1, c2, "identical dims: same connection structure");
        for pair in segs2.windows(2) {
            if pair[1].connected {
                for d in 0..2 {
                    assert!((pair[0].x_end[d] - pair[1].x_start[d]).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn hull_stays_small_on_long_noisy_intervals() {
        // The paper observes m_H stays tiny regardless of interval length
        // (§4.3) — for noisy signals, where the expected hull size of n
        // points is O(log n). (A purely convex signal is the adversarial
        // exception: every point is a hull vertex.)
        let mut seed = 4242u64;
        let mut rnd = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let values: Vec<f64> = (0..5000).map(|_| rnd() * 0.3).collect();
        let signal = Signal::from_values(&values);
        let mut f = SlideFilter::new(&[0.5]).unwrap();
        let _ = run_filter(&mut f, &signal).unwrap();
        let stats = f.hull_stats();
        assert!(stats.max_interval_points > 500, "interval should grow long");
        assert!(
            stats.max_vertices <= 64,
            "hull exploded: {} vertices for intervals of up to {} points",
            stats.max_vertices,
            stats.max_interval_points
        );
    }

    #[test]
    fn max_lag_bounds_pending_points() {
        let values: Vec<f64> = (0..300).map(|i| (i as f64 * 0.05).sin() * 2.0).collect();
        let signal = Signal::from_values(&values);
        let mut f = SlideFilter::builder(&[0.8]).max_lag(10).build().unwrap();
        let mut sink = CollectingSink::default();
        for (t, x) in signal.iter() {
            f.push(t, x, &mut sink).unwrap();
            assert!(f.pending_points() <= 10, "lag {} exceeded bound at t={t}", f.pending_points());
        }
        f.finish(&mut sink).unwrap();
        assert!(!sink.provisionals.is_empty());
        check_guarantee(&signal, &sink.segments, &[0.8]);
    }

    #[test]
    fn single_point_and_empty_streams() {
        let mut f = SlideFilter::new(&[1.0]).unwrap();
        let mut out: Vec<Segment> = Vec::new();
        f.finish(&mut out).unwrap();
        assert!(out.is_empty());
        f.push(0.0, &[2.0], &mut out).unwrap();
        f.finish(&mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].n_points, 1);
    }

    #[test]
    fn two_point_stream_is_one_segment() {
        let signal = Signal::from_pairs(&[(0.0, 1.0), (1.0, 5.0)]);
        let segs = compress(&signal, 0.5);
        assert_eq!(segs.len(), 1);
        check_guarantee(&signal, &segs, &[0.5]);
    }

    #[test]
    fn trailing_violator_is_recorded() {
        let signal = Signal::from_pairs(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 50.0)]);
        let segs = compress(&signal, 0.5);
        check_guarantee(&signal, &segs, &[0.5]);
        assert_eq!(segs.last().unwrap().n_points, 1);
    }

    #[test]
    fn reusable_after_finish() {
        let signal = Signal::from_values(&[0.0, 2.0, -1.0, 3.0, 0.5, 9.0, 9.1]);
        let mut f = SlideFilter::new(&[0.5]).unwrap();
        let a = run_filter(&mut f, &signal).unwrap();
        let b = run_filter(&mut f, &signal).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_invalid_configuration() {
        assert!(SlideFilter::new(&[]).is_err());
        assert!(SlideFilter::new(&[0.0]).is_err());
        assert!(SlideFilter::builder(&[1.0]).max_lag(1).build().is_err());
    }

    #[test]
    fn n_points_total_matches_stream() {
        let values: Vec<f64> = (0..987)
            .map(|i| ((i as f64) * 0.31).sin() * 3.0 + ((i * i % 17) as f64) * 0.05)
            .collect();
        let signal = Signal::from_values(&values);
        let segs = compress(&signal, 0.3);
        let total: u32 = segs.iter().map(|s| s.n_points).sum();
        assert_eq!(total as usize, signal.len());
        check_guarantee(&signal, &segs, &[0.3]);
    }

    #[test]
    fn bounded_true_interval_cases() {
        // Both crossings present, predicate true inside.
        let got = bounded_true_interval(Some(2.0), Some(5.0), |t| t > 2.0 && t < 5.0, 3.0);
        assert_eq!(got, Some((2.0, 5.0)));
        // Crossings present but true-region is outside → rejected.
        let got = bounded_true_interval(Some(2.0), Some(5.0), |t| !(2.0..=5.0).contains(&t), 3.0);
        assert_eq!(got, None);
        // Single crossing, true side below.
        let got = bounded_true_interval(Some(4.0), None, |t| t <= 4.0, 0.0);
        assert_eq!(got, Some((f64::NEG_INFINITY, 4.0)));
        // Single crossing, true side above.
        let got = bounded_true_interval(None, Some(4.0), |t| t >= 4.0, 0.0);
        assert_eq!(got, Some((4.0, f64::INFINITY)));
        // No crossings: predicate constant.
        let got = bounded_true_interval(None, None, |_| true, 7.0);
        assert_eq!(got, Some((f64::NEG_INFINITY, f64::INFINITY)));
        assert_eq!(bounded_true_interval(None, None, |_| false, 7.0), None);
        // Degenerate zero-width interval.
        assert_eq!(bounded_true_interval(Some(3.0), Some(3.0), |_| true, 3.0), None);
    }

    #[test]
    fn sandwich_ok_detects_mid_range_escape() {
        use pla_geom::{Line, Point2};
        // Envelopes crossing inside (t_c, e): a line inside at both ends
        // but outside at the crossing must be rejected.
        let l_env = Line::new(Point2::new(0.0, 0.0), 1.0); // x = t
                                                           // x = 4 − t, crossing the lower envelope at t = 2.
        let u_env = Line::new(Point2::new(0.0, 4.0), -1.0);
        // Constant line at 2.2: at t=0 inside [0,4]; at t=4 inside [4,0];
        // at the crossing t=2 the band is the single value 2.0 → outside.
        let line = Line::new(Point2::new(0.0, 2.2), 0.0);
        assert!(!sandwich_ok(&l_env, &u_env, &line, 0.0, 4.0, 1.0));
        // The exact crossing value passes.
        let line = Line::new(Point2::new(0.0, 2.0), 0.0);
        assert!(sandwich_ok(&l_env, &u_env, &line, 0.0, 4.0, 1.0));
        // Non-crossing envelopes: endpoint checks suffice.
        let l_env = Line::new(Point2::new(0.0, 0.0), 0.0);
        let u_env = Line::new(Point2::new(0.0, 1.0), 0.0);
        let inside = Line::new(Point2::new(0.0, 0.5), 0.0);
        let outside = Line::new(Point2::new(0.0, 1.5), 0.0);
        assert!(sandwich_ok(&l_env, &u_env, &inside, 0.0, 4.0, 1.0));
        assert!(!sandwich_ok(&l_env, &u_env, &outside, 0.0, 4.0, 1.0));
    }

    #[test]
    fn segments_are_time_ordered_and_non_overlapping() {
        let values: Vec<f64> = (0..600).map(|i| ((i as f64) * 0.9).sin() * 4.0).collect();
        let signal = Signal::from_values(&values);
        let segs = compress(&signal, 0.6);
        for pair in segs.windows(2) {
            assert!(
                pair[1].t_start >= pair[0].t_end - 1e-9,
                "overlap: {} then {}",
                pair[0].t_end,
                pair[1].t_start
            );
        }
    }
}
