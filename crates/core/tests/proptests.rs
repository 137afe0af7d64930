//! Property-based tests of the paper's headline guarantees.
//!
//! P1 (Theorems 3.1 / 4.1): for *every* filter and *every* input stream,
//! every original sample lies within `εᵢ` of the reconstructed
//! approximation in every dimension. The remaining properties pin down
//! structural invariants of the segment stream (coverage, ordering,
//! accounting) that the compression-ratio metric and the transport layer
//! rely on.

use proptest::prelude::*;

use pla_core::filters::{
    run_filter, CacheFilter, CacheVariant, HullMode, LinearFilter, LinearMode, SlideFilter,
    StreamFilter, SwingFilter,
};
use pla_core::{GapPolicy, Polyline, Segment, Signal};

/// Strategy: a 1-D signal built from bounded random steps (random-walk
/// like, the paper's §5.3 workload family), plus occasional plateaus and
/// jumps to hit the filters' edge paths.
fn signal_1d() -> impl Strategy<Value = Signal> {
    (2usize..200, prop::collection::vec((-10.0f64..10.0, 0u8..4), 1..200), -1000.0f64..1000.0)
        .prop_map(|(_, steps, start)| {
            let mut x = start;
            let mut values = Vec::with_capacity(steps.len());
            for (step, kind) in steps {
                match kind {
                    0 => x += step,        // walk
                    1 => {}                // plateau
                    2 => x += step * 50.0, // jump
                    _ => x += step * 0.01, // micro-noise
                }
                values.push(x);
            }
            Signal::from_values(&values)
        })
}

/// Strategy: a d-dimensional signal (d ∈ 1..=9: one to three lane
/// chunks) with independent walks.
fn signal_nd() -> impl Strategy<Value = Signal> {
    (1usize..=9, 2usize..120, any::<u64>()).prop_map(|(d, n, seed)| {
        let mut s = Signal::new(d);
        let mut state = seed | 1;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut vals = vec![0.0f64; d];
        let mut t = 0.0;
        for _ in 0..n {
            t += 0.5 + rnd().abs() * 3.0; // irregular spacing
            for v in vals.iter_mut() {
                *v += rnd() * 2.0;
            }
            s.push(t, &vals).expect("generated signal is valid");
        }
        s
    })
}

fn all_filters(eps: &[f64]) -> Vec<Box<dyn StreamFilter>> {
    vec![
        Box::new(CacheFilter::with_variant(eps, CacheVariant::FirstValue).unwrap()),
        Box::new(CacheFilter::with_variant(eps, CacheVariant::Midrange).unwrap()),
        Box::new(CacheFilter::with_variant(eps, CacheVariant::Mean).unwrap()),
        Box::new(LinearFilter::with_mode(eps, LinearMode::Connected).unwrap()),
        Box::new(LinearFilter::with_mode(eps, LinearMode::Disconnected).unwrap()),
        Box::new(SwingFilter::new(eps).unwrap()),
        Box::new(SlideFilter::new(eps).unwrap()),
        Box::new(SlideFilter::builder(eps).hull_mode(HullMode::Exhaustive).build().unwrap()),
    ]
}

/// Checks P1 plus the structural invariants for one filter run.
fn check_all_invariants(
    name: &str,
    signal: &Signal,
    segs: &[Segment],
    eps: &[f64],
) -> proptest::test_runner::TestCaseResult {
    // Segments are time-ordered and non-overlapping.
    for pair in segs.windows(2) {
        prop_assert!(pair[1].t_start >= pair[0].t_end - 1e-9, "{name}: segments overlap");
        if pair[1].connected {
            prop_assert!(
                (pair[1].t_start - pair[0].t_end).abs() < 1e-9,
                "{name}: connected segment does not touch predecessor"
            );
            for d in 0..signal.dims() {
                prop_assert!(
                    (pair[1].x_start[d] - pair[0].x_end[d]).abs() < 1e-9,
                    "{name}: connected segment value mismatch"
                );
            }
        }
    }
    // Recording accounting: connected ⇒ 1; disconnected line ⇒ 2 (cache &
    // degenerate points ⇒ 1).
    for s in segs {
        if s.connected {
            prop_assert_eq!(s.new_recordings, 1, "{}: connected segment recordings", name);
        } else {
            prop_assert!(
                s.new_recordings == 1 || s.new_recordings == 2,
                "{name}: recordings out of range"
            );
        }
    }
    // Point totals match the stream.
    let total: u64 = segs.iter().map(|s| s.n_points as u64).sum();
    prop_assert_eq!(total as usize, signal.len(), "{}: n_points total", name);

    // P1: the precision guarantee, via the reconstruction.
    let poly = Polyline::new(segs.to_vec());
    for (t, x) in signal.iter() {
        for d in 0..signal.dims() {
            let approx = poly.eval(t, d, GapPolicy::Strict);
            prop_assert!(approx.is_some(), "{name}: sample at t={t} not covered by any segment");
            let err = (approx.unwrap() - x[d]).abs();
            prop_assert!(
                err <= eps[d] * (1.0 + 1e-6) + 1e-12,
                "{name}: dim {d} error {err} exceeds ε={} at t={t}",
                eps[d]
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// P1 + structure, 1-D streams, every filter, ε sweep.
    #[test]
    fn guarantee_holds_for_every_filter_1d(signal in signal_1d(), eps in 0.01f64..20.0) {
        let eps = [eps];
        for mut f in all_filters(&eps) {
            let segs = run_filter(f.as_mut(), &signal).unwrap();
            check_all_invariants(f.name(), &signal, &segs, &eps)?;
        }
    }

    /// P1 + structure, multi-dimensional streams with distinct ε per dim.
    #[test]
    fn guarantee_holds_for_every_filter_nd(signal in signal_nd(), base in 0.05f64..5.0) {
        let eps: Vec<f64> = (0..signal.dims()).map(|d| base * (1.0 + d as f64)).collect();
        for mut f in all_filters(&eps) {
            let segs = run_filter(f.as_mut(), &signal).unwrap();
            check_all_invariants(f.name(), &signal, &segs, &eps)?;
        }
    }

    /// P4: lag-bounded filters never let pending points exceed the bound,
    /// and the guarantee survives freezing.
    #[test]
    fn lag_bound_is_respected(signal in signal_1d(), eps in 0.1f64..10.0, m in 2usize..20) {
        let filters: Vec<Box<dyn StreamFilter>> = vec![
            Box::new(SwingFilter::builder(&[eps]).max_lag(m).build().unwrap()),
            Box::new(SlideFilter::builder(&[eps]).max_lag(m).build().unwrap()),
        ];
        for mut f in filters {
            let mut sink: Vec<Segment> = Vec::new();
            for (t, x) in signal.iter() {
                f.push(t, x, &mut sink).unwrap();
                prop_assert!(
                    f.pending_points() <= m,
                    "{}: pending {} exceeds m_max_lag {m}",
                    f.name(),
                    f.pending_points()
                );
            }
            f.finish(&mut sink).unwrap();
            check_all_invariants(f.name(), &signal, &sink, &[eps])?;
        }
    }

    /// Determinism / reusability: running the same filter twice over the
    /// same stream yields identical output.
    #[test]
    fn filters_are_deterministic_and_reusable(signal in signal_1d(), eps in 0.05f64..5.0) {
        for mut f in all_filters(&[eps]) {
            let a = run_filter(f.as_mut(), &signal).unwrap();
            let b = run_filter(f.as_mut(), &signal).unwrap();
            prop_assert_eq!(a, b, "{} not deterministic", f.name());
        }
    }

    /// The slide filter's hull optimization is behaviour-preserving
    /// (Lemma 4.3): optimized and exhaustive modes segment identically.
    #[test]
    fn hull_optimization_is_behaviour_preserving(signal in signal_1d(), eps in 0.05f64..5.0) {
        let mut opt = SlideFilter::builder(&[eps]).build().unwrap();
        let mut exh = SlideFilter::builder(&[eps]).hull_mode(HullMode::Exhaustive).build().unwrap();
        let a = run_filter(&mut opt, &signal).unwrap();
        let b = run_filter(&mut exh, &signal).unwrap();
        prop_assert_eq!(a.len(), b.len());
        for (sa, sb) in a.iter().zip(b.iter()) {
            prop_assert!((sa.t_start - sb.t_start).abs() < 1e-9);
            prop_assert!((sa.t_end - sb.t_end).abs() < 1e-9);
            prop_assert_eq!(sa.connected, sb.connected);
            prop_assert_eq!(sa.new_recordings, sb.new_recordings);
        }
    }

    /// Compression dominance sanity (paper §5 headline): swing and slide
    /// never need more recordings than the corresponding count of input
    /// points, and the slide filter's recordings never exceed
    /// 2 · (swing's segments + 1) — a loose structural bound that catches
    /// gross regressions without over-fitting to workloads.
    #[test]
    fn recording_counts_are_sane(signal in signal_1d(), eps in 0.05f64..5.0) {
        let mut swing = SwingFilter::new(&[eps]).unwrap();
        let mut slide = SlideFilter::new(&[eps]).unwrap();
        let sw = run_filter(&mut swing, &signal).unwrap();
        let sl = run_filter(&mut slide, &signal).unwrap();
        let swing_recs: u64 = sw.iter().map(|s| s.new_recordings as u64).sum();
        let slide_recs: u64 = sl.iter().map(|s| s.new_recordings as u64).sum();
        prop_assert!(swing_recs <= signal.len() as u64 + 1);
        prop_assert!(slide_recs <= 2 * (sw.len() as u64 + 1));
    }
}
