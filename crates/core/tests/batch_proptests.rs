//! Property: `push_batch` is segment-for-segment identical to the
//! equivalent sequence of `push` calls — for every filter, every signal,
//! and every way of chopping the signal into batches. The ingest layer
//! routes all traffic through `push_batch`, so this identity is what makes
//! its output trustworthy.

use proptest::prelude::*;

use pla_core::filters::{
    CacheFilter, FilterKind, FilterSpec, KalmanFilter, LinearFilter, SlideFilter, StreamFilter,
    SwingFilter,
};
use pla_core::kern::Dispatch;
use pla_core::{CollectingSink, FilterError, Signal};

/// A 1-D signal with walks, plateaus, and jumps (the same family the core
/// guarantee proptests use), plus a batch-split plan.
fn signal_and_splits() -> impl Strategy<Value = (Signal, Vec<usize>)> {
    (prop::collection::vec((-10.0f64..10.0, 0u8..4), 1..250), -100.0f64..100.0, any::<u64>())
        .prop_map(|(steps, start, split_seed)| {
            let mut x = start;
            let mut values = Vec::with_capacity(steps.len());
            for (step, kind) in steps {
                match kind {
                    0 => x += step,
                    1 => {}
                    2 => x += step * 50.0,
                    _ => x += step * 0.01,
                }
                values.push(x);
            }
            let signal = Signal::from_values(&values);
            // Deterministic irregular batch sizes derived from the seed:
            // exercises empty, single-sample, and large batches.
            let mut sizes = Vec::new();
            let mut state = split_seed | 1;
            let mut remaining = signal.len();
            while remaining > 0 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let take = ((state >> 33) as usize % 17).min(remaining);
                sizes.push(take);
                remaining -= take.max(1).min(remaining);
            }
            (signal, sizes)
        })
}

fn run_sequential(spec: &FilterSpec, signal: &Signal) -> CollectingSink {
    let mut f = spec.build().unwrap();
    let mut sink = CollectingSink::default();
    for (t, x) in signal.iter() {
        f.push(t, x, &mut sink).unwrap();
    }
    f.finish(&mut sink).unwrap();
    sink
}

fn run_batched(spec: &FilterSpec, signal: &Signal, sizes: &[usize]) -> CollectingSink {
    let mut f = spec.build().unwrap();
    let mut sink = CollectingSink::default();
    let samples: Vec<(f64, &[f64])> = signal.iter().collect();
    let mut offset = 0;
    for &take in sizes {
        let take = take.min(samples.len() - offset);
        let n = f.push_batch(&samples[offset..offset + take], &mut sink).unwrap();
        assert_eq!(n, take, "successful batch must absorb every sample");
        offset += take;
    }
    if offset < samples.len() {
        f.push_batch(&samples[offset..], &mut sink).unwrap();
    }
    f.finish(&mut sink).unwrap();
    sink
}

fn specs_under_test(eps: f64) -> Vec<FilterSpec> {
    let mut specs: Vec<FilterSpec> =
        FilterKind::OVERHEAD_SET.iter().map(|&k| FilterSpec::new(k, &[eps])).collect();
    // Lag-bounded configurations exercise the freeze paths inside the
    // batch loops.
    specs.push(FilterSpec::new(FilterKind::Swing, &[eps]).with_max_lag(7));
    specs.push(FilterSpec::new(FilterKind::Slide, &[eps]).with_max_lag(7));
    specs
}

fn run_dyn(f: &mut dyn StreamFilter, signal: &Signal) -> CollectingSink {
    let mut sink = CollectingSink::default();
    for (t, x) in signal.iter() {
        f.push(t, x, &mut sink).unwrap();
    }
    f.finish(&mut sink).unwrap();
    sink
}

// ----- kernel-dispatch byte-identity ---------------------------------------

/// A `dims`-dimensional signal from the same walk/plateau/jump family as
/// [`signal_and_splits`], with independent per-dimension steps.
fn multi_signal(dims: usize) -> impl Strategy<Value = Signal> {
    (
        prop::collection::vec((prop::collection::vec(-10.0f64..10.0, dims), 0u8..4), 1..200),
        prop::collection::vec(-100.0f64..100.0, dims),
    )
        .prop_map(move |(steps, start)| {
            let mut x = start;
            let mut signal = Signal::new(dims);
            for (j, (step, kind)) in steps.into_iter().enumerate() {
                for d in 0..dims {
                    match kind {
                        0 => x[d] += step[d],
                        1 => {}
                        2 => x[d] += step[d] * 50.0,
                        _ => x[d] += step[d] * 0.01,
                    }
                }
                signal.push(j as f64, &x).unwrap();
            }
            signal
        })
}

fn dims_and_signal() -> impl Strategy<Value = (usize, Signal)> {
    (0usize..4).prop_map(|i| [2usize, 3, 4, 8][i]).prop_flat_map(|d| (Just(d), multi_signal(d)))
}

/// The dispatch modes whose outputs must coincide. `Lanes` at `d = 8`
/// is invalid and is snapped to the automatic choice by the builders, so
/// every entry is always runnable.
fn dispatch_set() -> Vec<Dispatch> {
    vec![Dispatch::Generic, Dispatch::Lanes]
}

/// All five kernel-wired filter families (plus the lag-bounded swing and
/// slide configurations, which exercise the provisional-update paths),
/// each pinned to `disp`.
fn kernel_filters(eps: &[f64], disp: Dispatch) -> Vec<(&'static str, Box<dyn StreamFilter>)> {
    vec![
        ("cache", Box::new(CacheFilter::new(eps).unwrap().force_dispatch(disp))),
        ("linear", Box::new(LinearFilter::new(eps).unwrap().force_dispatch(disp))),
        ("kalman", Box::new(KalmanFilter::new(eps).unwrap().force_dispatch(disp))),
        ("swing", Box::new(SwingFilter::builder(eps).force_dispatch(disp).build().unwrap())),
        ("slide", Box::new(SlideFilter::builder(eps).force_dispatch(disp).build().unwrap())),
        (
            "swing-lag",
            Box::new(SwingFilter::builder(eps).max_lag(7).force_dispatch(disp).build().unwrap()),
        ),
        (
            "slide-lag",
            Box::new(SlideFilter::builder(eps).max_lag(7).force_dispatch(disp).build().unwrap()),
        ),
    ]
}

/// The output streams as raw bit patterns: value equality is not enough
/// for the kernel contract (it would let `-0.0` vs `0.0` slip through),
/// so every f64 is compared through `to_bits`.
fn bits_of(sink: &CollectingSink) -> (Vec<u64>, Vec<u64>) {
    let mut segs = Vec::new();
    for s in &sink.segments {
        segs.push(s.t_start.to_bits());
        segs.extend(s.x_start.iter().map(|v| v.to_bits()));
        segs.push(s.t_end.to_bits());
        segs.extend(s.x_end.iter().map(|v| v.to_bits()));
        segs.push(u64::from(s.connected));
        segs.push(u64::from(s.n_points));
        segs.push(u64::from(s.new_recordings));
    }
    let mut provs = Vec::new();
    for p in &sink.provisionals {
        provs.push(p.t_anchor.to_bits());
        provs.extend(p.x_anchor.iter().map(|v| v.to_bits()));
        provs.extend(p.slopes.iter().map(|v| v.to_bits()));
        provs.push(p.covers_through.to_bits());
    }
    (segs, provs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn push_batch_matches_push_sequence((signal, sizes) in signal_and_splits(), eps in 0.05f64..20.0) {
        for spec in specs_under_test(eps) {
            let sequential = run_sequential(&spec, &signal);
            let batched = run_batched(&spec, &signal, &sizes);
            prop_assert_eq!(
                &sequential.segments, &batched.segments,
                "{:?}: segment streams diverged", spec.kind
            );
            prop_assert_eq!(
                &sequential.provisionals, &batched.provisionals,
                "{:?}: provisional streams diverged", spec.kind
            );
        }
    }

    #[test]
    fn one_whole_batch_matches_push_sequence((signal, _) in signal_and_splits(), eps in 0.05f64..20.0) {
        let samples: Vec<(f64, &[f64])> = signal.iter().collect();
        for spec in specs_under_test(eps) {
            let sequential = run_sequential(&spec, &signal);
            let mut f = spec.build().unwrap();
            let mut sink = CollectingSink::default();
            f.push_batch(&samples, &mut sink).unwrap();
            f.finish(&mut sink).unwrap();
            prop_assert_eq!(&sequential.segments, &sink.segments, "{:?}", spec.kind);
        }
    }

    /// PR-3 pin: the `d == 1` scalar fast path (dispatched once at
    /// construction) is byte-identical to the generic per-dimension path
    /// — same `Segment`s, same `ProvisionalUpdate`s, for plain and
    /// lag-bounded configurations.
    #[test]
    fn scalar_fast_path_is_byte_identical((signal, _) in signal_and_splits(), eps in 0.05f64..20.0) {
        for max_lag in [None, Some(7usize)] {
            let mut swing_fast = {
                let mut b = SwingFilter::builder(&[eps]);
                if let Some(m) = max_lag { b = b.max_lag(m); }
                b.build().unwrap()
            };
            let mut swing_generic = {
                let mut b = SwingFilter::builder(&[eps]).force_dispatch(Dispatch::Generic);
                if let Some(m) = max_lag { b = b.max_lag(m); }
                b.build().unwrap()
            };
            let fast = run_dyn(&mut swing_fast, &signal);
            let generic = run_dyn(&mut swing_generic, &signal);
            prop_assert_eq!(&fast.segments, &generic.segments, "swing lag={:?}", max_lag);
            prop_assert_eq!(&fast.provisionals, &generic.provisionals, "swing lag={:?}", max_lag);

            let mut slide_fast = {
                let mut b = SlideFilter::builder(&[eps]);
                if let Some(m) = max_lag { b = b.max_lag(m); }
                b.build().unwrap()
            };
            let mut slide_generic = {
                let mut b = SlideFilter::builder(&[eps]).force_dispatch(Dispatch::Generic);
                if let Some(m) = max_lag { b = b.max_lag(m); }
                b.build().unwrap()
            };
            let fast = run_dyn(&mut slide_fast, &signal);
            let generic = run_dyn(&mut slide_generic, &signal);
            prop_assert_eq!(&fast.segments, &generic.segments, "slide lag={:?}", max_lag);
            prop_assert_eq!(&fast.provisionals, &generic.provisionals, "slide lag={:?}", max_lag);
        }
    }

    /// PR-3 pin: the recycled scratch buffers (hulls, raw points,
    /// regression sums) carry no state across `finish` — a warm filter
    /// re-compressing a stream emits byte-identical output to a freshly
    /// built one.
    #[test]
    fn recycled_scratch_is_byte_identical((signal, _) in signal_and_splits(), eps in 0.05f64..20.0) {
        for spec in specs_under_test(eps) {
            let mut warm = spec.build().unwrap();
            let first = run_dyn(warm.as_mut(), &signal);
            let second = run_dyn(warm.as_mut(), &signal);
            let fresh = run_dyn(spec.build().unwrap().as_mut(), &signal);
            prop_assert_eq!(&first.segments, &second.segments, "{:?}: warm rerun diverged", spec.kind);
            prop_assert_eq!(&second.segments, &fresh.segments, "{:?}: warm vs fresh diverged", spec.kind);
            prop_assert_eq!(&first.provisionals, &second.provisionals, "{:?}", spec.kind);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel-layer pin: both dispatch modes — the generic per-dimension
    /// loop and the fixed-width lane kernels — produce **bit-identical**
    /// `Segment` and `ProvisionalUpdate` streams for all five filters at
    /// d ∈ {2, 3, 4, 8}.
    #[test]
    fn kernel_dispatches_are_bit_identical(
        (dims, signal) in dims_and_signal(),
        eps in 0.05f64..20.0,
    ) {
        type NamedBits = (&'static str, (Vec<u64>, Vec<u64>));
        let epsv = vec![eps; dims];
        let dispatches = dispatch_set();
        let reference: Vec<NamedBits> = kernel_filters(&epsv, dispatches[0])
            .into_iter()
            .map(|(name, mut f)| (name, bits_of(&run_dyn(f.as_mut(), &signal))))
            .collect();
        for &disp in &dispatches[1..] {
            for ((name, want), (_, mut f)) in reference.iter().zip(kernel_filters(&epsv, disp)) {
                let got = bits_of(&run_dyn(f.as_mut(), &signal));
                prop_assert_eq!(
                    want, &got,
                    "{} at d={}: {:?} diverged from {:?}", name, dims, disp, dispatches[0]
                );
            }
        }
    }
}

/// NaN and ±inf inputs surface the same typed [`FilterError`] under
/// every dispatch mode (validation runs before any kernel touches the
/// data), and the filter stays usable afterwards.
#[test]
fn non_finite_inputs_error_identically_under_every_dispatch() {
    for dims in [1usize, 2, 3, 4, 8] {
        let eps = vec![0.5; dims];
        let good = vec![1.0; dims];
        for disp in dispatch_set() {
            for (name, mut f) in kernel_filters(&eps, disp) {
                let mut sink = CollectingSink::default();
                f.push(0.0, &good, &mut sink).unwrap();
                let bad_dim = dims - 1;
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut x = good.clone();
                    x[bad_dim] = bad;
                    let err = f.push(1.0, &x, &mut sink).unwrap_err();
                    assert!(
                        matches!(err, FilterError::NonFiniteValue { dim, .. } if dim == bad_dim),
                        "{name} d={dims} {disp:?}: got {err:?} for value {bad}"
                    );
                }
                let err = f.push(f64::NAN, &good, &mut sink).unwrap_err();
                assert!(
                    matches!(err, FilterError::NonFiniteTime { .. }),
                    "{name} d={dims} {disp:?}: got {err:?} for NaN time"
                );
                // The rejected samples must not have corrupted the state.
                f.push(1.0, &good, &mut sink).unwrap();
                f.finish(&mut sink).unwrap();
            }
        }
    }
}

#[test]
fn batch_error_leaves_the_valid_prefix_absorbed() {
    // A batch with a time regression at index 2: the first two samples
    // must land, the error must surface, and the filter must keep working
    // exactly as if the bad sample had been pushed individually.
    for kind in FilterKind::OVERHEAD_SET {
        let mut batched = kind.build(&[0.5]).unwrap();
        let mut sequential = kind.build(&[0.5]).unwrap();
        let mut bsink = CollectingSink::default();
        let mut ssink = CollectingSink::default();

        let samples: [(f64, &[f64]); 4] =
            [(0.0, &[1.0]), (1.0, &[2.0]), (0.5, &[3.0]), (2.0, &[4.0])];
        let err = batched.push_batch(&samples, &mut bsink).unwrap_err();
        assert_eq!(err.absorbed, 2, "{}", kind.label());
        assert!(matches!(err.error, FilterError::NonMonotonicTime { .. }), "{}", kind.label());

        for &(t, x) in &samples {
            let _ = sequential.push(t, x, &mut ssink);
        }
        // Note: sequential pushed (2.0, 4.0) after the rejected sample;
        // replay it on the batched filter to align the streams.
        batched.push(2.0, &[4.0], &mut bsink).unwrap();
        batched.finish(&mut bsink).unwrap();
        sequential.finish(&mut ssink).unwrap();
        assert_eq!(bsink.segments, ssink.segments, "{}", kind.label());
    }
}

#[test]
fn empty_batch_is_a_no_op() {
    for kind in FilterKind::OVERHEAD_SET {
        let mut f = kind.build(&[0.5]).unwrap();
        let mut sink = CollectingSink::default();
        assert_eq!(f.push_batch(&[], &mut sink), Ok(0), "{}", kind.label());
        assert!(sink.segments.is_empty());
    }
}
