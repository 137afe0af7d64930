//! Property: `push_batch` is segment-for-segment identical to the
//! equivalent sequence of `push` calls — for every filter, every signal,
//! and every way of chopping the signal into batches. The ingest layer
//! routes all traffic through `push_batch`, so this identity is what makes
//! its output trustworthy.

use proptest::prelude::*;

use pla_core::filters::{
    CacheFilter, CacheVariant, FilterKind, FilterSpec, KalmanFilter, LinearFilter, StreamFilter,
    SwingFilter,
};
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
            let sizes = split_plan(signal.len(), split_seed);
            (signal, sizes)
        })
}

/// Deterministic irregular batch sizes for `len` samples derived from
/// the seed: exercises empty, single-sample, and large batches.
fn split_plan(len: usize, seed: u64) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut state = seed | 1;
    let mut remaining = len;
    while remaining > 0 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let take = ((state >> 33) as usize % 17).min(remaining);
        sizes.push(take);
        remaining -= take.max(1).min(remaining);
    }
    sizes
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

// ----- multi-dimensional pins ---------------------------------------------

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

/// One lane, a partial chunk, a full chunk, a full chunk plus one lane,
/// and two full chunks.
fn dims_and_signal() -> impl Strategy<Value = (usize, Signal)> {
    (0usize..6)
        .prop_map(|i| [1usize, 2, 3, 4, 5, 8][i])
        .prop_flat_map(|d| (Just(d), multi_signal(d)))
}

/// Filters whose dimensions are independent: each output dimension
/// depends only on the same input dimension and its ε, and the fits
/// tests are order-free conjunctions. The slide filter is left out: at
/// d > 1 it picks one connection time for all dimensions by minimizing
/// a sum over them, and floating-point addition follows dimension order,
/// so a permutation may move the last bits of a connected segment.
fn separable_filters(eps: &[f64]) -> Vec<(&'static str, Box<dyn StreamFilter>)> {
    vec![
        ("cache", Box::new(CacheFilter::new(eps).unwrap())),
        (
            "cache-midrange",
            Box::new(CacheFilter::with_variant(eps, CacheVariant::Midrange).unwrap()),
        ),
        ("cache-mean", Box::new(CacheFilter::with_variant(eps, CacheVariant::Mean).unwrap())),
        ("linear", Box::new(LinearFilter::new(eps).unwrap())),
        ("kalman", Box::new(KalmanFilter::new(eps).unwrap())),
        ("swing", Box::new(SwingFilter::new(eps).unwrap())),
        ("swing-lag", Box::new(SwingFilter::builder(eps).max_lag(7).build().unwrap())),
    ]
}

/// A seeded Fisher–Yates permutation of `0..d`.
fn permutation(d: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..d).collect();
    let mut state = seed | 1;
    for i in (1..d).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        p.swap(i, (state >> 33) as usize % (i + 1));
    }
    p
}

/// `v` with its dimensions reordered: output dimension `i` is `v[p[i]]`.
fn permute(v: &[f64], p: &[usize]) -> Vec<f64> {
    p.iter().map(|&j| v[j]).collect()
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

    /// `push_batch` is bit-identical to `push` at d ∈ {1, 2, 3, 4, 5, 8},
    /// for every filter family including the lag-bounded ones.
    #[test]
    fn push_batch_matches_push_sequence_multi_dim(
        (dims, signal) in dims_and_signal(),
        eps in 0.05f64..20.0,
        split_seed in any::<u64>(),
    ) {
        let epsv: Vec<f64> = (0..dims).map(|i| eps * (1.0 + 0.3 * i as f64)).collect();
        let mut specs: Vec<FilterSpec> =
            FilterKind::OVERHEAD_SET.iter().map(|&k| FilterSpec::new(k, &epsv)).collect();
        specs.push(FilterSpec::new(FilterKind::Swing, &epsv).with_max_lag(7));
        specs.push(FilterSpec::new(FilterKind::Slide, &epsv).with_max_lag(7));
        let sizes = split_plan(signal.len(), split_seed);
        for spec in specs {
            let sequential = run_sequential(&spec, &signal);
            let batched = run_batched(&spec, &signal, &sizes);
            prop_assert_eq!(bits_of(&sequential), bits_of(&batched), "{:?} at d={}", spec.kind, dims);
        }
    }

    /// Permuting the input's dimensions (and their ε) permutes every
    /// output field bit-for-bit and leaves the rest unchanged. With one
    /// kernel path left, this is what catches a chunk offset or a
    /// padding lane leaking into a live one on random inputs.
    #[test]
    fn dimension_permutation_permutes_output(
        (dims, signal) in dims_and_signal(),
        eps in 0.05f64..20.0,
        perm_seed in any::<u64>(),
    ) {
        let p = permutation(dims, perm_seed);
        let epsv: Vec<f64> = (0..dims).map(|i| eps * (1.0 + 0.3 * i as f64)).collect();
        let mut permuted = Signal::new(dims);
        for (t, x) in signal.iter() {
            permuted.push(t, &permute(x, &p)).unwrap();
        }
        let filters = separable_filters(&epsv).into_iter().zip(separable_filters(&permute(&epsv, &p)));
        for ((name, mut f), (_, mut g)) in filters {
            let mut want = run_dyn(f.as_mut(), &signal);
            for s in &mut want.segments {
                s.x_start = permute(&s.x_start, &p).into();
                s.x_end = permute(&s.x_end, &p).into();
            }
            for u in &mut want.provisionals {
                u.x_anchor = permute(&u.x_anchor, &p).into();
                u.slopes = permute(&u.slopes, &p).into();
            }
            let got = run_dyn(g.as_mut(), &permuted);
            prop_assert_eq!(bits_of(&want), bits_of(&got), "{} at d={} under {:?}", name, dims, p);
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
