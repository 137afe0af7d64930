//! Golden pin of every filter's exact output.
//!
//! Each filter configuration compresses seeded in-test walks at
//! d ∈ {1, 2, 3, 4, 5, 8, 9} and two ε scales; every `Segment` and
//! `ProvisionalUpdate` field is folded, f64s through `to_bits`, into one
//! FNV-1a digest per (filter, d, ε). The expected digests were captured
//! before the per-dimension kernels were unified into one chunked lane
//! path, so any change to the arithmetic a filter performs (operand
//! order, a fused multiply-add, a padding lane leaking into a live one, a
//! chunk offset off by one) shows up here as a digest mismatch.
//!
//! The dimension set covers one partial chunk (d < 4), one full chunk
//! (d = 4), a full chunk plus a one-lane partial (d = 5), two full chunks
//! (d = 8) and three chunks (d = 9). Per-dimension ε values differ, so a
//! lane that reads its neighbour's ε changes the output.
//!
//! If a change *intends* to alter filter output, the failure message
//! prints the complete replacement table.

use pla_core::filters::{
    CacheFilter, CacheVariant, KalmanFilter, LinearFilter, LinearMode, SlideFilter, StreamFilter,
    SwingFilter,
};
use pla_core::{CollectingSink, FilterError, Signal};

const DIMS: [usize; 7] = [1, 2, 3, 4, 5, 8, 9];
const EPS_SCALES: [f64; 2] = [0.4, 3.0];
const SAMPLES: usize = 600;

/// Seeded LCG (Knuth's MMIX constants), uniform in [-1, 1).
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }
}

/// A `d`-dimensional walk with irregular time steps and, per step, one of
/// four moves shared by all dimensions: walk, plateau, jump or
/// micro-noise. Only `+`, `*` and comparisons, so the walk itself is the
/// same bits on every IEEE-754 target.
fn walk(d: usize, seed: u64) -> Signal {
    let mut rng = Lcg(seed ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut x: Vec<f64> = (0..d).map(|_| rng.unit() * 50.0).collect();
    let mut t = 0.0;
    let mut s = Signal::new(d);
    for _ in 0..SAMPLES {
        t += 0.25 + rng.unit().abs() * 2.0;
        let kind = rng.unit();
        for v in x.iter_mut() {
            let step = rng.unit();
            *v += if kind < -0.5 {
                step * 2.0
            } else if kind < 0.0 {
                0.0
            } else if kind < 0.1 {
                step * 40.0
            } else {
                step * 0.05
            };
        }
        s.push(t, &x).expect("generated walk is valid");
    }
    s
}

/// Per-dimension ε: the scale times a factor cycling through
/// 0.5, 0.75, 1.0, 1.25, 1.5.
fn epsilons(d: usize, scale: f64) -> Vec<f64> {
    (0..d).map(|i| scale * (0.5 + 0.25 * (i % 5) as f64)).collect()
}

/// Every filter configuration under pin. Lag-bounded swing and slide
/// exercise the provisional-update (freeze) paths.
fn filters(eps: &[f64]) -> Vec<(&'static str, Box<dyn StreamFilter>)> {
    vec![
        ("cache", Box::new(CacheFilter::new(eps).unwrap())),
        (
            "cache-midrange",
            Box::new(CacheFilter::with_variant(eps, CacheVariant::Midrange).unwrap()),
        ),
        ("cache-mean", Box::new(CacheFilter::with_variant(eps, CacheVariant::Mean).unwrap())),
        ("linear", Box::new(LinearFilter::new(eps).unwrap())),
        (
            "linear-disconnected",
            Box::new(LinearFilter::with_mode(eps, LinearMode::Disconnected).unwrap()),
        ),
        ("kalman", Box::new(KalmanFilter::new(eps).unwrap())),
        ("swing", Box::new(SwingFilter::new(eps).unwrap())),
        ("swing-lag", Box::new(SwingFilter::builder(eps).max_lag(7).build().unwrap())),
        ("slide", Box::new(SlideFilter::new(eps).unwrap())),
        ("slide-lag", Box::new(SlideFilter::builder(eps).max_lag(7).build().unwrap())),
    ]
}

/// FNV-1a over 64-bit words, fed byte by byte (little-endian).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Digest of every field of every emitted segment and provisional update,
/// in emission order.
fn digest(sink: &CollectingSink) -> u64 {
    let mut h = Fnv::new();
    h.word(sink.segments.len() as u64);
    for s in &sink.segments {
        h.word(s.t_start.to_bits());
        h.f64s(&s.x_start);
        h.word(s.t_end.to_bits());
        h.f64s(&s.x_end);
        h.word(u64::from(s.connected));
        h.word(u64::from(s.n_points));
        h.word(u64::from(s.new_recordings));
    }
    h.word(sink.provisionals.len() as u64);
    for p in &sink.provisionals {
        h.word(p.t_anchor.to_bits());
        h.f64s(&p.x_anchor);
        h.f64s(&p.slopes);
        h.word(p.covers_through.to_bits());
    }
    h.0
}

fn run_push(f: &mut dyn StreamFilter, signal: &Signal) -> CollectingSink {
    let mut sink = CollectingSink::default();
    for (t, x) in signal.iter() {
        f.push(t, x, &mut sink).unwrap();
    }
    f.finish(&mut sink).unwrap();
    sink
}

/// The same stream through `push_batch` in irregular batches of 1–13.
fn run_batched(f: &mut dyn StreamFilter, signal: &Signal) -> CollectingSink {
    let samples: Vec<(f64, &[f64])> = signal.iter().collect();
    let mut sink = CollectingSink::default();
    let (mut at, mut k) = (0, 0);
    while at < samples.len() {
        let take = (1 + (k * 7) % 13).min(samples.len() - at);
        assert_eq!(f.push_batch(&samples[at..at + take], &mut sink).unwrap(), take);
        at += take;
        k += 1;
    }
    f.finish(&mut sink).unwrap();
    sink
}

/// Expected digests, one row per filter, columns in `DIMS` × `EPS_SCALES`
/// order (d = 1 at ε scale 0.4, d = 1 at 3.0, d = 2 at 0.4, …).
const GOLDEN: &[(&str, [u64; 14])] = &[
    (
        "cache",
        [
            0x98ddda3dd2a21708,
            0xcd18089bde5a327d,
            0xf5f83db7a75c9f8b,
            0x9092fcb40801e1d6,
            0x35eb89c57b36607d,
            0x1b4b7d43b90065cf,
            0x72d4b2435f4b25eb,
            0xfb0d33ffaac47f12,
            0x7838778c538da9bf,
            0x09789545112694d9,
            0xdf1f36a04ea7d414,
            0xcd56d75f046f00c2,
            0x620815c4eebf37f1,
            0x1015e32be9cc95ee,
        ],
    ),
    (
        "cache-midrange",
        [
            0x9cde1f5f0b385070,
            0x38fb511abddc4c2b,
            0x8a48cb53e33ffc34,
            0xc8279eeedc0fefda,
            0xd9e4062c18fe923b,
            0xeced6efe5448b32d,
            0x9ae41cc0aff265ab,
            0xde48b9f17482b514,
            0xc4025cbf3eee4bd1,
            0x9e864e4ba46c559f,
            0x755efba63855d8dc,
            0x100e9e63633ac5c3,
            0x95c6b1997c08ee89,
            0x3462a314e6f59c7e,
        ],
    ),
    (
        "cache-mean",
        [
            0x6bc8d74046b6fcf8,
            0xead9d592c9b13b37,
            0xca976dd7800826bc,
            0x4abdf524afc09ba6,
            0xdc4696a4632c209f,
            0xc363a8c3a77a0795,
            0x2edd54050f3f66ef,
            0x1b5e1edf6b6b1940,
            0x8373f77c98daa23d,
            0xb15f68ed92e7db17,
            0x4911c3a5163a180c,
            0x3e569b1157ce383b,
            0x82e3b3075620b419,
            0xf9a54ff41435b262,
        ],
    ),
    (
        "linear",
        [
            0xc7d8c9e24beac420,
            0xef208d76880c347b,
            0xd0dddd8b83052070,
            0xbca9df28d3e87d51,
            0x2d71436b1227a032,
            0xf28bda501f3c6ad5,
            0xd339a0c10c12d885,
            0xd8bb175192afa2a5,
            0x9e03879d405f151f,
            0x7d19d17bebf1eef2,
            0x24181941a1632ab8,
            0x6d59e1dbd9e9f967,
            0x5d3fe5d41afcdb54,
            0x17cca6a1060eeaf9,
        ],
    ),
    (
        "linear-disconnected",
        [
            0x53a1ac9df2b0c8e7,
            0x3798fb775e1b95f0,
            0x833b4eac6159226b,
            0xa8a7020100d4c0ec,
            0x87f1cc9e6f2d7567,
            0x44a65104e658f430,
            0x5d18bd00e3ad5691,
            0xc852b24ac3b73475,
            0xf3c82baf16a6dc46,
            0x5e338efce9fd441b,
            0x88c6f97b8930f20b,
            0x10f9980b45b63f23,
            0x0ea0837368edcde0,
            0x1148c7448c35a8c0,
        ],
    ),
    (
        "kalman",
        [
            0x19e10b7d3ee5f530,
            0x350f4d2b21a4f817,
            0xcaf54484c9b3a65f,
            0x30e7e2578af8864c,
            0x2b9ab36b022d540f,
            0x7efdeba5594358dc,
            0x96aef23b3f32d4a7,
            0x12d9ec969d7bd589,
            0x9ce876f5d74a222e,
            0x51e2021d4c4f88ad,
            0x8eaf4a4e12591fff,
            0xa942f1780189780e,
            0xb5c438d681712240,
            0xb6d9747f50452bab,
        ],
    ),
    (
        "swing",
        [
            0x575fa84c091a3f12,
            0x7ce4cac7b4e36ea4,
            0xfb206f021cb7f791,
            0x610fc799aca815a4,
            0x493511f98c8c8b0d,
            0x26e08f16ba265690,
            0x4b349e783ccc3dc5,
            0xb0649dc5b076a59a,
            0x797c8fc0dfb22cc1,
            0xdad34552f18f1ab0,
            0x6b2652b9a9add5bc,
            0xb00ec70b1ed6fe8e,
            0x0c4f7383ee1cc7de,
            0x401755d6e4dd1a64,
        ],
    ),
    (
        "swing-lag",
        [
            0xbc3f05a1a9e73143,
            0x216fa7b6be55efb3,
            0xa49a40bd24a127f2,
            0x0b4f68295aaf5aa2,
            0x67635262f019c12a,
            0xb570ae327b136445,
            0x57f584575bfdadbf,
            0x1e0314a970c72c55,
            0x61e0e49fcba1e451,
            0x78c38afb6f4dec00,
            0xdc8f4f064563ad67,
            0x85a753e03da712b3,
            0x494a22c60d4bd533,
            0xbf8ac9f00ff14e8d,
        ],
    ),
    (
        "slide",
        [
            0x20fc630bee5937a4,
            0x14391f0cf0222376,
            0xdb0e3d32fc453a13,
            0xb2c80cf445edb0f4,
            0xca6418876633262d,
            0x575ba888b688f044,
            0x324a26760dddd8bb,
            0x29f18bbd8e9618e0,
            0x83b5a258b9b1b97f,
            0x3d8b10f42567d048,
            0x06cc237ac03480eb,
            0xa3596190f14c56b6,
            0x4a4df1477563a111,
            0x518d337e0f518f80,
        ],
    ),
    (
        "slide-lag",
        [
            0x5d308201b3991c85,
            0x3815b6a1d7a5dd12,
            0x4a6eaf1a40cce2d1,
            0x8a823f0b20fd9d87,
            0x5ddc8209f53bd3ee,
            0xb7098290a08977f4,
            0xf49734f62e4e3d8c,
            0x06d857a56002008a,
            0xd55b0cea450ea23d,
            0xc129d4225bc93c4e,
            0x0d705895a8b2afdb,
            0x39a471fc6a08e339,
            0xee2ff51dd42198a2,
            0xe6b0378c6eead864,
        ],
    ),
];

#[test]
fn filter_output_matches_golden_digests() {
    let signals: Vec<Signal> = DIMS.iter().map(|&d| walk(d, 0x005E_ED0F_F11E)).collect();
    let mut table: Vec<(&'static str, Vec<u64>)> = Vec::new();
    for (di, &d) in DIMS.iter().enumerate() {
        for &scale in &EPS_SCALES {
            let eps = epsilons(d, scale);
            let batched = filters(&eps);
            for ((name, mut f), (_, mut g)) in filters(&eps).into_iter().zip(batched) {
                let pushed = digest(&run_push(f.as_mut(), &signals[di]));
                let batch = digest(&run_batched(g.as_mut(), &signals[di]));
                assert_eq!(pushed, batch, "{name} d={d} ε×{scale}: push_batch diverged from push");
                match table.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, row)) => row.push(pushed),
                    None => table.push((name, vec![pushed])),
                }
            }
        }
    }
    let want: Vec<(&str, Vec<u64>)> = GOLDEN.iter().map(|(n, r)| (*n, r.to_vec())).collect();
    if table != want {
        let mut msg = String::from("filter output changed; replacement table:\n");
        for (name, row) in &table {
            msg.push_str(&format!("    (\n        {name:?},\n        [\n"));
            for w in row {
                msg.push_str(&format!("            0x{w:016x},\n"));
            }
            msg.push_str("        ],\n    ),\n");
        }
        for ((name, got), (_, exp)) in table.iter().zip(&want) {
            for (i, (g, e)) in got.iter().zip(exp).enumerate() {
                if g != e {
                    let (d, scale) = (DIMS[i / 2], EPS_SCALES[i % 2]);
                    msg.push_str(&format!("mismatch: {name} d={d} ε×{scale}\n"));
                }
            }
        }
        panic!("{msg}");
    }
}

/// NaN and ±inf inputs surface the typed [`FilterError`] for the right
/// dimension (validation runs before any kernel touches the data), and a
/// rejected sample leaves the filter usable and its state untouched.
#[test]
fn non_finite_inputs_are_rejected_typed() {
    for dims in [1usize, 4, 8] {
        let eps = epsilons(dims, 0.5);
        let good = vec![1.0; dims];
        for (name, mut f) in filters(&eps) {
            let mut sink = CollectingSink::default();
            f.push(0.0, &good, &mut sink).unwrap();
            for bad_dim in [0, dims - 1] {
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut x = good.clone();
                    x[bad_dim] = bad;
                    let err = f.push(1.0, &x, &mut sink).unwrap_err();
                    assert!(
                        matches!(err, FilterError::NonFiniteValue { dim, .. } if dim == bad_dim),
                        "{name} d={dims}: got {err:?} for value {bad} in dim {bad_dim}"
                    );
                }
            }
            let err = f.push(f64::NAN, &good, &mut sink).unwrap_err();
            assert!(
                matches!(err, FilterError::NonFiniteTime { .. }),
                "{name} d={dims}: got {err:?} for NaN time"
            );
            f.push(1.0, &good, &mut sink).unwrap();
            f.finish(&mut sink).unwrap();
            // The rejected samples left no trace: the output is that of
            // the two good samples alone.
            let mut clean = filters(&eps).into_iter().find(|(n, _)| *n == name).unwrap().1;
            let mut want = CollectingSink::default();
            clean.push(0.0, &good, &mut want).unwrap();
            clean.push(1.0, &good, &mut want).unwrap();
            clean.finish(&mut want).unwrap();
            assert_eq!(digest(&sink), digest(&want), "{name} d={dims}: rejected input leaked");
        }
    }
}
