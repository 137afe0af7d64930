//! The three workloads: their shapes, their seeded inputs, and the
//! reference outputs every run is checked against.
//!
//! Inputs come only from the seed. The reference is computed before any
//! timed region: each stream's standalone filter run (the segment log
//! the engine must report) and its reconstruction over a dedicated
//! lossless link (the segment log the store must end up holding, with
//! the sample index whose push makes each segment reconstructible).

use pla_core::filters::{run_filter, FilterKind, FilterSpec};
use pla_core::{Segment, Signal};
use pla_signal::{multi_walk, WalkParams};
use pla_transport::wire::FixedCodec;
use pla_transport::{Receiver, Transmitter};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Filter-bound: slide at d=4, long segments, batch pushes.
    EdgeCompress,
    /// Wire-bound: swing at d=1, short segments, per-sample pushes over
    /// loopback TCP.
    WireFanin,
    /// Open-loop ingest beside closed-loop remote reads and scrapes.
    QueryMixed,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] =
        [Workload::EdgeCompress, Workload::WireFanin, Workload::QueryMixed];

    /// The command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EdgeCompress => "edge_compress",
            Workload::WireFanin => "wire_fanin",
            Workload::QueryMixed => "query_mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which link carries the ingest session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// In-process `MemoryLink` pipes.
    Memory,
    /// Loopback `TcpLink` sockets.
    Tcp,
}

/// The shape of one workload's load.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Which workload this is.
    pub workload: Workload,
    /// Streams (sensors).
    pub streams: usize,
    /// Dimensions per sample.
    pub dims: usize,
    /// Filter every stream runs.
    pub kind: FilterKind,
    /// Per-dimension precision width ε.
    pub eps: f64,
    /// Largest per-step change of the random walk.
    pub max_delta: f64,
    /// Samples per stream (history included).
    pub samples: usize,
    /// Leading samples per stream loaded during set-up (`query_mixed`).
    pub history: usize,
    /// Samples per `push_batch` call (1 = per-sample `push`).
    pub chunk: usize,
    /// Ingest session link.
    pub link: LinkKind,
    /// Query connection link.
    pub query_link: LinkKind,
    /// Open-loop tick rate, in ticks per second (`query_mixed`).
    pub tick_hz: f64,
    /// Rounds per run, each with its own set-up (`query_mixed`; the
    /// closed-loop workloads repeat rounds until the time is spent).
    pub rounds: usize,
}

impl Spec {
    /// The workload's shape for a run measuring `seconds`.
    pub fn new(workload: Workload, seconds: f64) -> Self {
        match workload {
            Workload::EdgeCompress => Spec {
                workload,
                streams: 64,
                dims: 4,
                kind: FilterKind::Slide,
                eps: 2.0,
                max_delta: 1.0,
                samples: 8192,
                history: 0,
                chunk: 128,
                link: LinkKind::Memory,
                query_link: LinkKind::Memory,
                tick_hz: 0.0,
                rounds: 0,
            },
            Workload::WireFanin => Spec {
                workload,
                streams: 256,
                dims: 1,
                kind: FilterKind::Swing,
                eps: 0.3,
                max_delta: 1.0,
                samples: 1024,
                history: 0,
                chunk: 1,
                link: LinkKind::Tcp,
                query_link: LinkKind::Memory,
                tick_hz: 0.0,
                rounds: 0,
            },
            Workload::QueryMixed => {
                let rounds = 8;
                let tick_hz = 1000.0;
                let history = 4096;
                let live = ((seconds / rounds as f64) * tick_hz).ceil().max(1.0) as usize;
                Spec {
                    workload,
                    streams: 64,
                    dims: 1,
                    kind: FilterKind::Swing,
                    eps: 0.3,
                    max_delta: 1.0,
                    samples: history + live,
                    history,
                    chunk: 512,
                    link: LinkKind::Memory,
                    query_link: LinkKind::Tcp,
                    tick_hz,
                    rounds,
                }
            }
        }
    }

    /// The same shape with `samples` per stream (history scaled along),
    /// for quick checks.
    #[cfg(test)]
    pub fn scaled(mut self, samples: usize) -> Self {
        self.history = self.history.min(samples / 2);
        self.samples = samples;
        self
    }

    /// The filter spec every stream registers.
    pub fn filter(&self) -> FilterSpec {
        FilterSpec::new(self.kind, &vec![self.eps; self.dims])
    }

    /// One-line JSON rendering of the input sizes.
    pub fn json(&self) -> String {
        format!(
            "{{\"streams\":{},\"dims\":{},\"filter\":\"{}\",\"eps\":{},\"max_delta\":{},\
             \"samples_per_stream\":{},\"history_per_stream\":{},\"chunk\":{},\"link\":\"{:?}\",\
             \"query_link\":\"{:?}\",\"tick_hz\":{},\"rounds\":{}}}",
            self.streams,
            self.dims,
            self.kind.label(),
            self.eps,
            self.max_delta,
            self.samples,
            self.history,
            self.chunk,
            self.link,
            self.query_link,
            self.tick_hz,
            self.rounds
        )
    }
}

/// splitmix64: one step of the seed mixer.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded input signals, one per stream.
pub fn signals(spec: &Spec, seed: u64) -> Vec<Signal> {
    let mut state = seed ^ (spec.workload as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    (0..spec.streams)
        .map(|_| {
            multi_walk(
                spec.dims,
                WalkParams {
                    n: spec.samples,
                    p_decrease: 0.5,
                    max_delta: spec.max_delta,
                    seed: splitmix64(&mut state),
                },
            )
        })
        .collect()
}

/// One stream's input and the outputs every run must reproduce.
#[derive(Debug, Clone)]
pub struct StreamRef {
    /// The raw samples.
    pub signal: Signal,
    /// Segments the standalone filter emits — the engine's report.
    pub emitted: Vec<Segment>,
    /// The reconstruction over a dedicated lossless link — the store's
    /// final log for this stream.
    pub segments: Vec<Segment>,
    /// Per reconstructed segment: the index of the sample whose push
    /// made it reconstructible (`signal.len()` = only at stream end).
    pub emit_at: Vec<usize>,
    /// Per reconstructed segment: samples with `t <= t_end`.
    pub covers: Vec<usize>,
}

impl StreamRef {
    /// Computes the reference for one stream.
    pub fn compute(spec: &FilterSpec, signal: Signal) -> Self {
        let mut filter = spec.build().expect("workload filter spec is valid");
        let emitted = run_filter(filter.as_mut(), &signal).expect("workload signal is valid");

        let mut tx = Transmitter::new(spec.build().expect("valid spec"), FixedCodec);
        let mut rx = Receiver::new(FixedCodec, signal.dims());
        let mut emit_at = Vec::with_capacity(emitted.len() + 1);
        for (i, (t, x)) in signal.iter().enumerate() {
            tx.push(t, x).expect("workload signal is valid");
            rx.consume(tx.take_bytes()).expect("lossless link");
            emit_at.resize(rx.segments().len(), i);
        }
        tx.finish().expect("flush");
        rx.consume(tx.take_bytes()).expect("lossless link");
        let segments = rx.into_segments();
        emit_at.resize(segments.len(), signal.len());
        let times = signal.times();
        let covers = segments.iter().map(|s| times.partition_point(|&t| t <= s.t_end)).collect();
        Self { signal, emitted, segments, emit_at, covers }
    }

    /// Samples covered once the first `visible` segments are in the store.
    pub fn covered(&self, visible: usize) -> usize {
        if visible == 0 {
            0
        } else {
            self.covers[visible - 1]
        }
    }
}

/// The reference for every stream of a workload.
pub fn reference(spec: &Spec, signals: Vec<Signal>) -> Vec<StreamRef> {
    let filter = spec.filter();
    signals.into_iter().map(|s| StreamRef::compute(&filter, s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(w: Workload) -> Spec {
        let mut spec = Spec::new(w, 10.0).scaled(600);
        spec.streams = 8;
        spec
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_references() {
        for w in Workload::ALL {
            let spec = small(w);
            let a = reference(&spec, signals(&spec, 7));
            let b = reference(&spec, signals(&spec, 7));
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.signal.times(), y.signal.times());
                for i in 0..x.signal.len() {
                    assert_eq!(x.signal.sample(i).1, y.signal.sample(i).1, "{}", w.name());
                }
                assert_eq!(x.segments.len(), y.segments.len());
                assert_eq!(x.emitted.len(), y.emitted.len());
                assert_eq!(x.emit_at, y.emit_at);
            }
        }
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        for w in Workload::ALL {
            let spec = small(w);
            let a = signals(&spec, 7);
            let b = signals(&spec, 8);
            assert!(
                a.iter().zip(&b).any(|(x, y)| (0..x.len()).any(|i| x.sample(i).1 != y.sample(i).1)),
                "{}: seeds 7 and 8 produced the same inputs",
                w.name()
            );
        }
    }

    #[test]
    fn reference_bookkeeping_is_consistent() {
        for w in Workload::ALL {
            let spec = small(w);
            for r in reference(&spec, signals(&spec, 3)) {
                assert!(!r.segments.is_empty());
                assert_eq!(r.emit_at.len(), r.segments.len());
                assert!(r.emit_at.windows(2).all(|p| p[0] <= p[1]), "emission order");
                assert_eq!(r.covered(r.segments.len()), r.signal.len(), "last segment covers all");
                assert_eq!(r.covered(0), 0);
            }
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
