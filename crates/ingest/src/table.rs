//! The per-shard stream registry: `StreamId -> Box<dyn StreamFilter>`
//! with per-stream epsilon specs and error quarantine.

use std::collections::{BTreeMap, HashMap};

use pla_core::filters::{FilterSpec, StreamFilter};
use pla_core::{CollectingSink, FilterError, ProvisionalUpdate, Segment};

use crate::StreamId;

/// Errors reported by the ingest layer.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// A sample or finish was addressed to a stream that was never
    /// registered.
    UnknownStream(StreamId),
    /// A stream id was registered twice.
    DuplicateStream(StreamId),
    /// The stream is quarantined: an earlier sample was rejected by its
    /// filter and every sample since is being dropped and counted.
    Quarantined(StreamId),
    /// The stream's filter rejected this sample (or its spec failed to
    /// build); the stream is now quarantined.
    Filter {
        /// The offending stream.
        stream: StreamId,
        /// The filter's verdict.
        error: FilterError,
    },
    /// A batch's samples do not share one dimensionality, so it cannot be
    /// routed as a unit.
    RaggedBatch,
    /// `try_push` would have blocked: the target shard's queue is full.
    Backpressure,
    /// The engine has shut down; no shard is listening.
    Closed,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownStream(id) => write!(f, "{id} is not registered"),
            Self::DuplicateStream(id) => write!(f, "{id} is already registered"),
            Self::Quarantined(id) => write!(f, "{id} is quarantined; sample dropped"),
            Self::Filter { stream, error } => write!(f, "{stream} rejected a sample: {error}"),
            Self::RaggedBatch => write!(f, "batch samples must share one dimensionality"),
            Self::Backpressure => write!(f, "shard queue full; retry or drop"),
            Self::Closed => write!(f, "ingest engine has shut down"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Why and how hard a stream is quarantined.
#[derive(Debug, Clone, PartialEq)]
pub struct Quarantine {
    /// The error that triggered the quarantine (also covers a spec that
    /// failed to build at registration).
    pub error: FilterError,
    /// Samples dropped *after* the trigger because the stream was already
    /// quarantined.
    pub dropped: u64,
}

/// Everything one stream produced, collected when the table is drained.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutput {
    /// Finalized segments, oldest first — identical to what a standalone
    /// filter run over the same samples would emit.
    pub segments: Vec<Segment>,
    /// Provisional (lag-bound) updates, oldest first.
    pub provisionals: Vec<ProvisionalUpdate>,
    /// Samples handed to the filter (including one that triggered a
    /// quarantine, excluding samples dropped while quarantined).
    pub samples_in: u64,
    /// Set if the stream was quarantined.
    pub quarantine: Option<Quarantine>,
}

struct StreamEntry {
    /// `None` only when the spec itself failed to build (the entry is
    /// then quarantined from birth).
    filter: Option<Box<dyn StreamFilter>>,
    sink: CollectingSink,
    samples_in: u64,
    quarantine: Option<Quarantine>,
    /// How many segments the tap has already been handed.
    tap_cursor: usize,
}

/// Registry of streams and their filters; one per shard (or standalone
/// for single-threaded ingest).
///
/// The quarantine contract: the first [`FilterError`] a stream produces is
/// recorded and returned; from then on the stream's samples are dropped
/// and counted, and **no other stream is affected** — a misbehaving sensor
/// cannot poison the shard it shares with thousands of healthy ones.
#[derive(Default)]
pub struct StreamTable {
    streams: HashMap<StreamId, StreamEntry>,
}

impl StreamTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered streams (including quarantined ones).
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether no stream is registered.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: StreamId) -> bool {
        self.streams.contains_key(&id)
    }

    /// Number of quarantined streams.
    pub fn quarantined(&self) -> usize {
        self.streams.values().filter(|e| e.quarantine.is_some()).count()
    }

    /// Registers a stream with its filter spec.
    ///
    /// A spec that fails to build still registers the stream — quarantined
    /// from birth, so its samples are counted as dropped rather than
    /// reported as [`IngestError::UnknownStream`].
    pub fn register(&mut self, id: StreamId, spec: &FilterSpec) -> Result<(), IngestError> {
        if self.streams.contains_key(&id) {
            return Err(IngestError::DuplicateStream(id));
        }
        let (filter, quarantine, result) = match spec.build() {
            Ok(f) => (Some(f), None, Ok(())),
            Err(e) => (
                None,
                Some(Quarantine { error: e.clone(), dropped: 0 }),
                Err(IngestError::Filter { stream: id, error: e }),
            ),
        };
        self.streams.insert(
            id,
            StreamEntry {
                filter,
                sink: CollectingSink::default(),
                samples_in: 0,
                quarantine,
                tap_cursor: 0,
            },
        );
        result
    }

    /// Offers one sample to a stream's filter.
    pub fn push(&mut self, id: StreamId, t: f64, x: &[f64]) -> Result<(), IngestError> {
        let entry = self.streams.get_mut(&id).ok_or(IngestError::UnknownStream(id))?;
        if let Some(q) = &mut entry.quarantine {
            q.dropped += 1;
            return Err(IngestError::Quarantined(id));
        }
        entry.samples_in += 1;
        match entry.filter.as_mut().expect("unquarantined entry has a filter").push(
            t,
            x,
            &mut entry.sink,
        ) {
            Ok(()) => Ok(()),
            Err(e) => {
                entry.quarantine = Some(Quarantine { error: e.clone(), dropped: 0 });
                Err(IngestError::Filter { stream: id, error: e })
            }
        }
    }

    /// Offers a batch of samples to a stream's filter (the batch fast
    /// path; output is identical to per-sample pushes).
    pub fn push_batch(
        &mut self,
        id: StreamId,
        samples: &[(f64, &[f64])],
    ) -> Result<usize, IngestError> {
        let entry = self.streams.get_mut(&id).ok_or(IngestError::UnknownStream(id))?;
        if let Some(q) = &mut entry.quarantine {
            q.dropped += samples.len() as u64;
            return Err(IngestError::Quarantined(id));
        }
        match entry
            .filter
            .as_mut()
            .expect("unquarantined entry has a filter")
            .push_batch(samples, &mut entry.sink)
        {
            Ok(n) => {
                entry.samples_in += n as u64;
                Ok(n)
            }
            Err(batch) => {
                // The absorbed prefix plus the sample that triggered the
                // quarantine were handed to the filter (matching `push`'s
                // accounting); the unprocessed tail counts as dropped.
                entry.samples_in += batch.absorbed as u64 + 1;
                let dropped = (samples.len() - batch.absorbed - 1) as u64;
                entry.quarantine = Some(Quarantine { error: batch.error.clone(), dropped });
                Err(IngestError::Filter { stream: id, error: batch.error })
            }
        }
    }

    /// Ends a stream: flushes its filter's pending state into the output.
    /// The filter resets, so the same id may continue with a fresh
    /// (time-restarted) stream afterwards.
    pub fn finish_stream(&mut self, id: StreamId) -> Result<(), IngestError> {
        let entry = self.streams.get_mut(&id).ok_or(IngestError::UnknownStream(id))?;
        if entry.quarantine.is_some() {
            return Err(IngestError::Quarantined(id));
        }
        match entry
            .filter
            .as_mut()
            .expect("unquarantined entry has a filter")
            .finish(&mut entry.sink)
        {
            Ok(()) => Ok(()),
            Err(e) => {
                entry.quarantine = Some(Quarantine { error: e.clone(), dropped: 0 });
                Err(IngestError::Filter { stream: id, error: e })
            }
        }
    }

    /// Ends every non-quarantined stream (engine shutdown). A filter whose
    /// `finish` errors (none of the built-ins do) is quarantined like any
    /// other failure.
    pub fn finish_all(&mut self) {
        for entry in self.streams.values_mut() {
            if entry.quarantine.is_none() {
                if let Err(e) = entry
                    .filter
                    .as_mut()
                    .expect("unquarantined entry has a filter")
                    .finish(&mut entry.sink)
                {
                    entry.quarantine = Some(Quarantine { error: e, dropped: 0 });
                }
            }
        }
    }

    /// Hands every segment emitted since the last call for `id` to `f`
    /// (the segment tap's feed).
    pub fn drain_new_segments(&mut self, id: StreamId, mut f: impl FnMut(&Segment)) {
        if let Some(entry) = self.streams.get_mut(&id) {
            for seg in &entry.sink.segments[entry.tap_cursor..] {
                f(seg);
            }
            entry.tap_cursor = entry.sink.segments.len();
        }
    }

    /// Registered stream ids, in arbitrary order.
    pub fn ids(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.streams.keys().copied()
    }

    /// Total segments collected across all streams.
    pub fn total_segments(&self) -> usize {
        self.streams.values().map(|e| e.sink.segments.len()).sum()
    }

    /// Drains the table into per-stream outputs, ordered by stream id.
    pub fn into_outputs(self) -> BTreeMap<StreamId, StreamOutput> {
        self.streams
            .into_iter()
            .map(|(id, e)| {
                (
                    id,
                    StreamOutput {
                        segments: e.sink.segments,
                        provisionals: e.sink.provisionals,
                        samples_in: e.samples_in,
                        quarantine: e.quarantine,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pla_core::filters::{run_filter, FilterKind};
    use pla_core::Signal;

    fn spec(kind: FilterKind) -> FilterSpec {
        FilterSpec::new(kind, &[0.5])
    }

    #[test]
    fn register_push_finish_roundtrip() {
        let mut table = StreamTable::new();
        table.register(StreamId(1), &spec(FilterKind::Slide)).unwrap();
        for j in 0..50 {
            table.push(StreamId(1), j as f64, &[0.3 * j as f64]).unwrap();
        }
        table.finish_stream(StreamId(1)).unwrap();
        let out = table.into_outputs().remove(&StreamId(1)).unwrap();
        assert_eq!(out.segments.len(), 1);
        assert_eq!(out.samples_in, 50);
        assert!(out.quarantine.is_none());
    }

    #[test]
    fn duplicate_and_unknown_streams_are_reported() {
        let mut table = StreamTable::new();
        table.register(StreamId(7), &spec(FilterKind::Cache)).unwrap();
        assert_eq!(
            table.register(StreamId(7), &spec(FilterKind::Cache)),
            Err(IngestError::DuplicateStream(StreamId(7)))
        );
        assert_eq!(
            table.push(StreamId(8), 0.0, &[1.0]),
            Err(IngestError::UnknownStream(StreamId(8)))
        );
    }

    #[test]
    fn quarantine_isolates_the_bad_stream() {
        let mut table = StreamTable::new();
        table.register(StreamId(1), &spec(FilterKind::Swing)).unwrap();
        table.register(StreamId(2), &spec(FilterKind::Swing)).unwrap();
        table.push(StreamId(1), 0.0, &[1.0]).unwrap();
        table.push(StreamId(2), 0.0, &[1.0]).unwrap();
        // Stream 1 regresses in time → quarantined.
        assert!(matches!(
            table.push(StreamId(1), 0.0, &[2.0]),
            Err(IngestError::Filter { stream: StreamId(1), .. })
        ));
        // Later samples for stream 1 are dropped and counted …
        assert_eq!(
            table.push(StreamId(1), 1.0, &[3.0]),
            Err(IngestError::Quarantined(StreamId(1)))
        );
        assert_eq!(table.quarantined(), 1);
        // … while stream 2 sails on (a clean ramp: one segment).
        for j in 1..20 {
            table.push(StreamId(2), j as f64, &[1.0 + j as f64 * 0.1]).unwrap();
        }
        table.finish_stream(StreamId(2)).unwrap();
        let outs = table.into_outputs();
        let q = outs[&StreamId(1)].quarantine.as_ref().unwrap();
        assert_eq!(q.dropped, 1);
        assert!(matches!(q.error, FilterError::NonMonotonicTime { .. }));
        assert_eq!(outs[&StreamId(2)].segments.len(), 1);
        assert!(outs[&StreamId(2)].quarantine.is_none());
    }

    #[test]
    fn mid_batch_failure_accounts_for_every_sample() {
        let mut table = StreamTable::new();
        table.register(StreamId(1), &spec(FilterKind::Swing)).unwrap();
        // Time regresses at index 2: two samples absorbed, one trigger,
        // three dropped without reaching the filter.
        let samples: [(f64, &[f64]); 6] = [
            (0.0, &[1.0]),
            (1.0, &[2.0]),
            (0.5, &[3.0]),
            (2.0, &[4.0]),
            (3.0, &[5.0]),
            (4.0, &[6.0]),
        ];
        assert!(matches!(
            table.push_batch(StreamId(1), &samples),
            Err(IngestError::Filter { stream: StreamId(1), .. })
        ));
        let out = table.into_outputs().remove(&StreamId(1)).unwrap();
        assert_eq!(out.samples_in, 3, "absorbed prefix plus the trigger");
        let q = out.quarantine.unwrap();
        assert_eq!(q.dropped, 3, "unprocessed tail counts as dropped");
        assert!(matches!(q.error, FilterError::NonMonotonicTime { .. }));
    }

    #[test]
    fn invalid_spec_quarantines_from_birth() {
        let mut table = StreamTable::new();
        let bad = FilterSpec::new(FilterKind::Slide, &[0.0]);
        assert!(matches!(
            table.register(StreamId(3), &bad),
            Err(IngestError::Filter { stream: StreamId(3), .. })
        ));
        assert_eq!(
            table.push(StreamId(3), 0.0, &[1.0]),
            Err(IngestError::Quarantined(StreamId(3)))
        );
        let out = table.into_outputs().remove(&StreamId(3)).unwrap();
        assert_eq!(out.quarantine.unwrap().dropped, 1);
        assert_eq!(out.samples_in, 0);
    }

    #[test]
    fn table_output_matches_standalone_filter() {
        let signal = Signal::from_values(
            &(0..300).map(|i| ((i as f64) * 0.23).sin() * 4.0).collect::<Vec<_>>(),
        );
        let mut standalone = FilterKind::Slide.build(&[0.5]).unwrap();
        let expected = run_filter(standalone.as_mut(), &signal).unwrap();

        let mut table = StreamTable::new();
        table.register(StreamId(9), &spec(FilterKind::Slide)).unwrap();
        for (t, x) in signal.iter() {
            table.push(StreamId(9), t, x).unwrap();
        }
        table.finish_stream(StreamId(9)).unwrap();
        let out = table.into_outputs().remove(&StreamId(9)).unwrap();
        assert_eq!(out.segments, expected);
    }

    #[test]
    fn tap_cursor_sees_each_segment_once() {
        let mut table = StreamTable::new();
        table.register(StreamId(1), &spec(FilterKind::Cache)).unwrap();
        let mut seen = 0;
        for j in 0..10 {
            // Alternating far-apart values: every second push closes a run.
            table.push(StreamId(1), j as f64, &[if j % 2 == 0 { 0.0 } else { 10.0 }]).unwrap();
            table.drain_new_segments(StreamId(1), |_| seen += 1);
        }
        table.finish_stream(StreamId(1)).unwrap();
        table.drain_new_segments(StreamId(1), |_| seen += 1);
        assert_eq!(seen, table.total_segments());
    }
}
