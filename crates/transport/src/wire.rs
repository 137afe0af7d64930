//! Wire protocol between transmitter and receiver.
//!
//! A segment stream maps onto five message kinds:
//!
//! | Message | Meaning | Recordings |
//! |---|---|---|
//! | `Hold(t, X)` | piece-wise constant value from `t` until superseded | 1 |
//! | `Start(t, X)` | a disconnected segment begins at `(t, X)` | 1 |
//! | `End(t, X)` | the open segment ends at `(t, X)`; a connected successor may begin here | 1 |
//! | `Point(t, X)` | degenerate single-point segment | 1 |
//! | `Provisional(anchor, slopes, through)` | lag-bound line commitment (paper §3.3) | 1 |
//! | `StreamFrame(id)` | all following messages belong to stream `id` | 0 |
//!
//! `StreamFrame` is the multi-stream extension: one connection carries
//! many logical streams by interleaving frame headers with the ordinary
//! messages. A connection that never sends a `StreamFrame` is a
//! single-stream connection, exactly as before — the header is pay-as-you-go.
//! A transport that names each chunk's stream itself (`pla-net`'s
//! `Batch` entries, fed to `StreamDemux::consume_next`) sends no
//! `StreamFrame` at all.
//!
//! Two codecs serialize messages: [`FixedCodec`] (8-byte IEEE doubles,
//! lossless) and [`CompactCodec`] (per-dimension quantization plus
//! zig-zag varint deltas — the kind of encoding a bandwidth-starved sensor
//! deployment would actually ship; quantization error is bounded by half a
//! quantum per value and must be budgeted inside ε by the caller).

use bytes::{Buf, BufMut, Bytes, BytesMut};

use pla_core::{DimVec, ProvisionalUpdate, Segment};

/// One protocol message.
///
/// Per-dimension payloads are [`DimVec`]s, like [`Segment`]'s: up to
/// [`INLINE_DIMS`](pla_core::INLINE_DIMS) values live inline, so building,
/// encoding and decoding a message for a `d ≤ 4` stream never touches the
/// heap.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Constant value holds from `t` until the next message.
    Hold {
        /// Recording time.
        t: f64,
        /// Held value per dimension.
        x: DimVec<f64>,
    },
    /// A disconnected segment starts here.
    Start {
        /// Recording time.
        t: f64,
        /// Segment start value per dimension.
        x: DimVec<f64>,
    },
    /// The open segment ends here (and a connected successor may begin).
    End {
        /// Recording time.
        t: f64,
        /// Segment end value per dimension.
        x: DimVec<f64>,
    },
    /// Degenerate single-point segment.
    Point {
        /// Recording time.
        t: f64,
        /// Value per dimension.
        x: DimVec<f64>,
    },
    /// Lag-bound provisional line (paper §3.3).
    Provisional {
        /// Anchor time of the committed line.
        t_anchor: f64,
        /// Anchor values per dimension.
        x_anchor: DimVec<f64>,
        /// Slopes per dimension.
        slopes: DimVec<f64>,
        /// Newest covered sample time at commit.
        covers_through: f64,
    },
    /// Stream-id frame header: every following message (until the next
    /// `StreamFrame`) belongs to the stream with this id.
    StreamFrame {
        /// The stream id (caller-assigned, matches
        /// `pla-ingest`'s `StreamId`).
        stream: u64,
    },
}

impl Message {
    fn tag(&self) -> u8 {
        match self {
            Self::Hold { .. } => 0,
            Self::Start { .. } => 1,
            Self::End { .. } => 2,
            Self::Point { .. } => 3,
            Self::Provisional { .. } => 4,
            Self::StreamFrame { .. } => 5,
        }
    }

    /// Scalar payload count (times + values) — the "recording units" a
    /// size analysis like the paper's §5.4 would assign. A frame header
    /// carries no recording payload.
    pub fn scalar_count(&self) -> usize {
        match self {
            Self::Hold { x, .. }
            | Self::Start { x, .. }
            | Self::End { x, .. }
            | Self::Point { x, .. } => 1 + x.len(),
            Self::Provisional { x_anchor, slopes, .. } => 2 + x_anchor.len() + slopes.len(),
            Self::StreamFrame { .. } => 0,
        }
    }
}

/// Maps one finalized [`Segment`] onto the wire messages that carry it —
/// the single canonical mapping, shared by the
/// [`Transmitter`](crate::Transmitter)'s sink and by `pla-net`'s
/// multiplexed uplink, so a segment shipped over either path decodes to
/// the same reconstruction:
///
/// * degenerate (`t_start == t_end`) → [`Message::Point`];
/// * piece-wise constant with one recording (a cache run) →
///   [`Message::Hold`];
/// * otherwise a [`Message::Start`] (disconnected segments only) followed
///   by a [`Message::End`].
pub fn segment_messages(seg: &Segment, mut emit: impl FnMut(Message)) {
    let degenerate = seg.t_start == seg.t_end;
    let constant = seg.x_start == seg.x_end && !seg.connected && seg.new_recordings == 1;
    if degenerate {
        emit(Message::Point { t: seg.t_start, x: seg.x_start.clone() });
    } else if constant {
        emit(Message::Hold { t: seg.t_start, x: seg.x_start.clone() });
    } else {
        if !seg.connected {
            emit(Message::Start { t: seg.t_start, x: seg.x_start.clone() });
        }
        emit(Message::End { t: seg.t_end, x: seg.x_end.clone() });
    }
}

/// Maps a [`ProvisionalUpdate`] onto its wire message.
pub fn provisional_message(update: &ProvisionalUpdate) -> Message {
    Message::Provisional {
        t_anchor: update.t_anchor,
        x_anchor: update.x_anchor.clone(),
        slopes: update.slopes.clone(),
        covers_through: update.covers_through,
    }
}

/// Errors raised while decoding a byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended mid-message.
    Truncated,
    /// Unknown message tag byte.
    BadTag(u8),
    /// A varint ran past its maximum length.
    BadVarint,
    /// A [`CompactCodec`] was asked to decode `dims`-dimensional values
    /// but holds fewer value quanta than that, so it cannot scale them.
    MissingQuanta {
        /// Dimensions the decode was asked for.
        dims: usize,
        /// Value quanta the codec holds.
        quanta: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "byte stream truncated mid-message"),
            Self::BadTag(t) => write!(f, "unknown message tag {t}"),
            Self::BadVarint => write!(f, "malformed varint"),
            Self::MissingQuanta { dims, quanta } => {
                write!(f, "{dims}-dimensional values but only {quanta} value quanta")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A message serializer/deserializer.
pub trait Codec {
    /// Appends `msg` to `out`, returning the encoded length in bytes.
    fn encode(&mut self, msg: &Message, dims: usize, out: &mut BytesMut) -> usize;
    /// Decodes one message, advancing `buf`.
    fn decode(&mut self, buf: &mut Bytes, dims: usize) -> Result<Message, WireError>;
    /// Resets any cross-message state (delta predictors).
    fn reset(&mut self);
}

// ---------------------------------------------------------------------------

/// Lossless fixed-width codec: tag byte + 8-byte little-endian doubles.
#[derive(Debug, Clone, Default)]
pub struct FixedCodec;

impl FixedCodec {
    fn put_vec(out: &mut BytesMut, v: &[f64]) {
        for &f in v {
            out.put_f64_le(f);
        }
    }

    fn get_vec(buf: &mut Bytes, n: usize) -> Result<DimVec<f64>, WireError> {
        if buf.remaining() < 8 * n {
            return Err(WireError::Truncated);
        }
        Ok(DimVec::from_fn(n, |_| buf.get_f64_le()))
    }
}

impl Codec for FixedCodec {
    fn encode(&mut self, msg: &Message, _dims: usize, out: &mut BytesMut) -> usize {
        let before = out.len();
        out.put_u8(msg.tag());
        match msg {
            Message::Hold { t, x }
            | Message::Start { t, x }
            | Message::End { t, x }
            | Message::Point { t, x } => {
                out.put_f64_le(*t);
                Self::put_vec(out, x);
            }
            Message::Provisional { t_anchor, x_anchor, slopes, covers_through } => {
                out.put_f64_le(*t_anchor);
                Self::put_vec(out, x_anchor);
                Self::put_vec(out, slopes);
                out.put_f64_le(*covers_through);
            }
            Message::StreamFrame { stream } => {
                out.put_u64_le(*stream);
            }
        }
        out.len() - before
    }

    fn decode(&mut self, buf: &mut Bytes, dims: usize) -> Result<Message, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        let tag = buf.get_u8();
        let need = |n: usize, buf: &Bytes| {
            if buf.remaining() < 8 * n {
                Err(WireError::Truncated)
            } else {
                Ok(())
            }
        };
        match tag {
            0..=3 => {
                need(1 + dims, buf)?;
                let t = buf.get_f64_le();
                let x = Self::get_vec(buf, dims)?;
                Ok(match tag {
                    0 => Message::Hold { t, x },
                    1 => Message::Start { t, x },
                    2 => Message::End { t, x },
                    _ => Message::Point { t, x },
                })
            }
            4 => {
                need(2 + 2 * dims, buf)?;
                let t_anchor = buf.get_f64_le();
                let x_anchor = Self::get_vec(buf, dims)?;
                let slopes = Self::get_vec(buf, dims)?;
                let covers_through = buf.get_f64_le();
                Ok(Message::Provisional { t_anchor, x_anchor, slopes, covers_through })
            }
            5 => {
                need(1, buf)?;
                Ok(Message::StreamFrame { stream: buf.get_u64_le() })
            }
            other => Err(WireError::BadTag(other)),
        }
    }

    fn reset(&mut self) {}
}

// ---------------------------------------------------------------------------

/// Lossy compact codec: values quantized to per-dimension quanta, encoded
/// as zig-zag varint deltas against the previous message.
///
/// The time axis uses its own quantum. Quantization error is at most half
/// a quantum per scalar; callers keeping `quantum ≤ ε/8` (say) retain an
/// end-to-end guarantee of `ε + quantum/2`.
///
/// The codec needs one value quantum per dimension it carries. Encoding
/// a message with more dimensions than quanta panics (the extra values
/// cannot be scaled, and dropping them would corrupt the stream);
/// decoding with `dims` above the quanta count fails with
/// [`WireError::MissingQuanta`].
#[derive(Debug, Clone)]
pub struct CompactCodec {
    /// Quantum for the time axis.
    pub t_quantum: f64,
    /// Quantum per value dimension.
    pub x_quanta: Vec<f64>,
    /// The previous message's quantized scalars — the delta predictor.
    prev: Vec<i64>,
    /// The message being decoded; swapped into `prev` once it decodes
    /// whole, so a failed decode leaves the predictor untouched.
    cur: Vec<i64>,
}

impl CompactCodec {
    /// Creates a compact codec with the given quanta.
    ///
    /// # Panics
    ///
    /// Panics if any quantum is not finite and positive.
    pub fn new(t_quantum: f64, x_quanta: &[f64]) -> Self {
        assert!(t_quantum.is_finite() && t_quantum > 0.0, "bad time quantum");
        for &q in x_quanta {
            assert!(q.is_finite() && q > 0.0, "bad value quantum");
        }
        Self { t_quantum, x_quanta: x_quanta.to_vec(), prev: Vec::new(), cur: Vec::new() }
    }

    fn quantize(v: f64, q: f64) -> i64 {
        (v / q).round() as i64
    }

    /// Quantum of a slope in dimension `d`: the x/t quantum ratio, for a
    /// scale consistent with the values.
    fn slope_quantum(&self, d: usize) -> f64 {
        self.x_quanta[d] / self.t_quantum.max(f64::MIN_POSITIVE)
    }

    fn put_varint(out: &mut BytesMut, v: i64) {
        // zig-zag then LEB128
        let mut z = ((v << 1) ^ (v >> 63)) as u64;
        loop {
            let byte = (z & 0x7f) as u8;
            z >>= 7;
            if z == 0 {
                out.put_u8(byte);
                break;
            }
            out.put_u8(byte | 0x80);
        }
    }

    fn get_varint(buf: &mut Bytes) -> Result<i64, WireError> {
        let mut z: u64 = 0;
        let mut shift = 0u32;
        loop {
            if buf.remaining() < 1 {
                return Err(WireError::Truncated);
            }
            let byte = buf.get_u8();
            z |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift >= 64 {
                return Err(WireError::BadVarint);
            }
        }
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn check_dims(&self, dims: usize) -> Result<(), WireError> {
        if dims > self.x_quanta.len() {
            return Err(WireError::MissingQuanta { dims, quanta: self.x_quanta.len() });
        }
        Ok(())
    }

    /// Feeds `x` to `put`, dimension `d` quantized by `quantum(d)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has more dimensions than the codec has value quanta.
    fn put_scaled(&self, x: &[f64], quantum: impl Fn(usize) -> f64, put: &mut impl FnMut(i64)) {
        if let Err(e) = self.check_dims(x.len()) {
            panic!("CompactCodec cannot encode the message: {e}");
        }
        for (d, &v) in x.iter().enumerate() {
            put(Self::quantize(v, quantum(d)));
        }
    }

    /// Feeds the quantized scalars of a payload message to `put`, in
    /// encoding order: time, values, then (provisional lines) slopes and
    /// the covered-through time.
    fn quantized(&self, msg: &Message, mut put: impl FnMut(i64)) {
        let value_quantum = |d: usize| self.x_quanta[d];
        match msg {
            Message::Hold { t, x }
            | Message::Start { t, x }
            | Message::End { t, x }
            | Message::Point { t, x } => {
                put(Self::quantize(*t, self.t_quantum));
                self.put_scaled(x, value_quantum, &mut put);
            }
            Message::Provisional { t_anchor, x_anchor, slopes, covers_through } => {
                put(Self::quantize(*t_anchor, self.t_quantum));
                self.put_scaled(x_anchor, value_quantum, &mut put);
                self.put_scaled(slopes, |d| self.slope_quantum(d), &mut put);
                put(Self::quantize(*covers_through, self.t_quantum));
            }
            Message::StreamFrame { .. } => {}
        }
    }

    fn rebuild(&self, tag: u8, scalars: &[i64], dims: usize) -> Result<Message, WireError> {
        let t = scalars[0] as f64 * self.t_quantum;
        let dx = |offset: usize| -> DimVec<f64> {
            DimVec::from_fn(dims, |d| scalars[offset + d] as f64 * self.x_quanta[d])
        };
        Ok(match tag {
            0 => Message::Hold { t, x: dx(1) },
            1 => Message::Start { t, x: dx(1) },
            2 => Message::End { t, x: dx(1) },
            3 => Message::Point { t, x: dx(1) },
            4 => Message::Provisional {
                t_anchor: t,
                x_anchor: dx(1),
                slopes: DimVec::from_fn(dims, |d| {
                    scalars[1 + dims + d] as f64 * self.slope_quantum(d)
                }),
                covers_through: scalars[1 + 2 * dims] as f64 * self.t_quantum,
            },
            other => return Err(WireError::BadTag(other)),
        })
    }
}

impl Codec for CompactCodec {
    /// # Panics
    ///
    /// Panics if the message carries more dimensions than the codec has
    /// value quanta.
    fn encode(&mut self, msg: &Message, _dims: usize, out: &mut BytesMut) -> usize {
        let before = out.len();
        out.put_u8(msg.tag());
        // Frame headers bypass the delta predictor entirely: switching
        // streams must not perturb the value deltas of the messages around
        // the switch (the predictor state belongs to the payload stream).
        if let Message::StreamFrame { stream } = msg {
            Self::put_varint(out, *stream as i64);
            return out.len() - before;
        }
        // Delta against the previous message's scalar at the same
        // position (0 past its end), overwriting the predictor in place.
        let mut prev = std::mem::take(&mut self.prev);
        let mut i = 0;
        self.quantized(msg, |s| {
            match prev.get_mut(i) {
                Some(p) => {
                    Self::put_varint(out, s.wrapping_sub(*p));
                    *p = s;
                }
                None => {
                    Self::put_varint(out, s);
                    prev.push(s);
                }
            }
            i += 1;
        });
        prev.truncate(i);
        self.prev = prev;
        out.len() - before
    }

    fn decode(&mut self, buf: &mut Bytes, dims: usize) -> Result<Message, WireError> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        let tag = buf.get_u8();
        if tag == 5 {
            return Ok(Message::StreamFrame { stream: Self::get_varint(buf)? as u64 });
        }
        let count = match tag {
            0..=3 => 1 + dims,
            4 => 2 + 2 * dims,
            other => return Err(WireError::BadTag(other)),
        };
        self.check_dims(dims)?;
        self.cur.clear();
        for i in 0..count {
            let pred = self.prev.get(i).copied().unwrap_or(0);
            let delta = Self::get_varint(buf)?;
            self.cur.push(pred.wrapping_add(delta));
        }
        let msg = self.rebuild(tag, &self.cur, dims)?;
        std::mem::swap(&mut self.prev, &mut self.cur);
        Ok(msg)
    }

    fn reset(&mut self) {
        self.prev.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::StreamFrame { stream: 42 },
            Message::Start { t: 0.0, x: [1.5, -2.0].into() },
            Message::End { t: 10.0, x: [2.5, -1.0].into() },
            Message::StreamFrame { stream: u64::MAX },
            Message::End { t: 20.0, x: [3.5, 0.5].into() },
            Message::Hold { t: 30.0, x: [3.5, 0.5].into() },
            Message::Point { t: 41.0, x: [9.0, 9.0].into() },
            Message::Provisional {
                t_anchor: 41.0,
                x_anchor: [9.0, 9.0].into(),
                slopes: [0.5, -0.25].into(),
                covers_through: 50.0,
            },
        ]
    }

    #[test]
    fn fixed_codec_round_trip() {
        let mut codec = FixedCodec;
        let mut buf = BytesMut::new();
        let msgs = sample_messages();
        for m in &msgs {
            codec.encode(m, 2, &mut buf);
        }
        let mut bytes = buf.freeze();
        for m in &msgs {
            let got = codec.decode(&mut bytes, 2).unwrap();
            assert_eq!(&got, m);
        }
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn compact_codec_round_trip_within_quantum() {
        let mut enc = CompactCodec::new(0.5, &[0.01, 0.01]);
        let mut dec = enc.clone();
        let mut buf = BytesMut::new();
        let msgs = sample_messages();
        for m in &msgs {
            enc.encode(m, 2, &mut buf);
        }
        let mut bytes = buf.freeze();
        for m in &msgs {
            let got = dec.decode(&mut bytes, 2).unwrap();
            match (&got, m) {
                (Message::End { t: gt, x: gx }, Message::End { t, x })
                | (Message::Start { t: gt, x: gx }, Message::Start { t, x })
                | (Message::Hold { t: gt, x: gx }, Message::Hold { t, x })
                | (Message::Point { t: gt, x: gx }, Message::Point { t, x }) => {
                    assert!((gt - t).abs() <= 0.25 + 1e-12);
                    for (a, b) in gx.iter().zip(x.iter()) {
                        assert!((a - b).abs() <= 0.005 + 1e-12);
                    }
                }
                (
                    Message::Provisional { covers_through: g, .. },
                    Message::Provisional { covers_through: w, .. },
                ) => {
                    assert!((g - w).abs() <= 0.25 + 1e-12);
                }
                (Message::StreamFrame { stream: g }, Message::StreamFrame { stream: w }) => {
                    assert_eq!(g, w, "frame headers are lossless even in the compact codec");
                }
                _ => panic!("kind mismatch: {got:?} vs {m:?}"),
            }
        }
    }

    #[test]
    fn compact_is_smaller_than_fixed_on_smooth_streams() {
        let msgs: Vec<Message> = (0..100)
            .map(|i| Message::End { t: i as f64, x: [20.0 + (i % 5) as f64 * 0.01].into() })
            .collect();
        let mut fixed = FixedCodec;
        let mut compact = CompactCodec::new(0.001, &[0.001]);
        let mut fb = BytesMut::new();
        let mut cb = BytesMut::new();
        for m in &msgs {
            fixed.encode(m, 1, &mut fb);
            compact.encode(m, 1, &mut cb);
        }
        assert!(
            cb.len() * 3 < fb.len(),
            "compact {} should be well under fixed {}",
            cb.len(),
            fb.len()
        );
    }

    #[test]
    fn varint_extremes_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX / 2, i64::MIN / 2] {
            let mut buf = BytesMut::new();
            CompactCodec::put_varint(&mut buf, v);
            let mut b = buf.freeze();
            assert_eq!(CompactCodec::get_varint(&mut b).unwrap(), v);
        }
    }

    #[test]
    fn truncated_input_is_reported() {
        let mut codec = FixedCodec;
        let mut buf = BytesMut::new();
        codec.encode(&Message::End { t: 1.0, x: [2.0].into() }, 1, &mut buf);
        let mut short = buf.freeze().slice(0..5);
        assert_eq!(codec.decode(&mut short, 1), Err(WireError::Truncated));
    }

    #[test]
    fn bad_tag_is_reported() {
        let mut codec = FixedCodec;
        let mut bytes = Bytes::from_static(&[9u8, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(codec.decode(&mut bytes, 0), Err(WireError::BadTag(9)));
    }

    /// Regression: a compact codec holding fewer value quanta than the
    /// stream has dimensions used to drop the extra values on encode (two
    /// 2-d `End`s came out as 8 bytes) and then index out of bounds on
    /// decode. Encoding now fails loudly and decoding returns a typed error.
    #[test]
    #[should_panic(expected = "2-dimensional values but only 1 value quanta")]
    fn compact_encode_refuses_more_dims_than_quanta() {
        let mut codec = CompactCodec::new(0.5, &[0.01]);
        let mut buf = BytesMut::new();
        codec.encode(&Message::End { t: 1.0, x: [2.0, 3.0].into() }, 2, &mut buf);
    }

    #[test]
    fn compact_decode_with_more_dims_than_quanta_is_a_typed_error() {
        let mut wide = CompactCodec::new(0.5, &[0.01, 0.01]);
        let mut buf = BytesMut::new();
        for msg in [
            Message::End { t: 1.0, x: [2.0, 3.0].into() },
            Message::Provisional {
                t_anchor: 1.0,
                x_anchor: [2.0, 3.0].into(),
                slopes: [0.5, 0.5].into(),
                covers_through: 2.0,
            },
        ] {
            buf.clear();
            wide.reset();
            wide.encode(&msg, 2, &mut buf);
            let mut narrow = CompactCodec::new(0.5, &[0.01]);
            assert_eq!(
                narrow.decode(&mut buf.clone().freeze(), 2),
                Err(WireError::MissingQuanta { dims: 2, quanta: 1 })
            );
            // The codec that has every quantum decodes the same bytes.
            wide.reset();
            assert!(wide.decode(&mut buf.clone().freeze(), 2).is_ok());
        }
        // Frame headers carry no values and decode whatever the quanta.
        buf.clear();
        wide.encode(&Message::StreamFrame { stream: 3 }, 2, &mut buf);
        let mut narrow = CompactCodec::new(0.5, &[0.01]);
        assert_eq!(narrow.decode(&mut buf.freeze(), 2), Ok(Message::StreamFrame { stream: 3 }));
    }

    #[test]
    fn scalar_count_matches_payload() {
        assert_eq!(Message::End { t: 0.0, x: [0.0; 3].into() }.scalar_count(), 4);
        assert_eq!(
            Message::Provisional {
                t_anchor: 0.0,
                x_anchor: [0.0; 3].into(),
                slopes: [0.0; 3].into(),
                covers_through: 0.0
            }
            .scalar_count(),
            8
        );
    }
}
