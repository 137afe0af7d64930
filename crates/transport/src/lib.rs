//! # pla-transport — transmitter/receiver substrate
//!
//! The paper's motivating deployment (§1–2) is a transmitter (sensor,
//! monitored host) that filters its stream locally and a receiver (the
//! DSMS / repository) that reconstructs the approximation from the
//! recordings it is sent. This crate builds that pipeline:
//!
//! * [`wire`] — the message protocol and two byte codecs (fixed-width
//!   and a delta/varint compact codec);
//! * [`Transmitter`] — wraps any [`StreamFilter`](pla_core::filters::StreamFilter)
//!   and turns its segments into wire messages, counting messages, bytes,
//!   and recordings;
//! * [`Receiver`] — decodes messages back into segments and tracks how far
//!   its reconstruction reaches (`covered_through`), which defines the
//!   *lag*;
//! * [`StreamDemux`] — the multi-stream receiver: one connection carries
//!   many logical streams, and the demultiplexer rebuilds one segment log
//!   per stream — from a byte stream interleaved behind `StreamFrame`
//!   headers ([`StreamDemux::consume`]), or from header-less sequenced
//!   entries that name their stream out of band
//!   ([`StreamDemux::consume_sequenced`] with a per-stream sequence
//!   number, or [`StreamDemux::consume_next`] behind a transport that
//!   sequences entries itself, as `pla-net`'s `Batch` frames do);
//! * [`simulate_lag`] — end-to-end lag measurement backing the paper's
//!   `m_max_lag` bound;
//! * [`packing`] — the §5.4 analysis: compressing `d` dimensions jointly
//!   versus independently, with the `(d+1)/2d` time-redundancy factor
//!   measured rather than assumed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

mod channel;
pub mod packing;
mod receiver;
mod transmitter;
pub mod wire;

pub use channel::simulate_lag;
pub use receiver::{ReceiveError, Receiver, SeqOutcome, StreamDemux};
pub use transmitter::{Transmitter, TransmitterStats};
