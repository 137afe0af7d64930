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
//!   many logical streams, and the demultiplexer rebuilds their segments
//!   from *entries*, each a chunk of one stream's codec bytes handed
//!   over with its stream id ([`StreamDemux::consume_next`]), into one
//!   `(stream, segment)` buffer in arrival order; the transport orders
//!   and deduplicates entries itself, as `pla-net`'s `Batch` frames do;
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
pub use receiver::{ReceiveError, Receiver, StreamDemux};
pub use transmitter::{Transmitter, TransmitterStats};
