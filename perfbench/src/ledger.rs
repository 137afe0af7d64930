//! The main-thread time ledger.
//!
//! The main thread calls each layer's public pump in turn and does
//! nothing else, so the time spent inside those calls plus its own
//! leftover time adds up to its wall clock. A traced round wraps every
//! call in a span and charges it to the layer; an untraced round runs
//! the identical calls without touching the clock.

use std::time::{Duration, Instant};

/// A layer whose public calls the main thread times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `IngestHandle::{register, push, push_batch, finish_stream}`,
    /// including the wait on a full shard queue.
    Push,
    /// `EngineUplink::pump`: engine tap into the mux.
    Uplink,
    /// `SessionSender::pump_at` and `MuxSender::finish_all`.
    Session,
    /// `Collector::pump_at`: demux, store append, ack batching.
    Collector,
    /// `QueryServer::pump`.
    Server,
    /// `QueryClient` submits, pumps and completions.
    Client,
    /// `CollectorAdmin` handling `GET /metrics`.
    Scrape,
    /// The benchmark's own store polling (visibility, completion).
    Poll,
    /// The main thread parked because no layer had work for it.
    Idle,
}

impl Layer {
    /// Every layer, in ledger order.
    pub const ALL: [Layer; 9] = [
        Layer::Push,
        Layer::Uplink,
        Layer::Session,
        Layer::Collector,
        Layer::Server,
        Layer::Client,
        Layer::Scrape,
        Layer::Poll,
        Layer::Idle,
    ];
}

/// Per-layer busy time and call counts for the traced rounds.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    on: bool,
    busy: [Duration; Layer::ALL.len()],
    calls: [u64; Layer::ALL.len()],
    /// Main-thread wall clock covered by the traced windows.
    wall: Duration,
    window_start: Option<Instant>,
}

impl Ledger {
    /// Turns span recording on or off for the following calls.
    pub fn set_tracing(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f`, charging its duration to `layer` when tracing.
    #[inline]
    pub fn time<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.busy[layer as usize] += start.elapsed();
        self.calls[layer as usize] += 1;
        out
    }

    /// Opens a measured window of main-thread wall clock (traced rounds only).
    pub fn open_window(&mut self) {
        if self.on {
            self.window_start = Some(Instant::now());
        }
    }

    /// Closes the window opened by [`open_window`](Self::open_window).
    pub fn close_window(&mut self) {
        if let Some(start) = self.window_start.take() {
            self.wall += start.elapsed();
        }
    }

    /// Busy seconds charged to `layer`.
    pub fn busy_s(&self, layer: Layer) -> f64 {
        self.busy[layer as usize].as_secs_f64()
    }

    /// Timed calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Main-thread wall seconds inside measured windows.
    pub fn wall_s(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// Wall time no layer span covers: the main thread's own load generation,
    /// bookkeeping, output checks and the spans' clock reads.
    pub fn unattributed_s(&self) -> f64 {
        self.wall_s() - Layer::ALL.iter().map(|&l| self.busy_s(l)).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_calls_are_not_charged() {
        let mut led = Ledger::default();
        led.open_window();
        assert_eq!(led.time(Layer::Push, || 7), 7);
        led.close_window();
        assert_eq!(led.calls(Layer::Push), 0);
        assert_eq!(led.wall_s(), 0.0);
    }

    #[test]
    fn spans_and_leftover_add_up_to_the_window() {
        let mut led = Ledger::default();
        led.set_tracing(true);
        led.open_window();
        led.time(Layer::Collector, || std::thread::sleep(Duration::from_millis(3)));
        std::thread::sleep(Duration::from_millis(2));
        led.close_window();
        assert_eq!(led.calls(Layer::Collector), 1);
        assert!(led.busy_s(Layer::Collector) >= 0.003);
        assert!(led.unattributed_s() >= 0.002);
        let sum: f64 =
            Layer::ALL.iter().map(|&l| led.busy_s(l)).sum::<f64>() + led.unattributed_s();
        assert!((sum - led.wall_s()).abs() < 1e-12);
    }
}
