//! What is left of the futures runtime: [`block_on`], [`ReactorKind`]
//! and [`active_reactor`].
//!
//! They remain only because perfbench's `meta` line calls
//! `block_on(async { active_reactor() })` to record which driving model
//! produced a run, and they go away with the benchmark change that
//! drops `meta.reactor`. Nothing in the workspace runs on them: every
//! server is driven by a plain loop that calls its synchronous `pump`
//! and sleeps about 1 ms after a round that moved nothing.

use std::future::Future;
use std::pin::pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

/// The driving model behind a run, kept for perfbench's `meta` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReactorKind {
    /// Plain loops: pump, then sleep about 1 ms after an idle round.
    PollLoop,
}

/// Always [`ReactorKind::PollLoop`]; kept for perfbench's `meta` line.
pub fn active_reactor() -> ReactorKind {
    ReactorKind::PollLoop
}

/// Unparks the thread blocked in [`block_on`].
struct Unpark(Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Polls `fut` to completion on the current thread, parking between
/// polls until its waker fires; kept for perfbench's `meta` line.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = pin!(fut);
    loop {
        if let Poll::Ready(out) = fut.as_mut().poll(&mut cx) {
            return out;
        }
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_returns_root_value() {
        assert_eq!(block_on(async { 7 }), 7);
    }

    #[test]
    fn poll_loop_reactor_is_always_selectable() {
        let kind = block_on(async { active_reactor() });
        assert_eq!(kind, ReactorKind::PollLoop);
    }
}
