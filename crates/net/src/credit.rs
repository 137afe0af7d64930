//! Connection credit flow control, in *cumulative offsets*.
//!
//! One window covers every stream of a connection — QUIC's `MAX_DATA`,
//! not `MAX_STREAM_DATA`: the collector applies each entry as it
//! arrives, so there is no per-stream consumer for a per-stream window
//! to protect. Both counters only ever grow, which makes reconnect
//! trivial: a grant applied twice (a replayed `Ack` or `HelloAck`) is a
//! no-op, so neither side reconciles "how much was in flight" after a
//! connection dies.
//!
//! * The **sender** holds a [`CreditWindow`]: `used` payload bytes sent
//!   since the session began versus the `granted` cumulative budget. A
//!   send that would cross the budget is refused — surfaced to callers
//!   as [`NetError::Backpressure`](crate::NetError::Backpressure).
//! * The **receiver** holds a [`ReceiveWindow`]: `delivered` payload
//!   bytes applied. It keeps the sender's budget topped up to
//!   `delivered + window`, re-granting once half the window is consumed
//!   (so grants ride about two `Ack`s per window, not every one).

/// Sender-side credit accounting for one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditWindow {
    granted: u64,
    used: u64,
}

impl CreditWindow {
    /// A window with `initial` bytes implicitly granted (the
    /// protocol-constant initial budget both sides agree on).
    pub fn new(initial: u64) -> Self {
        Self { granted: initial, used: 0 }
    }

    /// Bytes still available to send.
    pub fn available(&self) -> u64 {
        self.granted - self.used
    }

    /// Reserves `n` bytes if the budget covers them.
    #[must_use]
    pub fn try_reserve(&mut self, n: u64) -> bool {
        if n <= self.available() {
            self.used += n;
            true
        } else {
            false
        }
    }

    /// Applies a cumulative grant. Monotonic: a stale or replayed grant
    /// (`total` ≤ current) changes nothing.
    pub fn grant_to(&mut self, total: u64) {
        self.granted = self.granted.max(total);
    }
}

/// Receiver-side grant scheduling for one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiveWindow {
    delivered: u64,
    granted: u64,
    window: u64,
}

impl ReceiveWindow {
    /// A window matching a sender's `CreditWindow::new(window)`.
    pub fn new(window: u64) -> Self {
        Self { delivered: 0, granted: window, window }
    }

    /// Records `n` payload bytes applied.
    pub fn on_delivered(&mut self, n: u64) {
        self.delivered += n;
    }

    /// The grant to announce now, if one is due (less than half the
    /// window still granted ahead of delivery). Returns the new
    /// cumulative total and records it as announced.
    pub fn due_grant(&mut self) -> Option<u64> {
        // Saturating: a peer that overran its grant gets topped up from
        // what was actually delivered, not a wrapped difference.
        if self.granted.saturating_sub(self.delivered) < self.window / 2 {
            self.granted = self.delivered + self.window;
            Some(self.granted)
        } else {
            None
        }
    }

    /// The current cumulative grant — what a session resume's
    /// `HelloAck` re-announces regardless of
    /// [`due_grant`](Self::due_grant)'s batching.
    pub fn current_grant(&self) -> u64 {
        self.granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_within_budget_then_refuse() {
        let mut w = CreditWindow::new(10);
        assert!(w.try_reserve(6));
        assert!(w.try_reserve(4));
        assert_eq!(w.available(), 0);
        assert!(!w.try_reserve(1), "budget exhausted");
        w.grant_to(15);
        assert!(w.try_reserve(5));
        assert!(!w.try_reserve(1));
    }

    #[test]
    fn grants_are_monotonic_and_replay_safe() {
        let mut w = CreditWindow::new(10);
        w.grant_to(100);
        w.grant_to(40); // stale replay
        assert_eq!(w.available(), 100);
        w.grant_to(100); // exact replay
        assert_eq!(w.available(), 100);
    }

    #[test]
    fn receive_window_batches_grants() {
        let mut r = ReceiveWindow::new(100);
        assert_eq!(r.due_grant(), None, "nothing consumed yet");
        r.on_delivered(40);
        assert_eq!(r.due_grant(), None, "60 > half the window still granted");
        r.on_delivered(20);
        assert_eq!(r.due_grant(), Some(160), "40 < 50 → top up to delivered + window");
        assert_eq!(r.due_grant(), None, "grant announced once");
        assert_eq!(r.current_grant(), 160);
    }

    #[test]
    fn sender_and_receiver_windows_agree_end_to_end() {
        let mut tx = CreditWindow::new(100);
        let mut rx = ReceiveWindow::new(100);
        let mut sent_total = 0u64;
        for _ in 0..50 {
            // Send 30 bytes whenever credit allows; deliver and maybe
            // re-grant on the other side.
            if tx.try_reserve(30) {
                sent_total += 30;
                rx.on_delivered(30);
                if let Some(total) = rx.due_grant() {
                    tx.grant_to(total);
                }
            }
        }
        assert!(sent_total >= 30 * 40, "flow keeps moving: sent {sent_total}");
        assert!(rx.current_grant() >= sent_total + 50, "the grant stays half a window ahead");
    }
}
