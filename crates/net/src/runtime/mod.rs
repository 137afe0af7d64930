//! A minimal single-threaded futures runtime: executor, timers, and a
//! spawner.
//!
//! The offline-build policy that vendors `rand`/`bytes`/`proptest`/
//! `criterion` as API stand-ins (see `vendor/README.md`) applies to the
//! async runtime too: no `tokio`, no `mio` — just `std`. The design is
//! the smallest thing that honestly drives this crate's tasks
//! ([`drive_collector`](crate::drive_collector) and the ops and query
//! servers built on it), all of which wait on timers, never on fd
//! readiness:
//!
//! * **Executor** — single-threaded, cooperative. Tasks are `!Send`
//!   futures boxed on the local heap; wakers carry a task id into a
//!   mutex-protected ready queue (wakers must be `Send`, the tasks never
//!   leave the thread). [`block_on`] runs a root future plus everything
//!   it [`spawn`](Spawner::spawn)s.
//! * **Idle wait** — with nothing runnable, the executor thread parks
//!   until the next timer deadline (at most 50 ms). A waker fired from
//!   another thread queues its task and unparks the executor, so a
//!   cross-thread wake never waits out the park.
//! * **Timers** — a deadline list consulted for the park timeout;
//!   [`sleep`] and [`yield_now`] are the primitives the drivers use to
//!   pace their pump loops.
//!
//! ```
//! use pla_net::runtime;
//! use std::{cell::Cell, rc::Rc};
//!
//! let hits = Rc::new(Cell::new(0u32));
//! let h = hits.clone();
//! let out = runtime::block_on(async move {
//!     let spawner = runtime::spawner();
//!     let h2 = h.clone();
//!     spawner.spawn(async move { h2.set(h2.get() + 21) });
//!     // Turns are FIFO: the first yield queues this task's own wake
//!     // ahead of the child, so yield twice to see the child's effect.
//!     runtime::yield_now().await;
//!     runtime::yield_now().await;
//!     h.get() + 21
//! });
//! assert_eq!(out, 42);
//! ```

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// How long the idle executor parks when no timer is due sooner.
const IDLE_PARK: Duration = Duration::from_millis(50);

/// The wake-up strategy driving the executor.
///
/// There is one: the executor parks its thread until the next timer
/// and cross-thread wakes unpark it. The type remains only as run
/// metadata ([`active_reactor`]), so tools that record which runtime
/// produced a measurement keep a stable field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReactorKind {
    /// Timer-bounded thread parking, woken early by cross-thread wakes.
    PollLoop,
}

/// Wakes the executor thread and marks one task runnable. This is the
/// only piece that crosses threads, hence the `Mutex` (uncontended in
/// the single-threaded common case).
struct TaskWaker {
    id: u64,
    ready: Arc<ReadyQueue>,
}

struct ReadyQueue {
    ids: Mutex<VecDeque<u64>>,
    /// The executor thread, unparked by every push.
    executor: Thread,
}

impl ReadyQueue {
    fn push(&self, id: u64) {
        self.ids.lock().expect("ready queue").push_back(id);
        self.executor.unpark();
    }

    fn pop(&self) -> Option<u64> {
        self.ids.lock().expect("ready queue").pop_front()
    }
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.ready.push(self.id);
    }
}

/// Spawner and timer state shared between the executor and the futures
/// it polls, installed in a thread-local while the executor runs.
#[derive(Default)]
struct Shared {
    /// Tasks spawned from inside other tasks, picked up each turn.
    spawned: RefCell<Vec<LocalFuture>>,
    /// Timer deadlines with their wakers.
    timers: RefCell<Vec<(Instant, Waker)>>,
}

thread_local! {
    static CURRENT: RefCell<Option<Rc<Shared>>> = const { RefCell::new(None) };
}

fn with_shared<R>(f: impl FnOnce(&Rc<Shared>) -> R) -> R {
    CURRENT.with(|cur| {
        let cur = cur.borrow();
        let shared = cur.as_ref().expect(
            "pla-net runtime primitive used outside runtime::block_on \
             (sleep/spawn need a running executor)",
        );
        f(shared)
    })
}

/// Resets the thread-local runtime slot when `block_on` unwinds.
struct CurrentGuard;

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|cur| *cur.borrow_mut() = None);
    }
}

/// Spawns tasks onto the running executor from inside a task.
#[derive(Clone)]
pub struct Spawner {
    shared: Rc<Shared>,
}

impl Spawner {
    /// Queues `fut` to run on the current executor. The task is polled
    /// starting with the executor's next turn.
    pub fn spawn(&self, fut: impl Future<Output = ()> + 'static) {
        self.shared.spawned.borrow_mut().push(Box::pin(fut));
    }
}

/// A [`Spawner`] for the running executor.
///
/// # Panics
///
/// Panics outside [`block_on`].
pub fn spawner() -> Spawner {
    Spawner { shared: with_shared(Rc::clone) }
}

/// The wake-up strategy driving the current executor (always
/// [`ReactorKind::PollLoop`]; kept as run metadata).
///
/// # Panics
///
/// Panics outside [`block_on`].
pub fn active_reactor() -> ReactorKind {
    with_shared(|_| ReactorKind::PollLoop)
}

/// Runs `root` to completion on the current thread, driving every task
/// it spawns. Spawned tasks still pending when the root completes are
/// dropped (structured teardown: the root future owns the session).
pub fn block_on<F: Future>(root: F) -> F::Output {
    let shared = Rc::new(Shared::default());
    CURRENT.with(|cur| {
        assert!(cur.borrow().is_none(), "nested runtime::block_on on one thread");
        *cur.borrow_mut() = Some(shared.clone());
    });
    let _guard = CurrentGuard;

    let ready =
        Arc::new(ReadyQueue { ids: Mutex::new(VecDeque::new()), executor: std::thread::current() });
    const ROOT_ID: u64 = 0;
    let mut next_id: u64 = 1;
    let mut tasks: HashMap<u64, LocalFuture> = HashMap::new();
    let mut root = Box::pin(root);
    ready.push(ROOT_ID);

    // Adopt tasks spawned since the last check: queueing them right
    // after the spawning task's poll keeps turns FIFO-fair (a task that
    // spawns then self-wakes cannot starve its children).
    let mut adopt = |tasks: &mut HashMap<u64, LocalFuture>| {
        for fut in shared.spawned.borrow_mut().drain(..) {
            let id = next_id;
            next_id += 1;
            tasks.insert(id, fut);
            ready.push(id);
        }
    };

    loop {
        adopt(&mut tasks);

        // Fire due timers.
        let now = Instant::now();
        shared.timers.borrow_mut().retain(|(deadline, waker)| {
            if *deadline <= now {
                waker.wake_by_ref();
                false
            } else {
                true
            }
        });

        // Poll everything runnable.
        let mut polled_any = false;
        while let Some(id) = ready.pop() {
            polled_any = true;
            let waker = Waker::from(Arc::new(TaskWaker { id, ready: ready.clone() }));
            let mut cx = Context::from_waker(&waker);
            if id == ROOT_ID {
                if let Poll::Ready(out) = root.as_mut().poll(&mut cx) {
                    return out;
                }
            } else if let Some(mut fut) = tasks.remove(&id) {
                if fut.as_mut().poll(&mut cx).is_pending() {
                    tasks.insert(id, fut);
                }
            }
            adopt(&mut tasks);
        }
        if polled_any {
            continue;
        }

        // Nothing runnable: park until the next timer is due or a
        // cross-thread wake unparks us, whichever comes first. A wake
        // that lands before the park leaves the thread's unpark token
        // set, so the park returns at once and nothing is lost.
        let next_timer = shared.timers.borrow().iter().map(|(d, _)| *d).min();
        let timeout = next_timer
            .map_or(IDLE_PARK, |deadline| deadline.saturating_duration_since(Instant::now()));
        if !timeout.is_zero() {
            std::thread::park_timeout(timeout);
        }
    }
}

/// Completes after the given duration (while other tasks keep running).
pub fn sleep(duration: Duration) -> impl Future<Output = ()> {
    let deadline = Instant::now() + duration;
    let mut registered = false;
    std::future::poll_fn(move |cx| {
        if Instant::now() >= deadline {
            Poll::Ready(())
        } else {
            if !registered {
                with_shared(|s| s.timers.borrow_mut().push((deadline, cx.waker().clone())));
                registered = true;
            }
            Poll::Pending
        }
    })
}

/// Yields once, letting every other runnable task take a turn.
pub fn yield_now() -> impl Future<Output = ()> {
    let mut yielded = false;
    std::future::poll_fn(move |cx| {
        if yielded {
            Poll::Ready(())
        } else {
            yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    })
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

    #[test]
    fn spawned_tasks_run_and_interleave() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let out = block_on({
            let log = log.clone();
            async move {
                let spawner = spawner();
                for id in 0..3 {
                    let log = log.clone();
                    spawner.spawn(async move {
                        log.borrow_mut().push(id);
                        yield_now().await;
                        log.borrow_mut().push(id + 10);
                    });
                }
                // Give the children two turns.
                yield_now().await;
                yield_now().await;
                yield_now().await;
                log.borrow().len()
            }
        });
        assert_eq!(out, 6, "all three tasks completed both halves");
        let log = log.borrow();
        // First halves all ran before any second half (cooperative turns).
        assert_eq!(&log[..3], &[0, 1, 2]);
    }

    #[test]
    fn sleep_orders_by_deadline() {
        let order = Rc::new(RefCell::new(Vec::new()));
        block_on({
            let order = order.clone();
            async move {
                let spawner = spawner();
                let o1 = order.clone();
                spawner.spawn(async move {
                    sleep(Duration::from_millis(20)).await;
                    o1.borrow_mut().push("late");
                });
                let o2 = order.clone();
                spawner.spawn(async move {
                    sleep(Duration::from_millis(1)).await;
                    o2.borrow_mut().push("early");
                });
                sleep(Duration::from_millis(40)).await;
            }
        });
        assert_eq!(*order.borrow(), vec!["early", "late"]);
    }

    /// A waker fired from another thread must cut the idle park short.
    /// No timer is armed, so without the unpark every round would sit
    /// out the full [`IDLE_PARK`] before polling the woken root again.
    #[test]
    fn cross_thread_wake_interrupts_the_idle_park() {
        const ROUNDS: u32 = 20;
        let start = Instant::now();
        for _ in 0..ROUNDS {
            let slot: Arc<Mutex<(bool, Option<Waker>)>> = Arc::default();
            let waker_thread = std::thread::spawn({
                let slot = slot.clone();
                move || {
                    // Wait for the root to suspend, give the executor
                    // time to park, then complete and wake it.
                    while slot.lock().unwrap().1.is_none() {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(2));
                    let waker = {
                        let mut slot = slot.lock().unwrap();
                        slot.0 = true;
                        slot.1.take().unwrap()
                    };
                    waker.wake();
                }
            });
            block_on(std::future::poll_fn(|cx| {
                let mut slot = slot.lock().unwrap();
                if slot.0 {
                    Poll::Ready(())
                } else {
                    slot.1 = Some(cx.waker().clone());
                    Poll::Pending
                }
            }));
            waker_thread.join().unwrap();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < IDLE_PARK * ROUNDS / 2,
            "{ROUNDS} cross-thread wakes took {elapsed:?}: the wake did not unpark the executor"
        );
    }

    #[test]
    #[should_panic(expected = "outside runtime::block_on")]
    fn primitives_outside_block_on_panic() {
        with_shared(|_| ());
    }
}
