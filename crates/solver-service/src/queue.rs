//! Bounded admission queue with reject-on-full backpressure.
//!
//! The front door of the service. Unlike an unbounded channel, admission is
//! capped: when the queue is at capacity [`BoundedQueue::push`] fails
//! *immediately* instead of blocking the submitter — the service sheds load
//! at the edge rather than letting latency grow without bound (the same
//! policy as any production inference server's admission controller).
//!
//! The consumer side supports deadline-bounded draining
//! ([`BoundedQueue::pop_all_until`]) so the batcher can sleep exactly until
//! its earliest linger deadline, whichever of "new request" or "time to
//! flush" comes first, and then takes everything queued under one lock.
//! A push rings the condvar only while the consumer is parked on it: a
//! busy consumer re-checks the queue before parking, so the notify would
//! wake nobody.

use gpu_sim::{Clock, Tick};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused (the item comes back with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; nothing was enqueued.
    Full,
    /// The queue has been closed; nothing was enqueued.
    Closed,
}

/// Outcome of a deadline-bounded drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pop {
    /// At least one item was moved into the caller's buffer.
    Items,
    /// The deadline passed with the queue still empty.
    TimedOut,
    /// The queue is closed *and* fully drained — the consumer is done.
    Drained,
}

struct State<R> {
    items: VecDeque<R>,
    closed: bool,
    /// The consumer is waiting on `nonempty`.
    parked: bool,
}

/// A multi-producer single-consumer bounded queue (`Mutex` + `Condvar`).
pub struct BoundedQueue<R> {
    state: Mutex<State<R>>,
    nonempty: Condvar,
    capacity: usize,
}

impl<R> BoundedQueue<R> {
    /// Creates a queue admitting at most `capacity` pending items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be >= 1");
        Self {
            state: Mutex::new(State { items: VecDeque::new(), closed: false, parked: false }),
            nonempty: Condvar::new(),
            capacity,
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current depth (approximate the instant the lock is released).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attempts to enqueue; never blocks. A refused item is handed back.
    pub fn push(&self, item: R) -> Result<(), (PushError, R)> {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if s.closed {
            return Err((PushError::Closed, item));
        }
        if s.items.len() >= self.capacity {
            return Err((PushError::Full, item));
        }
        s.items.push_back(item);
        let wake = s.parked;
        drop(s);
        if wake {
            self.nonempty.notify_one();
        }
        Ok(())
    }

    /// Moves every queued item into `out`, waiting until `deadline` on
    /// `clock` (forever when `None`) for the queue to become non-empty.
    ///
    /// Once closed, remaining items are still handed out in order;
    /// [`Pop::Drained`] is only returned when closed *and* empty, so no
    /// admitted request is ever dropped by shutdown.
    ///
    /// Under a simulated clock the wait parks in short real quanta and
    /// re-checks virtual time (see [`Clock::park_budget`]) so a deadline
    /// advanced by another thread is observed promptly; a deadline that
    /// has already virtually passed returns [`Pop::TimedOut`] without
    /// parking at all.
    pub fn pop_all_until(&self, deadline: Option<Tick>, clock: &Clock, out: &mut Vec<R>) -> Pop {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if !s.items.is_empty() {
                out.extend(s.items.drain(..));
                return Pop::Items;
            }
            if s.closed {
                return Pop::Drained;
            }
            let budget = match deadline {
                None => None,
                Some(d) => match clock.park_budget(d) {
                    None => return Pop::TimedOut,
                    budget => budget,
                },
            };
            s.parked = true;
            s = match budget {
                None => self.nonempty.wait(s).unwrap_or_else(|p| p.into_inner()),
                Some(budget) => {
                    self.nonempty.wait_timeout(s, budget).unwrap_or_else(|p| p.into_inner()).0
                }
            };
            s.parked = false;
            // A sim clock that cannot move on its own would spin here
            // forever: the batcher is the only thread advancing it, so push
            // it to the deadline once the real quantum elapsed fruitlessly.
            if let Some(d) = deadline {
                if clock.is_sim() && s.items.is_empty() && !s.closed {
                    clock.advance_to(d);
                }
            }
        }
    }

    /// Closes the queue: future pushes fail, the consumer drains what is
    /// left and then observes [`Pop::Drained`].
    pub fn close(&self) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        s.closed = true;
        drop(s);
        self.nonempty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn push_rejects_instead_of_blocking_when_full() {
        let q = BoundedQueue::new(2);
        assert!(q.push(1).is_ok());
        assert!(q.push(2).is_ok());
        let start = Instant::now();
        assert_eq!(q.push(3), Err((PushError::Full, 3)), "the refused item comes back");
        // Rejection is immediate — the hallmark of backpressure-by-shedding.
        assert!(start.elapsed() < Duration::from_millis(50));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn pop_honours_the_deadline_on_a_real_clock() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        let clock = Clock::real();
        let deadline = clock.tick_after(Duration::from_millis(10));
        assert_eq!(q.pop_all_until(Some(deadline), &clock, &mut Vec::new()), Pop::TimedOut);
        assert!(clock.now() >= deadline);
    }

    #[test]
    fn pop_on_a_sim_clock_times_out_in_virtual_time() {
        // An hour-long virtual deadline: a real-clock wait would hang the
        // test; the sim clock advances through it in one polling quantum.
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        let clock = Clock::sim();
        let deadline = clock.tick_after(Duration::from_secs(3600));
        let wall = Instant::now();
        assert_eq!(q.pop_all_until(Some(deadline), &clock, &mut Vec::new()), Pop::TimedOut);
        assert!(clock.now() >= deadline, "virtual time reached the deadline");
        assert!(wall.elapsed() < Duration::from_secs(5), "no real hour elapsed");
    }

    #[test]
    fn sim_deadline_already_passed_times_out_without_parking() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        let clock = Clock::sim();
        clock.advance(Duration::from_millis(5));
        let wall = Instant::now();
        assert_eq!(q.pop_all_until(Some(1_000), &clock, &mut Vec::new()), Pop::TimedOut);
        assert!(wall.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn close_drains_remaining_items_before_reporting_drained() {
        let q = BoundedQueue::new(4);
        let clock = Clock::real();
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err((PushError::Closed, 3)));
        let mut got = Vec::new();
        assert_eq!(q.pop_all_until(None, &clock, &mut got), Pop::Items);
        assert_eq!(got, vec![1, 2], "one drain takes everything queued, in order");
        assert_eq!(q.pop_all_until(None, &clock, &mut got), Pop::Drained);
    }

    #[test]
    fn producer_consumer_hand_off_across_threads() {
        let q = std::sync::Arc::new(BoundedQueue::new(8));
        let q2 = q.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..100u32 {
                loop {
                    match q2.push(i) {
                        Ok(()) => break,
                        Err((PushError::Full, _)) => std::thread::yield_now(),
                        Err((PushError::Closed, _)) => panic!("closed early"),
                    }
                }
            }
            q2.close();
        });
        let clock = Clock::real();
        let mut got = Vec::new();
        loop {
            match q.pop_all_until(None, &clock, &mut got) {
                Pop::Items => {}
                Pop::Drained => break,
                Pop::TimedOut => unreachable!("no deadline given"),
            }
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_push_to_a_parked_consumer_is_never_lost() {
        // Every push lands while the consumer is parked with no deadline,
        // so only the push's notify can wake it: a lost wake-up shows as a
        // missed hand-off, not a hang.
        let q = std::sync::Arc::new(BoundedQueue::new(4));
        let (tx, rx) = std::sync::mpsc::channel();
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let clock = Clock::real();
                let mut got = Vec::new();
                while q.pop_all_until(None, &clock, &mut got) == Pop::Items {
                    for item in got.drain(..) {
                        tx.send(item).unwrap();
                    }
                }
            })
        };
        let parked = || q.state.lock().unwrap().parked;
        for i in 0..50u32 {
            let since = Instant::now();
            while !parked() {
                assert!(since.elapsed() < Duration::from_secs(10), "consumer never parked");
                std::thread::yield_now();
            }
            q.push(i).unwrap();
            let handed = rx.recv_timeout(Duration::from_secs(10));
            if handed != Ok(i) {
                q.close();
                panic!("push {i} was not handed to the parked consumer: {handed:?}");
            }
        }
        q.close();
        consumer.join().unwrap();
    }
}
