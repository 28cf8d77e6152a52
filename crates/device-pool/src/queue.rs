//! Per-device work queues with stealing.
//!
//! Each device owns a FIFO of jobs routed to it. A worker normally pops
//! its own queue; when that is empty (and stealing is allowed) it takes
//! the *oldest* job from the longest other queue **with a backlog of at
//! least two** — a lone queued job is left for its owner, who is about to
//! serve it, so an idle thief never races the owner's wake-up for it.
//! With a [`backup age`](StealQueues::with_backup_age) configured, that
//! courtesy expires: a lone job whose owner has not served it within the
//! age budget (measured on the queues' [`Clock`], so it works under both
//! real and simulated time) is considered *backed up* and becomes fair
//! game for an idle thief; [`Pop::Job`] names the robbed queue, so the
//! caller can count thefts. A worker whose device has died pops with stealing disabled so it only drains work
//! already routed to the dead device — healthy workers steal the rest of
//! any backlog.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use gpu_sim::{Clock, Tick};

/// Result of a blocking [`StealQueues::pop`].
#[derive(Debug, PartialEq, Eq)]
pub enum Pop<J> {
    /// A job, plus the id of the queue it came from (`from != dev` means
    /// it was stolen).
    Job {
        /// The job itself.
        job: J,
        /// Queue the job was taken from.
        from: usize,
    },
    /// The queues are closed and no job was available to this caller.
    Closed,
}

struct Inner<J> {
    queues: Vec<VecDeque<(Tick, J)>>,
    closed: bool,
}

/// A set of per-device FIFOs with blocking pop and work-stealing.
pub struct StealQueues<J> {
    inner: Mutex<Inner<J>>,
    cv: Condvar,
    clock: Clock,
    /// Age (in clock nanoseconds) past which a lone queued job counts as
    /// backed up and may be stolen; `None` keeps lone jobs owner-only.
    backup_age: Option<u64>,
}

impl<J> StealQueues<J> {
    /// Creates `n` empty queues on a real clock with backup detection off.
    pub fn new(n: usize) -> Self {
        Self::with_clock(n, Clock::real())
    }

    /// Creates `n` empty queues whose job ages are measured on `clock`.
    /// Backup detection starts disabled; see
    /// [`with_backup_age`](Self::with_backup_age).
    pub fn with_clock(n: usize, clock: Clock) -> Self {
        assert!(n >= 1, "need at least one queue");
        Self {
            inner: Mutex::new(Inner {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                closed: false,
            }),
            cv: Condvar::new(),
            clock,
            backup_age: None,
        }
    }

    /// Enables backup detection: a lone queued job older than `age` (on
    /// this queue set's clock) may be stolen even though queues holding a
    /// single fresh job are normally owner-only.
    #[must_use]
    pub fn with_backup_age(mut self, age: Duration) -> Self {
        self.backup_age = Some(age.as_nanos().min(u64::MAX as u128) as u64);
        self
    }

    /// Appends `job` to device `dev`'s queue, stamped with the current
    /// clock tick, and wakes a waiting worker. Jobs pushed after
    /// [`close`](Self::close) are still delivered (the queues drain fully
    /// before `Closed` is reported).
    pub fn push(&self, dev: usize, job: J) {
        let at = self.clock.now();
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.queues[dev].push_back((at, job));
        drop(inner);
        self.cv.notify_all();
    }

    /// `true` iff a queue may be robbed by an idle thief: either it has a
    /// backlog of at least two, or backup detection is on and its lone
    /// head job has lingered past the configured age.
    fn stealable(&self, queue: &VecDeque<(Tick, J)>, now: Tick) -> bool {
        if queue.len() >= 2 {
            return true;
        }
        match (self.backup_age, queue.front()) {
            (Some(age), Some(&(at, _))) => now.saturating_sub(at) >= age,
            _ => false,
        }
    }

    /// Takes a job for `dev` without blocking: own queue first; otherwise,
    /// when `allow_steal`, the oldest job of the longest other *stealable*
    /// queue. Returns the job and the queue it came from.
    pub fn try_pop(&self, dev: usize, allow_steal: bool) -> Option<(J, usize)> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        self.take(&mut inner, dev, allow_steal)
    }

    fn take(&self, inner: &mut Inner<J>, dev: usize, allow_steal: bool) -> Option<(J, usize)> {
        if let Some((_, job)) = inner.queues[dev].pop_front() {
            return Some((job, dev));
        }
        if !allow_steal {
            return None;
        }
        let now = self.clock.now();
        let victim = (0..inner.queues.len())
            .filter(|&q| q != dev && self.stealable(&inner.queues[q], now))
            .max_by_key(|&q| inner.queues[q].len())?;
        let (_, job) = inner.queues[victim].pop_front().expect("victim is non-empty");
        Some((job, victim))
    }

    /// Blocks until a job is available to this worker or the queues are
    /// closed *and* drained (from this worker's point of view).
    ///
    /// Own queue first; otherwise, when `allow_steal`, the oldest job of
    /// the longest other *stealable* queue is stolen. A queue holding a single job is normally never robbed: its
    /// owner is presumed about to serve it, and leaving it alone keeps
    /// lone jobs from ping-ponging to whichever idle worker wins the
    /// wake-up race — unless backup detection is on and the lone job has
    /// outstayed the configured age, in which case the owner is presumed
    /// stuck and the job is rescued. With `allow_steal == false` only
    /// `dev`'s own queue is served — the drain mode used by a dead
    /// device's worker.
    pub fn pop(&self, dev: usize, allow_steal: bool) -> Pop<J> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some((job, from)) = self.take(&mut inner, dev, allow_steal) {
                return Pop::Job { job, from };
            }
            if inner.closed {
                return Pop::Closed;
            }
            // With backup detection on, a lone job can become stealable by
            // the mere passage of time — no push will ring the condvar, so
            // wake periodically to re-check ages. Without it, state only
            // changes on push/close and a plain wait suffices.
            match self.backup_age {
                Some(age) if allow_steal => {
                    let nap = if self.clock.is_sim() {
                        // Real parking under a simulated clock: take short
                        // naps so steals react as soon as the (externally
                        // advanced) virtual time crosses the age threshold.
                        gpu_sim::clock::SIM_POLL_QUANTUM
                    } else {
                        Duration::from_nanos(age.max(1))
                    };
                    let (guard, _timeout) =
                        self.cv.wait_timeout(inner, nap).unwrap_or_else(|p| p.into_inner());
                    inner = guard;
                }
                _ => {
                    inner = self.cv.wait(inner).unwrap_or_else(|p| p.into_inner());
                }
            }
        }
    }

    /// Removes and returns every job currently queued on `dev` (used to
    /// re-route a dead device's backlog).
    pub fn drain(&self, dev: usize) -> Vec<J> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.queues[dev].drain(..).map(|(_, job)| job).collect()
    }

    /// Closes the queues: blocked workers wake, drain what remains, and
    /// then observe [`Pop::Closed`].
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.closed = true;
        drop(inner);
        self.cv.notify_all();
    }

    /// Current queue depths, id order.
    pub fn depths(&self) -> Vec<usize> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        inner.queues.iter().map(VecDeque::len).collect()
    }
}

impl<J> core::fmt::Debug for StealQueues<J> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StealQueues")
            .field("depths", &self.depths())
            .field("backup_age_ns", &self.backup_age)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn own_queue_is_fifo_and_preferred() {
        let q = StealQueues::new(2);
        q.push(0, 'a');
        q.push(0, 'b');
        q.push(1, 'z');
        assert_eq!(q.pop(0, true), Pop::Job { job: 'a', from: 0 });
        assert_eq!(q.pop(0, true), Pop::Job { job: 'b', from: 0 });
    }

    #[test]
    fn steals_oldest_job_of_longest_queue() {
        let q = StealQueues::new(3);
        q.push(1, 10);
        q.push(2, 20);
        q.push(2, 21);
        assert_eq!(q.pop(0, true), Pop::Job { job: 20, from: 2 }, "longest queue loses its head");
        assert_eq!(q.depths(), vec![0, 1, 1]);
    }

    #[test]
    fn try_pop_never_blocks_and_follows_pop_order() {
        let q = StealQueues::new(2);
        assert_eq!(q.try_pop(0, true), None, "empty queues: no job, no wait");
        q.push(1, 'x');
        assert_eq!(q.try_pop(0, true), None, "a lone job is left for its owner");
        q.push(1, 'y');
        assert_eq!(q.try_pop(0, false), None, "no-steal mode");
        assert_eq!(q.try_pop(0, true), Some(('x', 1)), "a backlog is stealable");
        assert_eq!(q.try_pop(1, true), Some(('y', 1)));
    }

    #[test]
    fn no_steal_mode_only_drains_own_queue() {
        let q = StealQueues::new(2);
        q.push(1, 5);
        q.close();
        assert_eq!(q.pop(0, false), Pop::<i32>::Closed, "dev 0 must not touch dev 1's jobs");
        assert_eq!(q.pop(1, false), Pop::Job { job: 5, from: 1 });
        assert_eq!(q.pop(1, false), Pop::<i32>::Closed);
    }

    #[test]
    fn close_drains_before_reporting_closed() {
        let q = StealQueues::new(1);
        q.push(0, 1);
        q.push(0, 2);
        q.close();
        assert_eq!(q.pop(0, true), Pop::Job { job: 1, from: 0 });
        assert_eq!(q.pop(0, true), Pop::Job { job: 2, from: 0 });
        assert_eq!(q.pop(0, true), Pop::<i32>::Closed);
    }

    #[test]
    fn drain_empties_one_queue_for_rerouting() {
        let q = StealQueues::new(2);
        q.push(0, 1);
        q.push(0, 2);
        q.push(1, 3);
        assert_eq!(q.drain(0), vec![1, 2]);
        assert_eq!(q.depths(), vec![0, 1]);
    }

    #[test]
    fn blocked_worker_wakes_on_push_and_on_close() {
        let q = Arc::new(StealQueues::new(2));
        let qa = q.clone();
        let h = std::thread::spawn(move || qa.pop(0, true));
        std::thread::sleep(std::time::Duration::from_millis(10));
        // A lone job on queue 1 belongs to its owner; a *backlog* is
        // stealable, so the blocked worker 0 wakes for the second push.
        q.push(1, 7);
        q.push(1, 8);
        assert_eq!(h.join().unwrap(), Pop::Job { job: 7, from: 1 });
        assert_eq!(q.pop(1, true), Pop::Job { job: 8, from: 1 });

        let qb = q.clone();
        let h = std::thread::spawn(move || qb.pop(1, true));
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(h.join().unwrap(), Pop::<i32>::Closed);
    }

    #[test]
    fn lone_job_is_left_for_its_owner() {
        let q = StealQueues::new(2);
        q.push(1, 9);
        q.close();
        // Worker 0 may not rob the single queued job even though its own
        // queue is empty — owner 1 is presumed about to serve it.
        assert_eq!(q.pop(0, true), Pop::<i32>::Closed);
        assert_eq!(q.pop(1, true), Pop::Job { job: 9, from: 1 });
        assert_eq!(q.pop(1, true), Pop::<i32>::Closed);
    }

    #[test]
    fn backed_up_lone_job_is_rescued_after_the_age_budget() {
        let clock = Clock::sim();
        let q = StealQueues::with_clock(2, clock.clone()).with_backup_age(Duration::from_millis(5));
        q.push(1, 9);
        q.close();
        // Fresh lone job: still owner-only.
        assert_eq!(q.pop(0, true), Pop::<i32>::Closed);
        // Past the age budget the owner is presumed stuck and the job is
        // fair game for the idle thief.
        clock.advance(Duration::from_millis(6));
        assert_eq!(q.pop(0, true), Pop::Job { job: 9, from: 1 });
    }

    #[test]
    fn parked_thief_wakes_when_a_lone_job_goes_stale() {
        let clock = Clock::sim();
        let q = Arc::new(
            StealQueues::with_clock(2, clock.clone()).with_backup_age(Duration::from_millis(5)),
        );
        q.push(1, 42);
        let qa = q.clone();
        let h = std::thread::spawn(move || qa.pop(0, true));
        // The thief is parked: the lone job is fresh. Advancing virtual
        // time past the budget makes it stale; the thief's periodic
        // re-check must pick it up without any push or close.
        std::thread::sleep(std::time::Duration::from_millis(10));
        clock.advance(Duration::from_millis(6));
        assert_eq!(h.join().unwrap(), Pop::Job { job: 42, from: 1 });
    }
}
