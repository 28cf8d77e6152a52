//! Micro-batcher: groups admitted requests into size-class batches.
//!
//! The paper's solvers get their throughput from *batching* — one kernel
//! launch solving hundreds of systems at once, a thread block per system.
//! Individual callers submit one system at a time, so the service
//! accumulates requests into per-`n` buckets (systems of different sizes
//! can never share a launch: the kernels are compiled per size class and
//! the batched layout is `n`-contiguous) and flushes a bucket when either
//!
//! * it reaches the **target batch size** (enough occupancy to saturate
//!   the simulated SMs), or
//! * a **worker is idle**: the oldest bucket goes to it at once, because
//!   holding a request back only pays while every worker is busy — a batch
//!   spreads per-flush cost, and an idle worker has none to spread, or
//! * every worker is busy and the oldest request in it has waited **max
//!   linger** (bounding the latency a request can be held hostage for), or
//! * a member's **deadline** would not survive the remaining linger
//!   window — the bucket flushes early (minus a configurable slack that
//!   leaves time for the solve itself), trading occupancy for the
//!   deadline, or
//! * the service is shutting down (everything admitted gets served).
//!
//! Buckets are keyed by size alone. Keyed requests (the factor cache or
//! certified catalog is on) share their size class's bucket whatever
//! their matrix: the dispatcher splits a flush by matrix key, serving
//! recurring matrices as their own groups and every one-hit matrix in one
//! cold batch, so distinct matrices still fill launches instead of each
//! lingering alone.
//!
//! The bucketing logic lives in the pure, thread-free [`BucketTable`] so
//! the edge cases (lone-request linger flush, size-class isolation, flush
//! ordering, oldest-bucket choice) are deterministically testable. The
//! work-conserving rule — which flush goes to which idle worker — and the
//! admission cap live in the equally thread-free [`Scheduler`], the table
//! plus the idle-worker count. The service keeps it under one lock shared
//! by its submitters (which admit and flush on their own thread) and its
//! workers (which pull the most urgent bucket themselves when they run
//! dry). There is no timer: a bucket is only held while every worker is
//! busy, and the first worker to free up takes it.

use crate::request::SolveRequest;
use gpu_sim::Tick;
use std::collections::BTreeMap;
use std::time::Duration;
use tridiag_core::Real;

/// Why a batch was flushed — carried through to the metrics so operators
/// can see whether the service is running full (throughput mode) or
/// lingering (latency mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The bucket reached the target batch size.
    Full,
    /// The bucket's linger window closed: its oldest request waited
    /// `max_linger` while every worker was busy, or — the common case on
    /// an unsaturated service — a worker was idle, which closes the window
    /// at once (see [`Scheduler`]).
    Linger,
    /// A member request's completion deadline forced an early flush
    /// (deadline − slack arrived before the linger window closed).
    Deadline,
    /// Service shutdown drained the bucket.
    Shutdown,
}

impl FlushReason {
    /// Stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FlushReason::Full => "full",
            FlushReason::Linger => "linger",
            FlushReason::Deadline => "deadline",
            FlushReason::Shutdown => "shutdown",
        }
    }
}

/// A group of same-size requests ready for dispatch.
#[derive(Debug)]
pub struct FlushedBatch<T: Real> {
    /// System size shared by every request in the batch.
    pub n: usize,
    /// The member requests (at least one).
    pub requests: Vec<SolveRequest<T>>,
    /// What triggered the flush.
    pub reason: FlushReason,
}

struct Bucket<T: Real> {
    requests: Vec<SolveRequest<T>>,
    /// Admission tick of the *oldest* member — linger is measured from the
    /// first request so the bound holds even under a trickle of arrivals.
    oldest: Tick,
    /// Earliest completion deadline among members carrying one.
    earliest_deadline: Option<Tick>,
}

impl<T: Real> Bucket<T> {
    /// When this bucket must flush: the linger deadline, pulled earlier by
    /// the most urgent member deadline (minus `slack` to leave time for
    /// the solve itself).
    fn flush_at(&self, max_linger: Tick, slack: Tick) -> Tick {
        let linger_at = self.oldest.saturating_add(max_linger);
        match self.earliest_deadline {
            Some(d) => {
                let deadline_at = d.saturating_sub(slack).max(self.oldest);
                linger_at.min(deadline_at)
            }
            None => linger_at,
        }
    }

    /// Attributes a flush at `now`: `Linger` when the linger window is
    /// closed anyway, `Deadline` when a member deadline forced it early.
    fn flush_reason(&self, now: Tick, max_linger: Tick) -> FlushReason {
        if now >= self.oldest.saturating_add(max_linger) {
            FlushReason::Linger
        } else {
            FlushReason::Deadline
        }
    }
}

/// Pure batching state machine: per-size buckets with target/linger flush
/// and deadline-aware early flushing.
///
/// All time is in [`Tick`]s from the service clock, and the buckets live
/// in a `BTreeMap`: when several buckets expire on the same tick they
/// flush in ascending size order, every run — a `HashMap` here would make
/// the flush order (and therefore a captured decision trace) depend on the
/// process's hash seed.
pub struct BucketTable<T: Real> {
    buckets: BTreeMap<usize, Bucket<T>>,
    target_batch: usize,
    max_linger: Tick,
    deadline_slack: Tick,
}

impl<T: Real> BucketTable<T> {
    /// Creates an empty table flushing at `target_batch` requests or after
    /// `max_linger` of the oldest member's wait, whichever comes first.
    /// Deadline slack defaults to 500 µs; see
    /// [`BucketTable::with_deadline_slack`].
    pub fn new(target_batch: usize, max_linger: Duration) -> Self {
        assert!(target_batch >= 1, "target batch size must be >= 1");
        Self {
            buckets: BTreeMap::new(),
            target_batch,
            max_linger: max_linger.as_nanos().min(u64::MAX as u128) as u64,
            deadline_slack: 500_000,
        }
    }

    /// Sets how much earlier than a member's deadline its bucket flushes
    /// (headroom for the dispatch + solve itself).
    pub fn with_deadline_slack(mut self, slack: Duration) -> Self {
        self.deadline_slack = slack.as_nanos().min(u64::MAX as u128) as u64;
        self
    }

    /// Number of requests currently parked in buckets.
    pub fn pending(&self) -> usize {
        self.buckets.values().map(|b| b.requests.len()).sum()
    }

    /// Adds `request` to its size-class bucket; returns the batch when the
    /// bucket reaches the target size.
    pub fn insert(&mut self, request: SolveRequest<T>, now: Tick) -> Option<FlushedBatch<T>> {
        let n = request.system.n();
        let bucket = self.buckets.entry(n).or_insert_with(|| Bucket {
            requests: Vec::new(),
            oldest: now,
            earliest_deadline: None,
        });
        if bucket.requests.is_empty() {
            bucket.oldest = now;
            bucket.earliest_deadline = None;
        }
        if let Some(d) = request.deadline {
            bucket.earliest_deadline =
                Some(bucket.earliest_deadline.map_or(d, |existing| existing.min(d)));
        }
        bucket.requests.push(request);
        if bucket.requests.len() >= self.target_batch {
            let bucket = self.buckets.remove(&n).expect("bucket just touched");
            return Some(FlushedBatch { n, requests: bucket.requests, reason: FlushReason::Full });
        }
        None
    }

    /// The earliest flush point across all buckets (linger deadline pulled
    /// earlier by member deadlines), or `None` when everything is empty
    /// (an event loop then waits for the next arrival alone).
    pub fn next_deadline(&self) -> Option<Tick> {
        self.buckets.values().map(|b| b.flush_at(self.max_linger, self.deadline_slack)).min()
    }

    /// Takes the most urgent bucket whose flush point has arrived at `now`
    /// — earliest flush point, ties broken by ascending `n` — labelled as
    /// [`flush_expired`](Self::flush_expired) labels it. `None` when no
    /// bucket is due.
    pub fn take_due(&mut self, now: Tick) -> Option<FlushedBatch<T>> {
        let (_, n) = self
            .buckets
            .iter()
            .map(|(&n, b)| (b.flush_at(self.max_linger, self.deadline_slack), n))
            .filter(|&(at, _)| at <= now)
            .min()?;
        let bucket = self.buckets.remove(&n).expect("found above");
        let reason = bucket.flush_reason(now, self.max_linger);
        Some(FlushedBatch { n, requests: bucket.requests, reason })
    }

    /// Takes the oldest bucket — earliest `oldest` tick, ties broken by
    /// ascending `n` — as a [`FlushReason::Linger`] flush whose window
    /// closed early because a worker is free to serve it. `None` when
    /// every bucket is empty.
    pub fn take_oldest(&mut self) -> Option<FlushedBatch<T>> {
        let (&n, _) = self.buckets.iter().min_by_key(|&(&n, b)| (b.oldest, n))?;
        let bucket = self.buckets.remove(&n).expect("found above");
        Some(FlushedBatch { n, requests: bucket.requests, reason: FlushReason::Linger })
    }

    /// Flushes every bucket whose flush point has arrived — because its
    /// oldest member has waited `max_linger`, or because a member deadline
    /// (minus slack) would not survive more lingering.
    pub fn flush_expired(&mut self, now: Tick) -> Vec<FlushedBatch<T>> {
        let expired: Vec<usize> = self
            .buckets
            .iter()
            .filter(|(_, b)| now >= b.flush_at(self.max_linger, self.deadline_slack))
            .map(|(&n, _)| n)
            .collect();
        let mut out = Vec::with_capacity(expired.len());
        for n in expired {
            let bucket = self.buckets.remove(&n).expect("listed above");
            let reason = bucket.flush_reason(now, self.max_linger);
            out.push(FlushedBatch { n, requests: bucket.requests, reason });
        }
        out
    }

    /// Flushes everything, regardless of size or age — shutdown drain, in
    /// ascending size order.
    pub fn flush_all(&mut self) -> Vec<FlushedBatch<T>> {
        std::mem::take(&mut self.buckets)
            .into_iter()
            .map(|(n, bucket)| FlushedBatch {
                n,
                requests: bucket.requests,
                reason: FlushReason::Shutdown,
            })
            .collect()
    }
}

/// A flush and the device of the idle worker it claimed, if any (`None`:
/// no worker was idle; the caller routes it as usual).
pub type Assigned<T> = (FlushedBatch<T>, Option<usize>);

/// Why the [`Scheduler`] refused an admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The buckets already hold the admission cap of requests.
    Full,
    /// The scheduler is closed: the service is shutting down.
    Closed,
}

/// A refused admission: why, and the request handed back.
pub type Refused<T> = (Refusal, Box<SolveRequest<T>>);

/// The work-conserving flush rule and the admission cap: the
/// [`BucketTable`] plus, per device, the workers parked with nothing
/// routed to them.
///
/// While a worker is idle the table holds nothing back: every admission
/// ends with the oldest buckets going to idle workers, and a worker that
/// runs dry takes the most urgent bucket itself instead of parking. Only
/// while every worker is busy do requests wait in buckets, for the target
/// batch, `max_linger` or a deadline — and then the first worker to free
/// up takes a bucket whose linger or deadline point has passed before any
/// other. A flush claims an idle worker's device whenever one exists, so
/// it never queues behind a busy worker.
///
/// Thread-free so the rule is tested without threads; a threaded caller
/// keeps it under one lock, so a worker parking and a request arriving
/// cannot miss each other. The caller reports the other half of a claim's
/// life: [`woke`](Self::woke) when a parked worker takes any job, and
/// [`release`](Self::release) when a claimed flush leaves its device's
/// queue (whichever worker takes it).
pub struct Scheduler<T: Real> {
    table: BucketTable<T>,
    /// Most requests the buckets may hold; admission beyond is refused.
    capacity: usize,
    /// Set by [`close`](Self::close); every later admission is refused.
    closed: bool,
    /// Per device: workers parked waiting for work.
    parked: Vec<usize>,
    /// Per device: claimed flushes routed there and not yet taken.
    claimed: Vec<usize>,
}

impl<T: Real> Scheduler<T> {
    /// Wraps `table` for `devices` devices, every worker busy, admitting
    /// while fewer than `capacity` requests wait in buckets.
    pub fn new(table: BucketTable<T>, devices: usize, capacity: usize) -> Self {
        assert!(capacity >= 1, "admission capacity must be >= 1");
        Self { table, capacity, closed: false, parked: vec![0; devices], claimed: vec![0; devices] }
    }

    /// The bucket table (deadlines, pending count).
    pub fn table(&self) -> &BucketTable<T> {
        &self.table
    }

    /// The admission cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Parked workers that no claimed flush is on its way to.
    pub fn idle(&self) -> usize {
        self.parked.iter().zip(&self.claimed).map(|(&p, &c)| p.saturating_sub(c)).sum()
    }

    /// Claims an idle worker — on the lowest such device — for one flush.
    fn claim(&mut self) -> Option<usize> {
        let device = (0..self.parked.len()).find(|&d| self.parked[d] > self.claimed[d])?;
        self.claimed[device] += 1;
        Some(device)
    }

    /// Adds `request`; returns its bucket when that reaches the target
    /// batch size. Refused — the request handed back — once the scheduler
    /// is closed, or while the buckets hold `capacity` requests.
    pub fn admit(
        &mut self,
        request: SolveRequest<T>,
        now: Tick,
    ) -> Result<Option<Assigned<T>>, Refused<T>> {
        if self.closed {
            return Err((Refusal::Closed, Box::new(request)));
        }
        if self.table.pending() >= self.capacity {
            return Err((Refusal::Full, Box::new(request)));
        }
        Ok(self.table.insert(request, now).map(|flush| (flush, self.claim())))
    }

    /// What must flush at `now`, after the admissions due: the oldest
    /// buckets while a worker is idle, then every bucket whose linger or
    /// deadline point has passed.
    pub fn due(&mut self, now: Tick) -> Vec<Assigned<T>> {
        let mut out = Vec::new();
        while self.idle() > 0 {
            let Some(flush) = self.table.take_oldest() else { break };
            out.push((flush, self.claim()));
        }
        for flush in self.table.flush_expired(now) {
            out.push((flush, self.claim()));
        }
        out
    }

    /// A worker on `device` ran out of routed work: it takes the most
    /// urgent bucket due at `now`, else the oldest bucket, or — when every
    /// bucket is empty — parks as idle (and returns `None`).
    pub fn park(&mut self, device: usize, now: Tick) -> Option<FlushedBatch<T>> {
        let flush = self.table.take_due(now).or_else(|| self.table.take_oldest());
        if flush.is_none() {
            self.parked[device] += 1;
        }
        flush
    }

    /// A worker parked on `device` woke with a job.
    pub fn woke(&mut self, device: usize) {
        self.parked[device] -= 1;
    }

    /// A flush claimed on `device` left that device's queue.
    pub fn release(&mut self, device: usize) {
        self.claimed[device] -= 1;
    }

    /// Shutdown: refuses every later admission and flushes every bucket,
    /// in ascending size order.
    pub fn close(&mut self) -> Vec<Assigned<T>> {
        self.closed = true;
        self.table.flush_all().into_iter().map(|flush| (flush, self.claim())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::make_request;
    use tridiag_core::TridiagonalSystem;

    fn req(id: u64, n: usize) -> SolveRequest<f32> {
        let system = TridiagonalSystem::toeplitz(n, -1.0, 4.0, -1.0, 1.0).unwrap();
        make_request(id, system).0
    }

    /// Milliseconds → ticks; the tests run on a purely virtual timeline
    /// starting at tick 0, no wall clock involved.
    fn ms(v: u64) -> Tick {
        v * 1_000_000
    }

    #[test]
    fn bucket_flushes_exactly_at_target() {
        let mut table = BucketTable::new(3, Duration::from_millis(100));
        assert!(table.insert(req(0, 64), 0).is_none());
        assert!(table.insert(req(1, 64), 0).is_none());
        let flush = table.insert(req(2, 64), 0).expect("third request fills the bucket");
        assert_eq!(flush.n, 64);
        assert_eq!(flush.reason, FlushReason::Full);
        assert_eq!(flush.requests.len(), 3);
        assert_eq!(table.pending(), 0);
    }

    #[test]
    fn mixed_size_classes_are_never_co_batched() {
        let mut table = BucketTable::new(2, Duration::from_millis(100));
        assert!(table.insert(req(0, 64), 0).is_none());
        assert!(table.insert(req(1, 128), 0).is_none());
        // Each size class fills independently.
        let f64_class = table.insert(req(2, 64), 0).unwrap();
        assert_eq!(f64_class.n, 64);
        assert!(f64_class.requests.iter().all(|r| r.system.n() == 64));
        let f128 = table.insert(req(3, 128), 0).unwrap();
        assert_eq!(f128.n, 128);
        assert!(f128.requests.iter().all(|r| r.system.n() == 128));
    }

    #[test]
    fn lone_request_flushes_on_linger_deadline() {
        let mut table = BucketTable::new(64, Duration::from_millis(10));
        assert!(table.insert(req(0, 32), 0).is_none());
        // Before the deadline: nothing.
        assert!(table.flush_expired(ms(5)).is_empty());
        // At the deadline: the lone request is flushed rather than starved.
        let flushed = table.flush_expired(ms(10));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].reason, FlushReason::Linger);
        assert_eq!(flushed[0].requests.len(), 1);
    }

    #[test]
    fn linger_clock_starts_at_the_oldest_member() {
        let mut table = BucketTable::new(64, Duration::from_millis(10));
        table.insert(req(0, 32), 0);
        // A later arrival must NOT reset the deadline.
        table.insert(req(1, 32), ms(8));
        assert_eq!(table.next_deadline(), Some(ms(10)));
        let flushed = table.flush_expired(ms(10));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].requests.len(), 2);
    }

    #[test]
    fn deadline_is_the_minimum_across_buckets() {
        let mut table = BucketTable::new(64, Duration::from_millis(10));
        table.insert(req(0, 32), ms(3));
        table.insert(req(1, 64), 0);
        assert_eq!(table.next_deadline(), Some(ms(10)));
    }

    #[test]
    fn flush_all_drains_every_bucket_deterministically() {
        let mut table = BucketTable::new(64, Duration::from_millis(100));
        table.insert(req(0, 128), 0);
        table.insert(req(1, 32), 0);
        table.insert(req(2, 32), 0);
        let drained = table.flush_all();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].n, 32); // sorted by size
        assert_eq!(drained[0].requests.len(), 2);
        assert_eq!(drained[1].n, 128);
        assert!(drained.iter().all(|f| f.reason == FlushReason::Shutdown));
        assert_eq!(table.pending(), 0);
        assert_eq!(table.next_deadline(), None);
    }

    #[test]
    fn empty_bucket_reuse_resets_the_linger_clock() {
        let mut table = BucketTable::new(2, Duration::from_millis(10));
        table.insert(req(0, 32), 0);
        table.insert(req(1, 32), 0); // flushes (target 2)
                                     // New request in the same size class starts a fresh clock.
        table.insert(req(2, 32), ms(50));
        assert_eq!(table.next_deadline(), Some(ms(60)));
    }

    #[test]
    fn member_deadline_pulls_the_flush_forward_and_labels_it() {
        let mut table =
            BucketTable::new(64, Duration::from_millis(10)).with_deadline_slack(Duration::ZERO);
        let (req_d, _ticket) = crate::request::make_request_at(
            0,
            TridiagonalSystem::toeplitz(32, -1.0, 4.0, -1.0, 1.0).unwrap(),
            0,
            Some(ms(4)),
        );
        table.insert(req_d, 0);
        assert_eq!(table.next_deadline(), Some(ms(4)), "deadline beats the 10 ms linger");
        let flushed = table.flush_expired(ms(4));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].reason, FlushReason::Deadline);
    }

    #[test]
    fn keyed_requests_share_their_size_class_bucket() {
        use tridiag_core::MatrixKey;
        let mut table = BucketTable::new(3, Duration::from_millis(100));
        let sys_a = TridiagonalSystem::<f32>::toeplitz(64, -1.0, 4.0, -1.0, 1.0).unwrap();
        let sys_b = TridiagonalSystem::<f32>::toeplitz(64, -1.0, 5.0, -1.0, 1.0).unwrap();
        let key_a = MatrixKey::of::<f32>(&sys_a.a, &sys_a.b, &sys_a.c);
        let key_b = MatrixKey::of::<f32>(&sys_b.a, &sys_b.b, &sys_b.c);
        assert_ne!(key_a, key_b);
        let keyed = |id, sys: &TridiagonalSystem<f32>, key| {
            crate::request::make_request_keyed(id, sys.clone(), 0, None, Some(key)).0
        };
        // Two matrices and an unkeyed request of one size: one bucket,
        // filled in arrival order.
        assert!(table.insert(keyed(0, &sys_a, key_a), 0).is_none());
        assert!(table.insert(keyed(1, &sys_b, key_b), 0).is_none());
        let flush = table.insert(req(2, 64), 0).expect("the size-64 bucket fills");
        assert_eq!(flush.n, 64);
        let keys: Vec<_> = flush.requests.iter().map(|r| r.matrix_key).collect();
        assert_eq!(keys, vec![Some(key_a), Some(key_b), None]);
        assert_eq!(table.pending(), 0);
    }

    #[test]
    fn same_tick_expiry_flushes_in_ascending_size_order() {
        // The determinism hook: three buckets expiring together must come
        // out in one fixed order (BTreeMap), not hash order.
        let mut table = BucketTable::new(64, Duration::from_millis(1));
        table.insert(req(0, 128), 0);
        table.insert(req(1, 32), 0);
        table.insert(req(2, 512), 0);
        let flushed = table.flush_expired(ms(1));
        let sizes: Vec<usize> = flushed.iter().map(|f| f.n).collect();
        assert_eq!(sizes, vec![32, 128, 512]);
    }

    #[test]
    fn take_oldest_picks_the_oldest_bucket_across_sizes() {
        let mut table = BucketTable::new(64, Duration::from_millis(10));
        table.insert(req(0, 32), ms(3));
        table.insert(req(1, 512), ms(1));
        table.insert(req(2, 128), ms(2));
        table.insert(req(3, 512), ms(4)); // a later arrival keeps 512's age
        let first = table.take_oldest().expect("three buckets");
        assert_eq!((first.n, first.requests.len()), (512, 2));
        assert_eq!(first.reason, FlushReason::Linger);
        let sizes: Vec<usize> = std::iter::from_fn(|| table.take_oldest()).map(|f| f.n).collect();
        assert_eq!(sizes, vec![128, 32]);
    }

    #[test]
    fn take_oldest_breaks_ties_by_ascending_n() {
        let mut table = BucketTable::new(64, Duration::from_millis(10));
        for (id, n) in [(0, 256), (1, 64), (2, 128)] {
            table.insert(req(id, n), ms(5));
        }
        let sizes: Vec<usize> = std::iter::from_fn(|| table.take_oldest()).map(|f| f.n).collect();
        assert_eq!(sizes, vec![64, 128, 256]);
    }

    #[test]
    fn take_oldest_is_none_when_empty() {
        let mut table = BucketTable::<f32>::new(2, Duration::from_millis(10));
        assert!(table.take_oldest().is_none());
        table.insert(req(0, 32), 0);
        table.insert(req(1, 32), 0); // fills and flushes
        assert!(table.take_oldest().is_none(), "a flushed bucket is gone");
    }

    fn scheduler(devices: usize) -> Scheduler<f32> {
        Scheduler::new(BucketTable::new(64, Duration::from_millis(10)), devices, 1024)
    }

    #[test]
    fn an_idle_worker_takes_an_admission_at_once() {
        let mut s = scheduler(1);
        assert!(s.park(0, 0).is_none(), "nothing to pull: the worker parks");
        assert_eq!(s.idle(), 1);
        assert!(s.admit(req(0, 32), 0).unwrap().is_none(), "far from the target batch");
        let due = s.due(0);
        assert_eq!(due.len(), 1, "the lone request does not wait out the linger");
        assert_eq!(due[0].0.reason, FlushReason::Linger);
        assert_eq!(due[0].1, Some(0), "it lands on the idle worker's device");
        assert_eq!(s.idle(), 0, "that worker is claimed");
        // A second arrival before the worker wakes waits in its bucket.
        s.admit(req(1, 32), ms(1)).unwrap();
        assert!(s.due(ms(1)).is_empty());
        assert_eq!(s.table().pending(), 1);
    }

    #[test]
    fn a_busy_service_lingers_and_labels_deadline_flushes() {
        // Zero idle workers: the linger and deadline rules are unchanged.
        let mut s = Scheduler::new(
            BucketTable::new(64, Duration::from_millis(10)).with_deadline_slack(Duration::ZERO),
            1,
            1024,
        );
        let (req_d, _ticket) = crate::request::make_request_at(
            0,
            TridiagonalSystem::toeplitz(32, -1.0, 4.0, -1.0, 1.0).unwrap(),
            0,
            Some(ms(4)),
        );
        assert!(s.admit(req_d, 0).unwrap().is_none());
        assert!(s.due(ms(3)).is_empty(), "every worker busy: the request waits");
        let due = s.due(ms(4));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].0.reason, FlushReason::Deadline);
        assert_eq!(due[0].1, None, "no idle worker to claim");
    }

    #[test]
    fn a_worker_that_runs_dry_pulls_the_oldest_bucket() {
        let mut s = scheduler(1);
        s.admit(req(0, 128), ms(2)).unwrap();
        s.admit(req(1, 64), ms(3)).unwrap();
        let pulled = s.park(0, ms(3)).expect("a bucket is waiting");
        assert_eq!(pulled.n, 128, "oldest first");
        assert_eq!(s.idle(), 0, "a worker that pulls does not park");
        assert_eq!(s.park(0, ms(3)).map(|f| f.n), Some(64));
        assert!(s.park(0, ms(3)).is_none());
        assert_eq!(s.idle(), 1);
    }

    #[test]
    fn flushes_claim_idle_devices_and_claims_are_returned() {
        let mut s = scheduler(4);
        s.park(2, 0);
        s.park(3, 0);
        s.admit(req(0, 32), 0).unwrap();
        s.admit(req(1, 64), 0).unwrap();
        s.admit(req(2, 128), 0).unwrap();
        let due = s.due(0);
        let devices: Vec<_> = due.iter().map(|(f, d)| (f.n, *d)).collect();
        assert_eq!(devices, vec![(32, Some(2)), (64, Some(3))], "busy devices 0 and 1 get none");
        assert_eq!(s.table().pending(), 1, "the third bucket waits for a worker");
        // Device 2's worker wakes with its flush; device 3's claimed flush
        // is taken by some other worker, so device 3's worker is idle again.
        s.woke(2);
        s.release(2);
        s.release(3);
        assert_eq!(s.idle(), 1);
        assert_eq!(s.due(0)[0].1, Some(3));
    }

    #[test]
    fn a_full_bucket_claims_an_idle_device() {
        let mut s = Scheduler::new(BucketTable::new(2, Duration::from_millis(10)), 2, 1024);
        s.park(1, 0);
        assert!(s.admit(req(0, 32), 0).unwrap().is_none());
        let (flush, device) = s.admit(req(1, 32), 0).unwrap().expect("target reached");
        assert_eq!((flush.reason, device), (FlushReason::Full, Some(1)));
        assert_eq!(s.idle(), 0);
    }

    #[test]
    fn admission_is_refused_at_capacity_and_after_close() {
        let mut s = Scheduler::new(BucketTable::new(64, Duration::from_millis(10)), 1, 2);
        s.admit(req(0, 32), 0).unwrap();
        s.admit(req(1, 64), 0).unwrap();
        let (refusal, back) = s.admit(req(2, 32), 0).expect_err("two requests fill a cap of 2");
        assert_eq!((refusal, back.id), (Refusal::Full, 2), "the refused request comes back");
        assert_eq!(s.table().pending(), 2, "nothing was admitted");
        // A worker pulling a bucket frees its slots.
        assert_eq!(s.park(0, 0).map(|f| f.n), Some(32));
        s.admit(req(3, 32), 0).unwrap();
        // Close drains every bucket and refuses everything after.
        let drained = s.close();
        let sizes: Vec<_> = drained.iter().map(|(f, _)| (f.n, f.reason)).collect();
        assert_eq!(sizes, vec![(32, FlushReason::Shutdown), (64, FlushReason::Shutdown)]);
        let (refusal, back) = s.admit(req(4, 32), 0).expect_err("closed");
        assert_eq!((refusal, back.id), (Refusal::Closed, 4));
        assert_eq!(s.table().pending(), 0);
        assert!(s.close().is_empty(), "closing twice flushes nothing");
    }

    #[test]
    fn a_worker_takes_a_due_bucket_before_an_older_undue_one() {
        // Every worker is busy while three buckets fill; the first worker
        // to free up must take the younger bucket whose deadline point has
        // passed, then the expired linger bucket, and only then the oldest.
        let mut s = Scheduler::new(
            BucketTable::new(64, Duration::from_millis(10)).with_deadline_slack(Duration::ZERO),
            1,
            1024,
        );
        s.admit(req(0, 512), 0).unwrap();
        s.admit(req(1, 128), ms(1)).unwrap();
        let (urgent, _ticket) = crate::request::make_request_at(
            2,
            TridiagonalSystem::toeplitz(32, -1.0, 4.0, -1.0, 1.0).unwrap(),
            ms(2),
            Some(ms(5)),
        );
        s.admit(urgent, ms(2)).unwrap();
        let first = s.park(0, ms(6)).expect("a bucket is due");
        assert_eq!((first.n, first.reason), (32, FlushReason::Deadline));
        let second = s.park(0, ms(10)).expect("the 512 bucket's linger closed");
        assert_eq!((second.n, second.reason), (512, FlushReason::Linger));
        let third = s.park(0, ms(10)).expect("the 128 bucket waits, undue");
        assert_eq!((third.n, third.reason), (128, FlushReason::Linger));
        assert!(s.park(0, ms(10)).is_none());
        assert_eq!(s.idle(), 1);
    }

    #[test]
    fn a_parking_worker_and_an_admission_never_miss_each_other() {
        // One admitter and one worker share the scheduler under a lock, as
        // the service's submitters and workers do. Linger is an hour and
        // the target batch out of reach, so only the hand-off serves a
        // request: an admission that lands while the worker is between
        // serving and parking must be pulled by the park, and one that
        // lands after the park must be claimed for the parked worker. A
        // lost hand-off leaves a request in its bucket and times out.
        use std::sync::mpsc;
        use std::sync::{Arc, Mutex};
        const REQUESTS: u64 = 2_000;
        let table = BucketTable::new(64, Duration::from_secs(3600));
        let scheduler = Arc::new(Mutex::new(Scheduler::new(table, 1, 1024)));
        let (route, routed) = mpsc::channel::<(FlushedBatch<f32>, bool)>();
        let (serve, served) = mpsc::channel::<u64>();
        let worker = {
            let scheduler = Arc::clone(&scheduler);
            std::thread::spawn(move || loop {
                let pulled = scheduler.lock().unwrap().park(0, 0);
                let flush = match pulled {
                    Some(flush) => flush,
                    None => match routed.recv() {
                        Ok((flush, claimed)) => {
                            let mut s = scheduler.lock().unwrap();
                            s.woke(0);
                            if claimed {
                                s.release(0);
                            }
                            flush
                        }
                        Err(_) => return,
                    },
                };
                for r in flush.requests {
                    serve.send(r.id).unwrap();
                }
            })
        };
        for id in 0..REQUESTS {
            let flushes = {
                let mut s = scheduler.lock().unwrap();
                let full = s.admit(req(id, 32), 0).unwrap();
                let mut flushes: Vec<_> = full.into_iter().collect();
                flushes.extend(s.due(0));
                flushes
            };
            for (flush, claimed) in flushes {
                route.send((flush, claimed.is_some())).unwrap();
            }
            let handed = served.recv_timeout(Duration::from_secs(10));
            assert_eq!(handed, Ok(id), "request {id} was never handed to the worker");
        }
        drop(route);
        worker.join().unwrap();
    }
}
