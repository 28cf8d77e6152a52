//! The service itself: admission on the caller's thread → sharded worker
//! pool, with a work-conserving flush rule between them.
//!
//! Thread topology (all plain `std::thread`, no external runtime):
//!
//! ```text
//!  submitters ──► Scheduler ──► StealQueues ──► worker/device 0..D
//!     (many)     (admission cap,  (routing +      (serve_flush on
//!                 bucket table,    work stealing)   its own device)
//!                 idle workers;                         │
//!                 one lock)  ◄──── pull due/oldest / park ┘
//! ```
//!
//! * **Admission** validates the system, assigns an id and, under the
//!   scheduler lock, admits it into the [`Scheduler`]'s bucket table —
//!   failing fast with [`ServiceError::QueueFull`] while `queue_capacity`
//!   requests already wait there. While a worker is parked, the admission
//!   ends with the oldest bucket flushed to that worker's device at once:
//!   holding a request back only pays while every worker is busy, so only
//!   then do requests wait for the target batch, `max_linger` or a
//!   deadline. The submitter routes the flushes itself after dropping the
//!   lock; a flush with no idle worker to claim goes round-robin to a
//!   healthy device's queue. There is no batcher thread and no timer.
//! * **Workers** are pinned one-per-device (or share device 0 when the
//!   service runs single-device). A worker with nothing routed to it
//!   steals batches from the longest other queue, then takes a bucket from
//!   the scheduler itself — the most urgent one whose linger or deadline
//!   point has passed, else the oldest — and parks as idle only when every
//!   bucket is empty. The pull and the park happen under the scheduler
//!   lock the submitters admit under, so no arrival slips between them.
//!   A worker whose device is lost re-routes its backlog to survivors and
//!   leaves their buckets alone; once no healthy device remains it pulls
//!   and parks again, serving through the CPU safety net, since nothing
//!   else would.
//!
//! Shutdown is a drain, not an abort: under the lock the scheduler closes
//! (new submissions are rejected) and flushes all partial buckets with
//! [`FlushReason::Shutdown`]; the workers finish every routed batch before
//! joining. Every admitted request is always answered.

use crate::batcher::{BucketTable, FlushedBatch, Refusal, Scheduler};
use crate::breaker::{BreakerConfig, CircuitBreakers};
use crate::dispatch::{serve_flush, DeviceCtx, DispatchConfig};
use crate::error::ServiceError;
use crate::metrics::{DeviceSnapshot, MetricsSnapshot, ServiceMetrics};
use crate::planner::PlanCache;
use crate::request::{make_request_keyed, SolveResponse, Ticket};
use crate::trace::{RejectReason, TraceEvent, TraceHandle};
use device_pool::{DevicePool, PoolConfig, Pop as DevicePop, StealQueues};
use factor_cache::SharedFactorCache;
use gpu_sim::{tick_duration, Clock, Launcher, Tick};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;
use tridiag_core::{MatrixKey, Real, TridiagError, TridiagonalSystem};

#[cfg(doc)]
use crate::batcher::FlushReason;

/// Tunables for a [`SolverService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Most requests waiting in the scheduler's buckets (admitted, not
    /// yet flushed to a worker); a submission beyond this is rejected with
    /// [`ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Flush a size-class bucket when it holds this many requests.
    pub target_batch: usize,
    /// Flush a bucket when its oldest request has waited this long while
    /// every worker was busy. An idle worker takes the oldest bucket at
    /// once, so an unsaturated service never lingers; and with no timer, a
    /// bucket past its linger is flushed by the next admission or taken by
    /// the next worker to free up, before any younger bucket.
    pub max_linger: Duration,
    /// Worker threads executing flushed batches.
    pub workers: usize,
    /// Flushes smaller than this run on the CPU regardless of plan.
    pub min_gpu_batch: usize,
    /// Residual acceptance scale for verify-and-repair (see
    /// `gpu_solvers::RobustOptions`).
    pub threshold_scale: f64,
    /// Probe batch size for autotune tournaments.
    pub probe_count: usize,
    /// When set, every batch runs on this engine — planner, small-flush
    /// CPU override and the [`verified`](Self::verified) filter bypassed
    /// (A-B testing / benchmarking knob).
    pub pin_engine: Option<crate::planner::Engine>,
    /// Static proof catalog for planning. When set, the service's
    /// [`PlanCache`] is [`PlanCache::proven_only`]: an autotune tournament
    /// admits only the GPU kernels the catalog proves race/OOB/barrier-safe
    /// for their whole size family (proved once, on the class's first
    /// tournament), so an unproven kernel is never planned and never on
    /// the fallback ladder. `None` (the default) admits every candidate;
    /// every one of them is proven for n = 4..=4096, a contract the
    /// planner's tests hold. Share one `Arc` across services to amortize
    /// proofs between them.
    pub verified: Option<Arc<kernel_verify::VerifiedCatalog>>,
    /// Factorization cache for the warm serving tier. When set, every
    /// admitted system is identity-hashed (structure tag + content hash)
    /// and batched with its size class as usual; dispatch splits each
    /// flush by matrix key. A matrix is factored on its key's second
    /// sighting (a repeat flush, or one flush of several systems), a key
    /// whose matrix is already factored is served by back-substitution
    /// only, and the one-hit keys of a flush share one cold batch.
    /// `None` (the default) leaves every request unkeyed and the service's
    /// behaviour byte-identical to the cold-only service. Share one `Arc`
    /// across services to share factorizations between them.
    pub factor_cache: Option<Arc<SharedFactorCache>>,
    /// Certified catalog for verify-skipping dispatch. When set, every
    /// admitted system is identity-hashed (like
    /// [`factor_cache`](Self::factor_cache)) and each matrix key is
    /// statically analyzed exactly once, on its second sighting (keys
    /// seen once ride their flush's cold group with full verification;
    /// analyzed keys are served as their own group); keys earning a
    /// [`numeric_verify::NumericCertificate`] downgrade the per-answer
    /// residual verify to deterministic 1-in-K sampling (the NaN/Inf
    /// guard always runs), and a corruption caught on a sampled flush
    /// revokes the certificate permanently. `None` (the default) keeps
    /// full verification on every answer. Share one `Arc` across
    /// services to share analysis verdicts between them.
    pub certified: Option<Arc<numeric_verify::CertifiedCatalog>>,
    /// How much earlier than a member's completion deadline its bucket
    /// flushes (headroom for dispatch + solve).
    pub deadline_slack: Duration,
    /// Per-engine circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// Attempts per engine before the retry ladder excludes it.
    pub max_attempts_per_engine: usize,
    /// Total engine attempts per flush before CPU GEP demotion.
    pub max_total_attempts: usize,
    /// First retry backoff (doubles per attempt, deterministic jitter).
    pub backoff_base: Duration,
    /// Retry backoff ceiling.
    pub backoff_max: Duration,
    /// When `true`, [`SolverService::submit_wait`] honors a
    /// `QueueFull::retry_after` hint with one bounded client-side retry
    /// before surfacing the rejection.
    pub client_retry: bool,
    /// The simulated device the GPU engines run on when no
    /// [`pool`](Self::pool) is configured.
    pub launcher: Launcher,
    /// Multi-device pool configuration. `None` (the default) wraps
    /// [`launcher`](Self::launcher) — fault plan and all — as a
    /// single-device pool, preserving single-GPU behaviour. `Some` builds
    /// an N-device pool with per-device seed-derived fault plans and
    /// shards flushed batches across its healthy devices.
    pub pool: Option<PoolConfig>,
    /// The clock every time-dependent decision reads: linger deadlines,
    /// retry backoff, breaker cooldowns, latency measurement. The default
    /// real clock preserves production behaviour; a [`Clock::sim`] makes
    /// time virtual — sleeps advance the clock instead of parking — which
    /// de-flakes timing-sensitive tests and (driven single-threaded, see
    /// trace-lab) makes the whole service deterministic.
    pub clock: Clock,
    /// Decision trace sink. Disabled by default; attach a sink (see
    /// [`crate::trace`]) to record every admission, flush, plan, retry,
    /// breaker transition, steal, fault, and served batch.
    pub trace: TraceHandle,
    /// When set, a lone batch stuck on one device's queue for longer than
    /// this (on the service clock) may be stolen by an idle worker even
    /// though lone jobs are normally owner-only — backup detection for a
    /// stalled or overloaded device. `None` (the default) keeps the
    /// conservative lone-job courtesy.
    pub steal_backup_age: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            target_batch: 64,
            max_linger: Duration::from_millis(2),
            workers: 4,
            min_gpu_batch: 4,
            threshold_scale: 100.0,
            probe_count: 16,
            pin_engine: None,
            verified: None,
            factor_cache: None,
            certified: None,
            deadline_slack: Duration::from_micros(500),
            breaker: BreakerConfig::default(),
            max_attempts_per_engine: 2,
            max_total_attempts: 4,
            backoff_base: Duration::from_micros(50),
            backoff_max: Duration::from_millis(2),
            client_retry: true,
            launcher: Launcher::gtx280(),
            pool: None,
            clock: Clock::real(),
            trace: TraceHandle::disabled(),
            steal_backup_age: None,
        }
    }
}

/// A flush on a device queue. `claimed` when it was routed to a parked
/// worker's device: it holds that worker's idle slot until taken.
struct Routed<T: Real> {
    flush: FlushedBatch<T>,
    claimed: bool,
}

struct Shared<T: Real> {
    scheduler: Mutex<Scheduler<T>>,
    metrics: ServiceMetrics,
    plans: PlanCache,
    breakers: CircuitBreakers,
    pool: DevicePool,
    queues: StealQueues<Routed<T>>,
    dispatch_cfg: DispatchConfig,
    clock: Clock,
    trace: TraceHandle,
    started_at: Tick,
}

impl<T: Real> Shared<T> {
    fn scheduler(&self) -> MutexGuard<'_, Scheduler<T>> {
        self.scheduler.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn emit_flush(&self, flush: &FlushedBatch<T>) {
        self.trace.emit(|| TraceEvent::Flush {
            at: self.clock.now(),
            n: flush.n as u64,
            occupancy: flush.requests.len() as u64,
            reason: flush.reason,
        });
    }

    /// Routes one flushed batch: onto the device of the idle worker it
    /// claimed, else onto a healthy device's queue. With no healthy device
    /// left the batch still lands on queue 0: its worker serves it through
    /// the dead-device context, which the dispatch ladder demotes to the
    /// CPU safety net.
    fn route_flush(&self, flush: FlushedBatch<T>, claimed: Option<usize>) {
        self.emit_flush(&flush);
        let dev = claimed.or_else(|| self.pool.route()).unwrap_or(0);
        self.queues.push(dev, Routed { flush, claimed: claimed.is_some() });
    }

    /// Serves one batch on `device_id`'s launcher, with the pool wired in
    /// so device loss and busy-time land in the pool's books.
    fn serve_on(&self, device_id: usize, flush: FlushedBatch<T>) {
        let ctx = DeviceCtx {
            launcher: &self.pool.device(device_id).launcher,
            device_id,
            pool: Some(&self.pool),
        };
        serve_flush(ctx, &self.plans, &self.breakers, &self.metrics, &self.dispatch_cfg, flush);
    }
}

/// A running dynamic-batching solve service. Create with
/// [`SolverService::start`], submit with [`SolverService::submit`], stop
/// with [`SolverService::shutdown`] (or drop — the drain still happens).
pub struct SolverService<T: Real> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    client_retry: bool,
}

impl<T: Real> SolverService<T> {
    /// Spawns the worker threads and opens admission.
    pub fn start(config: ServiceConfig) -> Self {
        assert!(config.workers >= 1, "need at least one worker");
        let pool = match config.pool {
            Some(pool_cfg) => DevicePool::new(pool_cfg),
            None => DevicePool::single(config.launcher.clone()),
        };
        let clock = config.clock.clone();
        let trace = config.trace.clone();
        let queues = {
            let queues = StealQueues::with_clock(pool.len(), clock.clone());
            match config.steal_backup_age {
                Some(age) => queues.with_backup_age(age),
                None => queues,
            }
        };
        let table = BucketTable::new(config.target_batch, config.max_linger)
            .with_deadline_slack(config.deadline_slack);
        let shared = Arc::new(Shared {
            scheduler: Mutex::new(Scheduler::new(table, pool.len(), config.queue_capacity)),
            metrics: ServiceMetrics::new(),
            plans: match config.verified {
                Some(catalog) => PlanCache::proven_only(catalog),
                None => PlanCache::new(),
            },
            breakers: CircuitBreakers::with_clock(config.breaker, clock.clone())
                .with_trace(trace.clone()),
            pool,
            queues,
            dispatch_cfg: DispatchConfig {
                min_gpu_batch: config.min_gpu_batch,
                threshold_scale: config.threshold_scale,
                probe_count: config.probe_count,
                pin_engine: config.pin_engine,
                factor_cache: config.factor_cache,
                certified: config.certified,
                sightings: Arc::new(crate::sightings::Sightings::new()),
                max_attempts_per_engine: config.max_attempts_per_engine,
                max_total_attempts: config.max_total_attempts,
                backoff_base: config.backoff_base,
                backoff_max: config.backoff_max,
                clock: clock.clone(),
                trace: trace.clone(),
            },
            started_at: clock.now(),
            clock,
            trace,
        });

        // Single-device pools keep the configured worker count (all pinned
        // to device 0, contending on its queue); multi-device pools pin one
        // worker per device so every device drains independently.
        let worker_devices: Vec<usize> = if shared.pool.len() == 1 {
            vec![0; config.workers]
        } else {
            (0..shared.pool.len()).collect()
        };
        let workers = worker_devices
            .into_iter()
            .enumerate()
            .map(|(i, device_id)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("solver-service-worker-{i}-dev{device_id}"))
                    .spawn(move || worker_loop(shared, device_id))
                    .expect("spawn worker")
            })
            .collect();

        Self { shared, workers, next_id: AtomicU64::new(0), client_retry: config.client_retry }
    }

    /// The clock this service runs on — callers use it to build absolute
    /// [`Tick`] deadlines for [`SolverService::submit_with_deadline`].
    pub fn clock(&self) -> &Clock {
        &self.shared.clock
    }

    /// Suggested back-off before retrying a rejected submission, derived
    /// from the observed drain rate (completions per unit uptime). `None`
    /// until the first completion — there is no rate to derive from.
    fn retry_after_hint(&self) -> Option<Duration> {
        let completed = self.shared.metrics.completed_total();
        if completed == 0 {
            return None;
        }
        let uptime = tick_duration(self.shared.started_at, self.shared.clock.now());
        let per_request = uptime.div_f64(completed as f64);
        // One queue slot frees after ~one request drains; clamp to sane
        // bounds so a cold service cannot suggest minutes.
        Some(per_request.clamp(Duration::from_micros(20), Duration::from_millis(50)))
    }

    /// Submits one system; returns a [`Ticket`] to wait on, or a typed
    /// rejection ([`ServiceError::QueueFull`] under backpressure,
    /// [`ServiceError::ShuttingDown`] after shutdown began).
    pub fn submit(&self, system: TridiagonalSystem<T>) -> Result<Ticket<T>, ServiceError> {
        self.submit_with_deadline(system, None)
    }

    /// [`SolverService::submit`] with an absolute completion deadline —
    /// a [`Tick`] on the service clock (see [`SolverService::clock`] and
    /// [`Clock::tick_after`]).
    ///
    /// A deadline already in the past (or sub-slack close) is rejected at
    /// admission with [`ServiceError::DeadlineExceeded`] — retrying the
    /// same deadline cannot help. An admitted deadline is *advisory*: the
    /// scheduler flushes the request's bucket early to try to meet it, and
    /// [`SolveResponse::deadline_missed`] reports the verdict. Admitted
    /// requests are never dropped.
    pub fn submit_with_deadline(
        &self,
        system: TridiagonalSystem<T>,
        deadline: Option<Tick>,
    ) -> Result<Ticket<T>, ServiceError> {
        let matrix_key = self.key_of(&system);
        self.admit(system, deadline, matrix_key).map_err(|(e, _)| e)
    }

    /// With the factor cache or certified catalog on, every admitted
    /// system is identity-hashed so dispatch can group equal matrices
    /// within a flush: they hit the warm tier and share one analysis
    /// verdict.
    fn keyed(&self) -> bool {
        let cfg = &self.shared.dispatch_cfg;
        cfg.factor_cache.is_some() || cfg.certified.is_some()
    }

    fn key_of(&self, system: &TridiagonalSystem<T>) -> Option<MatrixKey> {
        self.keyed().then(|| MatrixKey::of_system(system))
    }

    /// The fully general submission: explicit deadline and matrix key
    /// ([`SolverService::solve_many_rhs`] hashes its shared matrix once).
    /// A refused system is handed back with the error, so a retry needs no
    /// copy of it.
    fn admit(
        &self,
        system: TridiagonalSystem<T>,
        deadline: Option<Tick>,
        matrix_key: Option<MatrixKey>,
    ) -> Result<Ticket<T>, (ServiceError, Box<TridiagonalSystem<T>>)> {
        let n = system.n();
        let now = self.shared.clock.now();
        let reject =
            |reason| self.shared.trace.emit(|| TraceEvent::Reject { at: now, n: n as u64, reason });
        if n < 2 {
            reject(RejectReason::Invalid);
            let error = ServiceError::InvalidRequest(TridiagError::SizeTooSmall { n, min: 2 });
            return Err((error, Box::new(system)));
        }
        if let Some(d) = deadline {
            if d <= now {
                reject(RejectReason::DeadlinePast);
                let error = ServiceError::DeadlineExceeded { deadline: tick_duration(now, d) };
                return Err((error, Box::new(system)));
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (request, ticket) = make_request_keyed(id, system, now, deadline, matrix_key);
        let mut scheduler = self.shared.scheduler();
        let flushes = match scheduler.admit(request, now) {
            Ok(full) => {
                // Counted and traced under the lock, so `Admit` precedes
                // any `Flush` of this request.
                self.shared.metrics.on_submit();
                self.shared.trace.emit(|| TraceEvent::Admit { at: now, id, n: n as u64 });
                let mut flushes: Vec<_> = full.into_iter().collect();
                flushes.extend(scheduler.due(now));
                flushes
            }
            Err((refusal, request)) => {
                let capacity = scheduler.capacity();
                drop(scheduler);
                self.shared.metrics.on_reject();
                let error = match refusal {
                    Refusal::Full => {
                        reject(RejectReason::QueueFull);
                        ServiceError::QueueFull { capacity, retry_after: self.retry_after_hint() }
                    }
                    Refusal::Closed => {
                        reject(RejectReason::ShuttingDown);
                        ServiceError::ShuttingDown
                    }
                };
                return Err((error, Box::new(request.system)));
            }
        };
        drop(scheduler);
        for (flush, claimed) in flushes {
            self.shared.route_flush(flush, claimed);
        }
        Ok(ticket)
    }

    /// Submits with no deadline. When the queue is full and carries a
    /// `retry_after` hint (and [`ServiceConfig::client_retry`] is on),
    /// backs off once for the hinted duration and retries with the
    /// system the rejection handed back — exactly one bounded retry,
    /// never a loop.
    fn submit_retrying(
        &self,
        system: TridiagonalSystem<T>,
        matrix_key: Option<MatrixKey>,
    ) -> Result<Ticket<T>, ServiceError> {
        match self.admit(system, None, matrix_key) {
            Err((ServiceError::QueueFull { retry_after: Some(hint), .. }, system))
                if self.client_retry =>
            {
                self.shared.clock.sleep(hint);
                self.admit(*system, None, matrix_key).map_err(|(e, _)| e)
            }
            admitted => admitted.map_err(|(e, _)| e),
        }
    }

    /// Solves one matrix against many right-hand sides: the multi-RHS
    /// serving tier's front door.
    ///
    /// The matrix identity is hashed **once** (not once per RHS), every
    /// request rides the same key, so dispatch serves each flush's share
    /// of them as one group and — with [`ServiceConfig::factor_cache`]
    /// set — everything after the first flush is served from the cached
    /// factorization by back-substitution alone. Without a cache the
    /// requests still co-batch; they are just served cold.
    ///
    /// Submission honours backpressure the same way [`submit_wait`]
    /// does: a `QueueFull` with a `retry_after` hint gets one bounded
    /// client-side retry per request before the rejection surfaces.
    /// Responses come back in `rhs_list` order.
    ///
    /// # Errors
    /// [`ServiceError::InvalidRequest`] for mismatched array lengths or
    /// undersized systems; admission errors from the underlying submits.
    ///
    /// [`submit_wait`]: SolverService::submit_wait
    pub fn solve_many_rhs(
        &self,
        a: &[T],
        b: &[T],
        c: &[T],
        rhs_list: &[Vec<T>],
    ) -> Result<Vec<SolveResponse<T>>, ServiceError> {
        let matrix_key = self.keyed().then(|| MatrixKey::of::<T>(a, b, c));
        let mut tickets = Vec::with_capacity(rhs_list.len());
        for d in rhs_list {
            let system = TridiagonalSystem::new(a.to_vec(), b.to_vec(), c.to_vec(), d.clone())
                .map_err(ServiceError::InvalidRequest)?;
            tickets.push(self.submit_retrying(system, matrix_key)?);
        }
        Ok(tickets.into_iter().map(Ticket::wait).collect())
    }

    /// Convenience: submit and block for the answer. When the queue is
    /// full and carries a `retry_after` hint (and
    /// [`ServiceConfig::client_retry`] is on), backs off once for the
    /// hinted duration and retries before surfacing the rejection —
    /// exactly one bounded retry, never a loop.
    pub fn submit_wait(
        &self,
        system: TridiagonalSystem<T>,
    ) -> Result<SolveResponse<T>, ServiceError> {
        let matrix_key = self.key_of(&system);
        Ok(self.submit_retrying(system, matrix_key)?.wait())
    }

    /// Current metrics snapshot (queue depth, plan-cache stats, and
    /// breaker states are read at call time).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics.snapshot(
            self.shared.scheduler().table().pending(),
            self.shared.plans.tunes(),
            self.shared.plans.hits(),
        );
        snap.degradation.breaker_opened = self.shared.breakers.opened_total();
        snap.degradation.breaker_closed = self.shared.breakers.closed_total();
        snap.degradation.breaker_denials = self.shared.breakers.denials_total();
        snap.degradation.breaker_states = self.shared.breakers.states();
        let states = &snap.degradation.breaker_states;
        snap.devices = self
            .shared
            .pool
            .devices()
            .iter()
            .map(|d| DeviceSnapshot {
                id: d.id,
                dispatched: d.dispatched(),
                device_ms: d.busy_ms(),
                steals: d.steals(),
                lost: d.is_lost(),
                breaker: worst_breaker_state(states, d.id).to_string(),
            })
            .collect();
        snap
    }

    /// Drains and stops the service: closes admission, serves everything
    /// already admitted, joins all threads, and returns the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shutdown_in_place();
        self.metrics()
    }

    /// Closing and routing happen on the owner's thread: `shutdown` and
    /// `drop` take the service by value, so no submission can be between
    /// its admission and its routing here.
    fn shutdown_in_place(&mut self) {
        let flushes = self.shared.scheduler().close();
        for (flush, claimed) in flushes {
            self.shared.route_flush(flush, claimed);
        }
        // Workers exit once their backlog is served.
        self.shared.queues.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<T: Real> Drop for SolverService<T> {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Worst breaker state among `dev{id}:`-prefixed engines: any `open`
/// dominates, then `half-open`; untouched engines count as `closed`.
fn worst_breaker_state(states: &std::collections::BTreeMap<String, String>, id: usize) -> &str {
    let prefix = format!("dev{id}:");
    let mut worst = "closed";
    for (key, state) in states {
        if !key.starts_with(&prefix) {
            continue;
        }
        worst = match (worst, state.as_str()) {
            ("open", _) | (_, "open") => "open",
            ("half-open", _) | (_, "half-open") => "half-open",
            _ => "closed",
        };
    }
    worst
}

/// The next flush for the worker on `device_id`, or `None` once the
/// queues close and its backlog drains: a flush routed to its device (or
/// stolen from the longest other queue); else a bucket pulled from the
/// scheduler, the most urgent due one first; else it parks as idle until a
/// flush is routed.
fn next_flush<T: Real>(shared: &Shared<T>, device_id: usize) -> Option<FlushedBatch<T>> {
    // A lost device must not steal healthy devices' work or pull buckets —
    // it would serve them through the CPU safety net. It still drains
    // batches already routed to it (re-routing them in `worker_loop`).
    // Once no healthy device remains it pulls and parks again: the
    // scheduler has no timer, so nothing else would serve the buckets.
    let healthy = !shared.pool.is_lost(device_id);
    let pulls = healthy || shared.pool.healthy().is_empty();
    let (routed, from) = match shared.queues.try_pop(device_id, healthy) {
        Some(hit) => hit,
        None => {
            if pulls {
                let pulled = shared.scheduler().park(device_id, shared.clock.now());
                if let Some(flush) = pulled {
                    shared.emit_flush(&flush);
                    return Some(flush);
                }
            }
            let popped = shared.queues.pop(device_id, healthy);
            if pulls {
                shared.scheduler().woke(device_id);
            }
            match popped {
                DevicePop::Closed => return None,
                DevicePop::Job { job, from } => (job, from),
            }
        }
    };
    if routed.claimed {
        shared.scheduler().release(from);
    }
    if from != device_id {
        shared.pool.device(device_id).note_steal();
        shared.trace.emit(|| TraceEvent::Steal {
            at: shared.clock.now(),
            from: from as u64,
            to: device_id as u64,
        });
    }
    Some(routed.flush)
}

/// A worker thread pinned to one device: take the next flush, serve it,
/// and — if its device was lost mid-batch — re-route the dead device's
/// backlog onto survivors. Exits when the queues close and its backlog
/// drains.
fn worker_loop<T: Real>(shared: Arc<Shared<T>>, device_id: usize) {
    while let Some(flush) = next_flush(&shared, device_id) {
        shared.serve_on(device_id, flush);
        if shared.pool.is_lost(device_id) {
            // The device died under this batch: drain its queue and
            // re-route the stranded batches to healthy devices so they are
            // not served through guaranteed-dead launches.
            for stranded in shared.queues.drain(device_id) {
                if stranded.claimed {
                    shared.scheduler().release(device_id);
                }
                match shared.pool.route() {
                    Some(target) => {
                        shared.queues.push(target, Routed { claimed: false, ..stranded })
                    }
                    // No healthy device left: the dead context's ladder
                    // demotes straight to CPU GEP.
                    None => shared.serve_on(device_id, stranded.flush),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::{Generator, Workload};

    fn quick_config() -> ServiceConfig {
        ServiceConfig {
            queue_capacity: 64,
            target_batch: 8,
            max_linger: Duration::from_millis(1),
            workers: 2,
            min_gpu_batch: 4,
            probe_count: 4,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn round_trip_a_handful_of_requests() {
        let service: SolverService<f32> = SolverService::start(quick_config());
        let mut generator = Generator::new(1);
        let tickets: Vec<_> = (0..16)
            .map(|_| service.submit(generator.system(Workload::DiagonallyDominant, 64)).unwrap())
            .collect();
        for ticket in tickets {
            let resp = ticket.wait();
            assert_eq!(resp.x.len(), 64);
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        let snap = service.shutdown();
        assert_eq!(snap.submitted, 16);
        assert_eq!(snap.completed, 16);
        assert_eq!(snap.dispatched_total(), 16);
        assert_eq!(snap.occupancy_total(), 16);
    }

    #[test]
    fn lone_request_is_not_starved() {
        let service: SolverService<f32> = SolverService::start(quick_config());
        let system = Generator::new(2).system(Workload::Poisson, 32);
        let resp = service.submit_wait(system).unwrap();
        assert_eq!(resp.batch_occupancy, 1, "a lone request rides alone");
        assert!(resp.residual < 1e-3);
        let snap = service.shutdown();
        assert!(snap.flushes_linger + snap.flushes_shutdown >= 1);
    }

    /// Spins until `idle` of the service's workers are parked with nothing
    /// routed to them (bounded, so a broken park cannot hang the test).
    fn wait_for_idle<T: Real>(service: &SolverService<T>, idle: usize) {
        let since = std::time::Instant::now();
        while service.shared.scheduler().idle() != idle {
            assert!(since.elapsed() < Duration::from_secs(30), "workers never parked");
            std::thread::yield_now();
        }
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        // The only worker is busy with a large system, so the small
        // requests are still parked in their bucket (60 s linger) when
        // shutdown begins — the drain must still answer them all.
        let config = ServiceConfig {
            max_linger: Duration::from_secs(60),
            target_batch: 1000,
            workers: 1,
            pin_engine: Some(crate::planner::Engine::Cpu(crate::planner::CpuEngine::Thomas)),
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let mut generator = Generator::new(3);
        let large = generator.system(Workload::DiagonallyDominant, 1 << 20);
        wait_for_idle(&service, 1);
        let large = service.submit(large).unwrap();
        wait_for_idle(&service, 0);
        let tickets: Vec<_> = (0..5)
            .map(|_| service.submit(generator.system(Workload::DiagonallyDominant, 32)).unwrap())
            .collect();
        let snap = service.shutdown();
        assert_eq!(snap.completed, 6);
        assert_eq!(snap.flushes_shutdown, 1);
        assert!(large.try_take().is_some());
        for ticket in tickets {
            assert!(ticket.try_take().is_some(), "shutdown must fulfil parked requests");
        }
    }

    #[test]
    fn submissions_after_shutdown_are_rejected() {
        let service: SolverService<f32> = SolverService::start(quick_config());
        assert!(service.shared.scheduler().close().is_empty(), "nothing was admitted");
        let system = Generator::new(4).system(Workload::DiagonallyDominant, 32);
        assert!(matches!(service.submit(system), Err(ServiceError::ShuttingDown)));
    }

    #[test]
    fn undersized_systems_are_rejected_at_admission() {
        let service: SolverService<f32> = SolverService::start(quick_config());
        let one = TridiagonalSystem { a: vec![0.0], b: vec![2.0], c: vec![0.0], d: vec![1.0] };
        assert!(matches!(service.submit(one), Err(ServiceError::InvalidRequest(_))));
    }

    #[test]
    fn queue_full_rejects_with_typed_error() {
        // One-slot cap, long linger, one worker: while the worker serves,
        // the next request waits in its bucket and fills the cap.
        let config = ServiceConfig {
            queue_capacity: 1,
            target_batch: 1000,
            max_linger: Duration::from_secs(60),
            workers: 1,
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let mut generator = Generator::new(5);
        let mut rejections = 0u64;
        let mut attempts = 0u64;
        // Burst until the 1-slot queue sheds load at least once (bounded so
        // a pathological scheduler cannot hang the test).
        while rejections == 0 && attempts < 10_000 {
            attempts += 1;
            match service.submit(generator.system(Workload::DiagonallyDominant, 32)) {
                Ok(_) => {}
                Err(ServiceError::QueueFull { capacity, retry_after }) => {
                    assert_eq!(capacity, 1);
                    if let Some(hint) = retry_after {
                        assert!(hint >= Duration::from_micros(20));
                        assert!(hint <= Duration::from_millis(50));
                    }
                    rejections += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rejections > 0, "a burst into a 1-slot queue must shed load");
        let snap = service.shutdown();
        assert_eq!(snap.rejected, rejections);
        assert_eq!(snap.submitted + snap.rejected, attempts);
        assert_eq!(snap.completed, snap.submitted);
    }

    #[test]
    fn a_full_queue_gets_exactly_one_client_retry() {
        // The only worker is busy with a large system, so the first small
        // request waits in its bucket and fills the one-slot cap; the next
        // is refused. The sim clock makes the hinted back-off virtual, so
        // the retry lands long before the large system is served.
        for client_retry in [true, false] {
            let config = ServiceConfig {
                queue_capacity: 1,
                client_retry,
                max_linger: Duration::from_secs(60),
                target_batch: 1000,
                workers: 1,
                pin_engine: Some(crate::planner::Engine::Cpu(crate::planner::CpuEngine::Thomas)),
                clock: Clock::sim(),
                ..quick_config()
            };
            let service: SolverService<f32> = SolverService::start(config);
            let mut generator = Generator::new(13);
            // A completion first, so a hint exists.
            service.submit_wait(generator.system(Workload::DiagonallyDominant, 32)).unwrap();
            let large = generator.system(Workload::DiagonallyDominant, 1 << 20);
            wait_for_idle(&service, 1);
            let _large = service.submit(large).unwrap();
            wait_for_idle(&service, 0);
            let first = service.submit(generator.system(Workload::DiagonallyDominant, 32)).unwrap();
            match service.submit_wait(generator.system(Workload::DiagonallyDominant, 32)) {
                Err(ServiceError::QueueFull { capacity: 1, retry_after: Some(_) }) => {}
                other => panic!("expected QueueFull with a hint, got {other:?}"),
            }
            let retries = u64::from(client_retry);
            assert_eq!(service.metrics().rejected, 1 + retries, "one retry, never a loop");
            assert!(first.wait().residual < 1e-2);
            assert_eq!(service.shutdown().completed, 3);
        }
    }

    #[test]
    fn every_device_lost_still_answers() {
        // A one-device pool whose device is lost on its first launch: the
        // worker serves through the CPU safety net and must keep pulling
        // buckets, or the next request waits for a worker that never comes.
        use gpu_sim::FaultConfig;
        let config = ServiceConfig {
            pool: Some(device_pool::PoolConfig {
                fault: Some(FaultConfig { device_lost_after: Some(0), ..FaultConfig::quiet(0) }),
                ..device_pool::PoolConfig::new(1)
            }),
            workers: 1,
            min_gpu_batch: 1,
            max_linger: Duration::from_millis(20),
            pin_engine: Some(crate::planner::Engine::Gpu(gpu_solvers::GpuAlgorithm::CrPcr {
                m: 16,
            })),
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let mut generator = Generator::new(14);
        for i in 0..3 {
            let ticket =
                service.submit(generator.system(Workload::DiagonallyDominant, 64)).unwrap();
            let since = std::time::Instant::now();
            let resp = loop {
                if let Some(resp) = ticket.try_take() {
                    break resp;
                }
                assert!(since.elapsed() < Duration::from_secs(10), "request {i} was stranded");
                std::thread::sleep(Duration::from_millis(1));
            };
            assert_eq!(resp.engine, "cpu-gep", "a lost device serves through the safety net");
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        let snap = service.shutdown();
        assert!(snap.devices[0].lost);
        assert_eq!(snap.completed, 3);
    }

    #[test]
    fn past_deadlines_are_rejected_at_admission() {
        let service: SolverService<f32> = SolverService::start(quick_config());
        let system = Generator::new(6).system(Workload::DiagonallyDominant, 32);
        // Tick 0 is the service clock's epoch — long past by now.
        match service.submit_with_deadline(system, Some(0)) {
            Err(ServiceError::DeadlineExceeded { deadline }) => {
                assert_eq!(deadline, Duration::ZERO, "past deadlines have zero budget left");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let snap = service.shutdown();
        assert_eq!(snap.submitted, 0, "rejected requests are never admitted");
    }

    #[test]
    fn deadline_forces_an_early_flush_long_before_linger() {
        // Linger is 60 s and the batch target is out of reach: the 20 ms
        // deadline is met on an idle service. (Which rule flushed it — the
        // idle worker's or the deadline's — is the pure scheduler's
        // business; `batcher::tests` labels a deadline flush there, with
        // every worker busy.)
        let config = ServiceConfig {
            max_linger: Duration::from_secs(60),
            target_batch: 1000,
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let system = Generator::new(7).system(Workload::DiagonallyDominant, 32);
        let deadline = service.clock().tick_after(Duration::from_millis(20));
        let started = std::time::Instant::now();
        let ticket = service.submit_with_deadline(system, Some(deadline)).unwrap();
        let resp = ticket.wait();
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(10),
            "deadline must beat the 60 s linger, waited {waited:?}"
        );
        assert!(!resp.deadline_missed, "an idle service meets a 20 ms deadline");
        assert!(resp.residual < 1e-2, "{}", resp.residual);
        let snap = service.shutdown();
        assert_eq!(snap.flushes_shutdown, 0, "flushed long before shutdown");
        assert_eq!(snap.completed, 1);
    }

    #[test]
    fn sim_clock_service_answers_without_real_lingering() {
        // A 60 s linger under the simulated clock: a lone request goes
        // straight to the idle worker, so neither real nor virtual time
        // is spent lingering.
        let config = ServiceConfig {
            max_linger: Duration::from_secs(60),
            target_batch: 1000,
            clock: Clock::sim(),
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let wall = std::time::Instant::now();
        let system = Generator::new(9).system(Workload::DiagonallyDominant, 32);
        let resp = service.submit_wait(system).unwrap();
        assert!(resp.residual < 1e-3);
        assert!(wall.elapsed() < Duration::from_secs(10), "no real linger");
        assert!(resp.latency < Duration::from_secs(1), "no virtual linger: {:?}", resp.latency);
        let snap = service.shutdown();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.flushes_linger, 1, "the idle worker closed the window at once");
    }

    #[test]
    fn a_lone_request_skips_the_linger() {
        // The worker is parked before the request arrives, so only the
        // admission's idle check can flush it short of the 60 s linger.
        let config = ServiceConfig {
            max_linger: Duration::from_secs(60),
            target_batch: 1000,
            workers: 1,
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        wait_for_idle(&service, 1);
        let started = std::time::Instant::now();
        let resp = service.submit_wait(Generator::new(10).system(Workload::Poisson, 128)).unwrap();
        let waited = started.elapsed();
        assert!(waited < Duration::from_secs(10), "a lone request waited {waited:?}");
        assert_eq!(resp.batch_occupancy, 1);
        assert_eq!(service.shutdown().flushes_linger, 1);
    }

    #[test]
    fn a_burst_drains_without_waiting_out_the_linger() {
        // Mixed sizes, a 60 s linger and an unreachable batch target: the
        // admissions hand the idle worker one bucket, and every other
        // partial bucket must be pulled by the worker as it runs dry.
        let config = ServiceConfig {
            queue_capacity: 256,
            max_linger: Duration::from_secs(60),
            target_batch: 1000,
            workers: 1,
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let mut generator = Generator::new(11);
        let started = std::time::Instant::now();
        let tickets: Vec<_> = (0..200)
            .map(|i| {
                let n = [32, 64, 128, 256][i % 4];
                service.submit(generator.system(Workload::DiagonallyDominant, n)).unwrap()
            })
            .collect();
        for ticket in tickets {
            assert!(ticket.wait().residual < 1e-2);
        }
        let waited = started.elapsed();
        assert!(waited < Duration::from_secs(10), "the burst waited {waited:?}");
        let snap = service.shutdown();
        assert_eq!(snap.completed, 200);
        assert_eq!(snap.flushes_total(), snap.flushes_linger, "every flush an idle one");
    }

    #[test]
    fn an_idle_flush_lands_on_an_idle_device() {
        // Four devices, one busy with a large system: the lone requests
        // that follow must each go to a parked worker's device, never
        // queue behind the busy one.
        let config = ServiceConfig {
            pool: Some(device_pool::PoolConfig::new(4)),
            max_linger: Duration::from_secs(60),
            target_batch: 1000,
            pin_engine: Some(crate::planner::Engine::Gpu(gpu_solvers::GpuAlgorithm::CrGlobalOnly)),
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let mut generator = Generator::new(12);
        let large = generator.system(Workload::DiagonallyDominant, 1 << 16);
        wait_for_idle(&service, 4);
        let large = service.submit(large).unwrap();
        wait_for_idle(&service, 3);
        for _ in 0..8 {
            let resp =
                service.submit_wait(generator.system(Workload::DiagonallyDominant, 64)).unwrap();
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        assert!(large.try_take().is_none(), "the large system outlasts the lone ones");
        let snap = service.shutdown();
        let served: Vec<u64> = snap.devices.iter().map(|d| d.dispatched).collect();
        assert_eq!(served[0], 1, "the busy device served only the large system: {served:?}");
        assert_eq!(served.iter().sum::<u64>(), 9);
    }

    #[test]
    fn pooled_service_shards_flushes_across_devices() {
        // Four devices, single-flush batches: the metrics devices block
        // must show all four devices and the dispatched work sharded
        // across more than one of them.
        let config = ServiceConfig {
            pool: Some(device_pool::PoolConfig::new(4)),
            target_batch: 4,
            min_gpu_batch: 1,
            pin_engine: Some(crate::planner::Engine::Gpu(gpu_solvers::GpuAlgorithm::CrPcr {
                m: 16,
            })),
            ..quick_config()
        };
        let service: SolverService<f32> = SolverService::start(config);
        let mut generator = Generator::new(21);
        let tickets: Vec<_> = (0..64)
            .map(|_| service.submit(generator.system(Workload::DiagonallyDominant, 64)).unwrap())
            .collect();
        for ticket in tickets {
            let resp = ticket.wait();
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        let snap = service.shutdown();
        assert_eq!(snap.completed, 64);
        assert_eq!(snap.devices.len(), 4, "one gauge block per pool device");
        for dev in &snap.devices {
            assert!(!dev.lost);
            assert_eq!(dev.breaker, "closed");
        }
        let active = snap.devices.iter().filter(|d| d.dispatched > 0).count();
        assert!(active >= 2, "work must shard across devices: {:?}", snap.devices);
        let total_ms: f64 = snap.devices.iter().map(|d| d.device_ms).sum();
        assert!(total_ms > 0.0, "GPU batches must accrue device time");
        assert!(snap.degradation.is_quiet(), "fault-free pool stays quiet");
    }

    #[test]
    fn single_device_pool_preserves_solo_behaviour() {
        // No pool configured: exactly one device gauge, pinned to the
        // configured launcher, and all work lands on it.
        let service: SolverService<f32> = SolverService::start(quick_config());
        let mut generator = Generator::new(22);
        for _ in 0..8 {
            service.submit_wait(generator.system(Workload::DiagonallyDominant, 64)).unwrap();
        }
        let snap = service.shutdown();
        assert_eq!(snap.devices.len(), 1);
        assert_eq!(snap.devices[0].id, 0);
        assert!(!snap.devices[0].lost);
        assert_eq!(snap.devices[0].steals, 0, "one queue, nothing to steal");
    }

    #[test]
    fn a_proof_catalog_makes_the_plan_cache_proven_only() {
        // Proof families start at n = 4, so at n = 2 a proven-only cache
        // ranks the CPU alone while an open one ranks GPU kernels too.
        use crate::planner::{CpuEngine, Engine};
        let ranking_at_2 = |verified| {
            let service: SolverService<f32> =
                SolverService::start(ServiceConfig { verified, ..quick_config() });
            let launcher = Launcher::gtx280();
            let ranking =
                service.shared.plans.ranking_for_on::<f32>(&launcher, 2, 4, &Clock::sim());
            service.shutdown();
            ranking
        };
        let catalog = Arc::new(kernel_verify::VerifiedCatalog::new());
        assert_eq!(ranking_at_2(Some(catalog)), vec![Engine::Cpu(CpuEngine::Thomas)]);
        assert!(ranking_at_2(None).iter().any(|e| matches!(e, Engine::Gpu(_))));
    }

    #[test]
    fn healthy_service_reports_a_quiet_degradation_state() {
        let service: SolverService<f32> = SolverService::start(quick_config());
        let mut generator = Generator::new(8);
        for _ in 0..8 {
            let resp =
                service.submit_wait(generator.system(Workload::DiagonallyDominant, 64)).unwrap();
            assert!(!resp.deadline_missed, "no deadline was set");
        }
        let snap = service.shutdown();
        assert!(
            snap.degradation.is_quiet(),
            "fault-free run must not degrade: {:?}",
            snap.degradation
        );
    }
}
