//! Dispatcher: executes a flushed batch on the planned engine, verifies
//! every solution, repairs failures, and fulfils tickets.
//!
//! Routing policy, in order:
//!
//! 0. **A flush is split by matrix.** The batcher buckets by size alone;
//!    with the warm tier on, a matrix key that is resident in the factor
//!    cache, certified, or admitted (seen before, or twice in this flush)
//!    is served as its own group — warm hit, or cold with its
//!    certificate's verify policy — and every other member (one-hit keys,
//!    unkeyed requests) rides one cold group with full verification. The
//!    rules below apply per group.
//! 1. **Small groups go to the CPU.** A group of one or two systems
//!    cannot amortize a kernel launch + PCIe round trip; below
//!    `min_gpu_batch` the dispatcher overrides the cached plan with the
//!    sequential Thomas solver.
//! 2. **Otherwise the [`PlanCache`] decides** — autotuned once per size
//!    class (pruned by the PCIe floor), O(1) afterwards. CPU groups are
//!    solved straight from the requests; only GPU engines copy the group
//!    into a batch.
//! 3. **Every answer is verified.** GPU batches run through
//!    [`solve_batch_robust`] (the repo's verify-and-repair wrapper); CPU
//!    batches get the same residual acceptance test with per-system GEP
//!    repair. The service never returns an unverified solution — the
//!    paper's solvers are pivoting-free and may fail on general matrices,
//!    so verification is what makes this a *service* rather than a kernel.
//! 4. **Only proven kernels are planned.** A service holding a
//!    `kernel_verify::VerifiedCatalog` builds its [`PlanCache`] with
//!    [`PlanCache::proven_only`]: a GPU kernel the catalog does not prove
//!    race/OOB/barrier-safe for its whole size family never enters the
//!    tournament, so it is neither planned nor on the fallback ladder.
//!    Nothing is sanitized at serving time; the sanitizer is a CI and
//!    test tool (`repro sanitize`, `tests/sanitize_clean.rs`).
//! 5. **Device faults are retried, then degraded — never surfaced.** A
//!    transient [`TridiagError::DeviceFault`] re-dispatches the same
//!    engine with exponential backoff (up to
//!    [`DispatchConfig::max_attempts_per_engine`]); an engine that keeps
//!    faulting is excluded and the next-best candidate from the autotune
//!    ranking takes over; [`TridiagError::DeviceLost`] or exhausting
//!    [`DispatchConfig::max_total_attempts`] demotes the flush to the CPU
//!    GEP safety net. An engine's per-engine **circuit breaker**
//!    (see [`CircuitBreakers`]) short-circuits this ladder while the
//!    engine is known-bad, re-probing it after a cooldown. Every retry,
//!    fault, and degradation is counted into the metrics — degradation is
//!    observable, never silent.

use crate::batcher::{FlushReason, FlushedBatch};
use crate::breaker::{Admission, CircuitBreakers};
use crate::metrics::ServiceMetrics;
use crate::planner::{CpuEngine, Engine, PlanCache};
use crate::request::SolveRequest;
use crate::sightings::Sightings;
use crate::trace::{TraceEvent, TraceHandle};
use cpu_solvers::{gep, thomas};
use device_pool::DevicePool;
use factor_cache::{FactorCache, FactorEntry, SharedFactorCache};
use gpu_sim::{tick_duration, Clock, Launcher};
use gpu_solvers::{solve_batch_robust, GpuAlgorithm, RobustOptions};
use numeric_verify::{CertifiedCatalog, VerifyDecision};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use tridiag_core::residual::l2_residual;
use tridiag_core::{
    MatrixKey, NumericCertificate, Real, SolutionBatch, SystemBatch, TridiagError,
    TridiagonalSystem,
};

/// Dispatch-time knobs (a copy of the relevant service config).
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Flushes smaller than this run on the CPU regardless of plan.
    pub min_gpu_batch: usize,
    /// Residual acceptance scale (see [`RobustOptions::threshold_scale`]).
    pub threshold_scale: f64,
    /// Probe batch size used when a plan-cache miss triggers autotune.
    pub probe_count: usize,
    /// When set, bypass the planner *and* the small-flush CPU override and
    /// run every batch on this engine (benchmarking / A-B testing knob).
    /// The pin bypasses a proven-only [`PlanCache`]'s filter along with
    /// the planner: the pinned kernel runs whether or not it is proven.
    /// Verification and GEP repair still apply.
    pub pin_engine: Option<Engine>,
    /// Factorization cache for the warm serving tier. When set, each
    /// flush is split by matrix key, and a key's group whose matrix is
    /// resident is served from the cached elimination coefficients —
    /// back-substitution only, no elimination — with a miss on an
    /// admitted key (see [`sightings`](Self::sightings)) factoring the
    /// matrix once and falling through to the cold path. `None` (the
    /// default, with no `certified` catalog either) disables the warm
    /// tier entirely: a flush is one group.
    pub factor_cache: Option<Arc<SharedFactorCache>>,
    /// Numerical-safety certificate catalog. When set, each matrix key is
    /// statically analyzed once, on its second sighting, and served as its
    /// own dispatch group from then on; certified matrices downgrade the
    /// per-answer residual verify to deterministic 1-in-K *sampled*
    /// verification (skipped
    /// answers keep the NaN/Inf guard and report the certificate's
    /// a-priori forward-error bound), and a corruption caught on any
    /// verified flush revokes the certificate. `None` (the default) keeps
    /// full verification everywhere.
    pub certified: Option<Arc<CertifiedCatalog>>,
    /// The service's second-sighting table, gating the warm tier's write
    /// side (certificate analysis and factor insert; see
    /// [`crate::sightings`]). State, not a knob: each default-built
    /// config gets an empty table, and clones share it.
    pub sightings: Arc<Sightings>,
    /// How many times one engine is tried per flush before it is excluded
    /// (first attempt + retries). Transient device faults between attempts
    /// back off exponentially.
    pub max_attempts_per_engine: usize,
    /// Total engine dispatch attempts per flush across all candidates;
    /// exhausting this demotes the flush to the CPU GEP safety net.
    pub max_total_attempts: usize,
    /// First retry backoff; doubles per subsequent attempt (plus a small
    /// deterministic jitter so colliding workers de-synchronize).
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// The clock retry backoffs sleep on and latencies are measured with.
    /// Under a simulated clock backoffs advance virtual time instead of
    /// parking, and CPU engine time comes from a deterministic cost model
    /// instead of the wall — the whole dispatch becomes replayable.
    pub clock: Clock,
    /// Decision trace sink (disabled by default).
    pub trace: TraceHandle,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        Self {
            min_gpu_batch: 4,
            threshold_scale: 100.0,
            probe_count: 16,
            pin_engine: None,
            factor_cache: None,
            certified: None,
            sightings: Arc::new(Sightings::new()),
            max_attempts_per_engine: 2,
            max_total_attempts: 4,
            backoff_base: Duration::from_micros(50),
            backoff_max: Duration::from_millis(2),
            clock: Clock::real(),
            trace: TraceHandle::disabled(),
        }
    }
}

/// The device a flush is served on: its launcher, its pool identity, and
/// (when the service runs on a multi-device pool) a handle back to the
/// pool so dispatch can mark the device lost and account its busy time.
///
/// Breaker keys are **per device**: engine `cr+pcr@32` on device 2 keys
/// breaker `dev2:cr+pcr@32`, so a sticky fault on one device opens only
/// that device's breakers — traffic re-routes instead of the whole
/// service demoting to the CPU.
#[derive(Debug, Clone, Copy)]
pub struct DeviceCtx<'a> {
    /// The launcher executing this flush's kernels.
    pub launcher: &'a Launcher,
    /// Pool id of the device (0 for a solo launcher).
    pub device_id: usize,
    /// The pool the device belongs to, if any. `None` for direct callers
    /// (tests, benches) running a standalone launcher.
    pub pool: Option<&'a DevicePool>,
}

impl<'a> DeviceCtx<'a> {
    /// Wraps a standalone launcher as device 0 with no pool attached.
    pub fn solo(launcher: &'a Launcher) -> Self {
        Self { launcher, device_id: 0, pool: None }
    }

    /// The per-device breaker key for `engine_label`.
    fn breaker_key(&self, engine_label: &str) -> String {
        format!("dev{}:{engine_label}", self.device_id)
    }

    /// Marks this device lost in its pool (no-op for solo devices).
    fn mark_lost(&self) {
        if let Some(pool) = self.pool {
            pool.mark_lost(self.device_id);
        }
    }

    /// Accounts one served flush's simulated busy time to this device.
    fn note_dispatched(&self, engine_ms: f64) {
        if let Some(pool) = self.pool {
            pool.device(self.device_id).note_dispatched(engine_ms);
        }
    }
}

/// Serves one flushed batch end to end: split by matrix → plan → execute
/// → verify/repair → fulfil tickets → record metrics. Infallible by
/// design: any engine error degrades to the per-system GEP path rather
/// than dropping requests.
///
/// The batcher buckets by size alone, so with the warm tier on (a factor
/// cache or certified catalog) one flush may hold many matrices; see
/// [`split_by_matrix`] for how it is cut into dispatch groups. Each group
/// is planned, executed and accounted on its own (one `Served` event per
/// group); the flush itself counts once in `flushes_<reason>`.
pub fn serve_flush<T: Real>(
    device: DeviceCtx<'_>,
    plans: &PlanCache,
    breakers: &CircuitBreakers,
    metrics: &ServiceMetrics,
    cfg: &DispatchConfig,
    flush: FlushedBatch<T>,
) {
    let FlushedBatch { n, requests, reason } = flush;
    debug_assert!(!requests.is_empty(), "empty flush");
    metrics.on_flush(reason);
    let groups = split_by_matrix(&requests, n, metrics, cfg);
    let mut slots: Vec<Option<SolveRequest<T>>> = requests.into_iter().map(Some).collect();
    for group in groups {
        serve_group(&device, plans, breakers, metrics, cfg, n, reason, group, &mut slots);
    }
}

/// One dispatch group of a flush: its members, as indices into the flush
/// in request order, and — for a matrix served through the warm tier on
/// its own — that matrix's key.
struct Group<T: Real> {
    members: Vec<usize>,
    keyed: Option<KeyedGroup<T>>,
}

/// A matrix key served as its own group.
struct KeyedGroup<T: Real> {
    key: MatrixKey,
    /// A repeat sighting, or at least two members in this flush: the
    /// warm tier's write side (certificate analysis, factor insert) runs.
    admitted: bool,
    /// The key's one factor-cache lookup (`None` on a miss, or without a
    /// cache).
    entry: Option<FactorEntry<T>>,
}

/// Cuts a flush into dispatch groups by full [`MatrixKey`]. Each distinct
/// key's sighting is recorded once and its factorization looked up once.
/// A key that is resident in the cache, holds a certificate, or is
/// admitted (a repeat sighting, or ≥ 2 members here) is its own group,
/// served through the warm tier as before. Every other member — one-hit
/// keys (their `FactorMiss` counted here) and unkeyed requests — rides
/// one cold group with full verification, so distinct matrices still
/// share a launch. Without a cache or catalog the flush is one group.
/// Groups come out in the order of their first member.
fn split_by_matrix<T: Real>(
    requests: &[SolveRequest<T>],
    n: usize,
    metrics: &ServiceMetrics,
    cfg: &DispatchConfig,
) -> Vec<Group<T>> {
    if cfg.factor_cache.is_none() && cfg.certified.is_none() {
        return vec![Group { members: (0..requests.len()).collect(), keyed: None }];
    }
    let mut by_key: Vec<(MatrixKey, Vec<usize>)> = Vec::new();
    let mut slot_of: HashMap<MatrixKey, usize> = HashMap::new();
    let mut cold = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        let Some(key) = request.matrix_key else {
            cold.push(i);
            continue;
        };
        let slot = *slot_of.entry(key).or_insert_with(|| {
            by_key.push((key, Vec::new()));
            by_key.len() - 1
        });
        by_key[slot].1.push(i);
    }

    let cache = cfg.factor_cache.as_ref().map(|shared| shared.of::<T>());
    let mut groups = Vec::with_capacity(by_key.len() + 1);
    for (key, members) in by_key {
        let admitted = cfg.sightings.record(key.fingerprint()) || members.len() >= 2;
        let entry = cache.as_ref().and_then(|cache| cache.lookup(&key));
        let analyzed = cfg.certified.as_ref().is_some_and(|c| c.certificate(&key).is_some());
        if admitted || entry.is_some() || analyzed {
            groups.push(Group { members, keyed: Some(KeyedGroup { key, admitted, entry }) });
            continue;
        }
        if cache.is_some() {
            factor_miss(&key, n, metrics, cfg);
        }
        cold.extend(members);
    }
    if !cold.is_empty() {
        cold.sort_unstable();
        groups.push(Group { members: cold, keyed: None });
    }
    groups.sort_unstable_by_key(|g| g.members[0]);
    groups
}

/// Counts and traces one factor-cache miss on `key`.
fn factor_miss(key: &MatrixKey, n: usize, metrics: &ServiceMetrics, cfg: &DispatchConfig) {
    cfg.trace.emit(|| TraceEvent::FactorMiss {
        at: cfg.clock.now(),
        key: key.fingerprint(),
        n: n as u64,
    });
    metrics.on_factor_miss();
}

/// Serves one dispatch group and fulfils its members' tickets (taken out
/// of `slots`).
#[allow(clippy::too_many_arguments)] // internal dispatch plumbing; grouping would add a one-use struct
fn serve_group<T: Real>(
    device: &DeviceCtx<'_>,
    plans: &PlanCache,
    breakers: &CircuitBreakers,
    metrics: &ServiceMetrics,
    cfg: &DispatchConfig,
    n: usize,
    reason: FlushReason,
    group: Group<T>,
    slots: &mut [Option<SolveRequest<T>>],
) {
    let launcher = device.launcher;
    let Group { members, keyed } = group;
    let occupancy = members.len();
    let matrix_key = keyed.as_ref().map(|k| k.key);
    let admitted = keyed.as_ref().is_some_and(|k| k.admitted);
    // The group's systems, borrowed from the requests: CPU engines solve
    // them in place, and only GPU engines pay for a batched copy.
    let systems: Vec<&TridiagonalSystem<T>> = members
        .iter()
        .map(|&i| &slots[i].as_ref().expect("each member is served once").system)
        .collect();

    // Certification: an admitted or already-analyzed key consults the
    // certificate catalog, whose deterministic 1-in-K policy decides how
    // much verification this group pays. One-hit and unkeyed members keep
    // full verification.
    let mut policy = VerifyPolicy::full(cfg.threshold_scale);
    let mut certificate = NumericCertificate::Uncertified;
    let observation = match (&cfg.certified, matrix_key) {
        (Some(catalog), Some(key)) if admitted || catalog.certificate(&key).is_some() => {
            Some((key, catalog.observe(key, systems[0])))
        }
        _ => None,
    };
    if let Some((key, obs)) = observation {
        if obs.newly_analyzed {
            metrics.on_condest_calls(obs.condest_calls);
            if obs.certificate.is_certified() {
                metrics.on_cert_issued();
            }
            cfg.trace.emit(|| TraceEvent::CertIssued {
                at: cfg.clock.now(),
                key: key.fingerprint(),
                cert: obs.certificate.name().to_string(),
            });
        }
        certificate = obs.certificate;
        match obs.decision {
            VerifyDecision::Full => {}
            VerifyDecision::Sampled => {
                metrics.on_cert_sampled_verify();
                policy = VerifyPolicy {
                    decision: VerifyDecision::Sampled,
                    // Condition-informed acceptance (the condest wiring):
                    // a certified-but-worse-conditioned matrix widens its
                    // sampled-verify threshold instead of tripping false
                    // corruption alarms.
                    threshold_scale: RobustOptions::scaled_by_condition(
                        cfg.threshold_scale,
                        obs.kappa1,
                    )
                    .threshold_scale,
                    forward_error_bound: obs.forward_error_bound,
                };
            }
            VerifyDecision::Skip => {
                metrics.on_cert_skipped_verify();
                cfg.trace.emit(|| TraceEvent::CertSkipVerify {
                    at: cfg.clock.now(),
                    key: key.fingerprint(),
                    n: n as u64,
                });
                policy = VerifyPolicy {
                    decision: VerifyDecision::Skip,
                    threshold_scale: cfg.threshold_scale,
                    forward_error_bound: obs.forward_error_bound,
                };
            }
        }
    }

    // Warm tier: a keyed group whose factorization is resident skips
    // planning *and* elimination — it is served by back-substitution
    // alone; a miss on an admitted key factors the matrix for next time,
    // and every miss falls through cold.
    let mut warm_outcome: Option<Outcome<T>> = None;
    if let (Some(shared), Some(KeyedGroup { key, entry, .. })) = (&cfg.factor_cache, &keyed) {
        let cache = shared.of::<T>();
        match entry {
            Some(entry) => {
                cfg.trace.emit(|| TraceEvent::FactorHit {
                    at: cfg.clock.now(),
                    key: key.fingerprint(),
                    n: n as u64,
                });
                metrics.on_factor_hit();
                warm_outcome =
                    Some(warm_execute(device, &cache, key, entry, &systems, cfg, metrics, &policy));
                metrics.on_warm_flush();
            }
            None => {
                factor_miss(key, n, metrics, cfg);
                let sys = systems[0];
                // Unfactorable matrices (zero pivot, non-finite) are
                // simply not cached; the cold path's verify/repair
                // machinery owns them. The entry carries the matrix's
                // certificate so warm hits stay certificate-aware.
                if admitted {
                    if let Ok((_, evicted)) = cache.factor_and_insert_with_certificate(
                        *key,
                        &sys.a,
                        &sys.b,
                        &sys.c,
                        certificate,
                    ) {
                        metrics.on_factor_evictions(evicted.len() as u64);
                        for fp in evicted {
                            cfg.trace
                                .emit(|| TraceEvent::FactorEvict { at: cfg.clock.now(), key: fp });
                        }
                    }
                }
            }
        }
    }

    let mut outcome = if let Some(outcome) = warm_outcome {
        outcome
    } else {
        // Pinned engine wins outright; otherwise sub-critical groups skip
        // planning entirely (they go to the CPU, and tuning a size class
        // the GPU may never see would waste the tournament).
        let engine = match cfg.pin_engine {
            Some(engine) => engine,
            None if occupancy < cfg.min_gpu_batch => Engine::Cpu(CpuEngine::Thomas),
            None => plans.plan_for_on::<T>(launcher, n, cfg.probe_count, &cfg.clock).engine,
        };
        cfg.trace.emit(|| TraceEvent::Plan {
            at: cfg.clock.now(),
            n: n as u64,
            occupancy: occupancy as u64,
            engine: engine.to_string(),
        });

        // Retry ladder: when the planned engine keeps faulting, the
        // dispatcher walks the autotune ranking to the next-best GPU
        // candidate. A pinned engine has no ladder — the pin is an
        // explicit override.
        let fallbacks: Vec<Engine> = match (cfg.pin_engine, engine) {
            (None, Engine::Gpu(_)) => {
                plans.ranking_for_on::<T>(launcher, n, cfg.probe_count, &cfg.clock)
            }
            _ => Vec::new(),
        };

        execute(device, engine, &fallbacks, breakers, &systems, cfg, &policy)
    };

    // A corruption caught while serving a certified key revokes its
    // certificate: sampled verification did its job, and the key returns
    // to full per-answer verification for the life of the process.
    if outcome.corruptions > 0 && certificate.is_certified() {
        if let (Some(catalog), Some(key)) = (&cfg.certified, matrix_key) {
            if catalog.revoke(&key) {
                metrics.on_cert_revoked();
                cfg.trace.emit(|| TraceEvent::CertRevoked {
                    at: cfg.clock.now(),
                    key: key.fingerprint(),
                });
            }
        }
    }

    // Per-device accounting: GPU-served groups accrue simulated busy time
    // on the device that ran them (CPU-demoted groups cost the device
    // nothing).
    if !outcome.engine_label.starts_with("cpu") {
        device.note_dispatched(outcome.engine_ms);
    }

    metrics.on_batch_served(&outcome.engine_label, occupancy, outcome.repairs, outcome.engine_ms);
    metrics.on_degradation(
        outcome.retries,
        outcome.device_faults,
        outcome.corruptions,
        outcome.degraded,
    );

    // Charge the engine's time to the service clock: on the real clock
    // the wall already paid it (no-op); on a simulated clock this is what
    // turns modeled device/CPU milliseconds into observed latency.
    cfg.clock.work(Duration::from_secs_f64(outcome.engine_ms.max(0.0) / 1e3));
    let engine_ns = (outcome.engine_ms.max(0.0) * 1e6).round() as u64;
    cfg.trace.emit(|| TraceEvent::Served {
        at: cfg.clock.now(),
        n: n as u64,
        occupancy: occupancy as u64,
        engine: outcome.engine_label.clone(),
        reason,
        engine_ns,
        repairs: outcome.repairs as u64,
        degraded: outcome.degraded,
    });

    let now = cfg.clock.now();
    for (j, &i) in members.iter().enumerate() {
        let request = slots[i].take().expect("each member is served once");
        let latency = tick_duration(request.submitted_at, now);
        let deadline_missed = request.deadline.is_some_and(|d| now > d);
        if deadline_missed {
            metrics.on_deadline_miss();
        }
        let id = request.id;
        request.fulfil(crate::request::SolveResponse {
            id,
            x: std::mem::take(&mut outcome.solutions[j]),
            residual: outcome.residuals[j],
            engine: outcome.engine_label.clone(),
            repaired: outcome.repaired_flags[j],
            batch_occupancy: occupancy,
            latency,
            deadline_missed,
        });
        metrics.on_complete(latency);
    }
}

/// How much verification one flush pays, resolved once per flush from the
/// certified catalog (defaulting to full verification for unkeyed or
/// uncertified traffic).
#[derive(Debug, Clone, Copy)]
struct VerifyPolicy {
    decision: VerifyDecision,
    /// Acceptance scale for verified flushes (condition-informed on
    /// `Sampled` flushes of certified keys).
    threshold_scale: f64,
    /// The certificate's a-priori forward-error bound, reported in place
    /// of a measured residual on `Skip` flushes.
    forward_error_bound: f64,
}

impl VerifyPolicy {
    fn full(threshold_scale: f64) -> Self {
        VerifyPolicy {
            decision: VerifyDecision::Full,
            threshold_scale,
            forward_error_bound: f64::INFINITY,
        }
    }

    fn skips(&self) -> bool {
        self.decision == VerifyDecision::Skip
    }
}

struct Outcome<T: Real> {
    /// One solution per system, moved into the responses.
    solutions: Vec<Vec<T>>,
    residuals: Vec<f64>,
    repaired_flags: Vec<bool>,
    repairs: usize,
    engine_label: String,
    /// Simulated device ms (GPU) or measured wall-clock ms (CPU).
    engine_ms: f64,
    /// Engine dispatch attempts beyond the first (fault recoveries).
    retries: u64,
    /// Device faults observed while serving this flush.
    device_faults: u64,
    /// Memory corruptions the verify step caught (and GEP repaired).
    corruptions: u64,
    /// `true` when the final answer came from an engine other than the
    /// planned one (breaker denial, retry exhaustion, or device loss).
    degraded: bool,
}

/// Deterministic exponential backoff with a small jitter derived from the
/// attempt index (no RNG on the dispatch path): `base · 2^(attempt−1)`,
/// capped at `max`, plus up to a quarter-`base` of de-synchronization.
fn backoff_delay(cfg: &DispatchConfig, attempt: usize) -> Duration {
    let doubled = cfg
        .backoff_base
        .checked_mul(1u32 << (attempt.saturating_sub(1)).min(10) as u32)
        .unwrap_or(cfg.backoff_max);
    let jitter_us =
        (attempt as u64).wrapping_mul(7919) % (cfg.backoff_base.as_micros().max(4) as u64 / 4 + 1);
    doubled.min(cfg.backoff_max) + Duration::from_micros(jitter_us)
}

/// Runs `systems` on `engine`, verifying and repairing every solution.
///
/// * GPU engines sit behind their circuit breaker: a denied engine is
///   skipped, a cooled-down one gets a half-open probe whose outcome is
///   reported back.
/// * Transient device faults retry the same engine with backoff, then
///   walk `fallbacks` (the autotune ranking) to the next-best GPU
///   candidate; device loss or attempt exhaustion lands on the CPU GEP
///   safety net. The flush is **never** dropped.
#[allow(clippy::too_many_arguments)] // internal dispatch plumbing; grouping would add a one-use struct
fn execute<T: Real>(
    device: &DeviceCtx<'_>,
    engine: Engine,
    fallbacks: &[Engine],
    breakers: &CircuitBreakers,
    systems: &[&TridiagonalSystem<T>],
    cfg: &DispatchConfig,
    policy: &VerifyPolicy,
) -> Outcome<T> {
    let launcher = device.launcher;
    let threshold_scale = policy.threshold_scale;
    let first = match engine {
        Engine::Cpu(cpu) => return cpu_execute(systems, cpu, policy, &cfg.clock),
        Engine::Gpu(alg) => alg,
    };
    // GPU engines take the group as one batched copy (CPU engines solve
    // the borrowed systems in place, above).
    let batch = SystemBatch::generate(systems.len(), |i| systems[i].clone())
        .expect("flush holds >=1 same-size systems");

    // The candidate ladder: planned engine first, then every lower-ranked
    // GPU candidate from the tournament (CPU entries are implicit — the
    // ladder always ends at the GEP safety net below).
    let mut candidates: Vec<GpuAlgorithm> = vec![first];
    candidates.extend(fallbacks.iter().filter_map(|e| match e {
        Engine::Gpu(alg) if *alg != first => Some(*alg),
        _ => None,
    }));

    let mut retries = 0u64;
    let mut device_faults = 0u64;
    let mut total_attempts = 0usize;

    'ladder: for (rank, alg) in candidates.iter().enumerate() {
        let gpu_engine = Engine::Gpu(*alg);
        let label = gpu_engine.to_string();
        let key = device.breaker_key(&label);
        match breakers.admit(&key) {
            Admission::Deny => continue 'ladder, // known-bad: next candidate
            Admission::Allow | Admission::Probe => {}
        }
        let mut engine_attempts = 0usize;
        while engine_attempts < cfg.max_attempts_per_engine
            && total_attempts < cfg.max_total_attempts
        {
            engine_attempts += 1;
            total_attempts += 1;
            if total_attempts > 1 {
                retries += 1;
                // Backoff on the service clock: parks for real, advances
                // virtual time under a simulated clock.
                cfg.clock.sleep(backoff_delay(cfg, total_attempts - 1));
                cfg.trace.emit(|| TraceEvent::Retry {
                    at: cfg.clock.now(),
                    attempt: total_attempts as u64,
                });
            }
            let options = RobustOptions { threshold_scale, skip_residual_verify: policy.skips() };
            match solve_batch_robust(launcher, *alg, &batch, options) {
                Ok(report) => {
                    breakers.on_success(&key);
                    let mut repaired_flags = vec![false; systems.len()];
                    for repair in &report.repaired {
                        repaired_flags[repair.system] = true;
                    }
                    // The verify's measured residuals; skipped flushes
                    // report the certificate's a-priori bound instead of
                    // paying the O(n) read-back (repaired systems report
                    // their measured residual).
                    let residuals = report
                        .residuals
                        .iter()
                        .map(|r| r.unwrap_or(policy.forward_error_bound))
                        .collect();
                    let engine_ms = report.gpu.timing.total_ms();
                    let corruptions = report.gpu.corruption_count() as u64;
                    return Outcome {
                        solutions: split_solutions(&report.gpu.solutions),
                        residuals,
                        repairs: report.repaired.len(),
                        repaired_flags,
                        engine_label: label,
                        engine_ms,
                        retries,
                        device_faults,
                        corruptions,
                        degraded: rank > 0,
                    };
                }
                Err(e) if e.is_device_fault() => {
                    device_faults += 1;
                    let lost = matches!(e, TridiagError::DeviceLost);
                    cfg.trace.emit(|| TraceEvent::Fault { at: cfg.clock.now(), lost });
                    if lost {
                        // The whole device is gone: no GPU candidate on
                        // *this* device can serve the flush. Trip the
                        // breaker straight open, mark the device lost in
                        // its pool (the worker drains and re-routes its
                        // queue), and take the CPU safety net for this
                        // flush.
                        breakers.trip(&key);
                        device.mark_lost();
                        break 'ladder;
                    }
                    breakers.on_fault(&key);
                    // Transient: loop retries this engine (with backoff)
                    // until its per-engine budget runs out, then the
                    // ladder moves to the next candidate.
                }
                // Launch-configuration failure (e.g. a device swap made the
                // cached plan illegal): retrying cannot help this engine.
                Err(_) => break 'ladder,
            }
        }
        if total_attempts >= cfg.max_total_attempts {
            break 'ladder;
        }
    }

    // Every GPU avenue is exhausted (or denied): the pivoted CPU safety
    // net serves the flush. This is the graceful-degradation terminal —
    // correct answers, observable cost. It always pays full verification
    // regardless of certificates: a degraded flush has already shown
    // evidence that static assumptions may not hold.
    let full_policy = VerifyPolicy::full(cfg.threshold_scale);
    let mut out = cpu_execute(systems, CpuEngine::Gep, &full_policy, &cfg.clock);
    out.retries = retries;
    out.device_faults = device_faults;
    out.degraded = true;
    out
}

/// Deterministic CPU engine-time model for simulated clocks, in integer
/// nanoseconds: a fixed per-row cost per engine (GEP pays pivot-search
/// and row-swap overhead on top of the elimination sweep). The constants
/// are order-of-magnitude calibrations of the real solvers; what matters
/// for replay is that the value is a pure function of `(engine, n,
/// count)` — never of the wall.
pub(crate) fn sim_cpu_ns(cpu: CpuEngine, n: usize, count: usize) -> u64 {
    let per_row: u64 = match cpu {
        CpuEngine::Thomas => 25,
        CpuEngine::Gep => 70,
    };
    (n as u64).saturating_mul(count as u64).saturating_mul(per_row)
}

/// Simulated-clock share of the per-row engine cost that pays for the
/// per-answer residual verify (`||Ax − d||` read-back + reduction). A
/// certificate-backed `Skip` flush subtracts this discount from the
/// engine constants above, which are calibrated *with* verification
/// included — existing baselines are untouched, and the certified fast
/// path's measured win is exactly the verify it no longer performs.
pub(crate) const SIM_VERIFY_NS_PER_ROW: u64 = 7;

/// Simulated-clock cost of a warm CPU back-substitution, in integer
/// nanoseconds: 16 ns/row against Thomas's 25 — the `5n`-vs-`8n` flop
/// ratio of substitution-only against eliminate-and-substitute, on the
/// same calibration scale as [`sim_cpu_ns`].
pub(crate) fn sim_cpu_warm_ns(n: usize, count: usize) -> u64 {
    (n as u64).saturating_mul(count as u64).saturating_mul(16)
}

/// Serves one keyed flush from a cached factorization: GPU warm kernel
/// when the batch clears `min_gpu_batch` (falling back to the CPU sweep
/// on a device fault), CPU sweep otherwise. Every solution passes the
/// same residual acceptance test as the cold path — unless the key holds
/// a live [`NumericCertificate`] and the catalog's sampled-verification
/// policy says `Skip`, in which case only the NaN/Inf guard runs and the
/// reported residual is the certificate's a-priori forward-error bound.
/// A failure — a corrupted launch, or a stale/poisoned factorization —
/// is repaired per-system with GEP and **invalidates the cache entry**,
/// so the next flush refactors from scratch rather than re-trusting bad
/// coefficients.
#[allow(clippy::too_many_arguments)] // internal dispatch plumbing; grouping would add a one-use struct
fn warm_execute<T: Real>(
    device: &DeviceCtx<'_>,
    cache: &FactorCache<T>,
    key: &MatrixKey,
    entry: &FactorEntry<T>,
    systems: &[&TridiagonalSystem<T>],
    cfg: &DispatchConfig,
    metrics: &ServiceMetrics,
    policy: &VerifyPolicy,
) -> Outcome<T> {
    let n = entry.thomas.n();
    let count = systems.len();
    let mut device_faults = 0u64;
    let mut gpu_degraded = false;
    let started = std::time::Instant::now();

    // GPU attempt: one batched back-substitution launch. Faults fall back
    // to the CPU sweep below — warm flushes never ride the retry ladder
    // (there is no elimination to re-run; the substitution is cheap enough
    // that the CPU fallback is the faster recovery).
    let mut gpu_result: Option<(Vec<Vec<T>>, f64)> = None;
    if count >= cfg.min_gpu_batch {
        let rhs: Vec<&[T]> = systems.iter().map(|s| s.d.as_slice()).collect();
        match gpu_solvers::solve_batch_warm(device.launcher, &entry.thomas, &rhs) {
            Ok(report) => {
                let ms = report.timing.total_ms();
                gpu_result = Some((split_solutions(&report.solutions), ms));
            }
            Err(e) if e.is_device_fault() => {
                device_faults += 1;
                gpu_degraded = true;
                let lost = matches!(e, TridiagError::DeviceLost);
                cfg.trace.emit(|| TraceEvent::Fault { at: cfg.clock.now(), lost });
                if lost {
                    device.mark_lost();
                }
            }
            Err(_) => gpu_degraded = true,
        }
    }

    let (mut solutions, engine_ms, engine_label) = match gpu_result {
        Some((solutions, ms)) => (solutions, ms, "warm-gpu".to_string()),
        None => {
            let mut solutions = vec![vec![T::ZERO; n]; count];
            for (sys, x) in systems.iter().zip(&mut solutions) {
                entry.thomas.solve_into(&sys.d, x);
            }
            let skip = policy.skips() && entry.certificate.is_certified();
            let ms = if cfg.clock.is_sim() {
                let discount = if skip {
                    (n as u64).saturating_mul(count as u64).saturating_mul(SIM_VERIFY_NS_PER_ROW)
                } else {
                    0
                };
                sim_cpu_warm_ns(n, count).saturating_sub(discount) as f64 / 1e6
            } else {
                started.elapsed().as_secs_f64() * 1e3
            };
            (solutions, ms, "cpu-warm".to_string())
        }
    };

    // Same acceptance rule as the cold paths — unless a certificate
    // licenses skipping the residual read; the NaN/Inf guard is never
    // skipped. Failures additionally condemn the cached factorization.
    let skip_verify = policy.skips() && entry.certificate.is_certified();
    let mut residuals = vec![0.0f64; count];
    let mut repaired_flags = vec![false; count];
    let mut repairs = 0usize;
    let mut corruptions = 0u64;
    for (i, &sys) in systems.iter().enumerate() {
        let x = &mut solutions[i];
        let finite = x.iter().all(|v| v.is_finite());
        // Measured once: the residual that accepts an answer is the one
        // it reports.
        let measured = (!skip_verify && finite).then(|| residual_of(sys, x));
        let accepted = finite
            && measured.is_none_or(|r| r <= acceptance_threshold(policy.threshold_scale, sys));
        if !accepted {
            let _ = gep::solve_into(&sys.a, &sys.b, &sys.c, &sys.d, x);
            repaired_flags[i] = true;
            repairs += 1;
            corruptions += 1;
        }
        residuals[i] = match measured {
            Some(r) if accepted => r,
            _ if skip_verify && accepted => policy.forward_error_bound,
            _ => residual_of(sys, x),
        };
    }
    if corruptions > 0 && cache.invalidate(key) {
        metrics.on_factor_evictions(1);
        cfg.trace.emit(|| TraceEvent::FactorEvict { at: cfg.clock.now(), key: key.fingerprint() });
    }

    Outcome {
        solutions,
        residuals,
        repairs,
        repaired_flags,
        engine_label,
        engine_ms,
        retries: 0,
        device_faults,
        corruptions,
        degraded: gpu_degraded,
    }
}

/// CPU path with the same acceptance rule as `solve_batch_robust`: accept
/// when `||Ax − d||₂ ≤ scale · ||d||₂ · ε · n`, otherwise re-solve with
/// partial pivoting. A `Skip` policy drops the residual read (NaN/Inf
/// guard only) and reports the certificate's forward-error bound. Engine
/// time is measured off the wall on a real clock and modeled by
/// [`sim_cpu_ns`] (minus the [`SIM_VERIFY_NS_PER_ROW`] discount when
/// skipping) on a simulated one.
fn cpu_execute<T: Real>(
    systems: &[&TridiagonalSystem<T>],
    cpu: CpuEngine,
    policy: &VerifyPolicy,
    clock: &Clock,
) -> Outcome<T> {
    let n = systems[0].n();
    let skip_verify = policy.skips();
    let mut solutions = vec![vec![T::ZERO; n]; systems.len()];
    let mut residuals = vec![0.0f64; systems.len()];
    let mut repaired_flags = vec![false; systems.len()];
    let mut repairs = 0usize;
    let started = std::time::Instant::now();

    for (i, sys) in systems.iter().enumerate() {
        let x = &mut solutions[i];
        let primary_ok = match cpu {
            CpuEngine::Thomas => thomas::solve_into(&sys.a, &sys.b, &sys.c, &sys.d, x).is_ok(),
            CpuEngine::Gep => gep::solve_into(&sys.a, &sys.b, &sys.c, &sys.d, x).is_ok(),
        };
        let finite = x.iter().all(|v| v.is_finite());
        // Measured once: the residual that accepts an answer is the one
        // it reports.
        let measured = (!skip_verify && primary_ok && finite).then(|| residual_of(sys, x));
        let accepted = primary_ok
            && finite
            && measured.is_none_or(|r| r <= acceptance_threshold(policy.threshold_scale, sys));
        let repaired = !accepted && cpu != CpuEngine::Gep;
        if repaired {
            // Same repair path as the GPU robust wrapper.
            let _ = gep::solve_into(&sys.a, &sys.b, &sys.c, &sys.d, x);
            repaired_flags[i] = true;
            repairs += 1;
        }
        residuals[i] = match measured {
            Some(r) if !repaired => r,
            _ if skip_verify && accepted => policy.forward_error_bound,
            _ => residual_of(sys, x),
        };
    }

    let engine_ms = if clock.is_sim() {
        let base = sim_cpu_ns(cpu, n, systems.len());
        let discount = if skip_verify {
            (n as u64).saturating_mul(systems.len() as u64).saturating_mul(SIM_VERIFY_NS_PER_ROW)
        } else {
            0
        };
        base.saturating_sub(discount) as f64 / 1e6
    } else {
        started.elapsed().as_secs_f64() * 1e3
    };
    Outcome {
        solutions,
        residuals,
        repairs,
        repaired_flags,
        engine_label: Engine::Cpu(cpu).to_string(),
        engine_ms,
        retries: 0,
        device_faults: 0,
        corruptions: 0,
        degraded: false,
    }
}

/// A batch's solutions, one `Vec` per system.
fn split_solutions<T: Real>(batch: &SolutionBatch<T>) -> Vec<Vec<T>> {
    (0..batch.count()).map(|i| batch.system(i).to_vec()).collect()
}

/// `‖Ax − d‖₂` of `x` (`+∞` if the shapes disagree).
fn residual_of<T: Real>(sys: &TridiagonalSystem<T>, x: &[T]) -> f64 {
    l2_residual(sys, x).unwrap_or(f64::INFINITY)
}

/// The residual acceptance bound `scale · ‖d‖₂ · ε · n`, the same rule
/// `solve_batch_robust` applies.
fn acceptance_threshold<T: Real>(scale: f64, sys: &TridiagonalSystem<T>) -> f64 {
    let d_norm: f64 = sys.d.iter().map(|&v| v.to_f64() * v.to_f64()).sum::<f64>().sqrt().max(1e-30);
    scale * d_norm * T::EPSILON.to_f64() * sys.n() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::FlushReason;
    use crate::request::make_request;
    use gpu_solvers::GpuAlgorithm;
    use tridiag_core::{Generator, Workload};

    fn cfg() -> DispatchConfig {
        DispatchConfig {
            min_gpu_batch: 4,
            probe_count: 4,
            backoff_base: Duration::from_micros(10), // keep tests fast
            ..DispatchConfig::default()
        }
    }

    fn flush_of(
        n: usize,
        count: usize,
        seed: u64,
    ) -> (FlushedBatch<f32>, Vec<crate::request::Ticket<f32>>) {
        let mut generator = Generator::new(seed);
        let mut requests = Vec::new();
        let mut tickets = Vec::new();
        for i in 0..count {
            let (req, ticket) =
                make_request(i as u64, generator.system(Workload::DiagonallyDominant, n));
            requests.push(req);
            tickets.push(ticket);
        }
        (FlushedBatch { n, requests, reason: FlushReason::Full }, tickets)
    }

    #[test]
    fn served_flush_fulfils_every_ticket_accurately() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let (flush, tickets) = flush_of(128, 8, 11);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &cfg(),
            flush,
        );
        for (i, ticket) in tickets.into_iter().enumerate() {
            let resp = ticket.try_take().expect("synchronous serve fulfils immediately");
            assert_eq!(resp.id, i as u64);
            assert_eq!(resp.x.len(), 128);
            assert_eq!(resp.batch_occupancy, 8);
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        let snap = metrics.snapshot(0, plans.tunes(), plans.hits());
        assert_eq!(snap.completed, 8);
        assert_eq!(snap.dispatched_total(), 8);
        assert_eq!(snap.occupancy_total(), 8);
    }

    #[test]
    fn small_flushes_are_routed_to_the_cpu() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let (flush, tickets) = flush_of(128, 2, 12); // below min_gpu_batch = 4
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &cfg(),
            flush,
        );
        for ticket in tickets {
            assert_eq!(ticket.try_take().unwrap().engine, "cpu-thomas");
        }
    }

    #[test]
    fn zero_pivot_systems_are_repaired_on_the_cpu_path() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let mut generator = Generator::new(13);
        let mut bad: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, 64);
        bad.b[0] = 0.0; // Thomas dies, GEP interchanges rows
        let (req, ticket) = make_request(0, bad);
        let flush = FlushedBatch { n: 64, requests: vec![req], reason: FlushReason::Linger };
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &cfg(),
            flush,
        );
        let resp = ticket.try_take().unwrap();
        assert!(resp.repaired, "zero pivot must trigger GEP repair");
        assert!(resp.residual < 1e-2, "{}", resp.residual);
        assert_eq!(metrics.snapshot(0, 0, 0).repaired, 1);
    }

    #[test]
    fn pinned_engine_overrides_planner_and_small_flush_rule() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let (flush, tickets) = flush_of(128, 2, 14); // small flush...
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
            ..cfg()
        };
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &pinned,
            flush,
        );
        for ticket in tickets {
            // ...but the pin forces the GPU engine anyway.
            assert_eq!(ticket.try_take().unwrap().engine, "cr+pcr@32");
        }
        assert_eq!(plans.tunes(), 0, "pinning must not trigger autotune");
        let snap = metrics.snapshot(0, 0, 0);
        assert!(snap.engine_ms["cr+pcr@32"] > 0.0, "simulated device ms recorded");
    }

    #[test]
    fn gpu_path_verifies_and_repairs_via_robust_wrapper() {
        // Force a GPU plan by seeding the cache artificially through a
        // large flush on a size where GPU wins is not guaranteed; instead
        // exercise `execute` directly with a known-overflowing engine.
        let launcher = Launcher::gtx280();
        let systems: Vec<TridiagonalSystem<f32>> = {
            let mut generator = Generator::new(2);
            (0..8).map(|_| generator.system(Workload::DiagonallyDominant, 512)).collect()
        };
        // Plain RD overflows at n = 512 on dominant systems (Figure 18);
        // the robust wrapper must hand back repaired, accurate answers.
        let out = execute(
            &DeviceCtx::solo(&launcher),
            Engine::Gpu(GpuAlgorithm::Rd(gpu_solvers::RdMode::Plain)),
            &[],
            &CircuitBreakers::default(),
            &systems.iter().collect::<Vec<_>>(),
            &cfg(),
            &VerifyPolicy::full(100.0),
        );
        assert!(out.repairs > 0);
        assert!(out.residuals.iter().all(|&r| r.is_finite() && r < 1e-2));
    }

    // ── warm tier: factor-cache hits, misses, invalidation ───────────

    /// A keyed flush of `count` RHS against one shared matrix.
    fn keyed_flush(
        system: &TridiagonalSystem<f32>,
        count: usize,
        seed: u64,
    ) -> (FlushedBatch<f32>, Vec<crate::request::Ticket<f32>>) {
        let key = tridiag_core::MatrixKey::of_system(system);
        let n = system.n();
        let mut requests = Vec::new();
        let mut tickets = Vec::new();
        for i in 0..count {
            let mut sys = system.clone();
            sys.d =
                (0..n).map(|j| ((j as u64 * 13 + i as u64 * 7 + seed) % 19) as f32 - 9.0).collect();
            let (req, ticket) =
                crate::request::make_request_keyed(i as u64, sys, 0, None, Some(key));
            requests.push(req);
            tickets.push(ticket);
        }
        (FlushedBatch { n, requests, reason: FlushReason::Full }, tickets)
    }

    #[test]
    fn warm_tier_misses_cold_then_hits_warm() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let cache = Arc::new(SharedFactorCache::new(8));
        let warm_cfg = DispatchConfig { factor_cache: Some(Arc::clone(&cache)), ..cfg() };
        let mut generator = Generator::new(61);
        let system: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, 128);

        // First flush: cache miss → factored → served cold.
        let (flush, tickets) = keyed_flush(&system, 8, 1);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &warm_cfg,
            flush,
        );
        for ticket in tickets {
            let resp = ticket.try_take().unwrap();
            assert!(resp.residual < 1e-2, "{}", resp.residual);
            assert!(!resp.engine.contains("warm"), "first flush is cold: {}", resp.engine);
        }

        // Second flush, same matrix: hit → GPU warm back-substitution
        // (8 ≥ min_gpu_batch), verified answers.
        let (flush, tickets) = keyed_flush(&system, 8, 2);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &warm_cfg,
            flush,
        );
        for ticket in tickets {
            let resp = ticket.try_take().unwrap();
            assert_eq!(resp.engine, "warm-gpu");
            assert!(!resp.repaired, "a healthy warm flush needs no repair");
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }

        // Third flush, two RHS: below min_gpu_batch, CPU warm sweep.
        let (flush, tickets) = keyed_flush(&system, 2, 3);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &warm_cfg,
            flush,
        );
        for ticket in tickets {
            let resp = ticket.try_take().unwrap();
            assert_eq!(resp.engine, "cpu-warm");
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }

        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.factor_misses, 1);
        assert_eq!(snap.factor_hits, 2);
        assert_eq!(snap.warm_flushes, 2);
        assert_eq!(snap.factor_evictions, 0);
        assert!(snap.degradation.is_quiet(), "warm traffic is not degradation");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn unkeyed_flushes_never_touch_the_cache() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let cache = Arc::new(SharedFactorCache::new(8));
        let warm_cfg = DispatchConfig { factor_cache: Some(Arc::clone(&cache)), ..cfg() };
        let (flush, tickets) = flush_of(64, 8, 62); // make_request: no key
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &warm_cfg,
            flush,
        );
        for ticket in tickets {
            assert!(ticket.try_take().unwrap().residual < 1e-2);
        }
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.factor_hits + snap.factor_misses + snap.warm_flushes, 0);
        assert!(cache.stats().entries == 0);
    }

    // ── certification: sampled verification, skip, revocation ────────

    use numeric_verify::CertifiedCatalog;

    #[test]
    fn certified_key_downgrades_to_sampled_verification() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let catalog = Arc::new(CertifiedCatalog::with_sample_period(4));
        let cert_cfg = DispatchConfig {
            certified: Some(Arc::clone(&catalog)),
            pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
            ..cfg()
        };
        let mut generator = Generator::new(71);
        let system: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, 128);

        // Five flushes of the same certified matrix: verify pattern is
        // Sampled, Skip, Skip, Skip, Sampled.
        for round in 0..5 {
            let (flush, tickets) = keyed_flush(&system, 8, round);
            serve_flush(
                DeviceCtx::solo(&launcher),
                &plans,
                &CircuitBreakers::default(),
                &metrics,
                &cert_cfg,
                flush,
            );
            for ticket in tickets {
                let resp = ticket.try_take().unwrap();
                assert!(!resp.repaired, "certified dominant traffic needs no repair");
                assert!(
                    resp.residual.is_finite() && resp.residual < 1e-2,
                    "round {round}: {}",
                    resp.residual
                );
            }
        }

        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.condest_calls, 1, "analysis is once-per-key");
        assert_eq!(snap.certs_issued, 1);
        assert_eq!(snap.cert_sampled_verifies, 2);
        assert_eq!(snap.cert_skipped_verifies, 3);
        assert_eq!(snap.certs_revoked, 0);
        assert!(snap.degradation.is_quiet(), "certification is not degradation");
        let stats = catalog.stats();
        assert_eq!((stats.analyzed, stats.certified, stats.revoked), (1, 1, 0));
    }

    // ── second-sighting admission of the warm tier's write side ───────

    /// The verify decision one flush paid, read off the metric deltas.
    fn decision_between(
        before: &crate::metrics::MetricsSnapshot,
        after: &crate::metrics::MetricsSnapshot,
    ) -> VerifyDecision {
        if after.cert_sampled_verifies > before.cert_sampled_verifies {
            VerifyDecision::Sampled
        } else if after.cert_skipped_verifies > before.cert_skipped_verifies {
            VerifyDecision::Skip
        } else {
            VerifyDecision::Full
        }
    }

    /// Serves `rounds` flushes of `count` RHS against `system` and returns
    /// each flush's verify decision; every answer must be accurate.
    fn serve_rounds(
        system: &TridiagonalSystem<f32>,
        count: usize,
        rounds: u64,
        plans: &PlanCache,
        metrics: &ServiceMetrics,
        cfg: &DispatchConfig,
    ) -> Vec<VerifyDecision> {
        let launcher = Launcher::gtx280();
        (0..rounds)
            .map(|round| {
                let before = metrics.snapshot(0, 0, 0);
                let (flush, tickets) = keyed_flush(system, count, round);
                serve_flush(
                    DeviceCtx::solo(&launcher),
                    plans,
                    &CircuitBreakers::default(),
                    metrics,
                    cfg,
                    flush,
                );
                for ticket in tickets {
                    let resp = ticket.try_take().unwrap();
                    assert!(!resp.repaired, "round {round}: dominant traffic needs no repair");
                    assert!(resp.residual < 1e-2, "round {round}: {}", resp.residual);
                }
                decision_between(&before, &metrics.snapshot(0, 0, 0))
            })
            .collect()
    }

    /// A dispatch config with its own certified catalog (1-in-4) and
    /// factor cache, and (via `cfg()`) its own empty sightings table.
    fn warm_tier_cfg() -> (DispatchConfig, Arc<CertifiedCatalog>, Arc<SharedFactorCache>) {
        let catalog = Arc::new(CertifiedCatalog::with_sample_period(4));
        let cache = Arc::new(SharedFactorCache::new(64));
        let cfg = DispatchConfig {
            certified: Some(Arc::clone(&catalog)),
            factor_cache: Some(Arc::clone(&cache)),
            ..cfg()
        };
        (cfg, catalog, cache)
    }

    #[test]
    fn one_hit_keys_never_reach_the_write_side() {
        let (one_hit_cfg, catalog, cache) = warm_tier_cfg();
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let mut generator = Generator::new(81);
        for i in 0..10_000u64 {
            let n = [64, 128, 256, 512][(i % 4) as usize];
            let system: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, n);
            let (flush, tickets) = keyed_flush(&system, 1, i);
            serve_flush(
                DeviceCtx::solo(&launcher),
                &plans,
                &CircuitBreakers::default(),
                &metrics,
                &one_hit_cfg,
                flush,
            );
            let resp = tickets[0].try_take().unwrap();
            assert_eq!(resp.engine, "cpu-thomas");
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.completed, 10_000);
        assert_eq!(catalog.len(), 0, "one-hit keys are never analyzed");
        assert_eq!(cache.stats().entries, 0, "one-hit keys are never factored");
        assert_eq!(snap.condest_calls, 0);
        assert_eq!(snap.repaired, 0);
        assert_eq!((snap.factor_misses, snap.factor_hits), (10_000, 0), "reads are not gated");
    }

    #[test]
    fn single_system_key_is_admitted_on_its_second_sighting() {
        use VerifyDecision::*;
        let (warm_cfg, catalog, cache) = warm_tier_cfg();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let system: TridiagonalSystem<f32> =
            Generator::new(82).system(Workload::DiagonallyDominant, 128);
        let decisions = serve_rounds(&system, 1, 7, &plans, &metrics, &warm_cfg);
        // First sighting: served like an uncertified key. Second: analyzed,
        // certified and factored, so its first certified flush is sampled.
        assert_eq!(decisions, vec![Full, Sampled, Skip, Skip, Skip, Sampled, Skip]);
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!((snap.condest_calls, snap.certs_issued), (1, 1), "exactly one analysis");
        assert_eq!(catalog.stats().analyzed, 1);
        assert_eq!(cache.stats().entries, 1, "exactly one insert");
        assert_eq!((snap.factor_misses, snap.factor_hits), (2, 5));
    }

    #[test]
    fn multi_rhs_first_flush_is_admitted_at_once() {
        use VerifyDecision::*;
        let (warm_cfg, catalog, cache) = warm_tier_cfg();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let system: TridiagonalSystem<f32> =
            Generator::new(83).system(Workload::DiagonallyDominant, 128);
        let first = serve_rounds(&system, 8, 1, &plans, &metrics, &warm_cfg);
        assert_eq!(first, vec![Sampled], "eight systems of one key are a second sighting");
        assert_eq!((catalog.len(), cache.stats().entries), (1, 1), "inserted at once");
        let rest = serve_rounds(&system, 8, 4, &plans, &metrics, &warm_cfg);
        assert_eq!(rest, vec![Skip, Skip, Skip, Sampled]);
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!((snap.factor_misses, snap.factor_hits), (1, 4));
    }

    #[test]
    fn resident_keys_stay_warm_after_their_slot_is_overwritten() {
        use VerifyDecision::*;
        let (warm_cfg, _catalog, _cache) = warm_tier_cfg();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let system: TridiagonalSystem<f32> =
            Generator::new(84).system(Workload::DiagonallyDominant, 64);
        let fp = tridiag_core::MatrixKey::of_system(&system).fingerprint();
        assert_eq!(
            serve_rounds(&system, 1, 3, &plans, &metrics, &warm_cfg),
            vec![Full, Sampled, Skip]
        );
        // Another key takes the slot: the next flush is not a repeat
        // sighting, but the memoized certificate and the resident
        // factorization are still used.
        let slot = crate::sightings::slot_of(fp);
        let rival = (1u64..).find(|&r| r != fp && crate::sightings::slot_of(r) == slot).unwrap();
        assert!(!warm_cfg.sightings.record(rival));
        let hits_before = metrics.snapshot(0, 0, 0).factor_hits;
        assert_eq!(serve_rounds(&system, 1, 1, &plans, &metrics, &warm_cfg), vec![Skip]);
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.factor_hits, hits_before + 1, "served warm");
        assert_eq!(snap.condest_calls, 1, "never re-analyzed");
    }

    #[test]
    fn services_do_not_share_sightings() {
        use VerifyDecision::*;
        // Two services sharing one catalog and one cache, each with its
        // own (default) sightings table.
        let (service_a, catalog, cache) = warm_tier_cfg();
        let service_b = DispatchConfig {
            certified: Some(Arc::clone(&catalog)),
            factor_cache: Some(Arc::clone(&cache)),
            ..cfg()
        };
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let system: TridiagonalSystem<f32> =
            Generator::new(85).system(Workload::DiagonallyDominant, 128);
        assert_eq!(serve_rounds(&system, 1, 1, &plans, &metrics, &service_a), vec![Full]);
        assert_eq!(
            serve_rounds(&system, 1, 1, &plans, &metrics, &service_b),
            vec![Full],
            "service A's sighting must not admit the key on service B"
        );
        assert_eq!((catalog.len(), cache.stats().entries), (0, 0));
        assert_eq!(serve_rounds(&system, 1, 1, &plans, &metrics, &service_b), vec![Sampled]);
        assert_eq!((catalog.len(), cache.stats().entries), (1, 1));
    }

    // ── mixed flushes: one size-class bucket, split by matrix ─────────

    /// Serves one flush of `members` — `(matrix, keyed)` pairs, each given
    /// its own right-hand side — and returns the answers in request order,
    /// each beside the system it answers. Every answer must carry its
    /// request's id and pass an independent `‖Ax − d‖` check.
    fn serve_mixed(
        members: &[(&TridiagonalSystem<f32>, bool)],
        plans: &PlanCache,
        metrics: &ServiceMetrics,
        cfg: &DispatchConfig,
    ) -> Vec<(crate::request::SolveResponse<f32>, TridiagonalSystem<f32>)> {
        let launcher = Launcher::gtx280();
        let n = members[0].0.n();
        let mut requests = Vec::new();
        let mut pending = Vec::new();
        for (i, &(matrix, keyed)) in members.iter().enumerate() {
            let mut system = matrix.clone();
            system.d = (0..n).map(|j| ((j * 13 + i * 7) % 19) as f32 - 9.0).collect();
            let key = keyed.then(|| tridiag_core::MatrixKey::of_system(matrix));
            let (req, ticket) =
                crate::request::make_request_keyed(i as u64, system.clone(), 0, None, key);
            requests.push(req);
            pending.push((ticket, system));
        }
        let flush = FlushedBatch { n, requests, reason: FlushReason::Full };
        serve_flush(
            DeviceCtx::solo(&launcher),
            plans,
            &CircuitBreakers::default(),
            metrics,
            cfg,
            flush,
        );
        pending
            .into_iter()
            .enumerate()
            .map(|(i, (ticket, system))| {
                let resp = ticket.try_take().expect("a synchronous serve answers every member");
                assert_eq!(resp.id, i as u64, "answers come back in request order");
                let residual = l2_residual(&system, &resp.x).unwrap();
                assert!(residual < 1e-2, "member {i}: {residual}");
                (resp, system)
            })
            .collect()
    }

    fn dominant_matrices(seed: u64, count: usize) -> Vec<TridiagonalSystem<f32>> {
        let mut generator = Generator::new(seed);
        (0..count).map(|_| generator.system(Workload::DiagonallyDominant, 128)).collect()
    }

    #[test]
    fn mixed_flush_splits_by_matrix_in_request_order() {
        let (warm_cfg, catalog, cache) = warm_tier_cfg();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let m = dominant_matrices(91, 4);
        let (k1, k2, k3, unkeyed) = (&m[0], &m[1], &m[2], &m[3]);
        let answers = serve_mixed(
            &[(k1, true), (k2, true), (k1, true), (k3, true), (unkeyed, false)],
            &plans,
            &metrics,
            &warm_cfg,
        );

        // k1 has two members, so it is admitted: analyzed, certified and
        // factored, and served as its own (sampled) group.
        let key1 = tridiag_core::MatrixKey::of_system(k1);
        assert!(catalog.certificate(&key1).is_some_and(|c| c.is_certified()));
        assert_eq!((catalog.len(), cache.stats().entries), (1, 1), "only k1 is written");
        for i in [0, 2] {
            assert_eq!(answers[i].0.batch_occupancy, 2, "member {i}");
        }
        // k2, k3 and the unkeyed request share one fully verified cold
        // group: each reports the residual it was accepted on.
        for i in [1, 3, 4] {
            let (resp, system) = &answers[i];
            assert_eq!(resp.batch_occupancy, 3, "member {i}");
            assert_eq!(resp.engine, "cpu-thomas");
            assert!(!resp.repaired);
            assert_eq!(resp.residual, l2_residual(system, &resp.x).unwrap(), "member {i}");
        }

        // One sighting and one lookup per distinct key: k2 and k3 were
        // seen once (not admitted), and the cache saw three misses.
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.factor_misses, 3);
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(snap.cert_sampled_verifies + snap.cert_skipped_verifies, 1, "k1 only");
        assert_eq!(snap.flushes_full, 1, "one flush, however many groups");
        assert_eq!(snap.occupancy_systems, [(2, 2), (3, 3)].into_iter().collect());
        assert_eq!((snap.completed, snap.dispatched_total()), (5, 5));
        for fp in [m[1].clone(), m[2].clone()]
            .map(|s| tridiag_core::MatrixKey::of_system(&s).fingerprint())
        {
            assert!(warm_cfg.sightings.record(fp), "the one-hit keys' sightings were recorded");
        }
    }

    #[test]
    fn mixed_flush_keeps_resident_and_certified_keys_on_their_paths() {
        use VerifyDecision::*;
        let m = dominant_matrices(92, 3);
        let (recurring, x, y) = (&m[0], &m[1], &m[2]);
        let fp = tridiag_core::MatrixKey::of_system(recurring).fingerprint();
        let slot = crate::sightings::slot_of(fp);
        let rival = (1u64..).find(|&r| r != fp && crate::sightings::slot_of(r) == slot).unwrap();
        let cache_only =
            DispatchConfig { factor_cache: Some(Arc::new(SharedFactorCache::new(64))), ..cfg() };
        let catalog_only = DispatchConfig {
            certified: Some(Arc::new(CertifiedCatalog::with_sample_period(4))),
            ..cfg()
        };
        let (both, _catalog, _cache) = warm_tier_cfg();
        for (label, config) in [("both", &both), ("cache", &cache_only), ("catalog", &catalog_only)]
        {
            let plans = PlanCache::new();
            let metrics = ServiceMetrics::new();
            let (resident, certified) = (config.factor_cache.is_some(), config.certified.is_some());
            let before = metrics.snapshot(0, 0, 0);
            serve_mixed(&[(recurring, true), (recurring, true)], &plans, &metrics, config);
            let first = decision_between(&before, &metrics.snapshot(0, 0, 0));
            assert_eq!(first, if certified { Sampled } else { Full }, "{label}");
            // Another key takes the slot, so only residency or the
            // certificate can route the recurring key to its own group.
            assert!(!config.sightings.record(rival));

            let before = metrics.snapshot(0, 0, 0);
            let answers =
                serve_mixed(&[(x, true), (recurring, true), (y, true)], &plans, &metrics, config);
            let after = metrics.snapshot(0, 0, 0);
            let second = decision_between(&before, &after);
            assert_eq!(second, if certified { Skip } else { Full }, "{label}: policy kept");
            let engine = if resident { "cpu-warm" } else { "cpu-thomas" };
            assert_eq!(answers[1].0.engine, engine, "{label}");
            assert_eq!(answers[1].0.batch_occupancy, 1, "{label}: served as its own group");
            assert_eq!(after.factor_hits - before.factor_hits, u64::from(resident), "{label}");
            for i in [0, 2] {
                assert_eq!(answers[i].0.batch_occupancy, 2, "{label}: one-hit keys share a group");
                assert_eq!(answers[i].0.engine, "cpu-thomas", "{label}");
            }
            assert_eq!(after.condest_calls, u64::from(certified), "{label}: analyzed once");
        }
    }

    #[test]
    fn uncertified_key_keeps_full_verification() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let catalog = Arc::new(CertifiedCatalog::new());
        let cert_cfg = DispatchConfig {
            certified: Some(Arc::clone(&catalog)),
            pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
            ..cfg()
        };
        // Not dominant (|a|+|c| > |b|), not SPD (an LDLᵀ pivot goes
        // negative), not an M-matrix (positive off-diagonals): no
        // certificate class fits.
        let n = 64;
        let mut a = vec![1.0f32; n];
        let mut c = vec![1.0f32; n];
        a[0] = 0.0;
        c[n - 1] = 0.0;
        let system = TridiagonalSystem::<f32>::new(a, vec![0.5; n], c, vec![1.0; n]).unwrap();
        for round in 0..4 {
            let (flush, tickets) = keyed_flush(&system, 8, round);
            serve_flush(
                DeviceCtx::solo(&launcher),
                &plans,
                &CircuitBreakers::default(),
                &metrics,
                &cert_cfg,
                flush,
            );
            for ticket in tickets {
                let resp = ticket.try_take().unwrap();
                assert!(resp.residual.is_finite() && resp.residual < 1e-2, "{}", resp.residual);
            }
        }
        let snap = metrics.snapshot(0, 0, 0);
        // The class scan rejects before the condition estimator runs, so
        // no condest call is spent on this key.
        assert_eq!(snap.condest_calls, 0);
        assert_eq!(snap.certs_issued, 0);
        assert_eq!(snap.cert_sampled_verifies + snap.cert_skipped_verifies, 0);
        let stats = catalog.stats();
        assert_eq!((stats.analyzed, stats.certified), (1, 0));
    }

    #[test]
    fn corruption_on_sampled_warm_flush_revokes_the_certificate() {
        // Every warm GPU launch flips bits; with K = 1 every certified
        // flush is sampled, so the very first warm corruption is caught,
        // repaired, and the certificate revoked.
        let (launcher, _plan) = faulty_launcher(FaultConfig {
            seed: 0xCE27,
            bit_flip_rate: 1.0,
            flips_per_event: 4,
            ..FaultConfig::default()
        });
        let plans = PlanCache::new();
        let metrics = ServiceMetrics::new();
        let cache = Arc::new(SharedFactorCache::new(4));
        let catalog = Arc::new(CertifiedCatalog::with_sample_period(1));
        let cert_cfg = DispatchConfig {
            factor_cache: Some(Arc::clone(&cache)),
            certified: Some(Arc::clone(&catalog)),
            pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
            ..cfg()
        };
        let mut generator = Generator::new(72);
        let system: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, 64);
        let key = tridiag_core::MatrixKey::of_system(&system);

        // Flush 1: factor miss, served cold on the (fault-immune) CPU.
        let (flush, _t1) = keyed_flush(&system, 8, 1);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &cert_cfg,
            flush,
        );
        assert!(catalog.certificate(&key).unwrap().is_certified());

        // Flush 2: warm GPU back-substitution, bit-flipped. The sampled
        // verify catches it, GEP repairs every answer, and the
        // certificate dies with the poisoned cache entry.
        let (flush, tickets) = keyed_flush(&system, 8, 2);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &cert_cfg,
            flush,
        );
        for ticket in tickets {
            let resp = ticket.try_take().unwrap();
            assert!(resp.residual < 1e-2, "repaired answers stay right: {}", resp.residual);
        }
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.certs_revoked, 1);
        assert!(snap.degradation.corruptions_caught > 0);
        assert_eq!(
            catalog.certificate(&key),
            Some(tridiag_core::NumericCertificate::Uncertified),
            "revoked keys read as uncertified"
        );

        // Flush 3: back to full verification — no further sampling
        // counters move for this key.
        let sampled_before = snap.cert_sampled_verifies;
        let (flush, _t3) = keyed_flush(&system, 8, 3);
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &CircuitBreakers::default(),
            &metrics,
            &cert_cfg,
            flush,
        );
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.cert_sampled_verifies, sampled_before);
        assert_eq!(snap.cert_skipped_verifies, 0, "K = 1 never skips");
    }

    // ── resilience: retries, breakers, graceful degradation ──────────

    use gpu_sim::{FaultConfig, FaultPlan};

    fn faulty_launcher(cfg: FaultConfig) -> (Launcher, Arc<FaultPlan>) {
        let plan = Arc::new(FaultPlan::new(cfg));
        (Launcher::gtx280().with_fault_plan(Arc::clone(&plan)), plan)
    }

    #[test]
    fn transient_fault_is_retried_on_the_same_engine() {
        // Launch 0 faults (burst of 1); the retry (launch 1) succeeds.
        let (launcher, plan) =
            faulty_launcher(FaultConfig { launch_fault_burst: 1, ..FaultConfig::quiet(7) });
        let plans = PlanCache::new();
        let breakers = CircuitBreakers::default();
        let metrics = ServiceMetrics::new();
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
            ..cfg()
        };
        let (flush, tickets) = flush_of(64, 8, 41);
        serve_flush(DeviceCtx::solo(&launcher), &plans, &breakers, &metrics, &pinned, flush);
        for ticket in tickets {
            let resp = ticket.try_take().expect("retry must still answer");
            assert_eq!(resp.engine, "cr+pcr@32", "retry stays on the planned engine");
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        let d = metrics.snapshot(0, 0, 0).degradation;
        assert_eq!(d.device_faults, 1);
        assert_eq!(d.retries, 1);
        assert_eq!(d.degraded_flushes, 0, "a successful retry is not degradation");
        assert_eq!(plan.stats().launch_failures, 1);
        assert_eq!(breakers.state("dev0:cr+pcr@32"), crate::breaker::BreakerState::Closed);
    }

    #[test]
    fn device_loss_degrades_to_the_cpu_safety_net() {
        let (launcher, _plan) = faulty_launcher(FaultConfig {
            device_lost_after: Some(0), // every launch: device lost
            ..FaultConfig::quiet(8)
        });
        let plans = PlanCache::new();
        let breakers = CircuitBreakers::default();
        let metrics = ServiceMetrics::new();
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
            ..cfg()
        };
        let (flush, tickets) = flush_of(64, 8, 42);
        serve_flush(DeviceCtx::solo(&launcher), &plans, &breakers, &metrics, &pinned, flush);
        for ticket in tickets {
            let resp = ticket.try_take().expect("degradation must still answer");
            assert_eq!(resp.engine, "cpu-gep", "device loss lands on the safety net");
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        let d = metrics.snapshot(0, 0, 0).degradation;
        assert_eq!(d.device_faults, 1, "device loss aborts the ladder immediately");
        assert_eq!(d.degraded_flushes, 1);
    }

    #[test]
    fn persistent_faults_walk_the_ranking_to_the_next_candidate() {
        // Every launch faults transiently: the planned engine exhausts its
        // per-engine budget, the ladder walks the fallback, and with
        // max_total_attempts = 4 everything runs out → CPU GEP.
        let (launcher, plan) =
            faulty_launcher(FaultConfig { launch_fault_burst: u64::MAX, ..FaultConfig::quiet(9) });
        let breakers = CircuitBreakers::default();
        let systems: Vec<TridiagonalSystem<f32>> = {
            let mut generator = Generator::new(43);
            (0..8).map(|_| generator.system(Workload::DiagonallyDominant, 64)).collect()
        };
        let fallbacks =
            vec![Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 }), Engine::Gpu(GpuAlgorithm::Pcr)];
        let out = execute(
            &DeviceCtx::solo(&launcher),
            Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 }),
            &fallbacks,
            &breakers,
            &systems.iter().collect::<Vec<_>>(),
            &cfg(),
            &VerifyPolicy::full(100.0),
        );
        assert_eq!(out.engine_label, "cpu-gep");
        assert!(out.degraded);
        assert_eq!(out.device_faults, 4, "max_total_attempts bounds the faults");
        assert_eq!(out.retries, 3);
        assert!(out.residuals.iter().all(|&r| r.is_finite() && r < 1e-2));
        // Two faults each on two engines (per-engine budget = 2).
        assert_eq!(plan.stats().launch_failures, 4);
    }

    #[test]
    fn open_breaker_demotes_the_flush_without_touching_the_engine() {
        let launcher = Launcher::gtx280(); // healthy device
        let plans = PlanCache::new();
        let breakers = CircuitBreakers::default();
        let metrics = ServiceMetrics::new();
        // Trip the breaker for the pinned engine by hand.
        for _ in 0..3 {
            breakers.on_fault("dev0:cr+pcr@32");
        }
        let pinned = DispatchConfig {
            pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
            ..cfg()
        };
        let (flush, tickets) = flush_of(64, 8, 44);
        serve_flush(DeviceCtx::solo(&launcher), &plans, &breakers, &metrics, &pinned, flush);
        for ticket in tickets {
            let resp = ticket.try_take().unwrap();
            assert_eq!(resp.engine, "cpu-gep", "open breaker demotes to the safety net");
            assert!(resp.residual < 1e-2, "{}", resp.residual);
        }
        assert!(breakers.denials_total() >= 1);
        let d = metrics.snapshot(0, 0, 0).degradation;
        assert_eq!(d.degraded_flushes, 1);
        assert_eq!(d.device_faults, 0, "the engine was never launched");
    }

    #[test]
    fn deadline_misses_are_flagged_and_counted() {
        let launcher = Launcher::gtx280();
        let plans = PlanCache::new();
        let breakers = CircuitBreakers::default();
        let metrics = ServiceMetrics::new();
        let mut generator = Generator::new(45);
        // A deadline of tick 1 on the config's clock is long past by the
        // time the flush is served: flagged as missed, still answered.
        let system: TridiagonalSystem<f32> = generator.system(Workload::DiagonallyDominant, 64);
        let (req, ticket) = crate::request::make_request_with_deadline(0, system, Some(1));
        let flush = FlushedBatch { n: 64, requests: vec![req], reason: FlushReason::Deadline };
        serve_flush(DeviceCtx::solo(&launcher), &plans, &breakers, &metrics, &cfg(), flush);
        let resp = ticket.try_take().expect("missed deadlines still get answers");
        assert!(resp.deadline_missed);
        assert!(resp.residual < 1e-2, "{}", resp.residual);
        let snap = metrics.snapshot(0, 0, 0);
        assert_eq!(snap.degradation.deadline_misses, 1);
        assert_eq!(snap.flushes_deadline, 1);
    }
}
