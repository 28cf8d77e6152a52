//! The deterministic lab harness: the solver service's decision pipeline
//! — admission, bucket batching, planning, dispatch, verify-and-repair,
//! breakers — driven from **one thread** on a **simulated clock**.
//!
//! The threaded [`solver_service::SolverService`] under a sim clock is
//! de-flaked but not reproducible: OS scheduling still reorders events.
//! This harness removes the last nondeterminism source by being the only
//! thread: arrivals and linger deadlines are merged in tick order, flushes
//! are served synchronously, and the clock only moves where the event loop
//! (or `serve_flush`'s modeled engine time) moves it. The resulting event
//! stream — values *and* timestamps — is a pure function of the
//! [`Scenario`], which is what makes bit-identical replay possible (the
//! invariant DESIGN.md §10 states precisely).
//!
//! Tie-break rules, fixed for a trace format version (changing any of
//! these invalidates old traces, so it bumps [`crate::file::VERSION`]):
//! 1. at a given tick, due linger/deadline flushes fire before arrivals;
//! 2. arrivals are admitted in index order;
//! 3. a flush triggered by an insert (bucket full) is served immediately,
//!    before the next arrival is considered;
//! 4. shutdown drains buckets in ascending size order (the bucket table's
//!    iteration order);
//! 5. after the arrivals due at a tick are admitted, the idle single
//!    server takes the oldest bucket (ties by ascending size) — the
//!    service's work-conserving rule. Serving is synchronous, so requests
//!    wait in buckets only for arrivals that land while a flush is being
//!    served, and the linger bound applies only then.
//!
//! Every delivered answer is judged by its f64 residual, recomputed here
//! from the held system — never by the residual the service reports.

use crate::record::RecordingSink;
use crate::scenario::Scenario;
use factor_cache::SharedFactorCache;
use gpu_sim::{Clock, FaultConfig, FaultPlan, Launcher, Tick};
use gpu_solvers::GpuAlgorithm;
use numeric_verify::CertifiedCatalog;
use solver_service::{
    make_request_keyed, serve_flush, BreakerConfig, BucketTable, CircuitBreakers, DeviceCtx,
    DispatchConfig, Engine, FlushedBatch, PlanCache, RejectReason, ServiceMetrics, SolveResponse,
    Ticket, TraceEvent, TraceHandle,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use tridiag_core::residual::l2_residual;
use tridiag_core::{splitmix64_next, Generator, MatrixKey, TridiagonalSystem, Workload};

/// What one harness run measured, alongside the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Requests admitted and served to completion.
    pub served: u64,
    /// Requests shed at admission (queue full).
    pub rejected: u64,
    /// Per-served-request virtual latency (submit → fulfilled), ns,
    /// in submission order.
    pub latencies_ns: Vec<u64>,
    /// Answers whose recomputed residual missed the bound (must stay 0).
    pub wrong: u64,
    /// Systems the verify step re-solved with GEP.
    pub repairs: u64,
    /// The virtual tick the run finished at (the simulated makespan).
    pub final_tick: Tick,
}

/// One completed harness run: the captured decision stream plus stats.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Every service decision, in emission order.
    pub events: Vec<TraceEvent>,
    /// Aggregate measurements.
    pub stats: RunStats,
}

/// Bound a served f32 answer's recomputed f64 residual must beat to count
/// as correct.
const RESIDUAL_BOUND: f64 = 1e-2;

/// Emits the Flush event and serves the batch synchronously — the
/// single-threaded analogue of `route_flush` + a worker pop.
#[allow(clippy::too_many_arguments)]
fn serve_one(
    flush: FlushedBatch<f32>,
    launcher: &Launcher,
    plans: &PlanCache,
    breakers: &CircuitBreakers,
    metrics: &ServiceMetrics,
    cfg: &DispatchConfig,
    trace: &TraceHandle,
    clock: &Clock,
) {
    trace.emit(|| TraceEvent::Flush {
        at: clock.now(),
        n: flush.n as u64,
        occupancy: flush.requests.len() as u64,
        reason: flush.reason,
    });
    serve_flush(DeviceCtx::solo(launcher), plans, breakers, metrics, cfg, flush);
}

/// Runs `scenario` to completion and returns the decision stream + stats.
///
/// Two calls with the same scenario return identical [`RunOutput`]s,
/// bit for bit — the property the replay gate enforces.
pub fn run(scenario: &Scenario) -> RunOutput {
    let clock = Clock::sim();
    let sink = Arc::new(RecordingSink::new());
    let trace = TraceHandle::to(sink.clone());

    let fault_cfg = FaultConfig::chaos(
        scenario.seed,
        scenario.launch_fault_ppm as f64 / 1e6,
        scenario.bit_flip_ppm as f64 / 1e6,
    );
    let launcher = Launcher::gtx280().with_fault_plan(Arc::new(FaultPlan::new(fault_cfg)));
    let plans = PlanCache::new();
    let breakers = CircuitBreakers::with_clock(BreakerConfig::default(), clock.clone())
        .with_trace(trace.clone());
    let metrics = ServiceMetrics::new();
    let factor_cache = (scenario.matrix_pool > 0)
        .then(|| Arc::new(SharedFactorCache::new(scenario.matrix_pool.max(1) as usize * 8)));
    let certified = (scenario.certify > 0)
        .then(|| Arc::new(CertifiedCatalog::with_sample_period(scenario.certify as usize)));
    let cfg = DispatchConfig {
        min_gpu_batch: scenario.min_gpu_batch.max(1) as usize,
        pin_engine: (scenario.pin_cr_pcr_m > 0)
            .then_some(Engine::Gpu(GpuAlgorithm::CrPcr { m: scenario.pin_cr_pcr_m as usize })),
        clock: clock.clone(),
        trace: trace.clone(),
        factor_cache: factor_cache.clone(),
        certified: certified.clone(),
        ..DispatchConfig::default()
    };

    let mut table: BucketTable<f32> = BucketTable::new(
        scenario.target_batch.max(1) as usize,
        Duration::from_micros(scenario.max_linger_us),
    );
    let mut generator = Generator::new(scenario.seed);
    let mut size_rng = scenario.seed ^ 0x5A1E_D065;
    let capacity = scenario.queue_capacity.max(1) as usize;

    // Pooled matrix templates, keyed `(n, slot)`. Populated lazily but
    // deterministically: template contents are a pure function of
    // `(seed, n, slot)`, independent of arrival order.
    let mut pool: BTreeMap<(usize, u64), (TridiagonalSystem<f32>, MatrixKey)> = BTreeMap::new();

    // Arrival ticks are a pure function of the scenario; precompute them
    // in index order.
    let arrivals: Vec<Tick> = (0..scenario.requests).map(|i| scenario.arrival_tick(i)).collect();

    // Each admitted system, held for the oracle, with its ticket.
    let mut held: Vec<(TridiagonalSystem<f32>, Ticket<f32>)> = Vec::new();
    let mut rejected = 0u64;
    let mut next_id = 0u64;
    let mut i = 0usize;

    while i < arrivals.len() || table.pending() > 0 {
        // The server is idle here: a waiting bucket is served now (rule
        // 5); with none, time moves to the next arrival.
        if table.pending() == 0 {
            clock.advance_to(arrivals[i]);
        }

        // Rule 1: due flushes fire before arrivals at the same tick.
        for flush in table.flush_expired(clock.now()) {
            serve_one(flush, &launcher, &plans, &breakers, &metrics, &cfg, &trace, &clock);
        }

        // Rules 2–3: admit every arrival now due, serving any full-bucket
        // flush before the next arrival. (Serving moves the clock, which
        // can make further arrivals due — that's the single server being
        // busy, and it is equally deterministic.)
        while i < arrivals.len() && arrivals[i] <= clock.now() {
            let n = scenario.sizes[(splitmix64_next(&mut size_rng) as usize) % scenario.sizes.len()]
                .max(2) as usize;
            let (system, matrix_key) = if scenario.matrix_pool > 0 {
                let slot = splitmix64_next(&mut size_rng) % scenario.matrix_pool;
                let (template, key) = pool.entry((n, slot)).or_insert_with(|| {
                    let mut g = Generator::new(
                        scenario.seed ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n as u64,
                    );
                    let s: TridiagonalSystem<f32> = g.system(Workload::DiagonallyDominant, n);
                    let key = MatrixKey::of::<f32>(&s.a, &s.b, &s.c);
                    (s, key)
                });
                // Fresh RHS per request, drawn from the sequential
                // generator so the stream stays a pure function of the
                // scenario.
                let d = generator.system::<f32>(Workload::DiagonallyDominant, n).d;
                let mut system = template.clone();
                system.d = d;
                (system, Some(*key))
            } else {
                (generator.system(Workload::DiagonallyDominant, n), None)
            };
            let at = clock.now();
            if table.pending() >= capacity {
                rejected += 1;
                trace.emit(|| TraceEvent::Reject {
                    at,
                    n: n as u64,
                    reason: RejectReason::QueueFull,
                });
            } else {
                let id = next_id;
                next_id += 1;
                trace.emit(|| TraceEvent::Admit { at, id, n: n as u64 });
                let (request, ticket) =
                    make_request_keyed(id, system.clone(), at, None, matrix_key);
                held.push((system, ticket));
                if let Some(flush) = table.insert(request, at) {
                    serve_one(flush, &launcher, &plans, &breakers, &metrics, &cfg, &trace, &clock);
                }
            }
            i += 1;
        }

        // Rule 5: the idle server takes the oldest bucket.
        if let Some(flush) = table.take_oldest() {
            serve_one(flush, &launcher, &plans, &breakers, &metrics, &cfg, &trace, &clock);
        }
    }

    // Rule 4: shutdown drain, ascending size order.
    for flush in table.flush_all() {
        serve_one(flush, &launcher, &plans, &breakers, &metrics, &cfg, &trace, &clock);
    }

    let mut latencies_ns = Vec::with_capacity(held.len());
    let mut wrong = 0u64;
    let mut repairs = 0u64;
    for (system, ticket) in held {
        let response: SolveResponse<f32> =
            ticket.try_take().expect("single-threaded serve fulfills every admitted ticket");
        latencies_ns.push(response.latency.as_nanos().min(u64::MAX as u128) as u64);
        let residual = l2_residual(&system, &response.x).unwrap_or(f64::INFINITY);
        if !residual.is_finite() || residual >= RESIDUAL_BOUND {
            wrong += 1;
        }
        repairs += u64::from(response.repaired);
    }

    let stats = RunStats {
        served: latencies_ns.len() as u64,
        rejected,
        latencies_ns,
        wrong,
        repairs,
        final_tick: clock.now(),
    };
    RunOutput { events: sink.take(), stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    #[test]
    fn two_runs_of_the_same_scenario_are_bit_identical() {
        let scenario = Scenario::chaos(120);
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.events, b.events, "decision streams diverged");
        assert_eq!(a.stats, b.stats, "stats diverged");
        assert!(a.stats.served > 0);
        assert_eq!(a.stats.wrong, 0, "a wrong answer escaped verification");
    }

    #[test]
    fn warm_cell_hits_the_factor_cache_and_stays_deterministic() {
        let scenario = Scenario::warm(150);
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(a.events, b.events, "warm decision streams diverged");
        assert_eq!(a.stats, b.stats, "warm stats diverged");
        assert_eq!(a.stats.wrong, 0, "a warm answer escaped verification");
        let hits = a.events.iter().filter(|e| e.kind() == "factor-hit").count();
        let misses = a.events.iter().filter(|e| e.kind() == "factor-miss").count();
        assert!(misses > 0, "warm cell never populated the cache");
        assert!(
            hits > misses,
            "pooled traffic should be mostly warm: {hits} hits / {misses} misses"
        );
    }

    #[test]
    fn certified_cell_skips_verification_and_stays_deterministic() {
        let scenario = Scenario::certified(150);
        let a = run(&scenario);
        let b = run(&scenario);
        assert_eq!(a.events, b.events, "certified decision streams diverged");
        assert_eq!(a.stats, b.stats, "certified stats diverged");
        assert_eq!(a.stats.wrong, 0, "a certified answer escaped its bound");
        let issued = a.events.iter().filter(|e| e.kind() == "cert-issued").count();
        let skips = a.events.iter().filter(|e| e.kind() == "cert-skip-verify").count();
        assert!(issued > 0, "certified cell never analyzed a matrix");
        assert!(skips > 0, "certified cell never skipped a verify");
        assert_eq!(
            a.events.iter().filter(|e| e.kind() == "cert-revoked").count(),
            0,
            "fault-free certified traffic must not revoke"
        );
    }

    #[test]
    fn event_timestamps_never_go_backwards() {
        let out = run(&Scenario::bursty(100));
        let ticks: Vec<Tick> = out.events.iter().map(TraceEvent::at).collect();
        assert!(ticks.windows(2).all(|w| w[0] <= w[1]), "trace is not tick-ordered");
    }

    #[test]
    fn adversarial_flood_sheds_load_but_loses_nothing() {
        let out = run(&Scenario::adversarial(300));
        assert_eq!(out.stats.served + out.stats.rejected, 300);
        assert_eq!(out.stats.wrong, 0);
        // The flood must actually stress admission — otherwise the cell
        // tests nothing.
        assert!(out.stats.rejected > 0, "adversarial cell never filled the queue");
    }

    #[test]
    fn arrivals_during_a_long_serve_share_the_next_flush() {
        // An n = 1024 system takes ~26 µs of virtual time to serve, over
        // two arrival periods: the n = 64 requests landing meanwhile wait
        // in their bucket and go out together once the server is free,
        // and no request waits out the 200 µs linger.
        let scenario = Scenario {
            name: "busy".into(),
            rate_rps: 100_000,
            sizes: vec![64, 64, 64, 1024],
            target_batch: 1000,
            ..Scenario::steady(400)
        };
        let out = run(&scenario);
        assert_eq!(out.stats.served, 400);
        assert_eq!(out.stats.wrong, 0);
        let shared = out
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Flush { n: 64, occupancy, .. } if *occupancy > 1));
        assert!(shared.count() > 0, "no arrivals shared a flush while the server was busy");
        let linger_ns = scenario.max_linger_us * 1_000;
        let worst = out.stats.latencies_ns.iter().max().copied().unwrap_or(0);
        assert!(worst < linger_ns, "a request waited {worst} ns, past the {linger_ns} ns linger");
    }

    #[test]
    fn conservation_served_plus_rejected_equals_offered() {
        for scenario in [Scenario::steady(150), Scenario::diurnal(150), Scenario::bursty(150)] {
            let out = run(&scenario);
            assert_eq!(
                out.stats.served + out.stats.rejected,
                150,
                "{} lost requests",
                scenario.name
            );
            assert_eq!(out.stats.wrong, 0, "{}", scenario.name);
        }
    }
}
