//! End-to-end integration test for the serving layer: a large open-loop
//! stream of mixed-size, mixed-workload requests through [`SolverService`].
//!
//! What this certifies (the ISSUE's acceptance bar for the service):
//! * **No request is lost or duplicated** — every ticket resolves exactly
//!   once and the response ids are a permutation of the submitted ids.
//! * **Every answer is verified** — the reported residual agrees with an
//!   independent recomputation and is within the service's acceptance
//!   threshold for the well-conditioned workloads.
//! * **The metrics books balance** — dispatch counts and the occupancy
//!   histogram each sum to exactly the number of completed requests, and
//!   admission arithmetic (`submitted = completed`, `rejected` counted
//!   separately) holds under backpressure retries.

use factor_cache::SharedFactorCache;
use numeric_verify::CertifiedCatalog;
use solver_service::{
    ServiceConfig, ServiceError, SolverService, Ticket, TraceEvent, TraceHandle, TraceSink,
};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tridiag_core::residual::l2_residual;
use tridiag_core::{Generator, TridiagonalSystem, Workload};

/// Mixed sizes: pow2 (GPU-eligible) plus one non-pow2 size the planner
/// must route to the CPU path.
const SIZES: [usize; 5] = [32, 64, 128, 256, 48];

/// Mixed conditioning: two workloads the kernels handle natively plus the
/// close-values set that exercises the verify-and-repair safety net.
const WORKLOADS: [Workload; 3] =
    [Workload::DiagonallyDominant, Workload::Poisson, Workload::CloseValues];

const TOTAL: usize = 1200;

#[test]
fn open_loop_stream_serves_every_request_exactly_once() {
    let config = ServiceConfig {
        queue_capacity: 256,
        target_batch: 32,
        max_linger: Duration::from_millis(2),
        ..ServiceConfig::default()
    };
    let service: SolverService<f32> = SolverService::start(config);
    let mut generator = Generator::new(0xD15_0A7C4);

    // Submit open-loop, retrying the *same* request on backpressure so a
    // reject never loses work. Keep each system keyed by its ticket id for
    // independent verification later.
    let mut tickets: Vec<Ticket<f32>> = Vec::with_capacity(TOTAL);
    let mut submitted: BTreeMap<u64, (TridiagonalSystem<f32>, Workload)> = BTreeMap::new();
    for i in 0..TOTAL {
        let n = SIZES[i % SIZES.len()];
        let workload = WORKLOADS[i % WORKLOADS.len()];
        let system = generator.system(workload, n);
        let ticket = loop {
            match service.submit(system.clone()) {
                Ok(ticket) => break ticket,
                // Back off by the service's own drain-rate hint when it
                // offers one; yield otherwise (cold start, nothing done yet).
                Err(ServiceError::QueueFull { retry_after: Some(hint), .. }) => {
                    std::thread::sleep(hint)
                }
                Err(ServiceError::QueueFull { .. }) => std::thread::yield_now(),
                Err(e) => panic!("service refused a valid request: {e}"),
            }
        };
        assert!(
            submitted.insert(ticket.id(), (system, workload)).is_none(),
            "service issued a duplicate ticket id"
        );
        tickets.push(ticket);
    }

    // Collect every response. `Ticket::wait` consumes the ticket, so each
    // response can be taken at most once; the id-set equality below proves
    // none were lost and none cross-delivered.
    let mut seen: HashSet<u64> = HashSet::with_capacity(TOTAL);
    for ticket in tickets {
        let id = ticket.id();
        let response = ticket.wait();
        assert_eq!(response.id, id, "response delivered to the wrong ticket");
        assert!(seen.insert(response.id), "duplicate response for id {id}");

        let (system, workload) = &submitted[&id];
        let n = system.n();
        assert_eq!(response.x.len(), n, "solution length mismatch at n={n}");
        assert!(response.batch_occupancy >= 1);
        assert!(!response.engine.is_empty());

        // The reported residual must agree with an independent recompute.
        let recomputed = l2_residual(system, &response.x).unwrap();
        assert!(
            (recomputed - response.residual).abs() <= 1e-6 * (1.0 + recomputed),
            "reported residual {} != recomputed {recomputed} (id {id})",
            response.residual
        );

        // Well-conditioned workloads must meet the service's acceptance
        // threshold outright; close-values may lean on GEP repair but must
        // still come back with a small relative residual.
        let d_norm: f64 = system.d.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt();
        let threshold = 100.0 * d_norm.max(1.0) * (f32::EPSILON as f64) * n as f64;
        match workload {
            Workload::CloseValues => assert!(
                recomputed <= 1e-2 * d_norm.max(1.0),
                "close-values residual {recomputed} too large (id {id}, n={n})"
            ),
            _ => assert!(
                recomputed <= threshold,
                "residual {recomputed} > threshold {threshold} (id {id}, n={n}, {workload:?})"
            ),
        }
    }
    assert_eq!(seen.len(), TOTAL, "lost responses");
    assert_eq!(
        seen,
        submitted.keys().copied().collect::<HashSet<u64>>(),
        "response ids are not a permutation of submitted ids"
    );

    // The metrics books must balance exactly.
    let snap = service.shutdown();
    assert_eq!(snap.completed, TOTAL as u64);
    assert_eq!(snap.submitted, TOTAL as u64, "retries must not inflate admissions");
    assert_eq!(snap.queue_depth, 0);
    assert_eq!(
        snap.dispatched_total(),
        TOTAL as u64,
        "dispatch counts must sum to the request count: {:?}",
        snap.dispatch_systems
    );
    assert_eq!(
        snap.occupancy_total(),
        TOTAL as u64,
        "occupancy histogram must sum to the request count: {:?}",
        snap.occupancy_systems
    );
    assert!(snap.flushes_total() >= 1);
    assert!(snap.latency_p50_us > 0 && snap.latency_p50_us <= snap.latency_p99_us);

    // The non-pow2 size class can never run on a shared-memory GPU kernel;
    // its systems must show up under a CPU engine spelling.
    let cpu_systems: u64 = snap
        .dispatch_systems
        .iter()
        .filter(|(engine, _)| engine.starts_with("cpu-"))
        .map(|(_, count)| count)
        .sum();
    assert!(
        cpu_systems >= (TOTAL / SIZES.len()) as u64,
        "expected at least the n=48 size class on CPU engines: {:?}",
        snap.dispatch_systems
    );

    // The snapshot serialises; spot-check the schema keys documented in
    // DESIGN.md.
    let json = snap.to_json();
    for key in
        ["\"completed\":", "\"dispatch_systems\":", "\"occupancy_systems\":", "\"latency_p99_us\":"]
    {
        assert!(json.contains(key), "snapshot JSON missing {key}: {json}");
    }
}

/// Collects every trace event the service emits.
#[derive(Default)]
struct Collect(Mutex<Vec<TraceEvent>>);

impl TraceSink for Collect {
    fn record(&self, event: TraceEvent) {
        self.0.lock().unwrap().push(event);
    }
}

/// With the warm tier on, flushes are split by matrix into dispatch
/// groups. The books still balance: each batcher flush counts once in
/// `flushes_<reason>` and emits one `Flush` event, each group emits one
/// `Served` event with its own occupancy, and Σ `Served` occupancy =
/// Σ `occupancy_systems` = Σ dispatch = completed.
#[test]
fn mixed_keyed_stream_conserves_flush_and_group_accounting() {
    const TOTAL: usize = 400;
    let sink = Arc::new(Collect::default());
    let service: SolverService<f32> = SolverService::start(ServiceConfig {
        target_batch: 16,
        factor_cache: Some(Arc::new(SharedFactorCache::new(64))),
        certified: Some(Arc::new(CertifiedCatalog::new())),
        trace: TraceHandle::to(sink.clone()),
        ..ServiceConfig::default()
    });
    let mut generator = Generator::new(0xF1_05);
    let recurring: Vec<TridiagonalSystem<f32>> =
        [64, 64, 128, 128].map(|n| generator.system(Workload::DiagonallyDominant, n)).into();
    let mut tickets = Vec::with_capacity(TOTAL);
    for i in 0..TOTAL {
        let system = if i % 3 == 0 {
            let mut system = recurring[(i / 3) % 4].clone();
            system.d = generator.system::<f32>(Workload::DiagonallyDominant, system.n()).d;
            system
        } else {
            generator.system(Workload::DiagonallyDominant, [64, 128][i % 2])
        };
        tickets.push(service.submit(system).expect("the queue holds the whole stream"));
    }
    for ticket in tickets {
        ticket.wait();
    }
    let snap = service.shutdown();

    let events = sink.0.lock().unwrap();
    let (mut flushes, mut flushed, mut groups, mut served) = (0u64, 0u64, 0u64, 0u64);
    for event in events.iter() {
        match event {
            TraceEvent::Flush { occupancy, .. } => {
                (flushes, flushed) = (flushes + 1, flushed + occupancy)
            }
            TraceEvent::Served { occupancy, .. } => {
                (groups, served) = (groups + 1, served + occupancy)
            }
            _ => {}
        }
    }
    assert_eq!(snap.completed, TOTAL as u64);
    assert_eq!(flushes, snap.flushes_total(), "one Flush event per counted flush");
    assert_eq!(flushed, snap.completed);
    assert_eq!(served, snap.occupancy_total(), "Σ Served occupancy = Σ occupancy_systems");
    assert_eq!(snap.occupancy_total(), snap.completed);
    assert_eq!(snap.dispatched_total(), snap.completed);
    assert!(groups > flushes, "no flush was split by matrix: {groups} groups, {flushes} flushes");
    assert!(snap.factor_hits > 0, "recurring keys never went warm");
}
