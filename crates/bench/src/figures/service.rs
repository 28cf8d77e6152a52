//! Serving-layer throughput: dynamic batching vs. batch-size-1 dispatch.
//!
//! Not a paper figure — the paper benchmarks pre-assembled batches — but
//! the natural production question its results raise: when requests arrive
//! *one at a time*, how much of the batched-kernel throughput can a
//! serving layer recover? This experiment drives an open-loop stream of
//! mixed-size requests through [`SolverService`] twice:
//!
//! * **batched** — target batch 64, 2 ms linger: requests coalesce while
//!   every worker is busy (batching is work-conserving, so occupancy
//!   tracks load — high on the slow pinned GPU engine, low on the CPU);
//! * **unbatched** — target batch 1: every request flushes alone,
//!   paying a full launch (and per-launch instrumentation) by itself.
//!
//! Reported: wall-clock systems/s for the whole stream, the occupancy the
//! batcher achieved, the plan-cache hit rate, and p50/p99 latency. The
//! batched row's throughput win *is* the serving-layer argument for the
//! paper's batched kernel design.

use crate::{ReproConfig, Table};
use gpu_solvers::GpuAlgorithm;
use solver_service::{Engine, ServiceConfig, ServiceError, SolverService, Ticket};
use std::time::{Duration, Instant};
use tridiag_core::{Generator, Workload};

/// Sizes the stream mixes (the paper's range of interest).
const SIZES: [usize; 3] = [64, 128, 256];

/// Runs the experiment at the configured scale.
pub fn run(cfg: &ReproConfig) -> Vec<Table> {
    let total = ((600.0 * cfg.scale) as usize).max(120);

    // The GPU pin fixes the engine for both modes so the comparison
    // isolates *batching*: same kernel, full batches vs. singleton
    // launches. m = 32 is valid for every size in the mix.
    let pin = Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 }));
    let base = |target_batch: usize, pin_engine| ServiceConfig {
        target_batch,
        min_gpu_batch: 1,
        max_linger: Duration::from_millis(2),
        launcher: cfg.launcher.clone(),
        pin_engine,
        ..ServiceConfig::default()
    };

    let mut table = Table::new(
        format!(
            "Serving layer: {total} mixed-size requests (n ∈ {SIZES:?}), open loop, device = {}",
            cfg.launcher.device.name
        ),
        &[
            "mode",
            "systems/s (wall)",
            "device µs/system",
            "mean occupancy",
            "plan hits/tunes",
            "p50 µs",
            "p99 µs",
            "repairs",
        ],
    );

    let modes = [
        ("batched, autotuned plan (target 64)", base(64, None)),
        ("unbatched, autotuned plan (target 1)", base(1, None)),
        ("batched, pinned cr+pcr@32 (target 64)", base(64, pin)),
        ("unbatched, pinned cr+pcr@32 (target 1)", base(1, pin)),
    ];
    for (label, config) in modes {
        let outcome = drive(cfg.seed, config, total);
        table.row(vec![
            label.to_string(),
            format!("{:.0}", outcome.systems_per_sec),
            format!("{:.2}", outcome.device_us_per_system),
            format!("{:.1}", outcome.mean_occupancy),
            format!("{}/{}", outcome.plan_hits, outcome.plan_tunes),
            outcome.p50_us.to_string(),
            outcome.p99_us.to_string(),
            outcome.repairs.to_string(),
        ]);
    }
    table.note("every response is residual-verified; repairs count GEP re-solves");
    table.note("occupancy = completed systems / flushed batches (batching win when ≫ 1)");
    table.note(
        "device µs/system = engine time / completed: simulated GPU ms for GPU engines, \
         wall-clock for CPU — the pinned pair shows the per-launch cost batching amortizes",
    );
    vec![table]
}

struct Outcome {
    systems_per_sec: f64,
    device_us_per_system: f64,
    mean_occupancy: f64,
    plan_hits: u64,
    plan_tunes: u64,
    p50_us: u64,
    p99_us: u64,
    repairs: u64,
}

/// Pushes `total` requests open-loop (retrying on backpressure), waits for
/// every response, and distils the metrics snapshot.
fn drive(seed: u64, config: ServiceConfig, total: usize) -> Outcome {
    let service: SolverService<f32> = SolverService::start(config);
    let mut generator = Generator::new(seed);
    let start = Instant::now();
    let mut tickets: Vec<Ticket<f32>> = Vec::with_capacity(total);
    for i in 0..total {
        let n = SIZES[i % SIZES.len()];
        let system = generator.system(Workload::DiagonallyDominant, n);
        loop {
            match service.submit(system.clone()) {
                Ok(ticket) => {
                    tickets.push(ticket);
                    break;
                }
                Err(ServiceError::QueueFull { retry_after, .. }) => {
                    // Open-loop backoff: honor the service's drain-rate
                    // hint when it has one, else just yield and retry.
                    match retry_after {
                        Some(hint) => std::thread::sleep(hint),
                        None => std::thread::yield_now(),
                    }
                }
                Err(e) => panic!("service refused a valid request: {e}"),
            }
        }
    }
    for ticket in tickets {
        let response = ticket.wait();
        assert!(response.residual.is_finite(), "unverified response escaped the service");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let snapshot = service.shutdown();
    let flushes = snapshot.flushes_total().max(1);
    let engine_ms_total: f64 = snapshot.engine_ms.values().sum();
    Outcome {
        systems_per_sec: snapshot.completed as f64 / elapsed.max(1e-9),
        device_us_per_system: engine_ms_total * 1e3 / (snapshot.completed.max(1) as f64),
        mean_occupancy: snapshot.completed as f64 / flushes as f64,
        plan_hits: snapshot.plan_hits,
        plan_tunes: snapshot.plan_tunes,
        p50_us: snapshot.latency_p50_us,
        p99_us: snapshot.latency_p99_us,
        repairs: snapshot.repaired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_experiment_produces_four_rows() {
        let cfg = ReproConfig { scale: 0.25, ..Default::default() };
        let tables = run(&cfg);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 4);
        // Throughput cells parse as positive numbers.
        for row in &tables[0].rows {
            let rate: f64 = row[1].parse().unwrap();
            assert!(rate > 0.0, "{row:?}");
        }
    }
}
