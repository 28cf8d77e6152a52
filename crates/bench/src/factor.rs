//! The `factor` subcommand: cold-vs-warm sweep over the factorization
//! cache and reports speedup, hit rate, and correctness.
//!
//! ```text
//! cargo run --release -p bench -- factor            # full sweep (1200 req)
//! cargo run --release -p bench -- factor --quick    # CI gate subset
//! ```
//!
//! Two identical open-loop streams of same-matrix RHS flushes run through
//! [`serve_flush`] on the simulated clock: the **cold** mode serves every
//! flush with full elimination (factor cache off), the **warm** mode
//! enables the cache so repeat-matrix flushes take the back-substitution
//! fast path. Both modes pin the CPU cost model, so the device-µs ratio
//! is the flop-count ratio itself — `O(8n)` elimination vs `O(5n)`
//! substitution — and the gate is deterministic. The gate fails (exit 1)
//! iff the warm speedup drops below the checked-in floor, the hit rate
//! collapses, or any answer in either mode escapes the verify bound.

use crate::report::Table;
use factor_cache::SharedFactorCache;
use gpu_sim::{Clock, Launcher};
use solver_service::{
    make_request_keyed, serve_flush, CircuitBreakers, CpuEngine, DeviceCtx, DispatchConfig, Engine,
    FlushReason, FlushedBatch, PlanCache, ServiceMetrics, Ticket,
};
use std::sync::Arc;
use tridiag_core::{splitmix64_next, Generator, MatrixKey, TridiagonalSystem, Workload};

/// System sizes the stream mixes — one pooled matrix per size.
const SIZES: [usize; 3] = [64, 128, 256];

/// RHS per flush (every flush is one matrix × `BATCH` right-hand sides).
const BATCH: usize = 8;

/// A response is "wrong" when its residual escapes this bound (the same
/// bound the chaos gate and the service property tests use for f32).
const RESIDUAL_BOUND: f64 = 1e-2;

/// What one mode (cold or warm) of the sweep produced.
struct ModeOutcome {
    completed: u64,
    wrong: u64,
    max_residual: f64,
    /// Modeled device time per served system, microseconds.
    device_us_per_system: f64,
    factor_hits: u64,
    factor_misses: u64,
    factor_evictions: u64,
    warm_flushes: u64,
    quiet: bool,
}

impl ModeOutcome {
    fn hit_rate(&self) -> f64 {
        let lookups = self.factor_hits + self.factor_misses;
        if lookups == 0 {
            0.0
        } else {
            self.factor_hits as f64 / lookups as f64
        }
    }
}

/// Drives one mode: `total` requests in `BATCH`-sized same-matrix flushes
/// cycling over the pooled matrices, on the simulated clock.
fn drive(seed: u64, total: usize, warm: bool) -> ModeOutcome {
    let clock = Clock::sim();
    let launcher = Launcher::gtx280();
    let plans = PlanCache::new();
    let breakers = CircuitBreakers::default();
    let metrics = ServiceMetrics::new();
    let cache = warm.then(|| Arc::new(SharedFactorCache::new(16)));
    let cfg = DispatchConfig {
        // Pin the cold path to the CPU Thomas cost model and keep warm
        // flushes on the CPU sweep, so the cold/warm device-µs ratio is
        // the deterministic flop-count ratio (25 vs 16 ns/row in the sim
        // model), independent of flush composition.
        pin_engine: Some(Engine::Cpu(CpuEngine::Thomas)),
        min_gpu_batch: usize::MAX,
        clock: clock.clone(),
        factor_cache: cache,
        ..DispatchConfig::default()
    };

    let mut generator = Generator::new(seed);
    let templates: Vec<(TridiagonalSystem<f32>, MatrixKey)> = SIZES
        .iter()
        .map(|&n| {
            let system = generator.system(Workload::DiagonallyDominant, n);
            let key = MatrixKey::of_system(&system);
            (system, key)
        })
        .collect();

    let flushes = (total / BATCH).max(1);
    let mut tickets: Vec<Ticket<f32>> = Vec::with_capacity(flushes * BATCH);
    let mut rhs_rng = seed ^ 0xFAC7_0001;
    let mut id = 0u64;
    for f in 0..flushes {
        let (template, key) = &templates[f % templates.len()];
        let n = template.n();
        let mut requests = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let mut system = template.clone();
            for v in system.d.iter_mut() {
                *v = (splitmix64_next(&mut rhs_rng) % 19) as f32 - 9.0;
            }
            let (req, ticket) = make_request_keyed(id, system, 0, None, Some(*key));
            id += 1;
            requests.push(req);
            tickets.push(ticket);
        }
        serve_flush(
            DeviceCtx::solo(&launcher),
            &plans,
            &breakers,
            &metrics,
            &cfg,
            FlushedBatch { n, requests, reason: FlushReason::Full },
        );
    }

    let mut wrong = 0u64;
    let mut max_residual = 0.0f64;
    for ticket in tickets {
        let response = ticket.try_take().expect("synchronous serve fulfils every ticket");
        if !response.residual.is_finite() || response.residual >= RESIDUAL_BOUND {
            wrong += 1;
        }
        max_residual = max_residual.max(response.residual);
    }

    let snap = metrics.snapshot(0, plans.tunes(), plans.hits());
    let total_engine_ms: f64 = snap.engine_ms.values().sum();
    ModeOutcome {
        completed: snap.completed,
        wrong,
        max_residual,
        device_us_per_system: total_engine_ms * 1e3 / snap.completed.max(1) as f64,
        factor_hits: snap.factor_hits,
        factor_misses: snap.factor_misses,
        factor_evictions: snap.factor_evictions,
        warm_flushes: snap.warm_flushes,
        quiet: snap.degradation.is_quiet(),
    }
}

fn json_row(mode: &str, out: &ModeOutcome) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"factor\",\"mode\":\"{}\",",
            "\"completed\":{},\"wrong\":{},\"max_residual\":{:.3e},",
            "\"device_us_per_system\":{:.4},",
            "\"factor_hits\":{},\"factor_misses\":{},\"factor_evictions\":{},",
            "\"warm_flushes\":{},\"hit_rate\":{:.4}}}"
        ),
        mode,
        out.completed,
        out.wrong,
        out.max_residual,
        out.device_us_per_system,
        out.factor_hits,
        out.factor_misses,
        out.factor_evictions,
        out.warm_flushes,
        out.hit_rate(),
    )
}

/// Checks the sweep against `baselines/factor.json`.
fn baseline_failures(speedup: f64, hit_rate: f64, wrong: u64) -> Vec<String> {
    let baselines = match crate::cli::baseline_path("factor.json").map(std::fs::read_to_string) {
        Some(Ok(text)) => text,
        Some(Err(e)) => return vec![format!("baselines/factor.json unreadable: {e}")],
        None => return vec!["baselines/factor.json missing".to_string()],
    };
    let mut failures = Vec::new();
    match crate::cli::json_object_with(&baselines, "name", "factor-sweep") {
        Some(row) => {
            if let Some(min) = crate::cli::json_f64(row, "min_speedup") {
                if speedup < min {
                    failures.push(format!("factor: warm speedup {speedup:.4} < baseline {min}"));
                }
            }
            if let Some(min) = crate::cli::json_f64(row, "min_hit_rate") {
                if hit_rate < min {
                    failures.push(format!("factor: hit rate {hit_rate:.4} < baseline {min}"));
                }
            }
            if let Some(max) = crate::cli::json_u64(row, "max_wrong") {
                if wrong > max {
                    failures.push(format!("factor: wrong answers {wrong} > baseline {max}"));
                }
            }
        }
        None => failures.push("baselines/factor.json lacks a factor-sweep row".to_string()),
    }
    failures
}

/// Runs the cold-vs-warm factor sweep; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let parsed = match crate::cli::parse("factor", args, &[], 0) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let quick = parsed.quick;
    let total = if quick { 240 } else { 1200 };
    let seed = 20100109;

    eprintln!("[factor] cold sweep ({total} requests, cache off) ...");
    let cold = drive(seed, total, false);
    eprintln!("[factor] warm sweep ({total} requests, cache on) ...");
    let warm = drive(seed, total, true);

    let speedup = cold.device_us_per_system / warm.device_us_per_system.max(1e-12);
    let wrong = cold.wrong + warm.wrong;

    let mut table = Table::new(
        format!(
            "Factor cache: {total} same-matrix-pool requests/mode (n ∈ {SIZES:?}, \
             {BATCH} RHS/flush), cold elimination vs warm back-substitution"
        ),
        &[
            "mode",
            "served",
            "wrong",
            "max residual",
            "device µs/sys",
            "hits",
            "misses",
            "evict",
            "warm flushes",
        ],
    );
    for (mode, out) in [("cold", &cold), ("warm", &warm)] {
        table.row(vec![
            mode.to_string(),
            out.completed.to_string(),
            out.wrong.to_string(),
            format!("{:.2e}", out.max_residual),
            format!("{:.3}", out.device_us_per_system),
            out.factor_hits.to_string(),
            out.factor_misses.to_string(),
            out.factor_evictions.to_string(),
            out.warm_flushes.to_string(),
        ]);
    }
    table.note(format!(
        "warm speedup {speedup:.3}x device-µs/system, hit rate {:.1}%",
        warm.hit_rate() * 100.0
    ));
    table.note(format!(
        "gate: speedup/hit-rate floors from baselines/factor.json, wrong answers = 0 \
         (residual bound {RESIDUAL_BOUND:.0e})"
    ));
    println!("{table}");

    let json = vec![json_row("cold", &cold), json_row("warm", &warm)];
    if parsed.json {
        for line in &json {
            println!("{line}");
        }
    }

    let mut failures = 0usize;
    let bench = format!(
        "{{\"bench\":\"factor\",\"quick\":{quick},\"speedup\":{speedup:.4},\"rows\":[{}]}}\n",
        json.join(",")
    );
    match crate::cli::write_bench("BENCH_factor.json", &bench) {
        Ok(path) => eprintln!("[factor] wrote {}", path.display()),
        Err(e) => {
            eprintln!("[factor] FAIL: writing BENCH_factor.json: {e}");
            failures += 1;
        }
    }

    // Structural sanity independent of the baseline floors: the cold mode
    // must never consult the cache, the warm mode must miss exactly once
    // per pooled matrix, and warm traffic must not register as
    // degradation.
    if cold.factor_hits + cold.factor_misses + cold.warm_flushes != 0 {
        eprintln!("[factor] FAIL: cold mode touched the factor cache");
        failures += 1;
    }
    if warm.factor_misses != SIZES.len() as u64 {
        eprintln!(
            "[factor] FAIL: warm mode missed {} times for {} pooled matrices",
            warm.factor_misses,
            SIZES.len()
        );
        failures += 1;
    }
    if !warm.quiet || !cold.quiet {
        eprintln!("[factor] FAIL: a fault-free sweep left degradation counters non-quiet");
        failures += 1;
    }

    for clause in baseline_failures(speedup, warm.hit_rate(), wrong) {
        eprintln!("[factor] FAIL: {clause}");
        failures += 1;
    }

    if failures > 0 {
        eprintln!("[factor] FAIL: {failures} clause(s) broke the factor gate");
        crate::cli::EXIT_GATE_FAIL
    } else {
        println!(
            "[factor] PASS: warm speedup {speedup:.3}x, hit rate {:.1}%, every answer verified",
            warm.hit_rate() * 100.0
        );
        crate::cli::EXIT_PASS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_mode_never_touches_the_cache_and_verifies_everything() {
        let out = drive(7, 48, false);
        assert_eq!(out.completed, 48);
        assert_eq!(out.wrong, 0);
        assert_eq!(out.factor_hits + out.factor_misses + out.warm_flushes, 0);
        assert!(out.quiet);
    }

    #[test]
    fn warm_mode_misses_once_per_matrix_then_hits() {
        let out = drive(7, 96, true);
        assert_eq!(out.completed, 96);
        assert_eq!(out.wrong, 0);
        assert_eq!(out.factor_misses, SIZES.len() as u64);
        assert!(out.factor_hits > out.factor_misses);
        assert_eq!(out.factor_evictions, 0);
        assert!(out.quiet, "warm traffic is not degradation");
    }

    #[test]
    fn warm_beats_cold_by_the_flop_ratio() {
        let cold = drive(7, 240, false);
        let warm = drive(7, 240, true);
        let speedup = cold.device_us_per_system / warm.device_us_per_system;
        // 25 ns/row elimination vs 16 ns/row substitution, diluted by one
        // cold miss-flush per pooled matrix.
        assert!(speedup >= 1.3, "speedup {speedup}");
        assert!(speedup <= 25.0 / 16.0 + 1e-9, "speedup {speedup} above the flop ratio");
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(run(&["--bogus".to_string()]), 2);
    }
}
