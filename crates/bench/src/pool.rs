//! The `pool` subcommand: multi-device scaling, failover, and large-n
//! partitioned-solve verification on one node's device pool.
//!
//! ```text
//! cargo run --release -p bench -- pool            # full sweep (1→8 devices)
//! cargo run --release -p bench -- pool --quick    # CI gate subset
//! ```
//!
//! A device pool is a one-node cluster: every cell runs on a
//! `ClusterConfig::new(1, devices)` cluster through the scaling and solve
//! cells of the `cluster` gate, on the virtual clock, so every number
//! is a deterministic replay of its seed. Three experiments, three gates
//! (exit 1 iff any fails):
//!
//! 1. **Scaling** — a pinned-engine batched stream through the cluster
//!    serving loop over pools of 1→8 devices; batches go round-robin over
//!    the devices. Aggregate throughput is `completed / makespan`, where
//!    the makespan is the *max* per-device simulated busy time (the
//!    critical path of a parallel node). Gate: 4 devices deliver ≥ 3×
//!    the 1-device throughput.
//! 2. **Failover** — a 4-device pool where one device dies sticky
//!    (`DeviceLost`) a few launches in. Gate: zero wrong answers,
//!    availability ≥ 99%, and only the dead device's breaker opens.
//! 3. **Partitioned large-n** — the cluster partitioned solve at
//!    n = 2^16 (and 2^20 in the full sweep) on every pool size, verified
//!    against the CPU GEP reference. Gate: every row verifies.
//!
//! Wrong answers are counted by the serving loop from a residual it
//! recomputes from the held system, never from the service's own report.

use crate::cli::{self, EXIT_GATE_FAIL, EXIT_PASS};
use crate::cluster::{drive_scaling, drive_solve, large_system, ScalingCell, SolveCell};
use crate::report::Table;
use cluster::{run_cluster_service, ClusterConfig, ClusterServiceConfig, ClusterWorkload};
use gpu_sim::FaultConfig;
use gpu_solvers::GpuAlgorithm;
use solver_service::Engine;
use std::time::Duration;

/// System size for the scaling stream (m = 32 divides it).
const SCALING_N: usize = 256;

/// The 4-device scaling point the gate reads.
const GATE_DEVICES: usize = 4;

/// Minimum 4-device speedup over 1 device the gate accepts.
const GATE_SPEEDUP: f64 = 3.0;

/// The device the failover cell kills.
const DEAD: usize = 2;

/// Chunks per device for the partitioned rows.
const CHUNKS_PER_DEVICE: usize = 16;

/// The serving knobs of every stream cell: batches of 8 pinned to
/// `cr+pcr@32`, so each flush is one identical GPU launch.
fn service() -> ClusterServiceConfig {
    ClusterServiceConfig {
        target_batch: 8,
        max_linger: Duration::from_millis(1),
        min_gpu_batch: 1,
        pin_engine: Some(Engine::Gpu(GpuAlgorithm::CrPcr { m: 32 })),
        ..ClusterServiceConfig::default()
    }
}

/// `total` n = 256 requests, 25 µs apart, generated from `seed`.
fn stream(seed: u64, total: usize) -> ClusterWorkload {
    ClusterWorkload {
        seed,
        requests: total,
        sizes: vec![SCALING_N],
        interarrival: Duration::from_micros(25),
    }
}

/// Outcome of the failover cell.
struct FailoverOutcome {
    total: usize,
    completed: u64,
    wrong: u64,
    availability: f64,
    dead_lost: bool,
    dead_breaker_open: bool,
    survivors_quiet: bool,
    survivor_dispatched: u64,
}

impl FailoverOutcome {
    fn passes(&self) -> bool {
        self.wrong == 0
            && self.availability >= 0.99
            && self.dead_lost
            && self.dead_breaker_open
            && self.survivors_quiet
            && self.survivor_dispatched > 0
    }
}

/// The failover cell: device [`DEAD`] of a 4-device pool is lost for good
/// on its 4th launch, mid-stream.
fn drive_failover(seed: u64, total: usize) -> FailoverOutcome {
    let mut cfg = ClusterConfig::new(1, 4);
    cfg.device_fault_overrides =
        vec![(0, DEAD, FaultConfig { device_lost_after: Some(3), ..FaultConfig::quiet(0) })];
    let mut cluster = cfg.build();
    let stats = run_cluster_service(&mut cluster, &service(), &stream(seed, total));
    let node = cluster.node(0);
    let breakers = node.engine_breakers.states();
    let device_breakers =
        |id: usize| breakers.iter().filter(move |(key, _)| key.starts_with(&format!("dev{id}:")));
    let survivors = node.pool.devices().iter().filter(|d| d.id != DEAD);
    FailoverOutcome {
        total,
        completed: stats.completed,
        wrong: stats.wrong,
        availability: stats.completed as f64 / total.max(1) as f64,
        dead_lost: node.pool.is_lost(DEAD),
        dead_breaker_open: device_breakers(DEAD).any(|(_, state)| state == "open"),
        survivors_quiet: survivors
            .clone()
            .all(|d| !d.is_lost() && device_breakers(d.id).all(|(_, state)| state == "closed")),
        survivor_dispatched: survivors.map(|d| d.dispatched()).sum(),
    }
}

/// Every cell of one sweep, in report order.
struct PoolRun {
    /// `(devices, cell, speedup over the first row)`.
    scaling: Vec<(usize, ScalingCell, f64)>,
    failover: FailoverOutcome,
    /// `(devices, n, cell)`.
    partitioned: Vec<(usize, usize, SolveCell)>,
}

impl PoolRun {
    fn measure(quick: bool) -> Self {
        let seed = 20100109;
        let total = if quick { 192 } else { 512 };
        let device_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };

        let mut scaling: Vec<(usize, ScalingCell, f64)> = Vec::new();
        for &devices in device_counts {
            eprintln!("[pool] scaling @ {devices} device(s) ...");
            let cfg = ClusterConfig::new(1, devices);
            let cell = drive_scaling(cfg, &service(), &stream(seed, total));
            let speedup = match scaling.first() {
                Some((_, base, _)) => cell.throughput / base.throughput,
                None => 1.0,
            };
            scaling.push((devices, cell, speedup));
        }

        eprintln!("[pool] failover (device {DEAD} lost mid-stream) ...");
        let failover = drive_failover(seed ^ 0xF01, total);

        // 2^20 rides residual-only: a GEP reference at that size is fine,
        // but element-wise comparison adds nothing the residual misses.
        let mut sizes: Vec<(usize, bool)> = vec![(1 << 16, true)];
        if !quick {
            sizes.push((1 << 20, false));
        }
        let mut partitioned = Vec::new();
        for (n, elementwise) in sizes {
            let sys = large_system(n);
            let x_ref = elementwise.then(|| cpu_solvers::gep::solve(&sys).expect("GEP reference"));
            for &devices in device_counts {
                eprintln!(
                    "[pool] partitioned n=2^{} @ {devices} device(s) ...",
                    n.trailing_zeros()
                );
                let cfg = ClusterConfig::new(1, devices);
                partitioned.push((
                    devices,
                    n,
                    drive_solve(cfg, CHUNKS_PER_DEVICE, &sys, x_ref.as_deref()),
                ));
            }
        }
        Self { scaling, failover, partitioned }
    }

    /// The gated 4-device scaling row, if the sweep ran it.
    fn gate_row(&self) -> Option<&(usize, ScalingCell, f64)> {
        self.scaling.iter().find(|(devices, _, _)| *devices == GATE_DEVICES)
    }

    fn json_rows(&self) -> Vec<String> {
        let mut rows: Vec<String> = self
            .scaling
            .iter()
            .map(|(d, cell, speedup)| json_scaling(*d, cell, *speedup))
            .collect();
        rows.push(json_failover(&self.failover));
        rows.extend(self.partitioned.iter().map(|(d, n, cell)| json_partitioned(*d, *n, cell)));
        rows
    }
}

fn json_scaling(devices: usize, cell: &ScalingCell, speedup: f64) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"pool-scaling\",\"devices\":{},\"completed\":{},",
            "\"wrong\":{},\"makespan_ms\":{:.3},\"work_ms\":{:.3},",
            "\"throughput_per_ms\":{:.3},\"speedup\":{:.2}}}"
        ),
        devices,
        cell.completed,
        cell.wrong,
        cell.makespan_ms,
        cell.work_ms,
        cell.throughput,
        speedup,
    )
}

fn json_failover(out: &FailoverOutcome) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"pool-failover\",\"requests\":{},\"completed\":{},",
            "\"wrong\":{},\"availability\":{:.4},\"dead_lost\":{},",
            "\"dead_breaker_open\":{},\"survivors_quiet\":{},\"survivor_dispatched\":{}}}"
        ),
        out.total,
        out.completed,
        out.wrong,
        out.availability,
        out.dead_lost,
        out.dead_breaker_open,
        out.survivors_quiet,
        out.survivor_dispatched,
    )
}

fn json_partitioned(devices: usize, n: usize, cell: &SolveCell) -> String {
    format!(
        concat!(
            "{{\"experiment\":\"pool-partitioned\",\"devices\":{},\"n\":{},",
            "\"verified\":{},\"residual\":{:.3e},\"chunks\":{},\"interface_rows\":{},",
            "\"local_ms\":{:.4},\"interface_ms\":{:.4},\"backsubst_ms\":{:.4}}}"
        ),
        devices,
        n,
        cell.verified,
        cell.residual,
        cell.chunks,
        cell.interface_rows,
        cell.local_ms,
        cell.interface_ms,
        cell.backsubst_ms,
    )
}

/// Checks the measured scaling/failover numbers against the checked-in
/// `baselines/pool.json` thresholds; returns failure clauses.
fn baseline_failures(
    gate_speedup: Option<f64>,
    gate_throughput: Option<f64>,
    availability: f64,
) -> Vec<String> {
    let baselines = match cli::baseline_path("pool.json").map(std::fs::read_to_string) {
        Some(Ok(text)) => text,
        Some(Err(e)) => return vec![format!("baselines/pool.json unreadable: {e}")],
        None => return vec!["baselines/pool.json missing".to_string()],
    };
    let mut failures = Vec::new();
    match cli::json_object_with(&baselines, "name", "scaling-4dev") {
        Some(row) => {
            if let (Some(min), Some(got)) = (cli::json_f64(row, "min_speedup"), gate_speedup) {
                if got < min {
                    failures.push(format!("scaling: 4-device speedup {got:.2} < baseline {min}"));
                }
            }
            if let (Some(min), Some(got)) =
                (cli::json_f64(row, "min_throughput_per_ms"), gate_throughput)
            {
                if got < min {
                    failures.push(format!(
                        "scaling: 4-device throughput {got:.2}/ms < baseline {min}/ms"
                    ));
                }
            }
        }
        None => failures.push("baselines/pool.json lacks a scaling-4dev row".to_string()),
    }
    match cli::json_object_with(&baselines, "name", "failover") {
        Some(row) => {
            if let Some(min) = cli::json_f64(row, "min_availability") {
                if availability < min {
                    failures
                        .push(format!("failover: availability {availability:.4} < baseline {min}"));
                }
            }
        }
        None => failures.push("baselines/pool.json lacks a failover row".to_string()),
    }
    failures
}

/// Runs the pool sweep; returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let parsed = match cli::parse("pool", args, &[], 0) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let quick = parsed.quick;
    let sweep = PoolRun::measure(quick);
    let mut failures = 0usize;

    // 1. Scaling.
    let total = sweep.failover.total;
    let mut scaling = Table::new(
        format!(
            "Pool scaling: {total} pinned cr+pcr@32 requests (n = {SCALING_N}) on a 1-node \
             cluster, round-robin over devices, throughput = completed / max per-device busy ms"
        ),
        &["devices", "completed", "wrong", "makespan ms", "work ms", "req/ms", "speedup"],
    );
    for (devices, cell, speedup) in &sweep.scaling {
        failures += usize::from(cell.wrong > 0 || cell.completed != total as u64);
        scaling.row(vec![
            devices.to_string(),
            cell.completed.to_string(),
            cell.wrong.to_string(),
            format!("{:.3}", cell.makespan_ms),
            format!("{:.3}", cell.work_ms),
            format!("{:.2}", cell.throughput),
            format!("{speedup:.2}x"),
        ]);
    }
    let gate_speedup = sweep.gate_row().map(|(_, _, speedup)| *speedup);
    let gate_throughput = sweep.gate_row().map(|(_, cell, _)| cell.throughput);
    failures += usize::from(!gate_speedup.is_some_and(|s| s >= GATE_SPEEDUP));
    scaling.note(format!(
        "gate: {GATE_DEVICES}-device speedup >= {GATE_SPEEDUP:.0}x over 1 device — measured {}",
        gate_speedup.map_or("n/a".to_string(), |s| format!("{s:.2}x")),
    ));
    scaling.note("makespan = max per-device simulated busy ms (parallel critical path)");
    println!("{scaling}");

    // 2. Failover.
    let failover = &sweep.failover;
    let failover_ok = failover.passes();
    failures += usize::from(!failover_ok);
    let mut ftable = Table::new(
        format!("Pool failover: 4 devices, device {DEAD} lost for good on its 4th launch"),
        &["requests", "completed", "wrong", "avail %", "dead lost", "breakers", "gate"],
    );
    ftable.row(vec![
        failover.total.to_string(),
        failover.completed.to_string(),
        failover.wrong.to_string(),
        format!("{:.1}", failover.availability * 100.0),
        failover.dead_lost.to_string(),
        format!(
            "dev{DEAD} {}, survivors {}",
            if failover.dead_breaker_open { "open" } else { "NOT open" },
            if failover.survivors_quiet { "closed" } else { "NOT closed" }
        ),
        if failover_ok { "pass".into() } else { "FAIL".into() },
    ]);
    ftable.note("gate: wrong = 0, availability >= 99%, only the dead device's breaker opens");
    println!("{ftable}");

    // 3. Partitioned large-n verification.
    let mut ptable = Table::new(
        "Partitioned large-n solves across the pool (modified Thomas -> PCR interface -> \
         back-substitution), verified against CPU GEP",
        &[
            "devices",
            "n",
            "chunks",
            "iface rows",
            "local ms",
            "iface ms",
            "backsubst ms",
            "max rel err",
            "residual",
            "gate",
        ],
    );
    for (devices, n, cell) in &sweep.partitioned {
        failures += usize::from(!cell.verified);
        ptable.row(vec![
            devices.to_string(),
            format!("2^{}", n.trailing_zeros()),
            cell.chunks.to_string(),
            cell.interface_rows.to_string(),
            format!("{:.4}", cell.local_ms),
            format!("{:.4}", cell.interface_ms),
            format!("{:.4}", cell.backsubst_ms),
            if cell.max_rel_err.is_nan() {
                "-".to_string()
            } else {
                format!("{:.2e}", cell.max_rel_err)
            },
            format!("{:.2e}", cell.residual),
            if cell.verified { "pass".into() } else { "FAIL".into() },
        ]);
    }
    ptable.note("gate: element-wise rel err < 1e-9 vs GEP (2^16) and l2 residual < 1e-6");
    println!("{ptable}");

    let json = sweep.json_rows();
    if parsed.json {
        for line in &json {
            println!("{line}");
        }
    }

    let bench = format!("{{\"bench\":\"pool\",\"quick\":{quick},\"rows\":[{}]}}\n", json.join(","));
    match cli::write_bench("BENCH_pool.json", &bench) {
        Ok(path) => eprintln!("[pool] wrote {}", path.display()),
        Err(e) => {
            eprintln!("[pool] FAIL: writing BENCH_pool.json: {e}");
            failures += 1;
        }
    }

    for clause in baseline_failures(gate_speedup, gate_throughput, failover.availability) {
        eprintln!("[pool] FAIL: {clause}");
        failures += 1;
    }

    if failures > 0 {
        eprintln!("[pool] FAIL: {failures} gate(s) broke");
        EXIT_GATE_FAIL
    } else {
        println!(
            "[pool] PASS: scaling >= {GATE_SPEEDUP:.0}x at {GATE_DEVICES} devices, \
             failover lossless, all partitioned solves verified, baselines held"
        );
        EXIT_PASS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_four_devices_beats_three_x() {
        let one = drive_scaling(ClusterConfig::new(1, 1), &service(), &stream(3, 192));
        let four = drive_scaling(ClusterConfig::new(1, GATE_DEVICES), &service(), &stream(3, 192));
        assert_eq!(one.wrong + four.wrong, 0);
        assert_eq!((one.completed, four.completed), (192, 192));
        let speedup = four.throughput / one.throughput;
        assert!(speedup >= GATE_SPEEDUP, "4-device speedup {speedup:.2} < {GATE_SPEEDUP}");
    }

    #[test]
    fn failover_cell_passes_its_gate() {
        let out = drive_failover(5, 120);
        assert!(
            out.passes(),
            "wrong={} avail={:.3} dead_lost={} open={} quiet={}",
            out.wrong,
            out.availability,
            out.dead_lost,
            out.dead_breaker_open,
            out.survivors_quiet
        );
    }

    #[test]
    fn partitioned_cell_verifies_at_2_16() {
        let sys = large_system(1 << 16);
        let x_ref = cpu_solvers::gep::solve(&sys).unwrap();
        let cell = drive_solve(ClusterConfig::new(1, 4), CHUNKS_PER_DEVICE, &sys, Some(&x_ref));
        assert!(cell.verified, "rel err {:.3e} residual {:.3e}", cell.max_rel_err, cell.residual);
        assert_eq!(cell.interface_rows, 2 * cell.chunks);
    }

    #[test]
    fn quick_sweep_rows_are_identical_across_runs() {
        let (a, b) = (PoolRun::measure(true).json_rows(), PoolRun::measure(true).json_rows());
        assert_eq!(a, b, "the pool gate must be a deterministic replay");
        for line in &a {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(run(&["--bogus".to_string()]), 2);
    }
}
