//! Per-layer numbers for the traced run. Probes time calls into each
//! layer's public functions on a sample of the workload's own inputs;
//! the service analysis reads the service's public trace events and
//! metrics snapshot.

use crate::judge::Judge;
use crate::report::{median, Label, Metric};
use crate::spans::Spans;
use crate::workloads::{launch, paper_algorithms, PAPER_N};
use factor_cache::FactorCache;
use gpu_sim::{Clock, GlobalMem, Launcher};
use gpu_solvers::{solve_batch_warm, SystemHandles, ThomasWarmKernel};
use kernel_verify::VerifiedCatalog;
use numeric_verify::CertifiedCatalog;
use solver_service::planner::{autotune_ranked_on, Engine};
use solver_service::{FlushReason, MetricsSnapshot, TraceEvent};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::hint::black_box;
use std::time::Instant;
use tridiag_core::{MatrixKey, SystemBatch, TridiagonalSystem};

/// Probe passes per timing; the median pass is reported.
const PASSES: usize = 5;

/// Probe batch size of the autotune tournament (the service default).
const PROBE_COUNT: usize = 16;

/// Median over [`PASSES`] of the wall nanoseconds `f` takes.
fn time_ns(mut f: impl FnMut()) -> f64 {
    median(
        (0..PASSES)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_nanos() as f64
            })
            .collect(),
    )
}

fn m(name: &str, value: f64, unit: &'static str, label: Label) -> Metric {
    Metric::new(name, value, unit, label)
}

/// Systems of the sample grouped by size, in ascending size.
fn by_size(sample: &[TridiagonalSystem<f32>]) -> BTreeMap<usize, Vec<TridiagonalSystem<f32>>> {
    let mut groups: BTreeMap<usize, Vec<_>> = BTreeMap::new();
    for s in sample {
        groups.entry(s.n()).or_default().push(s.clone());
    }
    groups
}

/// Host-side probes of the layers below the service.
pub fn layer_probes(sample: &[TridiagonalSystem<f32>], plan_sizes: &[usize]) -> Vec<Metric> {
    // The matrix-keyed layers see each distinct matrix of the sample once.
    let mut seen = HashSet::new();
    let (keys, distinct): (Vec<MatrixKey>, Vec<&TridiagonalSystem<f32>>) = sample
        .iter()
        .map(|s| (MatrixKey::of_system(s), s))
        .filter(|(k, _)| seen.insert(*k))
        .unzip();
    let distinct_rows: f64 = distinct.iter().map(|s| s.n() as f64).sum();
    let rows: f64 = sample.iter().map(|s| s.n() as f64).sum();
    let mut out = Vec::new();

    let key_ns = time_ns(|| {
        for s in &distinct {
            black_box(MatrixKey::of_system(black_box(*s)));
        }
    });
    out.push(m("tridiag-core.key_ns_per_row", key_ns / distinct_rows, "ns/row", Label::Measured));

    // First sight analyses the matrix; later sights read the memo.
    let (mut first, mut repeat) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        let catalog = CertifiedCatalog::new();
        let t0 = Instant::now();
        for (k, s) in keys.iter().zip(&distinct) {
            black_box(catalog.observe(*k, *s));
        }
        first.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        for (k, s) in keys.iter().zip(&distinct) {
            black_box(catalog.observe(*k, *s));
        }
        repeat.push(t0.elapsed().as_nanos() as f64);
    }
    out.push(m(
        "numeric-verify.first_observe_ns_per_row",
        median(first) / distinct_rows,
        "ns/row",
        Label::Measured,
    ));
    out.push(m(
        "numeric-verify.repeat_observe_ns_per_row",
        median(repeat) / distinct_rows,
        "ns/row",
        Label::Measured,
    ));

    let (mut insert, mut lookup) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        let cache = FactorCache::<f32>::new(factor_cache::DEFAULT_CAPACITY);
        let t0 = Instant::now();
        for (k, s) in keys.iter().zip(&distinct) {
            black_box(cache.factor_and_insert(*k, &s.a, &s.b, &s.c).is_ok());
        }
        insert.push(t0.elapsed().as_nanos() as f64);
        let t0 = Instant::now();
        for k in &keys {
            black_box(cache.lookup(k));
        }
        lookup.push(t0.elapsed().as_nanos() as f64);
    }
    out.push(m(
        "factor-cache.insert_ns_per_row",
        median(insert) / distinct_rows,
        "ns/row",
        Label::Measured,
    ));
    out.push(m(
        "factor-cache.lookup_ns",
        median(lookup) / keys.len() as f64,
        "ns",
        Label::Measured,
    ));

    let mut xs: Vec<Vec<f32>> = sample.iter().map(|s| vec![0.0; s.n()]).collect();
    let thomas_ns = time_ns(|| {
        for (s, x) in sample.iter().zip(xs.iter_mut()) {
            black_box(cpu_solvers::thomas::solve_into(&s.a, &s.b, &s.c, &s.d, x).is_ok());
        }
    });
    out.push(m("cpu-solvers.thomas_ns_per_row", thomas_ns / rows, "ns/row", Label::Measured));
    let residual_ns = time_ns(|| {
        for (s, x) in sample.iter().zip(&xs) {
            black_box(tridiag_core::residual::l2_residual(s, x).ok());
        }
    });
    out.push(m("tridiag-core.residual_ns_per_row", residual_ns / rows, "ns/row", Label::Measured));

    out.extend(gpu_probes(sample, rows));
    out.extend(plan_probes(plan_sizes));
    out
}

/// Launches of the paper's solvers and the warm kernel on the sample: host
/// time of the simulator, and the cost model's split of the modeled time.
fn gpu_probes(sample: &[TridiagonalSystem<f32>], rows: f64) -> Vec<Metric> {
    let launcher = Launcher::gtx280();
    let systems = sample.len() as f64;
    let mut out = Vec::new();
    let (mut upload_ns, mut download_ns, mut transfers) = (0.0, 0.0, 0.0);
    for (alg_index, (_, suffix)) in paper_algorithms(PAPER_N).into_iter().enumerate() {
        let (mut host_ns, mut kernel_ms, mut transfer_ms) = (0.0, 0.0, 0.0);
        let (mut global, mut shared, mut compute, mut overhead) = (0.0, 0.0, 0.0, 0.0);
        let (mut steps, mut ops, mut shared_acc, mut bytes) = (0.0, 0.0, 0.0, 0.0);
        let mut conflict = 0u32;
        for (n, group) in by_size(sample) {
            let alg = paper_algorithms(n)[alg_index].0;
            let batch = SystemBatch::from_systems(&group).expect("equal sizes");
            let count = batch.count();
            let mut report = None;
            let mut launch_ns = Vec::new();
            for _ in 0..PASSES {
                let mut gmem = GlobalMem::new();
                let t0 = Instant::now();
                let gm = SystemHandles::upload(&mut gmem, &batch);
                upload_ns += t0.elapsed().as_nanos() as f64;
                let t0 = Instant::now();
                let r = launch(&launcher, alg, n, count, gm, &mut gmem);
                launch_ns.push(t0.elapsed().as_nanos() as f64);
                let t0 = Instant::now();
                black_box(gm.download_solutions(&mut gmem, &batch));
                download_ns += t0.elapsed().as_nanos() as f64;
                transfers += 1.0;
                report = Some(r);
            }
            host_ns += median(launch_ns);
            let report = report.expect("PASSES >= 1");
            let t = report.timing.with_transfer(&launcher.cost, batch.transfer_bytes() as u64);
            kernel_ms += t.kernel_ms;
            transfer_ms += t.transfer_ms;
            global += t.global_ms;
            shared += t.shared_ms;
            compute += t.compute_ms - t.overhead_ms;
            overhead += t.overhead_ms;
            // Counters are per block, and each block solves one system.
            let c = count as f64;
            steps += report.stats.num_steps() as f64 * c;
            ops += report.stats.total_ops() as f64 * c;
            shared_acc += report.stats.total_shared_accesses() as f64 * c;
            bytes += report.stats.global_bytes() as f64 * c;
            conflict = conflict.max(report.stats.max_conflict_degree());
        }
        let split = global + shared + compute + overhead;
        let frac = |x: f64| if split > 0.0 { x / split } else { 0.0 };
        let per_alg = [
            ("host_ns_per_row", host_ns / rows, "ns/row", Label::Measured),
            ("modeled_kernel_us_per_system", kernel_ms * 1e3 / systems, "us", Label::Modeled),
            ("modeled_transfer_us_per_system", transfer_ms * 1e3 / systems, "us", Label::Modeled),
            ("modeled_global_frac", frac(global), "ratio", Label::Modeled),
            ("modeled_shared_frac", frac(shared), "ratio", Label::Modeled),
            ("modeled_compute_frac", frac(compute), "ratio", Label::Modeled),
            ("modeled_overhead_frac", frac(overhead), "ratio", Label::Modeled),
            ("steps", steps / systems, "count", Label::Count),
            ("ops", ops / systems, "count", Label::Count),
            ("shared_accesses", shared_acc / systems, "count", Label::Count),
            ("max_conflict_degree", conflict as f64, "count", Label::Count),
            ("global_bytes", bytes / systems, "B", Label::Computed),
        ];
        for (name, value, unit, label) in per_alg {
            out.push(m(&format!("gpu-sim.{name}.{suffix}"), value, unit, label));
        }
    }
    out.push(m("gpu-solvers.upload_us", upload_ns / transfers / 1e3, "us", Label::Measured));
    out.push(m("gpu-solvers.download_us", download_ns / transfers / 1e3, "us", Label::Measured));

    // Warm tier: each size class's first matrix against the class's
    // right-hand sides, through the front door and as a bare launch.
    let (mut front_ns, mut launch_ns) = (0.0, 0.0);
    for (n, group) in by_size(sample) {
        let first = &group[0];
        let factors = cpu_solvers::ThomasFactors::factor(&first.a, &first.b, &first.c)
            .expect("dominant matrices factor");
        let rhs: Vec<&[f32]> = group.iter().map(|s| s.d.as_slice()).collect();
        front_ns += time_ns(|| {
            black_box(solve_batch_warm(&launcher, &factors, &rhs).is_ok());
        });
        let count = rhs.len();
        let mut d = vec![0.0f32; n * count];
        for (s, r) in rhs.iter().enumerate() {
            for i in 0..n {
                d[i * count + s] = r[i];
            }
        }
        let mut passes = Vec::new();
        for _ in 0..PASSES {
            let mut gmem = GlobalMem::new();
            let kernel = ThomasWarmKernel {
                n,
                count,
                sub: gmem.upload(factors.sub.clone()),
                wk1: gmem.upload(factors.wk1.clone()),
                wk2: gmem.upload(factors.wk2.clone()),
                d: gmem.upload(d.clone()),
                x: gmem.alloc_zeroed(n * count),
            };
            let blocks = count.div_ceil(gpu_sim::GridKernel::<f32>::block_dim(&kernel));
            let t0 = Instant::now();
            black_box(launcher.launch(&kernel, blocks, &mut gmem).is_ok());
            passes.push(t0.elapsed().as_nanos() as f64);
        }
        launch_ns += median(passes);
    }
    out.push(m("gpu-sim.host_ns_per_row.warm", launch_ns / rows, "ns/row", Label::Measured));
    out.push(m("gpu-solvers.warm_host_ns_per_row", front_ns / rows, "ns/row", Label::Measured));
    out
}

/// Autotune tournaments and kernel proofs for the workload's size classes,
/// each on a fresh memo, so the figures are what a cold service pays.
fn plan_probes(plan_sizes: &[usize]) -> Vec<Metric> {
    let launcher = Launcher::gtx280();
    let catalog = VerifiedCatalog::new();
    let (mut plan_ms, mut prove_ms) = (0.0, 0.0);
    for &n in plan_sizes {
        let t0 = Instant::now();
        let (_, ranking) = autotune_ranked_on::<f32>(&launcher, n, PROBE_COUNT, &Clock::real());
        plan_ms += t0.elapsed().as_secs_f64() * 1e3;
        // Prove the best-ranked GPU engine: the one the service's first
        // GPU flush of this size class asks the catalog about.
        if let Some(alg) = ranking.iter().find_map(|e| match e {
            Engine::Gpu(alg) => Some(*alg),
            Engine::Cpu(_) => None,
        }) {
            let t0 = Instant::now();
            black_box(catalog.status_for::<f32>(&launcher.device, alg, n));
            prove_ms += t0.elapsed().as_secs_f64() * 1e3;
        }
    }
    let classes = plan_sizes.len().max(1) as f64;
    vec![
        m("solver-service.plan_ms", plan_ms / classes, "ms", Label::Measured),
        m("kernel-verify.prove_ms", prove_ms / classes, "ms", Label::Measured),
    ]
}

/// Engine classes the service's dispatch labels fall into.
pub const ENGINE_CLASSES: [&str; 5] = ["cpu-thomas", "cpu-gep", "cpu-warm", "warm-gpu", "gpu"];

fn engine_class(label: &str) -> &'static str {
    ENGINE_CLASSES[..4].iter().find(|c| **c == label).copied().unwrap_or("gpu")
}

/// Per-layer numbers of the service from its trace events and the change
/// in its metrics snapshot over the traced phase. `busy_wall_ns` is the
/// summed wall time of the traced calls.
pub fn service_metrics(
    events: &[TraceEvent],
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    busy_wall_ns: f64,
) -> Vec<Metric> {
    let d = |f: fn(&MetricsSnapshot) -> u64| (f(after) - f(before)) as f64;
    let ratio = |x: f64, y: f64| if y > 0.0 { x / y } else { 0.0 };
    let flushes =
        d(|s| s.flushes_full + s.flushes_linger + s.flushes_deadline + s.flushes_shutdown);
    let hits = d(|s| s.factor_hits);
    let misses = d(|s| s.factor_misses);

    // Admit → Flush, matched first-in first-out within each size class
    // (flush events carry the size and occupancy, not request ids).
    let mut waiting: HashMap<u64, VecDeque<u64>> = HashMap::new();
    let mut queue_wait_ms = Vec::new();
    // Worker busy time: one worker serves flushes in routing order, so the
    // k-th Served closes the k-th Flush; a flush is busy from the later of
    // its routing and the previous Served.
    let mut routed: VecDeque<u64> = VecDeque::new();
    let mut last_served = 0u64;
    let mut busy_ns = 0.0;
    let (mut served, mut served_systems, mut full, mut linger) = (0.0, 0.0, 0.0, 0.0);
    for e in events {
        match e {
            TraceEvent::Admit { at, n, .. } => waiting.entry(*n).or_default().push_back(*at),
            TraceEvent::Flush { at, n, occupancy, .. } => {
                let q = waiting.entry(*n).or_default();
                for _ in 0..*occupancy {
                    if let Some(admitted) = q.pop_front() {
                        queue_wait_ms.push(at.saturating_sub(admitted) as f64 / 1e6);
                    }
                }
                routed.push_back(*at);
            }
            TraceEvent::Served { at, occupancy, reason, .. } => {
                if let Some(flushed) = routed.pop_front() {
                    busy_ns += at.saturating_sub(flushed.max(last_served)) as f64;
                }
                last_served = *at;
                served += 1.0;
                served_systems += *occupancy as f64;
                match reason {
                    FlushReason::Full => full += 1.0,
                    FlushReason::Linger => linger += 1.0,
                    _ => {}
                }
            }
            _ => {}
        }
    }

    let mut engine_systems: BTreeMap<&str, f64> =
        ENGINE_CLASSES.iter().map(|c| (*c, 0.0)).collect();
    for (label, systems) in &after.dispatch_systems {
        let was = before.dispatch_systems.get(label).copied().unwrap_or(0);
        *engine_systems.entry(engine_class(label)).or_default() += (systems - was) as f64;
    }
    let dispatched: f64 = engine_systems.values().sum();
    let device_ms = |s: &MetricsSnapshot| s.devices.iter().map(|d| d.device_ms).sum::<f64>();

    let mut out = vec![
        m(
            "numeric-verify.skip_ratio",
            ratio(d(|s| s.cert_skipped_verifies), flushes),
            "ratio",
            Label::Count,
        ),
        m("factor-cache.evictions", d(|s| s.factor_evictions), "count", Label::Count),
        m("factor-cache.hit_ratio", ratio(hits, hits + misses), "ratio", Label::Count),
        m("solver-service.plan_tunes", after.plan_tunes as f64, "count", Label::Count),
        m("solver-service.queue_wait_ms", median(queue_wait_ms), "ms", Label::Measured),
        m("solver-service.mean_occupancy", ratio(served_systems, served), "count", Label::Count),
        m("solver-service.flush_share.full", ratio(full, served), "ratio", Label::Count),
        m("solver-service.flush_share.linger", ratio(linger, served), "ratio", Label::Count),
        m(
            "solver-service.engine_busy_frac",
            ratio(busy_ns, busy_wall_ns),
            "ratio",
            Label::Measured,
        ),
        m(
            "modeled_device_us_per_system",
            ratio((device_ms(after) - device_ms(before)) * 1e3, dispatched),
            "us",
            Label::Modeled,
        ),
    ];
    for (class, systems) in engine_systems {
        out.push(m(
            &format!("solver-service.engine_share.{class}"),
            ratio(systems, dispatched),
            "ratio",
            Label::Count,
        ));
    }
    out
}

/// Median client-side `submit` time, from spans when the traced calls
/// recorded them, else from submitting the sample to `svc` one by one.
pub fn submit_us(
    spans: &Spans,
    svc: &solver_service::SolverService<f32>,
    sample: &[TridiagonalSystem<f32>],
    judge: &mut Judge,
) -> Metric {
    let mut ns = spans.durations_ns("submit");
    if ns.is_empty() {
        let mut tickets = Vec::new();
        for s in sample {
            let s = s.clone();
            let t0 = Instant::now();
            let ticket = svc.submit(s);
            ns.push(t0.elapsed().as_nanos() as f64);
            tickets.push(ticket);
        }
        for (s, ticket) in sample.iter().zip(tickets) {
            match ticket {
                Ok(t) => {
                    let r = t.wait();
                    judge.answer((&s.a, &s.b, &s.c, &s.d), &r.x, &r.engine);
                }
                Err(_) => judge.rejected(),
            }
        }
    }
    m("solver-service.submit_us", median(ns) / 1e3, "us", Label::Measured)
}
