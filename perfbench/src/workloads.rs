//! The four workloads. Each is a closed loop driven by one client thread:
//! the client waits for every answer of a call before it sends the next.
//! Inputs for a call are generated before its timer starts, and answers
//! are judged by the oracle after it stops.

use crate::gen::{self, Rng};
use crate::judge::Judge;
use crate::spans::{MemorySink, Spans};
use factor_cache::SharedFactorCache;
use gpu_sim::{GlobalMem, LaunchReport, Launcher};
use gpu_solvers::{
    solve_batch, CrKernel, GpuAlgorithm, HybridKernel, InnerSolver, PcrKernel, SystemHandles,
};
use kernel_verify::VerifiedCatalog;
use numeric_verify::CertifiedCatalog;
use solver_service::{ServiceConfig, ServiceError, SolverService, Ticket, TraceHandle};
use std::sync::Arc;
use std::time::Instant;
use tridiag_core::{SystemBatch, TridiagonalSystem};

/// Client-side record of one call.
pub struct Call {
    /// Wall time of the call, in nanoseconds.
    pub ns: u64,
    /// Systems the call asked for.
    pub systems: u64,
    /// Modeled device milliseconds (kernel + PCIe) the call reported, when
    /// the call returns a `TimingReport`.
    pub modeled_ms: f64,
}

pub trait Workload {
    type State;
    /// Calls per cycle: the unit of work that holds the workload's mix.
    fn cycle(&self) -> usize;
    /// Cycles in one second of measurement: what the benchmark's 2-core
    /// reference host runs in about a second, off-clock work included.
    /// Runs measure a fixed amount of work rather than a fixed time, so
    /// state that grows with work (the certificate catalog keeps every
    /// key it has seen) reaches the same size in every run, and
    /// `peak_rss_mib` does not move with throughput.
    fn cycles_per_second(&self) -> usize;
    /// Name of the span the traced run records around each call.
    fn call_span(&self) -> &'static str;
    /// Constructs the program state and warms it up; this is what
    /// `setup_s` times.
    fn setup(&mut self, judge: &mut Judge, trace: Option<Arc<MemorySink>>) -> Self::State;
    /// The `k`-th call of a run.
    fn call(
        &mut self,
        state: &mut Self::State,
        k: usize,
        judge: &mut Judge,
        spans: Option<&mut Spans>,
        id: u64,
    ) -> Call;
    /// The service under test, for service workloads.
    fn service<'a>(&self, state: &'a Self::State) -> Option<&'a SolverService<f32>>;
    /// 64 systems drawn from the workload's own input stream, for the
    /// per-layer probes.
    fn sample(&mut self) -> Vec<TridiagonalSystem<f32>>;
    /// Size classes the workload's service plans for.
    fn plan_sizes(&self) -> Vec<usize>;
}

/// The three paper solvers `paper_batch` cycles through. RD and CR+RD are
/// left out: they overflow at n = 512 on diagonally dominant systems (the
/// paper's §5.2 finding), which is a known property, not a failure to count.
pub fn paper_algorithms(n: usize) -> [(GpuAlgorithm, &'static str); 3] {
    [
        (GpuAlgorithm::Cr, "cr"),
        (GpuAlgorithm::Pcr, "pcr"),
        (GpuAlgorithm::CrPcr { m: n / 2 }, "cr_pcr"),
    ]
}

/// Launches one of [`paper_algorithms`] the way `gpu_solvers::solve_batch`
/// does, so the traced run and the probes can time the launch apart from
/// upload and download.
pub fn launch(
    launcher: &Launcher,
    alg: GpuAlgorithm,
    n: usize,
    count: usize,
    gm: SystemHandles<f32>,
    gmem: &mut GlobalMem<f32>,
) -> LaunchReport {
    let report = match alg {
        GpuAlgorithm::Cr => launcher.launch(&CrKernel { n, gm }, count, gmem),
        GpuAlgorithm::Pcr => launcher.launch(&PcrKernel { n, gm }, count, gmem),
        GpuAlgorithm::CrPcr { m } => {
            launcher.launch(&HybridKernel { n, m, inner: InnerSolver::Pcr, gm }, count, gmem)
        }
        other => panic!("{other} is not a benchmarked algorithm"),
    };
    report.expect("the benchmarked launch configurations are valid")
}

fn batch_of(rng: &mut Rng, n: usize, count: usize) -> SystemBatch<f32> {
    let systems: Vec<_> = (0..count).map(|_| gen::dominant(rng, n)).collect();
    SystemBatch::from_systems(&systems).expect("equal sizes")
}

fn parts(s: &TridiagonalSystem<f32>) -> (&[f32], &[f32], &[f32], &[f32]) {
    (&s.a, &s.b, &s.c, &s.d)
}

/// `paper_batch`: the library front door, `gpu_solvers::solve_batch`, on
/// the paper's Figure 6 configuration.
pub struct PaperBatch {
    rng: Rng,
}

pub const PAPER_N: usize = 512;
const PAPER_COUNT: usize = 512;
/// Systems per algorithm in the warm-up solve.
const PAPER_WARMUP_COUNT: usize = 16;

impl PaperBatch {
    pub fn new(seed: u64) -> Self {
        PaperBatch { rng: Rng::new(seed ^ 0x1) }
    }

    fn judge_batch(
        judge: &mut Judge,
        batch: &SystemBatch<f32>,
        x: &tridiag_core::SolutionBatch<f32>,
        engine: &str,
    ) {
        for i in 0..batch.count() {
            judge.answer(batch.system_slices(i), x.system(i), engine);
        }
    }
}

impl Workload for PaperBatch {
    type State = Launcher;

    fn cycle(&self) -> usize {
        3
    }

    fn cycles_per_second(&self) -> usize {
        2
    }

    fn call_span(&self) -> &'static str {
        "solve_batch"
    }

    fn setup(&mut self, judge: &mut Judge, _trace: Option<Arc<MemorySink>>) -> Launcher {
        let launcher = Launcher::gtx280();
        for (alg, _) in paper_algorithms(PAPER_N) {
            let batch = batch_of(&mut self.rng, PAPER_N, PAPER_WARMUP_COUNT);
            let report = solve_batch(&launcher, alg, &batch).expect("valid configuration");
            Self::judge_batch(judge, &batch, &report.solutions, &alg.to_string());
        }
        launcher
    }

    fn call(
        &mut self,
        launcher: &mut Launcher,
        k: usize,
        judge: &mut Judge,
        spans: Option<&mut Spans>,
        id: u64,
    ) -> Call {
        let (alg, _) = paper_algorithms(PAPER_N)[k % 3];
        let batch = batch_of(&mut self.rng, PAPER_N, PAPER_COUNT);
        let (ns, solutions, timing) = match spans {
            None => {
                let t0 = Instant::now();
                let report = solve_batch(launcher, alg, &batch).expect("valid configuration");
                (t0.elapsed().as_nanos() as u64, report.solutions, report.timing)
            }
            Some(spans) => {
                // The body of `solve_batch`, split at its layer boundaries.
                let t0 = Instant::now();
                let call = spans.open("solve_batch", None, id);
                let mut gmem = GlobalMem::new();
                let s = spans.open("upload", Some(call), id);
                let gm = SystemHandles::upload(&mut gmem, &batch);
                spans.close(s);
                let s = spans.open("launch", Some(call), id);
                let report = launch(launcher, alg, PAPER_N, batch.count(), gm, &mut gmem);
                spans.close(s);
                let s = spans.open("download", Some(call), id);
                let solutions = gm.download_solutions(&mut gmem, &batch);
                spans.close(s);
                let timing =
                    report.timing.with_transfer(&launcher.cost, batch.transfer_bytes() as u64);
                spans.close(call);
                (t0.elapsed().as_nanos() as u64, solutions, timing)
            }
        };
        Self::judge_batch(judge, &batch, &solutions, &alg.to_string());
        Call { ns, systems: batch.count() as u64, modeled_ms: timing.total_ms() }
    }

    fn service<'a>(&self, _: &'a Launcher) -> Option<&'a SolverService<f32>> {
        None
    }

    fn sample(&mut self) -> Vec<TridiagonalSystem<f32>> {
        (0..64).map(|_| gen::dominant(&mut self.rng, PAPER_N)).collect()
    }

    fn plan_sizes(&self) -> Vec<usize> {
        vec![PAPER_N]
    }
}

/// The one service configuration every service workload runs: the
/// defaults, plus a 64-entry factor cache, the certified catalog at its
/// default sampling period and a verified-proof catalog, with one worker.
pub fn start_service(trace: Option<Arc<MemorySink>>) -> SolverService<f32> {
    let config = ServiceConfig {
        workers: 1,
        factor_cache: Some(Arc::new(SharedFactorCache::new(factor_cache::DEFAULT_CAPACITY))),
        certified: Some(Arc::new(CertifiedCatalog::new())),
        verified: Some(Arc::new(VerifiedCatalog::new())),
        trace: match trace {
            Some(sink) => TraceHandle::to(sink),
            None => TraceHandle::disabled(),
        },
        ..ServiceConfig::default()
    };
    SolverService::start(config)
}

/// `submit`, with the one retry a client makes on a `QueueFull` that
/// carries a back-off hint. `copy` rebuilds the system for the retry.
fn submit_with_retry(
    svc: &SolverService<f32>,
    system: TridiagonalSystem<f32>,
    copy: &TridiagonalSystem<f32>,
) -> Option<Ticket<f32>> {
    match svc.submit(system) {
        Ok(ticket) => Some(ticket),
        Err(ServiceError::QueueFull { retry_after: Some(hint), .. }) => {
            std::thread::sleep(hint);
            svc.submit(copy.clone()).ok()
        }
        Err(_) => None,
    }
}

/// `cold_sweep`: waves of distinct systems, n cycling through four sizes
/// within each wave, so every wave holds the same mix.
pub struct ColdSweep {
    rng: Rng,
}

const COLD_SIZES: [usize; 4] = [64, 128, 256, 512];
const WAVE: usize = 256;

impl ColdSweep {
    pub fn new(seed: u64) -> Self {
        ColdSweep { rng: Rng::new(seed ^ 0x2) }
    }

    fn wave(
        &mut self,
        svc: &SolverService<f32>,
        judge: &mut Judge,
        mut spans: Option<&mut Spans>,
        id: u64,
    ) -> Call {
        let inputs: Vec<_> = (0..WAVE)
            .map(|i| gen::dominant(&mut self.rng, COLD_SIZES[i % COLD_SIZES.len()]))
            .collect();
        let to_send = inputs.clone();
        let t0 = Instant::now();
        let call = spans.as_deref_mut().map(|s| s.open("wave", None, id));
        let mut tickets = Vec::with_capacity(WAVE);
        for (system, copy) in to_send.into_iter().zip(&inputs) {
            let span = spans.as_deref_mut().map(|s| s.open("submit", call, id));
            tickets.push(submit_with_retry(svc, system, copy));
            if let (Some(s), Some(span)) = (spans.as_deref_mut(), span) {
                s.close(span);
            }
        }
        let mut answers = Vec::with_capacity(WAVE);
        for ticket in tickets {
            let span = spans.as_deref_mut().map(|s| s.open("wait", call, id));
            answers.push(ticket.map(Ticket::wait));
            if let (Some(s), Some(span)) = (spans.as_deref_mut(), span) {
                s.close(span);
            }
        }
        if let (Some(s), Some(call)) = (spans, call) {
            s.close(call);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        for (system, answer) in inputs.iter().zip(answers) {
            match answer {
                Some(r) => {
                    judge.answer(parts(system), &r.x, &r.engine);
                }
                None => judge.rejected(),
            }
        }
        Call { ns, systems: WAVE as u64, modeled_ms: 0.0 }
    }
}

impl Workload for ColdSweep {
    type State = SolverService<f32>;

    fn cycle(&self) -> usize {
        1
    }

    fn cycles_per_second(&self) -> usize {
        40
    }

    fn call_span(&self) -> &'static str {
        "wave"
    }

    fn setup(&mut self, judge: &mut Judge, trace: Option<Arc<MemorySink>>) -> Self::State {
        let svc = start_service(trace);
        self.wave(&svc, judge, None, 0);
        svc
    }

    fn call(
        &mut self,
        svc: &mut Self::State,
        _k: usize,
        judge: &mut Judge,
        spans: Option<&mut Spans>,
        id: u64,
    ) -> Call {
        self.wave(svc, judge, spans, id)
    }

    fn service<'a>(&self, svc: &'a Self::State) -> Option<&'a SolverService<f32>> {
        Some(svc)
    }

    fn sample(&mut self) -> Vec<TridiagonalSystem<f32>> {
        COLD_SIZES
            .iter()
            .flat_map(|&n| (0..16).map(move |_| n))
            .map(|n| gen::dominant(&mut self.rng, n))
            .collect()
    }

    fn plan_sizes(&self) -> Vec<usize> {
        COLD_SIZES.to_vec()
    }
}

/// `warm_rhs`: `solve_many_rhs` over a pool of matrices that fits the
/// factor cache, fresh right-hand sides on every call.
pub struct WarmRhs {
    rng: Rng,
    pool: Vec<TridiagonalSystem<f32>>,
}

const WARM_N: usize = 256;
const WARM_POOL: usize = 8;
const WARM_RHS: usize = 64;

impl WarmRhs {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x3);
        let pool = (0..WARM_POOL).map(|_| gen::dominant(&mut rng, WARM_N)).collect();
        WarmRhs { rng, pool }
    }
}

impl Workload for WarmRhs {
    type State = SolverService<f32>;

    fn cycle(&self) -> usize {
        WARM_POOL
    }

    fn cycles_per_second(&self) -> usize {
        128
    }

    fn call_span(&self) -> &'static str {
        "solve_many_rhs"
    }

    fn setup(&mut self, judge: &mut Judge, trace: Option<Arc<MemorySink>>) -> Self::State {
        let mut svc = start_service(trace);
        for k in 0..WARM_POOL {
            self.call(&mut svc, k, judge, None, 0);
        }
        svc
    }

    fn call(
        &mut self,
        svc: &mut Self::State,
        k: usize,
        judge: &mut Judge,
        spans: Option<&mut Spans>,
        id: u64,
    ) -> Call {
        let m = &self.pool[k % WARM_POOL];
        let rhs: Vec<Vec<f32>> = (0..WARM_RHS).map(|_| gen::rhs(&mut self.rng, WARM_N)).collect();
        let t0 = Instant::now();
        let span = spans.map(|s| (s.open("solve_many_rhs", None, id), s));
        let answers = svc.solve_many_rhs(&m.a, &m.b, &m.c, &rhs);
        if let Some((span, s)) = span {
            s.close(span);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        match answers {
            Ok(answers) => {
                for (d, r) in rhs.iter().zip(answers) {
                    judge.answer((&m.a, &m.b, &m.c, d), &r.x, &r.engine);
                }
            }
            Err(_) => (0..WARM_RHS).for_each(|_| judge.rejected()),
        }
        Call { ns, systems: WARM_RHS as u64, modeled_ms: 0.0 }
    }

    fn service<'a>(&self, svc: &'a Self::State) -> Option<&'a SolverService<f32>> {
        Some(svc)
    }

    fn sample(&mut self) -> Vec<TridiagonalSystem<f32>> {
        let pool = self.pool.clone();
        pool.iter()
            .cycle()
            .take(64)
            .map(|m| {
                let d = gen::rhs(&mut self.rng, WARM_N);
                TridiagonalSystem::new(m.a.clone(), m.b.clone(), m.c.clone(), d)
                    .expect("pool systems are valid")
            })
            .collect()
    }

    fn plan_sizes(&self) -> Vec<usize> {
        vec![WARM_N]
    }
}

/// `trickle`: one fresh system per `submit_wait`.
pub struct Trickle {
    rng: Rng,
}

const TRICKLE_N: usize = 128;
const TRICKLE_WARMUP: usize = 8;

impl Trickle {
    pub fn new(seed: u64) -> Self {
        Trickle { rng: Rng::new(seed ^ 0x4) }
    }
}

impl Workload for Trickle {
    type State = SolverService<f32>;

    fn cycle(&self) -> usize {
        1
    }

    fn cycles_per_second(&self) -> usize {
        450
    }

    fn call_span(&self) -> &'static str {
        "submit_wait"
    }

    fn setup(&mut self, judge: &mut Judge, trace: Option<Arc<MemorySink>>) -> Self::State {
        let mut svc = start_service(trace);
        for k in 0..TRICKLE_WARMUP {
            self.call(&mut svc, k, judge, None, 0);
        }
        svc
    }

    fn call(
        &mut self,
        svc: &mut Self::State,
        _k: usize,
        judge: &mut Judge,
        spans: Option<&mut Spans>,
        id: u64,
    ) -> Call {
        let system = gen::dominant(&mut self.rng, TRICKLE_N);
        let to_send = system.clone();
        let t0 = Instant::now();
        let answer = match spans {
            None => svc.submit_wait(to_send).ok(),
            Some(s) => {
                // `submit_wait` split into its two public halves.
                let call = s.open("submit_wait", None, id);
                let span = s.open("submit", Some(call), id);
                let ticket = submit_with_retry(svc, to_send, &system);
                s.close(span);
                let span = s.open("wait", Some(call), id);
                let answer = ticket.map(Ticket::wait);
                s.close(span);
                s.close(call);
                answer
            }
        };
        let ns = t0.elapsed().as_nanos() as u64;
        match answer {
            Some(r) => judge.answer(parts(&system), &r.x, &r.engine),
            None => judge.rejected(),
        }
        Call { ns, systems: 1, modeled_ms: 0.0 }
    }

    fn service<'a>(&self, svc: &'a Self::State) -> Option<&'a SolverService<f32>> {
        Some(svc)
    }

    fn sample(&mut self) -> Vec<TridiagonalSystem<f32>> {
        (0..64).map(|_| gen::dominant(&mut self.rng, TRICKLE_N)).collect()
    }

    fn plan_sizes(&self) -> Vec<usize> {
        vec![TRICKLE_N]
    }
}
