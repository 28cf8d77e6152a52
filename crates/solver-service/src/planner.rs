//! Planner: autotune once per size class, cache the winning plan.
//!
//! The paper's headline result is that *which* solver wins depends on the
//! system size and the hardware (Figures 6–8: CR+PCR at 512, PCR at small
//! sizes, global-memory CR beyond shared capacity). A serving layer cannot
//! re-derive that choice per request, so the planner runs the tournament
//! **once** per `(n, element width, device)` key — every candidate from
//! [`GpuAlgorithm::paper_five`] that fits shared memory, the global-memory
//! fallback, and the CPU baseline — and caches the winner in a
//! [`PlanCache`]. Subsequent flushes of the same size class dispatch in
//! O(1) with a cache hit.
//!
//! Scoring follows the repo's figure methodology: GPU candidates are
//! scored by the simulator's cost model (`TimingReport::total_ms`, i.e.
//! kernel + PCIe transfer), the CPU baseline by measured wall-clock of the
//! sequential Thomas solve on the same probe batch. Non-power-of-two
//! sizes, which no GPU kernel accepts, route straight to the CPU.
//!
//! The cache's tournament is **pruned by the PCIe floor**: every GPU
//! score includes the probe's host↔device transfer, so when the CPU
//! baseline (timed first) beats that transfer alone, no GPU candidate can
//! win and none is interpreted. The winner and its score are exactly the
//! full tournament's; only the ranking behind the winner is left for
//! [`PlanCache::ranking_for_on`] to complete if it is ever asked.
//!
//! A cache built with [`PlanCache::proven_only`] admits only **proven**
//! kernels: every GPU candidate is looked up in its
//! [`VerifiedCatalog`] first, and one the catalog does not prove
//! race/OOB/barrier-safe for its whole size family is never interpreted
//! on the probe, never planned and never on the fallback ladder.

use gpu_sim::{Clock, DeviceConfig, Launcher};
use gpu_solvers::{solve_batch, GpuAlgorithm};
use kernel_verify::VerifiedCatalog;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tridiag_core::{Generator, Real, SystemBatch, Workload};

/// CPU execution engines the planner may pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuEngine {
    /// Sequential Thomas algorithm (the paper's "GE" baseline) with
    /// per-system GEP repair on verification failure.
    Thomas,
    /// Gaussian elimination with partial pivoting everywhere — chosen only
    /// as an explicit override, never by the tournament (it is strictly
    /// slower than Thomas on well-conditioned systems).
    Gep,
}

/// Where a batch is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One of the simulated GPU kernels.
    Gpu(GpuAlgorithm),
    /// A CPU baseline.
    Cpu(CpuEngine),
}

impl core::fmt::Display for Engine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Engine::Gpu(alg) => write!(f, "{alg}"),
            Engine::Cpu(CpuEngine::Thomas) => f.write_str("cpu-thomas"),
            Engine::Cpu(CpuEngine::Gep) => f.write_str("cpu-gep"),
        }
    }
}

/// The cached outcome of one autotune tournament.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// The winning engine.
    pub engine: Engine,
    /// The winner's score: milliseconds to serve the probe batch
    /// (simulated for GPU engines, wall-clock for CPU).
    pub predicted_ms: f64,
    /// How many systems the probe batch contained.
    pub probe_count: usize,
}

/// Cache key: system size, element width, device.
type PlanKey = (usize, usize, &'static str);

/// A tuned key: the winning plan and the tournament ranking behind it
/// (`None` while a PCIe-floor prune has left the GPU candidates unscored).
type Tuned = (Plan, Option<Vec<Engine>>);

/// Concurrent plan cache with hit/tune accounting.
///
/// Tuning is serialized per cache (a `Mutex` around the map): if two
/// workers miss on the same key simultaneously, the second waits and then
/// hits — each key is tuned at most once. Alongside the winning [`Plan`]
/// the cache keeps the full tournament **ranking** (every admissible
/// engine, best score first) so the dispatcher's retry loop can exclude a
/// faulting engine and fall to the next-best candidate without re-tuning.
/// A PCIe-floor prune (see the module docs) defers the ranking.
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, Tuned>>,
    /// When set, only engines this catalog proves enter a tournament.
    verified: Option<Arc<VerifiedCatalog>>,
    hits: AtomicU64,
    tunes: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// Creates an empty cache whose tournaments admit every candidate.
    pub fn new() -> Self {
        Self {
            plans: Mutex::new(HashMap::new()),
            verified: None,
            hits: AtomicU64::new(0),
            tunes: AtomicU64::new(0),
        }
    }

    /// Creates an empty cache whose tournaments admit only the GPU
    /// candidates `catalog` proves for `(alg, n, width)` — proved (and
    /// memoized) the first time a tournament asks. The CPU baseline
    /// always competes, so every size class still gets a plan.
    pub fn proven_only(catalog: Arc<VerifiedCatalog>) -> Self {
        Self { verified: Some(catalog), ..Self::new() }
    }

    /// Plans served from cache without re-tuning.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Autotune tournaments actually run.
    pub fn tunes(&self) -> u64 {
        self.tunes.load(Ordering::Relaxed)
    }

    /// Returns the plan for size `n` with element type `T`, running the
    /// tournament on first use of the key, timed on `clock` — a simulated
    /// clock scores the CPU baseline with the deterministic cost model
    /// instead of the wall, so replayed tournaments pick the same winner
    /// bit-for-bit. The tournament is pruned by the PCIe floor (see
    /// the module docs); the returned plan equals the full tournament's.
    pub fn plan_for_on<T: Real>(
        &self,
        launcher: &Launcher,
        n: usize,
        probe_count: usize,
        clock: &Clock,
    ) -> Plan {
        let key: PlanKey = (n, T::BYTES, launcher.device.name);
        let mut plans = self.plans.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((plan, _)) = plans.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *plan;
        }
        let (plan, ranking) =
            tournament::<T>(launcher, n, probe_count, clock, true, self.verified.as_deref());
        self.tunes.fetch_add(1, Ordering::Relaxed);
        plans.insert(key, (plan, ranking));
        plan
    }

    /// The full tournament ranking (best engine first) for size `n`,
    /// tuning on first use exactly like [`PlanCache::plan_for_on`]. The
    /// dispatcher walks this list when an engine keeps faulting. A pruned
    /// entry's ranking is completed here: its GPU candidates are scored
    /// once and ranked behind the cached CPU score, which still wins.
    pub fn ranking_for_on<T: Real>(
        &self,
        launcher: &Launcher,
        n: usize,
        probe_count: usize,
        clock: &Clock,
    ) -> Vec<Engine> {
        let key: PlanKey = (n, T::BYTES, launcher.device.name);
        let mut plans = self.plans.lock().unwrap_or_else(|p| p.into_inner());
        match plans.get_mut(&key) {
            Some((_, Some(ranking))) => ranking.clone(),
            Some((plan, pruned @ None)) => {
                let probe = gpu_probe::<T>(n, plan.probe_count);
                let scores = gpu_scores(launcher, n, &probe, self.verified.as_deref());
                let (_, ranking) = rank(scores, plan.predicted_ms, plan.probe_count);
                pruned.insert(ranking).clone()
            }
            None => {
                let (plan, ranking) = tournament::<T>(
                    launcher,
                    n,
                    probe_count,
                    clock,
                    false,
                    self.verified.as_deref(),
                );
                self.tunes.fetch_add(1, Ordering::Relaxed);
                let ranking = ranking.expect("an unpruned tournament ranks every candidate");
                plans.insert(key, (plan, Some(ranking.clone())));
                ranking
            }
        }
    }

    /// Read-only peek, never tunes.
    #[cfg(test)]
    fn peek<T: Real>(&self, launcher: &Launcher, n: usize) -> Option<Plan> {
        let key: PlanKey = (n, T::BYTES, launcher.device.name);
        self.plans.lock().unwrap_or_else(|p| p.into_inner()).get(&key).map(|(p, _)| *p)
    }
}

/// Runs the full candidate tournament for size `n`, unpruned and
/// unfiltered, and returns the winner with the **full ranking**.
///
/// Candidates:
/// * the paper's five GPU kernels that accept `n` and fit shared memory,
///   plus [`GpuAlgorithm::CrGlobalOnly`];
/// * the sequential CPU Thomas baseline.
///
/// Candidates that error on the probe (e.g. shared-memory overflow the
/// admission rule missed) or return non-finite solutions (RD overflow on
/// dominant systems, Figure 18) are disqualified rather than crowned. The
/// ranking holds every survivor, sorted by score ascending; the CPU
/// baseline is always present, so it is never empty and always ends in
/// an engine that cannot device-fault — the dispatcher's retry ladder
/// terminates.
///
/// The CPU baseline is timed on `clock`: wall-clock on a real clock
/// (production behaviour), the deterministic per-row cost model on a
/// simulated one — a replayed tournament must score every candidate
/// identically to the captured run, and the wall never repeats. GPU
/// candidates are scored by the simulator's cost model either way, which
/// is already deterministic.
pub fn autotune_ranked_on<T: Real>(
    launcher: &Launcher,
    n: usize,
    probe_count: usize,
    clock: &Clock,
) -> (Plan, Vec<Engine>) {
    let (plan, ranking) = tournament::<T>(launcher, n, probe_count, clock, false, None);
    (plan, ranking.expect("an unpruned tournament ranks every candidate"))
}

/// The tournament behind [`autotune_ranked_on`] and the [`PlanCache`].
/// The CPU baseline is timed first; with `prune` set and that time
/// strictly below the probe's PCIe transfer — a floor under every GPU
/// score — the GPU candidates are not run and the ranking is `None`. The
/// plan is then exactly what the full tournament would return. With
/// `verified` set, only the GPU candidates it proves compete.
fn tournament<T: Real>(
    launcher: &Launcher,
    n: usize,
    probe_count: usize,
    clock: &Clock,
    prune: bool,
    verified: Option<&VerifiedCatalog>,
) -> (Plan, Option<Vec<Engine>>) {
    let probe_count = probe_count.max(1);
    if n < 2 || !n.is_power_of_two() {
        // No GPU kernel accepts this size; measure the CPU so the score is
        // still meaningful.
        let probe = cpu_probe::<T>(n, probe_count);
        let ms = probe.as_ref().map(|b| time_cpu_thomas(b, clock)).unwrap_or(f64::INFINITY);
        let plan = Plan { engine: Engine::Cpu(CpuEngine::Thomas), predicted_ms: ms, probe_count };
        return (plan, Some(vec![plan.engine]));
    }

    let probe = gpu_probe::<T>(n, probe_count);
    let cpu_ms = time_cpu_thomas(&probe, clock);
    if prune && cpu_ms < pcie_floor_ms(launcher, &probe) {
        let plan =
            Plan { engine: Engine::Cpu(CpuEngine::Thomas), predicted_ms: cpu_ms, probe_count };
        return (plan, None);
    }
    let (plan, ranking) = rank(gpu_scores(launcher, n, &probe, verified), cpu_ms, probe_count);
    (plan, Some(ranking))
}

/// The probe's PCIe transfer in milliseconds, computed exactly as
/// `TimingReport::with_transfer` does — a lower bound on every GPU
/// candidate's `total_ms`, which adds kernel time to it.
fn pcie_floor_ms<T: Real>(launcher: &Launcher, probe: &SystemBatch<T>) -> f64 {
    launcher.cost.pcie_seconds(probe.transfer_bytes() as u64) * 1e3
}

/// The tournament's probe batch for a power-of-two `n`.
fn gpu_probe<T: Real>(n: usize, probe_count: usize) -> SystemBatch<T> {
    Generator::new(0x5EED_CAFE)
        .batch(Workload::DiagonallyDominant, n, probe_count)
        .expect("probe batch generation cannot fail for n >= 2")
}

/// The GPU kernels a tournament for a power-of-two `n` at width `T` may
/// run on `device`: the paper's five (with §5.3 switch points), each
/// admitted only when it accepts `n` and [`GpuAlgorithm::fits_shared`]
/// says its footprint fits, plus [`GpuAlgorithm::CrGlobalOnly`] — always
/// admitted (the paper's oversized-system fallback).
fn candidates<T: Real>(device: &DeviceConfig, n: usize) -> Vec<GpuAlgorithm> {
    let mut candidates: Vec<GpuAlgorithm> = GpuAlgorithm::paper_five(n)
        .into_iter()
        .filter(|alg| alg.validate(n).is_ok())
        .filter(|alg| alg.fits_shared(n, T::BYTES, device))
        .collect();
    candidates.push(GpuAlgorithm::CrGlobalOnly);
    candidates
}

/// Scores the [`candidates`] — only those `verified` proves, when set —
/// on `probe` by simulated `total_ms`, leaving out any that error or
/// overflow.
fn gpu_scores<T: Real>(
    launcher: &Launcher,
    n: usize,
    probe: &SystemBatch<T>,
    verified: Option<&VerifiedCatalog>,
) -> Vec<(Engine, f64)> {
    let device = &launcher.device;
    let mut scored: Vec<(Engine, f64)> = Vec::new();
    for alg in candidates::<T>(device, n) {
        if verified.is_some_and(|catalog| !catalog.is_proven::<T>(device, alg, n)) {
            continue; // unproven for its family — never interpreted
        }
        let Ok(report) = solve_batch(launcher, alg, probe) else { continue };
        if report.solutions.first_non_finite().is_some() {
            continue; // overflowed on the probe — unfit to serve
        }
        scored.push((Engine::Gpu(alg), report.timing.total_ms()));
    }
    scored
}

/// Ranks the GPU scores and the CPU baseline, best first. The sort is
/// stable and the CPU goes last, so a GPU candidate wins a tie.
fn rank(mut scored: Vec<(Engine, f64)>, cpu_ms: f64, probe_count: usize) -> (Plan, Vec<Engine>) {
    scored.push((Engine::Cpu(CpuEngine::Thomas), cpu_ms));
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(core::cmp::Ordering::Equal));
    let (engine, predicted_ms) = scored[0];
    let ranking = scored.into_iter().map(|(e, _)| e).collect();
    (Plan { engine, predicted_ms, probe_count }, ranking)
}

fn cpu_probe<T: Real>(n: usize, count: usize) -> Option<SystemBatch<T>> {
    if n < 1 {
        return None;
    }
    SystemBatch::generate(count, |i| {
        Generator::new(0x5EED_CAFE ^ i as u64).system(Workload::DiagonallyDominant, n)
    })
    .ok()
}

/// Milliseconds for one sequential Thomas pass over `batch`: wall-clock
/// (median of three runs, to shrug off scheduler noise) on a real clock,
/// or the deterministic per-row model — matching the dispatcher's
/// simulated CPU engine time — on a simulated one.
fn time_cpu_thomas<T: Real>(batch: &SystemBatch<T>, clock: &Clock) -> f64 {
    if clock.is_sim() {
        return crate::dispatch::sim_cpu_ns(CpuEngine::Thomas, batch.n(), batch.count()) as f64
            / 1e6;
    }
    let mut samples = [0.0f64; 3];
    for s in samples.iter_mut() {
        let start = Instant::now();
        let out = cpu_solvers::solve_batch_seq(&cpu_solvers::Thomas, batch);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        *s = if out.is_ok() { elapsed } else { f64::INFINITY };
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full tournament's winner on the real clock.
    fn autotune<T: Real>(launcher: &Launcher, n: usize, probe_count: usize) -> Plan {
        autotune_ranked_on::<T>(launcher, n, probe_count, &Clock::real()).0
    }

    #[test]
    fn engine_display_is_canonical() {
        assert_eq!(Engine::Gpu(GpuAlgorithm::CrPcr { m: 256 }).to_string(), "cr+pcr@256");
        assert_eq!(Engine::Cpu(CpuEngine::Thomas).to_string(), "cpu-thomas");
        assert_eq!(Engine::Cpu(CpuEngine::Gep).to_string(), "cpu-gep");
    }

    #[test]
    fn oversized_systems_avoid_shared_memory_kernels() {
        // f32, n = 4096: 5*4096*4 = 80 KiB ≫ 16 KiB shared — only the
        // global-memory path (or the CPU) may win.
        let launcher = Launcher::gtx280();
        let plan = autotune::<f32>(&launcher, 4096, 4);
        match plan.engine {
            Engine::Gpu(alg) => assert_eq!(alg, GpuAlgorithm::CrGlobalOnly),
            Engine::Cpu(_) => {}
        }
    }

    #[test]
    fn non_pow2_routes_to_cpu() {
        let launcher = Launcher::gtx280();
        let plan = autotune::<f32>(&launcher, 100, 4);
        assert_eq!(plan.engine, Engine::Cpu(CpuEngine::Thomas));
    }

    #[test]
    fn cache_tunes_once_then_hits() {
        let launcher = Launcher::gtx280();
        let cache = PlanCache::new();
        assert!(cache.peek::<f32>(&launcher, 128).is_none());
        let first = cache.plan_for_on::<f32>(&launcher, 128, 4, &Clock::real());
        assert_eq!(cache.tunes(), 1);
        assert_eq!(cache.hits(), 0);
        let second = cache.plan_for_on::<f32>(&launcher, 128, 4, &Clock::real());
        assert_eq!(cache.tunes(), 1, "second lookup must not re-tune");
        assert_eq!(cache.hits(), 1);
        assert_eq!(first, second);
        assert_eq!(cache.peek::<f32>(&launcher, 128), Some(first));
    }

    #[test]
    fn cache_keys_on_element_width() {
        // f64 doubles the shared footprint, so f32 and f64 plans are
        // separate cache entries.
        let launcher = Launcher::gtx280();
        let cache = PlanCache::new();
        cache.plan_for_on::<f32>(&launcher, 256, 4, &Clock::real());
        cache.plan_for_on::<f64>(&launcher, 256, 4, &Clock::real());
        assert_eq!(cache.tunes(), 2);
    }

    #[test]
    fn winner_fits_the_device_and_has_a_finite_score() {
        // Whatever wins the tournament (the CPU/GPU cut depends on host
        // wall-clock, which this test must not assume), the plan is always
        // executable: a GPU winner fits the device, the score is finite.
        let launcher = Launcher::gtx280();
        for n in [64usize, 512, 4096] {
            let plan = autotune::<f32>(&launcher, n, 8);
            assert!(plan.predicted_ms.is_finite(), "n={n}");
            if let Engine::Gpu(alg) = plan.engine {
                assert!(alg.fits_shared(n, 4, &launcher.device), "n={n} {alg}");
            }
        }
    }

    #[test]
    fn ranking_is_sorted_always_contains_cpu_and_shares_the_tune() {
        let launcher = Launcher::gtx280();
        let cache = PlanCache::new();
        let ranking = cache.ranking_for_on::<f32>(&launcher, 256, 4, &Clock::real());
        assert_eq!(cache.tunes(), 1);
        assert!(!ranking.is_empty());
        // The winner heads the list and matches the cached plan.
        let plan = cache.plan_for_on::<f32>(&launcher, 256, 4, &Clock::real());
        assert_eq!(cache.tunes(), 1, "ranking and plan share one tournament");
        assert_eq!(ranking[0], plan.engine);
        // The ladder always terminates in an engine that cannot fault.
        assert!(
            ranking.contains(&Engine::Cpu(CpuEngine::Thomas)),
            "CPU baseline must always be ranked: {ranking:?}"
        );
        // Several GPU candidates fit at n = 256, so retries have somewhere
        // to go before the CPU.
        assert!(ranking.iter().filter(|e| matches!(e, Engine::Gpu(_))).count() >= 2, "{ranking:?}");
    }

    /// Whether `cache` holds a pruned (GPU-unscored) entry for `n`.
    fn is_pruned<T: Real>(cache: &PlanCache, launcher: &Launcher, n: usize) -> bool {
        let key: PlanKey = (n, T::BYTES, launcher.device.name);
        matches!(cache.plans.lock().unwrap().get(&key), Some((_, None)))
    }

    /// Every power-of-two `n` in `2..=4096` on the sim clock: the cache's
    /// pruned tournament crowns the full tournament's engine with a
    /// bit-identical score. Returns the sizes the prune fired at.
    fn pruned_plans_match_the_full_tournament<T: Real>() -> Vec<usize> {
        let launcher = Launcher::gtx280();
        let clock = Clock::sim();
        let cache = PlanCache::new();
        let mut pruned = Vec::new();
        for n in (1..=12).map(|k| 1usize << k) {
            let plan = cache.plan_for_on::<T>(&launcher, n, 16, &clock);
            let (full, _) = autotune_ranked_on::<T>(&launcher, n, 16, &clock);
            assert_eq!(plan.engine, full.engine, "n={n}");
            assert_eq!(plan.predicted_ms.to_bits(), full.predicted_ms.to_bits(), "n={n}");
            if is_pruned::<T>(&cache, &launcher, n) {
                assert_eq!(plan.engine, Engine::Cpu(CpuEngine::Thomas), "n={n}");
                pruned.push(n);
            }
        }
        pruned
    }

    #[test]
    fn pcie_floor_prune_keeps_the_winner_f32() {
        let pruned = pruned_plans_match_the_full_tournament::<f32>();
        // 25 ns/row against a 15 µs + 16·5n·4 B / 1.1 GB/s floor: the CPU
        // beats the transfer alone up to n = 128, not from n = 256 on.
        assert!(pruned.contains(&64) && pruned.contains(&128), "{pruned:?}");
        assert!(pruned.iter().all(|&n| n < 256), "{pruned:?}");
    }

    #[test]
    fn pcie_floor_prune_keeps_the_winner_f64() {
        // f64 doubles the transfer to 16·5n·8 B: about 0.58 µs per row
        // against the CPU's 0.4, so the prune fires at every size.
        let all: Vec<usize> = (1..=12).map(|k| 1usize << k).collect();
        assert_eq!(pruned_plans_match_the_full_tournament::<f64>(), all);
    }

    #[test]
    fn ranking_after_a_pruned_plan_is_the_full_ranking() {
        let launcher = Launcher::gtx280();
        let clock = Clock::sim();
        let cache = PlanCache::new();
        let plan = cache.plan_for_on::<f32>(&launcher, 64, 16, &clock);
        assert!(is_pruned::<f32>(&cache, &launcher, 64));
        let ranking = cache.ranking_for_on::<f32>(&launcher, 64, 16, &clock);
        let (full_plan, full_ranking) = autotune_ranked_on::<f32>(&launcher, 64, 16, &clock);
        assert_eq!(ranking, full_ranking);
        assert_eq!(ranking[0], plan.engine);
        assert!(ranking.len() > 2, "the GPU candidates were scored: {ranking:?}");
        assert_eq!(cache.peek::<f32>(&launcher, 64), Some(full_plan));
        assert_eq!(cache.tunes(), 1, "completing the ranking is not a second tune");
        assert!(!is_pruned::<f32>(&cache, &launcher, 64));
    }

    #[test]
    fn non_pow2_ranking_is_cpu_only() {
        let launcher = Launcher::gtx280();
        let (plan, ranking) = autotune_ranked_on::<f32>(&launcher, 100, 4, &Clock::real());
        assert_eq!(plan.engine, Engine::Cpu(CpuEngine::Thomas));
        assert_eq!(ranking, vec![Engine::Cpu(CpuEngine::Thomas)]);
    }

    /// Every GPU kernel a tournament can run at `T`, n = 4..=4096, on a
    /// fresh catalog: `(alg, n)` pairs not `Proven`. Without this contract
    /// a catalog-free service could plan a kernel no proof covers.
    fn unproven_candidates<T: Real>() -> (usize, Vec<(GpuAlgorithm, usize)>) {
        let device = DeviceConfig::gtx280();
        let catalog = VerifiedCatalog::new();
        let mut checked = 0;
        let mut unproven = Vec::new();
        for n in (2..=12).map(|k| 1usize << k) {
            for alg in candidates::<T>(&device, n) {
                checked += 1;
                if !catalog.is_proven::<T>(&device, alg, n) {
                    unproven.push((alg, n));
                }
            }
        }
        (checked, unproven)
    }

    #[test]
    fn every_tournament_candidate_is_proven() {
        let (f32_checked, f32_unproven) = unproven_candidates::<f32>();
        let (f64_checked, f64_unproven) = unproven_candidates::<f64>();
        assert!(f32_unproven.is_empty(), "f32: {f32_unproven:?}");
        assert!(f64_unproven.is_empty(), "f64: {f64_unproven:?}");
        assert_eq!(f32_checked + f64_checked, 97, "the whole candidate set was checked");
    }

    #[test]
    fn a_catalog_keeps_unproven_kernels_off_the_ranking() {
        // Proof families start at n = 4: at n = 2 no GPU candidate is
        // proven, so a proven-only cache ranks the CPU alone.
        let launcher = Launcher::gtx280();
        let clock = Clock::sim();
        let proven = PlanCache::proven_only(Arc::new(VerifiedCatalog::new()));
        let ranking = proven.ranking_for_on::<f32>(&launcher, 2, 16, &clock);
        assert_eq!(ranking, vec![Engine::Cpu(CpuEngine::Thomas)]);
        let open = PlanCache::new().ranking_for_on::<f32>(&launcher, 2, 16, &clock);
        assert!(open.iter().any(|e| matches!(e, Engine::Gpu(_))), "{open:?}");
    }

    #[test]
    fn a_catalog_leaves_the_plans_of_proven_sizes_unchanged() {
        let launcher = Launcher::gtx280();
        let clock = Clock::sim();
        let proven = PlanCache::proven_only(Arc::new(VerifiedCatalog::new()));
        let open = PlanCache::new();
        for n in [64usize, 512] {
            assert_eq!(
                proven.plan_for_on::<f32>(&launcher, n, 16, &clock),
                open.plan_for_on::<f32>(&launcher, n, 16, &clock),
                "n={n}"
            );
        }
    }

    #[test]
    fn among_gpu_candidates_shared_kernels_beat_global_only_at_512() {
        // Deterministic simulator-only check of the paper's ~3x claim:
        // the tournament would never pick CrGlobalOnly while a shared
        // kernel fits, because its simulated time is strictly worse.
        let launcher = Launcher::gtx280();
        let probe: SystemBatch<f32> =
            Generator::new(0x5EED_CAFE).batch(Workload::DiagonallyDominant, 512, 8).unwrap();
        let shared = solve_batch(&launcher, GpuAlgorithm::CrPcr { m: 256 }, &probe).unwrap();
        let global = solve_batch(&launcher, GpuAlgorithm::CrGlobalOnly, &probe).unwrap();
        assert!(
            shared.timing.total_ms() < global.timing.total_ms(),
            "{} vs {}",
            shared.timing.total_ms(),
            global.timing.total_ms()
        );
    }
}
