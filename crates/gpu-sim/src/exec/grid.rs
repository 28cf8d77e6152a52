//! Grid-level launches: run every block, instrument one.
//!
//! The solvers map "systems to blocks and equations to threads" (§4) and
//! every block executes identical control flow on different data. The
//! launcher therefore runs **all** blocks for numerical fidelity but records
//! detailed counters only for block 0, then scales per-block counters by the
//! grid dimension inside the timing model.

use crate::cost::CostModel;
use crate::counters::KernelStats;
use crate::device::DeviceConfig;
use crate::exec::block::BlockCtx;
use crate::fault::{corrupt_draw, FailKind, FaultPlan, InjectedFault, LaunchDecision};
use crate::memory::global::GlobalMem;
use crate::profile::{time_launch_with_efficiency, TimingReport};
use crate::sanitize::{merge_diagnostics, Diagnostic, SanitizeMode, SanitizeOptions, Severity};
use std::sync::Arc;
use tridiag_core::{Real, Result, TridiagError};

/// A kernel launched over a 1-D grid of identical blocks.
pub trait GridKernel<T: Real> {
    /// Threads per block.
    fn block_dim(&self) -> usize;
    /// Declared shared-memory footprint in 32-bit words (checked against
    /// the actual allocations of the instrumented block).
    fn shared_words(&self) -> usize;
    /// Fraction of peak global-memory bandwidth this kernel's access
    /// pattern achieves (1.0 = fully coalesced; strided global-only
    /// kernels waste most of each 32-byte segment).
    fn global_efficiency(&self) -> f64 {
        1.0
    }
    /// Body of one block.
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_, T>);
}

/// References forward the kernel interface, so type-erased kernels
/// (`&dyn GridKernel<T>`, e.g. from the static verifier's instantiation
/// glue) can be launched and shadow-captured without knowing the concrete
/// type.
impl<T: Real, K: GridKernel<T> + ?Sized> GridKernel<T> for &K {
    fn block_dim(&self) -> usize {
        (**self).block_dim()
    }
    fn shared_words(&self) -> usize {
        (**self).shared_words()
    }
    fn global_efficiency(&self) -> f64 {
        (**self).global_efficiency()
    }
    fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_, T>) {
        (**self).run_block(block_id, ctx)
    }
}

/// Result of a launch: per-block counters plus grid-level simulated timing.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Counters of the representative block (all blocks are identical in
    /// structure).
    pub stats: KernelStats,
    /// Simulated grid timing.
    pub timing: TimingReport,
    /// Sanitizer findings across **all** blocks, merged by (kind, source
    /// site, array). Empty when the launcher's sanitize mode is `Off`.
    pub diagnostics: Vec<Diagnostic>,
    /// Faults the fault plan actually applied to this launch (corruptions
    /// and stalls; failures surface as launch errors). Always empty when
    /// no plan is installed.
    pub injected_faults: Vec<InjectedFault>,
}

impl LaunchReport {
    /// `Error`-severity diagnostics (correctness hazards).
    pub fn sanitizer_errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error)
    }
}

/// Executes kernels against a device and cost model.
#[derive(Debug, Clone, Default)]
pub struct Launcher {
    /// Architectural parameters.
    pub device: DeviceConfig,
    /// Cycle-cost constants.
    pub cost: CostModel,
    /// Sanitizer configuration (default: `Off`, no checks).
    pub sanitize: SanitizeOptions,
    /// Fault-injection plan (default: `None`, a perfect device). Shared via
    /// `Arc` so launcher clones draw launch indices from one counter.
    pub fault: Option<Arc<FaultPlan>>,
}

impl Launcher {
    /// Launcher for the paper's GTX 280.
    pub fn gtx280() -> Self {
        Self {
            device: DeviceConfig::gtx280(),
            cost: CostModel::gtx280(),
            sanitize: SanitizeOptions::default(),
            fault: None,
        }
    }

    /// Returns this launcher with the given sanitizer options.
    pub fn with_sanitize(mut self, opts: SanitizeOptions) -> Self {
        self.sanitize = opts;
        self
    }

    /// Returns this launcher with the given sanitize mode (other options at
    /// defaults).
    pub fn with_sanitize_mode(mut self, mode: SanitizeMode) -> Self {
        self.sanitize.mode = mode;
        self
    }

    /// Returns this launcher with the given fault plan installed.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Runs `kernel` over `grid_dim` blocks against `global` memory.
    ///
    /// # Errors
    /// Fails when the block shape violates device limits (too many threads,
    /// shared memory exceeding the per-SM capacity) or `grid_dim == 0`.
    pub fn launch<T: Real, K: GridKernel<T>>(
        &self,
        kernel: &K,
        grid_dim: usize,
        global: &mut GlobalMem<T>,
    ) -> Result<LaunchReport> {
        if grid_dim == 0 {
            return Err(TridiagError::InvalidConfig { what: "grid dimension must be >= 1" });
        }
        let block_dim = kernel.block_dim();
        if block_dim == 0 || block_dim > self.device.max_threads_per_block {
            return Err(TridiagError::InvalidConfig { what: "block dimension out of range" });
        }
        let declared_bytes = kernel.shared_words() * 4;
        if declared_bytes > self.device.shared_mem_per_sm {
            return Err(TridiagError::SharedMemExceeded {
                required_bytes: declared_bytes,
                available_bytes: self.device.shared_mem_per_sm,
            });
        }

        // Adjudicate the launch against the fault plan (if any) *after*
        // configuration validation: a malformed launch is a caller bug, not
        // device adversity. A failed launch still consumes a launch index.
        let fault: Option<(&FaultPlan, u64, LaunchDecision)> = match &self.fault {
            Some(plan) => {
                let (launch, decision) = plan.begin_launch();
                match decision.fail {
                    Some(FailKind::Transient) => {
                        return Err(TridiagError::DeviceFault { launch });
                    }
                    Some(FailKind::Lost) => return Err(TridiagError::DeviceLost),
                    None => {}
                }
                // Track which arrays this kernel writes so corruption only
                // targets launch outputs.
                global.clear_dirty();
                Some((plan.as_ref(), launch, decision))
            }
            None => None,
        };

        let sanitizing = self.sanitize.mode.is_on();

        // Block 0: fully instrumented (and sanitized when enabled).
        let (stats, mut diagnostics) = {
            let mut ctx =
                BlockCtx::sanitized(&self.device, global, block_dim, true, self.sanitize, 0);
            kernel.run_block(0, &mut ctx);
            ctx.finish_with_diagnostics()
        };
        assert_eq!(
            stats.shared_words,
            kernel.shared_words(),
            "kernel declared a shared footprint of {} words but allocated {}",
            kernel.shared_words(),
            stats.shared_words
        );

        // Remaining blocks: numerics only — plus sanitation when enabled
        // (the sanitizer checks *all* blocks, not just the recorded one).
        for block_id in 1..grid_dim {
            let mut ctx = BlockCtx::sanitized(
                &self.device,
                global,
                block_dim,
                false,
                self.sanitize,
                block_id,
            );
            kernel.run_block(block_id, &mut ctx);
            if sanitizing {
                let (_, d) = ctx.finish_with_diagnostics();
                merge_diagnostics(&mut diagnostics, d);
            }
        }

        if self.sanitize.mode == SanitizeMode::Enforce {
            let errors: Vec<&Diagnostic> =
                diagnostics.iter().filter(|d| d.severity == Severity::Error).collect();
            if !errors.is_empty() {
                let mut msg =
                    format!("sanitizer: {} error diagnostic(s) in enforce mode:\n", errors.len());
                for d in &errors {
                    msg.push_str(&format!(
                        "  [{}] {} at {} (x{})\n",
                        d.kind.name(),
                        d.message,
                        d.site(),
                        d.occurrences
                    ));
                }
                panic!("{msg}");
            }
        }

        let mut timing = time_launch_with_efficiency(
            &self.device,
            &self.cost,
            &stats,
            grid_dim,
            kernel.global_efficiency(),
        )?;

        // Post-kernel adversity: corrupt launch outputs (simulated ECC
        // misses) and/or stretch the launch's simulated time (straggler).
        let mut injected_faults = Vec::new();
        if let Some((plan, launch, decision)) = fault {
            if decision.bit_flips > 0 || decision.nan_poisons > 0 {
                let dirty = global.dirty_arrays();
                if !dirty.is_empty() {
                    let seed = plan.config().seed;
                    let mut event = 0u64;
                    for _ in 0..decision.bit_flips {
                        let (array, index) = pick_element(global, &dirty, seed, launch, event);
                        event += 1;
                        let v = global.read_raw(array, index).to_f64();
                        // Flip the top exponent bit: the value changes by
                        // many orders of magnitude (or to NaN/Inf), so the
                        // residual check downstream is guaranteed to see it.
                        let flipped = f64::from_bits(v.to_bits() ^ (1u64 << 62));
                        global.write_raw(array, index, T::from_f64(flipped));
                        injected_faults.push(InjectedFault::BitFlip { array, index });
                    }
                    for _ in 0..decision.nan_poisons {
                        let (array, index) = pick_element(global, &dirty, seed, launch, event);
                        event += 1;
                        global.write_raw(array, index, T::from_f64(f64::NAN));
                        injected_faults.push(InjectedFault::NanPoison { array, index });
                    }
                }
            }
            if let Some(multiplier) = decision.stall {
                timing = timing.scaled(multiplier);
                injected_faults.push(InjectedFault::Stall { multiplier });
            }
            plan.record_applied(&injected_faults);
        }

        Ok(LaunchReport { stats, timing, diagnostics, injected_faults })
    }
}

/// Picks a (dirty array, element) pair for corruption event `event` of
/// launch `launch` — deterministic in (seed, launch, event).
fn pick_element<T: Real>(
    global: &GlobalMem<T>,
    dirty: &[u32],
    seed: u64,
    launch: u64,
    event: u64,
) -> (u32, usize) {
    let r = corrupt_draw(seed, launch, event);
    let array = dirty[(r % dirty.len() as u64) as usize];
    let len = global.len_raw(array);
    let index = ((r >> 20) % len.max(1) as u64) as usize;
    (array, index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Phase;
    use crate::memory::global::GlobalArray;

    /// Doubles each element of its block's slice.
    struct DoubleKernel {
        n: usize,
        input: GlobalArray<f32>,
        output: GlobalArray<f32>,
    }

    impl GridKernel<f32> for DoubleKernel {
        fn block_dim(&self) -> usize {
            self.n
        }
        fn shared_words(&self) -> usize {
            self.n
        }
        fn run_block(&self, block_id: usize, ctx: &mut BlockCtx<'_, f32>) {
            let buf = ctx.alloc(self.n);
            let base = block_id * self.n;
            ctx.step(Phase::GlobalLoad, 0..self.n, |t| {
                let i = t.tid();
                let v = t.load_global(self.input, base + i);
                t.store(buf, i, v);
            });
            ctx.step(Phase::Other("double"), 0..self.n, |t| {
                let i = t.tid();
                let v = t.load(buf, i);
                let v = t.mul(v, 2.0);
                t.store(buf, i, v);
            });
            ctx.step(Phase::GlobalStore, 0..self.n, |t| {
                let i = t.tid();
                let v = t.load(buf, i);
                t.store_global(self.output, base + i, v);
            });
        }
    }

    #[test]
    fn launch_runs_all_blocks() {
        let mut g = GlobalMem::new();
        let input = g.upload((0..64).map(|i| i as f32).collect());
        let output = g.alloc_zeroed(64);
        let kernel = DoubleKernel { n: 16, input, output };
        let report = Launcher::gtx280().launch(&kernel, 4, &mut g).unwrap();
        let got = g.download(output);
        let want: Vec<f32> = (0..64).map(|i| 2.0 * i as f32).collect();
        assert_eq!(got, want);
        assert_eq!(report.stats.steps.len(), 3);
        assert!(report.timing.kernel_ms > 0.0);
        assert_eq!(report.timing.blocks, 4);
    }

    #[test]
    fn launch_rejects_zero_grid() {
        let mut g = GlobalMem::new();
        let input = g.upload(vec![0.0; 16]);
        let output = g.alloc_zeroed(16);
        let kernel = DoubleKernel { n: 16, input, output };
        assert!(Launcher::gtx280().launch(&kernel, 0, &mut g).is_err());
    }

    #[test]
    fn launch_rejects_oversized_block() {
        let mut g = GlobalMem::new();
        let input = g.upload(vec![0.0; 1024]);
        let output = g.alloc_zeroed(1024);
        let kernel = DoubleKernel { n: 1024, input, output };
        let err = Launcher::gtx280().launch(&kernel, 1, &mut g).unwrap_err();
        assert!(matches!(err, TridiagError::InvalidConfig { .. }));
    }

    #[test]
    fn global_traffic_matches_expectation() {
        let mut g = GlobalMem::new();
        let input = g.upload(vec![1.0; 32]);
        let output = g.alloc_zeroed(32);
        let kernel = DoubleKernel { n: 32, input, output };
        let report = Launcher::gtx280().launch(&kernel, 1, &mut g).unwrap();
        assert_eq!(report.stats.global_bytes_read, 32 * 4);
        assert_eq!(report.stats.global_bytes_written, 32 * 4);
    }

    use crate::fault::{FaultConfig, FaultPlan};
    use std::sync::Arc;

    fn run_double(launcher: &Launcher) -> (Result<LaunchReport>, Vec<f32>) {
        let mut g = GlobalMem::new();
        let input = g.upload((0..64).map(|i| i as f32).collect());
        let output = g.alloc_zeroed(64);
        let kernel = DoubleKernel { n: 16, input, output };
        let report = launcher.launch(&kernel, 4, &mut g);
        (report, g.download(output))
    }

    #[test]
    fn quiet_fault_plan_is_counter_neutral() {
        let baseline = Launcher::gtx280();
        let quiet =
            Launcher::gtx280().with_fault_plan(Arc::new(FaultPlan::new(FaultConfig::quiet(99))));
        let (a, xa) = run_double(&baseline);
        let (b, xb) = run_double(&quiet);
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(xa, xb);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.timing, b.timing);
        assert!(b.injected_faults.is_empty());
    }

    #[test]
    fn burst_launches_fail_then_recover() {
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            seed: 5,
            launch_fault_burst: 2,
            ..Default::default()
        }));
        let launcher = Launcher::gtx280().with_fault_plan(Arc::clone(&plan));
        assert!(matches!(run_double(&launcher).0, Err(TridiagError::DeviceFault { launch: 0 })));
        assert!(matches!(run_double(&launcher).0, Err(TridiagError::DeviceFault { launch: 1 })));
        let (ok, x) = run_double(&launcher);
        assert!(ok.is_ok());
        assert_eq!(x, (0..64).map(|i| 2.0 * i as f32).collect::<Vec<_>>());
        assert_eq!(plan.stats().launch_failures, 2);
        assert_eq!(plan.stats().launches, 3);
    }

    #[test]
    fn device_lost_is_sticky_across_launches() {
        let launcher = Launcher::gtx280().with_fault_plan(Arc::new(FaultPlan::new(FaultConfig {
            seed: 5,
            device_lost_after: Some(1),
            ..Default::default()
        })));
        assert!(run_double(&launcher).0.is_ok());
        for _ in 0..3 {
            assert!(matches!(run_double(&launcher).0, Err(TridiagError::DeviceLost)));
        }
    }

    #[test]
    fn bit_flip_corrupts_only_the_written_array() {
        let plan = Arc::new(FaultPlan::new(FaultConfig {
            seed: 11,
            bit_flip_rate: 1.0,
            ..Default::default()
        }));
        let launcher = Launcher::gtx280().with_fault_plan(Arc::clone(&plan));
        let mut g = GlobalMem::new();
        let input_data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let input = g.upload(input_data.clone());
        let output = g.alloc_zeroed(64);
        let kernel = DoubleKernel { n: 16, input, output };
        let report = launcher.launch(&kernel, 4, &mut g).unwrap();
        assert_eq!(report.injected_faults.len(), 1);
        let InjectedFault::BitFlip { array, index } = report.injected_faults[0] else {
            panic!("expected a bit flip, got {:?}", report.injected_faults[0]);
        };
        assert_eq!(array, output.index, "corruption must target the written array");
        // Input is untouched; exactly one output element deviates, wildly.
        assert_eq!(g.view(input), &input_data[..]);
        let x = g.download(output);
        for (i, (&got, want)) in x.iter().zip((0..64).map(|i| 2.0 * i as f32)).enumerate() {
            if i == index {
                assert!(
                    !got.is_finite() || (got - want).abs() > 1.0,
                    "flip at {i} too subtle: {got} vs {want}"
                );
            } else {
                assert_eq!(got, want, "element {i} should be untouched");
            }
        }
        assert_eq!(plan.stats().bit_flips, 1);
    }

    #[test]
    fn nan_poison_lands_in_output() {
        let launcher = Launcher::gtx280().with_fault_plan(Arc::new(FaultPlan::new(FaultConfig {
            seed: 2,
            nan_poison_rate: 1.0,
            ..Default::default()
        })));
        let (report, x) = run_double(&launcher);
        let report = report.unwrap();
        assert_eq!(report.injected_faults.len(), 1);
        assert!(matches!(report.injected_faults[0], InjectedFault::NanPoison { .. }));
        assert_eq!(x.iter().filter(|v| v.is_nan()).count(), 1);
    }

    #[test]
    fn stall_inflates_timing_but_not_numerics() {
        let clean = run_double(&Launcher::gtx280());
        let stalled = run_double(&Launcher::gtx280().with_fault_plan(Arc::new(FaultPlan::new(
            FaultConfig { seed: 2, stall_rate: 1.0, stall_multiplier: 4.0, ..Default::default() },
        ))));
        let (clean_rep, clean_x) = (clean.0.unwrap(), clean.1);
        let (stall_rep, stall_x) = (stalled.0.unwrap(), stalled.1);
        assert_eq!(clean_x, stall_x);
        assert_eq!(clean_rep.stats, stall_rep.stats);
        assert!(
            (stall_rep.timing.kernel_ms - 4.0 * clean_rep.timing.kernel_ms).abs() < 1e-12,
            "stall must stretch simulated time 4x"
        );
        assert!(
            matches!(stall_rep.injected_faults[0], InjectedFault::Stall { multiplier } if multiplier == 4.0)
        );
    }
}
