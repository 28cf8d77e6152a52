//! Robust solving: GPU speed with a pivoting safety net.
//!
//! The paper's solvers "do not include pivoting; therefore they might fail
//! for a general tridiagonal matrix", and its future work asks to
//! "incorporate a pivoting strategy to GPU-based tridiagonal solvers for
//! numerical stability". True in-kernel pivoting breaks the regular
//! communication pattern the algorithms rely on; what a production library
//! can do instead is **verify and repair**: solve the whole batch on the
//! GPU, check each system's residual, and re-solve only the failures with
//! the pivoted CPU solver (GEP). For workloads that are mostly
//! well-conditioned — the common case — this keeps GPU throughput while
//! guaranteeing GEP-quality answers everywhere.

use crate::solver::{solve_batch, GpuAlgorithm, GpuSolveReport};
use cpu_solvers::gep;
use gpu_sim::Launcher;
use tridiag_core::residual::l2_residual;
use tridiag_core::{Real, Result, SystemBatch};

/// Outcome of a robust batch solve.
#[derive(Debug, Clone)]
pub struct RobustSolveReport<T: Real> {
    /// The underlying GPU report; `solutions` has been repaired in place.
    pub gpu: GpuSolveReport<T>,
    /// Indices of systems re-solved on the CPU and why.
    pub repaired: Vec<Repair>,
    /// `‖Ax − d‖₂` of each delivered solution, as the verify measured it
    /// (after repair, for repaired systems). `None` where
    /// [`RobustOptions::skip_residual_verify`] accepted a finite solution
    /// unmeasured.
    pub residuals: Vec<Option<f64>>,
    /// Residual threshold used for acceptance.
    pub threshold: f64,
}

/// Why a system needed CPU repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairReason {
    /// The GPU solution contained NaN/Inf (e.g. RD overflow or a zero
    /// pivot hit by the pivoting-free reduction).
    NonFinite,
    /// The residual exceeded the acceptance threshold.
    LargeResidual,
}

/// One repaired system.
#[derive(Debug, Clone, Copy)]
pub struct Repair {
    /// System index within the batch.
    pub system: usize,
    /// What triggered the repair (the residual after the CPU re-solve is
    /// in [`RobustSolveReport::residuals`]).
    pub reason: RepairReason,
}

/// Options for [`solve_batch_robust`].
#[derive(Debug, Clone, Copy)]
pub struct RobustOptions {
    /// Accept a GPU solution when `||Ax - d||_2 <= threshold_scale *
    /// ||d||_2 * eps_of_T * n` (a normwise backward-error style bound).
    pub threshold_scale: f64,
    /// Skip the O(n) residual computation entirely and accept any finite
    /// solution. Only sound when a `NumericCertificate` guarantees
    /// pivot-free stability for every system in the batch; the NaN/Inf
    /// check is always retained (it is O(n) reads with no matrix access
    /// and catches exponent-corrupting faults instantly).
    pub skip_residual_verify: bool,
}

impl Default for RobustOptions {
    fn default() -> Self {
        Self { threshold_scale: 100.0, skip_residual_verify: false }
    }
}

impl RobustOptions {
    /// Condition-informed acceptance threshold: widens `base` by one
    /// decade per decade of 1-norm condition number above 1, so that
    /// sampled verifies of certified-but-worse-conditioned matrices are
    /// not spuriously flagged as corrupt. Monotone in `kappa1`; `base` is
    /// returned unchanged for `kappa1 <= 1` or non-finite estimates.
    pub fn scaled_by_condition(base: f64, kappa1: f64) -> Self {
        let scale = if kappa1.is_finite() && kappa1 > 1.0 {
            base * (1.0 + kappa1.log10().max(0.0))
        } else {
            base
        };
        Self { threshold_scale: scale, skip_residual_verify: false }
    }
}

/// Solves on the GPU, then verifies every system and repairs failures with
/// the pivoted CPU solver.
pub fn solve_batch_robust<T: Real>(
    launcher: &Launcher,
    algorithm: GpuAlgorithm,
    batch: &SystemBatch<T>,
    options: RobustOptions,
) -> Result<RobustSolveReport<T>> {
    let mut gpu = solve_batch(launcher, algorithm, batch)?;
    let n = batch.n();
    let eps = T::EPSILON.to_f64();
    let mut repaired = Vec::new();
    let mut residuals = Vec::with_capacity(batch.count());
    let mut threshold_used = 0.0f64;

    for s in 0..batch.count() {
        let sys = batch.system(s);
        let d_norm: f64 =
            sys.d.iter().map(|&v| v.to_f64() * v.to_f64()).sum::<f64>().sqrt().max(1e-30);
        let threshold = options.threshold_scale * d_norm * eps * n as f64;
        threshold_used = threshold; // same formula per system; keep last
        let x = gpu.solutions.system(s);
        let (reason, measured) = if x.iter().any(|v| !v.is_finite()) {
            (Some(RepairReason::NonFinite), None)
        } else if options.skip_residual_verify {
            (None, None)
        } else {
            let r = l2_residual(&sys, x)?;
            ((r > threshold).then_some(RepairReason::LargeResidual), Some(r))
        };
        match reason {
            Some(reason) => {
                let mut fixed = vec![T::ZERO; n];
                gep::solve_into(&sys.a, &sys.b, &sys.c, &sys.d, &mut fixed)?;
                residuals.push(Some(l2_residual(&sys, &fixed)?));
                gpu.solutions.system_mut(s).copy_from_slice(&fixed);
                repaired.push(Repair { system: s, reason });
            }
            None => residuals.push(measured),
        }
    }
    Ok(RobustSolveReport { gpu, repaired, residuals, threshold: threshold_used })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rd::RdMode;
    use tridiag_core::residual::batch_residual;
    use tridiag_core::{Generator, SystemBatch, TridiagonalSystem, Workload};

    #[test]
    fn clean_batches_need_no_repair() {
        let launcher = Launcher::gtx280();
        let batch: SystemBatch<f32> =
            Generator::new(1).batch(Workload::DiagonallyDominant, 128, 8).unwrap();
        let r = solve_batch_robust(
            &launcher,
            GpuAlgorithm::CrPcr { m: 32 },
            &batch,
            RobustOptions::default(),
        )
        .unwrap();
        assert!(r.repaired.is_empty(), "{:?}", r.repaired);
    }

    #[test]
    fn rd_overflow_is_repaired() {
        let launcher = Launcher::gtx280();
        let batch: SystemBatch<f32> =
            Generator::new(2).batch(Workload::DiagonallyDominant, 512, 8).unwrap();
        let r = solve_batch_robust(
            &launcher,
            GpuAlgorithm::Rd(RdMode::Plain),
            &batch,
            RobustOptions::default(),
        )
        .unwrap();
        assert!(!r.repaired.is_empty());
        assert!(r.repaired.iter().all(|rep| rep.reason == RepairReason::NonFinite));
        // After repair, everything is accurate.
        let res = batch_residual(&batch, &r.gpu.solutions).unwrap();
        assert!(!res.has_overflow());
        assert!(res.max_l2 < 1e-3, "{}", res.max_l2);
    }

    #[test]
    fn systems_needing_pivoting_are_repaired() {
        // Mix well-conditioned systems with one that has a zero leading
        // pivot (fatal for every pivoting-free reduction, fine for GEP).
        let launcher = Launcher::gtx280();
        let mut systems: Vec<TridiagonalSystem<f32>> = {
            let mut gen = Generator::new(3);
            (0..7).map(|_| gen.system(Workload::DiagonallyDominant, 64)).collect()
        };
        let mut bad = systems[3].clone();
        bad.b[0] = 0.0; // needs a row interchange
        systems[3] = bad;
        let batch = SystemBatch::from_systems(&systems).unwrap();

        let r = solve_batch_robust(&launcher, GpuAlgorithm::Cr, &batch, RobustOptions::default())
            .unwrap();
        assert_eq!(r.repaired.len(), 1);
        assert_eq!(r.repaired[0].system, 3);
        // The reported residuals are those of the delivered (repaired)
        // solutions, bit for bit.
        for s in 0..batch.count() {
            let delivered = l2_residual(&batch.system(s), r.gpu.solutions.system(s)).unwrap();
            assert_eq!(r.residuals[s].map(f64::to_bits), Some(delivered.to_bits()), "system {s}");
        }
        let res = batch_residual(&batch, &r.gpu.solutions).unwrap();
        assert!(!res.has_overflow());
        assert!(res.max_l2 < 1e-3, "{}", res.max_l2);
    }

    #[test]
    fn random_general_batches_end_up_accurate() {
        // The stress family: no stability promises on the GPU, but the
        // robust wrapper must always deliver GEP-quality answers.
        let launcher = Launcher::gtx280();
        let batch: SystemBatch<f32> =
            Generator::new(4).batch(Workload::RandomGeneral, 64, 16).unwrap();
        let r = solve_batch_robust(&launcher, GpuAlgorithm::Pcr, &batch, RobustOptions::default())
            .unwrap();
        let res = batch_residual(&batch, &r.gpu.solutions).unwrap();
        assert!(!res.has_overflow());
        assert!(res.max_l2 < 1e-2, "{}", res.max_l2);
    }

    #[test]
    fn injected_corruption_is_caught_and_repaired() {
        // An ECC-style bit flip in the downloaded solution must never
        // survive the robust wrapper: verify flags it, GEP repairs it.
        use gpu_sim::{FaultConfig, FaultPlan};
        use std::sync::Arc;
        for seed in 0..8u64 {
            let plan = Arc::new(FaultPlan::new(FaultConfig {
                seed,
                bit_flip_rate: 1.0,
                ..Default::default()
            }));
            let launcher = Launcher::gtx280().with_fault_plan(Arc::clone(&plan));
            let batch: SystemBatch<f64> =
                Generator::new(seed).batch(Workload::DiagonallyDominant, 128, 8).unwrap();
            let r = solve_batch_robust(
                &launcher,
                GpuAlgorithm::CrPcr { m: 32 },
                &batch,
                RobustOptions::default(),
            )
            .unwrap();
            assert_eq!(r.gpu.corruption_count(), 1, "seed {seed}");
            assert_eq!(plan.stats().bit_flips, 1, "seed {seed}");
            assert!(!r.repaired.is_empty(), "seed {seed}: flip not caught");
            let res = batch_residual(&batch, &r.gpu.solutions).unwrap();
            assert!(!res.has_overflow(), "seed {seed}");
            assert!(res.max_l2 <= r.threshold, "seed {seed}: {}", res.max_l2);
        }
    }

    #[test]
    fn skip_mode_still_catches_non_finite_solutions() {
        // Residual verify off: RD's overflow (NaN/Inf) must still be
        // repaired — the finiteness guard never turns off.
        let launcher = Launcher::gtx280();
        let batch: SystemBatch<f32> =
            Generator::new(2).batch(Workload::DiagonallyDominant, 512, 8).unwrap();
        let r = solve_batch_robust(
            &launcher,
            GpuAlgorithm::Rd(RdMode::Plain),
            &batch,
            RobustOptions { skip_residual_verify: true, ..Default::default() },
        )
        .unwrap();
        assert!(!r.repaired.is_empty());
        assert!(r.repaired.iter().all(|rep| rep.reason == RepairReason::NonFinite));
        // Only repaired systems carry a measured residual.
        for s in 0..batch.count() {
            let repaired = r.repaired.iter().any(|rep| rep.system == s);
            assert_eq!(r.residuals[s].is_some(), repaired, "system {s}");
        }
    }

    #[test]
    fn skip_mode_never_pays_for_residual_repairs() {
        // Even a threshold that would repair everything is ignored when
        // the residual verify is skipped on finite solutions.
        let launcher = Launcher::gtx280();
        let batch: SystemBatch<f32> =
            Generator::new(5).batch(Workload::DiagonallyDominant, 128, 8).unwrap();
        let r = solve_batch_robust(
            &launcher,
            GpuAlgorithm::Pcr,
            &batch,
            RobustOptions { threshold_scale: 0.0, skip_residual_verify: true },
        )
        .unwrap();
        assert!(r.repaired.is_empty(), "{:?}", r.repaired);
    }

    #[test]
    fn condition_scaling_is_monotone_and_bounded_below_by_base() {
        let base = 100.0;
        let s1 = RobustOptions::scaled_by_condition(base, 1.0).threshold_scale;
        let s2 = RobustOptions::scaled_by_condition(base, 1e3).threshold_scale;
        let s3 = RobustOptions::scaled_by_condition(base, 1e6).threshold_scale;
        assert_eq!(s1, base);
        assert!(s2 > s1 && s3 > s2, "{s1} {s2} {s3}");
        assert_eq!(RobustOptions::scaled_by_condition(base, f64::NAN).threshold_scale, base);
        assert!(!RobustOptions::scaled_by_condition(base, 1e9).skip_residual_verify);
    }

    #[test]
    fn tighter_threshold_repairs_more() {
        let launcher = Launcher::gtx280();
        let batch: SystemBatch<f32> =
            Generator::new(5).batch(Workload::CloseValues, 128, 16).unwrap();
        let loose = solve_batch_robust(
            &launcher,
            GpuAlgorithm::Pcr,
            &batch,
            RobustOptions { threshold_scale: 1e9, ..Default::default() },
        )
        .unwrap();
        let tight = solve_batch_robust(
            &launcher,
            GpuAlgorithm::Pcr,
            &batch,
            RobustOptions { threshold_scale: 1.0, ..Default::default() },
        )
        .unwrap();
        assert!(tight.repaired.len() >= loose.repaired.len());
    }
}
