//! Deliberately-buggy fixture kernels for sanitizer validation.
//!
//! Each kernel reproduces one bug class the paper's `read / __syncthreads()
//! / write` discipline (§4) exists to prevent, in a minimal CR/PCR/RD-shaped
//! body. They are **test support only** — never dispatched by
//! [`crate::solve_batch`] — and must be launched with a sanitizing
//! [`gpu_sim::Launcher`] (`SanitizeMode::Record`): an unsanitized launch
//! reports no races at all, and under plain debug builds the OOB fixture
//! would trip the shared-arena bounds assert.
//!
//! | kernel | bug | expected [`gpu_sim::DiagnosticKind`] |
//! |---|---|---|
//! | [`MissingBarrierCrKernel`] | CR step fuses two levels, loading a cell the thread stored in the same superstep | `ReadWriteHazard` |
//! | [`RacyCrStepKernel`] | two threads reduce into the same shared cell between barriers | `WriteWriteRace` |
//! | [`OobPcrKernel`] | PCR neighbour index `i + stride` not clamped at the right edge | `SharedOutOfBounds` |
//! | [`UninitRdKernel`] | RD evaluation reads a scan row no store ever initialized | `UninitializedRead` |

use gpu_sim::{BlockCtx, GridKernel, Phase};
use tridiag_core::Real;

/// CR-shaped kernel with a missing barrier: the forward step buffers the
/// reduced coefficient and then *immediately* loads it back, expecting the
/// new value. Compiled CUDA with the barrier removed would read whatever
/// happens to be in shared memory; the simulator's buffered store makes the
/// load observe the stale pre-step value — a `ReadWriteHazard`.
#[derive(Debug, Clone, Copy)]
pub struct MissingBarrierCrKernel {
    /// Elements per block (power of two, >= 4).
    pub n: usize,
}

impl<T: Real> GridKernel<T> for MissingBarrierCrKernel {
    fn block_dim(&self) -> usize {
        self.n / 2
    }

    fn shared_words(&self) -> usize {
        2 * self.n * T::SHARED_WORDS
    }

    fn run_block(&self, _block_id: usize, ctx: &mut BlockCtx<'_, T>) {
        let n = self.n;
        let b = ctx.alloc(n);
        let d = ctx.alloc(n);
        ctx.step(Phase::GlobalLoad, 0..n / 2, |t| {
            for k in 0..2 {
                let i = t.tid() + k * (n / 2);
                t.store(b, i, T::ONE);
                t.store(d, i, T::ONE);
            }
        });
        // BUG: two reduction levels fused into one superstep. The second
        // half reads `b` values the same thread just stored — the missing
        // `__syncthreads()` between CR levels.
        ctx.step(Phase::ForwardReduction, 0..n / 2, |t| {
            let i = 2 * t.tid();
            let b_i = t.load(b, i);
            let two = t.add(T::ONE, T::ONE);
            t.store(b, i, two);
            let fresh = t.load(b, i); // hazard: observes stale pre-step value
            let s = t.add(b_i, fresh);
            t.store(d, i, s);
        });
    }
}

/// CR-shaped kernel whose reduction maps *two* threads onto each output
/// equation, so both buffer a store to the same shared cell in one
/// superstep — a `WriteWriteRace` (the classic off-by-one in the paper's
/// `2 * stride * (tid + 1) - 1` index arithmetic).
#[derive(Debug, Clone, Copy)]
pub struct RacyCrStepKernel {
    /// Elements per block (power of two, >= 4).
    pub n: usize,
}

impl<T: Real> GridKernel<T> for RacyCrStepKernel {
    fn block_dim(&self) -> usize {
        self.n
    }

    fn shared_words(&self) -> usize {
        self.n * T::SHARED_WORDS
    }

    fn run_block(&self, _block_id: usize, ctx: &mut BlockCtx<'_, T>) {
        let n = self.n;
        let b = ctx.alloc(n);
        ctx.step(Phase::GlobalLoad, 0..n, |t| t.store(b, t.tid(), T::ONE));
        // BUG: threads 2j and 2j+1 both write equation j.
        ctx.step(Phase::ForwardReduction, 0..n, |t| {
            let i = t.tid();
            let v = t.load(b, i);
            t.store(b, i / 2, v); // race: i/2 collides for i = 2j, 2j+1
        });
    }
}

/// PCR-shaped kernel whose right-neighbour index is not clamped: at the
/// last stride, `i + stride` walks past the end of the shared array — a
/// `SharedOutOfBounds` (on hardware it would silently read the next
/// `__shared__` array's words).
#[derive(Debug, Clone, Copy)]
pub struct OobPcrKernel {
    /// Elements per block (power of two, >= 4).
    pub n: usize,
}

impl<T: Real> GridKernel<T> for OobPcrKernel {
    fn block_dim(&self) -> usize {
        self.n
    }

    fn shared_words(&self) -> usize {
        2 * self.n * T::SHARED_WORDS
    }

    fn run_block(&self, _block_id: usize, ctx: &mut BlockCtx<'_, T>) {
        let n = self.n;
        let d = ctx.alloc(n);
        let nx = ctx.alloc(n); // the neighbouring array an OOB read would hit
        ctx.step(Phase::GlobalLoad, 0..n, |t| {
            t.store(d, t.tid(), T::ONE);
            t.store(nx, t.tid(), T::ONE);
        });
        let stride = 1usize;
        ctx.step(Phase::PcrReduction, 0..n, |t| {
            let i = t.tid();
            let il = if i >= stride { i - stride } else { i };
            let d_l = t.load(d, il);
            // BUG: no `.min(n - 1)` clamp — thread n-1 reads d[n].
            let d_r = t.load(d, i + stride);
            let s = t.add(d_l, d_r);
            t.store(nx, i, s);
        });
    }
}

/// RD-shaped kernel that forgets to initialize one scan row: the matrix
/// setup writes only the first row, yet the evaluation step reads the
/// second — an `UninitializedRead` (real `__shared__` memory starts with
/// garbage; the simulator's zero-fill would silently mask the bug).
#[derive(Debug, Clone, Copy)]
pub struct UninitRdKernel {
    /// Elements per block (power of two, >= 4).
    pub n: usize,
}

impl<T: Real> GridKernel<T> for UninitRdKernel {
    fn block_dim(&self) -> usize {
        self.n
    }

    fn shared_words(&self) -> usize {
        3 * self.n * T::SHARED_WORDS
    }

    fn run_block(&self, _block_id: usize, ctx: &mut BlockCtx<'_, T>) {
        let n = self.n;
        let r1 = ctx.alloc(n);
        let r2 = ctx.alloc(n); // BUG: never written by setup
        let x = ctx.alloc(n);
        ctx.step(Phase::MatrixSetup, 0..n, |t| t.store(r1, t.tid(), T::ONE));
        ctx.step(Phase::SolutionEvaluation, 0..n, |t| {
            let i = t.tid();
            let a = t.load(r1, i);
            let b = t.load(r2, i); // uninitialized read
            let s = t.add(a, b);
            t.store(x, i, s);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_batch, GpuAlgorithm, RdMode};
    use gpu_sim::{DiagnosticKind, GlobalMem, Launcher, SanitizeMode, SanitizeOptions, Severity};
    use tridiag_core::dominant_batch;

    fn sanitizing_launcher() -> Launcher {
        Launcher::gtx280().with_sanitize(SanitizeOptions::record())
    }

    fn run_fixture<K: GridKernel<f32>>(kernel: &K) -> Vec<gpu_sim::Diagnostic> {
        let mut gmem: GlobalMem<f32> = GlobalMem::new();
        let report = sanitizing_launcher().launch(kernel, 2, &mut gmem).expect("launch");
        report.diagnostics
    }

    fn assert_fixture_site(d: &gpu_sim::Diagnostic) {
        assert!(
            d.location.file().ends_with("fixtures.rs"),
            "diagnostic must point into the fixture source, got {}",
            d.site()
        );
    }

    #[test]
    fn missing_barrier_cr_reports_read_write_hazard() {
        let diags = run_fixture(&MissingBarrierCrKernel { n: 16 });
        let h: Vec<_> =
            diags.iter().filter(|d| d.kind == DiagnosticKind::ReadWriteHazard).collect();
        assert!(!h.is_empty(), "expected hazard, got {diags:?}");
        assert_eq!(h[0].severity, Severity::Error);
        assert_eq!(h[0].phase, gpu_sim::Phase::ForwardReduction);
        assert_fixture_site(h[0]);
        assert!(h[0].related.is_some(), "buffered-store site attached");
    }

    #[test]
    fn racy_cr_step_reports_write_write_race_with_both_sites() {
        let diags = run_fixture(&RacyCrStepKernel { n: 16 });
        let r: Vec<_> = diags.iter().filter(|d| d.kind == DiagnosticKind::WriteWriteRace).collect();
        assert!(!r.is_empty(), "expected race, got {diags:?}");
        assert_eq!(r[0].severity, Severity::Error);
        assert_fixture_site(r[0]);
        let related = r[0].related.expect("second colliding site attached");
        assert!(related.file().ends_with("fixtures.rs"));
    }

    #[test]
    fn oob_pcr_reports_shared_out_of_bounds() {
        let n = 16;
        let diags = run_fixture(&OobPcrKernel { n });
        let o: Vec<_> =
            diags.iter().filter(|d| d.kind == DiagnosticKind::SharedOutOfBounds).collect();
        assert!(!o.is_empty(), "expected OOB, got {diags:?}");
        assert_eq!(o[0].severity, Severity::Error);
        assert_eq!(o[0].index, Some(n), "one past the end");
        assert_fixture_site(o[0]);
    }

    #[test]
    fn uninit_rd_reports_uninitialized_read() {
        let diags = run_fixture(&UninitRdKernel { n: 16 });
        let u: Vec<_> =
            diags.iter().filter(|d| d.kind == DiagnosticKind::UninitializedRead).collect();
        assert!(!u.is_empty(), "expected uninit read, got {diags:?}");
        assert_eq!(u[0].severity, Severity::Error);
        assert_eq!(u[0].array, Some(1), "the second (never-written) array");
        assert_fixture_site(u[0]);
        // All n threads x 2 blocks hit the same site.
        assert_eq!(u[0].occurrences, 32);
    }

    #[test]
    fn rd_overflow_pinpoints_non_finite_origin() {
        // §5.2: plain RD on 512-unknown diagonally dominant f32 systems
        // overflows. The sanitizer turns the wrong answer into a located
        // warning at the first overflowing store.
        let batch = dominant_batch::<f32>(11, 512, 2);
        let report = solve_batch(&sanitizing_launcher(), GpuAlgorithm::Rd(RdMode::Plain), &batch)
            .expect("solve");
        let nf: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.kind == DiagnosticKind::NonFiniteOrigin)
            .collect();
        assert!(!nf.is_empty(), "expected overflow origin, got {:?}", report.diagnostics);
        assert_eq!(nf[0].severity, Severity::Warning, "overflow is a warning, not an error");
        assert_eq!(nf[0].phase, gpu_sim::Phase::Scan, "RD overflows inside the scan");
    }

    #[test]
    fn cr_bank_conflict_lint_flags_strided_site() {
        // CR's in-place stride doubling peaks at 16-way conflicts (Fig. 9)
        // — the lint must attribute that to a source site, as a warning.
        let batch = dominant_batch::<f32>(3, 512, 2);
        let report = solve_batch(&sanitizing_launcher(), GpuAlgorithm::Cr, &batch).expect("solve");
        let bc: Vec<_> =
            report.diagnostics.iter().filter(|d| d.kind == DiagnosticKind::BankConflict).collect();
        assert!(!bc.is_empty(), "expected bank-conflict lint");
        let worst = bc.iter().map(|d| d.degree.unwrap_or(0)).max().unwrap();
        assert_eq!(worst, 16, "worst degree attributed");
        assert!(bc.iter().all(|d| d.severity == Severity::Warning));
        assert!(bc.iter().all(|d| d.location.file().ends_with("cr.rs")));
        // PCR is conflict-free: the same lint stays silent.
        let report = solve_batch(&sanitizing_launcher(), GpuAlgorithm::Pcr, &batch).expect("solve");
        assert!(report.diagnostics.iter().all(|d| d.kind != DiagnosticKind::BankConflict));
    }

    #[test]
    fn enforce_mode_panics_on_fixture_errors() {
        let launcher = Launcher::gtx280().with_sanitize_mode(SanitizeMode::Enforce);
        let mut gmem: GlobalMem<f32> = GlobalMem::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            launcher.launch(&RacyCrStepKernel { n: 16 }, 1, &mut gmem)
        }));
        let err = result.expect_err("enforce mode must panic on an error diagnostic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
        assert!(msg.contains("write_write_race"), "{msg}");
    }
}
