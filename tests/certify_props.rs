//! Adversarial soundness properties for the static certification analyzer.
//!
//! The whole value of a `NumericCertificate` is that it lets the service
//! *skip* the per-solution residual verify, so an unsound certificate is a
//! wrong answer served silently. These properties attack the analyzer from
//! both sides, over both precisions and sizes up to 4096.
//!
//! A note on "GEP pivots": partial pivoting may *choose* to interchange on
//! a perfectly safe row-dominant matrix (a large sub-diagonal under a
//! modest updated diagonal — the no-interchange theorem belongs to column
//! dominance), so the sound formalization is about *necessity*, not the
//! heuristic's row swaps:
//!
//! * **Certified ⇒ pivoting is never necessary.** The pivot-free Thomas
//!   recurrence must complete with every pivot finite and nonzero (the
//!   machine-checked floor exists), the pivot-free solve must succeed, and
//!   its relative residual must sit below the certificate's a-priori
//!   forward-error bound `κ₁·ε·n`. GEP — the safety net the certificate
//!   retires — must agree to within the same bound.
//! * **Needs-pivoting ⇒ never certified.** On any matrix where the
//!   pivot-free recurrence breaks down (no floor) or GEP outright fails,
//!   the analyzer must return `Uncertified` — including the adversarial
//!   "almost dominant" family built to sit right at the dominance
//!   boundary.

use cpu_solvers::{gep, pivot_bounds::thomas_pivot_floor, thomas};
use numeric_verify::{CertifiedCatalog, NumericCertificate};
use proptest::prelude::*;
use solver_service::{ServiceConfig, SolverService};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tridiag_core::residual::relative_l2_residual;
use tridiag_core::{Generator, Real, TridiagonalSystem, Workload};

/// Sizes the properties sweep (power-of-two and odd, small and large).
const SIZES: [usize; 5] = [8, 33, 257, 1024, 4096];

/// Builds an "almost dominant" adversarial system: every row dominant by a
/// comfortable margin except one, whose diagonal is shrunk so the row sits
/// `break_by` *below* the dominance line. With a large `break_by` the
/// pivot-free recurrence can lose the floor entirely; with a tiny one it
/// probes the analyzer's slack handling.
fn almost_dominant<T: Real>(
    n: usize,
    weak_row: usize,
    break_by: f64,
    seed: u64,
) -> TridiagonalSystem<T> {
    let mut gen = Generator::new(seed);
    let mut sys: TridiagonalSystem<T> = gen.system(Workload::DiagonallyDominant, n);
    let i = weak_row.min(n - 1);
    let off = sys.a[i].to_f64().abs() + sys.c[i].to_f64().abs();
    let sign = if sys.b[i].to_f64() < 0.0 { -1.0 } else { 1.0 };
    // Clamp at zero: a magnitude of `off − break_by` gone *negative* would
    // make the row dominant again (with flipped sign), not weaker.
    sys.b[i] = T::from_f64(sign * (off - break_by).max(0.0));
    sys
}

/// The three certifiable families the estimator is priced on.
#[derive(Debug, Clone, Copy)]
enum Family {
    /// The generator's strictly dominant rows.
    Dominant,
    /// Variable-coefficient diffusion `−(k u′)′`: symmetric, weakly
    /// dominant, positive definite (constant `k` is the Poisson stencil).
    Spd,
    /// Row-scaled `[−1, 1.5, −0.5]`: asymmetric, weakly dominant, a
    /// textbook M-matrix.
    MMatrix,
}

impl Family {
    fn system(self, n: usize, seed: u64) -> TridiagonalSystem<f64> {
        let mut sys: TridiagonalSystem<f64> =
            Generator::new(seed).system(Workload::DiagonallyDominant, n);
        // Positive weights in [0.5, 2), drawn from the generator's diagonal.
        let w: Vec<f64> = sys.b.iter().map(|b| 0.5 + 1.5 * (b.abs() % 1.0)).collect();
        for i in 0..n {
            let (a, b, c) = match self {
                Family::Dominant => return sys,
                // Conductances k_i = w_i, with k_n = w_0 on the right edge.
                Family::Spd => (-w[i], w[i] + w[(i + 1) % n], -w[(i + 1) % n]),
                Family::MMatrix => (-w[i], 1.5 * w[i], -0.5 * w[i]),
            };
            sys.a[i] = if i == 0 { 0.0 } else { a };
            sys.b[i] = b;
            sys.c[i] = if i + 1 == n { 0.0 } else { c };
        }
        sys
    }
}

fn narrow(sys: &TridiagonalSystem<f64>) -> TridiagonalSystem<f32> {
    let f = |v: &[f64]| v.iter().map(|&x| x as f32).collect();
    TridiagonalSystem { a: f(&sys.a), b: f(&sys.b), c: f(&sys.c), d: f(&sys.d) }
}

/// Exact `||A^{-1}||_1` by solving for every column of the identity.
fn dense_inverse_norm1(sys: &TridiagonalSystem<f64>) -> f64 {
    let n = sys.n();
    let mut probe = sys.clone();
    (0..n)
        .map(|j| {
            probe.d = vec![0.0; n];
            probe.d[j] = 1.0;
            gep::solve(&probe).unwrap().iter().map(|v| v.abs()).sum::<f64>()
        })
        .fold(0.0, f64::max)
}

/// The two soundness checks, shared by every generation strategy below.
fn assert_sound<T: Real>(sys: &TridiagonalSystem<T>, label: &str) -> Result<(), TestCaseError> {
    let analysis = numeric_verify::analyze(sys);
    if !analysis.certificate.is_certified() {
        return Ok(()); // Uncertified is always sound.
    }
    let cert = analysis.certificate.name();
    prop_assert!(
        analysis.forward_error_bound.is_finite(),
        "{label} certified '{cert}' with an infinite error bound"
    );
    // Certified ⇒ the pivot-free recurrence never needs a pivot: the
    // machine-checked floor exists (every pivot finite and nonzero).
    let floor = thomas_pivot_floor(&sys.a, &sys.b, &sys.c);
    prop_assert!(
        floor.is_some_and(|f| f > 0.0),
        "{label} certificate '{cert}' issued but the pivot-free recurrence has no floor"
    );
    // Certified ⇒ the pivot-free Thomas solve lands inside the bound.
    let mut x = vec![T::ZERO; sys.n()];
    let solved = thomas::solve_into(&sys.a, &sys.b, &sys.c, &sys.d, &mut x);
    prop_assert!(solved.is_ok(), "{label} certified '{cert}' but Thomas failed: {solved:?}");
    let rel = relative_l2_residual(sys, &x).expect("residual on certified system");
    prop_assert!(
        rel <= analysis.forward_error_bound,
        "{label} certified residual {rel} escaped the bound {}",
        analysis.forward_error_bound
    );
    // Certified ⇒ the GEP safety net the certificate retires agrees.
    let mut xg = vec![T::ZERO; sys.n()];
    let gep_result = gep::solve_into_counting(&sys.a, &sys.b, &sys.c, &sys.d, &mut xg);
    prop_assert!(gep_result.is_ok(), "{label} certified '{cert}' but GEP failed: {gep_result:?}");
    let rel_gep = relative_l2_residual(sys, &xg).expect("GEP residual on certified system");
    prop_assert!(
        rel_gep <= analysis.forward_error_bound,
        "{label} certified but GEP residual {rel_gep} escaped the bound {}",
        analysis.forward_error_bound
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generator family, both precisions: a certificate is only ever
    /// issued when pivot-free elimination is safe and lands in the bound.
    #[test]
    fn certificates_are_sound_on_generator_families(
        seed in 0u64..1_000_000,
        n in prop::sample::select(SIZES.to_vec()),
        workload in prop::sample::select(Workload::ALL.to_vec()),
    ) {
        let sys32: TridiagonalSystem<f32> = Generator::new(seed).system(workload, n);
        assert_sound(&sys32, "f32")?;
        let sys64: TridiagonalSystem<f64> = Generator::new(seed).system(workload, n);
        assert_sound(&sys64, "f64")?;
    }

    /// The adversarial family: one row pushed to (or past) the dominance
    /// boundary. Whatever the break, the certificate must stay sound; a
    /// clearly broken row must never scan as strictly dominant; and a
    /// matrix whose pivot-free recurrence loses its floor (pivoting
    /// *necessary*) must never be certified at all.
    #[test]
    fn no_certificate_survives_a_broken_dominance_row(
        seed in 0u64..1_000_000,
        n in prop::sample::select(SIZES.to_vec()),
        weak_row in 0usize..4096,
        break_by in prop::sample::select(vec![0.0, 1e-9, 1e-3, 0.5, 2.0, 10.0]),
    ) {
        let sys32: TridiagonalSystem<f32> = almost_dominant(n, weak_row, break_by, seed);
        assert_sound(&sys32, "f32-adversarial")?;
        let sys64: TridiagonalSystem<f64> = almost_dominant(n, weak_row, break_by, seed);
        assert_sound(&sys64, "f64-adversarial")?;

        let analysis = numeric_verify::analyze(&sys64);
        // A row sitting measurably below the dominance line must never
        // pass the strict-dominance scan (whatever the slack does near
        // the boundary, 1e-3 is far outside it for O(1) rows).
        if break_by >= 1e-3 {
            prop_assert!(
                analysis.certificate.name() != "strictly-dominant",
                "row broken by {break_by} still scanned as strictly dominant"
            );
        }
        // Direct necessity claim: if the pivot-free recurrence breaks
        // down or the safety net itself fails, no certificate.
        let floor = thomas_pivot_floor(&sys64.a, &sys64.b, &sys64.c);
        let mut xg = vec![0.0f64; sys64.n()];
        let gep_ok = gep::solve_into_counting(&sys64.a, &sys64.b, &sys64.c, &sys64.d, &mut xg);
        if floor.is_none() || gep_ok.is_err() {
            prop_assert!(
                !analysis.certificate.is_certified(),
                "certificate '{}' issued for a matrix that needs pivoting",
                analysis.certificate.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The no-pivot LU estimator the analyzer prices certificates with:
    /// it runs the same iteration as the pivoted reference, so on these
    /// families the two agree to rounding; it never exceeds the exact
    /// norm; and each family still earns its certificate class in both
    /// precisions.
    #[test]
    fn lu_estimator_agrees_with_the_pivoted_reference(
        seed in 0u64..1_000_000,
        n in prop::sample::select(vec![8usize, 33, 64, 128, 257, 512]),
        case in prop::sample::select(vec![
            (Family::Dominant, "strictly-dominant"),
            (Family::Spd, "spd"),
            (Family::MMatrix, "m-matrix"),
        ]),
    ) {
        let (family, class) = case;
        let sys = family.system(n, seed);
        let lu = cpu_solvers::lu_inverse_norm1_estimate(&sys.a, &sys.b, &sys.c).unwrap();
        let reference = cpu_solvers::inverse_norm1_estimate(&sys).unwrap();
        prop_assert!(
            (lu - reference).abs() <= 1e-12 * reference,
            "{family:?} n={n}: LU {lu} vs GEP {reference}"
        );
        if n <= 64 {
            let exact = dense_inverse_norm1(&sys);
            prop_assert!(lu <= exact * (1.0 + 1e-9), "{family:?} n={n}: {lu} > exact {exact}");
        }
        let class64 = numeric_verify::analyze(&sys).certificate.name();
        prop_assert!(class64 == class, "f64 {family:?} n={n}: {class64}");
        let class32 = numeric_verify::analyze(&narrow(&sys)).certificate.name();
        prop_assert!(class32 == class, "f32 {family:?} n={n}: {class32}");
    }
}

/// Strictly dominant, but `||A^{-1}||_1 ~ 5e38` lies beyond f32's range:
/// any estimate iterated in f32 overflows. `d` is the row sums, so the
/// solution is all ones.
fn overflowing_f32_system() -> TridiagonalSystem<f32> {
    let mut sys = TridiagonalSystem::<f32>::toeplitz(64, -1e-38, 2.2e-38, -1e-38, 0.0).unwrap();
    sys.d = (0..64).map(|i| (sys.a[i] as f64 + sys.b[i] as f64 + sys.c[i] as f64) as f32).collect();
    sys
}

#[test]
fn analysis_of_an_overflowing_f32_system_does_not_panic() {
    let sys = overflowing_f32_system();
    let est = cpu_solvers::inverse_norm1_estimate(&sys);
    assert!(est.is_err(), "the f32 iterates overflow: {est:?}");
    let analysis = numeric_verify::analyze(&sys);
    assert!(
        matches!(analysis.certificate, NumericCertificate::StrictlyDominant { .. }),
        "{:?}",
        analysis.certificate
    );
    assert!(analysis.kappa1.is_finite() && analysis.forward_error_bound < 1e-2, "{analysis:?}");
    assert_eq!(analysis.condest_calls, 1);
    assert_sound(&sys, "f32-overflow").expect("sound");
}

#[test]
fn service_answers_an_overflowing_f32_system() {
    let svc = SolverService::<f32>::start(ServiceConfig {
        workers: 1,
        certified: Some(Arc::new(CertifiedCatalog::new())),
        ..ServiceConfig::default()
    });
    let sys = overflowing_f32_system();
    // A key is analyzed on its second sighting, so the system is sent
    // twice (waiting for each answer): the second flush drives `analyze`
    // on the dispatch worker.
    for sighting in 1..=2 {
        let ticket = svc.submit(sys.clone()).expect("admitted");
        let deadline = Instant::now() + Duration::from_secs(30);
        let response = loop {
            if let Some(response) = ticket.try_take() {
                break response;
            }
            assert!(
                Instant::now() < deadline,
                "no answer to sighting {sighting} within 30 s: the dispatch worker died"
            );
            std::thread::sleep(Duration::from_millis(1));
        };
        let rel = relative_l2_residual(&sys, &response.x).unwrap();
        assert!(
            rel < 1e-4,
            "sighting {sighting}: relative residual {rel} from {}",
            response.engine
        );
    }
    let snap = svc.shutdown();
    assert_eq!(snap.certs_issued, 1, "{snap:?}");
}

/// Deterministic spot checks at the largest size for both precisions, so
/// the 4096-row contract is exercised even if proptest happens not to draw
/// it: the dominant family certifies, and the certificate is sound.
#[test]
fn dominant_4096_certifies_and_is_sound_in_both_precisions() {
    let sys32: TridiagonalSystem<f32> =
        Generator::new(0xCE27).system(Workload::DiagonallyDominant, 4096);
    let analysis = numeric_verify::analyze(&sys32);
    assert!(analysis.certificate.is_certified(), "dominant f32/4096 must certify");
    assert_sound(&sys32, "f32/4096").expect("sound at 4096");

    let sys64: TridiagonalSystem<f64> =
        Generator::new(0xCE27).system(Workload::DiagonallyDominant, 4096);
    let analysis = numeric_verify::analyze(&sys64);
    assert!(analysis.certificate.is_certified(), "dominant f64/4096 must certify");
    assert_sound(&sys64, "f64/4096").expect("sound at 4096");
}
