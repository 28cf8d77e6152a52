//! Condition-number estimation for tridiagonal matrices — Hager's 1-norm
//! estimator (the algorithm behind LAPACK's `xLACON`). O(n) per
//! iteration, at most five iterations, applying `A^{-1}` and `A^{-T}`
//! either through the pivoted solver in the working precision
//! ([`inverse_norm1_estimate`], any nonsingular matrix) or through the
//! `f64` no-pivot LU ([`lu_inverse_norm1_estimate`], matrices whose
//! pivot-free elimination is already known to be stable).
//!
//! A cheap condition estimate tells a user *why* a pivoting-free GPU solve
//! went bad (paper §5.4's accuracy discussion) and prices the a-priori
//! forward-error bound of a numerical certificate.

use crate::ThomasFactors;
use tridiag_core::{Real, Result, TridiagError, TridiagonalSystem};

/// Exact 1-norm of `A` (max absolute column sum).
pub fn norm1<T: Real>(sys: &TridiagonalSystem<T>) -> f64 {
    let n = sys.n();
    (0..n)
        .map(|j| {
            let mut s = sys.b[j].abs().to_f64();
            if j > 0 {
                s += sys.c[j - 1].abs().to_f64(); // row j-1, column j
            }
            if j + 1 < n {
                s += sys.a[j + 1].abs().to_f64(); // row j+1, column j
            }
            s
        })
        .fold(0.0, f64::max)
}

/// Rejects a non-finite iterate: an overflowed solve must fail the
/// estimate, never rank a NaN.
fn check_finite<T: Real>(v: &[T]) -> Result<()> {
    match v.iter().position(|x| !x.is_finite()) {
        Some(first_bad_index) => Err(TridiagError::NonFiniteSolution { first_bad_index }),
        None => Ok(()),
    }
}

/// Hager's power iteration (<= 5 iterations) for `||A^{-1}||_1`, given
/// `solve(transpose, d, x)` writing `A^{-1} d`, or `A^{-T} d` when
/// `transpose`, into `x`.
fn hager<T: Real>(
    n: usize,
    mut solve: impl FnMut(bool, &[T], &mut [T]) -> Result<()>,
) -> Result<f64> {
    let mut x = vec![T::from_f64(1.0 / n as f64); n];
    let mut y = vec![T::ZERO; n];
    let mut z = vec![T::ZERO; n];
    let mut est = 0.0f64;
    for _iter in 0..5 {
        // y = A^{-1} x
        solve(false, &x, &mut y)?;
        check_finite(&y)?;
        let new_est: f64 = y.iter().map(|v| v.abs().to_f64()).sum();
        // xi = sign(y), overwriting y; z = A^{-T} xi
        for v in &mut y {
            *v = if *v < T::ZERO { -T::ONE } else { T::ONE };
        }
        solve(true, &y, &mut z)?;
        check_finite(&z)?;
        let (j, z_inf) = z
            .iter()
            .enumerate()
            .map(|(i, v)| (i, v.abs().to_f64()))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("nonempty");
        let ztx: f64 = z.iter().zip(&x).map(|(&p, &q)| p.to_f64() * q.to_f64()).sum();
        if new_est <= est || z_inf <= ztx.abs() {
            est = est.max(new_est);
            break;
        }
        est = new_est;
        x.fill(T::ZERO);
        x[j] = T::ONE;
    }
    Ok(est)
}

/// Estimates `||A^{-1}||_1` with Hager's iteration through the pivoted
/// solver (GEP) in the working precision `T`.
///
/// # Errors
/// [`TridiagError::SizeTooSmall`] for an empty system,
/// [`TridiagError::ZeroPivot`] for a singular one, and
/// [`TridiagError::NonFiniteSolution`] when an iterate overflows.
pub fn inverse_norm1_estimate<T: Real>(sys: &TridiagonalSystem<T>) -> Result<f64> {
    let n = sys.n();
    if n == 0 {
        return Err(TridiagError::SizeTooSmall { n: 0, min: 1 });
    }
    // The transpose is tridiagonal again, with `a`/`c` exchanged and
    // shifted.
    let mut a_t = vec![T::ZERO; n];
    let mut c_t = vec![T::ZERO; n];
    a_t[1..n].copy_from_slice(&sys.c[..n - 1]);
    c_t[..n - 1].copy_from_slice(&sys.a[1..n]);
    hager(n, |transpose, d, x| {
        let (a, c) = if transpose { (&a_t, &c_t) } else { (&sys.a, &sys.c) };
        crate::gep::solve_into(a, &sys.b, c, d, x)
    })
}

/// Estimates `||A^{-1}||_1` with Hager's iteration on the `f64` no-pivot
/// LU of `(a, b, c)`: one factorization with reciprocal pivots, then
/// `A^{-1}` by forward L / backward U and `A^{-T}` by Uᵀ then Lᵀ.
///
/// The caller must already know that elimination without pivoting is
/// stable on this matrix (strict dominance, SPD, M-matrix with checked
/// pivots); on other matrices the estimate can be arbitrarily wrong.
///
/// # Errors
/// [`TridiagError::ZeroPivot`] on a zero pivot, `InvalidConfig` on a
/// non-finite factorization, and [`TridiagError::NonFiniteSolution`] when
/// an iterate overflows.
pub fn lu_inverse_norm1_estimate(a: &[f64], b: &[f64], c: &[f64]) -> Result<f64> {
    let lu = ThomasFactors::factor(a, b, c)?;
    if !lu.is_finite() {
        return Err(TridiagError::InvalidConfig { what: "non-finite no-pivot LU" });
    }
    hager(lu.n(), |transpose, d, x| {
        if transpose {
            lu.solve_transpose_into(d, x);
        } else {
            lu.solve_into(d, x);
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::{Generator, Workload};

    /// Dense reference: exact ||A^{-1}||_1 by solving for every column of
    /// the identity (small n only).
    fn exact_inverse_norm1(sys: &TridiagonalSystem<f64>) -> f64 {
        let n = sys.n();
        let mut best = 0.0f64;
        for j in 0..n {
            let mut probe = sys.clone();
            probe.d = vec![0.0; n];
            probe.d[j] = 1.0;
            let col = crate::gep::solve(&probe).unwrap();
            best = best.max(col.iter().map(|v| v.abs()).sum());
        }
        best
    }

    /// `kappa_1` through the no-pivot LU estimator.
    fn lu_kappa(sys: &TridiagonalSystem<f64>) -> f64 {
        norm1(sys) * lu_inverse_norm1_estimate(&sys.a, &sys.b, &sys.c).unwrap()
    }

    #[test]
    fn norm1_matches_dense_definition() {
        let sys = TridiagonalSystem::<f64>::new(
            vec![0.0, -2.0, 3.0],
            vec![5.0, -1.0, 4.0],
            vec![1.5, -0.5, 0.0],
            vec![0.0; 3],
        )
        .unwrap();
        // Column sums: |5|+|−2| = 7; |1.5|+|−1|+|3| = 5.5; |−0.5|+|4| = 4.5.
        assert!((norm1(&sys) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn estimator_is_a_lower_bound_and_usually_tight() {
        let mut g = Generator::new(31);
        let mut tight = 0usize;
        const TRIALS: usize = 20;
        for _ in 0..TRIALS {
            let sys: TridiagonalSystem<f64> = g.system(Workload::DiagonallyDominant, 24);
            let est = inverse_norm1_estimate(&sys).unwrap();
            let exact = exact_inverse_norm1(&sys);
            assert!(est <= exact * (1.0 + 1e-10), "estimator must not exceed the norm");
            assert!(est >= exact / 10.0, "estimator too loose: {est} vs {exact}");
            if est >= exact * 0.999 {
                tight += 1;
            }
        }
        // Hager's estimator is exact for most well-behaved matrices.
        assert!(tight >= TRIALS / 2, "only {tight}/{TRIALS} tight");
    }

    #[test]
    fn well_conditioned_vs_nearly_singular() {
        // Identity-like: kappa ~ 1.
        let nice = TridiagonalSystem::<f64>::toeplitz(64, 0.0, 1.0, 0.0, 1.0).unwrap();
        let k_nice = lu_kappa(&nice);
        assert!(k_nice < 2.0, "{k_nice}");
        // Nearly singular: shrink the dominance margin to epsilon.
        let eps = 1e-8;
        let bad = TridiagonalSystem::<f64>::toeplitz(64, -1.0, 2.0 + eps, -1.0, 1.0).unwrap();
        let k_bad = lu_kappa(&bad);
        assert!(k_bad > 1e2, "{k_bad}");
        assert!(k_bad > 100.0 * k_nice);
    }

    #[test]
    fn poisson_condition_grows_quadratically() {
        // kappa([-1,2,-1]_n) ~ (2(n+1)/pi)^2.
        for n in [16usize, 32, 64] {
            let sys = tridiag_core::workload::poisson_system::<f64>(n);
            let k = lu_kappa(&sys);
            let theory = (2.0 * (n as f64 + 1.0) / std::f64::consts::PI).powi(2);
            let ratio = k / theory;
            assert!((0.5..2.0).contains(&ratio), "n={n}: {k} vs theory {theory}");
        }
    }
}
