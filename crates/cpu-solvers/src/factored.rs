//! Precomputed Thomas factorization: elimination once, back-substitution
//! per right-hand side.
//!
//! The forward elimination of the Thomas algorithm only touches `(a, b, c)`
//! — the swept super-diagonal `c'` and the pivots are independent of `d`.
//! For traffic that re-solves the *same* matrix with fresh right-hand
//! sides (ADI sweeps, spectral Poisson, splines), the elimination can be
//! done once and reused: per solve that leaves a forward `d'` sweep and
//! the backward substitution, cutting the paper's `8n` flops to `5n` and
//! dropping both divisions from the hot loop.
//!
//! Mirroring the classic `wk1`/`wk2` formulation:
//! ```text
//! wk1_1 = 1 / b_1          wk1_i = 1 / (b_i - a_i wk2_{i-1})
//! wk2_i = c_i * wk1_i
//! solve:  d'_1 = d_1 wk1_1        d'_i = (d_i - a_i d'_{i-1}) wk1_i
//!         x_n  = d'_n             x_i  = d'_i - wk2_i x_{i+1}
//! ```
//!
//! The warm solve multiplies by reciprocal pivots where the fresh solve
//! divides, so results agree to rounding (residual tolerance), not bit
//! for bit.

use tridiag_core::{Real, Result, TridiagError};

/// A reusable Thomas factorization of one tridiagonal matrix.
///
/// Holds the reciprocal pivots (`wk1`), the swept super-diagonal (`wk2`)
/// and a copy of the sub-diagonal, which together are everything the
/// per-RHS sweep needs — `3n` elements, the same footprint as the matrix
/// itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ThomasFactors<T: Real> {
    /// Reciprocal pivots `1 / (b_i - a_i wk2_{i-1})`.
    pub wk1: Vec<T>,
    /// Swept super-diagonal `c_i * wk1_i` (the back-substitution weights).
    pub wk2: Vec<T>,
    /// The sub-diagonal `a` (needed by the forward `d'` sweep).
    pub sub: Vec<T>,
}

impl<T: Real> ThomasFactors<T> {
    /// Runs the elimination once over `(a, b, c)`.
    ///
    /// # Errors
    /// [`TridiagError::ZeroPivot`] exactly when the fresh
    /// [`crate::thomas::solve_into`] would hit one, and
    /// [`TridiagError::SizeTooSmall`] for empty systems.
    pub fn factor(a: &[T], b: &[T], c: &[T]) -> Result<Self> {
        let n = b.len();
        debug_assert!(a.len() == n && c.len() == n);
        if n == 0 {
            return Err(TridiagError::SizeTooSmall { n: 0, min: 1 });
        }
        let mut wk1 = vec![T::ZERO; n];
        let mut wk2 = vec![T::ZERO; n];
        if b[0] == T::ZERO {
            return Err(TridiagError::ZeroPivot { row: 0 });
        }
        wk1[0] = T::ONE / b[0];
        wk2[0] = c[0] * wk1[0];
        for i in 1..n {
            let denom = b[i] - a[i] * wk2[i - 1];
            if denom == T::ZERO {
                return Err(TridiagError::ZeroPivot { row: i });
            }
            wk1[i] = T::ONE / denom;
            wk2[i] = c[i] * wk1[i];
        }
        Ok(ThomasFactors { wk1, wk2, sub: a.to_vec() })
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.wk1.len()
    }

    /// Heap bytes this factorization occupies (cache accounting).
    pub fn bytes(&self) -> usize {
        3 * self.n() * T::BYTES
    }

    /// Solves `A x = d` using the precomputed factors: one forward `d'`
    /// sweep into `x`, then backward substitution in place — `5n` flops,
    /// no divisions, no scratch allocation.
    pub fn solve_into(&self, d: &[T], x: &mut [T]) {
        let n = self.n();
        debug_assert!(d.len() == n && x.len() == n);
        x[0] = d[0] * self.wk1[0];
        for i in 1..n {
            x[i] = (d[i] - self.sub[i] * x[i - 1]) * self.wk1[i];
        }
        for i in (0..n - 1).rev() {
            x[i] -= self.wk2[i] * x[i + 1];
        }
    }

    /// Solves the transposed system `Aᵀ x = d` with the same factors.
    /// With `A = L U`, `L` lower bidiagonal (pivots `1 / wk1`, sub-diagonal
    /// `a`) and `U` unit upper bidiagonal (`wk2`), this is a forward sweep
    /// through `Uᵀ` into `x`, then backward substitution through `Lᵀ` in
    /// place — the `A^{-T}` half of a Hager condition estimate.
    pub fn solve_transpose_into(&self, d: &[T], x: &mut [T]) {
        let n = self.n();
        debug_assert!(d.len() == n && x.len() == n);
        x[0] = d[0];
        for i in 1..n {
            x[i] = d[i] - self.wk2[i - 1] * x[i - 1];
        }
        x[n - 1] *= self.wk1[n - 1];
        for i in (0..n - 1).rev() {
            x[i] = (x[i] - self.sub[i + 1] * x[i + 1]) * self.wk1[i];
        }
    }

    /// Convenience wrapper returning a fresh solution vector.
    pub fn solve(&self, d: &[T]) -> Vec<T> {
        let mut x = vec![T::ZERO; self.n()];
        self.solve_into(d, &mut x);
        x
    }

    /// `true` when every stored coefficient is finite — a cheap admission
    /// check before caching a factorization.
    pub fn is_finite(&self) -> bool {
        self.wk1.iter().chain(&self.wk2).chain(&self.sub).all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::residual::l2_residual;
    use tridiag_core::{Generator, TridiagonalSystem, Workload};

    #[test]
    fn warm_matches_fresh_to_residual_tolerance() {
        let mut g = Generator::new(7);
        for n in [1usize, 2, 8, 129, 512] {
            let s: TridiagonalSystem<f64> = g.system(Workload::DiagonallyDominant, n);
            let f = ThomasFactors::factor(&s.a, &s.b, &s.c).unwrap();
            let warm = f.solve(&s.d);
            assert!(l2_residual(&s, &warm).unwrap() < 1e-10, "n={n}");
        }
    }

    #[test]
    fn factors_are_reusable_across_rhs() {
        let mut g = Generator::new(9);
        let s: TridiagonalSystem<f32> = g.system(Workload::Poisson, 64);
        let f = ThomasFactors::factor(&s.a, &s.b, &s.c).unwrap();
        for k in 0..8 {
            let d: Vec<f32> = (0..64).map(|i| ((i * 13 + k * 7) % 17) as f32 - 8.0).collect();
            let x = f.solve(&d);
            let probe = TridiagonalSystem::new(s.a.clone(), s.b.clone(), s.c.clone(), d).unwrap();
            assert!(l2_residual(&probe, &x).unwrap() < 1e-3, "rhs {k}");
        }
    }

    #[test]
    fn transpose_solve_is_the_adjoint() {
        // u·(A^{-1} v) = (A^{-T} u)·v for every u, v: checks the transpose
        // solve against the plain one.
        let mut g = Generator::new(5);
        let s: TridiagonalSystem<f64> = g.system(Workload::DiagonallyDominant, 37);
        let v: TridiagonalSystem<f64> = g.system(Workload::DiagonallyDominant, 37);
        let lu = ThomasFactors::factor(&s.a, &s.b, &s.c).unwrap();
        let (mut y, mut z) = (vec![0.0; 37], vec![0.0; 37]);
        lu.solve_into(&v.d, &mut y);
        lu.solve_transpose_into(&s.d, &mut z);
        let dot = |p: &[f64], q: &[f64]| p.iter().zip(q).map(|(x, y)| x * y).sum::<f64>();
        let (left, right) = (dot(&s.d, &y), dot(&z, &v.d));
        assert!((left - right).abs() <= 1e-12 * left.abs(), "{left} vs {right}");
    }

    #[test]
    fn zero_pivot_matches_fresh_solver() {
        let s = TridiagonalSystem::new(
            vec![0.0f64, 1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        )
        .unwrap();
        assert!(matches!(
            ThomasFactors::<f64>::factor(&s.a, &s.b, &s.c),
            Err(TridiagError::ZeroPivot { row: 0 })
        ));
    }

    #[test]
    fn accounting_and_finiteness() {
        let mut g = Generator::new(3);
        let s: TridiagonalSystem<f32> = g.system(Workload::DiagonallyDominant, 32);
        let f = ThomasFactors::factor(&s.a, &s.b, &s.c).unwrap();
        assert_eq!(f.n(), 32);
        assert_eq!(f.bytes(), 3 * 32 * 4);
        assert!(f.is_finite());
    }
}
