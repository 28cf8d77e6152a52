//! Sequential cyclic reduction (Hockney) — the reference for the CR kernel.
//!
//! Forward reduction eliminates odd-position equations level by level until
//! two unknowns remain; backward substitution recovers the rest. The
//! per-level updates read the *previous* level's values (double-buffered
//! here; the GPU kernel gets the same semantics from buffered stores).

use tridiag_core::{require_pow2, Real, Result};

/// State of a system during reduction.
#[derive(Debug, Clone)]
pub struct CrState<T: Real> {
    /// Current (partially reduced) coefficients, full length `n`.
    pub a: Vec<T>,
    /// Main diagonal.
    pub b: Vec<T>,
    /// Super-diagonal coupling.
    pub c: Vec<T>,
    /// Right-hand side.
    pub d: Vec<T>,
    /// Completed forward-reduction levels.
    pub level: u32,
}

impl<T: Real> CrState<T> {
    /// Captures a system as level-0 state.
    pub fn new(a: &[T], b: &[T], c: &[T], d: &[T]) -> Self {
        Self { a: a.to_vec(), b: b.to_vec(), c: c.to_vec(), d: d.to_vec(), level: 0 }
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.b.len()
    }

    /// Stride between equations still active at the current level.
    pub fn stride(&self) -> usize {
        1 << (self.level + 1)
    }

    /// One forward-reduction level: updates equations at positions
    /// `stride-1, 2*stride-1, ...` from their `±stride/2` neighbours.
    pub fn forward_level(&mut self) {
        let n = self.n();
        let stride = self.stride();
        let half = stride / 2;
        let old = self.clone();
        let mut i = stride - 1;
        while i < n {
            let il = i - half;
            let k1 = old.a[i] / old.b[il];
            self.a[i] = -old.a[il] * k1;
            let ir = i + half;
            if ir < n {
                let k2 = old.c[i] / old.b[ir];
                self.b[i] = old.b[i] - old.c[il] * k1 - old.a[ir] * k2;
                self.d[i] = old.d[i] - old.d[il] * k1 - old.d[ir] * k2;
                self.c[i] = -old.c[ir] * k2;
            } else {
                self.b[i] = old.b[i] - old.c[il] * k1;
                self.d[i] = old.d[i] - old.d[il] * k1;
                self.c[i] = T::ZERO;
            }
            i += stride;
        }
        self.level += 1;
    }
}

/// Solves one system by full cyclic reduction. `n` must be a power of two.
pub fn solve_into<T: Real>(a: &[T], b: &[T], c: &[T], d: &[T], x: &mut [T]) -> Result<()> {
    let n = b.len();
    require_pow2(n, 2)?;
    let mut st = CrState::new(a, b, c, d);
    let levels = n.trailing_zeros() - 1;
    for _ in 0..levels {
        st.forward_level();
    }

    // Two unknowns remain at n/2-1 and n-1 (a[n/2-1] and c[n-1] are zero by
    // the boundary invariant).
    let i1 = n / 2 - 1;
    let i2 = n - 1;
    let det = st.b[i1] * st.b[i2] - st.c[i1] * st.a[i2];
    x[i1] = (st.d[i1] * st.b[i2] - st.c[i1] * st.d[i2]) / det;
    x[i2] = (st.b[i1] * st.d[i2] - st.d[i1] * st.a[i2]) / det;

    // Backward substitution, mirroring the forward levels in reverse.
    for level in (0..levels).rev() {
        backward_level(&st, level, x);
    }
    Ok(())
}

/// One backward-substitution level at `level`, filling the unknowns solved
/// nowhere deeper. Shared with the hybrid reference solvers.
pub fn backward_level<T: Real>(st: &CrState<T>, level: u32, x: &mut [T]) {
    let n = st.n();
    let stride = 1usize << (level + 1);
    let half = stride / 2;
    let mut i = half - 1;
    while i < n {
        // x[i] was not yet solved at this level; neighbours i±half were.
        let right = x[i + half];
        let v = if i >= half {
            (st.d[i] - st.a[i] * x[i - half] - st.c[i] * right) / st.b[i]
        } else {
            (st.d[i] - st.c[i] * right) / st.b[i]
        };
        x[i] = v;
        i += stride;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thomas;
    use tridiag_core::residual::{l2_residual, max_abs_diff};
    use tridiag_core::{Generator, TridiagonalSystem, Workload};

    fn solve_vec(s: &TridiagonalSystem<f64>) -> Vec<f64> {
        let mut x = vec![0.0; s.n()];
        solve_into(&s.a, &s.b, &s.c, &s.d, &mut x).unwrap();
        x
    }

    #[test]
    fn two_unknowns() {
        let s = TridiagonalSystem::new(
            vec![0.0f64, 1.0],
            vec![2.0, 3.0],
            vec![1.0, 0.0],
            vec![3.0, 4.0],
        )
        .unwrap();
        let x = solve_vec(&s);
        assert!(l2_residual(&s, &x).unwrap() < 1e-12);
    }

    #[test]
    fn matches_thomas_across_sizes() {
        let mut g = Generator::new(71);
        for n in [2usize, 4, 8, 16, 32, 64, 128, 256, 512] {
            let s: TridiagonalSystem<f64> = g.system(Workload::DiagonallyDominant, n);
            let x_cr = solve_vec(&s);
            let x_th = thomas::solve(&s).unwrap();
            assert!(max_abs_diff(&x_cr, &x_th) < 1e-9, "n={n}");
        }
    }

    #[test]
    fn rejects_non_pow2() {
        let s = TridiagonalSystem::<f64>::toeplitz(6, -1.0, 4.0, -1.0, 1.0).unwrap();
        let mut x = vec![0.0; 6];
        assert!(solve_into(&s.a, &s.b, &s.c, &s.d, &mut x).is_err());
    }

    #[test]
    fn forward_level_preserves_reduced_solution() {
        // After one forward level, the active equations must be satisfied
        // by the true solution restricted to those indices.
        let mut g = Generator::new(99);
        let s: TridiagonalSystem<f64> = g.system(Workload::DiagonallyDominant, 16);
        let x = thomas::solve(&s).unwrap();
        let mut st = CrState::new(&s.a, &s.b, &s.c, &s.d);
        st.forward_level();
        let stride = 2usize;
        let mut i = stride - 1;
        while i < 16 {
            let mut lhs = st.b[i] * x[i];
            if i >= stride {
                lhs += st.a[i] * x[i - stride];
            }
            if i + stride < 16 {
                lhs += st.c[i] * x[i + stride];
            }
            assert!((lhs - st.d[i]).abs() < 1e-9, "eq {i}");
            i += stride;
        }
    }

    #[test]
    fn boundary_invariant_holds() {
        // The first active equation keeps a == 0 and the last keeps c == 0
        // through every level.
        let mut g = Generator::new(5);
        let s: TridiagonalSystem<f64> = g.system(Workload::DiagonallyDominant, 64);
        let mut st = CrState::new(&s.a, &s.b, &s.c, &s.d);
        for _ in 0..5 {
            st.forward_level();
            let stride = 1usize << st.level;
            assert_eq!(st.a[stride - 1], 0.0);
            assert_eq!(st.c[63], 0.0);
        }
    }
}
