//! Property-based tests for the factorization cache (PR 9): a cached
//! warm solve must agree with a fresh cold solve to residual tolerance
//! for every warm engine and both element widths; LRU eviction must
//! round-trip through refactorization; and matrix identity must never
//! unify two different matrices, however a structured one is perturbed,
//! and whatever single edit — one ulp, a swap, an exchange of the off
//! diagonals — is made to a general one.

use cpu_solvers::ThomasFactors;
use factor_cache::FactorCache;
use gpu_sim::Launcher;
use proptest::prelude::*;
use std::collections::HashSet;
use tridiag_core::residual::l2_residual;
use tridiag_core::{splitmix64_next, MatrixKey, Real, StructureTag, TridiagonalSystem};

/// Strategy: a strictly diagonally dominant system of size `n` (f64;
/// tests downcast to f32 where needed).
fn dominant_system(n: usize) -> impl Strategy<Value = TridiagonalSystem<f64>> {
    let off = prop::collection::vec(-1.0f64..1.0, n);
    let margins = prop::collection::vec(0.2f64..2.0, n);
    let rhs = prop::collection::vec(-10.0f64..10.0, n);
    (off.clone(), off, margins, rhs).prop_map(move |(mut a, mut c, m, d)| {
        a[0] = 0.0;
        c[n - 1] = 0.0;
        let b: Vec<f64> = (0..n).map(|i| (a[i].abs() + c[i].abs() + m[i]).copysign(1.0)).collect();
        TridiagonalSystem { a, b, c, d }
    })
}

/// The warm ≡ fresh equivalence must hold across the power-of-two sizes
/// n ∈ {8 .. 4096}.
fn issue_size() -> impl Strategy<Value = usize> {
    (3u32..=12).prop_map(|e| 1usize << e)
}

fn narrow(sys: &TridiagonalSystem<f64>) -> TridiagonalSystem<f32> {
    TridiagonalSystem {
        a: sys.a.iter().map(|&v| v as f32).collect(),
        b: sys.b.iter().map(|&v| v as f32).collect(),
        c: sys.c.iter().map(|&v| v as f32).collect(),
        d: sys.d.iter().map(|&v| v as f32).collect(),
    }
}

/// Residual bound for a warm solve of size `n`: generous multiples of
/// the width's epsilon (the warm path multiplies by reciprocals where
/// the fresh path divides, so answers agree to rounding, not bitwise).
fn warm_bound<T: Real>(n: usize) -> f64 {
    1e3 * T::EPSILON.to_f64() * n as f64
}

fn assert_warm_engines_match_fresh<T: Real>(sys: &TridiagonalSystem<T>) -> Result<(), String> {
    let n = sys.n();
    let bound = warm_bound::<T>(n);

    // Engine 1: cached Thomas back-substitution.
    let factors = ThomasFactors::factor(&sys.a, &sys.b, &sys.c).map_err(|e| e.to_string())?;
    let x_warm = factors.solve(&sys.d);
    let r = l2_residual(sys, &x_warm).map_err(|e| e.to_string())?;
    if r >= bound {
        return Err(format!("thomas-warm residual {r} >= {bound} at n={n}"));
    }

    // Engine 2: the GPU warm back-substitution kernel, multi-RHS.
    let launcher = Launcher::gtx280();
    let rhs: Vec<&[T]> = vec![&sys.d, &sys.d];
    let report =
        gpu_solvers::solve_batch_warm(&launcher, &factors, &rhs).map_err(|e| e.to_string())?;
    for i in 0..rhs.len() {
        let r = l2_residual(sys, report.solutions.system(i)).map_err(|e| e.to_string())?;
        if r >= bound {
            return Err(format!("warm-gpu residual {r} >= {bound} at n={n} rhs {i}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn warm_solve_matches_fresh_for_every_engine_f64(
        sys in issue_size().prop_flat_map(dominant_system),
    ) {
        // Fresh reference: the cold Thomas solve must itself be good...
        let x_fresh = cpu_solvers::thomas::solve(&sys).unwrap();
        let r = l2_residual(&sys, &x_fresh).unwrap();
        prop_assert!(r < warm_bound::<f64>(sys.n()), "fresh residual {r}");
        // ...and every warm engine must match it to tolerance.
        if let Err(msg) = assert_warm_engines_match_fresh(&sys) {
            prop_assert!(false, "{msg}");
        }
    }

    #[test]
    fn warm_solve_matches_fresh_for_every_engine_f32(
        sys in issue_size().prop_flat_map(dominant_system),
    ) {
        let sys = narrow(&sys);
        if let Err(msg) = assert_warm_engines_match_fresh(&sys) {
            prop_assert!(false, "{msg}");
        }
    }

    #[test]
    fn lru_eviction_round_trips_through_refactorization(
        systems in prop::collection::vec(dominant_system(32), 5),
        capacity in 1usize..4,
    ) {
        let cache: FactorCache<f64> = FactorCache::new(capacity);
        let keys: Vec<MatrixKey> =
            systems.iter().map(MatrixKey::of_system).collect();
        let mut first_answers = Vec::new();
        for (sys, key) in systems.iter().zip(&keys) {
            let (entry, _) = cache.factor_and_insert(*key, &sys.a, &sys.b, &sys.c).unwrap();
            first_answers.push(entry.thomas.solve(&sys.d));
        }
        // The cache never exceeds its bound, and insertions beyond it
        // evicted something.
        prop_assert!(cache.len() <= capacity);
        prop_assert!(cache.stats().evictions >= (systems.len() - capacity) as u64);
        // Every matrix — evicted or resident — refactors to the same
        // answer it gave the first time (eviction loses time, never
        // correctness).
        for ((sys, key), first) in systems.iter().zip(&keys).zip(&first_answers) {
            let entry = match cache.lookup(key) {
                Some(entry) => entry,
                None => cache.factor_and_insert(*key, &sys.a, &sys.b, &sys.c).unwrap().0,
            };
            let again = entry.thomas.solve(&sys.d);
            prop_assert_eq!(first, &again);
        }
    }

    #[test]
    fn perturbing_any_matrix_element_changes_the_key(
        n in 8usize..128,
        seed in any::<u64>(),
        which in 0usize..3,
        at in any::<usize>(),
        toeplitz in any::<bool>(),
    ) {
        // Start from either a structured (Toeplitz) or a random general
        // matrix — the structured tags take hash shortcuts, and no
        // shortcut may unify two matrices that differ in any element the
        // operator reads.
        let mut gen = tridiag_core::Generator::new(seed);
        let sys: TridiagonalSystem<f64> = if toeplitz {
            TridiagonalSystem::toeplitz(n, -1.0, 4.0, -2.0, 1.0).unwrap()
        } else {
            gen.system(tridiag_core::Workload::DiagonallyDominant, n)
        };
        let before = MatrixKey::of_system(&sys);
        let mut perturbed = sys.clone();
        // Pick an element the operator actually reads: a[1..], b[..],
        // or c[..n-1] (the a[0]/c[n-1] corners are padding for
        // non-periodic systems).
        let (diag, idx) = match which {
            0 => (&mut perturbed.a, 1 + at % (n - 1)),
            1 => (&mut perturbed.b, at % n),
            _ => (&mut perturbed.c, at % (n - 1)),
        };
        diag[idx] += 0.5;
        let after = MatrixKey::of_system(&perturbed);
        prop_assert!(
            before.fingerprint() != after.fingerprint(),
            "perturbed {}[{}] of a {:?}-tagged matrix kept the same key",
            ["a", "b", "c"][which],
            idx,
            before.tag
        );
    }
}

/// One ulp away from zero: the smallest change a stored element can take.
trait Ulp: Real {
    fn next_ulp(self) -> Self;
}

impl Ulp for f32 {
    fn next_ulp(self) -> Self {
        f32::from_bits(self.to_bits() + 1)
    }
}

impl Ulp for f64 {
    fn next_ulp(self) -> Self {
        f64::from_bits(self.to_bits() + 1)
    }
}

/// Diagonals `[a, b, c]` of size `n` with every element, corners
/// included, drawn uniformly from `[-2, 2)` by the SplitMix64 stream of
/// `seed` — no structure tag fits, so the key hashes every element.
fn random_diagonals<T: Real>(n: usize, seed: u64) -> [Vec<T>; 3] {
    let mut state = seed;
    let mut diagonal = || -> Vec<T> {
        (0..n)
            .map(|_| {
                let unit = (splitmix64_next(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                T::from_f64(4.0 * unit - 2.0)
            })
            .collect()
    };
    [diagonal(), diagonal(), diagonal()]
}

fn fingerprint<T: Real>([a, b, c]: &[Vec<T>; 3]) -> u64 {
    MatrixKey::of(a, b, c).fingerprint()
}

/// Each single edit of a general matrix must move its key: one ulp on
/// element `i` of diagonal `which`, swapping elements `i` and `j` of that
/// diagonal, and exchanging the `a` and `c` diagonals.
fn every_edit_moves_the_key<T: Ulp>(
    n: usize,
    seed: u64,
    which: usize,
    i: usize,
    j: usize,
) -> Result<(), String> {
    let base = random_diagonals::<T>(n, seed);
    let [a, b, c] = &base;
    if MatrixKey::of(a, b, c).tag != StructureTag::General {
        return Err(format!("n={n} seed={seed}: random diagonals were tagged structured"));
    }
    let key = fingerprint(&base);
    let diag = ["a", "b", "c"][which];

    let mut bumped = base.clone();
    bumped[which][i] = bumped[which][i].next_ulp();
    if fingerprint(&bumped) == key {
        return Err(format!("{} n={n}: one ulp on {diag}[{i}] kept the key", T::NAME));
    }
    if base[which][i] != base[which][j] {
        let mut swapped = base.clone();
        swapped[which].swap(i, j);
        if fingerprint(&swapped) == key {
            return Err(format!(
                "{} n={n}: swapping {diag}[{i}], {diag}[{j}] kept the key",
                T::NAME
            ));
        }
    }
    let exchanged = [base[2].clone(), base[1].clone(), base[0].clone()];
    if fingerprint(&exchanged) == key {
        return Err(format!("{} n={n}: exchanging a and c kept the key", T::NAME));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_single_edit_moves_a_general_key_f32(
        n in 3usize..=512,
        seed in any::<u64>(),
        which in 0usize..3,
        at in any::<usize>(),
        step in any::<usize>(),
    ) {
        let (i, j) = (at % n, (at + 1 + step % (n - 1)) % n);
        if let Err(msg) = every_edit_moves_the_key::<f32>(n, seed, which, i, j) {
            prop_assert!(false, "{msg}");
        }
    }

    #[test]
    fn any_single_edit_moves_a_general_key_f64(
        n in 3usize..=512,
        seed in any::<u64>(),
        which in 0usize..3,
        at in any::<usize>(),
        step in any::<usize>(),
    ) {
        let (i, j) = (at % n, (at + 1 + step % (n - 1)) % n);
        if let Err(msg) = every_edit_moves_the_key::<f64>(n, seed, which, i, j) {
            prop_assert!(false, "{msg}");
        }
    }
}

#[test]
fn distinct_general_matrices_get_distinct_fingerprints() {
    const MATRICES: u64 = 100_000;
    let mut seen = HashSet::with_capacity(MATRICES as usize);
    for i in 0..MATRICES {
        let n = 3 + (i % 30) as usize;
        // b[0] = i makes every matrix distinct by construction (exact in
        // both widths); the rest is random.
        let fp = if i % 2 == 0 {
            let mut d = random_diagonals::<f32>(n, i);
            d[1][0] = i as f32;
            fingerprint(&d)
        } else {
            let mut d = random_diagonals::<f64>(n, i);
            d[1][0] = i as f64;
            fingerprint(&d)
        };
        assert!(seen.insert(fp), "matrix {i} (n = {n}) collided with an earlier fingerprint");
    }
}
