//! Seeded input generation. The benchmark owns its generator, so the
//! program under test receives only the generated systems: the same
//! `--seed` always yields the same inputs.

use tridiag_core::TridiagonalSystem;

/// SplitMix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * unit
    }
}

/// A strictly diagonally dominant f32 system: off-diagonals uniform in
/// `[-1, 1]`, diagonal `|a| + |c| + margin` with margin in `[0.5, 1.5]`,
/// right-hand side uniform in `[-1, 1]`. Every solver in the cycle is
/// stable on this family, so no operation is expected to fail.
pub fn dominant(rng: &mut Rng, n: usize) -> TridiagonalSystem<f32> {
    let mut a = Vec::with_capacity(n);
    let mut b = Vec::with_capacity(n);
    let mut c = Vec::with_capacity(n);
    for i in 0..n {
        let ai = if i == 0 { 0.0 } else { rng.uniform(-1.0, 1.0) as f32 };
        let ci = if i + 1 == n { 0.0 } else { rng.uniform(-1.0, 1.0) as f32 };
        let margin = rng.uniform(0.5, 1.5) as f32;
        a.push(ai);
        b.push(ai.abs() + ci.abs() + margin);
        c.push(ci);
    }
    let d = rhs(rng, n);
    TridiagonalSystem::new(a, b, c, d).expect("boundary entries are zero by construction")
}

/// A right-hand side uniform in `[-1, 1]`.
pub fn rhs(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.uniform(-1.0, 1.0) as f32).collect()
}
