//! The independent oracle. Every delivered answer is judged here, off the
//! timed path, by recomputing the residual in f64 from the benchmark's own
//! copy of the inputs. Nothing the program reports about its own answer
//! (such as `SolveResponse::residual`, which holds an a-priori bound on
//! certificate-skipped flushes) is read.

/// Largest accepted normwise backward error
/// `||Ax - d||_inf / (||A||_inf ||x||_inf + ||d||_inf)`. About 840 f32
/// ulps: a backward-stable f32 solve on the benchmark's diagonally dominant
/// systems lands orders of magnitude below it, while a single corrupted
/// solution entry lands orders of magnitude above it.
pub const MAX_BACKWARD_ERROR: f64 = 1e-4;

/// Normwise backward error of `x` for the system `(a, b, c, d)`, in f64.
/// Non-finite answers and length mismatches score `f64::INFINITY`.
pub fn backward_error(a: &[f32], b: &[f32], c: &[f32], d: &[f32], x: &[f32]) -> f64 {
    let n = b.len();
    if x.len() != n || x.iter().any(|v| !v.is_finite()) {
        return f64::INFINITY;
    }
    let (mut r_max, mut a_max, mut x_max, mut d_max) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for i in 0..n {
        let mut ax = b[i] as f64 * x[i] as f64;
        let mut row = (b[i] as f64).abs();
        if i > 0 {
            ax += a[i] as f64 * x[i - 1] as f64;
            row += (a[i] as f64).abs();
        }
        if i + 1 < n {
            ax += c[i] as f64 * x[i + 1] as f64;
            row += (c[i] as f64).abs();
        }
        r_max = r_max.max((ax - d[i] as f64).abs());
        a_max = a_max.max(row);
        x_max = x_max.max((x[i] as f64).abs());
        d_max = d_max.max((d[i] as f64).abs());
    }
    let scale = a_max * x_max + d_max;
    if scale == 0.0 {
        return if r_max == 0.0 { 0.0 } else { f64::INFINITY };
    }
    r_max / scale
}

/// `true` when the oracle accepts `x`.
pub fn accepts(a: &[f32], b: &[f32], c: &[f32], d: &[f32], x: &[f32]) -> bool {
    backward_error(a, b, c, d, x) <= MAX_BACKWARD_ERROR
}

/// The planted fault: one solution entry moved by 1.0. Used by
/// `--plant-fault` on a delivered answer and by every run's oracle
/// self-check on a copy of one.
pub fn corrupt(x: &mut [f32]) {
    let mid = x.len() / 2;
    x[mid] += 1.0;
}
