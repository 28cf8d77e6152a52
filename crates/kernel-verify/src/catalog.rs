//! The proof catalog consulted by serving-time planning.
//!
//! [`VerifiedCatalog`] memoizes [`verify_solver`] verdicts per
//! `(algorithm, n, element width)`. A solver-service plan cache built
//! with a catalog asks [`VerifiedCatalog::is_proven`] about every GPU
//! candidate before its autotune tournament runs it: a `Proven` family
//! member competes (the proof covers every launch of the family, not just
//! the first), while `Unproven` and `Violated` kernels are never planned.
//! No kernel is sanitized at serving time; the dynamic sanitizer is a CI
//! and test tool.

use crate::engine::{verify_solver, VerifyOptions};
use crate::verdict::ProofStatus;
use gpu_sim::DeviceConfig;
use gpu_solvers::{verify_family, GpuAlgorithm};
use std::collections::HashMap;
use std::sync::Mutex;
use tridiag_core::Real;

/// Thread-safe, lazily-populated proof memo.
///
/// Keys are the catalog spelling of the algorithm (its `Display` form, the
/// same string the service plans under), the system size, and the element
/// width in bytes.
#[derive(Debug, Default)]
pub struct VerifiedCatalog {
    verdicts: Mutex<HashMap<(String, usize, usize), ProofStatus>>,
}

impl VerifiedCatalog {
    /// An empty catalog verifying with default options on demand.
    pub fn new() -> Self {
        VerifiedCatalog::default()
    }

    /// The proof status of `(alg, n)` at width `T::BYTES` on `device`,
    /// verifying (and caching) on first demand. Sizes outside the declared
    /// family ([`verify_family`]) are `Unproven` without running the
    /// engine — a proof only covers the family it was stated for.
    pub fn status_for<T: Real>(
        &self,
        device: &DeviceConfig,
        alg: GpuAlgorithm,
        n: usize,
    ) -> ProofStatus {
        let key = (alg.to_string(), n, T::BYTES);
        if let Some(&s) = self.verdicts.lock().unwrap().get(&key) {
            return s;
        }
        let status = if verify_family(alg, T::BYTES, device).contains(&n) {
            let opts = VerifyOptions { device: device.clone(), ..VerifyOptions::default() };
            verify_solver::<T>(alg, n, &opts).status
        } else {
            ProofStatus::Unproven
        };
        self.verdicts.lock().unwrap().insert(key, status);
        status
    }

    /// `true` when `(alg, n, T)` is statically proven safe on `device`.
    pub fn is_proven<T: Real>(&self, device: &DeviceConfig, alg: GpuAlgorithm, n: usize) -> bool {
        self.status_for::<T>(device, alg, n) == ProofStatus::Proven
    }

    /// Number of memoized verdicts.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.verdicts.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proven_solver_is_cached_and_reported() {
        let cat = VerifiedCatalog::new();
        let device = DeviceConfig::gtx280();
        assert!(cat.is_proven::<f32>(&device, GpuAlgorithm::Cr, 64));
        assert_eq!(cat.len(), 1);
        // Second query hits the memo (no way to observe directly; the
        // status must at least be stable).
        assert!(cat.is_proven::<f32>(&device, GpuAlgorithm::Cr, 64));
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn out_of_family_sizes_are_unproven_without_verification() {
        let cat = VerifiedCatalog::new();
        let device = DeviceConfig::gtx280();
        // 1024 f32 exceeds the 16 KB shared budget: outside the family.
        assert_eq!(cat.status_for::<f32>(&device, GpuAlgorithm::Cr, 1024), ProofStatus::Unproven);
    }

    #[test]
    fn thomas_is_never_proven() {
        let cat = VerifiedCatalog::new();
        let device = DeviceConfig::gtx280();
        assert!(!cat.is_proven::<f32>(&device, GpuAlgorithm::ThomasPerThread, 64));
    }
}
