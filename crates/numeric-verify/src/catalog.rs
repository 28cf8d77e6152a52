//! The certified catalog: memoized analysis verdicts plus the per-key
//! sampled-verification policy the dispatch layer consults on each flush.
//!
//! ## The sampled-verification contract
//!
//! * A key is analyzed **exactly once**, by its first `observe`; the
//!   verdict is memoized under its [`MatrixKey`]. The service calls
//!   `observe` only from a key's second sighting on (a repeat flush, or
//!   a flush holding several systems of the key), so keys seen once are
//!   never analyzed; once analyzed, a key is observed on every flush.
//! * Certified keys downgrade the per-answer residual verify to 1-in-K
//!   sampling: the first flush of a certified key is always `Sampled`
//!   (an immediate end-to-end validation), then every K-th flush after
//!   that. Sampling is a deterministic function of the per-key flush
//!   counter — no randomness — so fault-injection replay still catches
//!   bit-flips at exactly the same flushes every run.
//! * `Skip`ped answers keep the O(n) NaN/Inf guard and report the
//!   certificate's a-priori forward-error bound in place of a measured
//!   residual.
//! * Any corruption caught on a verified flush of a certified key
//!   [`CertifiedCatalog::revoke`]s the certificate permanently: the key
//!   returns to `Full` verification for the life of the process.

use crate::analyze::analyze;
use parking_lot::Mutex;
use std::collections::HashMap;
use tridiag_core::{MatrixKey, NumericCertificate, Real, TridiagonalSystem};

/// How much verification one flush of one key must pay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyDecision {
    /// Full per-answer residual verify + repair (uncertified or revoked).
    Full,
    /// This flush is a deterministic 1-in-K sample: full verify, with a
    /// condition-informed acceptance threshold.
    Sampled,
    /// Residual verify skipped; only the NaN/Inf guard runs.
    Skip,
}

/// What the catalog tells dispatch about one flush of one key.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// The key's certificate (possibly `Uncertified`).
    pub certificate: NumericCertificate,
    /// `true` exactly when this call performed the (once-per-key)
    /// analysis — the trigger for a `CertIssued` trace event.
    pub newly_analyzed: bool,
    /// Condition-estimator invocations performed by this call (0 on a
    /// memoized hit).
    pub condest_calls: u64,
    /// Verification policy for this flush.
    pub decision: VerifyDecision,
    /// A-priori forward-error bound `κ₁·ε·n` (`+∞` when uncertified).
    pub forward_error_bound: f64,
    /// Hager condition estimate (`+∞` when unavailable).
    pub kappa1: f64,
}

#[derive(Debug)]
struct Entry {
    certificate: NumericCertificate,
    forward_error_bound: f64,
    kappa1: f64,
    flushes: u64,
    revoked: bool,
}

/// Aggregate catalog counters (for metrics and gates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Keys analyzed (certified or not).
    pub analyzed: u64,
    /// Keys holding a live (non-revoked) certificate.
    pub certified: u64,
    /// Certificates revoked after a caught corruption.
    pub revoked: u64,
}

/// Thread-safe memoized certificate store + sampling policy.
///
/// Mirrors `kernel_verify::VerifiedCatalog`: shared via `Arc` between the
/// service configuration and every dispatch worker.
#[derive(Debug)]
pub struct CertifiedCatalog {
    entries: Mutex<HashMap<MatrixKey, Entry>>,
    sample_period: u64,
}

/// Default 1-in-K sampling period for certified keys.
pub const DEFAULT_SAMPLE_PERIOD: u64 = 8;

impl Default for CertifiedCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl CertifiedCatalog {
    /// Catalog with the default 1-in-8 sampling period.
    pub fn new() -> Self {
        Self::with_sample_period(DEFAULT_SAMPLE_PERIOD as usize)
    }

    /// Catalog sampling 1-in-`k` flushes of certified keys (`k` is
    /// clamped to at least 1; `k == 1` means every flush is verified).
    pub fn with_sample_period(k: usize) -> Self {
        CertifiedCatalog { entries: Mutex::new(HashMap::new()), sample_period: (k as u64).max(1) }
    }

    /// The 1-in-K period this catalog samples at.
    pub fn sample_period(&self) -> u64 {
        self.sample_period
    }

    /// Records one flush of `key`: analyzes the system on the first call
    /// for `key` (memoized thereafter), advances the key's deterministic
    /// flush counter, and returns the verification policy for this flush.
    pub fn observe<T: Real>(&self, key: MatrixKey, system: &TridiagonalSystem<T>) -> Observation {
        let mut entries = self.entries.lock();
        let mut newly_analyzed = false;
        let mut condest_calls = 0;
        let entry = entries.entry(key).or_insert_with(|| {
            let analysis = analyze(system);
            newly_analyzed = true;
            condest_calls = analysis.condest_calls;
            Entry {
                certificate: analysis.certificate,
                forward_error_bound: analysis.forward_error_bound,
                kappa1: analysis.kappa1,
                flushes: 0,
                revoked: false,
            }
        });
        let decision = if entry.revoked || !entry.certificate.is_certified() {
            VerifyDecision::Full
        } else {
            entry.flushes += 1;
            if (entry.flushes - 1).is_multiple_of(self.sample_period) {
                VerifyDecision::Sampled
            } else {
                VerifyDecision::Skip
            }
        };
        Observation {
            certificate: if entry.revoked {
                NumericCertificate::Uncertified
            } else {
                entry.certificate
            },
            newly_analyzed,
            condest_calls,
            decision,
            forward_error_bound: entry.forward_error_bound,
            kappa1: entry.kappa1,
        }
    }

    /// The memoized certificate for `key`, if it has been analyzed
    /// (revoked keys read as `Uncertified`).
    pub fn certificate(&self, key: &MatrixKey) -> Option<NumericCertificate> {
        let entries = self.entries.lock();
        entries.get(key).map(|e| {
            if e.revoked {
                NumericCertificate::Uncertified
            } else {
                e.certificate
            }
        })
    }

    /// Permanently revokes `key`'s certificate after a caught
    /// corruption. Returns `true` when a live certificate was actually
    /// revoked (idempotent thereafter).
    pub fn revoke(&self, key: &MatrixKey) -> bool {
        let mut entries = self.entries.lock();
        match entries.get_mut(key) {
            Some(e) if !e.revoked && e.certificate.is_certified() => {
                e.revoked = true;
                true
            }
            _ => false,
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> CatalogStats {
        let entries = self.entries.lock();
        let mut stats = CatalogStats { analyzed: entries.len() as u64, ..Default::default() };
        for e in entries.values() {
            if e.revoked {
                stats.revoked += 1;
            } else if e.certificate.is_certified() {
                stats.certified += 1;
            }
        }
        stats
    }

    /// Number of analyzed keys.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// `true` when no key has been analyzed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tridiag_core::{Generator, Workload};

    fn dominant(seed: u64, n: usize) -> (MatrixKey, TridiagonalSystem<f32>) {
        let s: TridiagonalSystem<f32> =
            Generator::new(seed).system(Workload::DiagonallyDominant, n);
        (MatrixKey::of_system(&s), s)
    }

    #[test]
    fn analysis_happens_exactly_once_per_key() {
        let catalog = CertifiedCatalog::new();
        let (key, s) = dominant(1, 64);
        let first = catalog.observe(key, &s);
        assert!(first.newly_analyzed);
        assert_eq!(first.condest_calls, 1);
        assert!(first.certificate.is_certified());
        let second = catalog.observe(key, &s);
        assert!(!second.newly_analyzed);
        assert_eq!(second.condest_calls, 0);
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn sampling_is_first_flush_then_one_in_k() {
        let catalog = CertifiedCatalog::with_sample_period(4);
        let (key, s) = dominant(2, 64);
        let decisions: Vec<VerifyDecision> =
            (0..9).map(|_| catalog.observe(key, &s).decision).collect();
        use VerifyDecision::*;
        assert_eq!(decisions, vec![Sampled, Skip, Skip, Skip, Sampled, Skip, Skip, Skip, Sampled]);
    }

    #[test]
    fn uncertified_keys_always_pay_full_verification() {
        let catalog = CertifiedCatalog::new();
        let s: TridiagonalSystem<f32> = Generator::new(3).system(Workload::RandomGeneral, 64);
        let key = MatrixKey::of_system(&s);
        for _ in 0..5 {
            let obs = catalog.observe(key, &s);
            if !obs.certificate.is_certified() {
                assert_eq!(obs.decision, VerifyDecision::Full);
                assert!(obs.forward_error_bound.is_infinite());
            }
        }
    }

    #[test]
    fn revocation_is_permanent_and_idempotent() {
        let catalog = CertifiedCatalog::with_sample_period(4);
        let (key, s) = dominant(4, 64);
        assert_ne!(catalog.observe(key, &s).decision, VerifyDecision::Full);
        assert!(catalog.revoke(&key));
        assert!(!catalog.revoke(&key), "second revoke must be a no-op");
        for _ in 0..6 {
            let obs = catalog.observe(key, &s);
            assert_eq!(obs.decision, VerifyDecision::Full);
            assert_eq!(obs.certificate, NumericCertificate::Uncertified);
        }
        let stats = catalog.stats();
        assert_eq!((stats.analyzed, stats.certified, stats.revoked), (1, 0, 1));
    }

    #[test]
    fn sample_period_one_verifies_every_flush() {
        let catalog = CertifiedCatalog::with_sample_period(1);
        let (key, s) = dominant(5, 32);
        for _ in 0..4 {
            assert_eq!(catalog.observe(key, &s).decision, VerifyDecision::Sampled);
        }
    }
}
