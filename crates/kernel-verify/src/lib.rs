//! # kernel-verify
//!
//! Static verification of the GPU solver kernels, replacing per-launch
//! dynamic sanitizing with per-*family* proofs (DESIGN.md §11).
//!
//! The paper's kernels (CR, PCR, RD, the hybrids) have purely *affine*
//! access patterns: every shared/global index is `α·tid + β·ordinal + γ`
//! (plus a per-block offset for global arrays), with a handful of clamped
//! boundary lanes. That shape makes the sanitizer's whole error class —
//! write-write races, buffered-store/read hazards, out-of-bounds,
//! uninitialized reads, barrier-phase divergence — decidable *once per
//! (solver, n, element width)* instead of observed per launch, and makes
//! the bank-conflict degree of every step derivable as a function of `n`
//! (Figure 9, analytically).
//!
//! ## How a proof is built
//!
//! 1. **Shadow capture** ([`gpu_sim::BlockCtx::shadowed`]): the kernel runs
//!    concretely a bounded number of times — two data seeds, two batch
//!    counts, three sampled blocks (first, second, last) — with every
//!    access logged as `(tid, site, array, index, in_bounds)`.
//! 2. **Generalization**: the captures must agree on a *skeleton* —
//!    identical steps, sites and indices across seeds (data independence),
//!    identical per-block shared indices (barrier-phase/block consistency),
//!    per-array constant global deltas linear in the block id, and global
//!    array lengths affine in the batch count. Each agreement turns the
//!    concrete capture into a model valid for **all** blocks and counts;
//!    any disagreement degrades the verdict to [`ProofStatus::Unproven`]
//!    with the reason — never a false proof.
//! 3. **Exhaustive discharge**: on the modeled block, every check runs
//!    over *all* threads (the block dimension is ≤ 512, so the GPUVerify
//!    two-thread abstraction's distinctness obligations are instantiated
//!    exhaustively rather than symbolically), and the global-memory
//!    obligations are closed under the block/count model by a corner
//!    argument (`delta ≤ slope` and the block-0 extent within the
//!    single-system allocation).
//! 4. **Affine classification**: every access site must fit an affine (or
//!    boundary-clamped piecewise-affine) model in `(tid, ordinal)`. A site
//!    that does not — a data-dependent or count-dependent index — makes the
//!    whole verdict `Unproven` even when the concrete checks passed: the
//!    declared soundness boundary.
//!
//! Verdicts feed the [`VerifiedCatalog`], through which a solver-service
//! plan cache admits only statically-proven engines to its autotune
//! tournament, and the `repro prove` CI gate.

#![warn(missing_docs)]

pub mod affine;
pub mod catalog;
pub mod engine;
pub mod verdict;

pub use affine::{analytic_bank_degree, SiteModel};
pub use catalog::VerifiedCatalog;
pub use engine::{verify_block_cr, verify_fixture, verify_launch, verify_solver, VerifyOptions};
pub use verdict::{ProofStatus, SizeVerdict, StaticFinding, StepSummary};
