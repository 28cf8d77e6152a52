//! # cpu-solvers
//!
//! CPU baselines of the paper's evaluation plus sequential reference
//! implementations of the parallel algorithms:
//!
//! * [`thomas`] — the Thomas algorithm (the "GE" baseline);
//! * [`gep`] — Gaussian elimination with partial pivoting (LAPACK `sgtsv`
//!   equivalent, the "GEP" baseline);
//! * [`mt`] — the multi-threaded batch solver (the "MT" baseline, OpenMP in
//!   the paper);
//! * [`mod@reference`] — plain sequential CR / PCR / RD used to validate the
//!   GPU kernels' algebra independently of the simulator.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod batch_soa;
pub mod block_thomas;
pub mod condest;
pub mod cyclic;
pub mod factored;
pub mod gep;
pub mod mt;
pub mod partition;
pub mod pivot_bounds;
pub mod reference;
pub mod thomas;

pub use batch::{solve_batch_seq, Gep, SystemSolver, Thomas};
pub use batch_soa::solve_batch_soa;
pub use condest::{inverse_norm1_estimate, lu_inverse_norm1_estimate, norm1};
pub use factored::ThomasFactors;
pub use mt::{MtSolver, Schedule};
pub use pivot_bounds::{positive_pivot_floor, thomas_pivot_floor};
pub use reference::rd::RdVariant;
