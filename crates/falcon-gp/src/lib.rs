//! From-scratch Gaussian-process regression for Falcon's Bayesian optimizer.
//!
//! The paper's Bayesian Optimization search (§3.2) uses a Gaussian Process
//! surrogate over the utility-vs-concurrency function, limited to the last
//! 20 observations so that (i) changing system conditions are forgotten
//! quickly and (ii) the cubic cost of GP inference stays in the
//! milliseconds. Acquisition functions are chosen adaptively by the
//! **GP-Hedge** portfolio algorithm (Hoffman et al., building on the
//! adversarial-bandit Hedge/Exp3 of Auer et al., the paper's reference
//! \[13\]).
//!
//! Everything is implemented here from first principles on dense `f64`
//! matrices: Cholesky factorization, triangular solves, the Matérn 5/2 kernel,
//! log marginal likelihood, and a small grid-search hyperparameter fit. The
//! problem dimension for Falcon is 1 (concurrency) to 3 (adding parallelism
//! and pipelining), and the training set is ≤ 20 points, so dense
//! factorizations are the right tool — no BLAS needed.
//!
//! Lanes keep a decision cheap without changing a bit of it.
//! [`GpRegressor::fit_auto`] factors its 12 grid points in lockstep, one
//! packed triangle of `[f64; 12]` lanes, and builds a regressor only for
//! the winner; [`GpRegressor::fit`] is the one-lane case of the same
//! routine. [`GpRegressor::predict_lanes`] solves several posteriors in one
//! forward substitution ([`SweepCache`] fills blocks of four), and
//! [`GpRegressor::predict_into`] is its one-lane case. A 1-D query on the
//! integer lattice reads the kernel from a per-kernel profile table in
//! [`KernelRowScratch`] instead of calling `exp` once per training point.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

pub mod acquisition;
pub mod gp;
pub mod hedge;
pub mod kernel;
pub mod linalg;
pub mod normal;
pub mod sweep;

pub use acquisition::{Acquisition, AcquisitionKind};
pub use gp::{GpError, GpRegressor, Points, PredictScratch};
pub use hedge::GpHedge;
pub use kernel::{KernelRowScratch, Matern52};
pub use linalg::{Cholesky, LinalgError, Matrix};
pub use sweep::{AscentPlan, AscentScratch, Lattice, LineLattice, SweepCache};

/// Heap bytes of a vector's allocation (its capacity, not its length).
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// `v.resize(len, value)`, allocating exactly `len` when it must grow
/// rather than doubling: the per-agent buffers here settle at a window's
/// size, and amortized growth would hold up to twice that for the agent's
/// lifetime.
fn resize_exact<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.reserve_exact(len.saturating_sub(v.len()));
    v.resize(len, value);
}
