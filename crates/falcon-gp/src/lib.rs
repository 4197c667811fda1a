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

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod acquisition;
pub mod gp;
pub mod hedge;
pub mod kernel;
pub mod linalg;
pub mod normal;
pub mod sweep;

pub use acquisition::{Acquisition, AcquisitionKind};
pub use gp::{GpError, GpRegressor, PredictScratch};
pub use hedge::GpHedge;
pub use kernel::{KernelRowScratch, Matern52};
pub use linalg::{LinalgError, Matrix};
pub use sweep::{AscentPlan, AscentScratch, Lattice, LineLattice, SweepCache};
