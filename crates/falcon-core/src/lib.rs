//! Falcon's core: game-theory-inspired utility functions and online
//! optimizers for high-speed file-transfer tuning (SC '21, §3).
//!
//! Falcon treats the end-to-end transfer system as a black box. Each probe
//! interval (3–5 s) it observes aggregate throughput, per-thread throughput
//! and packet-loss rate for the current setting, converts them to a scalar
//! **utility**, and feeds the utility to an **online search algorithm** that
//! proposes the next setting:
//!
//! - [`utility`] — Equations 1–4 and 7 of the paper, including the novel
//!   nonlinear concurrency regret `n·t/Kⁿ − n·t·L·B` (Eq 4) whose strict
//!   concavity (for `n < 2/ln K`, Eq 5) guarantees convergence to a fair
//!   Nash equilibrium among competing transfers.
//! - [`hill_climbing`] — ±1 search with a 3% improvement threshold.
//! - [`gradient`] — online gradient descent with probe-based gradients
//!   (`n−1`, `n+1`) and a monotonically growing confidence factor θ.
//! - [`bayesian`] — Bayesian optimization over a Gaussian-process surrogate
//!   (20-observation window, 3 random initial samples, GP-Hedge acquisition
//!   portfolio): one search loop over a candidate space, the concurrency
//!   line or [`bayesian_mp`]'s connection-capped `(cc, p)` grid (§4.6).
//! - [`conjugate`] — conjugate gradient descent for multi-parameter tuning
//!   (concurrency × parallelism × pipelining, §4.4).
//! - [`golden_section`] and [`stochastic`] — the related-work searches the
//!   paper compares against in §5 (GridFTP-APT's Golden Section Search and
//!   ProbData's stochastic approximation), implemented so the experiment
//!   suite can demonstrate their adaptivity and convergence-speed gaps.
//! - [`agent`] — the controller loop gluing a utility to an optimizer.
//!
//! A search never stops and is never cold-restarted: it adapts to a changed
//! environment on its own (the paper's requirement), and the runner's
//! watchdog keeps its learned state across a process restart. Constructors
//! take what callers set — a concurrency bound or [`SearchBounds`], and for
//! Bayesian optimization a seed, the §4.6 initial ceiling and the connection
//! cap; each algorithm's remaining tuning values are documented constants
//! beside the code that reads them.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

pub mod agent;
pub mod bayesian;
pub mod bayesian_mp;
pub mod conjugate;
pub mod golden_section;
pub mod gradient;
pub mod hill_climbing;
pub mod metrics;
pub mod optimizer;
pub mod settings;
pub mod stochastic;
pub mod surrogate;
pub mod utility;

pub use agent::FalconAgent;
pub use bayesian::{BayesianOptimizer, BoParams};
pub use bayesian_mp::{BayesianMpOptimizer, BoMpParams};
pub use conjugate::ConjugateGradientOptimizer;
pub use golden_section::GoldenSectionOptimizer;
pub use gradient::GradientDescentOptimizer;
pub use hill_climbing::HillClimbingOptimizer;
pub use metrics::ProbeMetrics;
pub use optimizer::{Observation, OnlineOptimizer};
pub use settings::{SearchBounds, TransferSettings};
pub use stochastic::SpsaOptimizer;
pub use utility::{best_response, best_response_equilibrium, UtilityFunction};

/// The optimizer unit tests' probe loop and throughput curves.
#[cfg(test)]
pub(crate) mod testkit {
    use crate::{Observation, OnlineOptimizer, ProbeMetrics, TransferSettings, UtilityFunction};

    /// Drive `opt` for `probes` noise-free probes: `f` gives the aggregate
    /// Mbps at the proposed settings and `utility` scores it. Returns
    /// `read(opt, decision)` for each decision, taken right after it.
    pub(crate) fn drive_with<O: OnlineOptimizer, T>(
        opt: &mut O,
        utility: UtilityFunction,
        f: impl Fn(TransferSettings) -> f64,
        probes: usize,
        read: impl Fn(&O, TransferSettings) -> T,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(probes);
        let mut s = opt.initial();
        for _ in 0..probes {
            let m = ProbeMetrics::from_aggregate(s, f(s), 0.0, 5.0);
            s = opt.next(&Observation {
                settings: m.settings,
                utility: utility.evaluate(&m),
                metrics: m,
            });
            out.push(read(opt, s));
        }
        out
    }

    /// [`drive_with`] on a concurrency curve under Eq 4: the visited
    /// concurrency trace.
    pub(crate) fn drive<O: OnlineOptimizer>(
        opt: &mut O,
        f: impl Fn(u32) -> f64,
        probes: usize,
    ) -> Vec<u32> {
        let eq4 = UtilityFunction::falcon_default();
        drive_with(opt, eq4, |s| f(s.concurrency), probes, |_, s| s.concurrency)
    }

    /// Emulab-10-like aggregate: 100 Mbps per process, 1 Gbps link.
    pub(crate) fn emulab10(n: u32) -> f64 {
        f64::from(n) * 100.0f64.min(1000.0 / f64::from(n))
    }

    /// Emulab-48-like aggregate: 21 Mbps per process up to 48.
    pub(crate) fn emulab48(n: u32) -> f64 {
        f64::from(n) * 21.0f64.min(1008.0 / f64::from(n))
    }
}
