//! Simultaneous-perturbation stochastic approximation — the ProbData
//! approach (paper reference \[48\], Yun et al.).
//!
//! ProbData tunes transfer parameters with stochastic approximation: probe
//! a random perturbation around the current point, move along the
//! estimated gradient with a *decaying* gain sequence `a_k = a / (k+A)^α`,
//! and shrink the perturbation as `c_k = c / (k+1)^γ`. The decaying gains
//! give asymptotic convergence guarantees on a *stationary* objective, but
//! they are exactly why the paper dismisses the approach for high-speed
//! transfers: with probe intervals of several seconds, the step sizes
//! become negligible long before the search has crossed a realistic
//! space ("it takes several hours to converge … it may even fail to
//! converge due to large variations in sample transfers", §5).
//!
//! Classic SPSA constants (Spall 1998): `α = 0.602`, `γ = 0.101`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::optimizer::{Observation, OnlineOptimizer};
use crate::settings::{SearchBounds, TransferSettings};

/// Starting concurrency.
const START: u32 = 2;

/// Gain numerator `a` of `a_k = a/(k+A)^α` (Spall's classic constants,
/// scaled for an integer concurrency space).
const A: f64 = 4.0;

/// Gain stability offset `A`.
const BIG_A: f64 = 10.0;

/// Gain decay exponent `α`.
const ALPHA: f64 = 0.602;

/// Perturbation numerator `c` of `c_k = c/(k+1)^γ`.
const C: f64 = 2.0;

/// Perturbation decay exponent `γ`.
const GAMMA: f64 = 0.101;

/// RNG seed for the perturbation signs.
const SEED: u64 = 0x5b5a;

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Waiting for the utility at `center - c_k·Δ`.
    Minus { delta: f64 },
    /// Waiting for the utility at `center + c_k·Δ`.
    Plus { delta: f64, u_minus: f64 },
}

/// SPSA optimizer state.
#[derive(Debug)]
pub struct SpsaOptimizer {
    /// Inclusive concurrency range.
    bounds: (u32, u32),
    rng: StdRng,
    center: f64,
    k: u32,
    phase: Phase,
}

impl SpsaOptimizer {
    /// New concurrency-only search in `[1, max_concurrency]`.
    pub fn new(max_concurrency: u32) -> Self {
        let mut rng = StdRng::seed_from_u64(SEED);
        let delta: f64 = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        SpsaOptimizer {
            bounds: SearchBounds::concurrency_only(max_concurrency).concurrency,
            center: f64::from(START),
            k: 0,
            phase: Phase::Minus { delta },
            rng,
        }
    }

    /// Current (continuous) center of the search.
    pub fn center(&self) -> f64 {
        self.center
    }

    /// Iteration counter `k`.
    pub fn iteration(&self) -> u32 {
        self.k
    }

    fn gain(&self) -> f64 {
        A / (f64::from(self.k) + BIG_A).powf(ALPHA)
    }

    fn perturbation(&self) -> f64 {
        (C / (f64::from(self.k) + 1.0).powf(GAMMA)).max(1.0)
    }

    fn clamp_cc(&self, x: f64) -> u32 {
        let (lo, hi) = self.bounds;
        (x.round() as i64).clamp(i64::from(lo), i64::from(hi)) as u32
    }
}

impl OnlineOptimizer for SpsaOptimizer {
    fn name(&self) -> &'static str {
        "spsa"
    }

    fn initial(&self) -> TransferSettings {
        let delta = match self.phase {
            Phase::Minus { delta } => delta,
            Phase::Plus { delta, .. } => delta,
        };
        TransferSettings::with_concurrency(self.clamp_cc(self.center - self.perturbation() * delta))
    }

    fn next(&mut self, obs: &Observation) -> TransferSettings {
        match self.phase {
            Phase::Minus { delta } => {
                self.phase = Phase::Plus {
                    delta,
                    u_minus: obs.utility,
                };
                TransferSettings::with_concurrency(
                    self.clamp_cc(self.center + self.perturbation() * delta),
                )
            }
            Phase::Plus { delta, u_minus } => {
                let u_plus = obs.utility;
                let c_k = self.perturbation();
                // SPSA gradient estimate (normalized so the gain operates
                // on relative utility change, keeping `a` unit-free).
                let scale = u_minus.abs().max(1e-9);
                let g_hat = (u_plus - u_minus) / (2.0 * c_k * delta) / scale;
                self.center += self.gain() * g_hat * self.center.max(1.0);
                let (lo, hi) = self.bounds;
                self.center = self.center.clamp(f64::from(lo), f64::from(hi));
                self.k += 1;
                let delta: f64 = if self.rng.gen::<bool>() { 1.0 } else { -1.0 };
                self.phase = Phase::Minus { delta };
                TransferSettings::with_concurrency(
                    self.clamp_cc(self.center - self.perturbation() * delta),
                )
            }
        }
    }

    /// All state is inline.
    fn memory_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{drive, emulab48};

    #[test]
    fn moves_toward_the_optimum() {
        let mut opt = SpsaOptimizer::new(100);
        drive(&mut opt, emulab48, 60);
        // It moves the right way — just slowly (the paper's point).
        assert!(
            opt.center() > 10.0,
            "SPSA barely moved: center {}",
            opt.center()
        );
        assert!(
            opt.center() < 40.0,
            "SPSA should still be far from the optimum after 60 probes: {}",
            opt.center()
        );
    }

    #[test]
    fn converges_slower_than_gradient_descent() {
        // The paper's point about ProbData: decaying gains make it far
        // slower than Falcon's searches on the same landscape.
        let mut spsa = SpsaOptimizer::new(100);
        drive(&mut spsa, emulab48, 30);
        let spsa_center = spsa.center();

        let mut gd = crate::gradient::GradientDescentOptimizer::new(100);
        drive(&mut gd, emulab48, 30);
        assert!(
            f64::from(gd.center()) > spsa_center + 5.0,
            "GD {} should be well ahead of SPSA {spsa_center}",
            gd.center()
        );
    }

    #[test]
    fn gain_sequence_decays() {
        let mut opt = SpsaOptimizer::new(100);
        let g0 = opt.gain();
        drive(&mut opt, emulab48, 40);
        assert!(opt.iteration() >= 19);
        assert!(opt.gain() < g0 * 0.75, "{} vs {g0}", opt.gain());
    }

    #[test]
    fn respects_bounds() {
        let mut opt = SpsaOptimizer::new(16);
        let trace = drive(&mut opt, |n| f64::from(n) * 100.0, 60);
        assert!(trace.iter().all(|&c| (1..=16).contains(&c)));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let mut opt = SpsaOptimizer::new(64);
            drive(&mut opt, emulab48, 30)
        };
        assert_eq!(run(), run());
    }
}
