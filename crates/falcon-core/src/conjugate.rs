//! Conjugate Gradient Descent for multi-parameter optimization (§4.4).
//!
//! When Falcon tunes *concurrency*, *parallelism* and *pipelining* together
//! (Falcon_MP), the search space is a 3-D integer box and the utility (Eq 7)
//! is no longer strictly concave. The paper adopts conjugate gradient
//! descent (Dai–Yuan β) for an efficient multi-parameter search. Gradients
//! are estimated by coordinate probes (±1 around the center in each
//! dimension — six sample transfers per round, which is why Falcon_MP takes
//! up to 3× longer to converge than the single-parameter search).

use crate::optimizer::{Observation, OnlineOptimizer};
use crate::settings::{SearchBounds, TransferSettings};

/// Starting point.
const START: TransferSettings = TransferSettings {
    concurrency: 2,
    parallelism: 1,
    pipelining: 1,
};

/// Initial confidence factor θ₀.
const THETA0: f64 = 1.0;

/// Multiplicative growth of θ on consistent descent direction.
const THETA_GROWTH: f64 = 2.0;

/// Cap on θ.
const THETA_MAX: f64 = 8.0;

/// Scale applied to relative slopes when stepping.
const STEP_GAIN: f64 = 2.0;

/// Relative slope magnitude treated as noise.
const MIN_REL_SLOPE: f64 = 0.004;

/// Which probe of the round we are waiting for.
#[derive(Debug, Clone, Copy)]
struct ProbePlan {
    dim: usize,
    high: bool,
}

/// Conjugate Gradient Descent optimizer state.
#[derive(Debug, Clone)]
pub struct ConjugateGradientOptimizer {
    /// Search bounds (3-D box).
    bounds: SearchBounds,
    center: TransferSettings,
    plan_idx: usize,
    /// Utilities of the low/high probes per dimension for this round.
    lows: [f64; 3],
    highs: [f64; 3],
    prev_gradient: Option<[f64; 3]>,
    prev_direction: [f64; 3],
    theta: f64,
}

const PLANS: [ProbePlan; 6] = [
    ProbePlan {
        dim: 0,
        high: false,
    },
    ProbePlan { dim: 0, high: true },
    ProbePlan {
        dim: 1,
        high: false,
    },
    ProbePlan { dim: 1, high: true },
    ProbePlan {
        dim: 2,
        high: false,
    },
    ProbePlan { dim: 2, high: true },
];

impl ConjugateGradientOptimizer {
    /// New search over the 3-D box `bounds`.
    pub fn new(bounds: SearchBounds) -> Self {
        ConjugateGradientOptimizer {
            center: bounds.clamp(START),
            plan_idx: 0,
            lows: [0.0; 3],
            highs: [0.0; 3],
            prev_gradient: None,
            prev_direction: [0.0; 3],
            theta: THETA0,
            bounds,
        }
    }

    /// Current center of the search.
    pub fn center(&self) -> TransferSettings {
        self.center
    }

    fn dim_bounds(&self, dim: usize) -> (u32, u32) {
        match dim {
            0 => self.bounds.concurrency,
            1 => self.bounds.parallelism,
            _ => self.bounds.pipelining,
        }
    }

    fn dim_value(s: TransferSettings, dim: usize) -> u32 {
        match dim {
            0 => s.concurrency,
            1 => s.parallelism,
            _ => s.pipelining,
        }
    }

    fn with_dim(mut s: TransferSettings, dim: usize, v: u32) -> TransferSettings {
        match dim {
            0 => s.concurrency = v,
            1 => s.parallelism = v,
            _ => s.pipelining = v,
        }
        s
    }

    fn probe_for(&self, plan: ProbePlan) -> TransferSettings {
        let (lo, hi) = self.dim_bounds(plan.dim);
        let v = Self::dim_value(self.center, plan.dim);
        let v = if plan.high {
            (v + 1).min(hi)
        } else {
            v.saturating_sub(1).max(lo)
        };
        Self::with_dim(self.center, plan.dim, v)
    }

    /// Finish the round: compute the conjugate direction and move the center.
    #[allow(clippy::needless_range_loop)] // three fixed dims, indexed in lockstep
    fn advance_center(&mut self) {
        let mut gradient = [0.0f64; 3];
        for d in 0..3 {
            let denom = self.lows[d].abs().max(1e-9);
            let slope = (self.highs[d] - self.lows[d]) / (2.0 * denom);
            gradient[d] = if slope.abs() >= MIN_REL_SLOPE {
                slope
            } else {
                0.0
            };
            // Pinned dimensions cannot move.
            let (lo, hi) = self.dim_bounds(d);
            if lo == hi {
                gradient[d] = 0.0;
            }
        }

        // Dai–Yuan conjugate direction: d = g + β·d_prev,
        // β = |g|² / (d_prevᵀ·(g − g_prev)).
        let mut direction = gradient;
        if let Some(g_prev) = self.prev_gradient {
            let g_norm2: f64 = gradient.iter().map(|g| g * g).sum();
            let denom: f64 = self
                .prev_direction
                .iter()
                .zip(gradient.iter().zip(g_prev.iter()))
                .map(|(d, (g, gp))| d * (g - gp))
                .sum();
            if denom.abs() > 1e-12 && g_norm2 > 0.0 {
                let beta = (g_norm2 / denom).clamp(0.0, 4.0);
                for d in 0..3 {
                    direction[d] = gradient[d] + beta * self.prev_direction[d];
                }
            }
        }

        // Confidence: grow θ while the new gradient still points along the
        // previous direction.
        let along: f64 = gradient
            .iter()
            .zip(self.prev_direction.iter())
            .map(|(g, d)| g * d)
            .sum();
        if self.prev_gradient.is_some() && along > 0.0 {
            self.theta = (self.theta * THETA_GROWTH).min(THETA_MAX);
        } else {
            self.theta = THETA0;
        }

        let mut next = self.center;
        for d in 0..3 {
            // falcon-lint::allow(float-cmp, reason = "exact-zero sentinel: a direction component is either computed or exactly 0.0")
            if direction[d] == 0.0 {
                continue;
            }
            let v = f64::from(Self::dim_value(self.center, d).max(1));
            let step = (self.theta * STEP_GAIN * direction[d] * v).round() as i64;
            let step = if step == 0 {
                direction[d].signum() as i64
            } else {
                step
            };
            let (lo, hi) = self.dim_bounds(d);
            // An infinite slope (a 10¹² Mbps or ∞ probe) saturates `step`.
            let nv = i64::from(Self::dim_value(self.center, d))
                .saturating_add(step)
                .clamp(i64::from(lo), i64::from(hi)) as u32;
            next = Self::with_dim(next, d, nv);
        }
        self.center = next;
        self.prev_gradient = Some(gradient);
        self.prev_direction = direction;
    }
}

impl OnlineOptimizer for ConjugateGradientOptimizer {
    fn name(&self) -> &'static str {
        "conjugate-gradient"
    }

    fn initial(&self) -> TransferSettings {
        self.probe_for(PLANS[0])
    }

    fn next(&mut self, obs: &Observation) -> TransferSettings {
        let plan = PLANS[self.plan_idx];
        if plan.high {
            self.highs[plan.dim] = obs.utility;
        } else {
            self.lows[plan.dim] = obs.utility;
        }
        self.plan_idx += 1;
        if self.plan_idx == PLANS.len() {
            self.plan_idx = 0;
            self.advance_center();
        }
        self.probe_for(PLANS[self.plan_idx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::drive_with;
    use crate::utility::UtilityFunction;

    /// The centers visited on a landscape `f(cc, p, pp) -> aggregate Mbps`
    /// under Eq 7.
    fn drive(
        opt: &mut ConjugateGradientOptimizer,
        f: impl Fn(TransferSettings) -> f64,
        probes: usize,
    ) -> Vec<TransferSettings> {
        let eq7 = UtilityFunction::falcon_multi_param();
        drive_with(opt, eq7, f, probes, |o, _| o.center())
    }

    /// A landscape where pipelining saves per-file gaps (small files) and
    /// ~10 concurrent streams saturate; parallelism mildly harmful.
    fn small_files(s: TransferSettings) -> f64 {
        let eff = 1.0 - 0.6 / f64::from(s.pipelining.min(8));
        let base = f64::from(s.concurrency.min(10)) * 100.0;
        let p_tax = 1.0 / (1.0 + 0.05 * f64::from(s.parallelism - 1));
        base * eff.max(0.1) * p_tax
    }

    #[test]
    fn raises_pipelining_for_small_files() {
        let bounds = SearchBounds::multi_parameter(32, 8, 16);
        let mut opt = ConjugateGradientOptimizer::new(bounds);
        let centers = drive(&mut opt, small_files, 120);
        let last = centers.last().unwrap();
        assert!(last.pipelining >= 6, "pp stayed at {last}");
        assert!((7..=14).contains(&last.concurrency), "cc ended at {last}");
    }

    #[test]
    fn keeps_parallelism_low_when_it_hurts() {
        let bounds = SearchBounds::multi_parameter(32, 8, 16);
        let mut opt = ConjugateGradientOptimizer::new(bounds);
        let centers = drive(&mut opt, small_files, 120);
        assert!(
            centers.last().unwrap().parallelism <= 2,
            "p ended at {}",
            centers.last().unwrap()
        );
    }

    #[test]
    fn six_probes_per_round() {
        let bounds = SearchBounds::multi_parameter(32, 8, 16);
        let mut opt = ConjugateGradientOptimizer::new(bounds);
        let c0 = opt.center();
        // Five observations do not move the center; the sixth does.
        let centers = drive(&mut opt, small_files, 6);
        for (i, c) in centers[..5].iter().enumerate() {
            assert_eq!(*c, c0, "center moved after {} probes", i + 1);
        }
        assert_ne!(opt.center(), c0, "center should move after a full round");
    }

    #[test]
    fn stays_inside_bounds() {
        let bounds = SearchBounds::multi_parameter(16, 4, 8);
        let mut opt = ConjugateGradientOptimizer::new(bounds);
        let centers = drive(&mut opt, small_files, 150);
        for c in centers {
            assert!(bounds.contains(c), "{c} escaped bounds");
        }
    }

    #[test]
    fn pinned_dimension_never_moves() {
        // Concurrency-only bounds: parallelism and pipelining pinned at 1.
        let bounds = SearchBounds::concurrency_only(32);
        let mut opt = ConjugateGradientOptimizer::new(bounds);
        let centers = drive(&mut opt, |s| f64::from(s.concurrency.min(10)) * 50.0, 90);
        for c in &centers {
            assert_eq!(c.parallelism, 1);
            assert_eq!(c.pipelining, 1);
        }
        assert!(
            (8..=14).contains(&centers.last().unwrap().concurrency),
            "cc ended at {}",
            centers.last().unwrap()
        );
    }
}
