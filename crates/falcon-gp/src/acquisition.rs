//! Acquisition functions for Bayesian optimization (maximization form).

use crate::normal;

/// Which acquisition rule to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquisitionKind {
    /// Expected improvement over the incumbent best.
    ExpectedImprovement,
    /// Probability of improvement over the incumbent best.
    ProbabilityOfImprovement,
    /// Upper confidence bound `μ + κ·σ` (we maximize utility).
    UpperConfidenceBound,
}

impl AcquisitionKind {
    /// The portfolio used by GP-Hedge in the paper's BO implementation.
    pub fn portfolio() -> [AcquisitionKind; 3] {
        [
            AcquisitionKind::ExpectedImprovement,
            AcquisitionKind::ProbabilityOfImprovement,
            AcquisitionKind::UpperConfidenceBound,
        ]
    }

    /// Short name for logs.
    pub fn name(&self) -> &'static str {
        match self {
            AcquisitionKind::ExpectedImprovement => "EI",
            AcquisitionKind::ProbabilityOfImprovement => "PI",
            AcquisitionKind::UpperConfidenceBound => "UCB",
        }
    }
}

/// An acquisition function bound to its parameters.
#[derive(Debug, Clone, Copy)]
pub struct Acquisition {
    /// Rule to use.
    pub kind: AcquisitionKind,
    /// Exploration weight: ξ for EI/PI, κ for UCB.
    pub exploration: f64,
}

impl Acquisition {
    /// Standard defaults: ξ = 0.01·scale for EI/PI, κ = 2 for UCB.
    pub fn with_defaults(kind: AcquisitionKind) -> Self {
        let exploration = match kind {
            AcquisitionKind::UpperConfidenceBound => 2.0,
            _ => 0.01,
        };
        Acquisition { kind, exploration }
    }

    /// Score from an already-computed posterior `(μ, σ)`. This is the
    /// member-specific arithmetic alone — portfolio sweeps compute each
    /// posterior once (see [`crate::sweep::SweepCache`]) and fan it out to
    /// every member through this entry point.
    pub fn score_from(&self, mu: f64, sigma: f64, best_y: f64) -> f64 {
        match self.kind {
            AcquisitionKind::UpperConfidenceBound => mu + self.exploration * sigma,
            AcquisitionKind::ExpectedImprovement => {
                if sigma < 1e-12 {
                    return 0.0;
                }
                let z = (mu - best_y - self.exploration) / sigma;
                (mu - best_y - self.exploration) * normal::cdf(z) + sigma * normal::pdf(z)
            }
            AcquisitionKind::ProbabilityOfImprovement => {
                if sigma < 1e-12 {
                    return if mu > best_y { 1.0 } else { 0.0 };
                }
                normal::cdf((mu - best_y - self.exploration) / sigma)
            }
        }
    }
}

/// Full-scan oracles the local-ascent search of [`crate::sweep`] is tested
/// against.
#[cfg(test)]
impl Acquisition {
    /// Score a candidate point given the surrogate and the incumbent best
    /// observed value. Higher is better.
    pub(crate) fn score(&self, gp: &crate::gp::GpRegressor, x: &[f64], best_y: f64) -> f64 {
        let (mu, var) = gp.predict_into(x, &mut crate::gp::PredictScratch::default());
        self.score_from(mu, var.sqrt(), best_y)
    }

    /// Full-scan argmax over a finite candidate set (ties break toward the
    /// first) — the oracle the local-ascent search of [`crate::sweep`] is
    /// tested against.
    pub(crate) fn argmax(
        &self,
        gp: &crate::gp::GpRegressor,
        candidates: crate::gp::Points<'_>,
        best_y: f64,
    ) -> usize {
        let mut best_i = 0;
        let mut best_s = f64::NEG_INFINITY;
        for (i, c) in candidates.iter().enumerate() {
            let s = self.score(gp, c, best_y);
            if s > best_s {
                best_s = s;
                best_i = i;
            }
        }
        best_i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gp::GpRegressor;
    use crate::kernel::Matern52;

    fn toy_gp() -> GpRegressor {
        // Peak near x = 5 on [0, 10].
        let x = [0.0, 2.0, 5.0, 8.0, 10.0];
        let y = [0.0, 3.0, 5.0, 3.0, 0.0];
        GpRegressor::fit(
            crate::gp::Points::new(&x, 1),
            &y,
            Matern52::new(4.0, 2.0),
            1e-4,
        )
        .unwrap()
    }

    #[test]
    fn ei_nonnegative() {
        let gp = toy_gp();
        let acq = Acquisition::with_defaults(AcquisitionKind::ExpectedImprovement);
        for i in 0..=20 {
            let x = [f64::from(i) * 0.5];
            assert!(acq.score(&gp, &x, 5.0) >= -1e-12);
        }
    }

    #[test]
    fn pi_bounded_unit_interval() {
        let gp = toy_gp();
        let acq = Acquisition::with_defaults(AcquisitionKind::ProbabilityOfImprovement);
        for i in 0..=20 {
            let x = [f64::from(i) * 0.5];
            let s = acq.score(&gp, &x, 3.0);
            assert!((0.0..=1.0).contains(&s), "PI out of range: {s}");
        }
    }

    #[test]
    fn ucb_increases_with_kappa() {
        let gp = toy_gp();
        let lo = Acquisition {
            kind: AcquisitionKind::UpperConfidenceBound,
            exploration: 0.5,
        };
        let hi = Acquisition {
            kind: AcquisitionKind::UpperConfidenceBound,
            exploration: 4.0,
        };
        let x = [3.5];
        assert!(hi.score(&gp, &x, 0.0) > lo.score(&gp, &x, 0.0));
    }

    #[test]
    fn argmax_prefers_region_near_peak() {
        let gp = toy_gp();
        let flat: Vec<f64> = (0..=10).map(f64::from).collect();
        let candidates = crate::gp::Points::new(&flat, 1);
        for kind in AcquisitionKind::portfolio() {
            let acq = Acquisition::with_defaults(kind);
            let i = acq.argmax(&gp, candidates, 4.5);
            let x = candidates.get(i)[0];
            assert!(
                (3.0..=7.0).contains(&x),
                "{} picked x={x}, far from peak",
                kind.name()
            );
        }
    }

    #[test]
    fn ei_zero_when_certain_and_worse() {
        let gp = toy_gp();
        let acq = Acquisition::with_defaults(AcquisitionKind::ExpectedImprovement);
        // At a training point the GP is nearly certain; value 0 vs best 5.
        let s = acq.score(&gp, &[0.0], 5.0);
        assert!(s < 0.05, "EI should be ~0, got {s}");
    }

    #[test]
    fn portfolio_has_three_distinct_members() {
        let p = AcquisitionKind::portfolio();
        assert_eq!(p.len(), 3);
        assert_ne!(p[0], p[1]);
        assert_ne!(p[1], p[2]);
    }
}
