//! The Falcon agent: utility function + online optimizer + probe loop glue.

use crate::bayesian::{BayesianOptimizer, BoParams};
use crate::conjugate::ConjugateGradientOptimizer;
use crate::gradient::GradientDescentOptimizer;
use crate::hill_climbing::HillClimbingOptimizer;
use crate::metrics::ProbeMetrics;
use crate::optimizer::{Observation, OnlineOptimizer};
use crate::settings::{SearchBounds, TransferSettings};
use crate::utility::UtilityFunction;

/// One Falcon transfer agent. Owns the utility function and the online
/// search algorithm; the transfer harness calls [`FalconAgent::observe`]
/// once per probe interval and applies the returned settings.
///
/// # Examples
///
/// Drive an agent against any black box that yields throughput/loss
/// observations:
///
/// ```
/// use falcon_core::{FalconAgent, ProbeMetrics, TransferSettings};
///
/// let mut agent = FalconAgent::gradient_descent(32);
/// let mut settings = agent.initial_settings();
/// for _ in 0..40 {
///     // A synthetic system: 100 Mbps per transfer, saturating at 10.
///     let cc = settings.concurrency;
///     let throughput = f64::from(cc) * 100.0f64.min(1000.0 / f64::from(cc));
///     let metrics = ProbeMetrics::from_aggregate(settings, throughput, 0.0, 5.0);
///     settings = agent.observe(metrics);
/// }
/// assert!((8..=13).contains(&settings.concurrency));
/// ```
pub struct FalconAgent {
    utility: UtilityFunction,
    optimizer: Box<dyn OnlineOptimizer>,
}

impl FalconAgent {
    /// Agent with an explicit utility and optimizer.
    pub fn new(utility: UtilityFunction, optimizer: Box<dyn OnlineOptimizer>) -> Self {
        FalconAgent { utility, optimizer }
    }

    /// Falcon with Gradient Descent and the default Eq 4 utility — the
    /// configuration the paper recommends for shared networks (§4.5).
    pub fn gradient_descent(max_concurrency: u32) -> Self {
        FalconAgent::new(
            UtilityFunction::falcon_default(),
            Box::new(GradientDescentOptimizer::new(max_concurrency)),
        )
    }

    /// Falcon with Bayesian Optimization (seeded for reproducibility).
    pub fn bayesian(max_concurrency: u32, seed: u64) -> Self {
        FalconAgent::new(
            UtilityFunction::falcon_default(),
            Box::new(BayesianOptimizer::new(
                BoParams::new(max_concurrency).with_seed(seed),
            )),
        )
    }

    /// Falcon with Hill Climbing (the paper's slow baseline search).
    pub fn hill_climbing(max_concurrency: u32) -> Self {
        FalconAgent::new(
            UtilityFunction::falcon_default(),
            Box::new(HillClimbingOptimizer::new(max_concurrency)),
        )
    }

    /// Falcon_MP: multi-parameter tuning with conjugate gradient descent and
    /// the Eq 7 utility (§4.4).
    pub fn multi_parameter(bounds: SearchBounds) -> Self {
        FalconAgent::new(
            UtilityFunction::falcon_multi_param(),
            Box::new(ConjugateGradientOptimizer::new(bounds)),
        )
    }

    /// First setting to probe.
    pub fn initial_settings(&self) -> TransferSettings {
        self.optimizer.initial()
    }

    /// Consume one probe's metrics, return the next settings to apply.
    pub fn observe(&mut self, metrics: ProbeMetrics) -> TransferSettings {
        let utility = self.utility.evaluate(&metrics);
        self.optimizer.next(&Observation {
            settings: metrics.settings,
            utility,
            metrics,
        })
    }

    /// The utility function in use.
    pub fn utility(&self) -> UtilityFunction {
        self.utility
    }

    /// The optimizer's name, for logs.
    pub fn optimizer_name(&self) -> &'static str {
        self.optimizer.name()
    }

    /// Install a tracer on the underlying optimizer so its decision events
    /// (per-candidate utility breakdowns) land in the trace log.
    pub fn set_tracer(&mut self, tracer: falcon_trace::Tracer) {
        self.optimizer.set_tracer(tracer);
    }

    /// Heap bytes the agent holds: its boxed optimizer and everything that
    /// owns ([`OnlineOptimizer::memory_bytes`]). The agent's own struct is
    /// its owner's to count.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.optimizer) + self.optimizer.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(agent: &mut FalconAgent, cc: u32, thr: f64) -> TransferSettings {
        let m = ProbeMetrics::from_aggregate(TransferSettings::with_concurrency(cc), thr, 0.0, 5.0);
        agent.observe(m)
    }

    #[test]
    fn gd_agent_converges_on_synthetic_landscape() {
        let mut agent = FalconAgent::gradient_descent(100);
        let mut cc = agent.initial_settings().concurrency;
        for _ in 0..60 {
            let thr = f64::from(cc) * 21.0f64.min(1008.0 / f64::from(cc));
            cc = probe(&mut agent, cc, thr).concurrency;
        }
        assert!((42..=56).contains(&cc), "ended at {cc}");
    }

    #[test]
    fn constructors_set_expected_optimizers() {
        assert_eq!(
            FalconAgent::gradient_descent(8).optimizer_name(),
            "gradient-descent"
        );
        assert_eq!(
            FalconAgent::bayesian(8, 1).optimizer_name(),
            "bayesian-optimization"
        );
        assert_eq!(
            FalconAgent::hill_climbing(8).optimizer_name(),
            "hill-climbing"
        );
        assert_eq!(
            FalconAgent::multi_parameter(SearchBounds::multi_parameter(8, 4, 8)).optimizer_name(),
            "conjugate-gradient"
        );
    }

    #[test]
    fn multi_parameter_agent_uses_eq7() {
        let agent = FalconAgent::multi_parameter(SearchBounds::multi_parameter(8, 4, 8));
        assert_eq!(agent.utility(), UtilityFunction::falcon_multi_param());
    }
}
