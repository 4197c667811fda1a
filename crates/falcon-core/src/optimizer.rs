//! The online-optimizer interface shared by all search algorithms.

use falcon_trace::Tracer;

use crate::metrics::ProbeMetrics;
use crate::settings::TransferSettings;

/// One completed probe: the setting that was tested, the raw metrics, and
/// the utility the agent's utility function assigned to them.
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// Setting that was probed.
    pub settings: TransferSettings,
    /// Scalar utility of the probe.
    pub utility: f64,
    /// Raw metrics behind the utility.
    pub metrics: ProbeMetrics,
}

/// An online search algorithm: consumes one observation per probe interval
/// and proposes the next setting to test. Implementations keep searching
/// forever (the paper's requirement for adapting to dynamic conditions) —
/// there is no "done" state.
pub trait OnlineOptimizer: Send {
    /// Algorithm name for experiment logs.
    fn name(&self) -> &'static str;

    /// The setting the optimizer wants probed first.
    fn initial(&self) -> TransferSettings;

    /// Consume an observation, return the next setting to probe.
    fn next(&mut self, obs: &Observation) -> TransferSettings;

    /// Install a tracer for decision events. Default: ignore (optimizers
    /// that do not emit decision events need no storage for it).
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Heap bytes the optimizer's state holds beyond its own struct, by
    /// allocation capacity (a shared tracer is not its own).
    fn memory_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::TransferSettings;

    /// The trait must be object safe — agents hold `Box<dyn OnlineOptimizer>`.
    struct Fixed;
    impl OnlineOptimizer for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn initial(&self) -> TransferSettings {
            TransferSettings::with_concurrency(2)
        }
        fn next(&mut self, _obs: &Observation) -> TransferSettings {
            TransferSettings::with_concurrency(2)
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn trait_is_object_safe() {
        let b: Box<dyn OnlineOptimizer> = Box::new(Fixed);
        assert_eq!(b.name(), "fixed");
        assert_eq!(b.initial().concurrency, 2);
    }
}
