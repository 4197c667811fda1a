//! Offline warm-start value tables fit from synthetic traces.
//!
//! The warm-start mode reuses the HARP synthetic-log machinery of
//! `falcon-baselines`: a [`HarpHistory`] summarizes what a production
//! corpus believes about a path class (target throughput, preferred p/pp,
//! concurrency ceiling). From it we synthesize probe logs on that
//! environment — a saturating response curve with a loss ramp beyond the
//! knee and seeded multiplicative noise — score them with the Eq 4
//! utility, and average per lattice arm. The result is the bandit's
//! initial value table, held weakly (count 1) so online observations and
//! the drift gate can overrule it when the live environment disagrees.

use falcon_baselines::HarpHistory;
use falcon_core::{ProbeMetrics, TransferSettings, UtilityFunction};

use crate::{concurrency_lattice, SplitMix64};

/// Noisy synthetic probes per arm that [`WarmTable::fit`] averages.
const SAMPLES: u32 = 24;

/// A fitted per-arm value table: the offline prior of `rl-warm`.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmTable {
    /// Lattice arm concurrencies with their fitted mean utility.
    pub entries: Vec<(u32, f64)>,
}

impl WarmTable {
    /// Fit a table for concurrency `[1, max_concurrency]` from synthetic
    /// traces of `history`'s environment: `SAMPLES` (24) noisy probes per arm
    /// on the corpus response curve, averaged under the Eq 4 utility.
    /// Deterministic in `(history, max_concurrency, seed)`.
    #[must_use]
    pub fn fit(history: &HarpHistory, max_concurrency: u32, seed: u64) -> Self {
        let arms = concurrency_lattice(max_concurrency);
        let mut rng = SplitMix64::new(seed);
        let utility = UtilityFunction::falcon_default();
        // The corpus knee: the concurrency where the target saturates.
        let knee = f64::from(history.max_concurrency.clamp(1, 10));
        let per_conn = history.target_mbps / knee;
        let entries = arms
            .into_iter()
            .map(|cc| {
                let arm = TransferSettings::with_concurrency(cc);
                let n = f64::from(cc);
                let clean = (per_conn * n).min(history.target_mbps);
                let loss = if n > knee {
                    (0.003 * (n - knee)).min(0.2)
                } else {
                    0.0
                };
                let mut sum = 0.0;
                for _ in 0..SAMPLES {
                    let noise = 1.0 + 0.1 * (rng.next_f64() * 2.0 - 1.0);
                    let m = ProbeMetrics::from_aggregate(arm, clean * noise, loss, 5.0);
                    sum += utility.evaluate(&m);
                }
                (cc, sum / f64::from(SAMPLES))
            })
            .collect();
        WarmTable { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_is_deterministic() {
        let h = HarpHistory::ten_gig_corpus();
        assert_eq!(WarmTable::fit(&h, 64, 7), WarmTable::fit(&h, 64, 7));
    }

    #[test]
    fn fit_prefers_the_knee_region() {
        let t = WarmTable::fit(&HarpHistory::ten_gig_corpus(), 64, 7);
        let (best, _) = t.entries.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
        assert!((6..=16).contains(best), "argmax at cc={best}");
    }
}
