//! Property tests for the drift-keyed incremental surrogate cache.
//!
//! The cache's contract is that its *incremental maintenance* (window
//! slides under frozen normalization, refits only on drift) is pure
//! mechanism: at any point in a probe stream, the model it holds must be
//! numerically indistinguishable from a from-scratch fit over the same
//! window at the same hyperparameters and normalization. Hyperparameter
//! *selection* may lag an always-refit oracle — that is the amortization
//! being bought — but the factorization itself must never drift.

use proptest::prelude::*;

use falcon_core::surrogate::CachedSurrogate;
use falcon_gp::{GpRegressor, Points, PredictScratch};

const WINDOW: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive a surrogate down a random probe stream exactly the way the
    /// Bayesian optimizers do (slide when allowed, full refit when the
    /// cache demands one). After every step, an oracle refits from scratch
    /// at the cache's current hyperparameters and frozen normalization
    /// over its current window: the incremental posterior must agree to
    /// 1e-6 everywhere probed.
    #[test]
    fn drift_keyed_surrogate_never_diverges_from_refit_oracle(
        utilities in proptest::collection::vec(0.0f64..2000.0, 12..40),
        ccs in proptest::collection::vec(1u32..64, 12..40),
        q in 1.0f64..64.0,
    ) {
        let n = utilities.len().min(ccs.len());
        let mut history: Vec<(Vec<f64>, f64)> = Vec::new();
        let mut surrogate: Option<CachedSurrogate> = None;
        for i in 0..n {
            let x = vec![f64::from(ccs[i])];
            let y = utilities[i];
            history.push((x.clone(), y));
            if history.len() > WINDOW {
                history.remove(0);
            }
            if history.len() < 3 {
                continue;
            }
            let due = surrogate.as_ref().is_none_or(CachedSurrogate::due_for_refit);
            let refit = |history: &[(Vec<f64>, f64)]| {
                let xs: Vec<f64> = history.iter().flat_map(|(x, _)| x.clone()).collect();
                let ys: Vec<f64> = history.iter().map(|&(_, y)| y).collect();
                CachedSurrogate::fit(Points::new(&xs, 1), &ys, 0.02)
            };
            if due {
                surrogate = refit(&history);
            } else if let Some(s) = surrogate.as_mut() {
                if !s.slide(&x, y, WINDOW) {
                    surrogate = refit(&history);
                }
            }
            let Some(s) = surrogate.as_ref() else { continue };

            // Oracle: from-scratch factorization over the cache's own
            // window, hyperparameters, and normalization.
            let (kernel, noise) = s.gp.hyperparameters();
            let inputs: Vec<f64> = s.gp.inputs().flatten().copied().collect();
            let oracle = GpRegressor::fit(Points::new(&inputs, 1), s.gp.targets(), kernel, noise)
                .expect("oracle refit over the live window must succeed");
            for probe in [q, 1.0, 32.0, 64.0] {
                let (im, iv) = s.gp.predict_into(&[probe], &mut PredictScratch::default());
                let (om, ov) = oracle.predict_into(&[probe], &mut PredictScratch::default());
                prop_assert!(
                    (im - om).abs() < 1e-6,
                    "posterior mean diverged at step {i}, probe {probe}: {im} vs {om}"
                );
                prop_assert!(
                    (iv - ov).abs() < 1e-6,
                    "posterior variance diverged at step {i}, probe {probe}: {iv} vs {ov}"
                );
            }
            // The incumbent must always be the max over the live window's
            // normalized targets.
            let max_t = s
                .gp
                .targets()
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((s.best_y - max_t).abs() < 1e-12, "stale incumbent at step {i}");
            // The GP never holds more than the window.
            prop_assert!(s.gp.len() <= WINDOW, "window overflow at step {i}");
        }
    }
}
