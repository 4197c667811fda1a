//! Fuzz-style property tests: every optimizer must stay inside its search
//! bounds and keep proposing valid settings no matter what utility sequence
//! the environment throws at it — adversarial noise, constants, NaN-free
//! garbage, sign flips.

use proptest::prelude::*;

use falcon_core::{
    BayesianOptimizer, BoParams, ConjugateGradientOptimizer, GoldenSectionOptimizer,
    GradientDescentOptimizer, HillClimbingOptimizer, Observation, OnlineOptimizer, ProbeMetrics,
    SearchBounds, SpsaOptimizer, TransferSettings,
};

/// Drive an optimizer through an arbitrary utility sequence and assert
/// every proposal stays within `bounds`.
fn fuzz_optimizer(
    opt: &mut dyn OnlineOptimizer,
    bounds: SearchBounds,
    utilities: &[f64],
) -> Result<(), TestCaseError> {
    let mut settings = opt.initial();
    prop_assert!(
        bounds.contains(settings),
        "initial {settings} out of bounds"
    );
    for &u in utilities {
        let metrics = ProbeMetrics::from_aggregate(settings, u.abs(), 0.0, 5.0);
        settings = opt.next(&Observation {
            settings,
            utility: u,
            metrics,
        });
        prop_assert!(
            bounds.contains(settings),
            "{} proposed {settings} outside bounds",
            opt.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hill_climbing_stays_in_bounds(
        max_cc in 2u32..100,
        utilities in proptest::collection::vec(-1e6f64..1e6, 1..80),
    ) {
        let bounds = SearchBounds::concurrency_only(max_cc);
        let mut opt = HillClimbingOptimizer::new(max_cc);
        fuzz_optimizer(&mut opt, bounds, &utilities)?;
    }

    #[test]
    fn gradient_descent_stays_in_bounds(
        max_cc in 2u32..100,
        utilities in proptest::collection::vec(-1e6f64..1e6, 1..80),
    ) {
        let bounds = SearchBounds::concurrency_only(max_cc);
        let mut opt = GradientDescentOptimizer::new(max_cc);
        fuzz_optimizer(&mut opt, bounds, &utilities)?;
    }

    #[test]
    fn bayesian_stays_in_bounds(
        max_cc in 2u32..64,
        seed in 0u64..1000,
        utilities in proptest::collection::vec(-1e6f64..1e6, 1..40),
    ) {
        let bounds = SearchBounds::concurrency_only(max_cc);
        let mut opt = BayesianOptimizer::new(BoParams::new(max_cc).with_seed(seed));
        fuzz_optimizer(&mut opt, bounds, &utilities)?;
    }

    #[test]
    fn bayesian_dynamic_space_stays_in_bounds(
        max_cc in 4u32..64,
        seed in 0u64..1000,
        utilities in proptest::collection::vec(-1e6f64..1e6, 1..40),
    ) {
        let bounds = SearchBounds::concurrency_only(max_cc);
        let mut opt = BayesianOptimizer::new(
            BoParams::new(max_cc).with_seed(seed).with_dynamic_space(max_cc / 2),
        );
        fuzz_optimizer(&mut opt, bounds, &utilities)?;
    }

    #[test]
    fn golden_section_stays_in_bounds(
        max_cc in 2u32..100,
        utilities in proptest::collection::vec(-1e6f64..1e6, 1..80),
    ) {
        let bounds = SearchBounds::concurrency_only(max_cc);
        let mut opt = GoldenSectionOptimizer::new(max_cc);
        fuzz_optimizer(&mut opt, bounds, &utilities)?;
    }

    #[test]
    fn spsa_stays_in_bounds(
        max_cc in 2u32..100,
        utilities in proptest::collection::vec(-1e6f64..1e6, 1..80),
    ) {
        let bounds = SearchBounds::concurrency_only(max_cc);
        let mut opt = SpsaOptimizer::new(max_cc);
        fuzz_optimizer(&mut opt, bounds, &utilities)?;
    }

    #[test]
    fn conjugate_gradient_stays_in_box(
        max_cc in 2u32..64,
        max_p in 1u32..8,
        max_pp in 1u32..32,
        utilities in proptest::collection::vec(-1e6f64..1e6, 6..60),
    ) {
        let bounds = SearchBounds::multi_parameter(max_cc, max_p, max_pp);
        let mut opt = ConjugateGradientOptimizer::new(bounds);
        fuzz_optimizer(&mut opt, bounds, &utilities)?;
    }

    /// Optimizers never propose the degenerate zero setting even when fed
    /// constant utility (no signal at all).
    #[test]
    fn constant_utility_is_survivable(
        max_cc in 2u32..64,
        value in -100.0f64..100.0,
    ) {
        let utilities = vec![value; 40];
        let bounds = SearchBounds::concurrency_only(max_cc);
        let mut gd = GradientDescentOptimizer::new(max_cc);
        fuzz_optimizer(&mut gd, bounds, &utilities)?;
        let mut hc = HillClimbingOptimizer::new(max_cc);
        fuzz_optimizer(&mut hc, bounds, &utilities)?;
    }

    /// TransferSettings proposed by any optimizer always have at least one
    /// connection (`total_connections >= 1`).
    #[test]
    fn proposals_always_have_connections(
        max_cc in 2u32..32,
        utilities in proptest::collection::vec(-1e4f64..1e4, 1..40),
    ) {
        let mut opt = GradientDescentOptimizer::new(max_cc);
        let mut settings = opt.initial();
        for &u in &utilities {
            let metrics = ProbeMetrics::from_aggregate(settings, u.abs(), 0.0, 5.0);
            settings = opt.next(&Observation { settings, utility: u, metrics });
            prop_assert!(settings.total_connections() >= 1);
            let zero = TransferSettings {
                concurrency: 0,
                parallelism: 0,
                pipelining: 0,
            };
            prop_assert!(settings != zero);
        }
    }
}
