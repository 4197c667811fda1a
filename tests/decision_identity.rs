//! Decision-sequence pins for the scan-free optimizers.
//!
//! The GP surrogate rework (sliding-window downdates, drift-keyed refits,
//! local-ascent acquisition) must not perturb the optimizers that never
//! touch the GP stack. These tests hard-code the exact decision sequences
//! hill climbing, gradient descent, and conjugate gradient produced before
//! the rework, on a deterministic synthetic landscape: any byte of drift
//! here means shared plumbing (metrics, utility, settings) changed out
//! from under them.

use falcon_repro::baselines::HarpHistory;
use falcon_repro::core::{
    BayesianMpOptimizer, BayesianOptimizer, BoMpParams, BoParams, ConjugateGradientOptimizer,
    GradientDescentOptimizer, HillClimbingOptimizer, Observation, OnlineOptimizer, ProbeMetrics,
    SearchBounds, TransferSettings, UtilityFunction,
};
use falcon_repro::rl::{BanditOptimizer, BanditParams, QParams, TabularQOptimizer, WarmTable};

/// Deterministic landscape: linear gain to 48 streams, flat beyond.
fn observation(s: TransferSettings) -> Observation {
    let m = ProbeMetrics::from_aggregate(s, f64::from(s.concurrency.min(48)) * 21.0, 0.001, 5.0);
    Observation {
        settings: m.settings,
        utility: UtilityFunction::falcon_default().evaluate(&m),
        metrics: m,
    }
}

fn drive(opt: &mut dyn OnlineOptimizer, probes: usize) -> Vec<(u32, u32, u32)> {
    let mut s = opt.initial();
    let mut out = vec![(s.concurrency, s.parallelism, s.pipelining)];
    for _ in 0..probes {
        s = opt.next(&observation(s));
        out.push((s.concurrency, s.parallelism, s.pipelining));
    }
    out
}

#[test]
fn hill_climbing_decision_sequence_unchanged() {
    let mut opt = HillClimbingOptimizer::new(64);
    let expected: Vec<(u32, u32, u32)> = (1..=41).map(|c| (c, 1, 1)).collect();
    assert_eq!(drive(&mut opt, 40), expected);
}

#[test]
fn gradient_descent_decision_sequence_unchanged() {
    let mut opt = GradientDescentOptimizer::new(64);
    let expected: Vec<(u32, u32, u32)> = [
        1, 3, 5, 7, 9, 11, 15, 13, 18, 20, 27, 25, 35, 33, 40, 38, 41, 43, 45, 43, 47, 45, 46, 48,
        48, 46, 46, 48, 48, 46, 46, 48, 46, 48, 46, 48, 46, 48, 48, 46, 46,
    ]
    .into_iter()
    .map(|c| (c, 1, 1))
    .collect();
    assert_eq!(drive(&mut opt, 40), expected);
}

/// The RL tuners are seeded, so their exploration is as pinnable as the
/// deterministic scan optimizers above: the same seed must replay the
/// same decision bytes forever. Any drift means the SplitMix64 draw
/// order, the arm lattice, or the reward plumbing changed.
#[test]
fn bandit_decision_sequence_unchanged() {
    let mut opt = BanditOptimizer::new(BanditParams::new(64, 7));
    let expected: Vec<(u32, u32, u32)> = [
        1, 2, 3, 4, 5, 6, 8, 10, 13, 17, 22, 28, 36, 46, 59, 64, 46, 47, 3, 46, 45, 46, 47, 46, 45,
        46, 47, 46, 45, 46, 47, 46, 45, 46, 47, 46, 45, 46, 47, 46, 45,
    ]
    .into_iter()
    .map(|c| (c, 1, 1))
    .collect();
    assert_eq!(drive(&mut opt, 40), expected);
}

#[test]
fn tabular_q_decision_sequence_unchanged() {
    let mut opt = TabularQOptimizer::new(QParams::new(64, 7));
    let expected: Vec<(u32, u32, u32)> = [
        1, 1, 2, 3, 4, 6, 8, 11, 15, 20, 26, 34, 35, 36, 37, 38, 39, 40, 41, 41, 42, 43, 44, 45,
        46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 64, 64, 64, 64, 64, 49, 37,
    ]
    .into_iter()
    .map(|c| (c, 1, 1))
    .collect();
    assert_eq!(drive(&mut opt, 40), expected);
}

#[test]
fn warm_started_bandit_decision_sequence_unchanged() {
    let history = HarpHistory::ten_gig_corpus();
    let bounds = SearchBounds::concurrency_only(64);
    let table = WarmTable::fit(&history, &bounds, 24, 7);
    let mut opt = BanditOptimizer::warm_started(BanditParams::new(64, 7), &table);
    // Opens at the warm table's argmax (10) instead of the cold sweep's 1,
    // then interleaves the remaining sweep with exploitation of the prior.
    let expected: Vec<(u32, u32, u32)> = [
        10, 8, 13, 6, 17, 5, 10, 4, 3, 22, 2, 1, 28, 36, 46, 59, 64, 46, 47, 3, 46, 45, 46, 47, 46,
        45, 46, 47, 46, 45, 46, 47, 46, 45, 46, 47, 46, 45, 46, 47, 46,
    ]
    .into_iter()
    .map(|c| (c, 1, 1))
    .collect();
    assert_eq!(drive(&mut opt, 40), expected);
}

#[test]
fn conjugate_gradient_decision_sequence_unchanged() {
    let mut opt = ConjugateGradientOptimizer::new(SearchBounds::multi_parameter(64, 8, 32));
    let expected = vec![
        (1, 1, 1),
        (3, 1, 1),
        (2, 1, 1),
        (2, 2, 1),
        (2, 1, 1),
        (2, 1, 2),
        (5, 1, 1),
        (7, 1, 1),
        (6, 1, 1),
        (6, 2, 1),
        (6, 1, 1),
        (6, 1, 2),
        (9, 1, 1),
        (11, 1, 1),
        (10, 1, 1),
        (10, 2, 1),
        (10, 1, 1),
        (10, 1, 2),
        (16, 1, 1),
        (18, 1, 1),
        (17, 1, 1),
        (17, 2, 1),
        (17, 1, 1),
        (17, 1, 2),
        (27, 1, 1),
        (29, 1, 1),
        (28, 1, 1),
        (28, 2, 1),
        (28, 1, 1),
        (28, 1, 2),
        (34, 1, 1),
        (36, 1, 1),
        (35, 1, 1),
        (35, 2, 1),
        (35, 1, 1),
        (35, 1, 2),
        (39, 1, 1),
        (41, 1, 1),
        (40, 1, 1),
        (40, 2, 1),
        (40, 1, 1),
    ];
    assert_eq!(drive(&mut opt, 40), expected);
}

/// The Bayesian searches are seeded too: the random phase, every Hedge
/// draw and every surrogate argmax replay from the seed. These three pins
/// cover the 1-D line, the growing ceiling (§4.6) and the connection-capped
/// (cc, p) grid; a moved byte means the RNG draw order, the candidate
/// indexing, the surrogate upkeep or the ascent plan changed.
#[test]
fn bayesian_decision_sequence_unchanged() {
    let mut opt = BayesianOptimizer::new(BoParams::new(64).with_seed(7));
    let expected: Vec<(u32, u32, u32)> = [
        62, 21, 51, 51, 47, 47, 47, 47, 42, 45, 1, 37, 44, 44, 44, 44, 44, 44, 44, 44, 44, 44, 44,
        44, 64, 45, 44, 43, 43, 43, 43, 1, 44, 28, 44, 44, 51, 45, 20, 45, 39,
    ]
    .into_iter()
    .map(|c| (c, 1, 1))
    .collect();
    assert_eq!(drive(&mut opt, 40), expected);
}

#[test]
fn bayesian_dynamic_space_decision_sequence_unchanged() {
    let mut opt = BayesianOptimizer::new(BoParams::new(64).with_seed(7).with_dynamic_space(16));
    let expected: Vec<(u32, u32, u32)> = [
        14, 5, 3, 15, 16, 16, 18, 20, 32, 28, 32, 39, 38, 46, 44, 54, 48, 47, 46, 46, 44, 45, 45,
        45, 44, 44, 44, 1, 45, 45, 45, 44, 44, 31, 44, 44, 64, 43, 39, 43, 41,
    ]
    .into_iter()
    .map(|c| (c, 1, 1))
    .collect();
    assert_eq!(drive(&mut opt, 40), expected);
}

#[test]
fn bayesian_mp_decision_sequence_unchanged() {
    let mut opt =
        BayesianMpOptimizer::new(BoMpParams::new(32, 8).with_seed(7).with_connection_cap(64));
    let expected: Vec<(u32, u32, u32)> = [
        (3, 6),
        (10, 6),
        (3, 3),
        (10, 6),
        (12, 4),
        (12, 4),
        (12, 4),
        (12, 4),
        (16, 4),
        (16, 2),
        (17, 3),
        (19, 2),
        (19, 2),
        (20, 1),
        (20, 1),
        (21, 2),
        (22, 1),
        (23, 2),
        (24, 1),
        (27, 1),
        (30, 1),
        (32, 1),
        (32, 2),
        (32, 2),
        (32, 1),
        (32, 2),
        (32, 2),
        (32, 2),
        (32, 2),
        (32, 1),
        (32, 1),
        (1, 1),
        (32, 2),
        (32, 1),
        (32, 2),
        (32, 2),
        (32, 2),
        (32, 2),
        (32, 1),
        (32, 1),
        (32, 1),
    ]
    .into_iter()
    .map(|(c, p)| (c, p, 1))
    .collect();
    assert_eq!(drive(&mut opt, 40), expected);
}
