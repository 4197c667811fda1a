//! Fairness / Nash-equilibrium integration tests (paper §3.1, §4.2).
//!
//! The headline theoretical claim: competing transfers that all maximize
//! the strictly concave Eq 4 utility converge to a fair, stable state.
//! These tests check the claim end to end, for both search algorithms, for
//! two and three agents, and check the converse — that throughput-only
//! objectives do *not* provide it.

use falcon_experiments::figs1_4::steady_state;
use falcon_experiments::observability::achievable_mbps;
use falcon_repro::core::{FalconAgent, GradientDescentOptimizer, UtilityFunction};
use falcon_repro::sim::{Environment, Simulation};
use falcon_repro::transfer::dataset::Dataset;
use falcon_repro::transfer::harness::SimHarness;
use falcon_repro::transfer::runner::{AgentPlan, RunTrace, Runner};

fn endless() -> Dataset {
    Dataset::uniform_1gb(1_000_000)
}

fn run_pair(mk: impl Fn(u64) -> FalconAgent, env: Environment, seed: u64) -> RunTrace {
    let mut h = SimHarness::new(Simulation::new(env, seed));
    let plans = vec![
        AgentPlan::at_start(Box::new(mk(1)), endless()),
        AgentPlan::joining_at(Box::new(mk(2)), endless(), 150.0),
    ];
    Runner::default().run(&mut h, plans, 700.0)
}

#[test]
fn gd_pair_is_fair_in_emulab() {
    let env = Environment::emulab(21.0);
    let achievable = achievable_mbps(&env, 1.0);
    let trace = run_pair(|_| FalconAgent::gradient_descent(100), env, 1);
    let fair = trace.fairness(&[0, 1], 500.0, 700.0);
    assert!(fair > 0.95, "Jain {fair}");
    let total = trace.avg_mbps(0, 500.0, 700.0) + trace.avg_mbps(1, 500.0, 700.0);
    assert!(
        total > 0.75 * achievable,
        "aggregate {total:.0} of {achievable:.0}"
    );
}

#[test]
fn gd_pair_is_fair_in_hpclab() {
    let env = Environment::hpclab();
    // Paper: two competing transfers get 12-13 Gbps each in HPCLab — the
    // fair split of the path capacity, which we derive from the
    // environment instead of hard-coding.
    let fair_share = env.path_capacity_mbps() / 2.0;
    let trace = run_pair(|_| FalconAgent::gradient_descent(64), env, 2);
    let fair = trace.fairness(&[0, 1], 500.0, 700.0);
    assert!(fair > 0.95, "Jain {fair}");
    let each = trace.avg_mbps(0, 500.0, 700.0);
    assert!(
        (0.75 * fair_share..1.15 * fair_share).contains(&each),
        "per-agent {:.1} Gbps vs fair share {:.1}",
        each / 1000.0,
        fair_share / 1000.0
    );
}

#[test]
fn bo_pair_is_fair_on_average() {
    let trace = run_pair(
        |seed| FalconAgent::bayesian(64, seed),
        Environment::hpclab(),
        3,
    );
    // BO fluctuates more than GD (§4.6) but averages out fair.
    let fair = trace.fairness(&[0, 1], 450.0, 700.0);
    assert!(fair > 0.90, "Jain {fair}");
}

#[test]
fn three_gd_agents_share_three_ways() {
    let mut h = SimHarness::new(Simulation::new(Environment::hpclab(), 5));
    let plans = vec![
        AgentPlan::at_start(Box::new(FalconAgent::gradient_descent(64)), endless()),
        AgentPlan::joining_at(
            Box::new(FalconAgent::gradient_descent(64)),
            endless(),
            120.0,
        ),
        AgentPlan::joining_at(
            Box::new(FalconAgent::gradient_descent(64)),
            endless(),
            240.0,
        ),
    ];
    // The three-agent Nash equilibrium sits at a much higher per-agent
    // concurrency than the two-agent one (each agent's share-stealing
    // incentive grows with the opponents' combined share), so convergence
    // takes several hundred probe intervals.
    // In our substrate the three-agent Nash equilibrium has each agent
    // running noticeably more connections than the paper's testbed traces
    // (per-connection fair sharing makes share-stealing mechanical), and
    // convergence against two probing opponents is noisy — so the bounds
    // here are wider than the two-agent case. See EXPERIMENTS.md.
    let trace = Runner::default().run(&mut h, plans, 1400.0);
    let fair = trace.fairness(&[0, 1, 2], 900.0, 1400.0);
    assert!(fair > 0.90, "Jain {fair}");
    let fair_share = Environment::hpclab().path_capacity_mbps() / 3.0;
    for a in 0..3 {
        let mbps = trace.avg_mbps(a, 900.0, 1400.0);
        assert!(
            (0.33 * fair_share..1.35 * fair_share).contains(&mbps),
            "agent {a}: {:.1} Gbps vs fair share {:.1}",
            mbps / 1000.0,
            fair_share / 1000.0
        );
    }
}

#[test]
fn departure_returns_capacity_to_survivor() {
    let mut h = SimHarness::new(Simulation::new(Environment::hpclab(), 7));
    let plans = vec![
        AgentPlan::at_start(Box::new(FalconAgent::gradient_descent(64)), endless()),
        AgentPlan::joining_at(
            Box::new(FalconAgent::gradient_descent(64)),
            endless(),
            100.0,
        )
        .leaving_at(400.0),
    ];
    let trace = Runner::default().run(&mut h, plans, 650.0);
    let shared = trace.avg_mbps(0, 300.0, 400.0);
    let alone = trace.avg_mbps(0, 550.0, 650.0);
    assert!(
        alone > 1.5 * shared,
        "survivor did not reclaim: {shared:.0} -> {alone:.0}"
    );
}

#[test]
fn total_concurrency_contracts_under_competition() {
    // Figure 13's other half: fairness is achieved at *lower* per-agent
    // concurrency, not by everyone running the solo optimum.
    let trace = run_pair(
        |_| FalconAgent::gradient_descent(100),
        Environment::emulab(21.0),
        9,
    );
    let solo_cc = trace.avg_concurrency(0, 90.0, 150.0);
    let shared_cc = trace.avg_concurrency(0, 500.0, 700.0);
    assert!(
        shared_cc < 0.75 * solo_cc,
        "solo {solo_cc:.0} -> shared {shared_cc:.0}"
    );
}

#[test]
fn loss_regret_keeps_loss_low_at_network_bottleneck() {
    // §3.1: with B = 10, the loss regret alone (Eq 2) keeps packet loss low
    // while utilization stays high on a network-bottlenecked path. (Note:
    // under incremental GD probing even throughput-leaning utilities pay an
    // implicit reconfiguration cost — fresh connections ramp up during the
    // sample — so the dramatic Eq 1/Eq 2 blow-ups of §2 require one-shot
    // argmax tuners like HARP, covered in tests/baselines.rs.)
    let mk = |utility: UtilityFunction| {
        FalconAgent::new(utility, Box::new(GradientDescentOptimizer::new(64)))
    };
    for utility in [
        UtilityFunction::LossRegret { b: 10.0 },
        UtilityFunction::falcon_default(),
    ] {
        let mut h = SimHarness::new(Simulation::new(Environment::emulab_fig4(), 11));
        let trace = Runner::default().run(
            &mut h,
            vec![AgentPlan::at_start(Box::new(mk(utility)), endless())],
            500.0,
        );
        let cc = trace.avg_concurrency(0, 350.0, 500.0);
        let thr = trace.avg_mbps(0, 350.0, 500.0);
        assert!((7.0..=16.0).contains(&cc), "{utility:?}: cc {cc:.1}");
        // >80% utilization of the 100 Mbps link…
        assert!(thr > 80.0, "{utility:?}: thr {thr:.0}");
        // …at a concurrency whose steady loss is below ~2-3% (Figure 4).
        let (_, loss) = steady_state(Environment::emulab_fig4(), cc.round() as u32, 60.0);
        assert!(loss < 0.035, "{utility:?}: loss {loss:.3}");
    }
}
