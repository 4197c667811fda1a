//! Fault injection and recovery: every Falcon optimizer must follow a
//! mid-transfer link flap (the paper's §4.5 argument for *online*
//! optimization), and the runner's watchdog must carry a transfer across a
//! killed agent process.
//!
//! Assertions read the structured trace where possible: re-convergence is
//! the trace's convergence markers (re)appearing after each flap edge, and
//! the reference throughput comes from
//! [`falcon_experiments::observability::achievable_mbps`] instead of being
//! re-derived inline at every call site.

use falcon_experiments::observability::{achievable_mbps, flap_run, LinkFlap};
use falcon_repro::core::FalconAgent;
use falcon_repro::sim::{Environment, EnvironmentEvent, EventAction, Simulation};
use falcon_repro::trace::{EventKind, TraceQuery, Tracer};
use falcon_repro::transfer::dataset::Dataset;
use falcon_repro::transfer::harness::SimHarness;
use falcon_repro::transfer::runner::{AgentPlan, Runner};

/// HC, GD, and BO each re-converge to ≥80% of the achievable rate within 15
/// probe intervals of both edges of a link flap, and the structured trace
/// carries convergence markers for the initial convergence and for the
/// re-convergence after the drop.
#[test]
fn every_optimizer_reconverges_after_link_flap() {
    let flap = LinkFlap::standard();
    type MakeAgent = fn(u32, u64) -> FalconAgent;
    let optimizers: [(&str, MakeAgent); 3] = [
        ("hc", |cc, _| FalconAgent::hill_climbing(cc)),
        ("gd", |cc, _| FalconAgent::gradient_descent(cc)),
        ("bo", FalconAgent::bayesian),
    ];
    for (name, make) in optimizers {
        let env = Environment::emulab(100.0);
        let full = achievable_mbps(&env, 1.0);
        let degraded = achievable_mbps(&env, flap.drop_factor);
        let (trace, log, interval) = flap_run(env, Box::new(make(64, 7)), 7, flap);
        let window = 15.0 * interval;
        let q = TraceQuery::new(&log).agent(0);

        // The tuner is actually deciding: the trace records its decisions.
        assert!(
            q.decision_count() > 20,
            "{name}: {} decisions",
            q.decision_count()
        );

        // Converged before the fault, and the trace marked it.
        let first = q.convergence_time();
        assert!(
            first.is_some_and(|t| t < flap.drop_s),
            "{name}: first convergence marker at {first:?}"
        );
        let before = trace.avg_mbps(0, flap.drop_s - window, flap.drop_s);
        assert!(before > 0.8 * full, "{name}: pre-drop {before:.0} Mbps");

        // Tracks the degraded link: ≥80% of the new achievable rate by the
        // back half of the 15-probe re-convergence window — and the
        // detector re-armed and re-latched at the new operating point.
        let during = trace.avg_mbps(0, flap.drop_s + window / 2.0, flap.drop_s + window);
        assert!(
            during > 0.8 * degraded,
            "{name}: during-drop {during:.0} Mbps (achievable {degraded:.0})"
        );
        let reconv = q.convergence_after(flap.drop_s);
        assert!(
            reconv.is_some_and(|t| t < flap.restore_s),
            "{name}: no re-convergence marker inside the outage ({reconv:?})"
        );

        // Climbs back after the restore: ≥80% of the recovered rate within
        // 15 probes.
        let after = trace.avg_mbps(0, flap.restore_s + window / 2.0, flap.restore_s + window);
        assert!(
            after > 0.8 * full,
            "{name}: post-restore {after:.0} Mbps (achievable {full:.0})"
        );
    }
}

/// The learning tuners must track the same flap the classical optimizers
/// do: each re-converges to ≥80% of the achievable rate within 20 probe
/// intervals of both edges, with trace-recorded decisions and convergence
/// markers. The window is wider than the classical optimizers' 15 probes
/// because a cold learner spends its early probes sweeping the arm
/// lattice rather than line-searching.
#[test]
fn every_rl_tuner_reconverges_after_link_flap() {
    use falcon_repro::rl::RlKind;
    let flap = LinkFlap::standard();
    let tuners = [
        ("rl-bandit", RlKind::Bandit),
        ("rl-q", RlKind::Q),
        ("rl-warm", RlKind::Warm(None)),
    ];
    for (name, kind) in tuners {
        let env = Environment::emulab(100.0);
        let full = achievable_mbps(&env, 1.0);
        let degraded = achievable_mbps(&env, flap.drop_factor);
        let agent = kind.agent(64, 7);
        let (trace, log, interval) = flap_run(env, Box::new(agent), 7, flap);
        let window = 20.0 * interval;
        let q = TraceQuery::new(&log).agent(0);

        // The tuner is actually deciding: the trace records its decisions.
        assert!(
            q.decision_count() > 20,
            "{name}: {} decisions",
            q.decision_count()
        );

        // Converged before the fault, and the trace marked it.
        let first = q.convergence_time();
        assert!(
            first.is_some_and(|t| t < flap.drop_s),
            "{name}: first convergence marker at {first:?}"
        );
        let before = trace.avg_mbps(0, flap.drop_s - window, flap.drop_s);
        assert!(before > 0.8 * full, "{name}: pre-drop {before:.0} Mbps");

        // Tracks the degraded link within the widened window, and the
        // detector re-armed and re-latched at the new operating point.
        let during = trace.avg_mbps(0, flap.drop_s + window / 2.0, flap.drop_s + window);
        assert!(
            during > 0.8 * degraded,
            "{name}: during-drop {during:.0} Mbps (achievable {degraded:.0})"
        );
        let reconv = q.convergence_after(flap.drop_s);
        assert!(
            reconv.is_some_and(|t| t < flap.restore_s),
            "{name}: no re-convergence marker inside the outage ({reconv:?})"
        );

        // Climbs back after the restore.
        let after = trace.avg_mbps(0, flap.restore_s + window / 2.0, flap.restore_s + window);
        assert!(
            after > 0.8 * full,
            "{name}: post-restore {after:.0} Mbps (achievable {full:.0})"
        );
        assert!(
            q.convergence_after(flap.restore_s).is_some(),
            "{name}: no re-convergence marker after the restore"
        );
    }
}

/// A killed agent is detected, restarted by the watchdog, and finishes its
/// re-convergence with its optimizer state intact — with the detach and
/// restart visible in the structured trace.
#[test]
fn watchdog_recovers_killed_agent_across_the_stack() {
    let env = Environment::emulab(100.0);
    let full = achievable_mbps(&env, 1.0);
    let tracer = Tracer::recording();
    let mut sim = Simulation::new(env, 11);
    sim.set_tracer(tracer.clone());
    let mut h = SimHarness::new(sim);
    h.sim_mut()
        .try_add_events([EnvironmentEvent::at(
            200.0,
            EventAction::KillAgent { agent: 0 },
        )])
        .unwrap();
    let runner = Runner {
        tracer: tracer.clone(),
    };
    let trace = runner.run(
        &mut h,
        vec![AgentPlan::at_start(
            Box::new(FalconAgent::gradient_descent(64)),
            Dataset::uniform_1gb(1_000_000),
        )],
        400.0,
    );
    assert!(trace.restarts(0) >= 1, "no restart recorded");
    let log = tracer.take_log();
    let recoveries = TraceQuery::new(&log).agent(0).kind(EventKind::Recovery);
    assert!(
        recoveries.count() >= 2,
        "expected detach + restart events, got {}",
        recoveries.count()
    );
    // The scripted kill itself is in the trace as an environment event.
    assert_eq!(
        TraceQuery::new(&log).kind(EventKind::Environment).count(),
        1
    );
    let after = trace.avg_mbps(0, 320.0, 400.0);
    assert!(after > 0.8 * full, "post-restart {after:.0} Mbps");
}
