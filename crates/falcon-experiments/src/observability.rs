//! Shared observability helpers: traced fault-injection runs and the
//! trace-derived convergence metrics the regression suite asserts on.
//!
//! [`achievable_mbps`] is the one derivation of "achievable throughput
//! after the event" that `tests/recovery.rs` asserts against, and
//! [`flap_run`] runs its scripted bottleneck flap traced, so assertions
//! read convergence markers and decision counts off the structured trace
//! instead of raw CSV rows.

use falcon_sim::{Environment, EnvironmentEvent, EventAction, Simulation};
use falcon_trace::{EventKind, TraceLog, TraceQuery, Tracer};
use falcon_transfer::dataset::Dataset;
use falcon_transfer::harness::SimHarness;
use falcon_transfer::runner::{AgentPlan, RunTrace, Runner, Tuner};

use crate::Table;

/// A scripted bottleneck flap: capacity scaled by `drop_factor` at
/// `drop_s`, restored to baseline at `restore_s`, run until `end_s`.
#[derive(Debug, Clone, Copy)]
pub struct LinkFlap {
    /// When the bottleneck degrades (seconds).
    pub drop_s: f64,
    /// When it is restored (seconds).
    pub restore_s: f64,
    /// Experiment duration (seconds).
    pub end_s: f64,
    /// Capacity multiplier during the outage.
    pub drop_factor: f64,
}

impl LinkFlap {
    /// The flap the recovery regression suite scripts: 1× → 0.3× at 300 s,
    /// restored at 500 s, run to 800 s.
    pub fn standard() -> LinkFlap {
        LinkFlap {
            drop_s: 300.0,
            restore_s: 500.0,
            end_s: 800.0,
            drop_factor: 0.3,
        }
    }
}

/// Achievable aggregate throughput (Mbps) while the bottleneck link is
/// scaled by `factor` — the reference rate re-convergence assertions
/// compare against, derived from the environment instead of re-inlined at
/// every call site.
pub fn achievable_mbps(env: &Environment, factor: f64) -> f64 {
    env.resources[env.bottleneck_link].capacity_mbps * factor
}

/// Run one tuner solo through `flap` on `env` with a recording tracer.
/// Returns the run trace, the structured trace log, and the probe interval.
pub fn flap_run(
    env: Environment,
    tuner: Box<dyn Tuner>,
    seed: u64,
    flap: LinkFlap,
) -> (RunTrace, TraceLog, f64) {
    let interval = env.sample_interval_s;
    let tracer = Tracer::recording();
    let mut sim = Simulation::new(env, seed);
    sim.set_tracer(tracer.clone());
    let mut h = SimHarness::new(sim);
    let scheduled = h.sim_mut().try_add_events([
        EnvironmentEvent::at(
            flap.drop_s,
            EventAction::LinkCapacityFactor {
                resource: None,
                factor: flap.drop_factor,
            },
        ),
        EnvironmentEvent::at(
            flap.restore_s,
            EventAction::LinkCapacityFactor {
                resource: None,
                factor: 1.0,
            },
        ),
    ]);
    debug_assert!(scheduled.is_ok(), "{scheduled:?}");
    let runner = Runner {
        tracer: tracer.clone(),
    };
    let trace = runner.run(
        &mut h,
        vec![AgentPlan::at_start(tuner, Dataset::uniform_1gb(1_000_000))],
        flap.end_s,
    );
    (trace, tracer.take_log(), interval)
}

/// `observability` experiment: drive each single-parameter optimizer
/// through the standard link flap and tabulate what the structured trace
/// says about it — decisions taken, environment events seen, first
/// convergence, and re-convergence after each flap edge.
pub fn observability() -> Table {
    use falcon_core::FalconAgent;
    let flap = LinkFlap::standard();
    let mut t = Table::new(
        "Observability: trace-derived convergence metrics through a link flap",
        &[
            "optimizer",
            "decisions",
            "env_events",
            "first_conv_s",
            "reconv_drop_s",
            "reconv_restore_s",
        ],
    );
    type MakeAgent = fn() -> FalconAgent;
    let optimizers: [(&str, MakeAgent); 3] = [
        ("hill-climbing", || FalconAgent::hill_climbing(64)),
        ("gradient-descent", || FalconAgent::gradient_descent(64)),
        ("bayesian", || FalconAgent::bayesian(64, 7)),
    ];
    for (name, make) in optimizers {
        let (_, log, _) = flap_run(Environment::emulab(100.0), Box::new(make()), 7, flap);
        let q = TraceQuery::new(&log).agent(0);
        let fmt_t = |v: Option<f64>| v.map_or("-".to_string(), |s| format!("{s:.0}"));
        let env_events = TraceQuery::new(&log).kind(EventKind::Environment).count();
        t.push_row(&[
            name.to_string(),
            q.decision_count().to_string(),
            env_events.to_string(),
            fmt_t(q.convergence_time()),
            fmt_t(q.convergence_after(flap.drop_s)),
            fmt_t(q.convergence_after(flap.restore_s)),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_core::FalconAgent;

    #[test]
    fn achievable_tracks_bottleneck_scaling() {
        let env = Environment::emulab(100.0);
        let full = achievable_mbps(&env, 1.0);
        assert!((full - 1000.0).abs() < 1e-9, "emulab full rate {full}");
        assert!((achievable_mbps(&env, 0.3) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn flap_run_records_both_environment_edges() {
        let (_, log, _) = flap_run(
            Environment::emulab(100.0).without_noise(),
            Box::new(FalconAgent::gradient_descent(32)),
            5,
            LinkFlap {
                drop_s: 60.0,
                restore_s: 90.0,
                end_s: 120.0,
                drop_factor: 0.3,
            },
        );
        let edges = TraceQuery::new(&log).kind(EventKind::Environment);
        assert_eq!(edges.count(), 2, "expected drop + restore");
        assert!(TraceQuery::new(&log).agent(0).decision_count() > 10);
    }
}
