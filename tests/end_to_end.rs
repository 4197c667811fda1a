//! End-to-end integration: Falcon agents driving the full stack
//! (optimizer → utility → harness → simulator → datasets) across every
//! environment preset.

use std::cell::Cell;
use std::rc::Rc;

use falcon_repro::core::{FalconAgent, ProbeMetrics, SearchBounds, TransferSettings};
use falcon_repro::sim::{Environment, EnvironmentKind, Simulation};
use falcon_repro::transfer::dataset::Dataset;
use falcon_repro::transfer::harness::SimHarness;
use falcon_repro::transfer::runner::{AgentPlan, Runner, Tuner};

fn big_dataset() -> Dataset {
    Dataset::uniform_1gb(1_000_000)
}

/// Falcon-GD reaches ≥80% of the known path capacity in every preset.
#[test]
fn gd_achieves_high_utilization_in_every_environment() {
    for kind in EnvironmentKind::all() {
        let env = kind.build();
        let capacity = env.path_capacity_mbps();
        let max_cc = env.max_concurrency;
        let mut h = SimHarness::new(Simulation::new(env, 404));
        let trace = Runner::default().run(
            &mut h,
            vec![AgentPlan::at_start(
                Box::new(FalconAgent::gradient_descent(max_cc)),
                big_dataset(),
            )],
            400.0,
        );
        let steady = trace.avg_mbps(0, 250.0, 400.0);
        assert!(
            steady > 0.8 * capacity,
            "{}: {steady:.0} Mbps of {capacity:.0}",
            kind.name()
        );
    }
}

/// Bayesian optimization reaches ≥70% everywhere (it keeps exploring, so
/// its average is a little below GD's — §4.6).
#[test]
fn bo_achieves_reasonable_utilization_in_every_environment() {
    for (i, kind) in EnvironmentKind::all().into_iter().enumerate() {
        let env = kind.build();
        let capacity = env.path_capacity_mbps();
        let max_cc = env.max_concurrency;
        let mut h = SimHarness::new(Simulation::new(env, 405));
        let trace = Runner::default().run(
            &mut h,
            vec![AgentPlan::at_start(
                Box::new(FalconAgent::bayesian(max_cc, 900 + i as u64)),
                big_dataset(),
            )],
            400.0,
        );
        let steady = trace.avg_mbps(0, 250.0, 400.0);
        assert!(
            steady > 0.7 * capacity,
            "{}: {steady:.0} Mbps of {capacity:.0}",
            kind.name()
        );
    }
}

/// A finite transfer completes, and its completion time is consistent with
/// the achieved throughput.
#[test]
fn finite_transfer_completes_in_plausible_time() {
    let env = Environment::hpclab();
    let dataset = Dataset::uniform_1gb(300); // 300 GB ≈ 2.4 Tb
    let total_bits = dataset.total_bytes() as f64 * 8.0;
    let mut h = SimHarness::new(Simulation::new(env, 11));
    let trace = Runner::default().run(
        &mut h,
        vec![AgentPlan::at_start(
            Box::new(FalconAgent::gradient_descent(64)),
            dataset,
        )],
        600.0,
    );
    let done = trace.completed_at[0].expect("transfer never completed");
    // At 20-27 Gbps, 2.4 Tb takes 90-125 s; allow slack for the search phase.
    let implied_gbps = total_bits / done / 1e9;
    assert!(
        (10.0..30.0).contains(&implied_gbps),
        "completed in {done:.0}s -> {implied_gbps:.1} Gbps"
    );
}

/// The multi-parameter agent works end to end on a mixed dataset and ends
/// inside its declared bounds.
#[test]
fn multi_parameter_agent_respects_bounds_end_to_end() {
    let bounds = SearchBounds::multi_parameter(32, 4, 16);
    let mut h = SimHarness::new(Simulation::new(Environment::stampede2_comet(), 13));
    let trace = Runner::default().run(
        &mut h,
        vec![AgentPlan::at_start(
            Box::new(FalconAgent::multi_parameter(bounds)),
            Dataset::mixed(3),
        )],
        300.0,
    );
    for p in trace.points() {
        assert!(
            bounds.contains(p.settings),
            "escaped bounds: {}",
            p.settings
        );
    }
    // And it should be moving meaningful traffic by the end.
    assert!(trace.avg_mbps(0, 200.0, 300.0) > 5_000.0);
}

/// Hill climbing, while slow, still works end to end.
#[test]
fn hill_climbing_works_end_to_end() {
    let mut h = SimHarness::new(Simulation::new(Environment::emulab(100.0), 17));
    let trace = Runner::default().run(
        &mut h,
        vec![AgentPlan::at_start(
            Box::new(FalconAgent::hill_climbing(32)),
            big_dataset(),
        )],
        300.0,
    );
    let steady = trace.avg_mbps(0, 200.0, 300.0);
    assert!(steady > 700.0, "HC steady {steady:.0} Mbps");
}

/// Background cross-traffic arrives and leaves; Falcon adapts both ways.
#[test]
fn adapts_to_background_traffic() {
    let mut h = SimHarness::new(Simulation::new(Environment::emulab(100.0), 19));
    h.sim_mut()
        .add_background_flow(falcon_repro::sim::BackgroundFlow {
            start_s: 150.0,
            end_s: 300.0,
            demand_mbps: 600.0,
            connections: 6,
        });
    let trace = Runner::default().run(
        &mut h,
        vec![AgentPlan::at_start(
            Box::new(FalconAgent::gradient_descent(32)),
            big_dataset(),
        )],
        450.0,
    );
    let before = trace.avg_mbps(0, 100.0, 150.0);
    let during = trace.avg_mbps(0, 220.0, 300.0);
    let after = trace.avg_mbps(0, 380.0, 450.0);
    assert!(before > 850.0, "before {before:.0}");
    assert!(
        during < 0.75 * before,
        "during {during:.0} vs before {before:.0}"
    );
    assert!(after > 0.85 * before, "after {after:.0} did not recover");
}

/// A GD tuner that says when it is dropped and counts its samples.
struct Watched {
    agent: FalconAgent,
    samples: Rc<Cell<usize>>,
    freed: Rc<Cell<bool>>,
}

impl Drop for Watched {
    fn drop(&mut self) {
        self.freed.set(true);
    }
}

/// A GD tuner that records whether the watched tuner was already freed
/// when one of its own samples arrived — that is, during the run.
struct Watcher {
    agent: FalconAgent,
    freed: Rc<Cell<bool>>,
    saw_freed: Rc<Cell<bool>>,
}

impl Tuner for Watched {
    fn label(&self) -> String {
        "watched".into()
    }
    fn initial(&mut self) -> TransferSettings {
        self.agent.initial_settings()
    }
    fn on_sample(&mut self, metrics: &ProbeMetrics) -> TransferSettings {
        self.samples.set(self.samples.get() + 1);
        self.agent.observe(*metrics)
    }
}

impl Tuner for Watcher {
    fn label(&self) -> String {
        "watcher".into()
    }
    fn initial(&mut self) -> TransferSettings {
        self.agent.initial_settings()
    }
    fn on_sample(&mut self, metrics: &ProbeMetrics) -> TransferSettings {
        if self.freed.get() {
            self.saw_freed.set(true);
        }
        self.agent.observe(*metrics)
    }
}

/// The runner drops a transfer's tuner once the transfer is done, whether
/// it completed or left on schedule, while the run goes on: a watcher
/// that outlives it sees the drop from inside the run.
#[test]
fn runner_frees_a_finished_tuner_before_the_run_ends() {
    let ten_gb = || Dataset::uniform_1gb(10);
    for (case, dataset, leave_s) in [
        ("completion", ten_gb(), None),
        ("departure", big_dataset(), Some(60.0)),
    ] {
        let (samples, freed, saw_freed) = (Rc::default(), Rc::default(), Rc::default());
        let watched = Watched {
            agent: FalconAgent::gradient_descent(32),
            samples: Rc::clone(&samples),
            freed: Rc::clone(&freed),
        };
        let watcher = Watcher {
            agent: FalconAgent::gradient_descent(32),
            freed: Rc::clone(&freed),
            saw_freed: Rc::clone(&saw_freed),
        };
        let mut plan = AgentPlan::at_start(Box::new(watched), dataset);
        plan.leave_s = leave_s;
        let env = Environment::emulab(100.0).without_noise();
        let mut h = SimHarness::new(Simulation::new(env, 5));
        let plans = vec![plan, AgentPlan::at_start(Box::new(watcher), big_dataset())];
        let trace = Runner::default().run(&mut h, plans, 400.0);
        let done = trace.completed_at[0];
        assert!(
            done.is_some_and(|t| t < 300.0),
            "{case}: finished at {done:?}"
        );
        assert!(
            samples.get() > 0,
            "{case}: the tuner steered before it was freed"
        );
        assert!(
            saw_freed.get(),
            "{case}: tuner still held after its transfer finished"
        );
    }
}
