//! The columnar `RunTrace` against the point-per-row layout it replaced.
//!
//! The oracle is the sequence of points the runner records, captured by a
//! harness wrapper at the moment the runner reads each agent's goodput for
//! the trace (instant-major, agents in plan order), not read back from the
//! trace. Every `RunTrace` query must give the same bits as the old
//! filter-over-all-points implementation on that sequence.

use std::cell::RefCell;

use falcon_core::{FalconAgent, ProbeMetrics, TransferSettings};
use falcon_sim::{Environment, EnvironmentEvent, EventAction, Simulation};
use falcon_transfer::dataset::Dataset;
use falcon_transfer::harness::{SimHarness, TransferHarness};
use falcon_transfer::runner::{
    jain_index, AgentPlan, FixedTuner, RunTrace, Runner, TracePoint, TRACE_EVERY_S,
};

/// A simulator whose clock overshoots each wakeup by 0, 0.1, 0.2 or 0.3 s
/// in turn, so trace instants land off the 1-s grid and unevenly, and
/// which records every point the runner traces.
struct Recording {
    inner: SimHarness,
    advances: u32,
    /// Agent (plan index) per slot: every plan starts no earlier than the
    /// one before it, so the runner joins them in plan order.
    agents: Vec<u32>,
    points: RefCell<Vec<TracePoint>>,
}

impl TransferHarness for Recording {
    fn join(&mut self, dataset: Dataset) -> usize {
        self.agents.push(self.agents.len() as u32);
        self.inner.join(dataset)
    }
    fn apply(&mut self, agent: usize, settings: TransferSettings) {
        self.inner.apply(agent, settings);
    }
    fn advance(&mut self, dt_s: f64) {
        self.inner.advance(dt_s);
    }
    fn advance_until(&mut self, t_s: f64) {
        self.advances += 1;
        self.inner
            .advance_until(t_s + 0.1 * f64::from(self.advances % 4));
    }
    fn sample(&mut self, agent: usize) -> ProbeMetrics {
        self.inner.sample(agent)
    }
    // The runner reads a goodput only to trace it.
    fn instantaneous_mbps(&self, agent: usize) -> f64 {
        let mbps = self.inner.instantaneous_mbps(agent);
        self.points.borrow_mut().push(TracePoint {
            t_s: self.inner.time_s(),
            agent: self.agents[agent],
            mbps,
            settings: self.inner.current_settings(agent),
        });
        mbps
    }
    fn current_settings(&self, agent: usize) -> TransferSettings {
        self.inner.current_settings(agent)
    }
    fn is_complete(&self, agent: usize) -> bool {
        self.inner.is_complete(agent)
    }
    fn leave(&mut self, agent: usize) {
        self.inner.leave(agent);
    }
    fn time_s(&self) -> f64 {
        self.inner.time_s()
    }
    fn sample_interval_s(&self) -> f64 {
        self.inner.sample_interval_s()
    }
    fn max_concurrency(&self) -> u32 {
        self.inner.max_concurrency()
    }
    fn is_attached(&self, agent: usize) -> bool {
        self.inner.is_attached(agent)
    }
    fn restart(&mut self, agent: usize) -> bool {
        self.inner.restart(agent)
    }
}

/// A 300-s run with every shape a column must hold: agent 0 killed at
/// 100 s (detached, then restarted), agent 1 joining off the grid and
/// leaving on a script, agent 2 completing, agent 3 joining late and
/// running to the end. Returns the trace and the recorded points.
fn run() -> (RunTrace, Vec<TracePoint>) {
    let mut sim = Simulation::new(Environment::emulab(100.0), 17);
    sim.try_add_events([EnvironmentEvent::at(
        100.0,
        EventAction::KillAgent { agent: 0 },
    )])
    .unwrap();
    let mut h = Recording {
        inner: SimHarness::new(sim),
        advances: 0,
        agents: Vec::new(),
        points: RefCell::new(Vec::new()),
    };
    let endless = || Dataset::uniform_1gb(100_000);
    let plans = vec![
        AgentPlan::at_start(Box::new(FalconAgent::gradient_descent(32)), endless()),
        AgentPlan::joining_at(Box::new(FalconAgent::bayesian(32, 5)), endless(), 20.37)
            .leaving_at(180.52),
        AgentPlan::joining_at(
            Box::new(FalconAgent::hill_climbing(32)),
            Dataset::uniform_1gb(5),
            30.0,
        ),
        AgentPlan::joining_at(
            Box::new(FixedTuner {
                settings: TransferSettings::with_concurrency(6),
                name: "fixed-6".into(),
            }),
            endless(),
            150.0,
        ),
    ];
    let trace = Runner::default().run(&mut h, plans, 300.0);
    (trace, h.points.into_inner())
}

// The old implementations, over a `Vec<TracePoint>`.

fn old_window(
    points: &[TracePoint],
    agent: usize,
    from_s: f64,
    to_s: f64,
) -> impl Iterator<Item = &TracePoint> + Clone {
    points
        .iter()
        .filter(move |p| p.agent as usize == agent && p.t_s >= from_s && p.t_s < to_s)
}

fn old_mean(
    points: &[TracePoint],
    agent: usize,
    from_s: f64,
    to_s: f64,
    f: impl Fn(&TracePoint) -> f64,
) -> f64 {
    let (sum, n) = old_window(points, agent, from_s, to_s)
        .fold((0.0, 0usize), |(sum, n), p| (sum + f(p), n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn old_series(points: &[TracePoint], agent: usize) -> Vec<(f64, f64, u32)> {
    points
        .iter()
        .filter(|p| p.agent as usize == agent)
        .map(|p| (p.t_s, p.mbps, p.settings.concurrency))
        .collect()
}

fn old_process_seconds(points: &[TracePoint], agent: usize, from_s: f64, to_s: f64) -> f64 {
    let pts = old_window(points, agent, from_s, to_s);
    pts.clone().zip(pts.skip(1)).fold(0.0, |total, (a, b)| {
        total + f64::from(a.settings.concurrency) * (b.t_s - a.t_s)
    })
}

fn old_settings_changes(points: &[TracePoint], agent: usize, from_s: f64, to_s: f64) -> usize {
    let pts = old_window(points, agent, from_s, to_s);
    pts.clone()
        .zip(pts.skip(1))
        .filter(|(a, b)| a.settings != b.settings)
        .count()
}

fn old_to_csv(points: &[TracePoint], labels: &[String]) -> String {
    let mut out = String::from("t_s,agent,label,mbps,concurrency,parallelism,pipelining\n");
    for p in points {
        out.push_str(&format!(
            "{:.1},{},{},{:.1},{},{},{}\n",
            p.t_s,
            p.agent,
            labels.get(p.agent as usize).map_or("?", |s| s.as_str()),
            p.mbps,
            p.settings.concurrency,
            p.settings.parallelism,
            p.settings.pipelining,
        ));
    }
    out
}

/// A point with its floats as bits, so `-0.0 != 0.0`.
fn bits(p: &TracePoint) -> (u64, u32, u64, TransferSettings) {
    (p.t_s.to_bits(), p.agent, p.mbps.to_bits(), p.settings)
}

/// Windows over a trace whose instants are `times`: every edge case the
/// old filter defined, bounds on an instant and between instants, and a
/// sweep of overlapping windows.
fn windows(times: &[f64]) -> Vec<(f64, f64)> {
    let mut w = vec![
        (f64::NEG_INFINITY, f64::INFINITY),
        (0.0, 300.0),
        (100.0, 100.0), // empty
        (200.0, 100.0), // inverted
        (f64::NAN, 200.0),
        (50.0, f64::NAN),
        (f64::NAN, f64::NAN),
        (-10.0, 0.5),   // before the first instant
        (299.5, 1e9),   // after the last
        (99.5, 105.0),  // agent 0 killed and restarted
        (181.0, 300.0), // agent 1 gone
        (150.0, 150.0 + TRACE_EVERY_S),
    ];
    for (i, &t) in times.iter().enumerate().step_by(7) {
        let later = times[(i + 23).min(times.len() - 1)];
        w.push((t, later)); // both bounds on an instant
        w.push((t, t)); // empty, on an instant
        w.push((t + 1e-9, later - 1e-9)); // just inside
        w.push((t - 1e-9, later + 1e-9)); // just outside
    }
    w
}

#[test]
fn columns_answer_every_query_as_the_point_list_did() {
    let (trace, oracle) = run();
    let n = trace.labels.len();

    // The run has the shapes it is meant to have.
    assert!(trace.restarts(0) >= 1, "agent 0 never restarted");
    assert!(trace.completed_at[1].is_some_and(|t| t < 200.0));
    assert!(trace.completed_at[2].is_some_and(|t| t < 250.0));
    assert!(trace.completed_at[3].is_none());
    let times: Vec<f64> = {
        let mut t: Vec<f64> = oracle.iter().map(|p| p.t_s).collect();
        t.dedup();
        t
    };
    assert!(
        times.iter().any(|t| t.fract() != 0.0),
        "every instant on the grid"
    );
    assert!(
        times.windows(2).any(|w| w[1] - w[0] != TRACE_EVERY_S),
        "instants evenly spaced"
    );

    // The points, in order, and the CSV made of them.
    let points: Vec<_> = trace.points().collect();
    assert_eq!(points.len(), oracle.len());
    for (i, (p, q)) in points.iter().zip(&oracle).enumerate() {
        assert_eq!(bits(p), bits(q), "point {i}");
    }
    assert_eq!(trace.to_csv(), old_to_csv(&oracle, &trace.labels));

    // One agent past the plan has no points, as before.
    for agent in 0..=n {
        let series = trace.series(agent);
        let old = old_series(&oracle, agent);
        assert_eq!(series.len(), old.len(), "agent {agent}");
        for (a, b) in series.iter().zip(&old) {
            assert_eq!(
                (a.0.to_bits(), a.1.to_bits(), a.2),
                (b.0.to_bits(), b.1.to_bits(), b.2)
            );
        }
        for (from, to) in windows(&times) {
            let at = format!("agent {agent} window [{from}, {to})");
            let window: Vec<_> = trace.window(agent, from, to).map(|p| bits(&p)).collect();
            let old: Vec<_> = old_window(&oracle, agent, from, to).map(bits).collect();
            assert_eq!(window, old, "{at}");
            assert_eq!(
                trace.avg_mbps(agent, from, to).to_bits(),
                old_mean(&oracle, agent, from, to, |p| p.mbps).to_bits(),
                "{at}"
            );
            assert_eq!(
                trace.avg_concurrency(agent, from, to).to_bits(),
                old_mean(&oracle, agent, from, to, |p| {
                    f64::from(p.settings.concurrency)
                })
                .to_bits(),
                "{at}"
            );
            assert_eq!(
                trace.process_seconds(agent, from, to).to_bits(),
                old_process_seconds(&oracle, agent, from, to).to_bits(),
                "{at}"
            );
            assert_eq!(
                trace.settings_changes(agent, from, to),
                old_settings_changes(&oracle, agent, from, to),
                "{at}"
            );
        }
    }
    for (from, to) in windows(&times) {
        for agents in [&[0, 1][..], &[0, 1, 2, 3], &[3, 0], &[]] {
            let old: Vec<f64> = agents
                .iter()
                .map(|&a| old_mean(&oracle, a, from, to, |p| p.mbps))
                .collect();
            assert_eq!(
                trace.fairness(agents, from, to).to_bits(),
                jain_index(&old).to_bits(),
                "agents {agents:?} window [{from}, {to})"
            );
        }
    }
}
