//! The campaign runner: drive a generated workload of concurrently-tuning
//! transfers through the shared experiment runner.

use falcon_sim::Simulation;
use falcon_trace::{TraceLog, Tracer};
use falcon_transfer::harness::SimHarness;
use falcon_transfer::runner::{AgentPlan, RunTrace, Runner};

use crate::report::FleetReport;
use crate::topology::FleetTopology;
use crate::tuner::FleetTuner;
use crate::workload::{generate, Workload};

/// Everything a campaign needs: where transfers run, what arrives, who
/// tunes, for how long, and under which seed.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Backbone and routes.
    pub topology: FleetTopology,
    /// Arrival/size/route distribution parameters.
    pub workload: Workload,
    /// Optimizer for every transfer.
    pub tuner: FleetTuner,
    /// Campaign length (simulated seconds).
    pub duration_s: f64,
    /// Master seed: the simulator, the workload generator, and each
    /// agent's tuner all derive from it.
    pub seed: u64,
}

impl CampaignSpec {
    /// The standard 3-bottleneck, 200-transfer churn campaign.
    pub fn standard(seed: u64) -> Self {
        CampaignSpec {
            topology: FleetTopology::multi_bottleneck(&[1000.0, 1600.0, 2500.0]),
            workload: Workload::default(),
            tuner: FleetTuner::GradientDescent,
            duration_s: 600.0,
            seed,
        }
    }
}

/// What a campaign produced.
pub struct CampaignOutcome {
    /// The runner's per-agent throughput/settings trace.
    pub trace: RunTrace,
    /// The structured event log (probes, decisions, convergence, fleet
    /// counters); empty unless the tracer recorded.
    pub log: TraceLog,
    /// Fleet metrics derived from the trace.
    pub report: FleetReport,
}

/// Run a campaign, emitting structured events into `tracer`. The tracer's
/// log is drained into the outcome; the report reads only the runner's
/// trace, so a disabled tracer changes nothing else.
///
/// Campaigns are event-driven end to end: the generated arrival and
/// departure times become exact wakeups in the shared [`Runner`], and the
/// simulation advances between them event by event — a transfer arriving
/// at t = 137.42 s joins at exactly that instant, not at the next tick.
pub fn run_campaign(spec: &CampaignSpec, tracer: Tracer) -> CampaignOutcome {
    let specs = generate(&spec.topology, &spec.workload, spec.seed);
    let mut sim = Simulation::new(spec.topology.env.clone(), spec.seed);
    sim.set_tracer(tracer.clone());
    let masks = specs
        .iter()
        .map(|t| spec.topology.paths[t.path].mask)
        .collect();
    let mut harness = SimHarness::new(sim).with_agent_paths(masks);
    let max_cc = spec.topology.env.max_concurrency;
    let plans: Vec<AgentPlan> = specs
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let tuner = spec.tuner.make(max_cc, spec.seed.wrapping_add(i as u64));
            AgentPlan::joining_at(tuner, t.dataset.clone(), t.start_s)
        })
        .collect();
    let runner = Runner {
        tracer: tracer.clone(),
    };
    let trace = runner.run(&mut harness, plans, spec.duration_s);
    tracer.add("fleet.transfers", specs.len() as u64);
    let completed = trace.completed_at.iter().flatten().count() as u64;
    tracer.add("fleet.completions", completed);
    let report = FleetReport::compute(&spec.topology, &specs, &trace, spec.duration_s);
    CampaignOutcome {
        trace,
        log: tracer.take_log(),
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(seed: u64) -> CampaignSpec {
        CampaignSpec {
            topology: FleetTopology::multi_bottleneck(&[500.0, 800.0]),
            workload: Workload {
                transfers: 20,
                arrivals_per_min: 12.0,
                mean_file_mb: 300.0,
                anchor_gb: 10.0,
            },
            tuner: FleetTuner::GradientDescent,
            duration_s: 180.0,
            seed,
        }
    }

    #[test]
    fn campaign_runs_and_reports() {
        let out = run_campaign(&small_spec(5), Tracer::recording());
        assert_eq!(out.report.transfers, 23); // 3 routes' anchors + 20
        assert!(out.report.completed > 5, "only {}", out.report.completed);
        assert_eq!(out.report.links.len(), 2);
        for link in &out.report.links {
            assert!(link.utilization > 0.2, "{} idle", link.name);
        }
        assert!(!out.log.records.is_empty());
        let counters: Vec<_> = out
            .log
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("fleet."))
            .collect();
        assert_eq!(counters.len(), 2);
    }

    #[test]
    fn campaign_is_deterministic_for_a_seed() {
        let run = |seed| run_campaign(&small_spec(seed), Tracer::recording());
        let a = run(5);
        let b = run(5);
        assert_eq!(a.log.to_jsonl(), b.log.to_jsonl());
        let c = run(6);
        assert_ne!(a.log.to_jsonl(), c.log.to_jsonl());
    }
}
