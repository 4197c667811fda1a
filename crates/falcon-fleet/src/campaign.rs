//! The campaign runner: drive a generated workload of concurrently-tuning
//! transfers through the shared experiment runner.

use falcon_core::{ProbeMetrics, TransferSettings};
use falcon_sim::Simulation;
use falcon_trace::{TraceLog, Tracer};
use falcon_transfer::harness::SimHarness;
use falcon_transfer::runner::{AgentPlan, RunTrace, Runner, Tuner};

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
    let mut specs = generate(&spec.topology, &spec.workload, spec.seed);
    let mut sim = Simulation::new(spec.topology.env.clone(), spec.seed);
    sim.set_tracer(tracer.clone());
    let masks = specs
        .iter()
        .map(|t| spec.topology.paths[t.path].mask)
        .collect();
    let mut harness = SimHarness::new(sim).with_agent_paths(masks);
    let max_cc = spec.topology.env.max_concurrency;
    // Every transfer runs the same entry, so one built tuner names them all.
    let label = spec.tuner.make(max_cc, spec.seed).label();
    // The datasets move into the plans; the report reads routes and times.
    let plans: Vec<AgentPlan> = (0u64..)
        .zip(&mut specs)
        .map(|(i, t)| {
            let tuner = BuiltAtJoin {
                entry: spec.tuner,
                max_cc,
                seed: spec.seed.wrapping_add(i),
                label: label.clone(),
                tracer: Tracer::disabled(),
                built: None,
            };
            let dataset = std::mem::take(&mut t.dataset);
            AgentPlan::joining_at(Box::new(tuner), dataset, t.start_s)
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

/// A transfer's tuner, built when the transfer joins: the campaign holds
/// one only for each transfer that has started and not finished.
struct BuiltAtJoin {
    entry: FleetTuner,
    max_cc: u32,
    seed: u64,
    label: String,
    /// Installed on the tuner once it is built.
    tracer: Tracer,
    built: Option<Box<dyn Tuner>>,
}

impl BuiltAtJoin {
    fn tuner(&mut self) -> &mut dyn Tuner {
        self.built
            .get_or_insert_with(|| {
                let mut tuner = self.entry.make(self.max_cc, self.seed);
                tuner.set_tracer(std::mem::take(&mut self.tracer));
                tuner
            })
            .as_mut()
    }
}

impl Tuner for BuiltAtJoin {
    fn label(&self) -> String {
        self.label.clone()
    }

    /// The runner asks for this as the transfer joins.
    fn initial(&mut self) -> TransferSettings {
        self.tuner().initial()
    }

    fn on_sample(&mut self, metrics: &ProbeMetrics) -> TransferSettings {
        self.tuner().on_sample(metrics)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        match self.built.as_mut() {
            Some(tuner) => tuner.set_tracer(tracer),
            None => self.tracer = tracer,
        }
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

    /// A plan's tuner holds nothing until its transfer joins, then decides
    /// exactly as the same entry built up front.
    #[test]
    fn a_tuner_built_at_join_decides_as_one_built_up_front() {
        let entry = FleetTuner::Bayesian;
        let mut eager = entry.make(32, 9);
        let mut lazy = BuiltAtJoin {
            entry,
            max_cc: 32,
            seed: 9,
            label: eager.label(),
            tracer: Tracer::disabled(),
            built: None,
        };
        lazy.set_tracer(Tracer::recording());
        assert!(lazy.built.is_none());
        let (mut a, mut b) = (lazy.initial(), eager.initial());
        assert!(lazy.built.is_some());
        for k in 0..12 {
            assert_eq!(a, b, "decision {k}");
            let mbps = |s: TransferSettings| 90.0 * f64::from(s.concurrency.min(6) + k % 3);
            a = lazy.on_sample(&ProbeMetrics::from_aggregate(a, mbps(a), 0.0, 5.0));
            b = eager.on_sample(&ProbeMetrics::from_aggregate(b, mbps(b), 0.0, 5.0));
        }
        assert_eq!(lazy.label(), eager.label());
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
