//! Fleet metrics: per-link utilization, per-bottleneck fairness, and
//! convergence/settle statistics.

use falcon_transfer::runner::{jain_index, RunTrace, TRACE_EVERY_S};

use crate::topology::FleetTopology;
use crate::workload::TransferSpec;

/// Metrics for one backbone link over the settle window.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkReport {
    /// Resource index in the environment.
    pub link: usize,
    /// Link name ("link0"…).
    pub name: String,
    /// Configured capacity (Mbps).
    pub capacity_mbps: f64,
    /// Time-averaged goodput crossing the link over the settle window
    /// (absent transfers contribute zero) ÷ capacity.
    pub utilization: f64,
    /// Jain's fairness index over this bottleneck's *route peers*: the
    /// worst per-route Jain among routes whose minimum-capacity hop is
    /// this link, computed over transfers present through the settle
    /// window. Transfers on different routes are deliberately not
    /// compared — a multi-hop route accumulates loss at every congested
    /// hop and equilibrates to a smaller share (the multi-bottleneck
    /// analogue of TCP's RTT bias), which is a property of the routes,
    /// not unfairness among peers. `1.0` when no route has two qualified
    /// transfers.
    pub jain: f64,
    /// How many transfers the Jain index was computed over.
    pub measured: usize,
}

/// Fleet-level outcome of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-link metrics, in resource order.
    pub links: Vec<LinkReport>,
    /// Time-averaged total goodput over the settle window (Mbps), absent
    /// transfers counting as zero.
    pub aggregate_mbps: f64,
    /// Transfers whose dataset completed within the campaign.
    pub completed: usize,
    /// Total transfers in the workload.
    pub transfers: usize,
    /// Transfers whose concurrency settled ([`RunTrace::converged_at`]).
    pub converged: usize,
    /// 99th-percentile time from arrival to first convergence (seconds);
    /// `None` when nothing converged.
    pub settle_p99_s: Option<f64>,
    /// The settle window `[from, to)` the averages were taken over.
    pub settle_window: (f64, f64),
}

impl FleetReport {
    /// Derive the report from a campaign's trace. The settle window is
    /// the last 40% of the campaign, half-open; a transfer qualifies for the
    /// fairness population when it has trace points covering ≥ 70% of the
    /// window (long-lived through settle, not churn passing by).
    pub fn compute(
        topology: &FleetTopology,
        specs: &[TransferSpec],
        trace: &RunTrace,
        duration_s: f64,
    ) -> Self {
        let w0 = 0.6 * duration_s;
        let w1 = duration_s;
        let n = specs.len();

        // One pass over the points: per-agent mean goodput and coverage
        // inside the half-open window `[w0, w1)`, which holds exactly
        // `(w1 - w0) / TRACE_EVERY_S` grid points (as `RunTrace::avg_mbps`).
        let mut sum = vec![0.0f64; n];
        let mut count = vec![0usize; n];
        for p in &trace.points {
            let a = p.agent as usize;
            if a < n && p.t_s >= w0 && p.t_s < w1 {
                sum[a] += p.mbps;
                count[a] += 1;
            }
        }
        // The runner's trace-point cadence says how much of the window an
        // agent was actually present for.
        let expected_points = ((w1 - w0) / TRACE_EVERY_S).max(1.0);
        // Rate while present (for fairness among peers)…
        let avg = |i: usize| {
            if count[i] > 0 {
                sum[i] / count[i] as f64
            } else {
                0.0
            }
        };
        // …vs. mean over the whole window, absent samples counting as zero
        // (for utilization: a transfer active 10% of the window loads the
        // link with 10% of its rate).
        let window_avg = |i: usize| sum[i] / expected_points;
        let present = |i: usize| count[i] as f64 >= 0.7 * expected_points;

        // First convergence per agent → settle times.
        let mut settles: Vec<f64> = specs
            .iter()
            .zip(&trace.converged_at)
            .filter_map(|(s, t)| t.map(|t| (t - s.start_s).max(0.0)))
            .collect();
        settles.sort_by(f64::total_cmp);
        let converged = settles.len();
        let settle_p99_s = (!settles.is_empty()).then(|| {
            let idx = ((settles.len() - 1) as f64 * 0.99).ceil() as usize;
            settles[idx.min(settles.len() - 1)]
        });

        let links = topology
            .link_indices()
            .into_iter()
            .map(|l| {
                let capacity = topology.env.resources[l].capacity_mbps;
                let crossing: f64 = specs
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| topology.paths[s.path].mask & (1u64 << l) != 0)
                    .map(|(i, _)| window_avg(i))
                    .sum();
                let mut jain = 1.0f64;
                let mut measured = 0;
                for (p, path) in topology.paths.iter().enumerate() {
                    if topology.binding_link(path.mask) != l {
                        continue;
                    }
                    let rates: Vec<f64> = specs
                        .iter()
                        .enumerate()
                        .filter(|(i, s)| s.path == p && present(*i))
                        .map(|(i, _)| avg(i))
                        .collect();
                    if rates.len() >= 2 {
                        jain = jain.min(jain_index(&rates));
                        measured += rates.len();
                    }
                }
                LinkReport {
                    link: l,
                    name: topology.env.resources[l].name.to_string(),
                    capacity_mbps: capacity,
                    utilization: crossing / capacity,
                    jain,
                    measured,
                }
            })
            .collect();

        FleetReport {
            links,
            aggregate_mbps: (0..n).map(window_avg).sum(),
            completed: trace.completed_at.iter().flatten().count(),
            transfers: n,
            converged,
            settle_p99_s,
            settle_window: (w0, w1),
        }
    }

    /// The worst per-bottleneck fairness index.
    pub fn min_jain(&self) -> f64 {
        self.links.iter().map(|l| l.jain).fold(1.0, f64::min)
    }

    /// Human-readable multi-line summary (CLI output, CI artifacts).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "fleet report (settle window {:.0}-{:.0}s)\n",
            self.settle_window.0, self.settle_window.1
        );
        for l in &self.links {
            out.push_str(&format!(
                "  {:<8} {:>7.0} Mbps  util {:>5.2}  jain {:.3} over {} transfers\n",
                l.name, l.capacity_mbps, l.utilization, l.jain, l.measured
            ));
        }
        out.push_str(&format!(
            "  aggregate {:.0} Mbps; {}/{} completed; {} converged; settle p99 {}\n",
            self.aggregate_mbps,
            self.completed,
            self.transfers,
            self.converged,
            match self.settle_p99_s {
                Some(s) => format!("{s:.1}s"),
                None => "n/a".to_string(),
            }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::campaign::{run_campaign, CampaignSpec};
    use crate::{FleetTopology, FleetTuner, Workload};
    use falcon_trace::Tracer;

    #[test]
    fn saturated_link_reports_at_most_its_capacity() {
        // 20 `fixed:4` transfers keep one 1000 Mbps link full through the
        // settle window: every sample reads the link at capacity, and the
        // window's sample count is what the sum is divided by.
        let spec = CampaignSpec {
            topology: FleetTopology::multi_bottleneck(&[1000.0]),
            workload: Workload {
                transfers: 20,
                ..Workload::default()
            },
            tuner: FleetTuner::Fixed(4),
            duration_s: 300.0,
            seed: 1,
        };
        let r = run_campaign(&spec, Tracer::disabled()).report;
        assert!(r.links[0].utilization > 0.99, "{}", r.summary());
        assert!(r.links[0].utilization <= 1.0, "{}", r.summary());
        assert!(r.aggregate_mbps <= 1000.0, "{}", r.summary());
    }

    #[test]
    fn report_fields_are_consistent() {
        let spec = CampaignSpec {
            duration_s: 240.0,
            ..CampaignSpec::standard(11)
        };
        let out = run_campaign(&spec, Tracer::disabled());
        let r = &out.report;
        assert_eq!(r.transfers, 204);
        assert!(r.completed <= r.transfers);
        assert!(r.converged <= r.transfers);
        assert!(r.aggregate_mbps > 0.0);
        assert!((0.0..=1.0 + 1e-9).contains(&r.min_jain()));
        for l in &r.links {
            assert!(l.utilization >= 0.0);
        }
        let text = r.summary();
        assert!(text.contains("aggregate"));
        assert!(text.contains("jain"));
    }
}
