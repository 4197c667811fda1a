//! RL head-to-head: the `falcon-rl` learning tuners against the paper's
//! single-parameter optimizers (HC/GD/BO), judged on the two regimes the
//! regression suite cares about — the scripted link flap of
//! `scenarios/link_flap.ini` (first convergence, settle-window
//! utilization, re-convergence after both flap edges) and the
//! multi-bottleneck churn fleet of `scenarios/fleet_churn.ini`
//! (aggregate goodput, worst per-bottleneck Jain, convergence count).

use falcon_fleet::{run_campaign, CampaignSpec, FleetTuner, RlKind};
use falcon_sim::Environment;
use falcon_trace::{TraceQuery, Tracer};

use crate::observability::{achievable_mbps, flap_run, LinkFlap};
use crate::Table;

/// The head-to-head lineup: the paper's online optimizers, then the
/// learning tuners.
pub const LINEUP: [FleetTuner; 6] = [
    FleetTuner::HillClimbing,
    FleetTuner::GradientDescent,
    FleetTuner::Bayesian,
    FleetTuner::Rl(RlKind::Bandit),
    FleetTuner::Rl(RlKind::Q),
    FleetTuner::Rl(RlKind::Warm(None)),
];

/// `rl` experiment: the full lineup at the scenario-file shapes —
/// `link_flap.ini`'s standard flap under its seed (17) and
/// `fleet_churn.ini`'s standard campaign under its seed (42).
pub fn rl_head_to_head() -> Table {
    head_to_head(
        &LINEUP,
        LinkFlap::standard(),
        17,
        &CampaignSpec::standard(42),
        4,
    )
}

/// Run every tuner in `lineup` solo through `flap` on the 1G emulab path
/// and as the fleet-wide tuner of `churn`, one row per tuner in lineup
/// order (byte-identical for any `threads`).
///
/// Flap columns: first convergence time, pre-drop settle-window
/// utilization (mean goodput over the last 40% of the pre-drop window ÷
/// achievable), re-convergence times after the drop and restore edges,
/// and decisions taken. Churn columns: settle-window aggregate goodput,
/// worst per-bottleneck Jain, and transfers that converged.
pub fn head_to_head(
    lineup: &[FleetTuner],
    flap: LinkFlap,
    flap_seed: u64,
    churn: &CampaignSpec,
    threads: usize,
) -> Table {
    let mut t = Table::new(
        "RL head-to-head: learning tuners vs HC/GD/BO through a link flap and the churn fleet",
        &[
            "tuner",
            "conv_s",
            "settle_util",
            "reconv_drop_s",
            "reconv_restore_s",
            "decisions",
            "churn_gbps",
            "churn_jain",
            "churn_converged",
        ],
    );
    let rows = falcon_par::fan_out(lineup.to_vec(), threads, |_, tuner| {
        let env = Environment::emulab(100.0);
        let achievable = achievable_mbps(&env, 1.0);
        let max_cc = env.max_concurrency;
        let (trace, log, _) = flap_run(env, tuner.make(max_cc, flap_seed), flap_seed, flap);
        let q = TraceQuery::new(&log).agent(0);
        let util = trace.avg_mbps(0, 0.6 * flap.drop_s, flap.drop_s) / achievable;
        let spec = CampaignSpec {
            tuner,
            ..churn.clone()
        };
        let out = run_campaign(&spec, Tracer::disabled());
        let r = &out.report;
        let fmt_t = |v: Option<f64>| v.map_or("-".to_string(), |s| format!("{s:.0}"));
        vec![
            tuner.name(),
            fmt_t(q.convergence_time()),
            format!("{util:.2}"),
            fmt_t(q.convergence_after(flap.drop_s)),
            fmt_t(q.convergence_after(flap.restore_s)),
            q.decision_count().to_string(),
            format!("{:.2}", r.aggregate_mbps / 1000.0),
            format!("{:.3}", r.min_jain()),
            r.converged.to_string(),
        ]
    });
    for row in rows {
        t.push_row(&row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_fleet::{FleetTopology, Workload};

    /// A shrunk arena so the test stays quick: 2-minute flap, 8-transfer
    /// 2-bottleneck churn.
    fn quick() -> (LinkFlap, CampaignSpec) {
        let flap = LinkFlap {
            drop_s: 60.0,
            restore_s: 90.0,
            end_s: 120.0,
            drop_factor: 0.3,
        };
        let churn = CampaignSpec {
            topology: FleetTopology::multi_bottleneck(&[500.0, 800.0]),
            workload: Workload {
                transfers: 8,
                arrivals_per_min: 10.0,
                mean_file_mb: 150.0,
                anchor_gb: 4.0,
            },
            tuner: FleetTuner::GradientDescent,
            duration_s: 120.0,
            seed: 7,
        };
        (flap, churn)
    }

    #[test]
    fn head_to_head_rows_cover_the_lineup() {
        let (flap, churn) = quick();
        let lineup = [
            FleetTuner::GradientDescent,
            FleetTuner::Rl(RlKind::Bandit),
            FleetTuner::Rl(RlKind::Warm(None)),
        ];
        let t = head_to_head(&lineup, flap, 5, &churn, 2);
        assert_eq!(t.rows.len(), lineup.len());
        for tuner in lineup {
            assert!(
                t.rows.iter().any(|r| r[0] == tuner.name()),
                "missing row for {}:\n{}",
                tuner.name(),
                t.render()
            );
        }
        for jain in t.column_f64("churn_jain") {
            assert!((0.0..=1.0 + 1e-9).contains(&jain));
        }
        for d in t.column_f64("decisions") {
            assert!(d > 0.0, "a tuner took no decisions:\n{}", t.render());
        }
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 1 + lineup.len());
        assert!(csv.starts_with("tuner,conv_s,settle_util,"));
    }

    #[test]
    fn head_to_head_is_identical_across_worker_counts() {
        let (flap, churn) = quick();
        let lineup = [FleetTuner::Rl(RlKind::Bandit), FleetTuner::Rl(RlKind::Q)];
        let serial = head_to_head(&lineup, flap, 5, &churn, 1);
        let fanned = head_to_head(&lineup, flap, 5, &churn, 4);
        assert_eq!(serial.render(), fanned.render());
    }
}
