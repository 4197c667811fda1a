//! Fleet-scale campaign gates: the standard 200-transfer, 3-bottleneck
//! churn campaign must stay deterministic and fair on every bottleneck.

use falcon_repro::fleet::{
    run_campaign, CampaignOutcome, CampaignSpec, FleetTopology, FleetTuner, Workload,
};
use falcon_repro::trace::Tracer;

fn quick_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        topology: FleetTopology::multi_bottleneck(&[800.0, 1200.0]),
        workload: Workload {
            transfers: 24,
            arrivals_per_min: 12.0,
            mean_file_mb: 300.0,
            anchor_gb: 12.0,
        },
        tuner: FleetTuner::GradientDescent,
        duration_s: 240.0,
        seed,
    }
}

/// Short smoke: the quick campaign completes transfers, keeps every link
/// busy, and converges agents. This is the gating seed-sweep smoke; the
/// extended 10-seed soak runs in the scheduled `fleet-soak` CI job.
#[test]
fn fleet_campaign_smoke() {
    let out = run_campaign(&quick_spec(1), Tracer::disabled());
    let r = &out.report;
    assert_eq!(r.transfers, 27); // 3 routes' anchors + 24 churn arrivals
    assert!(
        r.completed > 5,
        "only {}/{} completed",
        r.completed,
        r.transfers
    );
    assert!(r.converged > 10, "only {} converged", r.converged);
    for link in &r.links {
        assert!(
            link.utilization > 0.3,
            "{} idle: {}",
            link.name,
            link.utilization
        );
    }
}

/// The acceptance gate: on three seeds of the standard 200-transfer,
/// 3-bottleneck campaign, Jain's fairness over each bottleneck's bound
/// transfers stays ≥ 0.9 after settle.
#[test]
fn standard_campaign_is_fair_on_every_bottleneck_across_seeds() {
    let outcomes: Vec<(u64, CampaignOutcome)> =
        falcon_par::fan_out(vec![11u64, 12, 13], 3, |_, seed| {
            (
                seed,
                run_campaign(&CampaignSpec::standard(seed), Tracer::disabled()),
            )
        });
    for (seed, out) in &outcomes {
        for link in &out.report.links {
            assert!(
                link.jain >= 0.9,
                "seed {seed}: {} jain {:.3} over {} transfers\n{}",
                link.name,
                link.jain,
                link.measured,
                out.report.summary()
            );
        }
    }
}

/// Campaign determinism, including across `falcon-par` worker counts: the
/// same seed must produce byte-identical JSONL whether the seeds are run
/// on one thread or four.
#[test]
fn campaigns_are_byte_identical_across_thread_counts() {
    let seeds = vec![21u64, 22, 23];
    let jsonl = |seed| {
        run_campaign(&quick_spec(seed), Tracer::recording())
            .log
            .to_jsonl()
    };
    let serial = falcon_par::fan_out(seeds.clone(), 1, |_, seed| jsonl(seed));
    let fanned = falcon_par::fan_out(seeds, 4, |_, seed| jsonl(seed));
    assert_eq!(
        serial, fanned,
        "fleet campaigns diverged across thread counts"
    );
}
