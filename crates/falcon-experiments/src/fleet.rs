//! Fleet-scale campaign experiment: the standard 200-transfer,
//! 3-bottleneck churn campaign swept over seeds, parallelized with
//! `falcon_par` (byte-identical across worker counts).

use falcon_fleet::{run_campaign, CampaignSpec};
use falcon_trace::Tracer;

use crate::Table;

/// Seeds the `fleet` experiment sweeps.
const SEEDS: [u64; 3] = [11, 12, 13];

/// `fleet` experiment: per-seed fleet metrics of the standard campaign —
/// settle-window aggregate goodput, worst per-bottleneck Jain index,
/// completions, convergence count, and the 99th-percentile settle time.
pub fn fleet() -> Table {
    fleet_over_seeds(&SEEDS, 4, CampaignSpec::standard)
}

/// Sweep `make_spec(seed)` campaigns across `threads` workers. The rows
/// are in seed order and byte-identical for any worker count (each
/// campaign derives everything from its own seed).
pub fn fleet_over_seeds(
    seeds: &[u64],
    threads: usize,
    make_spec: impl Fn(u64) -> CampaignSpec + Send + Sync,
) -> Table {
    let mut t = Table::new(
        "Fleet: multi-bottleneck churn campaign, per-seed metrics",
        &[
            "seed",
            "transfers",
            "completed",
            "converged",
            "agg_gbps",
            "min_jain",
            "settle_p99_s",
        ],
    );
    let rows = falcon_par::fan_out(seeds.to_vec(), threads, |_, seed| {
        let out = run_campaign(&make_spec(seed), Tracer::disabled());
        let r = &out.report;
        vec![
            seed.to_string(),
            r.transfers.to_string(),
            r.completed.to_string(),
            r.converged.to_string(),
            format!("{:.2}", r.aggregate_mbps / 1000.0),
            format!("{:.3}", r.min_jain()),
            r.settle_p99_s
                .map_or("-".to_string(), |s| format!("{s:.1}")),
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
    use falcon_fleet::{FleetTopology, FleetTuner, Workload};

    fn quick(seed: u64) -> CampaignSpec {
        CampaignSpec {
            topology: FleetTopology::multi_bottleneck(&[500.0, 800.0]),
            workload: Workload {
                transfers: 10,
                arrivals_per_min: 10.0,
                mean_file_mb: 200.0,
                anchor_gb: 6.0,
            },
            tuner: FleetTuner::GradientDescent,
            duration_s: 120.0,
            seed,
        }
    }

    #[test]
    fn fleet_sweep_is_identical_across_worker_counts() {
        let serial = fleet_over_seeds(&[5, 6], 1, quick);
        let fanned = fleet_over_seeds(&[5, 6], 4, quick);
        assert_eq!(serial.render(), fanned.render());
        assert_eq!(serial.rows.len(), 2);
        assert!(
            serial.cell_f64(0, 4) > 0.0,
            "idle fleet:\n{}",
            serial.render()
        );
    }
}
