//! Deterministic churning workloads: seeded Poisson-like arrivals with
//! file-size and route distributions, plus long-lived anchor transfers.

use falcon_transfer::dataset::{Dataset, FileSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::topology::FleetTopology;

/// Workload shape parameters. All randomness is drawn from one seeded
/// `StdRng` in a fixed order, so a `(topology, workload, seed)` triple
/// always generates the identical transfer list.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Number of churning transfers (arrivals beyond the anchors).
    pub transfers: usize,
    /// Mean arrival rate of the Poisson-like process (per minute).
    pub arrivals_per_min: f64,
    /// Mean file size of churning transfers (MB); sizes are spread
    /// uniformly over `[0.25, 1.75] × mean`.
    pub mean_file_mb: f64,
    /// Size of the long-lived anchor transfer started at `t = 0` on every
    /// route (GB); `0` disables anchors. Anchors outlive the campaign and
    /// carry the per-bottleneck fairness measurement.
    pub anchor_gb: f64,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            transfers: 200,
            arrivals_per_min: 24.0,
            mean_file_mb: 500.0,
            anchor_gb: 40.0,
        }
    }
}

/// One generated transfer: when it arrives, which route it takes, and
/// what it moves. It departs when its dataset completes.
#[derive(Debug, Clone)]
pub struct TransferSpec {
    /// Arrival time (seconds).
    pub start_s: f64,
    /// Index into the topology's `paths`.
    pub path: usize,
    /// The files to move.
    pub dataset: Dataset,
}

/// Generate the workload: one anchor per route at `t = 0` (if enabled),
/// then `transfers` churning arrivals with exponential inter-arrival
/// times drawn by inverse CDF. The result is sorted by `start_s`.
pub fn generate(topology: &FleetTopology, workload: &Workload, seed: u64) -> Vec<TransferSpec> {
    debug_assert!(workload.arrivals_per_min > 0.0);
    debug_assert!(workload.mean_file_mb > 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut specs = Vec::with_capacity(topology.paths.len() + workload.transfers);
    if workload.anchor_gb > 0.0 {
        // Split each anchor into 8 files so concurrency > 1 has work to
        // parallelize over.
        let file_bytes = (workload.anchor_gb * 1e9 / 8.0) as u64;
        for (path, _) in topology.paths.iter().enumerate() {
            specs.push(TransferSpec {
                start_s: 0.0,
                path,
                dataset: Dataset {
                    name: "fleet-anchor",
                    files: vec![FileSpec {
                        size_bytes: file_bytes,
                        count: 8,
                    }],
                },
            });
        }
    }
    let rate_per_s = workload.arrivals_per_min / 60.0;
    let mut t = 0.0f64;
    for _ in 0..workload.transfers {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        // falcon-lint::allow(float-time-accum, reason = "Poisson arrival times are cumulative sums of exponentials by definition; no closed-form grid exists")
        t += -u.ln() / rate_per_s;
        let path = rng.gen_range(0..topology.paths.len());
        let n_files = rng.gen_range(1..=3usize);
        let files = (0..n_files)
            .map(|_| {
                let spread: f64 = rng.gen();
                let mb = workload.mean_file_mb * (0.25 + 1.5 * spread);
                FileSpec {
                    size_bytes: (mb * 1e6) as u64,
                    count: 1,
                }
            })
            .collect();
        specs.push(TransferSpec {
            start_s: t,
            path,
            dataset: Dataset {
                name: "fleet-churn",
                files,
            },
        });
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FleetTopology {
        FleetTopology::multi_bottleneck(&[1000.0, 1600.0, 2500.0])
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = generate(&topo(), &Workload::default(), 7);
        let b = generate(&topo(), &Workload::default(), 7);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = generate(&topo(), &Workload::default(), 8);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn anchors_cover_every_route_and_arrivals_are_sorted() {
        let specs = generate(&topo(), &Workload::default(), 7);
        assert_eq!(specs.len(), 4 + 200);
        for (path, spec) in specs.iter().take(4).enumerate() {
            assert_eq!(spec.start_s, 0.0);
            assert_eq!(spec.path, path);
            assert_eq!(spec.dataset.name, "fleet-anchor");
        }
        for pair in specs.windows(2) {
            assert!(pair[0].start_s <= pair[1].start_s);
        }
    }

    #[test]
    fn arrival_rate_is_roughly_poisson() {
        let w = Workload {
            transfers: 600,
            arrivals_per_min: 60.0,
            anchor_gb: 0.0,
            ..Workload::default()
        };
        let specs = generate(&topo(), &w, 3);
        let last = specs.last().map(|s| s.start_s).unwrap_or(0.0);
        // 600 arrivals at 1/s take ~600 s (±20% at this sample size).
        assert!((480.0..720.0).contains(&last), "last arrival at {last}");
    }

    #[test]
    fn all_routes_get_traffic() {
        let specs = generate(&topo(), &Workload::default(), 7);
        for path in 0..4 {
            assert!(
                specs.iter().filter(|s| s.path == path).count() >= 10,
                "route {path} starved"
            );
        }
    }
}
