//! Comparison experiments: Figures 14, 15, 16 (§4.3–§4.5).

use falcon_baselines::{GlobusTuner, HarpHistory, HarpTuner};
use falcon_core::{FalconAgent, SearchBounds};
use falcon_sim::{Environment, Simulation};
use falcon_transfer::dataset::Dataset;
use falcon_transfer::harness::SimHarness;
use falcon_transfer::runner::{AgentPlan, Runner, Tuner};

use crate::endless;
use crate::table::Table;

/// Single-transfer average throughput of one tuner in one environment.
fn solo_gbps(env: Environment, tuner: Box<dyn Tuner>, dataset: Dataset, seed: u64) -> f64 {
    let mut h = SimHarness::new(Simulation::new(env, seed));
    let trace = Runner::default().run(&mut h, vec![AgentPlan::at_start(tuner, dataset)], 300.0);
    trace.avg_mbps(0, 150.0, 300.0) / 1000.0
}

/// Figure 14: Falcon vs Globus vs HARP for a 1 TB transfer in HPCLab,
/// XSEDE, and Campus Cluster. Paper shape: Falcon 2–6× Globus everywhere;
/// HARP trails Falcon by ~25–35% in HPCLab/XSEDE and is comparable in the
/// (10 Gbps) Campus Cluster.
pub fn fig14() -> Table {
    let dataset = Dataset::uniform_1gb(1_000_000);
    let nets: Vec<(&str, Environment)> = vec![
        ("hpclab", Environment::hpclab()),
        ("xsede", Environment::xsede()),
        ("campus", Environment::campus_cluster()),
    ];
    let mut t = Table::new(
        "Figure 14: Falcon vs state of the art, 1 TB dataset",
        &[
            "network",
            "globus_gbps",
            "harp_gbps",
            "falcon_gd_gbps",
            "falcon_vs_globus",
        ],
    );
    for (name, env) in nets {
        let globus = solo_gbps(
            env.clone(),
            Box::new(GlobusTuner::for_dataset(&dataset)),
            dataset.clone(),
            71,
        );
        let harp = solo_gbps(
            env.clone(),
            Box::new(HarpTuner::new(HarpHistory::ten_gig_corpus())),
            dataset.clone(),
            72,
        );
        let falcon = solo_gbps(
            env.clone(),
            Box::new(FalconAgent::gradient_descent(64)),
            dataset.clone(),
            73,
        );
        t.push_row(&[
            name.to_string(),
            format!("{globus:.2}"),
            format!("{harp:.2}"),
            format!("{falcon:.2}"),
            format!("{:.1}", falcon / globus.max(1e-9)),
        ]);
    }
    t
}

/// Figure 15: multi-parameter optimization (Falcon_MP: concurrency +
/// parallelism + pipelining via conjugate gradient descent and Eq 7) vs
/// concurrency-only Falcon, for the small/large/mixed datasets on
/// Stampede2–Comet. Paper shape: Falcon_MP wins by up to ~30% on *small*
/// and *mixed* (pipelining hides per-file gaps); concurrency-only wins on
/// *large* (Eq 7 is not strictly concave and MP search converges ~3×
/// slower, costing average throughput).
pub fn fig15() -> Table {
    let env = Environment::stampede2_comet;
    let datasets: Vec<(&str, Dataset)> = vec![
        ("small", Dataset::small(5)),
        ("large", Dataset::large(5)),
        ("mixed", Dataset::mixed(5)),
    ];
    let mut t = Table::new(
        "Figure 15: multi-parameter optimization (Stampede2-Comet)",
        &[
            "dataset",
            "falcon_cc_only_gbps",
            "falcon_mp_gbps",
            "mp_gain_pct",
        ],
    );
    // Whole-transfer average throughput (total bits over completion time),
    // the quantity the paper's bars report — it charges slow searches for
    // the time they spend at suboptimal settings.
    let run = |tuner: Box<dyn Tuner>, dataset: Dataset, seed: u64| -> f64 {
        let total_bits = dataset.total_bytes() as f64 * 8.0;
        let horizon = 900.0;
        let mut h = SimHarness::new(Simulation::new(env(), seed));
        let trace =
            Runner::default().run(&mut h, vec![AgentPlan::at_start(tuner, dataset)], horizon);
        let duration = trace.completed_at[0].unwrap_or(horizon);
        total_bits / duration / 1e9
    };
    for (name, dataset) in datasets {
        let cc_only = run(
            Box::new(FalconAgent::gradient_descent(64)),
            dataset.clone(),
            81,
        );
        let mp = run(
            Box::new(FalconAgent::multi_parameter(SearchBounds::multi_parameter(
                64, 8, 32,
            ))),
            dataset.clone(),
            82,
        );
        t.push_row(&[
            name.to_string(),
            format!("{cc_only:.2}"),
            format!("{mp:.2}"),
            format!("{:.0}", (mp / cc_only.max(1e-9) - 1.0) * 100.0),
        ]);
    }
    t
}

/// Friendliness scenario (§4.5): Globus starts at 0 s, HARP at 60 s, the
/// Falcon agent at 120 s; 1.1 TiB of 100 MiB–10 GiB files on
/// Stampede2–Comet. Reports steady-state throughput of each and the
/// degradation Falcon inflicted on the incumbents.
fn friendliness(falcon: Box<dyn Tuner>, title: &str) -> Table {
    let env = Environment::stampede2_comet();
    let dataset = Dataset::large(9);
    let mut h = SimHarness::new(Simulation::new(env, 83));
    let plans = vec![
        AgentPlan::at_start(Box::new(GlobusTuner::for_dataset(&dataset)), endless()),
        AgentPlan::joining_at(
            Box::new(HarpTuner::new(HarpHistory::ten_gig_corpus())),
            endless(),
            60.0,
        ),
        AgentPlan::joining_at(falcon, endless(), 120.0),
    ];
    let trace = Runner::default().run(&mut h, plans, 500.0);

    let globus_before = trace.avg_mbps(0, 100.0, 120.0) / 1000.0;
    let harp_before = trace.avg_mbps(1, 100.0, 120.0) / 1000.0;
    // Measure from the moment Falcon joins, so BO's aggressive initial
    // probing (the paper's §4.5 complaint) is part of the picture.
    let globus_after = trace.avg_mbps(0, 130.0, 500.0) / 1000.0;
    let harp_after = trace.avg_mbps(1, 130.0, 500.0) / 1000.0;
    let falcon_after = trace.avg_mbps(2, 300.0, 500.0) / 1000.0;
    let falcon_cc = trace.avg_concurrency(2, 300.0, 500.0);
    let impact = |before: f64, after: f64| (1.0 - after / before.max(1e-9)) * 100.0;

    let mut t = Table::new(title, &["metric", "value"]);
    t.push_row(&["globus_before_gbps".into(), format!("{globus_before:.2}")]);
    t.push_row(&["harp_before_gbps".into(), format!("{harp_before:.2}")]);
    t.push_row(&["globus_after_gbps".into(), format!("{globus_after:.2}")]);
    t.push_row(&["harp_after_gbps".into(), format!("{harp_after:.2}")]);
    t.push_row(&["falcon_gbps".into(), format!("{falcon_after:.2}")]);
    t.push_row(&["falcon_concurrency".into(), format!("{falcon_cc:.1}")]);
    t.push_row(&[
        "globus_degradation_pct".into(),
        format!("{:.0}", impact(globus_before, globus_after)),
    ]);
    t.push_row(&[
        "harp_degradation_pct".into(),
        format!("{:.0}", impact(harp_before, harp_after)),
    ]);
    t
}

/// Figure 16(a): Falcon-GD joining Globus + HARP. Paper shape: GD takes
/// spare capacity, degrading incumbents only ~15–20%.
pub fn fig16a() -> Table {
    friendliness(
        Box::new(FalconAgent::gradient_descent(64)),
        "Figure 16(a): Falcon-GD friendliness vs non-Falcon transfers",
    )
}

/// Figure 16(b): Falcon-BO joining Globus + HARP. Paper shape: BO probes
/// very high concurrency, grabs bandwidth aggressively, degrading
/// incumbents severely (~70% in the paper).
pub fn fig16b() -> Table {
    friendliness(
        Box::new(FalconAgent::bayesian(64, 99)),
        "Figure 16(b): Falcon-BO aggressiveness vs non-Falcon transfers",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_falcon_beats_baselines() {
        let t = fig14();
        for r in 0..t.rows.len() {
            let globus = t.cell_f64(r, 1);
            let harp = t.cell_f64(r, 2);
            let falcon = t.cell_f64(r, 3);
            // Paper: HARP is "comparable" in Campus Cluster and trails
            // Falcon elsewhere; allow a small comparable band.
            assert!(
                falcon >= harp * 0.88,
                "{}: falcon {falcon} should not trail harp {harp}",
                t.rows[r][0]
            );
            assert!(
                falcon > 1.5 * globus,
                "{}: falcon {falcon} vs globus {globus}",
                t.rows[r][0]
            );
        }
        // HPCLab specifically: Falcon 2x+ over Globus (paper: 22 vs 9).
        assert!(t.cell_f64(0, 4) >= 2.0);
    }

    #[test]
    fn fig16_gd_friendlier_than_bo() {
        let a = fig16a();
        let b = fig16b();
        let harp_deg_gd = a.cell_f64(7, 1);
        let harp_deg_bo = b.cell_f64(7, 1);
        assert!(
            harp_deg_bo > harp_deg_gd,
            "BO ({harp_deg_bo}%) should degrade HARP more than GD ({harp_deg_gd}%)"
        );
    }
}
