//! Extension experiments beyond the paper's figures: the related-work
//! searches of §5 head-to-head, dynamic background traffic (§1's
//! motivation), the §4.6 dynamic-search-space proposal, and a probe-interval
//! ablation (§3.2's "it takes several seconds to accurately measure").

use falcon_core::{
    BayesianMpOptimizer, BayesianOptimizer, BoMpParams, BoParams, FalconAgent,
    GoldenSectionOptimizer, SpsaOptimizer, UtilityFunction,
};
use falcon_sim::{traffic, Environment, Simulation};
use falcon_transfer::dataset::Dataset;
use falcon_transfer::harness::SimHarness;
use falcon_transfer::runner::{AgentPlan, Runner, Tuner};

use crate::endless;
use crate::figs6_8::time_to_sustained;
use crate::table::Table;

/// Optimizer shootout on Emulab-48: every search algorithm in the suite,
/// including the related-work baselines the paper discusses in §5
/// (GridFTP-APT's Golden Section Search, ProbData's stochastic
/// approximation). Background traffic occupies 60% of the link for the
/// first 600 s, then leaves: converge-once methods (GSS) pin their bracket
/// to the congested optimum and never reclaim the freed capacity, while
/// Falcon's always-on searches re-expand — the adaptivity gap §5 holds
/// against this family. Convergence time is measured after the release.
pub fn shootout() -> Table {
    type TunerFactory = Box<dyn Fn() -> Box<dyn Tuner> + Send + Sync>;
    let contenders: Vec<(&str, TunerFactory)> = vec![
        (
            "hill-climbing",
            Box::new(|| Box::new(FalconAgent::hill_climbing(100))),
        ),
        (
            "gradient-descent",
            Box::new(|| Box::new(FalconAgent::gradient_descent(100))),
        ),
        (
            "bayesian-opt",
            Box::new(|| Box::new(FalconAgent::bayesian(100, 77))),
        ),
        (
            "golden-section",
            Box::new(|| {
                Box::new(FalconAgent::new(
                    UtilityFunction::falcon_default(),
                    Box::new(GoldenSectionOptimizer::new(100)),
                ))
            }),
        ),
        (
            "spsa (probdata)",
            Box::new(|| {
                Box::new(FalconAgent::new(
                    UtilityFunction::falcon_default(),
                    Box::new(SpsaOptimizer::new(100)),
                ))
            }),
        ),
    ];

    let mut t = Table::new(
        "Extension: search-algorithm shootout (Emulab, optimal cc = 48)",
        &[
            "algorithm",
            "reconverge_after_release_s",
            "mbps_under_congestion",
            "mbps_after_release",
        ],
    );
    // Each contender drives its own 1200 s simulation — fan them out.
    let rows = falcon_par::fan_out(contenders, 5, |_, (name, mk)| {
        let mut h = SimHarness::new(Simulation::new(Environment::emulab(21.0), 131));
        // Background traffic holds 60% of the link until t = 600 s; the
        // searches converge against it, then it leaves and the optimum
        // jumps from ~20 to 48 concurrent transfers.
        h.sim_mut().add_background_flow(falcon_sim::BackgroundFlow {
            start_s: 0.0,
            end_s: 600.0,
            demand_mbps: 600.0,
            connections: 30,
        });
        let trace =
            Runner::default().run(&mut h, vec![AgentPlan::at_start(mk(), endless())], 1200.0);
        let steady = trace.avg_mbps(0, 400.0, 600.0);
        let released = trace.avg_mbps(0, 900.0, 1200.0);
        // Convergence time measured from the release at 600 s.
        let conv = {
            let shifted: Vec<_> = trace
                .points
                .iter()
                .filter(|p| p.t_s >= 600.0)
                .cloned()
                .collect();
            let sub = falcon_transfer::runner::RunTrace {
                labels: trace.labels.clone(),
                points: shifted,
                completed_at: vec![None],
                converged_at: vec![None],
                restarts: vec![0],
                discarded_probes: vec![0],
            };
            time_to_sustained(&sub, 0, 1000.0, 0.75, 620.0 + 20.0)
                .map_or("none".to_string(), |v| format!("{:.0}", v - 600.0))
        };
        vec![
            name.to_string(),
            conv,
            format!("{steady:.0}"),
            format!("{released:.0}"),
        ]
    });
    for row in rows {
        t.push_row(&row);
    }
    t
}

/// Dynamic conditions: Falcon-GD under periodic background bursts on the
/// Emulab link (the §1 motivation: the optimum for the *same* transfer
/// changes over time). Reports per-phase throughput and concurrency —
/// Falcon must shrink during bursts and re-expand between them.
pub fn dynamic_conditions() -> Table {
    let mut h = SimHarness::new(Simulation::new(Environment::emulab(100.0), 137));
    for f in traffic::periodic_bursts(200.0, 400.0, 200.0, 600.0, 6, 1400.0) {
        h.sim_mut().add_background_flow(f);
    }
    let trace = Runner::default().run(
        &mut h,
        vec![AgentPlan::at_start(
            Box::new(FalconAgent::gradient_descent(32)),
            endless(),
        )],
        1400.0,
    );
    let mut t = Table::new(
        "Extension: Falcon-GD under periodic background bursts (Emulab)",
        &["phase", "window_s", "falcon_mbps", "falcon_cc"],
    );
    let phases = [
        ("quiet", 120.0, 200.0),
        ("burst-1", 280.0, 400.0),
        ("recovery-1", 480.0, 600.0),
        ("burst-2", 680.0, 800.0),
        ("recovery-2", 880.0, 1000.0),
        ("burst-3", 1080.0, 1200.0),
        ("recovery-3", 1280.0, 1400.0),
    ];
    for (name, from, to) in phases {
        t.push_row(&[
            name.to_string(),
            format!("{from:.0}-{to:.0}"),
            format!("{:.0}", trace.avg_mbps(0, from, to)),
            format!("{:.1}", trace.avg_concurrency(0, from, to)),
        ]);
    }
    t
}

/// §4.6's dynamic search space: BO with the full 64-wide space vs BO
/// starting from a 16-ceiling that doubles on demand, on a low-optimum
/// network (Emulab-10). The dynamic variant must avoid the very high
/// early probes without losing steady throughput.
pub fn bo_search_space() -> Table {
    let run = |params: BoParams, label: &str, t: &mut Table| {
        let utility = UtilityFunction::falcon_default();
        let agent = FalconAgent::new(utility, Box::new(BayesianOptimizer::new(params)));
        let mut h = SimHarness::new(Simulation::new(Environment::emulab(100.0), 139));
        let trace = Runner::default().run(
            &mut h,
            vec![AgentPlan::at_start(Box::new(agent), endless())],
            400.0,
        );
        let max_probed = trace
            .points
            .iter()
            .map(|p| p.settings.concurrency)
            .max()
            .unwrap_or(0);
        t.push_row(&[
            label.to_string(),
            max_probed.to_string(),
            format!("{:.0}", trace.avg_mbps(0, 250.0, 400.0)),
        ]);
    };
    let mut t = Table::new(
        "Extension: BO dynamic search space (Emulab, optimal cc = 10)",
        &["variant", "max_concurrency_probed", "steady_mbps"],
    );
    run(BoParams::new(64).with_seed(11), "full space (64)", &mut t);
    run(
        BoParams::new(64).with_seed(11).with_dynamic_space(16),
        "dynamic (start 16)",
        &mut t,
    );
    t
}

/// §4.6's multi-parameter hazard, quantified: 2-D BO over a 32×32
/// (concurrency × parallelism) grid may probe settings creating up to
/// 1,024 connections; capping candidates at 64 total connections removes
/// the hazard without hurting steady throughput on a disk-limited path
/// (where parallelism buys nothing and Eq 7 wants it low anyway).
pub fn bo_mp() -> Table {
    // Three seeds per variant: BO's random init makes a single seed's
    // steady throughput noisy, and the table's claim ("the cap costs
    // nothing") should not hinge on one lucky draw. The six runs are
    // independent — fan them out and aggregate per variant.
    const SEEDS: [u64; 3] = [4, 5, 6];
    let variants = [
        ("uncapped 32x32", None),
        ("capped at 64 connections", Some(64u32)),
    ];
    let mut tasks: Vec<(usize, BoMpParams)> = Vec::new();
    for (vi, &(_, cap)) in variants.iter().enumerate() {
        for seed in SEEDS {
            let mut params = BoMpParams::new(32, 32).with_seed(seed);
            if let Some(c) = cap {
                params = params.with_connection_cap(c);
            }
            tasks.push((vi, params));
        }
    }
    let runs = falcon_par::fan_out(tasks, 6, |_, (vi, params)| {
        let utility = UtilityFunction::falcon_multi_param();
        let agent = FalconAgent::new(utility, Box::new(BayesianMpOptimizer::new(params)));
        let mut h = SimHarness::new(Simulation::new(Environment::xsede(), 151));
        let trace = Runner::default().run(
            &mut h,
            vec![AgentPlan::at_start(Box::new(agent), endless())],
            400.0,
        );
        let max_conns = trace
            .points
            .iter()
            .map(|p| p.settings.total_connections())
            .max()
            .unwrap_or(0);
        (vi, max_conns, trace.avg_mbps(0, 250.0, 400.0) / 1000.0)
    });

    let mut t = Table::new(
        "Extension: 2-D BO over (concurrency, parallelism) — §4.6 hazard (XSEDE, mean of 3 seeds)",
        &["variant", "max_connections_probed", "steady_gbps"],
    );
    for (vi, &(label, _)) in variants.iter().enumerate() {
        let mine: Vec<_> = runs.iter().filter(|r| r.0 == vi).collect();
        let max_conns = mine.iter().map(|r| r.1).max().unwrap_or(0);
        let mean_gbps = mine.iter().map(|r| r.2).sum::<f64>() / mine.len().max(1) as f64;
        t.push_row(&[
            label.to_string(),
            max_conns.to_string(),
            format!("{mean_gbps:.2}"),
        ]);
    }
    t
}

/// Probe-interval ablation: §3.2 argues samples need 3–5 s because of
/// connection establishment and TCP convergence. Sweep the interval on
/// the 30 ms Emulab path and report converged throughput — too-short
/// samples are ramp-dominated and mislead the search.
pub fn probe_interval() -> Table {
    let mut t = Table::new(
        "Extension: probe-interval ablation (Emulab, optimal cc = 10)",
        &["interval_s", "steady_mbps", "avg_concurrency"],
    );
    let rows = falcon_par::fan_out(vec![1.0, 2.0, 3.0, 5.0, 10.0], 5, |_, interval| {
        let mut env = Environment::emulab(100.0);
        env.sample_interval_s = interval;
        let mut h = SimHarness::new(Simulation::new(env, 149));
        let trace = Runner::default().run(
            &mut h,
            vec![AgentPlan::at_start(
                Box::new(FalconAgent::gradient_descent(32)),
                endless(),
            )],
            400.0,
        );
        vec![
            format!("{interval:.0}"),
            format!("{:.0}", trace.avg_mbps(0, 250.0, 400.0)),
            format!("{:.1}", trace.avg_concurrency(0, 250.0, 400.0)),
        ]
    });
    for row in rows {
        t.push_row(&row);
    }
    t
}

/// The headline overhead claim (§2/§3.1): a naive "fixed high concurrency"
/// policy matches Falcon's throughput on an easy network but burns far more
/// system resources; a conservative fixed setting is cheap but slow. Falcon
/// finds "just-enough" concurrency. Also reports loss — the fixed-30 policy
/// pays in packet loss too (Figure 4's argument).
pub fn overhead() -> Table {
    use falcon_core::TransferSettings;
    use falcon_transfer::runner::FixedTuner;

    let run = |tuner: Box<dyn Tuner>| {
        let mut h = SimHarness::new(Simulation::new(Environment::emulab_fig4(), 157));
        Runner::default().run(&mut h, vec![AgentPlan::at_start(tuner, endless())], 400.0)
    };
    let mut t = Table::new(
        "Extension: throughput vs overhead (Emulab fig-4, optimal cc = 10)",
        &["policy", "throughput_mbps", "process_seconds", "loss_pct"],
    );
    let fixed = |cc: u32| -> Box<dyn Tuner> {
        Box::new(FixedTuner {
            settings: TransferSettings::with_concurrency(cc),
            name: format!("fixed-{cc}"),
        })
    };
    for (label, tuner) in [
        ("fixed-2 (conservative)", fixed(2)),
        ("fixed-30 (aggressive)", fixed(30)),
        (
            "falcon-gd",
            Box::new(FalconAgent::gradient_descent(64)) as Box<dyn Tuner>,
        ),
    ] {
        let trace = run(tuner);
        let thr = trace.avg_mbps(0, 200.0, 400.0);
        let ps = trace.process_seconds(0, 200.0, 400.0);
        let cc = trace.avg_concurrency(0, 200.0, 400.0).round() as u32;
        let (_, loss) = crate::figs1_4::steady_state(Environment::emulab_fig4(), cc.max(1), 60.0);
        t.push_row(&[
            label.to_string(),
            format!("{thr:.0}"),
            format!("{ps:.0}"),
            format!("{:.2}", loss * 100.0),
        ]);
    }
    t
}

/// Straggler analysis: file-dispatch order on the heterogeneous *mixed*
/// dataset. Largest-first (LPT) hides the multi-gigabyte whales behind the
/// small-file stream; smallest-first leaves them as stragglers that pin a
/// single thread long after the rest of the transfer finished.
pub fn makespan() -> Table {
    use falcon_transfer::scheduler::{simulate, SchedulePolicy};
    let dataset = Dataset::mixed(5);
    let mut t = Table::new(
        "Extension: file-dispatch policy vs makespan (mixed dataset, 16 threads @ 1.9 Gbps)",
        &["policy", "makespan_s", "first_idle_s", "imbalance"],
    );
    for policy in SchedulePolicy::all() {
        let o = simulate(&dataset, policy, 16, 1900.0);
        t.push_row(&[
            policy.name().to_string(),
            format!("{:.0}", o.makespan_s),
            format!("{:.0}", o.first_idle_s),
            format!("{:.3}", o.imbalance),
        ]);
    }
    t
}

/// RTT unfairness (the paper's footnote-1 assumption, relaxed): one Falcon
/// agent's connections get half the per-connection share (a longer-RTT
/// path). The outcome is starker than the raw 2:1 weight gap: because the
/// incumbent's connections are *demand-capped* by the 21 Mbps per-process
/// throttle, its flows always claim their full demand first and the
/// handicapped agent is left the residual — which does not grow with its
/// concurrency. Eq 4 therefore rationally parks the handicapped agent at
/// minimal concurrency rather than burning connections on bandwidth it
/// cannot win. The game stays stable; fairness does not survive weight
/// asymmetry — supporting the paper's choice to assume same-RTT fairness
/// and flagging cross-layer tuning (§6 future work) as the real fix.
pub fn rtt_unfairness() -> Table {
    let mut h = SimHarness::new(Simulation::new(Environment::emulab(21.0), 163))
        .with_agent_weights(vec![1.0, 0.5]);
    let plans = vec![
        AgentPlan::at_start(Box::new(FalconAgent::gradient_descent(100)), endless()),
        AgentPlan::joining_at(
            Box::new(FalconAgent::gradient_descent(100)),
            endless(),
            150.0,
        ),
    ];
    let trace = Runner::default().run(&mut h, plans, 900.0);
    let mut t = Table::new(
        "Extension: Falcon under RTT unfairness (agent 2 at half per-connection weight)",
        &["metric", "value"],
    );
    let thr1 = trace.avg_mbps(0, 600.0, 900.0);
    let thr2 = trace.avg_mbps(1, 600.0, 900.0);
    t.push_row(&["short_rtt_mbps".into(), format!("{thr1:.0}")]);
    t.push_row(&["long_rtt_mbps".into(), format!("{thr2:.0}")]);
    t.push_row(&[
        "throughput_ratio".into(),
        format!("{:.2}", thr1 / thr2.max(1e-9)),
    ]);
    t.push_row(&[
        "short_rtt_cc".into(),
        format!("{:.1}", trace.avg_concurrency(0, 600.0, 900.0)),
    ]);
    t.push_row(&[
        "long_rtt_cc".into(),
        format!("{:.1}", trace.avg_concurrency(1, 600.0, 900.0)),
    ]);
    t.push_row(&[
        "jain_index".into(),
        format!("{:.3}", trace.fairness(&[0, 1], 600.0, 900.0)),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shootout_adaptive_searches_reclaim_released_capacity() {
        let t = shootout();
        let col = t.col("mbps_after_release");
        let find = |name: &str| -> f64 {
            let r = t.rows.iter().position(|r| r[0].starts_with(name)).unwrap();
            t.cell_f64(r, col)
        };
        // When the 600 Mbps of background traffic leaves, Falcon's
        // always-on searches re-expand toward 48 streams; golden-section is
        // pinned at its congested-era bracket and strands the capacity.
        let gd = find("gradient-descent");
        let gss = find("golden-section");
        assert!(gd > 800.0, "GD after release: {gd}");
        assert!(
            gss < 0.75 * gd,
            "pinned GSS ({gss}) should strand capacity vs GD ({gd})"
        );
    }

    #[test]
    fn dynamic_conditions_tracks_bursts() {
        let t = dynamic_conditions();
        let thr = t.column_f64("falcon_mbps");
        let cc = t.column_f64("falcon_cc");
        // quiet ≈ full link; bursts cut it; recoveries climb back.
        assert!(thr[0] > 850.0, "quiet {:.0}", thr[0]);
        assert!(thr[1] < 780.0, "burst-1 {:.0}", thr[1]);
        assert!(thr[2] > 850.0, "recovery-1 {:.0}", thr[2]);
        assert!(thr[3] < 780.0, "burst-2 {:.0}", thr[3]);
        assert!(thr[4] > 850.0, "recovery-2 {:.0}", thr[4]);
        // Game-rational response: against *non-adaptive* cross traffic the
        // Eq 4 agent defends its share by RAISING concurrency during bursts
        // (the fair-share gain still beats the Kⁿ regret while loss stays
        // low), then relaxes back once the burst ends.
        assert!(
            cc[1] > cc[2] + 1.0,
            "cc should rise during bursts: burst {} vs recovery {}",
            cc[1],
            cc[2]
        );
    }

    #[test]
    fn bo_dynamic_space_probes_less_aggressively() {
        let t = bo_search_space();
        let full_max = t.cell_f64(0, 1);
        let dyn_max = t.cell_f64(1, 1);
        assert!(
            dyn_max < full_max,
            "dynamic space should cap early probes: {dyn_max} vs {full_max}"
        );
        // Without sacrificing steady throughput.
        let full_thr = t.cell_f64(0, 2);
        let dyn_thr = t.cell_f64(1, 2);
        assert!(dyn_thr > 0.85 * full_thr, "{dyn_thr} vs {full_thr}");
    }

    #[test]
    fn rtt_unfairness_is_not_compensated() {
        let t = rtt_unfairness();
        let row = |name: &str| {
            let r = t.rows.iter().position(|r| r[0] == name).unwrap();
            t.cell_f64(r, 1)
        };
        // Demand-capped incumbents leave only the residual to the weighted
        // agent: the gap exceeds the raw 2:1 weight ratio…
        let ratio = row("throughput_ratio");
        assert!(ratio > 2.0, "ratio {ratio}");
        // …and Eq 4 rationally keeps the handicapped agent small instead of
        // burning connections on unwinnable bandwidth.
        assert!(
            row("long_rtt_cc") < row("short_rtt_cc"),
            "handicapped agent should stay small"
        );
        // The system stays stable and utilized.
        let total = row("short_rtt_mbps") + row("long_rtt_mbps");
        assert!(total > 850.0, "total {total}");
    }

    #[test]
    fn makespan_ranks_policies() {
        let t = makespan();
        let col = t.col("makespan_s");
        let row = |name: &str| t.rows.iter().position(|r| r[0] == name).unwrap();
        let lpt = t.cell_f64(row("largest-first"), col);
        let spt = t.cell_f64(row("smallest-first"), col);
        assert!(lpt <= spt, "LPT {lpt} vs SPT {spt}");
    }

    #[test]
    fn overhead_shows_just_enough_concurrency() {
        let t = overhead();
        let thr = t.column_f64("throughput_mbps");
        let ps = t.column_f64("process_seconds");
        let loss = t.column_f64("loss_pct");
        // fixed-2: cheap but slow.
        assert!(thr[0] < 0.3 * thr[1], "fixed-2 {}", thr[0]);
        // fixed-30 and falcon deliver the same throughput…
        assert!(
            (thr[2] - thr[1]).abs() < 0.12 * thr[1],
            "{} vs {}",
            thr[2],
            thr[1]
        );
        // …but falcon at a third of the process-seconds and far less loss.
        assert!(
            ps[2] < 0.55 * ps[1],
            "falcon ps {} vs fixed-30 {}",
            ps[2],
            ps[1]
        );
        assert!(
            loss[2] < 0.5 * loss[1],
            "falcon loss {} vs fixed-30 {}",
            loss[2],
            loss[1]
        );
    }

    #[test]
    fn bo_mp_cap_removes_the_hazard() {
        let t = bo_mp();
        let uncapped = t.cell_f64(0, 1);
        let capped = t.cell_f64(1, 1);
        assert!(
            uncapped > 200.0,
            "uncapped 2-D BO should probe aggressive corners: {uncapped}"
        );
        assert!(capped <= 64.0, "cap violated: {capped}");
        // Throughput survives the cap on a disk-limited path. Averaging
        // over three seeds makes the absolute bar meaningful again (a
        // single seed's steady Gbps swings with BO's random init): the
        // capped search must hold most of the ~4.2 Gbps XSEDE disk limit,
        // and must not trail the uncapped search.
        let thr_uncapped = t.cell_f64(0, 2);
        let thr_capped = t.cell_f64(1, 2);
        assert!(
            thr_capped > 3.8,
            "capped steady {thr_capped} Gbps (expected most of the disk limit)"
        );
        assert!(
            thr_capped > 0.95 * thr_uncapped,
            "cap hurt: {thr_capped} vs uncapped {thr_uncapped} Gbps"
        );
    }

    #[test]
    fn short_probe_intervals_hurt() {
        let t = probe_interval();
        let thr = t.column_f64("steady_mbps");
        // 1 s samples are ramp-dominated; 5 s samples are reliable.
        let one_s = thr[0];
        let five_s = thr[3];
        assert!(
            five_s > one_s,
            "longer samples should help: 1s={one_s} 5s={five_s}"
        );
        assert!(five_s > 850.0, "5s interval should converge well: {five_s}");
    }
}
