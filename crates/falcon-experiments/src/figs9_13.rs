//! Single- and multi-agent trace experiments: Figures 9–13 (§4.1–§4.2).

use falcon_core::FalconAgent;
use falcon_sim::{Environment, Simulation};
use falcon_transfer::harness::SimHarness;
use falcon_transfer::runner::{AgentPlan, RunTrace, Runner};

use crate::endless;
use crate::table::Table;

/// The four evaluation networks of §4.1, in paper order.
fn four_networks() -> Vec<(&'static str, Environment)> {
    vec![
        ("emulab", Environment::emulab(100.0)),
        ("xsede", Environment::xsede()),
        ("hpclab", Environment::hpclab()),
        ("campus", Environment::campus_cluster()),
    ]
}

/// Downsample a trace to every `every_s` seconds: (t, gbps, cc) triples.
fn downsample(trace: &RunTrace, agent: usize, every_s: f64) -> Vec<(f64, f64, u32)> {
    let mut out = Vec::new();
    let mut next = 0.0;
    for (t, mbps, cc) in trace.series(agent) {
        if t >= next {
            out.push((t, mbps / 1000.0, cc));
            next = t + every_s;
        }
    }
    out
}

fn single_agent_traces(mk: &(dyn Fn(u64) -> FalconAgent + Sync), title: &str) -> Table {
    let mut t = Table::new(
        title,
        &[
            "t_s",
            "emulab_gbps",
            "emulab_cc",
            "xsede_gbps",
            "xsede_cc",
            "hpclab_gbps",
            "hpclab_cc",
            "campus_gbps",
            "campus_cc",
        ],
    );
    // The four networks are independent runs with per-network seeds — fan
    // them out (ordered results keep the columns in paper order).
    let columns: Vec<Vec<(f64, f64, u32)>> =
        falcon_par::fan_out(four_networks(), 4, |i, (_, env)| {
            let mut h = SimHarness::new(Simulation::new(env, 51 + i as u64));
            let trace = Runner::default().run(
                &mut h,
                vec![AgentPlan::at_start(Box::new(mk(91 + i as u64)), endless())],
                300.0,
            );
            downsample(&trace, 0, 10.0)
        });
    let rows = columns.iter().map(|c| c.len()).min().unwrap_or(0);
    for r in 0..rows {
        let mut row = vec![format!("{:.0}", columns[0][r].0)];
        for c in &columns {
            row.push(format!("{:.2}", c[r].1));
            row.push(c[r].2.to_string());
        }
        t.push_row(&row);
    }
    t
}

/// Figure 9: Falcon with Gradient Descent in all four networks —
/// throughput and concurrency traces. Paper shape: converges within a few
/// sample intervals, then bounces ±1 around the optimum (e.g. 9↔11 in
/// Emulab); >25 Gbps in HPCLab, ~9.2 Gbps Campus, ~5.4 Gbps XSEDE.
pub fn fig9() -> Table {
    single_agent_traces(
        &|_| FalconAgent::gradient_descent(64),
        "Figure 9: Falcon-GD traces in four networks",
    )
}

/// Figure 10: Falcon with Bayesian Optimization in all four networks.
/// Paper shape: 3 random probes, then concentration around the optimum
/// with periodic exploration.
pub fn fig10() -> Table {
    single_agent_traces(
        &|seed| FalconAgent::bayesian(64, seed),
        "Figure 10: Falcon-BO traces in four networks",
    )
}

/// Three-agent stability scenario in HPCLab: joins at 0/150/300 s, agent 1
/// departs at 450 s; runs to 600 s.
fn stability_run(mk: &dyn Fn(u64) -> FalconAgent, title: &str) -> Table {
    let mut h = SimHarness::new(Simulation::new(Environment::hpclab(), 61));
    let plans = vec![
        AgentPlan::at_start(Box::new(mk(1)), endless()).leaving_at(450.0),
        AgentPlan::joining_at(Box::new(mk(2)), endless(), 150.0),
        AgentPlan::joining_at(Box::new(mk(3)), endless(), 300.0),
    ];
    let trace = Runner::default().run(&mut h, plans, 600.0);

    let mut t = Table::new(title, &["t_s", "agent1_gbps", "agent2_gbps", "agent3_gbps"]);
    let mut next = 0.0;
    let mut row: Vec<Option<f64>> = vec![None; 3];
    let mut row_t = 0.0;
    for p in trace.points() {
        if p.t_s >= next {
            if row.iter().any(Option::is_some) {
                t.push_row(&[
                    format!("{row_t:.0}"),
                    row[0].map_or("-".into(), |v| format!("{:.2}", v / 1000.0)),
                    row[1].map_or("-".into(), |v| format!("{:.2}", v / 1000.0)),
                    row[2].map_or("-".into(), |v| format!("{:.2}", v / 1000.0)),
                ]);
            }
            row = vec![None; 3];
            row_t = p.t_s;
            next = p.t_s + 10.0;
        }
        row[p.agent as usize] = Some(p.mbps);
    }
    t
}

/// Figure 11: stability of competing Falcon-GD agents (HPCLab: staggered
/// joins, early departure). Paper shape: joiners quickly claim a fair
/// share (12–13 Gbps at two agents, 7–8 Gbps at three); survivors reclaim
/// bandwidth after a departure.
pub fn fig11() -> Table {
    stability_run(
        &|_| FalconAgent::gradient_descent(64),
        "Figure 11: competing Falcon-GD stability (HPCLab)",
    )
}

/// Figure 12: the same scenario under Bayesian Optimization. Paper shape:
/// same fair averages, more fluctuation than GD.
pub fn fig12() -> Table {
    stability_run(
        &|seed| FalconAgent::bayesian(64, seed),
        "Figure 12: competing Falcon-BO stability (HPCLab)",
    )
}

/// Figure 13: concurrency traces of competing Falcon-GD agents in Emulab
/// with 21 Mbps/process (solo optimum 48). Joins at 0/300/600 s, agent 1
/// departs at 900 s. Paper shape: solo agent at ~48; two agents drop to
/// the 20–33 range; three agents sit around 10–23; survivors raise
/// concurrency after the departure.
pub fn fig13() -> Table {
    let mut h = SimHarness::new(Simulation::new(Environment::emulab(21.0), 67));
    let plans = vec![
        AgentPlan::at_start(Box::new(FalconAgent::gradient_descent(100)), endless())
            .leaving_at(900.0),
        AgentPlan::joining_at(
            Box::new(FalconAgent::gradient_descent(100)),
            endless(),
            300.0,
        ),
        AgentPlan::joining_at(
            Box::new(FalconAgent::gradient_descent(100)),
            endless(),
            600.0,
        ),
    ];
    let trace = Runner::default().run(&mut h, plans, 1200.0);

    let mut t = Table::new(
        "Figure 13: concurrency of competing Falcon-GD agents (Emulab, solo optimum 48)",
        &["t_s", "agent1_cc", "agent2_cc", "agent3_cc", "total_mbps"],
    );
    let mut next = 0.0;
    let mut ccs: Vec<Option<u32>> = vec![None; 3];
    let mut sums = [0.0f64; 3];
    let mut counts = [0usize; 3];
    let mut row_t = 0.0;
    let flush =
        |t: &mut Table, row_t: f64, ccs: &[Option<u32>], sums: &[f64; 3], counts: &[usize; 3]| {
            if ccs.iter().any(Option::is_some) {
                let total: f64 = (0..3)
                    .map(|i| {
                        if counts[i] > 0 {
                            sums[i] / counts[i] as f64
                        } else {
                            0.0
                        }
                    })
                    .sum();
                t.push_row(&[
                    format!("{row_t:.0}"),
                    ccs[0].map_or("-".into(), |v| v.to_string()),
                    ccs[1].map_or("-".into(), |v| v.to_string()),
                    ccs[2].map_or("-".into(), |v| v.to_string()),
                    format!("{total:.0}"),
                ]);
            }
        };
    for p in trace.points() {
        if p.t_s >= next {
            flush(&mut t, row_t, &ccs, &sums, &counts);
            ccs = vec![None; 3];
            sums = [0.0; 3];
            counts = [0; 3];
            row_t = p.t_s;
            next = p.t_s + 15.0;
        }
        let a = p.agent as usize;
        ccs[a] = Some(p.settings.concurrency);
        sums[a] += p.mbps;
        counts[a] += 1;
    }
    flush(&mut t, row_t, &ccs, &sums, &counts);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_reaches_paper_throughputs() {
        let t = fig9();
        let last = t.rows.len() - 1;
        let tail_avg = |col: &str| -> f64 {
            let v = t.column_f64(col);
            v[last.saturating_sub(5)..].iter().sum::<f64>()
                / v[last.saturating_sub(5)..].len() as f64
        };
        assert!(
            tail_avg("emulab_gbps") > 0.85,
            "emulab {}",
            tail_avg("emulab_gbps")
        );
        assert!(
            tail_avg("hpclab_gbps") > 22.0,
            "hpclab {}",
            tail_avg("hpclab_gbps")
        );
        assert!(
            (4.5..6.0).contains(&tail_avg("xsede_gbps")),
            "xsede {}",
            tail_avg("xsede_gbps")
        );
        assert!(
            (8.0..9.7).contains(&tail_avg("campus_gbps")),
            "campus {}",
            tail_avg("campus_gbps")
        );
    }

    #[test]
    fn fig13_concurrency_contracts_and_recovers() {
        let t = fig13();
        let times = t.column_f64("t_s");
        let cc1: Vec<String> = t.rows.iter().map(|r| r[1].clone()).collect();
        let cc2: Vec<String> = t.rows.iter().map(|r| r[2].clone()).collect();
        // Solo phase: agent 1 near 48.
        let solo: Vec<f64> = times
            .iter()
            .zip(&cc1)
            .filter(|(t, c)| **t > 180.0 && **t < 290.0 && *c != "-")
            .map(|(_, c)| c.parse().unwrap())
            .collect();
        let solo_avg = solo.iter().sum::<f64>() / solo.len().max(1) as f64;
        assert!((40.0..=56.0).contains(&solo_avg), "solo cc {solo_avg}");
        // Three-agent phase: agent 1 well below solo.
        let crowded: Vec<f64> = times
            .iter()
            .zip(&cc1)
            .filter(|(t, c)| **t > 750.0 && **t < 890.0 && *c != "-")
            .map(|(_, c)| c.parse().unwrap())
            .collect();
        let crowded_avg = crowded.iter().sum::<f64>() / crowded.len().max(1) as f64;
        assert!(
            crowded_avg < 0.7 * solo_avg,
            "crowded cc {crowded_avg} vs solo {solo_avg}"
        );
        // After agent 1 leaves, agent 2 raises concurrency again.
        let before: Vec<f64> = times
            .iter()
            .zip(&cc2)
            .filter(|(t, c)| **t > 750.0 && **t < 890.0 && *c != "-")
            .map(|(_, c)| c.parse().unwrap())
            .collect();
        let after: Vec<f64> = times
            .iter()
            .zip(&cc2)
            .filter(|(t, c)| **t > 1050.0 && *c != "-")
            .map(|(_, c)| c.parse().unwrap())
            .collect();
        let b = before.iter().sum::<f64>() / before.len().max(1) as f64;
        let a = after.iter().sum::<f64>() / after.len().max(1) as f64;
        assert!(a > b + 1.5, "no recovery: before {b}, after {a}");
    }
}
