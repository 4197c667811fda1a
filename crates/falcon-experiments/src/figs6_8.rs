//! Utility-function and search-algorithm experiments: Figures 6, 7, 8
//! (§3.1–§3.2, §4.1).

use falcon_core::{FalconAgent, GradientDescentOptimizer, UtilityFunction};
use falcon_sim::{Environment, Simulation};
use falcon_transfer::harness::SimHarness;
use falcon_transfer::runner::{AgentPlan, RunTrace, Runner};

use crate::endless;
use crate::table::Table;

/// The Figure 6 throughput model: 21 Mbps per process, optimal cc = 48,
/// 1 Gbps link.
fn fig6_t_model(n: u32) -> f64 {
    if n <= 48 {
        21.0
    } else {
        1008.0 / f64::from(n)
    }
}

fn gd_agent_with_utility(utility: UtilityFunction, max_cc: u32) -> FalconAgent {
    FalconAgent::new(utility, Box::new(GradientDescentOptimizer::new(max_cc)))
}

/// Figure 6(a): estimated (analytic) utility of the linear regret (Eq 3,
/// C = 0.01 and 0.02) vs the nonlinear regret (Eq 4) when the optimal
/// concurrency is 48. Paper shape: C = 0.02 peaks near 25; C = 0.01 and
/// Eq 4 peak at 48.
pub fn fig6a() -> Table {
    let lin1 = UtilityFunction::LinearRegret { b: 10.0, c: 0.01 };
    let lin2 = UtilityFunction::LinearRegret { b: 10.0, c: 0.02 };
    let nl = UtilityFunction::falcon_default();
    let mut t = Table::new(
        "Figure 6(a): estimated utility, linear vs nonlinear concurrency regret (optimal cc = 48)",
        &["concurrency", "eq3_c0.01", "eq3_c0.02", "eq4_k1.02"],
    );
    let c1 = lin1.estimated_curve(64, fig6_t_model);
    let c2 = lin2.estimated_curve(64, fig6_t_model);
    let c4 = nl.estimated_curve(64, fig6_t_model);
    for i in 0..c1.len() {
        t.push_row(&[
            c1[i].0.to_string(),
            format!("{:.1}", c1[i].1),
            format!("{:.1}", c2[i].1),
            format!("{:.1}", c4[i].1),
        ]);
    }
    t
}

/// Run one agent with the given utility on Emulab-48 and report its
/// converged concurrency and throughput.
fn single_agent_convergence(utility: UtilityFunction, seed: u64) -> (f64, f64) {
    let mut h = SimHarness::new(Simulation::new(Environment::emulab(21.0), seed));
    let plan = AgentPlan::at_start(Box::new(gd_agent_with_utility(utility, 100)), endless());
    let trace = Runner::default().run(&mut h, vec![plan], 500.0);
    (
        trace.avg_concurrency(0, 350.0, 500.0),
        trace.avg_mbps(0, 350.0, 500.0),
    )
}

/// Figure 6(b): empirical convergence of the linear (C = 0.02) vs nonlinear
/// regret for a single transfer with optimal cc = 48. Paper shape: linear
/// converges to ~26 (45% below optimal throughput); nonlinear reaches ~48.
pub fn fig6b() -> Table {
    let (cc_lin, thr_lin) =
        single_agent_convergence(UtilityFunction::LinearRegret { b: 10.0, c: 0.02 }, 31);
    let (cc_nl, thr_nl) = single_agent_convergence(UtilityFunction::falcon_default(), 31);
    let mut t = Table::new(
        "Figure 6(b): empirical convergence, single transfer (optimal cc = 48)",
        &["utility", "converged_concurrency", "throughput_mbps"],
    );
    t.push_row(&[
        "eq3_c0.02".into(),
        format!("{cc_lin:.1}"),
        format!("{thr_lin:.0}"),
    ]);
    t.push_row(&[
        "eq4_k1.02".into(),
        format!("{cc_nl:.1}"),
        format!("{thr_nl:.0}"),
    ]);
    t
}

/// Two competing agents with a given utility on Emulab-48; returns each
/// agent's converged concurrency.
fn competing_convergence(utility: UtilityFunction, seed: u64) -> (f64, f64, f64) {
    let mut h = SimHarness::new(Simulation::new(Environment::emulab(21.0), seed));
    let plans = vec![
        AgentPlan::at_start(Box::new(gd_agent_with_utility(utility, 100)), endless()),
        AgentPlan::joining_at(
            Box::new(gd_agent_with_utility(utility, 100)),
            endless(),
            200.0,
        ),
    ];
    // Long horizon: near the equilibrium the per-step utility signal is a
    // fraction of a percent, partially masked by the opponent's own ±1
    // probing, so the drift toward the fixed point is slow.
    let trace = Runner::default().run(&mut h, plans, 3600.0);
    (
        trace.avg_concurrency(0, 2400.0, 3600.0),
        trace.avg_concurrency(1, 2400.0, 3600.0),
        trace.fairness(&[0, 1], 2400.0, 3600.0),
    )
}

/// Steady-state fluid model of the Emulab-48 two-agent game: per-connection
/// fair sharing with the 21 Mbps/process throttle and the default loss
/// model. Returns the metrics agent 1 would observe at (n, m).
pub fn emulab48_game_metrics(n: u32, m: u32) -> falcon_core::ProbeMetrics {
    use falcon_tcp::BottleneckLossModel;
    let total = n + m;
    let per_conn = 21.0f64.min(1000.0 / f64::from(total.max(1)));
    let own = f64::from(n) * per_conn;
    let offered = 21.0 * f64::from(total);
    let loss = BottleneckLossModel::default().loss_rate(offered, 1000.0, total, 0.030, 1460.0);
    falcon_core::ProbeMetrics::from_aggregate(
        falcon_core::TransferSettings::with_concurrency(n),
        own * (1.0 - loss),
        loss,
        5.0,
    )
}

/// The concurrency in `1..=100` maximizing an agent's `utility` in the
/// Emulab-48 game when its opponent runs `m` connections.
pub fn best_response(utility: UtilityFunction, m: u32) -> u32 {
    (1..=100u32)
        .max_by(|&a, &b| {
            let ua = utility.evaluate(&emulab48_game_metrics(a, m));
            let ub = utility.evaluate(&emulab48_game_metrics(b, m));
            ua.total_cmp(&ub)
        })
        .unwrap_or(1)
}

/// Iterated best response of the two-agent game under `utility`, from
/// (2, 2): each agent in turn picks its [`best_response`] to the other's
/// choice, until a fixed point. This is the Nash equilibrium the paper's
/// Figure 6(c) agents approach empirically.
pub fn best_response_equilibrium(utility: UtilityFunction) -> (u32, u32) {
    let (mut n1, mut n2) = (2u32, 2u32);
    for _ in 0..200 {
        let r1 = best_response(utility, n2);
        let r2 = best_response(utility, r1);
        if r1 == n1 && r2 == n2 {
            break;
        }
        n1 = r1;
        n2 = r2;
    }
    (n1, n2)
}

/// Figure 6(c): with two competing transfers, the linear regret (C = 0.01)
/// over-provisions (paper: agents drift to 36–38 when the fair optimum is
/// 24 each) while the nonlinear regret settles near 24 each. The
/// `nash_*` columns give the exact best-response equilibrium of the fluid
/// game; the `agent*_cc` columns show where the noisy online search
/// actually drifted (slower than the fixed point — see EXPERIMENTS.md).
pub fn fig6c() -> Table {
    let lin = UtilityFunction::LinearRegret { b: 10.0, c: 0.01 };
    let nl = UtilityFunction::falcon_default();
    let (l1, l2, lf) = competing_convergence(lin, 37);
    let (n1, n2, nf) = competing_convergence(nl, 37);
    let (lbr1, lbr2) = best_response_equilibrium(lin);
    let (nbr1, nbr2) = best_response_equilibrium(nl);
    let mut t = Table::new(
        "Figure 6(c): two competing transfers (fair optimum = 24 each)",
        &[
            "utility",
            "nash_cc_each",
            "agent1_cc",
            "agent2_cc",
            "total_cc",
            "jain_index",
        ],
    );
    t.push_row(&[
        "eq3_c0.01".into(),
        format!("{:.0}", f64::from(lbr1 + lbr2) / 2.0),
        format!("{l1:.1}"),
        format!("{l2:.1}"),
        format!("{:.1}", l1 + l2),
        format!("{lf:.3}"),
    ]);
    t.push_row(&[
        "eq4_k1.02".into(),
        format!("{:.0}", f64::from(nbr1 + nbr2) / 2.0),
        format!("{n1:.1}"),
        format!("{n2:.1}"),
        format!("{:.1}", n1 + n2),
        format!("{nf:.3}"),
    ]);
    t
}

/// First time (seconds) at which the trailing `window_s`-second mean
/// throughput reaches `frac` of `capacity_mbps`. A trailing mean absorbs
/// the exploration dips that all three of Falcon's searches keep making
/// after convergence (continuous optimization), so this measures "found and
/// holds the high-performance region", the quantity Figure 7 compares.
pub fn time_to_sustained(
    trace: &RunTrace,
    agent: usize,
    capacity_mbps: f64,
    frac: f64,
    window_s: f64,
) -> Option<f64> {
    let series = trace.series(agent);
    let threshold = frac * capacity_mbps;
    for (i, &(t, _, _)) in series.iter().enumerate() {
        if t < window_s {
            continue;
        }
        let window: Vec<f64> = series[..=i]
            .iter()
            .filter(|&&(tt, _, _)| tt >= t - window_s)
            .map(|&(_, m, _)| m)
            .collect();
        if !window.is_empty() && window.iter().sum::<f64>() / window.len() as f64 >= threshold {
            return Some(t);
        }
    }
    None
}

/// Figure 7: convergence speed of Hill Climbing vs Gradient Descent vs
/// Bayesian Optimization when the optimal concurrency is 48. Paper shape:
/// HC takes ~7x longer than GD/BO (>250 s vs tens of seconds).
pub fn fig7() -> Table {
    // Three independent single-agent runs — fan out, one per contender.
    type AgentFactory = fn() -> FalconAgent;
    let contenders: Vec<(&str, AgentFactory)> = vec![
        ("hill-climbing", || FalconAgent::hill_climbing(100)),
        ("gradient-descent", || FalconAgent::gradient_descent(100)),
        ("bayesian-opt", || FalconAgent::bayesian(100, 77)),
    ];
    let rows = falcon_par::fan_out(contenders, 3, |_, (name, mk)| {
        let mut h = SimHarness::new(Simulation::new(Environment::emulab(21.0), 41));
        let trace = Runner::default().run(
            &mut h,
            vec![AgentPlan::at_start(Box::new(mk()), endless())],
            600.0,
        );
        let conv = time_to_sustained(&trace, 0, 1000.0, 0.75, 20.0);
        (name, conv, trace.avg_mbps(0, 400.0, 600.0))
    });

    let mut t = Table::new(
        "Figure 7: convergence comparison, optimal cc = 48 (Emulab)",
        &["algorithm", "convergence_time_s", "steady_throughput_mbps"],
    );
    for (name, conv, thr) in rows {
        t.push_row(&[
            name.into(),
            conv.map_or("none".to_string(), |v| format!("{v:.0}")),
            format!("{thr:.0}"),
        ]);
    }
    t
}

/// Figure 8: two competing Hill Climbing agents — slow convergence and poor
/// fairness compared to a GD pair in the same scenario.
pub fn fig8() -> Table {
    let run = |mk: &dyn Fn() -> FalconAgent, seed: u64| -> (f64, f64, f64) {
        let mut h = SimHarness::new(Simulation::new(Environment::emulab(21.0), seed));
        let plans = vec![
            AgentPlan::at_start(Box::new(mk()), endless()),
            AgentPlan::joining_at(Box::new(mk()), endless(), 150.0),
        ];
        let trace = Runner::default().run(&mut h, plans, 900.0);
        (
            trace.avg_mbps(0, 700.0, 900.0),
            trace.avg_mbps(1, 700.0, 900.0),
            trace.fairness(&[0, 1], 700.0, 900.0),
        )
    };
    let (h1, h2, hf) = run(&|| FalconAgent::hill_climbing(100), 43);
    let (g1, g2, gf) = run(&|| FalconAgent::gradient_descent(100), 43);

    let mut t = Table::new(
        "Figure 8: competing transfers, Hill Climbing vs Gradient Descent",
        &["algorithm", "agent1_mbps", "agent2_mbps", "jain_index"],
    );
    t.push_row(&[
        "hill-climbing".into(),
        format!("{h1:.0}"),
        format!("{h2:.0}"),
        format!("{hf:.3}"),
    ]);
    t.push_row(&[
        "gradient-descent".into(),
        format!("{g1:.0}"),
        format!("{g2:.0}"),
        format!("{gf:.3}"),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_peaks_match_paper() {
        let t = fig6a();
        let argmax = |col: &str| -> f64 {
            let ccs = t.column_f64("concurrency");
            let ys = t.column_f64(col);
            let mut best = 0usize;
            for i in 0..ys.len() {
                if ys[i] > ys[best] {
                    best = i;
                }
            }
            ccs[best]
        };
        assert_eq!(argmax("eq3_c0.01"), 48.0);
        let p2 = argmax("eq3_c0.02");
        assert!((20.0..=30.0).contains(&p2), "C=0.02 peak at {p2}");
        assert_eq!(argmax("eq4_k1.02"), 48.0);
    }

    #[test]
    fn fig6c_linear_regret_overprovisions_at_equilibrium() {
        // The exact Nash equilibrium of the fluid game: Eq 3 (C = 0.01)
        // lands well above the fair optimum (paper: 36-38 each) while Eq 4
        // sits near 24 each.
        let (l1, l2) =
            best_response_equilibrium(UtilityFunction::LinearRegret { b: 10.0, c: 0.01 });
        let (n1, n2) = best_response_equilibrium(UtilityFunction::falcon_default());
        let lin_each = f64::from(l1 + l2) / 2.0;
        let nl_each = f64::from(n1 + n2) / 2.0;
        assert!(
            (28.0..=45.0).contains(&lin_each),
            "Eq3 equilibrium {lin_each} per agent"
        );
        assert!(
            (20.0..=28.0).contains(&nl_each),
            "Eq4 equilibrium {nl_each} per agent"
        );
        assert!(lin_each > nl_each + 5.0);
    }

    #[test]
    fn fig6c_empirical_search_stays_fair() {
        let t = fig6c();
        // The online searches (slower than the fixed point) must at least
        // not cross: Eq 3 ends at or above Eq 4 in total concurrency, and
        // Eq 4 stays near the fair optimum.
        let eq3_total = t.cell_f64(0, 4);
        let eq4_total = t.cell_f64(1, 4);
        assert!(
            eq3_total >= eq4_total - 2.0,
            "eq3 total {eq3_total} vs eq4 total {eq4_total}"
        );
        assert!(
            (42.0..=58.0).contains(&eq4_total),
            "eq4 total {eq4_total} strayed from the fair optimum"
        );
        // Both pairs end fair.
        assert!(t.cell_f64(0, 5) > 0.95);
        assert!(t.cell_f64(1, 5) > 0.95);
    }

    #[test]
    fn fig7_ranking_holds() {
        let t = fig7();
        let hc = t.cell_f64(0, 1);
        let gd = t.cell_f64(1, 1);
        let bo = t.cell_f64(2, 1);
        // HC is several times slower than GD and BO (paper: ~7x).
        assert!(hc > 2.0 * gd, "HC {hc}s vs GD {gd}s");
        assert!(hc > 2.0 * bo, "HC {hc}s vs BO {bo}s");
        // GD ends near full utilization.
        assert!(t.cell_f64(1, 2) > 850.0);
    }
}
