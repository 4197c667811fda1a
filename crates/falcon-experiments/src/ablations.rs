//! Ablations over Falcon's utility constants and the BBR future-work
//! extension (§3.1 claims; §6 future work).

use falcon_core::{FalconAgent, GradientDescentOptimizer, UtilityFunction};
use falcon_sim::{Environment, Simulation};
use falcon_tcp::CongestionControl;
use falcon_transfer::harness::SimHarness;
use falcon_transfer::runner::{AgentPlan, Runner};

use crate::endless;
use crate::table::Table;

fn gd_with(utility: UtilityFunction) -> FalconAgent {
    FalconAgent::new(utility, Box::new(GradientDescentOptimizer::new(100)))
}

/// §3.1: "B = 10 works well … by keeping packet loss rate below 1% while
/// achieving over 95% network utilization." Sweep B on the Figure-4
/// topology (network-bound, loss is the signal).
pub fn ablation_b() -> Table {
    let mut t = Table::new(
        "Ablation: loss-regret coefficient B (Emulab fig-4 topology)",
        &["b", "concurrency", "utilization_pct", "loss_pct"],
    );
    for b in [1.0, 5.0, 10.0, 20.0] {
        let utility = UtilityFunction::NonlinearRegret { b, k: 1.02 };
        let mut h = SimHarness::new(Simulation::new(Environment::emulab_fig4(), 111));
        let trace = Runner::default().run(
            &mut h,
            vec![AgentPlan::at_start(Box::new(gd_with(utility)), endless())],
            400.0,
        );
        let cc = trace.avg_concurrency(0, 250.0, 400.0);
        let thr = trace.avg_mbps(0, 250.0, 400.0);
        // Re-measure loss at the converged concurrency, noise-free.
        let (_, loss) =
            crate::figs1_4::steady_state(Environment::emulab_fig4(), cc.round() as u32, 60.0);
        t.push_row(&[
            format!("{b:.0}"),
            format!("{cc:.1}"),
            // The link is 100 Mbps, so Mbps and percent coincide.
            format!("{thr:.0}"),
            format!("{:.2}", loss * 100.0),
        ]);
    }
    t
}

/// §3.1: K trades concavity headroom (`n < 2/ln K`) against noise
/// stability; K = 1.10 converges below a high optimum (48), K = 1.02 is the
/// paper's balance.
pub fn ablation_k() -> Table {
    let mut t = Table::new(
        "Ablation: concurrency-regret base K (Emulab, optimal cc = 48)",
        &["k", "concavity_limit", "converged_cc", "throughput_mbps"],
    );
    for k in [1.01, 1.02, 1.05, 1.10] {
        let utility = UtilityFunction::NonlinearRegret { b: 10.0, k };
        let mut h = SimHarness::new(Simulation::new(Environment::emulab(21.0), 113));
        let trace = Runner::default().run(
            &mut h,
            vec![AgentPlan::at_start(Box::new(gd_with(utility)), endless())],
            500.0,
        );
        t.push_row(&[
            format!("{k}"),
            format!("{:.0}", UtilityFunction::concavity_limit(k)),
            format!("{:.1}", trace.avg_concurrency(0, 350.0, 500.0)),
            format!("{:.0}", trace.avg_mbps(0, 350.0, 500.0)),
        ]);
    }
    t
}

/// §6 future work: BBR. A loss-agnostic congestion controller keeps pushing
/// full rate through loss that would collapse Reno/Cubic throughput — so on
/// a lossy bottleneck the *application-level* loss regret of Eq 4 is the
/// only brake on concurrency. Falcon's utility observes the loss rate
/// regardless of the transport's reaction to it, so the search still
/// converges to the low-loss optimum under every CCA. Run on the Figure-4
/// topology, the one place in the suite where loss genuinely bites.
pub fn ablation_bbr() -> Table {
    let mut t = Table::new(
        "Ablation: congestion-control algorithms (Emulab fig-4 topology, optimal cc = 10)",
        &[
            "cca",
            "converged_cc",
            "throughput_mbps",
            "loss_pct",
            "thr_at_cc32",
        ],
    );
    for cca in CongestionControl::all() {
        let env = Environment::emulab_fig4().with_cca(cca);
        let mut h = SimHarness::new(Simulation::new(env, 117));
        let trace = Runner::default().run(
            &mut h,
            vec![AgentPlan::at_start(
                Box::new(FalconAgent::gradient_descent(64)),
                endless(),
            )],
            400.0,
        );
        let cc = trace.avg_concurrency(0, 250.0, 400.0);
        let (_, loss) = crate::figs1_4::steady_state(
            Environment::emulab_fig4().with_cca(cca),
            cc.round().max(1.0) as u32,
            60.0,
        );
        // Counterfactual: what a fixed cc = 32 would deliver under this
        // CCA — loss-based transports pay for the 10% loss, BBR does not.
        let (thr32, _) =
            crate::figs1_4::steady_state(Environment::emulab_fig4().with_cca(cca), 32, 60.0);
        t.push_row(&[
            cca.name().to_string(),
            format!("{cc:.1}"),
            format!("{:.0}", trace.avg_mbps(0, 250.0, 400.0)),
            format!("{:.3}", loss * 100.0),
            format!("{thr32:.0}"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_k_110_converges_below_optimum() {
        let t = ablation_k();
        let k102_cc = t.cell_f64(1, 2);
        let k110_cc = t.cell_f64(3, 2);
        assert!(
            k110_cc < 0.75 * k102_cc,
            "K=1.10 ({k110_cc}) should stop well below K=1.02 ({k102_cc})"
        );
        assert!((40.0..=56.0).contains(&k102_cc), "K=1.02 cc {k102_cc}");
    }

    #[test]
    fn ablation_bbr_concurrency_stays_bounded() {
        let t = ablation_bbr();
        for r in 0..t.rows.len() {
            let cc = t.cell_f64(r, 1);
            assert!(
                (5.0..=30.0).contains(&cc),
                "{}: concurrency {cc} unbounded or collapsed",
                t.rows[r][0]
            );
        }
    }
}
