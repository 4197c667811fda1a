//! The game theory behind Falcon's fairness, made visible.
//!
//! Two transfers share a 1 Gbps link (21 Mbps per process, the Emulab-48
//! setup of Figure 6). Each picks a concurrency; at a saturated link every
//! connection gets an equal share, so agent 1's throughput is
//! `C·n/(n+m)`. This example prints each agent's *best response* to a few
//! opponent choices under the Eq 4 utility and iterates to the Nash
//! equilibrium — then does the same for the linear-regret utility (Eq 3,
//! C = 0.01) to show why the paper rejected it: its equilibrium
//! over-provisions well past the fair optimum of 24 connections each. The
//! game is Figure 6(c)'s, from `falcon_experiments::figs6_8`.
//!
//! ```text
//! cargo run --release --example nash_equilibrium
//! ```

use falcon_experiments::figs6_8::{
    best_response, best_response_equilibrium, emulab48_game_metrics,
};
use falcon_repro::core::UtilityFunction;

fn main() {
    println!("Emulab-48 game: 1 Gbps link, 21 Mbps/process, fair optimum = 24 each\n");
    for utility in [
        UtilityFunction::falcon_default(),
        UtilityFunction::LinearRegret { b: 10.0, c: 0.01 },
        UtilityFunction::LossRegret { b: 10.0 },
    ] {
        println!("utility: {}", utility.label());
        print!("  best response to opponent m =");
        for m in [0u32, 12, 24, 36, 48] {
            print!("  {m}->{}", best_response(utility, m));
        }
        let (n, m) = best_response_equilibrium(utility);
        let thr = emulab48_game_metrics(n, m).aggregate_mbps;
        println!(
            "\n  Nash equilibrium: {n} vs {m} connections  ({thr:.0} Mbps each, \
             {} total streams)\n",
            n + m
        );
    }
    println!(
        "Eq 4's strict concavity parks both agents near the fair optimum;\n\
         weaker regret terms over-provision — the paper's §3.1 argument, computed."
    );
}
