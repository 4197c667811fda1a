//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§2, §3.1, §4) against the simulated testbeds.
//!
//! Each `figN` function runs the corresponding experiment and returns a
//! [`Table`]: named numeric columns plus formatted rows, printable as an
//! aligned text table or CSV. The `experiments` binary exposes one
//! subcommand per figure; `EXPERIMENTS.md` records paper-vs-measured for
//! each.
//!
//! All experiments are deterministic (fixed seeds).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ablations;
pub mod extensions;
pub mod figs14_16;
pub mod figs1_4;
pub mod figs6_8;
pub mod figs9_13;
pub mod fleet;
pub mod observability;
pub mod rl;
pub mod table;

pub use table::Table;

use falcon_transfer::dataset::Dataset;

/// A dataset no experiment window finishes: a million 1 GiB files.
fn endless() -> Dataset {
    Dataset::uniform_1gb(1_000_000)
}

/// A named experiment: its CLI name and the function that runs it.
pub type Experiment = (&'static str, fn() -> Table);

/// Run the selected experiments across `threads` worker threads and return
/// `(name, table)` pairs **in selection order**.
///
/// Every experiment is a pure function of its hard-coded seeds, so the
/// tables are byte-identical to running them serially — parallelism only
/// changes wall-clock time (see `falcon_par::fan_out`).
pub fn run_parallel(selected: &[Experiment], threads: usize) -> Vec<(&'static str, Table)> {
    falcon_par::fan_out(selected.to_vec(), threads, |_, (name, f)| (name, f()))
}

/// All experiment names accepted by the binary, with the function that
/// runs each. Kept in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        ("table1", table1 as fn() -> Table),
        ("fig1a", figs1_4::fig1a),
        ("fig1b", figs1_4::fig1b),
        ("fig2a", figs1_4::fig2a),
        ("fig2b", figs1_4::fig2b),
        ("fig4", figs1_4::fig4),
        ("fig6a", figs6_8::fig6a),
        ("fig6b", figs6_8::fig6b),
        ("fig6c", figs6_8::fig6c),
        ("fig7", figs6_8::fig7),
        ("fig8", figs6_8::fig8),
        ("fig9", figs9_13::fig9),
        ("fig10", figs9_13::fig10),
        ("fig11", figs9_13::fig11),
        ("fig12", figs9_13::fig12),
        ("fig13", figs9_13::fig13),
        ("fig14", figs14_16::fig14),
        ("fig15", figs14_16::fig15),
        ("fig16a", figs14_16::fig16a),
        ("fig16b", figs14_16::fig16b),
        ("ablation_b", ablations::ablation_b),
        ("ablation_k", ablations::ablation_k),
        ("ablation_bbr", ablations::ablation_bbr),
        ("shootout", extensions::shootout),
        ("dynamic", extensions::dynamic_conditions),
        ("bo_space", extensions::bo_search_space),
        ("bo_mp", extensions::bo_mp),
        ("probe_interval", extensions::probe_interval),
        ("overhead", extensions::overhead),
        ("makespan", extensions::makespan),
        ("rtt_unfairness", extensions::rtt_unfairness),
        ("observability", observability::observability),
        ("fleet", fleet::fleet),
        ("rl", rl::rl_head_to_head),
    ]
}

/// Table 1: specifications of the (simulated) test environments.
pub fn table1() -> Table {
    use falcon_sim::EnvironmentKind;
    let mut t = Table::new(
        "Table 1: test environments (simulated substitutes)",
        &[
            "testbed",
            "bandwidth_gbps",
            "rtt_ms",
            "bottleneck_capacity_gbps",
            "saturating_concurrency",
            "probe_interval_s",
        ],
    );
    for kind in EnvironmentKind::all() {
        let env = kind.build();
        let link = env.resources[env.bottleneck_link].capacity_mbps / 1000.0;
        t.push_row(&[
            kind.name().to_string(),
            format!("{link:.1}"),
            format!("{:.1}", env.rtt_s * 1000.0),
            format!("{:.1}", env.path_capacity_mbps() / 1000.0),
            env.saturating_concurrency().to_string(),
            format!("{:.0}", env.sample_interval_s),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<_> = registry().iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn table1_lists_all_environments() {
        let t = table1();
        assert_eq!(t.rows.len(), 7);
        assert!(t.rows.iter().any(|r| r[0].contains("XSEDE")));
    }
}
