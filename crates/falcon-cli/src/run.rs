//! Command implementations.

use falcon_core::{ProbeMetrics, TransferSettings};
use falcon_net::NetHarness;
use falcon_sim::{Environment, EnvironmentKind};
use falcon_trace::{TraceEvent, Tracer};
use falcon_transfer::dataset::Dataset;
use falcon_transfer::harness::TransferHarness;
use falcon_transfer::runner::{AgentPlan, Runner};

use crate::args::{LoopbackArgs, SimulateArgs};
use crate::scenario::{self, AgentSpec, Scenario};

/// Resolve a preset name: any of [`EnvironmentKind::spellings`].
pub fn resolve_env(name: &str) -> Option<Environment> {
    EnvironmentKind::from_name(name).map(|k| k.build())
}

/// `falcon envs`: one line per preset, under its canonical spelling.
pub fn list_envs() -> String {
    let mut out =
        String::from("preset            bandwidth  rtt      bottleneck-capacity  saturating-cc\n");
    for kind in EnvironmentKind::all() {
        out.push_str(&env_row(kind.spellings()[0], &kind.build()));
    }
    out
}

fn env_row(name: &str, env: &Environment) -> String {
    format!(
        "{name:<17} {:>6.1} G  {:>5.1} ms {:>12.1} Gbps {:>10}\n",
        env.resources[env.bottleneck_link].capacity_mbps / 1000.0,
        env.rtt_s * 1000.0,
        env.path_capacity_mbps() / 1000.0,
        env.saturating_concurrency(),
    )
}

/// `falcon simulate`: the one-agent scenario its flags describe, run by the
/// scenario runner; returns one line per probe the agent decided on.
pub fn simulate(args: &SimulateArgs) -> Result<String, String> {
    let env =
        resolve_env(&args.env).ok_or_else(|| format!("unknown environment {:?}", args.env))?;
    let tuner = args.optimizer.name();
    let sc = Scenario {
        env: args.env.clone(),
        duration_s: args.duration_s,
        seed: args.seed,
        agents: vec![AgentSpec {
            tuner: tuner.clone(),
            dataset: format!("1gb:{}", args.gigabytes),
            ..AgentSpec::default()
        }],
        ..Scenario::default()
    };
    let (outcome, log) = scenario::run_traced(&sc).map_err(|e| e.to_string())?;

    let mut out = format!(
        "# simulate env={} optimizer={tuner} capacity={:.1}Gbps\n{:>8} {:>22} {:>10}\n",
        args.env,
        env.path_capacity_mbps() / 1000.0,
        "time_s",
        "setting",
        "gbps",
    );
    for r in &log.records {
        if let TraceEvent::Probe {
            throughput_mbps,
            concurrency,
            parallelism,
            pipelining,
            ..
        } = r.event
        {
            let setting = TransferSettings {
                concurrency,
                parallelism,
                pipelining,
            };
            out.push_str(&format!(
                "{:>8.1} {:>22} {:>10.2}\n",
                r.t_s,
                setting.to_string(),
                throughput_mbps / 1000.0,
            ));
        }
    }
    match outcome.trace().and_then(|t| t.completed_at[0]) {
        Some(t) => out.push_str(&format!("transfer complete at t={t:.1}s\n")),
        None => out.push_str(&format!(
            "duration reached at t={:.1}s (transfer incomplete)\n",
            args.duration_s
        )),
    }
    Ok(out)
}

/// `falcon loopback`: the runner over a live loopback transfer for
/// `--probes` intervals; returns one row per probe the runner took, a
/// stalled one marked. Runs in real time.
pub fn loopback(args: &LoopbackArgs) -> Result<String, String> {
    // The flag only names Falcon entries; the error is for library callers
    // passing a baseline.
    let agent = args
        .optimizer
        .agent(args.max_workers, 0xF41C0)
        .ok_or_else(|| format!("{} is not a Falcon optimizer", args.optimizer.name()))?;
    let utility = agent.utility();
    let mut harness = NetHarness::start(args.per_worker_mbps, args.max_workers, args.interval_s)
        .map_err(|e| format!("receiver: {e}"))?;
    let mut out = format!(
        "# loopback port={} optimizer={} per_worker={}Mbps\n{:>6} {:>6} {:>12} {:>10}\n",
        harness.receiver_mut().port(),
        agent.optimizer_name(),
        args.per_worker_mbps,
        "probe",
        "cc",
        "mbps",
        "utility"
    );
    let runner = Runner {
        tracer: Tracer::recording(),
    };
    let plan = AgentPlan::at_start(Box::new(agent), Dataset::uniform_1gb(u64::MAX));
    // Probe k falls due at a sum of k intervals, which rounding may put a
    // few ulps past k·interval: end a hair later so the last one counts.
    let duration_s = f64::from(args.probes) * args.interval_s * (1.0 + 1e-9);
    runner.run(&mut harness, vec![plan], duration_s);
    harness.leave(0);

    let log = runner.tracer.take_log();
    let rows = log.records.into_iter().filter_map(|r| match r.event {
        TraceEvent::Probe {
            throughput_mbps: mbps,
            loss_rate,
            concurrency,
            parallelism,
            pipelining,
        } => {
            let s = TransferSettings {
                concurrency,
                parallelism,
                pipelining,
            };
            let m = ProbeMetrics::from_aggregate(s, mbps, loss_rate, args.interval_s);
            let u = utility.evaluate(&m);
            Some(format!("{concurrency:>6} {mbps:>12.1} {u:>10.1}"))
        }
        TraceEvent::Recovery { action, value } if action == "stalled_probe" => {
            Some(format!("{:>6} {value:>12.1} {:>10}", "-", "stalled"))
        }
        _ => None,
    });
    for (probe, row) in rows.take(args.probes as usize).enumerate() {
        out.push_str(&format!("{probe:>6} {row}\n"));
    }
    out.push_str(&format!(
        "final settings: {} ({} MB moved)\n",
        harness.current_settings(0),
        harness.receiver_mut().total_bytes() / 1_000_000
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::SimulateArgs;

    #[test]
    fn every_listed_spelling_resolves_to_its_row() {
        let out = list_envs();
        let rows: Vec<&str> = out.lines().skip(1).collect();
        assert_eq!(rows.len(), EnvironmentKind::all().len(), "{out}");
        for row in rows {
            let name = row.split_whitespace().next().unwrap();
            let env = resolve_env(name).unwrap_or_else(|| panic!("{name} not resolved"));
            assert_eq!(format!("{row}\n"), env_row(name, &env), "{out}");
        }
        for (alias, canonical) in [
            ("fig4", "emulab-fig4"),
            ("emulab", "emulab10"),
            ("campus", "campus-cluster"),
            ("stampede2", "stampede2-comet"),
        ] {
            let preset = |n| format!("{:?}", resolve_env(n).unwrap());
            assert_eq!(preset(alias), preset(canonical), "{alias}");
        }
        assert_ne!(
            format!("{:?}", resolve_env("emulab10")),
            format!("{:?}", resolve_env("emulab48"))
        );
        assert!(resolve_env("mars").is_none());
    }

    #[test]
    fn simulate_produces_probe_lines_and_converges() {
        let args = SimulateArgs {
            env: "emulab10".into(),
            duration_s: 150.0,
            gigabytes: 10_000,
            ..SimulateArgs::default()
        };
        let out = simulate(&args).unwrap();
        // One line per 5 s probe over 150 s, plus header/footer.
        let probe_lines = out.lines().filter(|l| l.contains("cc=")).count();
        assert!(
            (25..=31).contains(&probe_lines),
            "{probe_lines} probe lines"
        );
        // Converged near 1 Gbps by the end.
        let last = out.lines().rfind(|l| l.contains("cc=")).unwrap();
        let gbps: f64 = last.split_whitespace().last().unwrap().parse().unwrap();
        assert!(gbps > 0.8, "final {gbps} Gbps:\n{out}");
    }

    #[test]
    fn simulate_rejects_unknown_env() {
        let args = SimulateArgs {
            env: "jupiter".into(),
            ..SimulateArgs::default()
        };
        assert!(simulate(&args).is_err());
    }

    #[test]
    fn loopback_smoke() {
        // Short real-socket run: 5 probes of 200 ms.
        let args = crate::args::LoopbackArgs {
            probes: 5,
            interval_s: 0.2,
            per_worker_mbps: 40.0,
            ..crate::args::LoopbackArgs::default()
        };
        let out = loopback(&args).unwrap();
        assert!(out.contains("final settings"), "{out}");
        // Header, column line, one row per probe, the final line.
        assert_eq!(out.lines().count(), 2 + 5 + 1, "{out}");
    }
}
