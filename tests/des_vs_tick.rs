//! Differential gate: the discrete-event engine against the fixed-tick
//! oracle, over every scenario in `scenarios/`.
//!
//! Both engines fire scripted events at their exact `at_s` and split
//! integration segments at background-flow edges, so they must agree
//! **exactly** on environment state (capacities, RTT, loss, liveness) at
//! every common instant — the only permitted divergence is the tick
//! engine's O(dt) right-Riemann error on integrated goodput. This test is
//! a named tier-1 gate: it drives raw simulations with fixed settings
//! (tuner trajectories would amplify tick-quantization differences into
//! chaos), checkpoints on a deliberately awkward `run_for` slicing, and
//! pins the issue's 12.5 s mid-step event case.

use std::fs;
use std::path::PathBuf;

use falcon_cli::run::resolve_env;
use falcon_cli::scenario;
use falcon_repro::fleet::FleetTopology;
use falcon_repro::sim::{
    oracle, AgentHandle, AgentSettings, Environment, EnvironmentEvent, EventAction, Simulation,
};

/// Every scenario file shipped with the repo.
fn scenario_files() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files: Vec<(String, String)> = fs::read_dir(&dir)
        .expect("scenarios/ directory")
        .filter_map(|e| {
            let path = e.ok()?.path();
            if path.extension()? != "ini" {
                return None;
            }
            let name = path.file_stem()?.to_string_lossy().into_owned();
            Some((name, fs::read_to_string(&path).ok()?))
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no scenarios found in {}", dir.display());
    files
}

/// The environment a scenario runs in (fleet scenarios carry theirs in the
/// generated topology).
fn scenario_env(sc: &scenario::Scenario) -> Environment {
    match &sc.fleet {
        Some(f) => FleetTopology::multi_bottleneck(&f.links_mbps).env,
        None => resolve_env(&sc.env).expect("known environment"),
    }
}

/// Build one simulation of a scenario's world: its environment, scripted
/// events, background flows, and a cast of fixed-concurrency agents
/// standing in for the scripted transfers.
fn build(sc: &scenario::Scenario) -> (Simulation, Vec<AgentHandle>) {
    let n_agents = sc.agents.len().max(2);
    let mut sim = Simulation::new(scenario_env(sc), sc.seed);
    for bg in &sc.background {
        sim.add_background_flow(*bg);
    }
    sim.try_add_events(sc.events.iter().copied())
        .expect("scenario events schedule cleanly");
    let handles: Vec<AgentHandle> = (0..n_agents)
        .map(|i| {
            let a = sim.add_agent();
            assert!(sim.try_set_settings(a, AgentSettings::with_concurrency(4 + 3 * i as u32)));
            a
        })
        .collect();
    (sim, handles)
}

/// Environment-state fingerprint that must match bit-for-bit.
fn env_state(sim: &Simulation, handles: &[AgentHandle]) -> Vec<f64> {
    let mut v = Vec::new();
    for r in &sim.env().resources {
        v.push(r.capacity_mbps);
        v.push(r.per_stream_cap_mbps.unwrap_or(-1.0));
    }
    v.push(sim.env().rtt_s);
    v.push(sim.current_loss());
    for &h in handles {
        v.push(f64::from(u8::from(sim.is_alive(h))));
    }
    v.push(sim.pending_events().len() as f64);
    v
}

#[test]
fn des_matches_tick_oracle_on_every_scenario() {
    for (name, text) in scenario_files() {
        let sc = scenario::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (mut des, handles) = build(&sc);
        let (mut tick, _) = build(&sc);

        // Awkward slicing on purpose: checkpoints never line up with the
        // 0.1 s tick grid, so any boundary quantization would show up.
        let slice = 13.7;
        let mut changed = false;
        while des.time_s() < sc.duration_s {
            des.advance(slice);
            oracle::run_for(&mut tick, slice, 0.1);
            assert_eq!(des.time_s(), tick.time_s(), "{name}: clocks diverged");
            assert_eq!(
                env_state(&des, &handles),
                env_state(&tick, &handles),
                "{name}: environment state diverged at t={}",
                des.time_s()
            );
            // One mid-run settings change, applied identically to both,
            // exercises new-connection ramps and CCA re-caps.
            if !changed && des.time_s() > sc.duration_s / 2.0 {
                changed = true;
                let h = handles[0];
                if des.is_alive(h) {
                    assert!(des.try_set_settings(h, AgentSettings::with_concurrency(9)));
                    assert!(tick.try_set_settings(h, AgentSettings::with_concurrency(9)));
                }
            }
        }

        // Integrated goodput: DES is exact; the tick oracle carries an
        // O(dt) right-Riemann error per ramp transient. Over a full
        // scenario the relative gap stays well under 1%.
        for (i, &h) in handles.iter().enumerate() {
            let d = des.delivered_mbits_total(h);
            let t = tick.delivered_mbits_total(h);
            assert!(
                (d - t).abs() <= 0.01 * t.max(1.0),
                "{name}: agent {i} delivered {d} (DES) vs {t} (tick)"
            );
            if des.is_alive(h) {
                let ds = des.try_take_sample(h).unwrap();
                let ts = tick.try_take_sample(h).unwrap();
                assert!(
                    (ds.loss_rate - ts.loss_rate).abs() < 1e-9,
                    "{name}: agent {i} loss {} vs {}",
                    ds.loss_rate,
                    ts.loss_rate
                );
            }
        }
    }
}

#[test]
fn gate_covers_the_shipped_scenarios() {
    let names: Vec<String> = scenario_files().into_iter().map(|(n, _)| n).collect();
    for expected in [
        "fair_sharing",
        "fleet_churn",
        "friendliness",
        "harp_latecomer",
        "link_flap",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "scenario {expected} missing from gate (found {names:?})"
        );
    }
}

/// The issue's pinned regression: an event at `at_s = 12.5` with
/// `dt = 0.1` must apply at exactly 12.5 s in both engines, for any
/// `run_for` slicing — including `run_for(12.47)` followed by
/// `run_for(10.0)`, which used to shift the firing tick.
#[test]
fn event_at_12_5_applies_exactly_under_any_slicing() {
    // The product path takes no tick; the oracle does.
    type RunFor = fn(&mut Simulation, f64, f64);
    let steppers: [(&str, RunFor); 2] = [
        ("des", |sim, duration_s, _| sim.advance(duration_s)),
        ("tick", oracle::run_for),
    ];
    for (engine, run_for) in steppers {
        for slices in [vec![(30.0, 0.1)], vec![(12.47, 0.1), (10.0, 0.1)]] {
            let mut sim = Simulation::new(resolve_env("emulab10").expect("emulab10 preset"), 3);
            let base = sim.env().resources[sim.env().bottleneck_link].capacity_mbps;
            sim.try_add_events([EnvironmentEvent::at(
                12.5,
                EventAction::LinkCapacityFactor {
                    resource: None,
                    factor: 0.5,
                },
            )])
            .unwrap();
            let tracer = falcon_repro::trace::Tracer::recording();
            sim.set_tracer(tracer.clone());
            let a = sim.add_agent();
            assert!(sim.try_set_settings(a, AgentSettings::with_concurrency(8)));
            for (d, dt) in slices {
                run_for(&mut sim, d, dt);
            }
            let cap = sim.env().resources[sim.env().bottleneck_link].capacity_mbps;
            assert_eq!(cap, base * 0.5, "{engine}: event never applied");
            let log = tracer.take_log();
            let rec = log
                .records
                .iter()
                .find(|r| matches!(r.event, falcon_repro::trace::TraceEvent::Environment { .. }))
                .expect("environment event traced");
            assert_eq!(
                rec.t_s, 12.5,
                "{engine}: event applied at {} instead of exactly 12.5",
                rec.t_s
            );
        }
    }
}
