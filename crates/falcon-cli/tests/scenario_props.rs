//! Property tests for the scenario INI parser: arbitrary input never
//! panics, `parse(serialize(sc))` reproduces `sc` exactly, and a `[fleet]`
//! scenario rejects what its engine would not run.

use falcon_cli::scenario::{parse, serialize, AgentSpec, FleetSpec, Scenario};
use falcon_sim::{BackgroundFlow, EnvironmentEvent, EventAction};
use proptest::prelude::*;

/// Line fragments the soup generator splices together: valid headers and
/// keys, truncated syntax, unicode, and plain garbage.
const FRAGMENTS: [&str; 30] = [
    "[agent]",
    "[background]",
    "[event]",
    "[fleet]",
    "tuner = rl:warm:1",
    "tuner = rl:warm:0",
    "tuner = rl:warm:nan",
    "[bogus]",
    "[",
    "]",
    "env = xsede",
    "env =",
    "duration = ",
    "seed = -1",
    "tuner = falcon-gd",
    "start = nan",
    "links = 1000, 1600, 2500",
    "links = ,,,",
    "links = 0",
    "topology = dtn:2x2",
    "diurnal = 0.5",
    "shards = 3",
    "transfers = 9999999999999999999999",
    "action = link_capacity",
    "factor 0.3",
    "= = =",
    "##### = #####",
    "ключ = значение",
    "mbps = 1e308",
    "connections = 2.5",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random INI soup must produce `Ok` or `Err`, never a panic.
    #[test]
    fn parser_never_panics(
        picks in proptest::collection::vec((0usize..FRAGMENTS.len(), 0u32..10_000), 0..60),
    ) {
        let text: String = picks
            .iter()
            .map(|&(i, n)| {
                // Every 7th line swaps in a synthesized key = value pair so
                // the soup also covers arbitrary numerics.
                if n % 7 == 0 {
                    format!("at = {}\n", f64::from(n) * 1e30)
                } else {
                    format!("{}\n", FRAGMENTS[i])
                }
            })
            .collect();
        let _ = parse(&text); // must not panic
    }

    /// parse -> serialize -> parse is the identity on valid scenarios.
    #[test]
    fn serialize_round_trips(
        (duration_s, seed, env_pick, trace_pick) in (1.0f64..2000.0, 0u64..1_000_000, 0usize..3, 0usize..2),
        agents in proptest::collection::vec(
            (0usize..6, 0.0f64..500.0, 0.0f64..2.0, 0usize..4),
            0..4,
        ),
        backgrounds in proptest::collection::vec(
            (0.0f64..500.0, 0.001f64..1000.0, 0.1f64..5000.0, 1u32..32),
            0..3,
        ),
        events in proptest::collection::vec(
            (0usize..6, 0.0f64..600.0, 0.01f64..2.0, 0usize..3),
            0..4,
        ),
        fleet in (0usize..2, proptest::collection::vec(1.0f64..5000.0, 1..5), 0usize..400, 0.0f64..80.0),
    ) {
        const TUNERS: [&str; 6] =
            ["falcon-gd", "falcon-bo", "harp", "fixed:4", "rl:bandit", "rl:warm:2.5"];
        const DATASETS: [&str; 4] = ["1gb:100", "small", "large", "mixed"];
        const ENVS: [&str; 3] = ["xsede", "emulab10", "hpclab"];

        // A fleet scenario has no hand-listed section, and only a scale
        // fleet (even `transfers`) sets the scale keys.
        let (has_fleet, links, transfers, anchor_gb) = fleet;
        let has_fleet = has_fleet == 1;
        let scale = transfers % 2 == 0;
        let agents: Vec<AgentSpec> = agents
            .iter()
            .map(|&(t, start_s, leave_frac, d)| AgentSpec {
                tuner: TUNERS[t].to_string(),
                start_s,
                // leave_frac > 1 means "no scripted departure".
                leave_s: (leave_frac <= 1.0).then_some(start_s + leave_frac * 500.0),
                dataset: DATASETS[d].to_string(),
            })
            .filter(|_| !has_fleet)
            .collect();
        prop_assume!(has_fleet || !agents.is_empty());

        let sc = Scenario {
            env: ENVS[env_pick].to_string(),
            duration_s,
            seed,
            trace_path: (trace_pick == 1).then(|| "/tmp/trace.csv".to_string()),
            agents,
            background: backgrounds
                .iter()
                .filter(|_| !has_fleet)
                .map(|&(start_s, span, demand_mbps, connections)| BackgroundFlow {
                    start_s,
                    // Exercise the open-ended (infinite) flow spelling too.
                    end_s: if span > 900.0 { f64::INFINITY } else { start_s + span },
                    demand_mbps,
                    connections,
                })
                .collect(),
            events: events
                .iter()
                .filter(|_| !has_fleet)
                .map(|&(kind, at_s, x, idx)| {
                    let action = match kind {
                        0 => EventAction::LinkCapacityFactor {
                            resource: (idx > 0).then_some(idx),
                            factor: x,
                        },
                        // A loss floor lives in [0, 1).
                        1 => EventAction::LossFloor { rate: x * 0.49 },
                        2 => EventAction::DiskThrottleFactor { factor: x },
                        3 => EventAction::RttShift { rtt_s: x },
                        4 => EventAction::KillAgent { agent: idx },
                        _ => EventAction::ReviveAgent { agent: idx },
                    };
                    EnvironmentEvent::at(at_s, action)
                })
                .collect(),
            fleet: has_fleet.then(|| FleetSpec {
                links_mbps: links.clone(),
                transfers,
                arrivals_per_min: 6.0 + transfers as f64,
                mean_file_mb: 100.0 + anchor_gb,
                anchor_gb,
                // Classic sections take any registry tuner; scale sections
                // (even `transfers`) only `fixed:<cc>` and `rl:*`, the
                // last three of TUNERS.
                tuner: TUNERS[if scale { 3 + transfers / 2 % 3 } else { transfers % 6 }]
                    .to_string(),
                // Scale sections draw their keys on and off their defaults
                // so round-trips cover both the implicit and explicit forms.
                topology: scale.then(|| "dumbbell:2x2".to_string()),
                diurnal: if scale && transfers % 4 == 0 { 0.25 } else { 0.0 },
                failures: if scale { transfers % 3 } else { 0 },
                tenants: if scale { 1 + (transfers / 2 % 2) as u32 } else { 1 },
                shards: if scale { 8 - (transfers / 2 % 3) as u32 } else { 8 },
            }),
        };

        let text = serialize(&sc);
        let reparsed = parse(&text)
            .map_err(|e| TestCaseError::fail(format!("serialize produced unparseable text: {e:?}\n{text}")))?;
        prop_assert_eq!(&reparsed, &sc, "round-trip mismatch for:\n{}", text);

        // A fleet runs no other section, and no scale key without a
        // topology (serialize writes `[fleet]` last, so these land in it).
        if let Some(f) = &sc.fleet {
            let scale_keys: &[&str] = if f.topology.is_none() { &["diurnal = 0.5", "shards = 3"] } else { &[] };
            for extra in ["[agent]", "[background]", "[event]", "[fleet]"].iter().chain(scale_keys) {
                prop_assert!(parse(&format!("{text}{extra}\n")).is_err(), "{}", extra);
            }
        }
    }
}
