//! Property tests for the scenario INI parser: arbitrary input never
//! panics, `parse(serialize(sc))` reproduces `sc` exactly, and a `[fleet]`
//! scenario rejects what its engine would not run. The generator and the
//! soup both reach every key of [`scenario::keys`].

use std::collections::{HashMap, HashSet};

use falcon_cli::scenario::{self, parse, serialize, AgentSpec, FleetSpec, Scenario};
use falcon_sim::{BackgroundFlow, EnvironmentEvent, EventAction};
use proptest::collection::vec;
use proptest::prelude::*;

/// Line fragments the soup generator splices together: valid headers, a
/// line for every key (in and out of range), truncated syntax, unicode,
/// and plain garbage.
const FRAGMENTS: [&str; 49] = [
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
    "trace = t.csv",
    "tuner = falcon-gd",
    "start = nan",
    "leave = 0",
    "dataset = 1gb:17179869184",
    "dataset = 1gb:0",
    "end = inf",
    "mbps = 1e308",
    "connections = 2.5",
    "at = nan",
    "action = link_capacity",
    "action = kill",
    "resource = 99",
    "factor 0.3",
    "factor = inf",
    "rate = 1",
    "rtt_s = -0",
    "agent = 18446744073709551615",
    "links = 1000, 1600, 2500",
    "links = ,,,",
    "links = 0",
    "transfers = 9999999999999999999999",
    "arrivals_per_min = 0",
    "mean_file_mb = 1e-300",
    "anchor_gb = 0",
    "topology = dtn:2x2",
    "diurnal = 0.5",
    "failures = 18446744073709551616",
    "tenants = 4294967296",
    "shards = 3",
    "= = =",
    "##### = #####",
    "ключ = значение",
    "env = hpclab",
    "mbps = 5",
];

const TUNERS: [&str; 6] = [
    "falcon-gd",
    "falcon-bo",
    "harp",
    "fixed:4",
    "rl:bandit",
    "rl:warm:2.5",
];
const DATASETS: [&str; 4] = ["1gb:100", "small", "large", "mixed"];
const ENVS: [&str; 3] = ["xsede", "emulab10", "hpclab"];
const TOPOLOGIES: [&str; 3] = ["dumbbell:2x2", "fat-tree:4", "dtn:2x3"];

/// Valid scenarios: every section, tuner, env and `[fleet]` engine, with
/// each key of the tables on and off its default. `None` when a draw has
/// neither an agent nor a fleet.
struct Scenarios;

impl Strategy for Scenarios {
    type Value = Option<Scenario>;

    fn sample(&self, rng: &mut TestRng) -> Option<Scenario> {
        let (duration_s, seed, env_pick, trace_pick) =
            (1.0f64..2000.0, 0u64..1_000_000, 0usize..3, 0usize..3).sample(rng);
        let fleet = (
            0usize..2,
            vec(1.0f64..5000.0, 1..5),
            0usize..400,
            0.0f64..80.0,
        )
            .sample(rng);
        let agents = vec((0usize..6, 0.0f64..0.99, 0.0f64..2.0, 0usize..4), 0..4).sample(rng);
        let backgrounds = vec(
            (0.0f64..0.99, 0.001f64..1000.0, 0.1f64..5000.0, 1u32..32),
            0..3,
        )
        .sample(rng);
        let events = vec((0usize..6, 0.0f64..0.99, 0.01f64..2.0, 0usize..3), 0..4).sample(rng);

        // A fleet scenario has no hand-listed section and no env, and only
        // a scale fleet (even `transfers`) sets the scale keys; it sets no
        // `links` or `anchor_gb`, which only the classic engine reads.
        let (has_fleet, links, transfers, anchor_gb) = fleet;
        let has_fleet = has_fleet == 1;
        let scale = has_fleet && transfers % 2 == 0;
        // Every agent runs: it joins before the end and leaves after it
        // joins.
        let agents: Vec<AgentSpec> = agents
            .iter()
            .filter(|_| !has_fleet)
            .map(|&(t, start_frac, leave_frac, d)| {
                let start_s = start_frac * duration_s;
                AgentSpec {
                    tuner: TUNERS[t].to_string(),
                    start_s,
                    // leave_frac > 1 means "no scripted departure".
                    leave_s: (leave_frac <= 1.0).then_some(start_s + 1.0 + leave_frac * 500.0),
                    dataset: DATASETS[d].to_string(),
                }
            })
            .collect();
        if !has_fleet && agents.is_empty() {
            return None;
        }
        // Events fire, and flows start, before the end of the run.
        let events = events
            .iter()
            .filter(|_| !has_fleet)
            .map(|&(kind, at_frac, x, idx)| {
                let agent = idx % agents.len();
                let action = match kind {
                    0 => EventAction::LinkCapacityFactor {
                        resource: (idx > 0).then_some(idx),
                        factor: x,
                    },
                    // A loss floor lives in [0, 1).
                    1 => EventAction::LossFloor { rate: x * 0.49 },
                    2 => EventAction::DiskThrottleFactor { factor: x },
                    3 => EventAction::RttShift { rtt_s: x },
                    4 => EventAction::KillAgent { agent },
                    _ => EventAction::ReviveAgent { agent },
                };
                // A kill or revive names an [agent] section and fires once
                // it has joined.
                let at_s = at_frac * duration_s;
                let at_s = if kind >= 4 {
                    at_s.max(agents[agent].start_s)
                } else {
                    at_s
                };
                EnvironmentEvent::at(at_s, action)
            })
            .collect();
        let background = backgrounds
            .iter()
            .filter(|_| !has_fleet)
            .map(|&(start_frac, span, demand_mbps, connections)| {
                let start_s = start_frac * duration_s;
                BackgroundFlow {
                    start_s,
                    // Exercise the open-ended (infinite) flow spelling too.
                    end_s: if span > 900.0 {
                        f64::INFINITY
                    } else {
                        start_s + span
                    },
                    demand_mbps,
                    connections,
                }
            })
            .collect();
        let classic = FleetSpec::default();
        Some(Scenario {
            env: if has_fleet {
                Scenario::default().env
            } else {
                ENVS[env_pick].to_string()
            },
            duration_s,
            seed,
            // A scale fleet keeps no trace to write.
            trace_path: (trace_pick > 0 && !scale).then(|| format!("trace-{trace_pick}.csv")),
            agents,
            background,
            events,
            fleet: has_fleet.then(|| FleetSpec {
                links_mbps: if scale {
                    classic.links_mbps.clone()
                } else {
                    links.clone()
                },
                transfers,
                arrivals_per_min: 6.0 + transfers as f64,
                mean_file_mb: 100.0 + anchor_gb,
                anchor_gb: if scale { classic.anchor_gb } else { anchor_gb },
                // Classic sections take any registry tuner; scale sections
                // only `fixed:<cc>` and `rl:*`, the last three of TUNERS.
                tuner: TUNERS[if scale {
                    3 + transfers / 2 % 3
                } else {
                    transfers % 6
                }]
                .to_string(),
                // Scale sections draw their keys on and off their defaults
                // so round-trips cover both the implicit and explicit forms.
                topology: scale.then(|| TOPOLOGIES[transfers / 2 % 3].to_string()),
                diurnal: if scale && transfers % 4 == 0 {
                    0.25
                } else {
                    0.0
                },
                failures: if scale { transfers % 3 } else { 0 },
                tenants: if scale {
                    1 + (transfers / 2 % 2) as u32
                } else {
                    1
                },
                shards: if scale {
                    8 - (transfers / 2 % 3) as u32
                } else {
                    8
                },
            }),
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random INI soup must produce `Ok` or `Err`, never a panic.
    #[test]
    fn parser_never_panics(
        picks in vec((0usize..FRAGMENTS.len(), 0u32..10_000), 0..60),
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
    fn serialize_round_trips(sc in Scenarios) {
        let Some(sc) = sc else {
            return Err(TestCaseError::reject("neither an agent nor a fleet"));
        };
        let text = serialize(&sc);
        let reparsed = parse(&text)
            .map_err(|e| TestCaseError::fail(format!("serialize produced unparseable text: {e:?}\n{text}")))?;
        prop_assert_eq!(&reparsed, &sc, "round-trip mismatch for:\n{}", text);

        // A fleet runs no other section, no key its engine does not read
        // (serialize writes `[fleet]` last, so these land in it), and no
        // top-level env.
        if let Some(f) = &sc.fleet {
            let unread: &[&str] = if f.topology.is_none() {
                &["diurnal = 0.5", "shards = 3"]
            } else {
                &["links = 100", "anchor_gb = 1"]
            };
            for extra in ["[agent]", "[background]", "[event]", "[fleet]"].iter().chain(unread) {
                prop_assert!(parse(&format!("{text}{extra}\n")).is_err(), "{}", extra);
            }
            prop_assert!(parse(&format!("env = xsede\n{text}")).is_err());
        }
    }
}

/// A key the generator never draws, or draws one value of, is a key the
/// round-trip property does not cover.
#[test]
fn generator_draws_every_key() {
    let mut rng = proptest::test_rng("generator_draws_every_key");
    let mut values: HashMap<(String, String), HashSet<String>> = HashMap::new();
    for sc in (0..400).filter_map(|_| Scenarios.sample(&mut rng)) {
        let mut section = "top level".to_string();
        for line in serialize(&sc).lines() {
            if line.starts_with('[') {
                section = line.to_string();
            } else if let Some((key, value)) = line.split_once(" = ") {
                let drawn = values.entry((section.clone(), key.to_string()));
                drawn.or_default().insert(value.to_string());
            }
        }
    }
    for (section, key) in scenario::keys() {
        let n = values
            .get(&(section.to_string(), key.to_string()))
            .map_or(0, HashSet::len);
        assert!(
            n >= 2,
            "the generator draws {n} value(s) of {section} `{key}`"
        );
    }
}

#[test]
fn fragments_have_a_line_for_every_key() {
    for (section, key) in scenario::keys() {
        let sets = |f: &&str| f.split_once('=').is_some_and(|(k, _)| k.trim() == key);
        assert!(
            FRAGMENTS.iter().any(sets),
            "FRAGMENTS has no `{key} =` line ({section})"
        );
    }
}
