//! Golden-trace regression suite: the structured JSONL trace of the
//! shipped scenarios is part of the repo's contract. Any change to the
//! simulator, the optimizers, the runner, or the trace encoder that moves
//! a single byte of these traces must be deliberate.
//!
//! To re-bless after an intentional behavior change:
//!
//! ```text
//! FALCON_BLESS=1 cargo test --test golden_trace
//! git diff tests/golden/   # review what moved, then commit
//! ```
//!
//! The suite also checks the determinism contract directly: running the
//! same scenario twice under the same seed is byte-identical, and fanning
//! the scenarios out across 1 vs 4 worker threads (the experiments
//! binary's `FALCON_THREADS` path) does not perturb a byte either.

use std::path::PathBuf;

use falcon_cli::scenario::{self, Scenario};

/// The scenarios with committed golden traces.
const GOLDEN: [&str; 6] = [
    "link_flap",
    "fair_sharing",
    "fleet_churn",
    "rl_flap",
    "friendliness",
    "harp_latecomer",
];

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn load_scenario(name: &str) -> Scenario {
    let path = repo_path(&format!("scenarios/{name}.ini"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    scenario::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e:?}", path.display()))
}

/// Run one scenario with a recording tracer and export JSONL.
fn traced_jsonl(name: &str) -> String {
    let sc = load_scenario(name);
    let (_, log) = scenario::run_traced(&sc).unwrap_or_else(|e| panic!("running {name}: {e:?}"));
    log.to_jsonl()
}

#[test]
fn golden_traces_match_committed_jsonl() {
    let bless = std::env::var_os("FALCON_BLESS").is_some();
    for name in GOLDEN {
        let got = traced_jsonl(name);
        let golden = repo_path(&format!("tests/golden/{name}.jsonl"));
        if bless {
            std::fs::write(&golden, &got)
                .unwrap_or_else(|e| panic!("blessing {}: {e}", golden.display()));
            continue;
        }
        let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
            panic!(
                "reading {}: {e}\n(run FALCON_BLESS=1 cargo test --test golden_trace to generate)",
                golden.display()
            )
        });
        assert!(
            got == want,
            "{name}: trace diverged from tests/golden/{name}.jsonl \
             ({} vs {} bytes; first differing line {:?} vs {:?})\n\
             If the change is intentional, re-bless with FALCON_BLESS=1.",
            got.len(),
            want.len(),
            got.lines()
                .zip(want.lines())
                .find(|(a, b)| a != b)
                .map(|(a, _)| a),
            got.lines()
                .zip(want.lines())
                .find(|(a, b)| a != b)
                .map(|(_, b)| b),
        );
    }
}

#[test]
fn same_seed_runs_are_byte_identical() {
    for name in GOLDEN {
        assert_eq!(
            traced_jsonl(name),
            traced_jsonl(name),
            "{name}: two same-seed runs diverged"
        );
    }
}

/// Fanning the scenario runs across worker threads — the experiments
/// binary's `FALCON_THREADS` execution model — must not move a byte.
#[test]
fn thread_fan_out_is_byte_identical() {
    let names: Vec<&str> = GOLDEN.to_vec();
    let serial = falcon_par::fan_out(names.clone(), 1, |_, name| (name, traced_jsonl(name)));
    let fanned = falcon_par::fan_out(names, 4, |_, name| (name, traced_jsonl(name)));
    for ((name, a), (_, b)) in serial.iter().zip(&fanned) {
        assert_eq!(a, b, "{name}: 1-thread vs 4-thread traces diverged");
    }
}
