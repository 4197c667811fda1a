//! Seed determinism regression test (tier 1).
//!
//! The simulator stack (falcon-sim, falcon-core, falcon-gp, falcon-tcp) must
//! be a pure function of the scenario and the seed: rerunning any figure
//! with the same inputs must reproduce it bit for bit. falcon-lint's
//! `determinism` rule keeps wall-clock and ambient RNG out of those crates
//! statically; this test checks the property end to end by running the
//! shipped link-flap scenario twice and comparing the serialized traces
//! byte for byte.

use falcon_cli::scenario;
use falcon_repro::trace::{EventKind, TraceLog, TraceQuery};

fn link_flap_source() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/link_flap.ini");
    std::fs::read_to_string(path).expect("shipped scenario readable")
}

#[test]
fn same_seed_same_trace_bytes() {
    let sc = scenario::parse(&link_flap_source()).expect("shipped scenario parses");
    let (a, log_a) = scenario::run_traced(&sc).expect("first run");
    let (b, log_b) = scenario::run_traced(&sc).expect("second run");
    let (a, b) = (
        a.trace().expect("runner trace"),
        b.trace().expect("runner trace"),
    );

    assert_eq!(
        a.to_csv(),
        b.to_csv(),
        "same scenario + same seed must serialize to identical bytes"
    );
    assert_eq!(a.completed_at, b.completed_at, "completion times diverged");
    // The watchdog's detached / restart_attempt / restarted / stalled_probe
    // records, as the tracer logged them.
    let recovery = |log: &TraceLog| {
        let records = TraceQuery::new(log).kind(EventKind::Recovery);
        format!("{:?}", records.records())
    };
    assert!(log_a.records.len() > 100, "the traced run recorded nothing");
    assert_eq!(
        recovery(&log_a),
        recovery(&log_b),
        "recovery event streams diverged"
    );
}

#[test]
fn different_seed_changes_the_trace() {
    // The converse sanity check: the seed actually feeds the run. If both
    // seeds produced identical traces the test above would be vacuous.
    let mut sc = scenario::parse(&link_flap_source()).expect("shipped scenario parses");
    let a = scenario::run_trace(&sc).expect("first run");
    sc.seed = sc.seed.wrapping_add(1);
    let b = scenario::run_trace(&sc).expect("second run");
    assert_ne!(
        a.trace().expect("runner trace").to_csv(),
        b.trace().expect("runner trace").to_csv(),
        "changing the seed should perturb the sampled trace"
    );
}
