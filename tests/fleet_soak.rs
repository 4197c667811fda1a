//! Golden-summary gates for the scale engine.
//!
//! `scenarios/fleet_soak.ini` exercises the scale engine end to end —
//! diurnal arrivals, correlated trunk failure waves, tenant churn, and
//! sharded incremental allocation — and its rendered summary is part of
//! the repo's contract. A tuned campaign, every transfer with its own
//! `rl:bandit` tuner, is pinned beside it. Any change that moves a byte
//! of either (allocator ordering, arrival thinning, failure scheduling,
//! tuner decisions, report formatting) must be deliberate.
//!
//! To re-bless after an intentional behavior change:
//!
//! ```text
//! FALCON_BLESS=1 cargo test --test fleet_soak
//! git diff tests/golden/   # review, then commit
//! ```

use std::path::PathBuf;

use falcon_cli::scenario;
use falcon_repro::fleet::{
    correlated_failure_waves, run_scale_campaign, RlKind, ScaleCampaignSpec, ScaleTopology,
    ScaleTuner, ScaleWorkload,
};

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn soak_summary() -> String {
    let path = repo_path("scenarios/fleet_soak.ini");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let sc = scenario::parse(&text).unwrap_or_else(|e| panic!("parsing {}: {e:?}", path.display()));
    scenario::run(&sc).unwrap_or_else(|e| panic!("running fleet_soak: {e:?}"))
}

/// Compare `got` with the golden file `rel`, or write it under
/// `FALCON_BLESS`.
fn assert_matches_golden(got: &str, rel: &str) {
    let golden = repo_path(rel);
    if std::env::var_os("FALCON_BLESS").is_some() {
        std::fs::write(&golden, got)
            .unwrap_or_else(|e| panic!("blessing {}: {e}", golden.display()));
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "reading {}: {e}\n(run FALCON_BLESS=1 cargo test --test fleet_soak to generate)",
            golden.display()
        )
    });
    let first_diff = got.lines().zip(want.lines()).find(|(a, b)| a != b);
    assert!(
        got == want,
        "summary diverged from {rel}\n\
         first differing line {:?} vs {:?}\n\
         If the change is intentional, re-bless with FALCON_BLESS=1.",
        first_diff.map(|(a, _)| a),
        first_diff.map(|(_, b)| b),
    );
}

#[test]
fn fleet_soak_summary_matches_golden() {
    assert_matches_golden(&soak_summary(), "tests/golden/fleet_soak.summary.txt");
}

/// The `campaign-rl` bench shape at its warm-up size: 2,000 transfers on
/// the WAN dumbbell, each with its own bandit tuner, through diurnal
/// arrivals, tenant churn and six failure waves. Besides the bytes, the
/// allocator must stay cheap: an arrival, departure or tuner re-rate on
/// an unsaturated route is applied in place, so full solves are left to
/// contention and capacity flaps, under one per ten transfers, not two
/// per transfer plus one per re-rate.
#[test]
fn rl_campaign_summary_matches_golden_and_solves_stay_few() {
    let topology = ScaleTopology::from_spec("dumbbell:8x3").expect("shipped spec syntax");
    let duration_s = 15_000.0;
    let spec = ScaleCampaignSpec {
        failures: correlated_failure_waves(&topology, 6, duration_s),
        topology,
        workload: ScaleWorkload {
            transfers: 2_000,
            arrivals_per_min: 12.0,
            mean_file_mb: 16_000.0,
            diurnal: 0.4,
            tenants: 3,
            tuner: ScaleTuner::Rl(RlKind::Bandit),
            ..ScaleWorkload::default()
        },
        duration_s,
        seed: 1,
        shards: 8,
    };
    let r = run_scale_campaign(&spec, 2);
    assert_matches_golden(&r.summary(), "tests/golden/fleet_rl.summary.txt");
    assert!(
        r.solves <= r.transfers / 10,
        "{} solves for {} transfers",
        r.solves,
        r.transfers
    );
}

/// The soak must actually soak: diurnal swing plus failure waves may
/// strand work, but the bulk of the campaign completes and the report's
/// internal accounting stays consistent.
#[test]
fn fleet_soak_accounting_is_consistent() {
    let out = soak_summary();
    let grab = |key: &str| -> f64 {
        let toks: Vec<&str> = out.split_whitespace().collect();
        toks.windows(2)
            .find(|w| w[0] == key)
            .unwrap_or_else(|| panic!("{key:?} missing from:\n{out}"))[1]
            .parse()
            .unwrap_or_else(|e| panic!("{key:?} value unparseable: {e}"))
    };
    let transfers = grab("transfers");
    let completed = grab("completed");
    let stranded = grab("stranded");
    assert_eq!(transfers, 6000.0);
    assert_eq!(completed + stranded, transfers);
    assert!(
        completed >= 0.9 * transfers,
        "soak lost too much work:\n{out}"
    );
}
