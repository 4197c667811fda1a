//! Fixture corpus: one known-good and one known-bad file per rule under
//! `tests/cases/<rule>/`. The bad fixture must trip its rule; the good
//! fixture (idiomatic counterpart, including justified suppressions and
//! test-only code) must not. This pins each rule's sensitivity *and* its
//! specificity, so a lexer or engine change cannot silently lobotomize or
//! over-trigger a rule.

use std::path::PathBuf;

use falcon_lint::{lint_source, Finding, Rule};

fn load(rule: &str, which: &str) -> String {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "cases", rule, which]
        .iter()
        .collect();
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Lint a fixture as if it lived in `crate_name`, returning all findings.
fn lint_fixture(rule: &str, which: &str, crate_name: &str) -> Vec<Finding> {
    let rel = format!("tests/cases/{rule}/{which}");
    lint_source(&rel, crate_name, &load(rule, which))
}

/// The crate a rule's fixtures are linted under. Determinism is scoped to
/// the simulation crates; the other rules apply workspace-wide, so any
/// crate name works — `falcon-net` keeps wall-clock uses in those fixtures
/// out of scope.
fn fixture_crate(rule: Rule) -> &'static str {
    match rule {
        Rule::Determinism => "falcon-sim",
        _ => "falcon-net",
    }
}

#[test]
fn bad_fixtures_trip_their_rule() {
    for rule in Rule::FAMILIES {
        let findings = lint_fixture(rule.name(), "bad.rs", fixture_crate(rule));
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "cases/{}/bad.rs should trip [{}], found: {findings:?}",
            rule.name(),
            rule.name()
        );
        assert!(
            !findings.iter().any(|f| f.rule == Rule::BadSuppression),
            "cases/{}/bad.rs has a malformed suppression: {findings:?}",
            rule.name()
        );
    }
}

#[test]
fn good_fixtures_stay_clean() {
    for rule in Rule::FAMILIES {
        let findings = lint_fixture(rule.name(), "good.rs", fixture_crate(rule));
        let tripped: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == rule || f.rule == Rule::BadSuppression)
            .collect();
        assert!(
            tripped.is_empty(),
            "cases/{}/good.rs should be clean for [{}], found: {tripped:?}",
            rule.name(),
            rule.name()
        );
    }
}

/// The AB/BA pair in `lock-order/bad.rs` is split across two functions; the
/// cycle check must find it, not just the same-function re-acquisition.
#[test]
fn lock_order_cycle_across_functions_is_found() {
    let findings = lint_fixture("lock-order", "bad.rs", "falcon-net");
    let kinds: Vec<bool> = findings
        .iter()
        .filter(|f| f.rule == Rule::LockOrder)
        .map(|f| f.message.starts_with("lock-order cycle"))
        .collect();
    assert_eq!(
        kinds,
        [true, false],
        "one cycle, one re-acquisition: {findings:?}"
    );
}

/// Directives are the only escape hatch, so each must earn its place: one
/// that silences nothing (wrong line, wrong rule, or code since fixed) is
/// itself a finding, while every directive in `good.rs` silences one.
#[test]
fn directives_that_silence_nothing_are_reported() {
    let bad = lint_fixture("bad-suppression", "bad.rs", "falcon-net");
    let unused: Vec<u32> = bad
        .iter()
        .filter(|f| f.rule == Rule::BadSuppression && f.message.contains("silences nothing"))
        .map(|f| f.line)
        .collect();
    assert_eq!(unused, [5, 10, 15], "{bad:?}");
    let good = lint_fixture("bad-suppression", "good.rs", "falcon-net");
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn determinism_fixture_is_scoped_to_sim_crates() {
    // The same wall-clock-heavy source is legal in falcon-net, where real
    // sockets genuinely need real time.
    let findings = lint_fixture("determinism", "bad.rs", "falcon-net");
    assert!(
        !findings.iter().any(|f| f.rule == Rule::Determinism),
        "determinism must not fire outside its scoped crates: {findings:?}"
    );
}
