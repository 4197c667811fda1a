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

/// Lint a fixture, returning all findings.
fn lint_fixture(rule: &str, which: &str) -> Vec<Finding> {
    let rel = format!("tests/cases/{rule}/{which}");
    lint_source(&rel, &load(rule, which))
}

#[test]
fn bad_fixtures_trip_their_rule() {
    for rule in Rule::FAMILIES {
        let findings = lint_fixture(rule.name(), "bad.rs");
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
        let findings = lint_fixture(rule.name(), "good.rs");
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
    let findings = lint_fixture("lock-order", "bad.rs");
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
    let bad = lint_fixture("bad-suppression", "bad.rs");
    let unused: Vec<u32> = bad
        .iter()
        .filter(|f| f.rule == Rule::BadSuppression && f.message.contains("silences nothing"))
        .map(|f| f.line)
        .collect();
    assert_eq!(unused, [6, 11, 16], "{bad:?}");
    let good = lint_fixture("bad-suppression", "good.rs");
    assert!(good.is_empty(), "{good:?}");
}

/// A directive naming a rule the checker no longer has (`determinism`
/// moved to clippy) is malformed, not silently accepted: the message names
/// the stale rule and lists exactly the families that remain.
#[test]
fn stale_rule_name_is_reported_as_unknown() {
    let bad = lint_fixture("bad-suppression", "bad.rs");
    let unknown: Vec<(u32, &str)> = bad
        .iter()
        .filter(|f| f.rule == Rule::BadSuppression && !f.message.contains("silences nothing"))
        .map(|f| (f.line, f.message.as_str()))
        .collect();
    assert_eq!(
        unknown,
        [(
            19,
            "falcon-lint::allow names unknown rule \"determinism\" (known: panic-safety, \
             lock-across-blocking, float-cmp, unit-mismatch, float-time-accum, lock-order)"
        )],
        "{bad:?}"
    );
}
