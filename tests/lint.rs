//! falcon-lint enforcement test (tier 1).
//!
//! Runs the workspace invariant checker in-process against this checkout
//! and fails on any finding. This is what makes the linter load-bearing:
//! `cargo test` cannot pass with new determinism, panic-safety,
//! lock-hygiene, float, or unit violations, nor with a suppression
//! directive that silences nothing.

use std::path::Path;

use falcon_lint::Rule;

/// The checker enforces all seven rule families; a rule silently dropped
/// from `FAMILIES` would make this gate weaker without failing anything.
#[test]
fn all_rule_families_are_enforced() {
    let names: Vec<&str> = Rule::FAMILIES.iter().map(|r| r.name()).collect();
    for expected in [
        "determinism",
        "panic-safety",
        "lock-across-blocking",
        "float-cmp",
        "unit-mismatch",
        "float-time-accum",
        "lock-order",
    ] {
        assert!(
            names.contains(&expected),
            "rule family `{expected}` missing from Rule::FAMILIES ({names:?})"
        );
    }
}

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = falcon_lint::lint_workspace(root).expect("workspace sources readable");
    assert!(
        findings.is_empty(),
        "falcon-lint found {} finding(s); fix them, or add an inline \
         `// falcon-lint::allow(rule, reason = \"...\")` on or above the line:\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
