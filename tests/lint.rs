//! Static-analysis enforcement test (tier 1).
//!
//! Each workspace invariant has one checker. falcon-lint carries the ones
//! clippy cannot (panic macros, lock hygiene, float and unit discipline):
//! this test runs it in-process against this checkout and fails on any
//! finding, including a suppression directive that silences nothing.
//! Clippy carries `.unwrap()`/`.expect()` and the model crates' wall clocks
//! and hash containers; those checks run in CI's `Clippy` step, and this
//! test fails if the configuration that arms them is removed.

use std::fs;
use std::path::Path;

use falcon_lint::Rule;

/// Every invariant family stays armed: falcon-lint's six, the
/// unwrap/expect denies in all 16 crate roots, the disallowed-types deny in
/// the seven model crates, and the four `clippy.toml` entries. Dropping any
/// one would weaken a gate without failing anything else.
#[test]
fn all_rule_families_are_enforced() {
    let names: Vec<&str> = Rule::FAMILIES.iter().map(|r| r.name()).collect();
    assert_eq!(
        names.join(" "),
        "panic-safety lock-across-blocking float-cmp unit-mismatch float-time-accum lock-order"
    );

    // The lints a crate root's `#![cfg_attr(not(test), deny(...))]`
    // attributes name, read whitespace-free so rustfmt's wrapping does not
    // matter.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &Path| {
        fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
            .replace(char::is_whitespace, "")
    };
    let assert_denies = |dir: &Path, lint: &str| {
        let src = read(&dir.join("src/lib.rs"));
        let mut denied = src
            .split("#![cfg_attr(not(test),deny(")
            .skip(1)
            .filter_map(|rest| Some(rest.split_once(')')?.0));
        assert!(
            denied.any(|list| list.split(',').any(|d| d == lint)),
            "{}/src/lib.rs must deny `{lint}` for non-test builds",
            dir.display()
        );
    };
    let mut crate_dirs = vec![root.to_path_buf()];
    crate_dirs.extend(
        fs::read_dir(root.join("crates"))
            .expect("crates/")
            .map(|e| e.expect("entry").path()),
    );
    assert_eq!(crate_dirs.len(), 16, "{crate_dirs:?}");
    for dir in &crate_dirs {
        assert_denies(dir, "clippy::unwrap_used");
        assert_denies(dir, "clippy::expect_used");
    }
    for model in ["sim", "core", "gp", "tcp", "trace", "fleet", "rl"] {
        assert_denies(
            &root.join(format!("crates/falcon-{model}")),
            "clippy::disallowed_types",
        );
    }

    let config = read(&root.join("clippy.toml"));
    let types = config
        .split_once("disallowed-types=[")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map_or("", |(list, _)| list);
    for ty in [
        "time::Instant",
        "time::SystemTime",
        "collections::HashMap",
        "collections::HashSet",
    ] {
        assert!(
            types.contains(&format!("path=\"std::{ty}\"")),
            "clippy.toml must list `std::{ty}` under disallowed-types"
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
