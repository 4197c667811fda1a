//! The engine: workspace walking, test-region masking, suppression
//! handling, and the top-level lint entry points.
//!
//! Each file is linted on its own: lex, mask test regions, run every rule
//! family. The files' lock-order edges are then checked for cycles once,
//! across the workspace. Inline suppressions apply to all findings, keyed
//! by the file each finding lands in, and a directive that silences
//! nothing is itself a finding.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lexer;
use crate::rules::{check_file, check_lock_order, FileInput, Finding, LockEdge, Rule};

/// One file handed to the linter: repo-relative path, owning crate, and
/// source text.
pub struct SourceSpec {
    /// Repo-relative path with forward slashes (used in reports).
    pub rel_path: String,
    /// Crate the file belongs to (scopes crate-specific rules).
    pub crate_name: String,
    /// Full source text.
    pub src: String,
}

/// Directories (path components) never linted: build output, vendored
/// stubs, and test/bench/example targets (test code is exempt by design;
/// `src/bin` and `main.rs` are process entry points where aborting with a
/// message *is* the error path).
const SKIP_DIRS: [&str; 6] = ["target", "vendor", "tests", "benches", "examples", "bin"];

/// Lint every library source file under `root` (a workspace checkout).
/// Returns findings *after* inline suppressions, sorted by file and line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(lint_files(&workspace_sources(root)?))
}

/// Read every lintable source file under `root` into memory. Exposed
/// separately from [`lint_workspace`] so benchmarks can pin the analysis
/// cost without the disk IO.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<SourceSpec>> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs_files(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let dir = entry?.path().join("src");
            if dir.is_dir() {
                collect_rs_files(&dir, &mut files)?;
            }
        }
    }
    files.sort();
    let mut specs = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path)?;
        let rel = relative_path(root, &path);
        let crate_name = crate_of(&rel);
        specs.push(SourceSpec {
            rel_path: rel,
            crate_name,
            src,
        });
    }
    Ok(specs)
}

/// Lint one file's source text. `rel_path` is the repo-relative path used
/// in reports; `crate_name` scopes crate-specific rules (determinism).
/// This is the seam the fixture corpus drives directly.
pub fn lint_source(rel_path: &str, crate_name: &str, src: &str) -> Vec<Finding> {
    lint_files(&[SourceSpec {
        rel_path: rel_path.to_string(),
        crate_name: crate_name.to_string(),
        src: src.to_string(),
    }])
}

/// One valid `falcon-lint::allow` directive.
struct Directive {
    line: u32,
    rules: Vec<Rule>,
    /// Whether it silenced at least one finding.
    used: bool,
}

/// Lint a set of files as one workspace: every rule per file, the
/// lock-order cycle check over all files' edges, then inline suppressions
/// per file.
pub fn lint_files(specs: &[SourceSpec]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut directives: BTreeMap<&str, Vec<Directive>> = BTreeMap::new();
    for spec in specs {
        let lexed = lexer::lex(&spec.src);
        let test_mask = test_region_mask(&lexed.tokens);
        let input = FileInput {
            tokens: &lexed.tokens,
            test_mask: &test_mask,
            crate_name: &spec.crate_name,
            file: &spec.rel_path,
        };
        check_file(&input, &mut findings, &mut edges);

        // Collect inline suppressions; malformed directives become
        // findings immediately.
        let file_directives = directives.entry(&spec.rel_path).or_default();
        for comment in &lexed.comments {
            match parse_suppression(&comment.text) {
                SuppressionParse::None => {}
                SuppressionParse::Ok(rules) => file_directives.push(Directive {
                    line: comment.line,
                    rules,
                    used: false,
                }),
                SuppressionParse::Malformed(why) => findings.push(Finding {
                    rule: Rule::BadSuppression,
                    file: spec.rel_path.clone(),
                    line: comment.line,
                    message: why,
                }),
            }
        }
    }
    findings.extend(check_lock_order(&edges));

    // Apply suppressions: a directive covers its own line (trailing
    // comment) and the line after (directive on its own line), within its
    // file.
    findings.retain(|f| {
        let Some(file_directives) = directives.get_mut(f.file.as_str()) else {
            return true;
        };
        let mut silenced = false;
        for d in file_directives.iter_mut() {
            if (f.line == d.line || f.line == d.line + 1) && d.rules.contains(&f.rule) {
                d.used = true;
                silenced = true;
            }
        }
        !silenced
    });
    for (file, file_directives) in &directives {
        for d in file_directives.iter().filter(|d| !d.used) {
            findings.push(Finding {
                rule: Rule::BadSuppression,
                file: file.to_string(),
                line: d.line,
                message: "directive silences nothing; delete it".to_string(),
            });
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Crate name from a repo-relative path (`crates/falcon-sim/src/...` →
/// `falcon-sim`; the root `src/` belongs to the umbrella crate).
fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    if parts.next() == Some("crates") {
        parts.next().unwrap_or("unknown").to_string()
    } else {
        "falcon-repro".to_string()
    }
}

fn relative_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") && name != "main.rs" {
            out.push(path);
        }
    }
    Ok(())
}

/// Mark every token inside a `#[cfg(test)]` item or `#[test]` function.
///
/// When an attribute group contains `cfg` with a `test` flag (and no
/// `not`), or is exactly `#[test]`, the following item — through its
/// closing brace or terminating semicolon — is a test region.
fn test_region_mask(tokens: &[lexer::Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct("#") {
            i += 1;
            continue;
        }
        // Inner attribute `#![...]`: skip, never a region marker.
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|t| t.is_punct("!")) {
            j += 1;
        }
        if !tokens.get(j).is_some_and(|t| t.is_punct("[")) {
            i += 1;
            continue;
        }
        let attr_start = j + 1;
        let attr_end = match matching_bracket(tokens, j) {
            Some(e) => e,
            None => return mask,
        };
        let inner = &tokens[attr_start..attr_end];
        let inner_attr = tokens[i + 1].is_punct("!");
        if !inner_attr && is_test_attribute(inner) {
            // Skip any further attributes on the same item.
            let mut k = attr_end + 1;
            while tokens.get(k).is_some_and(|t| t.is_punct("#")) {
                let Some(open) = tokens.get(k + 1).filter(|t| t.is_punct("[")) else {
                    break;
                };
                let _ = open;
                match matching_bracket(tokens, k + 1) {
                    Some(e) => k = e + 1,
                    None => return mask,
                }
            }
            // The item body: everything through the matching close brace of
            // its first `{`, or through a terminating `;` (e.g. a
            // `#[cfg(test)] use ...;`).
            let mut depth = 0i32;
            let mut end = tokens.len();
            let mut saw_brace = false;
            for (idx, t) in tokens.iter().enumerate().skip(k) {
                if t.is_punct("{") {
                    depth += 1;
                    saw_brace = true;
                } else if t.is_punct("}") {
                    depth -= 1;
                    if saw_brace && depth == 0 {
                        end = idx + 1;
                        break;
                    }
                } else if t.is_punct(";") && !saw_brace {
                    end = idx + 1;
                    break;
                }
            }
            for m in mask.iter_mut().take(end).skip(i) {
                *m = true;
            }
            i = end;
        } else {
            i = attr_end + 1;
        }
    }
    mask
}

/// Does an attribute token group mark test-only code? `test` alone, or a
/// `cfg(...)` whose flags include `test` un-negated.
fn is_test_attribute(inner: &[lexer::Token]) -> bool {
    if inner.len() == 1 && inner[0].is_ident("test") {
        return true;
    }
    if !inner.first().is_some_and(|t| t.is_ident("cfg")) {
        return false;
    }
    let has_test = inner.iter().any(|t| t.is_ident("test"));
    let has_not = inner.iter().any(|t| t.is_ident("not"));
    has_test && !has_not
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(tokens: &[lexer::Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (idx, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return Some(idx);
            }
        }
    }
    None
}

enum SuppressionParse {
    /// Not a suppression directive at all.
    None,
    /// Valid: these rules are suppressed for the directive's line span.
    Ok(Vec<Rule>),
    /// Looks like a directive but is unusable; reported as a finding.
    Malformed(String),
}

/// Parse `falcon-lint::allow(rule[, rule...], reason = "...")` out of a
/// comment. The reason is mandatory: a suppression without a recorded
/// justification is reviewer folklore again.
fn parse_suppression(comment: &str) -> SuppressionParse {
    const MARKER: &str = "falcon-lint::allow(";
    // Doc comments never carry directives — they may legitimately *describe*
    // the syntax (as this crate's own docs do).
    if comment.starts_with("///")
        || comment.starts_with("//!")
        || comment.starts_with("/**")
        || comment.starts_with("/*!")
    {
        return SuppressionParse::None;
    }
    let Some(start) = comment.find(MARKER) else {
        return SuppressionParse::None;
    };
    let rest = &comment[start + MARKER.len()..];
    // The closing paren must be outside the quoted reason — prose like
    // `reason = "see foo() for details"` may legitimately contain parens.
    let Some(close) = find_outside_quotes(rest, ')') else {
        return SuppressionParse::Malformed(
            "unclosed falcon-lint::allow(...) directive".to_string(),
        );
    };
    let args = &rest[..close];
    let mut rules = Vec::new();
    let mut has_reason = false;
    for part in split_top_level_commas(args) {
        let part = part.trim();
        if let Some(reason) = part.strip_prefix("reason") {
            let reason = reason.trim_start().strip_prefix('=').unwrap_or("").trim();
            let quoted = reason.len() >= 2 && reason.starts_with('"') && reason.ends_with('"');
            if quoted && reason.len() > 2 {
                has_reason = true;
            } else {
                return SuppressionParse::Malformed(
                    "falcon-lint::allow reason must be a non-empty quoted string".to_string(),
                );
            }
        } else if let Some(rule) = Rule::from_name(part) {
            rules.push(rule);
        } else {
            let known: Vec<&str> = Rule::FAMILIES.iter().map(|r| r.name()).collect();
            return SuppressionParse::Malformed(format!(
                "falcon-lint::allow names unknown rule {part:?} (known: {})",
                known.join(", ")
            ));
        }
    }
    if rules.is_empty() {
        return SuppressionParse::Malformed(
            "falcon-lint::allow must name at least one rule".to_string(),
        );
    }
    if !has_reason {
        return SuppressionParse::Malformed(
            "falcon-lint::allow requires reason = \"...\"".to_string(),
        );
    }
    SuppressionParse::Ok(rules)
}

/// Byte index of the first `needle` not inside a quoted string.
fn find_outside_quotes(s: &str, needle: char) -> Option<usize> {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (idx, c) in s.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            c if c == needle && !in_str => return Some(idx),
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    None
}

/// Split on commas that are not inside a quoted string (a reason may
/// contain commas).
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    let mut prev_backslash = false;
    for (idx, c) in s.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            ',' if !in_str => {
                out.push(&s[start..idx]);
                start = idx + 1;
            }
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    out.push(&s[start..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(src: &str, crate_name: &str) -> Vec<&'static str> {
        lint_source("x.rs", crate_name, src)
            .into_iter()
            .map(|f| f.rule.name())
            .collect()
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = r#"
            pub fn lib_code(x: Option<u32>) -> u32 { x.unwrap() }
            #[cfg(test)]
            mod tests {
                fn helper(x: Option<u32>) -> u32 { x.unwrap() }
                #[test]
                fn t() { assert_eq!(helper(Some(1)), 1); }
            }
        "#;
        let found = rules_of(src, "falcon-transfer");
        assert_eq!(found, ["panic-safety"], "only the lib unwrap fires");
    }

    #[test]
    fn test_attribute_functions_are_exempt() {
        let src = r#"
            #[test]
            fn t() { Some(1).unwrap(); }
            fn lib() { Some(1).unwrap(); }
        "#;
        assert_eq!(rules_of(src, "falcon-core").len(), 1);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = r#"
            #[cfg(not(test))]
            fn lib() { Some(1).unwrap(); }
        "#;
        assert_eq!(rules_of(src, "falcon-core"), ["panic-safety"]);
    }

    #[test]
    fn suppression_with_reason_silences_next_line() {
        let src = r#"
            // falcon-lint::allow(panic-safety, reason = "boot-time config, fail fast")
            fn lib(x: Option<u32>) -> u32 { x.unwrap() }
        "#;
        assert!(rules_of(src, "falcon-core").is_empty());
    }

    #[test]
    fn suppression_covers_trailing_comment_line() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // falcon-lint::allow(panic-safety, reason = \"demo\")\n";
        assert!(rules_of(src, "falcon-core").is_empty());
    }

    #[test]
    fn suppression_reason_may_contain_parens() {
        let src = r#"
            // falcon-lint::allow(panic-safety, reason = "validated by new() so (1,1) always qualifies")
            fn lib(x: Option<u32>) -> u32 { x.unwrap() }
        "#;
        assert!(rules_of(src, "falcon-core").is_empty());
    }

    #[test]
    fn suppression_without_reason_is_reported() {
        let src = r#"
            // falcon-lint::allow(panic-safety)
            fn lib(x: Option<u32>) -> u32 { x.unwrap() }
        "#;
        let found = rules_of(src, "falcon-core");
        assert!(found.contains(&"bad-suppression"), "{found:?}");
        assert!(found.contains(&"panic-safety"), "{found:?}");
    }

    #[test]
    fn suppression_only_silences_named_rules() {
        // The directive names the wrong rule, so it silences nothing and is
        // reported as well.
        let src = r#"
            // falcon-lint::allow(float-cmp, reason = "wrong rule named")
            fn lib(x: Option<u32>) -> u32 { x.unwrap() }
        "#;
        assert_eq!(
            rules_of(src, "falcon-core"),
            ["bad-suppression", "panic-safety"]
        );
    }

    #[test]
    fn lock_order_cycle_spans_files() {
        let specs: Vec<SourceSpec> = [
            "fn f(s: &S) { let a = s.queue.lock(); let b = s.stats.lock(); }",
            "fn g(s: &S) { let b = s.stats.lock(); let a = s.queue.lock(); }",
        ]
        .iter()
        .enumerate()
        .map(|(i, src)| SourceSpec {
            rel_path: format!("crates/falcon-net/src/f{i}.rs"),
            crate_name: "falcon-net".to_string(),
            src: src.to_string(),
        })
        .collect();
        let found = lint_files(&specs);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, Rule::LockOrder);
    }

    #[test]
    fn determinism_scoped_to_seeded_crates() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(rules_of(src, "falcon-sim"), ["determinism"]);
        assert!(rules_of(src, "falcon-net").is_empty());
    }

    #[test]
    fn crate_of_paths() {
        assert_eq!(crate_of("crates/falcon-sim/src/sim.rs"), "falcon-sim");
        assert_eq!(crate_of("src/lib.rs"), "falcon-repro");
    }

    #[test]
    fn lock_across_sleep_fires_and_drop_clears() {
        let bad = r#"
            fn f(m: &Mutex<u32>) {
                let g = m.lock();
                std::thread::sleep(d);
            }
        "#;
        assert_eq!(rules_of(bad, "falcon-net"), ["lock-across-blocking"]);
        let good = r#"
            fn f(m: &Mutex<u32>) {
                let g = m.lock();
                drop(g);
                std::thread::sleep(d);
            }
        "#;
        assert!(rules_of(good, "falcon-net").is_empty());
    }

    #[test]
    fn consumed_temporary_guard_dies_at_statement_end() {
        // The guard is a temporary consumed by `.drain().collect()`; the
        // binding holds the collected Vec, not the guard, so blocking after
        // the `;` is fine.
        let good = r#"
            fn f(m: &Mutex<Vec<Worker>>) {
                let retired: Vec<Worker> = m.lock().drain(..).collect();
                for w in retired { let _ = w.handle.join(); }
            }
        "#;
        assert!(rules_of(good, "falcon-net").is_empty());
        // But `.lock().unwrap()` still binds the guard itself.
        let bad = r#"
            fn f(m: &std::sync::Mutex<u32>) {
                let g = m.lock().unwrap();
                std::thread::sleep(d);
            }
        "#;
        // (`.unwrap()` on the poisoning lock also trips panic-safety.)
        assert_eq!(
            rules_of(bad, "falcon-net"),
            ["panic-safety", "lock-across-blocking"]
        );
    }

    #[test]
    fn float_eq_fires_only_on_literals() {
        assert_eq!(
            rules_of("fn f(x: f64) -> bool { x == 1.0 }", "falcon-core"),
            ["float-cmp"]
        );
        assert!(rules_of("fn f(x: u32) -> bool { x == 1 }", "falcon-core").is_empty());
    }
}
