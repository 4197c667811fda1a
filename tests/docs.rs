//! The docs check (tier 1): DESIGN.md, README.md and EXPERIMENTS.md may
//! refer only to what the workspace has, and may quote host cost only
//! with its source. Six rules, each reported as `doc:line: (rule) what`:
//!
//! - (a) no `<file>.rs:<line>` reference; a line number rots with the
//!   next edit above it, so name the function instead;
//! - (b) every segment of a backticked `a::b[::c]` path is an identifier
//!   somewhere in the workspace's `.rs` sources (paths that start with
//!   `std`, `core` or `clippy` name external items and are exempt);
//! - (c) a backticked repo path (`crates/…`, `tests/…`, …) exists;
//! - (d) a paragraph (a blank-line-separated block; a table is one) that
//!   quotes a figure in ns, µs or us says which PR measured it, `(PR N)`;
//! - (e) every `-p`, `--bin`, `--example` and `--test` names a package,
//!   binary, example or test target of the workspace;
//! - (f) every `DESIGN.md §N` names a `## N.` heading of DESIGN.md. This
//!   rule also reads CI's workflow and the workspace's `.rs` sources,
//!   which cite DESIGN.md's sections too.
//!
//! Std only; the source index is built once per test binary.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The docs under check, at the repo root.
const DOCS: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];
/// Where the workspace's `.rs` sources live (`bench/` is a separate build).
const SOURCE_DIRS: [&str; 5] = ["crates", "src", "tests", "examples", "vendor"];
/// This file plants names that exist nowhere else; it must not vouch for them.
const SELF: &str = "tests/docs.rs";
/// CI's workflow, checked for rule (f) only.
const CI: &str = ".github/workflows/ci.yml";
/// A backticked word starting with one of these is a path into the repo.
const REPO_DIRS: [&str; 8] = [
    "crates/",
    "tests/",
    "scenarios/",
    "results/",
    "bench/",
    "tools/",
    "examples/",
    "src/",
];
/// First path segments that name items outside the workspace.
const EXTERNAL: [&str; 3] = ["std", "core", "clippy"];
/// Host-cost units; a figure in one of these needs its `(PR N)`.
const UNITS: [&str; 3] = ["ns", "µs", "us"];

/// What the workspace has for the docs to name.
struct Workspace {
    root: PathBuf,
    /// Every `.rs` file of the workspace: repo-relative path and text.
    sources: Vec<(String, String)>,
    /// DESIGN.md's section numbers, from its `## N.` headings.
    sections: BTreeSet<String>,
    packages: BTreeSet<String>,
    bins: BTreeSet<String>,
    examples: BTreeSet<String>,
    tests: BTreeSet<String>,
}

#[derive(Debug)]
struct Finding {
    doc: String,
    line: usize,
    rule: char,
    what: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: ({}) {}",
            self.doc, self.line, self.rule, self.what
        )
    }
}

fn workspace() -> &'static Workspace {
    static WS: OnceLock<Workspace> = OnceLock::new();
    WS.get_or_init(|| {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let mut sources = Vec::new();
        for dir in SOURCE_DIRS {
            read_sources(&root, &root.join(dir), &mut sources);
        }
        let design = fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
        let sections = design
            .lines()
            .filter_map(|l| l.strip_prefix("## ")?.split_once('.'))
            .map(|(n, _)| n.to_string())
            .collect();
        let mut ws = Workspace {
            sources,
            sections,
            packages: BTreeSet::new(),
            bins: BTreeSet::new(),
            examples: BTreeSet::new(),
            tests: BTreeSet::new(),
            root: root.clone(),
        };
        let mut members = vec![root.clone()];
        for group in ["crates", "vendor"] {
            members.extend(
                sorted_entries(&root.join(group))
                    .into_iter()
                    .filter(|p| p.is_dir()),
            );
        }
        for member in members {
            index_targets(&member, &mut ws);
        }
        ws
    })
}

impl Workspace {
    /// Whether `name` occurs as a whole identifier-shaped word in the sources.
    fn has_ident(&self, name: &str) -> bool {
        self.sources.iter().any(|(_, s)| {
            s.match_indices(name).any(|(i, _)| {
                let before = s[..i].chars().next_back();
                let after = s[i + name.len()..].chars().next();
                !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
            })
        })
    }
}

fn sorted_entries(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    paths.sort();
    paths
}

/// Appends every `.rs` file under `dir` to `out`, keyed by its path
/// relative to `root`.
fn read_sources(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    for path in sorted_entries(dir) {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                read_sources(root, &path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with(SELF) {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let text = fs::read_to_string(&path).unwrap_or_default();
            out.push((rel.display().to_string(), text));
        }
    }
}

fn stems(dir: &Path) -> impl Iterator<Item = String> {
    sorted_entries(dir).into_iter().filter_map(|p| {
        let rs = p.extension().is_some_and(|e| e == "rs");
        rs.then(|| p.file_stem()?.to_str().map(str::to_string))?
    })
}

/// A package's name and targets: `[package]`/`[[bin]]` names from its
/// manifest, plus cargo's auto-discovered `src/main.rs`, `src/bin/*.rs`,
/// `examples/*.rs` and `tests/*.rs`.
fn index_targets(member: &Path, ws: &mut Workspace) {
    let Ok(manifest) = fs::read_to_string(member.join("Cargo.toml")) else {
        return;
    };
    let mut section = "";
    let mut package = None;
    let mut bin_paths = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let value = value.trim().trim_matches('"').to_string();
        match (section, key.trim()) {
            ("[package]", "name") => package = Some(value),
            ("[[bin]]", "name") => {
                ws.bins.insert(value);
            }
            ("[[bin]]", "path") => bin_paths.push(value),
            _ => {}
        }
    }
    let Some(package) = package else {
        return;
    };
    if member.join("src/main.rs").is_file() && !bin_paths.iter().any(|p| p == "src/main.rs") {
        ws.bins.insert(package.clone());
    }
    ws.packages.insert(package);
    ws.bins.extend(stems(&member.join("src/bin")));
    ws.examples.extend(stems(&member.join("examples")));
    ws.tests.extend(stems(&member.join("tests")));
}

/// A doc's words, each with its 1-based line and whether it sits in code
/// (an inline backtick span, which may wrap, or a fenced block).
fn words(text: &str) -> Vec<(usize, &str, bool)> {
    let mut out = Vec::new();
    let mut fenced = false;
    let mut inline = false;
    for (n, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        for (k, piece) in line.split('`').enumerate() {
            if k > 0 && !fenced {
                inline = !inline;
            }
            for word in piece.split_whitespace() {
                out.push((n + 1, word, fenced || inline));
            }
        }
    }
    out
}

/// Lines of a doc grouped into paragraphs: blank lines outside a fenced
/// block separate them, so a table or a code block is one paragraph.
fn paragraphs(text: &str) -> Vec<Vec<(usize, &str)>> {
    let mut out = vec![Vec::new()];
    let mut fenced = false;
    for (n, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        }
        if line.trim().is_empty() && !fenced {
            out.push(Vec::new());
        } else if let Some(last) = out.last_mut() {
            last.push((n + 1, line));
        }
    }
    out.retain(|p| !p.is_empty());
    out
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// (a) `name.rs:<digits>`.
fn line_refs(line: &str) -> Vec<&str> {
    let mut refs = Vec::new();
    for (i, _) in line.match_indices(".rs:") {
        let digits = line[i + 4..]
            .chars()
            .take_while(char::is_ascii_digit)
            .count();
        let start = line[..i]
            .rfind(|c: char| !(is_ident_char(c) || c == '/' || c == '-'))
            .map_or(0, |j| {
                j + line[j..].chars().next().map_or(1, char::len_utf8)
            });
        if digits > 0 && start < i {
            refs.push(&line[start..i + 4 + digits]);
        }
    }
    refs
}

/// (b) each `a::b[::c]` run in a code word, split into its segments.
fn rust_paths(word: &str) -> Vec<Vec<&str>> {
    word.split(|c: char| !(is_ident_char(c) || c == ':' || c == '-'))
        .filter(|run| run.contains("::"))
        .map(|run| {
            run.split("::")
                .map(|s| s.trim_matches(|c| c == ':' || c == '-'))
                .filter(|s| !s.is_empty())
                .collect()
        })
        .collect()
}

/// (c) the existing prefix a repo-path code word must name: up to the
/// last `/` before a placeholder (`<name>`, `*`, `{…}`, `…`).
fn repo_path(word: &str) -> Option<&str> {
    let word = word.trim_start_matches(['(', '"', '\'']);
    if !REPO_DIRS.iter().any(|d| word.starts_with(d)) {
        return None;
    }
    let word = word.trim_end_matches([',', '.', ';', ':', ')', '"', '\'']);
    let word = word.split("::").next().unwrap_or(word);
    match word.find(['<', '*', '{', '…', '[']) {
        Some(i) => Some(&word[..=word[..i].rfind('/')?]),
        None => Some(word),
    }
}

/// (d) each host-cost figure on a line: a digit, optional spaces, a unit
/// that ends the word.
fn cost_figures(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for unit in UNITS {
        for (i, _) in line.match_indices(unit) {
            let after = line[i + unit.len()..].chars().next();
            let before = line[..i].trim_end_matches([' ', '\u{a0}', '\u{2009}']);
            if after.is_some_and(is_ident_char) || !before.ends_with(|c: char| c.is_ascii_digit()) {
                continue;
            }
            let start = before
                .rfind(|c: char| !(c.is_ascii_digit() || c == '.' || c == ','))
                .map_or(0, |j| {
                    j + before[j..].chars().next().map_or(1, char::len_utf8)
                });
            out.push(format!("{} {unit}", &before[start..]));
        }
    }
    out
}

/// (f) each section number a line cites as `DESIGN.md §N` (or `DESIGN §N`)
/// that DESIGN.md has no `## N.` heading for.
fn check_sections(doc: &str, text: &str, ws: &Workspace) -> Vec<Finding> {
    let mut found = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for rest in line.split("DESIGN").skip(1) {
            let rest = rest.strip_prefix(".md").unwrap_or(rest).trim_start();
            let Some(rest) = rest.strip_prefix('§') else {
                continue;
            };
            let section = &rest[..rest.chars().take_while(char::is_ascii_digit).count()];
            if !section.is_empty() && !ws.sections.contains(section) {
                found.push(Finding {
                    doc: doc.to_string(),
                    line: n + 1,
                    rule: 'f',
                    what: format!("`DESIGN.md §{section}`: DESIGN.md has no `## {section}.`"),
                });
            }
        }
    }
    found
}

fn attributed(paragraph: &[(usize, &str)]) -> bool {
    paragraph.iter().any(|(_, line)| {
        line.match_indices("(PR ").any(|(i, _)| {
            let rest = &line[i + 4..];
            let digits = rest.chars().take_while(char::is_ascii_digit).count();
            digits > 0 && rest[digits..].starts_with(')')
        })
    })
}

fn check(doc: &str, text: &str, ws: &Workspace) -> Vec<Finding> {
    let mut found = Vec::new();
    let mut report = |line: usize, rule: char, what: String| {
        found.push(Finding {
            doc: doc.to_string(),
            line,
            rule,
            what,
        });
    };
    for (n, line) in text.lines().enumerate() {
        for r in line_refs(line) {
            report(
                n + 1,
                'a',
                format!("`{r}`: name the function, not the line"),
            );
        }
    }
    let words = words(text);
    let mut seen = BTreeMap::new();
    for &(line, word, code) in &words {
        if !code {
            continue;
        }
        for path in rust_paths(word) {
            if path.first().is_some_and(|s| EXTERNAL.contains(s)) {
                continue;
            }
            for seg in &path {
                let ident = seg.replace('-', "_");
                if !*seen.entry(ident).or_insert_with_key(|i| ws.has_ident(i)) {
                    report(
                        line,
                        'b',
                        format!("`{}`: no `{seg}` in the sources", path.join("::")),
                    );
                }
            }
        }
        if let Some(p) = repo_path(word) {
            if !ws.root.join(p).exists() {
                report(line, 'c', format!("`{p}` does not exist"));
            }
        }
    }
    for paragraph in paragraphs(text) {
        if attributed(&paragraph) {
            continue;
        }
        for &(line, body) in &paragraph {
            for fig in cost_figures(body) {
                report(line, 'd', format!("{fig} quoted without `(PR N)`"));
            }
        }
    }
    let bare = |w: &str| {
        w.trim_matches(|c: char| matches!(c, '`' | ',' | '.' | ';' | ':' | '(' | ')'))
            .to_string()
    };
    for pair in words.windows(2) {
        let (line, flag, _) = pair[0];
        let name = bare(pair[1].1);
        let (kind, known) = match bare(flag).as_str() {
            "-p" => ("package", &ws.packages),
            "--bin" => ("binary", &ws.bins),
            "--example" => ("example", &ws.examples),
            "--test" => ("test target", &ws.tests),
            _ => continue,
        };
        if !known.contains(&name) {
            report(
                line,
                'e',
                format!("`{} {name}`: no such {kind}", bare(flag)),
            );
        }
    }
    found.extend(check_sections(doc, text, ws));
    found.sort_by_key(|f| (f.line, f.rule));
    found
}

#[test]
fn docs_refer_only_to_what_the_workspace_has() {
    let ws = workspace();
    let mut all = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(ws.root.join(doc)).expect("doc readable");
        all.extend(check(doc, &text, ws));
    }
    let ci = fs::read_to_string(ws.root.join(CI)).expect("CI workflow readable");
    all.extend(check_sections(CI, &ci, ws));
    for (path, text) in &ws.sources {
        all.extend(check_sections(path, text, ws));
    }
    let listing: Vec<String> = all.iter().map(ToString::to_string).collect();
    assert!(
        all.is_empty(),
        "{} docs finding(s):\n{}",
        all.len(),
        listing.join("\n")
    );
}

#[test]
fn each_rule_reports_its_planted_input() {
    let planted = "\
intro line
The guard sits at falcon-sim/src/alloc.rs:296 today.
See `falcon_sim::NoSuchItem` and `falcon_sim::alloc::IncrementalMaxMin`.
Run `tests/nope.rs`, not `tests/docs.rs` or `results/<name>.csv`.

A GP fit ≈ 69 µs on some host.

A GP fit ≈ 33.6 µs on a 2-core host (PR 40).

`cargo run -p falcon-nope --bin falcon`
`cargo test --test golden_trace --example quickstart --bin nope`
The engines are DESIGN.md §7; the old DES section was DESIGN.md §11.
";
    let found = check("PLANTED.md", planted, workspace());
    let got: Vec<String> = found
        .iter()
        .map(|f| format!("{}{}", f.line, f.rule))
        .collect();
    assert_eq!(got.join(" "), "2a 3b 4c 6d 10e 11e 12f", "{found:#?}");
}
