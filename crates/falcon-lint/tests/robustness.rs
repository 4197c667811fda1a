//! Robustness properties for the lint toolchain: arbitrary byte soup,
//! Rust-ish fragment soup, and truncated real Rust must never panic
//! anywhere in the pipeline (lexer, loop matching, rules, engine), and
//! lexing is stable under re-rendering — stripping a file to its token
//! stream and lexing that stream again yields the same tokens.

use falcon_lint::lexer::{lex, Token, TokenKind};
use falcon_lint::lint_source;
use falcon_lint::parse::loop_bodies;
use proptest::prelude::*;

/// Fragments the soup generator splices together: partial items, loop
/// headers, locks, suppressions (valid and malformed), test attributes,
/// unterminated literals, and plain garbage.
const FRAGMENTS: [&str; 28] = [
    "fn",
    "pub fn step_sim",
    "(",
    ")",
    "{",
    "}",
    "->",
    "f64",
    ";",
    ",",
    "let t =",
    "t += dt_s;",
    "impl Harness for Net",
    "for i in 0..n {",
    "while at_s < until_s {",
    "loop {",
    "self.m.lock()",
    ".lock().unwrap()",
    "// falcon-lint::allow(lock-order, reason = \"x\")",
    "// falcon-lint::allow(bogus",
    "#[cfg(test)]",
    "#[test]",
    "mod tests {",
    "\"unterminated",
    "r#\"raw\"#",
    "'label: loop {",
    "'x'",
    "Instant::now()",
];

/// Run every stage of the pipeline over one source; panics fail the test.
fn exercise(src: &str) {
    let _ = loop_bodies(&lex(src).tokens);
    let _ = lint_source("crates/falcon-sim/src/soup.rs", src);
}

/// Render a token stream back to compilable-ish text, one space between
/// tokens (string/char literals, whose content the lexer drops, render as
/// an empty string literal).
fn render(tokens: &[Token]) -> String {
    let mut out = String::new();
    for t in tokens {
        match t.kind {
            TokenKind::Str => out.push_str("\"\""),
            _ => out.push_str(&t.text),
        }
        out.push(' ');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rust-ish fragment soup never panics the pipeline.
    #[test]
    fn fragment_soup_never_panics(
        picks in proptest::collection::vec((0usize..FRAGMENTS.len(), 0u8..4), 0..80),
    ) {
        let src: String = picks
            .iter()
            .map(|&(i, sep)| {
                let end = if sep == 0 { " " } else { "\n" };
                format!("{}{end}", FRAGMENTS[i])
            })
            .collect();
        exercise(&src);
    }

    /// Arbitrary bytes (lossily decoded) never panic the pipeline.
    #[test]
    fn byte_soup_never_panics(bytes in proptest::collection::vec(0u8..=255u8, 0..400)) {
        let src = String::from_utf8_lossy(&bytes);
        exercise(&src);
    }

    /// Real Rust truncated at an arbitrary char boundary never panics:
    /// half-open items, dangling attributes, and split operators all
    /// degrade to smaller parses.
    #[test]
    fn truncated_rust_never_panics(idx in 0usize..10_000) {
        let full = concat!(
            include_str!("cases/lock-order/bad.rs"),
            include_str!("cases/lock-across-blocking/bad.rs"),
            include_str!("cases/unit-mismatch/good.rs"),
            include_str!("cases/float-time-accum/bad.rs"),
        );
        let mut cut = idx % (full.len() + 1);
        while !full.is_char_boundary(cut) {
            cut -= 1;
        }
        exercise(&full[..cut]);
    }

    /// Strip → lex is idempotent: lexing a file, rendering the token
    /// stream, and lexing again reproduces the same (kind, text) sequence.
    /// This pins the lexer's classification as self-consistent — a token
    /// it emits is a token it re-reads identically.
    #[test]
    fn strip_then_lex_is_idempotent(
        picks in proptest::collection::vec((0usize..FRAGMENTS.len(), 0u8..4), 0..60),
    ) {
        let src: String = picks
            .iter()
            .map(|&(i, sep)| {
                let end = if sep == 0 { " " } else { "\n" };
                format!("{}{end}", FRAGMENTS[i])
            })
            .collect();
        let once = lex(&src).tokens;
        let twice = lex(&render(&once)).tokens;
        prop_assert_eq!(once.len(), twice.len());
        for (a, b) in once.iter().zip(&twice) {
            prop_assert_eq!(a.kind, b.kind);
            if a.kind != TokenKind::Str {
                prop_assert_eq!(&a.text, &b.text);
            }
        }
    }
}
